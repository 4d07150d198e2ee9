//! Checkpoint/resume plumbing for the experiment drivers.
//!
//! Long annealing sweeps (fig8 runs 43 chains of 150 sweeps each) should
//! survive interruption. Every driver accepts
//!
//! * `--checkpoint-every <N>` — write an [`mrf::Checkpoint`] to
//!   `artifacts/<driver>.ckpt` after every `N` completed sweeps (and at
//!   the end of each run), atomically;
//! * `--resume <path>` — load a checkpoint and continue the interrupted
//!   run from it.
//!
//! # Resume model
//!
//! A driver executes a fixed, deterministic sequence of runs, each with
//! a unique label (e.g. `fig8/tb5/tr0.5`). The checkpoint records the
//! label of the run it interrupted (in the [`mrf::Checkpoint::engine`]
//! field). On `--resume`, runs *before* the labelled one are recomputed
//! — they are deterministic and cheap relative to the tail — and the
//! labelled run continues from the stored field, energy accumulator and
//! RNG state; runs after it proceed normally.
//!
//! # Determinism contract
//!
//! A resumed run is **bit-identical** to an uninterrupted one at any
//! thread count — the [`Chain`] contract (see the `chain` crate docs).
//! The checkpoint interval never changes a chain either: stepping in
//! chunks equals stepping in one go.

use crate::{artifacts_dir, or_usage_exit, path_flag, positive_flag, process_args};
use chain::{Chain, ChainModel, Engine};
use mrf::{Checkpoint, NoopObserver, Schedule};
use std::path::{Path, PathBuf};

/// Parses `--checkpoint-every N` (or `--checkpoint-every=N`) from the
/// process arguments: the sweep interval between checkpoint writes,
/// `None` when absent. Exits with code 2 on a malformed value.
pub fn checkpoint_every_from_args() -> Option<usize> {
    or_usage_exit(
        parse_checkpoint_every(&process_args()),
        "--checkpoint-every <N>   write a checkpoint every N sweeps, a positive integer",
    )
}

/// The testable core of [`checkpoint_every_from_args`].
pub fn parse_checkpoint_every(args: &[String]) -> Result<Option<usize>, String> {
    positive_flag(args, "--checkpoint-every")
}

const RESUME_USAGE: &str =
    "--resume <path>   continue from a checkpoint written by --checkpoint-every";

/// Parses `--resume <path>` (or `--resume=<path>`) from the process
/// arguments: the checkpoint to continue from, `None` when absent.
/// Exits with code 2 on a missing value.
pub fn resume_path_from_args() -> Option<PathBuf> {
    or_usage_exit(parse_resume_path(&process_args()), RESUME_USAGE)
}

/// The testable core of [`resume_path_from_args`].
pub fn parse_resume_path(args: &[String]) -> Result<Option<PathBuf>, String> {
    path_flag(args, "--resume")
}

/// Per-driver checkpoint control: whether/where to write checkpoints
/// and the loaded checkpoint (if any) waiting for its run to claim it.
#[derive(Debug)]
pub struct CheckpointCtl {
    every: Option<usize>,
    path: PathBuf,
    resume: Option<Checkpoint>,
}

impl CheckpointCtl {
    /// Builds the control from explicit parts (tests and embedding).
    pub fn new(every: Option<usize>, path: PathBuf, resume: Option<Checkpoint>) -> Self {
        CheckpointCtl {
            every,
            path,
            resume,
        }
    }

    /// A control that never writes and never resumes: [`run`](Self::run)
    /// then steps each chain in one go.
    pub fn disabled() -> Self {
        CheckpointCtl::new(None, PathBuf::new(), None)
    }

    /// Builds the control from the process arguments: checkpoints go to
    /// `artifacts/<driver>.ckpt`; a `--resume` checkpoint that cannot
    /// be loaded exits with code 2.
    pub fn from_args_or_exit(driver: &str) -> Self {
        let every = checkpoint_every_from_args();
        let resume = resume_path_from_args().map(|p| {
            let loaded = Checkpoint::load(&p)
                .map_err(|e| format!("cannot resume from {}: {e}", p.display()));
            or_usage_exit(loaded, RESUME_USAGE)
        });
        let path = artifacts_dir().join(format!("{driver}.ckpt"));
        CheckpointCtl::new(every, path, resume)
    }

    /// Sweeps between checkpoint writes (`None`: writing disabled).
    pub fn every(&self) -> Option<usize> {
        self.every
    }

    /// Where checkpoints are written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The label of the pending resume checkpoint, if one is loaded and
    /// not yet claimed.
    pub fn pending_resume(&self) -> Option<&str> {
        self.resume.as_ref().map(|cp| cp.engine.as_str())
    }

    /// Claims the loaded checkpoint if it belongs to the run `label`;
    /// runs with other labels leave it in place (they recompute from
    /// scratch until the interrupted run comes up in driver order).
    pub fn take_resume(&mut self, label: &str) -> Option<Checkpoint> {
        if self.resume.as_ref().is_some_and(|cp| cp.engine == label) {
            self.resume.take()
        } else {
            None
        }
    }

    /// Runs the chain labelled `label` to `iterations` sweeps on
    /// `engine` — continued from the loaded checkpoint when it is this
    /// run's, fresh from `seed` otherwise — and returns it. With a
    /// checkpoint interval the chain steps in interval-aligned chunks
    /// and a checkpoint is written after each one, the last at the end
    /// of the run.
    pub fn run<T: ChainModel + ?Sized>(
        &mut self,
        label: &str,
        model: &T,
        schedule: Schedule,
        seed: u64,
        engine: &mut Engine<'_>,
        iterations: usize,
    ) -> Chain {
        let mut chain = match self.take_resume(label) {
            Some(checkpoint) => Chain::resume(&checkpoint, schedule),
            None => Chain::new(model, schedule, seed),
        };
        loop {
            let until = match self.every {
                Some(every) => ((chain.next_sweep() / every + 1) * every).min(iterations),
                None => iterations,
            };
            chain.step(model, engine, until, None, &mut NoopObserver);
            if self.every.is_some() {
                self.write(&chain.checkpoint(label));
            }
            if chain.next_sweep() >= iterations {
                return chain;
            }
        }
    }

    /// Best-effort checkpoint write: a failure is reported to stderr
    /// but does not abort the run (the checkpoint is durability aid,
    /// not an output artifact).
    fn write(&self, checkpoint: &Checkpoint) {
        if let Err(e) = checkpoint.save(&self.path) {
            eprintln!(
                "warning: failed to write checkpoint {}: {e}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrf::{DistanceFn, LabelField, MrfModel, TabularMrf};
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_checkpoint_every_accepts_both_forms_and_defaults_to_none() {
        assert_eq!(parse_checkpoint_every(&strs(&[])), Ok(None));
        assert_eq!(
            parse_checkpoint_every(&strs(&["--checkpoint-every", "25"])),
            Ok(Some(25))
        );
        assert_eq!(
            parse_checkpoint_every(&strs(&["--checkpoint-every=40"])),
            Ok(Some(40))
        );
        for bad in [
            vec!["--checkpoint-every"],
            vec!["--checkpoint-every", "--resume"],
            vec!["--checkpoint-every", "0"],
            vec!["--checkpoint-every=x"],
        ] {
            assert!(
                parse_checkpoint_every(&strs(&bad)).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn parse_resume_path_handles_presence_absence_and_errors() {
        assert_eq!(parse_resume_path(&strs(&[])), Ok(None));
        assert_eq!(
            parse_resume_path(&strs(&["--resume", "a.ckpt"])),
            Ok(Some(PathBuf::from("a.ckpt")))
        );
        assert_eq!(
            parse_resume_path(&strs(&["--resume=b/c.ckpt"])),
            Ok(Some(PathBuf::from("b/c.ckpt")))
        );
        assert!(parse_resume_path(&strs(&["--resume"])).is_err());
        assert!(parse_resume_path(&strs(&["--resume", "--threads"])).is_err());
        assert!(parse_resume_path(&strs(&["--resume="])).is_err());
    }

    #[test]
    fn take_resume_only_matches_its_own_label() {
        let model = TabularMrf::checkerboard(4, 4, 2, 4.0, DistanceFn::Binary, 0.3);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let field = LabelField::random(model.grid(), 2, &mut rng);
        let cp = Checkpoint::capture("fig/x", &field, 5, -1.0, 3, vec![-1.0]);
        let mut ctl = CheckpointCtl::new(None, PathBuf::new(), Some(cp));
        assert_eq!(ctl.pending_resume(), Some("fig/x"));
        assert!(ctl.take_resume("fig/other").is_none());
        assert!(ctl.take_resume("fig/x").is_some());
        // Claimed exactly once.
        assert!(ctl.take_resume("fig/x").is_none());
        assert_eq!(ctl.pending_resume(), None);
    }
}
