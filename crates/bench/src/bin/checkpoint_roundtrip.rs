//! CI gate: exercises the checkpoint write → resume path end to end on
//! a real file — a sequential (raster) chain and a parallel
//! (checkerboard) chain are each killed mid-run, checkpointed to disk,
//! reloaded and resumed, and the resumed fields must equal the
//! uninterrupted references bit for bit (the parallel chain resuming on
//! a different thread count than it was killed on). A chain stepped in
//! checkpoint-interval chunks must also equal one stepped in one go.
//! Exits non-zero on any divergence.

use bench::checkpoint::CheckpointCtl;
use chain::{Chain, Engine, SamplerKind};
use mrf::{Checkpoint, DistanceFn, LabelField, NoopObserver, NumericPolicy, Schedule, TabularMrf};
use std::path::Path;
use std::process::ExitCode;

const ITERATIONS: usize = 24;
const KILL_AT: usize = 11;
const SEED: u64 = 2024;

fn raster(_threads: usize) -> Engine<'static> {
    Engine::Raster(SamplerKind::software())
}

fn checkerboard(threads: usize) -> Engine<'static> {
    Engine::Checkerboard {
        sampler: SamplerKind::software(),
        threads,
        numeric: NumericPolicy::Exact,
        active: false,
    }
}

/// One gated engine: display name, run label, engine at a thread
/// count, and the kill and resume thread counts.
type Case = (
    &'static str,
    &'static str,
    fn(usize) -> Engine<'static>,
    usize,
    usize,
);

/// Kills the chain at [`KILL_AT`], reloads its checkpoint from `path`
/// and finishes it; `Err` describes what went wrong.
fn kill_and_resume(
    model: &TabularMrf,
    schedule: Schedule,
    (_, label, engine, kill_threads, resume_threads): Case,
    path: &Path,
) -> Result<LabelField, String> {
    CheckpointCtl::new(Some(KILL_AT), path.to_path_buf(), None).run(
        label,
        model,
        schedule,
        SEED,
        &mut engine(kill_threads),
        KILL_AT,
    );
    let checkpoint = Checkpoint::load(path).map_err(|e| format!("reload failed: {e}"))?;
    if checkpoint.next_iteration != KILL_AT {
        return Err(format!(
            "checkpoint is at sweep {}, expected {KILL_AT}",
            checkpoint.next_iteration
        ));
    }
    let raster = matches!(engine(1), Engine::Raster(_));
    if raster != checkpoint.rng_state.is_some() {
        return Err("exactly the raster checkpoints carry sequential RNG words".into());
    }
    let mut ctl = CheckpointCtl::new(None, path.to_path_buf(), Some(checkpoint));
    Ok(ctl
        .run(
            label,
            model,
            schedule,
            SEED,
            &mut engine(resume_threads),
            ITERATIONS,
        )
        .into_field())
}

fn main() -> ExitCode {
    let model = TabularMrf::checkerboard(14, 12, 3, 5.0, DistanceFn::Binary, 0.4);
    let schedule = Schedule::geometric(3.0, 0.9, 0.1);
    let dir = std::env::temp_dir().join("retrsu-checkpoint-roundtrip");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("checkpoint_roundtrip: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    let cases: [Case; 2] = [
        ("sequential", "gate/seq", raster, 1, 1),
        (
            "parallel (2t kill → 7t resume)",
            "gate/par",
            checkerboard,
            2,
            7,
        ),
    ];
    for case in cases {
        let (name, label, engine, _, _) = case;
        // The uninterrupted reference runs on one thread.
        let mut reference = Chain::new(&model, schedule, SEED);
        reference.step(&model, &mut engine(1), ITERATIONS, None, &mut NoopObserver);
        let path = dir.join(format!("{}.ckpt", label.replace('/', "-")));
        match kill_and_resume(&model, schedule, case, &path) {
            Ok(resumed) if &resumed == reference.field() => {}
            Ok(_) => {
                eprintln!(
                    "checkpoint_roundtrip: {name} resume diverged from the uninterrupted run"
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("checkpoint_roundtrip: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Checkpoint-interval chunking must not change the chain.
        let chunked = CheckpointCtl::new(Some(5), path.clone(), None).run(
            label,
            &model,
            schedule,
            SEED,
            &mut engine(1),
            ITERATIONS,
        );
        if chunked.field() != reference.field()
            || chunked.energy_history() != reference.energy_history()
        {
            eprintln!("checkpoint_roundtrip: {name} chain drifted when stepped in chunks");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "checkpoint_roundtrip: sequential and parallel kill/resume both bit-identical \
         (kill at sweep {KILL_AT} of {ITERATIONS})"
    );
    ExitCode::SUCCESS
}
