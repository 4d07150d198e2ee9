#![warn(missing_docs)]

//! One way to run an MCMC chain: the figure drivers and the job server
//! both advance a [`Chain`] on a model with an [`Engine`].
//!
//! * [`Chain`] — the label field, the next sweep, the chain seed and
//!   the state the engine carries between steps (the sequential
//!   generator's words, or the solver's [`ResumeState`]), with
//!   [`step`](Chain::step), [`checkpoint`](Chain::checkpoint) and
//!   [`resume`](Chain::resume);
//! * [`Engine`] — the raster [`mrf::SweepSolver`], the checkerboard
//!   [`ParallelSweepSolver`] or an [`RsuArray`]; [`Engine::solver`]
//!   holds the one routing rule between the first two;
//! * [`SamplerKind`] — the per-site samplers under comparison
//!   (software float or any RSU-G design point);
//! * [`app`] — the three applications with their weights, schedules
//!   and scores;
//! * [`minijson`] / [`trace_jsonl`] — JSON documents and JSONL traces.
//!
//! # Determinism contract
//!
//! Stepping a chain in chunks and stepping it in one go give the same
//! chain, and a chain resumed from its checkpoint is **bit-identical**
//! to an uninterrupted one: same final field, same energy history
//! (every f64), same RNG consumption — at any thread count. The raster
//! engine holds this because the checkpoint stores the exact
//! [`Xoshiro256pp`] state words; the checkerboard and array engines
//! because their per-site streams are pure functions of
//! `(seed, iteration, site)`. Both solver engines continue the stored
//! incremental energy accumulator rather than rescanning the field.

pub mod app;
pub mod minijson;
pub mod trace_jsonl;

pub use app::App;

use mrf::{
    total_energy, Checkpoint, Grid, Label, LabelField, MrfModel, NumericPolicy,
    ParallelSweepSolver, ResumeState, Schedule, SiteSampler, SoftwareGibbs, SweepObserver,
    SweepSolver,
};
use rand::{Rng, SeedableRng};
use rsu::{RsuArray, RsuConfig, RsuG};
use sampling::Xoshiro256pp;
use std::sync::atomic::{AtomicBool, Ordering};

/// A per-site sampler under comparison: the software float kernel (the
/// quality reference) or an RSU-G unit at any design point.
#[derive(Debug, Clone)]
pub enum SamplerKind {
    /// IEEE floating-point Gibbs.
    Software(SoftwareGibbs),
    /// An RSU-G functional simulator (boxed: a unit is several times
    /// the size of the software kernel).
    Rsu(Box<RsuG>),
}

impl SamplerKind {
    /// The software float kernel.
    pub fn software() -> Self {
        SamplerKind::Software(SoftwareGibbs::new())
    }

    /// The previous RSU-G design (Wang et al. 2016).
    pub fn previous_rsu() -> Self {
        SamplerKind::Rsu(Box::new(RsuG::previous_design()))
    }

    /// The paper's new RSU-G design.
    pub fn new_rsu() -> Self {
        SamplerKind::Rsu(Box::new(RsuG::new_design()))
    }

    /// An arbitrary RSU-G design point.
    pub fn custom(config: RsuConfig) -> Self {
        SamplerKind::Rsu(Box::new(RsuG::with_config(config)))
    }

    /// Display name used in printed tables.
    pub fn name(&self) -> &'static str {
        match self {
            SamplerKind::Software(_) => "software",
            SamplerKind::Rsu(unit) if *unit.config() == RsuConfig::previous_design() => "prev-RSUG",
            SamplerKind::Rsu(unit) if *unit.config() == RsuConfig::new_design() => "new-RSUG",
            SamplerKind::Rsu(_) => "custom-RSUG",
        }
    }
}

impl SiteSampler for SamplerKind {
    fn begin_iteration(&mut self, temperature: f64) {
        match self {
            SamplerKind::Software(s) => s.begin_iteration(temperature),
            SamplerKind::Rsu(s) => s.begin_iteration(temperature),
        }
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        match self {
            SamplerKind::Software(s) => s.sample_label(energies, temperature, current, rng),
            SamplerKind::Rsu(s) => s.sample_label(energies, temperature, current, rng),
        }
    }

    fn sample_label_f32<R: Rng + ?Sized>(
        &mut self,
        energies: &[f32],
        e_min: f32,
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        match self {
            SamplerKind::Software(s) => {
                s.sample_label_f32(energies, e_min, temperature, current, rng)
            }
            SamplerKind::Rsu(s) => s.sample_label_f32(energies, e_min, temperature, current, rng),
        }
    }
}

/// How a chain's sweeps execute.
pub enum Engine<'a> {
    /// [`SweepSolver`]: raster scan drawing from the chain's one
    /// sequential generator — the historical chain of every figure.
    Raster(SamplerKind),
    /// [`ParallelSweepSolver`]: checkerboard phases with counter-based
    /// per-site streams, identical at every thread count.
    Checkerboard {
        /// The per-site sampler (cloned once per band).
        sampler: SamplerKind,
        /// Worker threads.
        threads: usize,
        /// The inner loop's numeric policy.
        numeric: NumericPolicy,
        /// Active-site sweep scheduling.
        active: bool,
    },
    /// [`RsuArray::sweep_parallel`]: a (possibly fault-injected) array
    /// of RSU-G units, one call per sweep.
    Array {
        /// The array; its statistics accumulate across steps.
        array: &'a mut RsuArray,
        /// Host threads.
        threads: usize,
    },
}

impl Engine<'static> {
    /// The routing rule of the `--threads` / `--numeric` / `--active`
    /// driver flags: the raster engine for one thread, exact numerics
    /// and full sweeps — the historical chain stays untouched — and the
    /// checkerboard engine otherwise, even at one thread: it is the only
    /// engine with the f32 kernel and the worklist, and its
    /// counter-based streams are the chain their determinism contracts
    /// cover.
    pub fn solver(
        sampler: SamplerKind,
        threads: usize,
        numeric: NumericPolicy,
        active: bool,
    ) -> Self {
        if threads <= 1 && numeric == NumericPolicy::Exact && !active {
            Engine::Raster(sampler)
        } else {
            Engine::Checkerboard {
                sampler,
                threads,
                numeric,
                active,
            }
        }
    }
}

/// What a [`Chain`] can run on: every [`MrfModel`], and an [`App`],
/// which forwards to its concrete model.
pub trait ChainModel {
    /// The grid and label count of the model's fields.
    fn label_space(&self) -> (Grid, usize);

    /// Advances `chain` on this model; see [`Chain::step`].
    fn advance<O: SweepObserver>(
        &self,
        chain: &mut Chain,
        engine: &mut Engine<'_>,
        until: usize,
        preempt: Option<&AtomicBool>,
        observer: &mut O,
    ) -> bool;
}

impl<M: MrfModel + Sync> ChainModel for M {
    fn label_space(&self) -> (Grid, usize) {
        (self.grid(), self.num_labels())
    }

    fn advance<O: SweepObserver>(
        &self,
        chain: &mut Chain,
        engine: &mut Engine<'_>,
        until: usize,
        preempt: Option<&AtomicBool>,
        observer: &mut O,
    ) -> bool {
        while chain.next_sweep() < until {
            if preempt.is_some_and(|flag| flag.load(Ordering::Acquire)) {
                return false;
            }
            // A preemptible step yields at every sweep boundary; an
            // uninterruptible one hands the engine the whole range.
            let end = if preempt.is_some() {
                chain.next_sweep() + 1
            } else {
                until
            };
            chain.sweep_to(self, engine, end, observer);
        }
        true
    }
}

/// One MCMC chain: the label field, the next sweep, the chain seed and
/// the state its engine carries between steps.
#[derive(Debug)]
pub struct Chain {
    field: LabelField,
    schedule: Schedule,
    seed: u64,
    /// The sequential generator: it drew the initial field and feeds
    /// the raster engine.
    rng: Xoshiro256pp,
    /// Whether the raster engine consumes `rng`, so checkpoints must
    /// record its words.
    sequential: bool,
    /// The solver engines' accumulators; `start_iteration` is the next
    /// sweep. A fresh chain has energy NaN and an empty history.
    progress: ResumeState,
}

impl Chain {
    /// A fresh chain: the initial field is drawn from `seed`, and sweep
    /// `i` runs at `schedule.temperature(i)`.
    pub fn new<T: ChainModel + ?Sized>(model: &T, schedule: Schedule, seed: u64) -> Self {
        let (grid, num_labels) = model.label_space();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let field = LabelField::random(grid, num_labels, &mut rng);
        Chain {
            field,
            schedule,
            seed,
            rng,
            sequential: false,
            progress: ResumeState {
                start_iteration: 0,
                energy: f64::NAN,
                labels_changed: 0,
                energy_history: Vec::new(),
                active_sites: None,
            },
        }
    }

    /// Continues the chain a [`checkpoint`](Self::checkpoint) captured.
    /// A checkpoint without sequential generator words restarts the
    /// raster stream from the seed (best effort for foreign
    /// checkpoints; raster chains always record the words).
    pub fn resume(checkpoint: &Checkpoint, schedule: Schedule) -> Self {
        Chain {
            field: checkpoint.restore_field(),
            schedule,
            seed: checkpoint.seed,
            rng: match checkpoint.rng_state {
                Some(words) => Xoshiro256pp::from_state(words),
                None => Xoshiro256pp::seed_from_u64(checkpoint.seed),
            },
            sequential: checkpoint.rng_state.is_some(),
            progress: checkpoint.resume_state(),
        }
    }

    /// Runs sweeps `next_sweep()..until` on `engine`. With a `preempt`
    /// flag the chain polls it at every sweep boundary and returns
    /// `false` when it stopped early; otherwise it returns `true`.
    pub fn step<T: ChainModel + ?Sized, O: SweepObserver>(
        &mut self,
        model: &T,
        engine: &mut Engine<'_>,
        until: usize,
        preempt: Option<&AtomicBool>,
        observer: &mut O,
    ) -> bool {
        model.advance(self, engine, until, preempt, observer)
    }

    /// Captures the chain under `label` (the checkpoint's engine tag).
    pub fn checkpoint(&self, label: &str) -> Checkpoint {
        let p = &self.progress;
        let mut checkpoint = Checkpoint::capture(
            label,
            &self.field,
            p.start_iteration,
            p.energy,
            p.labels_changed,
            p.energy_history.clone(),
        )
        .with_seed(self.seed);
        if self.sequential {
            checkpoint = checkpoint.with_rng_state(self.rng.state());
        }
        if let Some(mask) = &p.active_sites {
            checkpoint = checkpoint.with_active_sites(mask.clone());
        }
        checkpoint
    }

    /// The current label field.
    pub fn field(&self) -> &LabelField {
        &self.field
    }

    /// The label field, consuming the chain.
    pub fn into_field(self) -> LabelField {
        self.field
    }

    /// The first sweep still to run.
    pub fn next_sweep(&self) -> usize {
        self.progress.start_iteration
    }

    /// Total energy after each completed sweep of the solver engines
    /// (the array engine tracks no energy).
    pub fn energy_history(&self) -> &[f64] {
        &self.progress.energy_history
    }

    /// Runs sweeps `next_sweep()..end` (`end` past the next sweep) in
    /// one engine call.
    fn sweep_to<M: MrfModel + Sync, O: SweepObserver>(
        &mut self,
        model: &M,
        engine: &mut Engine<'_>,
        end: usize,
        observer: &mut O,
    ) {
        let report = match engine {
            Engine::Array { array, threads } => {
                for iter in self.progress.start_iteration..end {
                    array.sweep_parallel_observed(
                        model,
                        &mut self.field,
                        self.schedule.temperature(iter),
                        iter as u64,
                        self.seed,
                        *threads,
                        observer,
                    );
                }
                self.progress.start_iteration = end;
                return;
            }
            Engine::Raster(sampler) => {
                self.sequential = true;
                SweepSolver::new(model)
                    .schedule(self.schedule)
                    .iterations(end)
                    .resume(self.solver_state(model))
                    .run_observed(&mut self.field, sampler, &mut self.rng, observer)
            }
            Engine::Checkerboard {
                sampler,
                threads,
                numeric,
                active,
            } => ParallelSweepSolver::new(model)
                .schedule(self.schedule)
                .iterations(end)
                .threads(*threads)
                .seed(self.seed)
                .numeric(*numeric)
                .active_sites(*active)
                .resume(self.solver_state(model))
                .run_observed(&mut self.field, &*sampler, observer),
        };
        self.progress = ResumeState {
            start_iteration: report.iterations_run,
            energy: report.final_energy(),
            labels_changed: report.labels_changed,
            energy_history: report.energy_history,
            active_sites: report.active_sites,
        };
    }

    /// The solver engines' resume state. Fresh chains (and checkpoints
    /// of the array engine, which tracks no energy) start the
    /// accumulator from a full scan.
    fn solver_state<M: MrfModel>(&self, model: &M) -> ResumeState {
        let mut state = self.progress.clone();
        if !state.energy.is_finite() {
            state.energy = total_energy(model, &self.field);
        }
        state
    }
}
