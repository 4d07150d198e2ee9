//! Multi-threaded checkerboard Gibbs sweeps with a bit-for-bit
//! determinism contract.
//!
//! # Why checkerboard parallelism is exact
//!
//! On the 4-connected lattice every neighbour of an even-parity site
//! (`(x + y) % 2 == 0`) has odd parity and vice versa. Within one
//! parity *phase* the sites are therefore conditionally independent:
//! updating them simultaneously draws from exactly the same joint
//! conditional as updating them one after another. The engine runs each
//! iteration as two phases (even, then odd) and parallelises freely
//! *inside* a phase — this is the software analogue of the paper's
//! RSU-G array, where multiple sampling units service disjoint pixels
//! of the same colour class concurrently.
//!
//! # The determinism contract
//!
//! [`ParallelSweepSolver`] produces **the same labelling, the same
//! `labels_changed` count, and the same energy history for a given
//! `(model, initial field, sampler, seed)` regardless of the number of
//! worker threads** — 1 thread, 7 threads, or the machine default.
//! Two mechanisms make this hold:
//!
//! * **Counter-based per-site RNG streams.** Each site update draws
//!   from [`sampling::SiteRng`]`::for_site(seed, iteration, site)`, a
//!   pure function of the update's coordinates. No thread ever shares
//!   generator state, so scheduling cannot reorder consumption.
//! * **Order-fixed reductions.** Energy deltas and change counts are
//!   accumulated per *row* by whichever shard owns the row, then folded
//!   row-by-row in row order on the driver thread. The floating-point
//!   summation order is thus a function of the grid, not of the thread
//!   count or band partition.
//!
//! # Incremental energy
//!
//! Like the sequential [`SweepSolver`](crate::SweepSolver), the engine
//! never rescans the field to report per-iteration energy. The full
//! O(N·deg) [`total_energy`] is computed once up front; each accepted
//! flip contributes the exact delta `energies[new] − energies[old]`
//! (the local conditional energies already computed for the sampler).
//!
//! # The fast paths
//!
//! This is the only engine with the f32 site kernel
//! ([`NumericPolicy::Fast`]) and active-site scheduling
//! ([`ActiveSet`]); both are gated statistically against its own exact
//! full-sweep configuration, and both keep the determinism contract
//! above. At one thread it is the single-core fast path the drivers
//! run. The raster [`SweepSolver`](crate::SweepSolver) stays exact,
//! full-sweep and raster-order: the bit-reproducible reference chain.
//!
//! # Building blocks
//!
//! The phase engine is public so other crates can drive their own
//! shard-mapped sweeps: the `rsu` crate's `RsuArray` maps its sampling
//! units onto row bands ([`band_rows`]) and executes each phase with
//! [`checkerboard_phase`] (exact numerics, full sweeps), wrapping each
//! unit in a [`BandWorker`].

use crate::active::ActiveSet;
use crate::annealing::Schedule;
use crate::checkpoint::ResumeState;
use crate::field::LabelField;
use crate::model::{Label, MrfModel};
use crate::solver::{total_energy, NumericPolicy, SiteSampler, SolveReport};
use crate::trace::{replay_phase_site_updates, NoopObserver, SweepObserver, SweepRecord};
use sampling::SiteRng;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The rows owned by band `band` when `height` rows are split over
/// `bands` contiguous bands: `height / bands` rows each, with the first
/// `height % bands` bands taking one extra row.
///
/// # Panics
///
/// Panics if `bands` is zero or `band >= bands`.
pub fn band_rows(height: usize, bands: usize, band: usize) -> Range<usize> {
    assert!(bands > 0, "need at least one band");
    assert!(band < bands, "band {band} out of range for {bands} bands");
    let base = height / bands;
    let extra = height % bands;
    let start = band * base + band.min(extra);
    let rows = base + usize::from(band < extra);
    start..start + rows
}

/// A per-band shard: a sampler plus its reusable local-energy scratch.
///
/// [`checkerboard_phase`] assigns band `i` of the grid to `workers[i]`,
/// so the worker list also *is* the band partition. The sampler can be
/// owned or `&mut`-borrowed (any [`SiteSampler`] works, and `&mut S` is
/// itself a `SiteSampler`), which lets callers keep long-lived stateful
/// samplers — e.g. hardware units with statistics — outside the engine.
#[derive(Debug, Clone)]
pub struct BandWorker<S> {
    sampler: S,
    energies: Vec<f64>,
    energies_f32: Vec<f32>,
    flipped: Vec<usize>,
}

impl<S> BandWorker<S> {
    /// Wraps a sampler as a band worker.
    pub fn new(sampler: S) -> Self {
        BandWorker {
            sampler,
            energies: Vec::new(),
            energies_f32: Vec::new(),
            flipped: Vec::new(),
        }
    }

    /// The wrapped sampler.
    pub fn sampler_mut(&mut self) -> &mut S {
        &mut self.sampler
    }

    /// Global site indices that flipped in the band during the last
    /// [`checkerboard_phase`] call with an active set. Empty otherwise.
    pub fn flipped(&self) -> &[usize] {
        &self.flipped
    }
}

/// Aggregated outcome of one [`checkerboard_phase`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseReport {
    /// Exact total-energy change from the phase's accepted flips,
    /// summed in row order (deterministic for any band/thread count).
    pub delta_energy: f64,
    /// Number of sites whose label changed.
    pub labels_changed: u64,
}

/// Work handed to one shard for one phase: the band's rows, its slice
/// of the label buffer, its per-row reduction slots and its worker.
struct BandTask<'a, S> {
    row_start: usize,
    rows: usize,
    labels: &'a mut [Label],
    row_deltas: &'a mut [f64],
    row_changes: &'a mut [u64],
    worker: &'a mut BandWorker<S>,
}

/// Runs one checkerboard parity phase of a Gibbs sweep, band `i` of the
/// grid on `workers[i]`, using up to `threads` host threads.
///
/// `snapshot` is caller-provided scratch (same shape as `field`); it is
/// overwritten with the pre-phase labels so shards can read neighbour
/// values without touching the buffer being written. Every site update
/// draws from `SiteRng::for_site(seed, iteration, site)`, making the
/// result a pure function of the arguments — never of `threads`.
///
/// `numeric` selects the f64 or f32 site kernel. With an [`ActiveSet`]
/// supplied, the phase visits only the sites of its current mask, and
/// each worker records the global indices of its flipped sites
/// (readable via [`BandWorker::flipped`] until the next call) so the
/// driver can feed the worklist; sites outside the mask keep their
/// labels and consume no randomness.
///
/// # Panics
///
/// Panics if `workers` is empty, the field/model shapes disagree, or
/// `active` tracks a different number of sites than the grid holds.
#[allow(clippy::too_many_arguments)]
pub fn checkerboard_phase<M, S>(
    model: &M,
    field: &mut LabelField,
    snapshot: &mut LabelField,
    workers: &mut [BandWorker<S>],
    threads: usize,
    phase: usize,
    temperature: f64,
    iteration: u64,
    seed: u64,
    numeric: NumericPolicy,
    active: Option<&ActiveSet>,
) -> PhaseReport
where
    M: MrfModel + Sync,
    S: SiteSampler + Send,
{
    assert!(!workers.is_empty(), "need at least one band worker");
    if let Some(set) = active {
        assert_eq!(set.len(), model.grid().len(), "active mask length mismatch");
    }
    for worker in workers.iter_mut() {
        worker.flipped.clear();
    }
    assert_eq!(field.grid(), model.grid(), "field grid mismatch");
    assert_eq!(snapshot.grid(), model.grid(), "snapshot grid mismatch");
    let grid = model.grid();
    let width = grid.width();
    let height = grid.height();
    let bands = workers.len().min(height.max(1));

    snapshot.copy_labels_from(field);
    let mut row_deltas = vec![0.0f64; height];
    let mut row_changes = vec![0u64; height];
    let mut tasks = Vec::with_capacity(bands);
    {
        let mut labels = field.labels_mut();
        let mut deltas = &mut row_deltas[..];
        let mut changes = &mut row_changes[..];
        for (band, worker) in workers.iter_mut().take(bands).enumerate() {
            let rows = band_rows(height, bands, band).len();
            let (band_labels, rest_labels) = labels.split_at_mut(rows * width);
            let (band_deltas, rest_deltas) = deltas.split_at_mut(rows);
            let (band_changes, rest_changes) = changes.split_at_mut(rows);
            labels = rest_labels;
            deltas = rest_deltas;
            changes = rest_changes;
            tasks.push(BandTask {
                row_start: band_rows(height, bands, band).start,
                rows,
                labels: band_labels,
                row_deltas: band_deltas,
                row_changes: band_changes,
                worker,
            });
        }
    }

    let snapshot = &*snapshot;
    let run_task = |task: &mut BandTask<'_, S>| {
        sweep_band(
            model,
            snapshot,
            task,
            width,
            phase,
            temperature,
            iteration,
            seed,
            numeric,
            active,
        )
    };
    let host_threads = threads.max(1).min(bands);
    if host_threads == 1 {
        for task in tasks.iter_mut() {
            run_task(task);
        }
    } else {
        let group = tasks.len().div_ceil(host_threads);
        std::thread::scope(|s| {
            let run_task = &run_task;
            for chunk in tasks.chunks_mut(group) {
                s.spawn(move || {
                    for task in chunk.iter_mut() {
                        run_task(task);
                    }
                });
            }
        });
    }

    // Fold per-row reductions in row order: the summation order is
    // fixed by the grid, never by the band partition or thread count.
    let mut report = PhaseReport {
        delta_energy: 0.0,
        labels_changed: 0,
    };
    for (delta, changes) in row_deltas.iter().zip(&row_changes) {
        report.delta_energy += delta;
        report.labels_changed += changes;
    }
    report
}

/// Updates every `phase`-parity site in one row band.
///
/// Reads go through `snapshot` (valid: all neighbours are opposite
/// parity, unwritten this phase); writes go to the band's own label
/// slice. Deltas and change counts land in the band's per-row slots.
#[allow(clippy::too_many_arguments)]
fn sweep_band<M, S>(
    model: &M,
    snapshot: &LabelField,
    task: &mut BandTask<'_, S>,
    width: usize,
    phase: usize,
    temperature: f64,
    iteration: u64,
    seed: u64,
    numeric: NumericPolicy,
    active: Option<&ActiveSet>,
) where
    M: MrfModel + Sync,
    S: SiteSampler,
{
    for local_y in 0..task.rows {
        let y = task.row_start + local_y;
        let mut delta = 0.0;
        let mut changes = 0u64;
        for x in 0..width {
            if (x + y) % 2 != phase {
                continue;
            }
            let site = y * width + x;
            if let Some(set) = active {
                if !set.is_active(site) {
                    continue;
                }
            }
            let current = snapshot.get(site);
            let mut rng = SiteRng::for_site(seed, iteration, site as u64);
            let (new, flip_delta) = match numeric {
                NumericPolicy::Exact => {
                    model.local_energies(site, snapshot, &mut task.worker.energies);
                    let new = task.worker.sampler.sample_label(
                        &task.worker.energies,
                        temperature,
                        current,
                        &mut rng,
                    );
                    let delta =
                        task.worker.energies[new as usize] - task.worker.energies[current as usize];
                    (new, delta)
                }
                NumericPolicy::Fast => {
                    let e_min =
                        model.local_energies_f32(site, snapshot, &mut task.worker.energies_f32);
                    let new = task.worker.sampler.sample_label_f32(
                        &task.worker.energies_f32,
                        e_min,
                        temperature,
                        current,
                        &mut rng,
                    );
                    let delta = (task.worker.energies_f32[new as usize]
                        - task.worker.energies_f32[current as usize])
                        as f64;
                    (new, delta)
                }
            };
            if new != current {
                delta += flip_delta;
                changes += 1;
                task.labels[local_y * width + x] = new;
                if active.is_some() {
                    task.worker.flipped.push(site);
                }
            }
        }
        task.row_deltas[local_y] = delta;
        task.row_changes[local_y] = changes;
    }
}

/// Multi-threaded checkerboard Gibbs solver.
///
/// Mirrors the [`SweepSolver`](crate::SweepSolver) builder API but owns
/// its randomness: instead of threading a sequential generator through
/// the sweep, every site update derives an independent
/// [`SiteRng`] stream from `(seed, iteration, site)`. See the module
/// documentation for the determinism contract and the fast paths
/// ([`numeric`](Self::numeric), [`active_sites`](Self::active_sites)).
///
/// # Example
///
/// ```
/// use mrf::{
///     DistanceFn, LabelField, MrfModel, ParallelSweepSolver, Schedule, SoftwareGibbs, TabularMrf,
/// };
///
/// let model = TabularMrf::checkerboard(16, 16, 3, 4.0, DistanceFn::Binary, 0.3);
/// let solve = |threads| {
///     let mut field = LabelField::constant(model.grid(), 3, 0);
///     ParallelSweepSolver::new(&model)
///         .schedule(Schedule::geometric(3.0, 0.9, 0.05))
///         .iterations(40)
///         .threads(threads)
///         .seed(7)
///         .run(&mut field, &SoftwareGibbs::new());
///     field
/// };
/// // Thread count never changes the result.
/// assert_eq!(solve(1).as_slice(), solve(4).as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSweepSolver<'m, M> {
    model: &'m M,
    schedule: Schedule,
    iterations: usize,
    threads: usize,
    seed: u64,
    resume: Option<ResumeState>,
    numeric: NumericPolicy,
    active: bool,
}

impl<'m, M: MrfModel + Sync> ParallelSweepSolver<'m, M> {
    /// Creates a solver with defaults: constant temperature 1.0, 100
    /// iterations, 1 thread, seed 0, exact numerics, full sweeps.
    pub fn new(model: &'m M) -> Self {
        ParallelSweepSolver {
            model,
            schedule: Schedule::constant(1.0),
            iterations: 100,
            threads: 1,
            seed: 0,
            resume: None,
            numeric: NumericPolicy::Exact,
            active: false,
        }
    }

    /// Sets the temperature schedule.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the iteration budget.
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the number of worker threads (clamped to at least 1; bands
    /// never outnumber grid rows). The result is identical for every
    /// value — threads only change wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the chain seed. Together with the model, initial field and
    /// sampler this fully determines the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the numeric policy for the site kernel.
    ///
    /// [`NumericPolicy::Exact`] (the default) keeps the historical f64
    /// path bit-for-bit. [`NumericPolicy::Fast`] runs the f32 kernel
    /// (see the enum docs for the statistical-equivalence contract).
    /// Under `Fast` the incremental energy accumulates f32-derived
    /// deltas in f64, so the reported energies track the oracle
    /// statistically, not bit-exactly. The thread-count determinism
    /// guarantee holds for both policies.
    pub fn numeric(mut self, numeric: NumericPolicy) -> Self {
        self.numeric = numeric;
        self
    }

    /// Enables active-site sweep scheduling.
    ///
    /// Each iteration visits only sites that flipped — or neighbour a
    /// flip — during the previous iteration (the first visits all; see
    /// [`ActiveSet`]). Late annealing sweeps then skip converged regions
    /// entirely. Per-band flip lists are merged in band order into one
    /// worklist, and site RNG streams are counter-based, so the result
    /// stays bit-identical across thread counts.
    ///
    /// Skipped sites keep their labels and consume no randomness, which
    /// suppresses their thermal re-draws: this is an optimization-mode
    /// accelerator whose annealed solution quality is gated against the
    /// full-sweep oracle (DESIGN §12), not an equilibrium-preserving
    /// transformation. A resumed run restores the worklist recorded in
    /// [`ResumeState::active_sites`].
    pub fn active_sites(mut self, active: bool) -> Self {
        self.active = active;
        self
    }

    /// Continues an interrupted chain instead of starting at iteration 0.
    ///
    /// The caller restores the field (e.g. via
    /// [`Checkpoint::restore_field`](crate::Checkpoint::restore_field));
    /// no generator state is needed beyond the chain seed, because every
    /// site update draws from `SiteRng::for_site(seed, iteration, site)`
    /// — a pure function of the global iteration index. The solver runs
    /// iterations `start_iteration..iterations`, continuing the stored
    /// incremental energy bit-exactly, and the report spans the whole
    /// chain, so a resumed run is indistinguishable from an
    /// uninterrupted one at any thread count.
    pub fn resume(mut self, resume: ResumeState) -> Self {
        self.resume = Some(resume);
        self
    }

    /// Runs the solver, mutating `field` in place.
    ///
    /// The sampler is cloned once per shard; stateless kernels like
    /// [`SoftwareGibbs`](crate::SoftwareGibbs) and
    /// [`IcmSampler`](crate::IcmSampler) are unaffected by cloning.
    ///
    /// # Panics
    ///
    /// Panics if the field's grid or label count disagree with the model.
    pub fn run<S>(&self, field: &mut LabelField, sampler: &S) -> SolveReport
    where
        S: SiteSampler + Clone + Send,
    {
        self.run_observed(field, sampler, &mut NoopObserver)
    }

    /// Runs the solver with a [`SweepObserver`] attached.
    ///
    /// The chain is bit-identical to [`run`](Self::run) at every thread
    /// count: per-band flip counters and energy deltas are folded in row
    /// order before the observer sees them, and per-site hooks are
    /// driven by a raster-order replay of each phase's snapshot diff —
    /// never by the racing workers (see the `trace` module docs).
    ///
    /// # Panics
    ///
    /// Panics if the field's grid or label count disagree with the model.
    pub fn run_observed<S, O>(
        &self,
        field: &mut LabelField,
        sampler: &S,
        observer: &mut O,
    ) -> SolveReport
    where
        S: SiteSampler + Clone + Send,
        O: SweepObserver,
    {
        assert_eq!(field.grid(), self.model.grid(), "field grid mismatch");
        assert_eq!(
            field.num_labels(),
            self.model.num_labels(),
            "label count mismatch"
        );
        let height = self.model.grid().height();
        let bands = self.threads.min(height.max(1));
        let mut workers: Vec<BandWorker<S>> = (0..bands)
            .map(|_| BandWorker::new(sampler.clone()))
            .collect();
        let mut snapshot = field.clone();

        let start = self.resume.as_ref().map_or(0, |r| r.start_iteration);
        let mut report = SolveReport {
            energy_history: match &self.resume {
                Some(r) => {
                    let mut history = r.energy_history.clone();
                    history.reserve(self.iterations.saturating_sub(start));
                    history
                }
                None => Vec::with_capacity(self.iterations),
            },
            final_temperature: self.schedule.temperature(start),
            iterations_run: start,
            labels_changed: self.resume.as_ref().map_or(0, |r| r.labels_changed),
            active_sites: None,
        };
        let grid = self.model.grid();
        let mut active =
            self.active.then(
                || match self.resume.as_ref().and_then(|r| r.active_sites.clone()) {
                    Some(mask) => {
                        assert_eq!(mask.len(), grid.len(), "active mask length mismatch");
                        ActiveSet::from_mask(mask)
                    }
                    None => ActiveSet::all_active(grid.len()),
                },
            );
        // Resume continues the stored incremental accumulator; a fresh
        // total_energy rescan would differ in the last ulp and break the
        // bit-identity contract.
        let mut energy = match &self.resume {
            Some(r) => r.energy,
            None => total_energy(self.model, field),
        };
        let observing = observer.is_enabled();
        let want_sites = observing && observer.wants_site_updates();

        for iter in start..self.iterations {
            let sweep_start = observing.then(Instant::now);
            let flips_before = report.labels_changed;
            let temperature = self.schedule.temperature(iter);
            for worker in workers.iter_mut() {
                worker.sampler.begin_iteration(temperature);
            }
            let visited = active.as_ref().map(|set| set.active_count());
            for phase in 0..2 {
                let outcome = checkerboard_phase(
                    self.model,
                    field,
                    &mut snapshot,
                    &mut workers,
                    self.threads,
                    phase,
                    temperature,
                    iter as u64,
                    self.seed,
                    self.numeric,
                    active.as_ref(),
                );
                energy += outcome.delta_energy;
                report.labels_changed += outcome.labels_changed;
                // Merge per-band flip lists into the worklist in band
                // order. Marking is an idempotent set-bit, so the merge
                // order cannot change the next mask anyway — the band
                // partition and thread count stay invisible.
                if let Some(set) = &mut active {
                    for worker in workers.iter() {
                        for &site in worker.flipped() {
                            set.mark_flip(&grid, site);
                        }
                    }
                }
                if want_sites {
                    replay_phase_site_updates(&snapshot, field, phase, iter, observer);
                }
            }
            if let Some(set) = &mut active {
                if observing {
                    let visited = visited.unwrap_or(0);
                    observer.on_active_sweep(iter, visited, grid.len() as u64 - visited);
                }
                set.advance();
            }
            if observing {
                observer.on_sweep(&SweepRecord {
                    iteration: iter,
                    temperature,
                    energy,
                    flips: report.labels_changed - flips_before,
                    elapsed: sweep_start.map(|t| t.elapsed()).unwrap_or(Duration::ZERO),
                });
            }
            report.energy_history.push(energy);
            report.final_temperature = temperature;
            report.iterations_run = iter + 1;
        }
        report.active_sites = active.map(|set| set.mask().to_vec());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::DistanceFn;
    use crate::model::TabularMrf;
    use crate::solver::SoftwareGibbs;

    fn test_model() -> TabularMrf {
        TabularMrf::checkerboard(8, 8, 3, 4.0, DistanceFn::Binary, 0.3)
    }

    fn run_with_threads(threads: usize) -> (LabelField, SolveReport) {
        let model = test_model();
        let mut field = LabelField::constant(model.grid(), 3, 0);
        let report = ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.05))
            .iterations(60)
            .threads(threads)
            .seed(1234)
            .run(&mut field, &SoftwareGibbs::new());
        (field, report)
    }

    #[test]
    fn thread_count_does_not_change_anything() {
        let (base_field, base_report) = run_with_threads(1);
        for threads in [2, 3, 8] {
            let (field, report) = run_with_threads(threads);
            assert_eq!(field.as_slice(), base_field.as_slice(), "{threads} threads");
            assert_eq!(report, base_report, "{threads} threads");
        }
    }

    #[test]
    fn parallel_gibbs_recovers_checkerboard() {
        let model = test_model();
        let mut field = LabelField::constant(model.grid(), 3, 0);
        ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.05))
            .iterations(120)
            .threads(4)
            .seed(7)
            .run(&mut field, &SoftwareGibbs::new());
        let truth = TabularMrf::checkerboard_truth(8, 8, 3);
        assert!(
            field.disagreement(&truth) < 0.05,
            "disagreement {} too high",
            field.disagreement(&truth)
        );
    }

    #[test]
    fn incremental_energy_history_matches_full_recomputation() {
        let model = test_model();
        let mut field = LabelField::constant(model.grid(), 3, 0);
        let report = ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.05))
            .iterations(40)
            .threads(3)
            .seed(99)
            .run(&mut field, &SoftwareGibbs::new());
        let full = total_energy(&model, &field);
        let incremental = report.final_energy();
        assert!(
            (full - incremental).abs() <= 1e-9 * full.abs().max(1.0),
            "{incremental} drifted from {full}"
        );
    }

    #[test]
    fn degenerate_grids_work() {
        for (w, h) in [(1, 1), (1, 5), (5, 1), (2, 2)] {
            let model = TabularMrf::checkerboard(w, h, 2, 2.0, DistanceFn::Binary, 0.2);
            let mut field = LabelField::constant(model.grid(), 2, 0);
            let report = ParallelSweepSolver::new(&model)
                .iterations(5)
                .threads(7)
                .seed(3)
                .run(&mut field, &SoftwareGibbs::new());
            assert_eq!(report.iterations_run, 5, "{w}x{h}");
        }
    }

    #[test]
    fn band_rows_partition_is_exact() {
        for height in [1, 2, 5, 7, 64] {
            for bands in [1, 2, 3, 7] {
                if bands > height {
                    continue;
                }
                let mut next = 0;
                for band in 0..bands {
                    let rows = band_rows(height, bands, band);
                    assert_eq!(rows.start, next, "h={height} b={bands}");
                    assert!(!rows.is_empty() || height < bands);
                    next = rows.end;
                }
                assert_eq!(next, height, "h={height} b={bands}");
            }
        }
    }
}
