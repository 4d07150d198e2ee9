//! The MCMC sweep driver and the software Gibbs kernel.
//!
//! The solver is the outer double loop of Fig. 1 in the paper; the
//! per-site kernel (the paper's "inner loop" that the RSU-G replaces) is
//! abstracted behind [`SiteSampler`], so the software float
//! implementation, the previous RSU-G and the new RSU-G all run the exact
//! same application code.

use crate::annealing::Schedule;
use crate::checkpoint::ResumeState;
use crate::field::LabelField;
use crate::model::{Label, MrfModel};
use crate::trace::{NoopObserver, SweepObserver, SweepRecord};
use rand::Rng;
use sampling::Categorical;
use std::time::{Duration, Instant};

/// Numeric precision policy of the checkerboard engine's inner loop
/// ([`ParallelSweepSolver::numeric`](crate::ParallelSweepSolver::numeric)).
///
/// `Exact` (the default) runs the f64 kernel and is bit-identical to
/// every pre-existing result — it is the exactness oracle all other
/// configurations are validated against. `Fast` runs the f32 kernel:
/// f32 table rows, chunked f32 row-adds and the fused
/// fast-exp + prefix-sum Boltzmann draw
/// ([`sampling::Categorical::sample_boltzmann_f32_with_scratch`]).
/// Fast-path divergence from the oracle is statistical, not
/// bit-level, and is gated by χ²/KS equivalence suites (per-site label
/// marginals, final-energy distributions) rather than bit equality —
/// the same "less exact arithmetic, faster" bet the paper's RSU-G
/// makes with quantized optical sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericPolicy {
    /// f64 kernel, bit-identical to the historical solver output.
    #[default]
    Exact,
    /// f32 kernel with fast exponentials; statistically equivalent.
    Fast,
}

impl std::fmt::Display for NumericPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NumericPolicy::Exact => "exact",
            NumericPolicy::Fast => "fast",
        })
    }
}

impl std::str::FromStr for NumericPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(NumericPolicy::Exact),
            "fast" => Ok(NumericPolicy::Fast),
            other => Err(format!("unknown numeric policy {other:?} (exact|fast)")),
        }
    }
}

/// A per-site Gibbs kernel: given the local conditional energies of every
/// candidate label and the current temperature, choose the new label.
///
/// Implementations include [`SoftwareGibbs`] (IEEE floating point, the
/// paper's quality reference), [`IcmSampler`] (greedy argmin baseline) and
/// the RSU-G functional simulators in the `rsu` crate.
pub trait SiteSampler {
    /// Called once at the start of each solver iteration with the
    /// iteration's temperature. Hardware models use this hook to account
    /// for LUT/boundary-register updates.
    fn begin_iteration(&mut self, _temperature: f64) {}

    /// Draws the new label for a site.
    ///
    /// `energies[l]` is the local conditional energy of label `l`
    /// (Eq. 1); `temperature` is the current annealing temperature;
    /// `current` is the site's present label (used by samplers that keep
    /// the state when no candidate fires).
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label;

    /// Draws the new label from f32 local energies — the
    /// [`NumericPolicy::Fast`] inner loop. `e_min` is the row minimum
    /// (the fused f32 kernel tracks it for free).
    ///
    /// The default widens to f64 and delegates to
    /// [`sample_label`](Self::sample_label), which is correct for any
    /// sampler but allocates; the software kernels override it with
    /// allocation-free fused implementations. Samplers that model
    /// reduced-precision hardware (the `rsu` crate) keep the default —
    /// their own quantization already dominates the narrowing error.
    fn sample_label_f32<R: Rng + ?Sized>(
        &mut self,
        energies: &[f32],
        e_min: f32,
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        let _ = e_min;
        let widened: Vec<f64> = energies.iter().map(|&e| e as f64).collect();
        self.sample_label(&widened, temperature, current, rng)
    }
}

/// A `&mut` sampler is itself a sampler: lets callers lend long-lived
/// stateful kernels (e.g. hardware units with statistics) to engines
/// that take samplers by value, like `parallel::BandWorker`.
impl<T: SiteSampler + ?Sized> SiteSampler for &mut T {
    fn begin_iteration(&mut self, temperature: f64) {
        (**self).begin_iteration(temperature)
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        (**self).sample_label(energies, temperature, current, rng)
    }

    fn sample_label_f32<R: Rng + ?Sized>(
        &mut self,
        energies: &[f32],
        e_min: f32,
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        (**self).sample_label_f32(energies, e_min, temperature, current, rng)
    }
}

/// IEEE-floating-point Gibbs kernel: `p_l ∝ exp(−E_l / T)` sampled by
/// cumulative-sum inversion. This is the "software-only" implementation
/// the paper treats as the quality gold standard ("commodity processors
/// or GPUs with IEEE floating point, which theoretically generate the
/// highest result quality").
///
/// # Example
///
/// ```
/// use mrf::{SiteSampler, SoftwareGibbs};
/// use rand::SeedableRng;
/// use sampling::Xoshiro256pp;
///
/// let mut gibbs = SoftwareGibbs::new();
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// let label = gibbs.sample_label(&[0.0, 10.0, 10.0], 0.5, 0, &mut rng);
/// assert_eq!(label, 0, "overwhelmingly likely at T = 0.5");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SoftwareGibbs {
    weights: Vec<f64>,
    cumulative: Vec<f64>,
    cumulative_f32: Vec<f32>,
}

impl SoftwareGibbs {
    /// Creates the kernel.
    pub fn new() -> Self {
        SoftwareGibbs {
            weights: Vec::new(),
            cumulative: Vec::new(),
            cumulative_f32: Vec::new(),
        }
    }
}

impl SiteSampler for SoftwareGibbs {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        debug_assert!(!energies.is_empty());
        debug_assert!(temperature > 0.0);
        // Subtract the minimum energy before exponentiating. This is pure
        // numerical hygiene for floats (it cancels in the normalisation)
        // but it is also exactly the "decay rate scaling" trick the paper
        // introduces for the fixed-point hardware (Eq. 4).
        let e_min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
        self.weights.clear();
        self.weights
            .extend(energies.iter().map(|&e| (-(e - e_min) / temperature).exp()));
        // One-pass scratch draw: bit-identical to building a Categorical
        // per draw, without the per-site heap allocation that used to
        // dominate the kernel.
        match Categorical::sample_weights_with_scratch(&self.weights, &mut self.cumulative, rng) {
            Ok(label) => label as Label,
            // All weights underflowed to zero (pathological temperature);
            // keep the current label to preserve forward progress.
            Err(_) => current,
        }
    }

    fn sample_label_f32<R: Rng + ?Sized>(
        &mut self,
        energies: &[f32],
        e_min: f32,
        temperature: f64,
        _current: Label,
        rng: &mut R,
    ) -> Label {
        // The fused fast path: fast-exp + prefix-sum + inversion in one
        // pass over the row. With e_min subtracted the minimum-energy
        // label's weight is exactly 1, so the draw cannot fail.
        Categorical::sample_boltzmann_f32_with_scratch(
            energies,
            e_min,
            temperature as f32,
            &mut self.cumulative_f32,
            rng,
        ) as Label
    }
}

/// Greedy argmin kernel (Iterated Conditional Modes): always picks the
/// lowest-energy label. Converges fast to a local optimum; used as a
/// deterministic baseline in tests and ablation benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct IcmSampler;

impl IcmSampler {
    /// Creates the kernel.
    pub fn new() -> Self {
        IcmSampler
    }
}

impl SiteSampler for IcmSampler {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        _temperature: f64,
        current: Label,
        _rng: &mut R,
    ) -> Label {
        let mut best = current;
        let mut best_e = f64::INFINITY;
        for (l, &e) in energies.iter().enumerate() {
            if e < best_e {
                best_e = e;
                best = l as Label;
            }
        }
        best
    }

    fn sample_label_f32<R: Rng + ?Sized>(
        &mut self,
        energies: &[f32],
        e_min: f32,
        _temperature: f64,
        current: Label,
        _rng: &mut R,
    ) -> Label {
        // First label achieving the (precomputed) minimum — same
        // tie-breaking as the f64 argmin.
        energies
            .iter()
            .position(|&e| e == e_min)
            .map(|l| l as Label)
            .unwrap_or(current)
    }
}

/// Outcome of a [`SweepSolver`] or
/// [`ParallelSweepSolver`](crate::ParallelSweepSolver) run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Total field energy after each completed iteration.
    pub energy_history: Vec<f64>,
    /// Temperature used in the final iteration.
    pub final_temperature: f64,
    /// Iterations of the chain completed so far (the restored prefix of
    /// a resumed run included).
    pub iterations_run: usize,
    /// Total number of site updates that changed a label.
    pub labels_changed: u64,
    /// The active-site worklist for the *next* sweep, when the run used
    /// active-site scheduling (`None` for full sweeps). Serializing
    /// this into a checkpoint is what makes an interrupted active-set
    /// chain resumable bit-identically.
    pub active_sites: Option<Vec<bool>>,
}

impl SolveReport {
    /// Final energy, or `NaN` if no iterations ran.
    pub fn final_energy(&self) -> f64 {
        self.energy_history.last().copied().unwrap_or(f64::NAN)
    }
}

/// Total energy of a labelling under a model: all singletons plus each
/// pairwise clique counted once.
pub fn total_energy<M: MrfModel>(model: &M, field: &LabelField) -> f64 {
    let grid = model.grid();
    let mut e = 0.0;
    for site in grid.sites() {
        let label = field.get(site);
        e += model.singleton(site, label);
        for n in grid.neighbors(site) {
            if n > site {
                e += model.pairwise(site, n, label, field.get(n));
            }
        }
    }
    e
}

/// The exact, full-sweep, raster-order MCMC engine: configures the
/// schedule and iteration budget, then runs sweeps over a
/// [`LabelField`] with any [`SiteSampler`], drawing from one sequential
/// generator.
///
/// This is the bit-reproducible f64 reference chain of every figure.
/// The f32 kernel and active-site scheduling live only on the
/// checkerboard engine ([`ParallelSweepSolver`](crate::ParallelSweepSolver)),
/// whose per-site streams are what their determinism contracts cover.
#[derive(Debug, Clone)]
pub struct SweepSolver<'m, M> {
    model: &'m M,
    schedule: Schedule,
    iterations: usize,
    resume: Option<ResumeState>,
}

impl<'m, M: MrfModel> SweepSolver<'m, M> {
    /// Creates a solver with defaults: constant temperature 1.0, 100
    /// iterations.
    pub fn new(model: &'m M) -> Self {
        SweepSolver {
            model,
            schedule: Schedule::constant(1.0),
            iterations: 100,
            resume: None,
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

    /// Continues an interrupted chain instead of starting at iteration 0.
    ///
    /// The caller restores the field (e.g. via
    /// [`Checkpoint::restore_field`](crate::Checkpoint::restore_field))
    /// and the sequential generator
    /// ([`sampling::Xoshiro256pp::from_state`]); the solver then runs
    /// iterations `start_iteration..iterations`, continuing the stored
    /// incremental energy bit-exactly rather than rescanning the field.
    /// The resulting report spans the *whole* chain (restored prefix
    /// plus new iterations), so a resumed run is indistinguishable from
    /// an uninterrupted one.
    pub fn resume(mut self, resume: ResumeState) -> Self {
        self.resume = Some(resume);
        self
    }

    /// Runs the solver, mutating `field` in place.
    ///
    /// # Panics
    ///
    /// Panics if the field's grid or label count disagree with the model.
    pub fn run<S, R>(&self, field: &mut LabelField, sampler: &mut S, rng: &mut R) -> SolveReport
    where
        S: SiteSampler,
        R: Rng + ?Sized,
    {
        self.run_observed(field, sampler, rng, &mut NoopObserver)
    }

    /// Runs the solver with a [`SweepObserver`] attached.
    ///
    /// The chain is bit-identical to [`run`](Self::run) — observers only
    /// read (see the `trace` module's determinism contract) — and a
    /// disabled observer costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if the field's grid or label count disagree with the model.
    pub fn run_observed<S, R, O>(
        &self,
        field: &mut LabelField,
        sampler: &mut S,
        rng: &mut R,
        observer: &mut O,
    ) -> SolveReport
    where
        S: SiteSampler,
        R: Rng + ?Sized,
        O: SweepObserver,
    {
        assert_eq!(field.grid(), self.model.grid(), "field grid mismatch");
        assert_eq!(
            field.num_labels(),
            self.model.num_labels(),
            "label count mismatch"
        );
        let grid = self.model.grid();
        let mut energies = Vec::with_capacity(self.model.num_labels());
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
        // Incremental energy tracking: pay the O(N·deg) full scan once,
        // then fold in the exact per-flip delta. A flip at `site` changes
        // only its singleton and incident pairwise terms, and both old
        // and new sums are exactly the local conditional energies already
        // computed for the sampler, so ΔE = energies[new] − energies[old].
        // A resumed run continues the *stored* accumulator: a fresh
        // rescan would differ in the last ulp from the running sum and
        // break the bit-identity contract.
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
            sampler.begin_iteration(temperature);
            for site in grid.sites() {
                let current = field.get(site);
                self.model.local_energies(site, field, &mut energies);
                let new = sampler.sample_label(&energies, temperature, current, rng);
                if new != current {
                    report.labels_changed += 1;
                    energy += energies[new as usize] - energies[current as usize];
                    field.set(site, new);
                    if want_sites {
                        observer.on_site_update(iter, site, current, new);
                    }
                }
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
        report
    }
}

/// Convenience wrapper: runs [`SweepSolver`] with the given schedule and
/// iteration budget on a fresh copy of the configuration.
pub fn solve<M, S, R>(
    model: &M,
    field: &mut LabelField,
    sampler: &mut S,
    schedule: Schedule,
    iterations: usize,
    rng: &mut R,
) -> SolveReport
where
    M: MrfModel,
    S: SiteSampler,
    R: Rng + ?Sized,
{
    SweepSolver::new(model)
        .schedule(schedule)
        .iterations(iterations)
        .run(field, sampler, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::DistanceFn;
    use crate::model::TabularMrf;
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    fn test_model() -> TabularMrf {
        TabularMrf::checkerboard(8, 8, 3, 4.0, DistanceFn::Binary, 0.3)
    }

    #[test]
    fn icm_recovers_checkerboard_from_random_start() {
        let model = test_model();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut field = LabelField::random(model.grid(), 3, &mut rng);
        let mut icm = IcmSampler::new();
        solve(
            &model,
            &mut field,
            &mut icm,
            Schedule::constant(1.0),
            10,
            &mut rng,
        );
        let truth = TabularMrf::checkerboard_truth(8, 8, 3);
        assert_eq!(
            field.disagreement(&truth),
            0.0,
            "ICM should reach the strong optimum"
        );
    }

    #[test]
    fn gibbs_with_annealing_recovers_checkerboard() {
        let model = test_model();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut field = LabelField::random(model.grid(), 3, &mut rng);
        let mut gibbs = SoftwareGibbs::new();
        let report = SweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.05))
            .iterations(120)
            .run(&mut field, &mut gibbs, &mut rng);
        let truth = TabularMrf::checkerboard_truth(8, 8, 3);
        assert!(
            field.disagreement(&truth) < 0.05,
            "disagreement {} too high",
            field.disagreement(&truth)
        );
        // Energy should have dropped substantially.
        assert!(report.final_energy() < report.energy_history[0]);
    }

    #[test]
    fn energy_history_is_roughly_decreasing_under_annealing() {
        let model = test_model();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut field = LabelField::random(model.grid(), 3, &mut rng);
        let mut gibbs = SoftwareGibbs::new();
        let report = SweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.85, 0.05))
            .iterations(80)
            .run(&mut field, &mut gibbs, &mut rng);
        let first = report.energy_history[0];
        let last = report.final_energy();
        assert!(
            last < 0.5 * first,
            "energy did not anneal down: {first} -> {last}"
        );
    }

    #[test]
    fn software_gibbs_matches_boltzmann_distribution() {
        // Single site, two labels, no neighbours: the stationary law is
        // the Boltzmann distribution over the energies directly.
        let energies = [0.0, 1.0];
        let t = 1.0;
        let mut gibbs = SoftwareGibbs::new();
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let n = 200_000;
        let mut count0 = 0u64;
        for _ in 0..n {
            if gibbs.sample_label(&energies, t, 0, &mut rng) == 0 {
                count0 += 1;
            }
        }
        let p0 = count0 as f64 / n as f64;
        let expect = 1.0 / (1.0 + (-1.0f64).exp());
        assert!((p0 - expect).abs() < 0.005, "{p0} vs {expect}");
    }

    #[test]
    fn gibbs_keeps_current_label_when_all_weights_underflow() {
        let mut gibbs = SoftwareGibbs::new();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        // Energies are equal and astronomically large relative to T after
        // scaling they are all zero... construct a genuine underflow: a
        // label set where e - e_min overflows exp to 0 for all but one is
        // impossible (the min is always weight 1), so drive the impossible
        // branch with NaN-free infinite energies instead.
        let label = gibbs.sample_label(&[f64::INFINITY, f64::INFINITY], 1.0, 1, &mut rng);
        assert_eq!(label, 1);
    }

    #[test]
    fn total_energy_matches_manual_computation() {
        let grid = crate::grid::Grid::new(2, 1);
        let model = TabularMrf::new(grid, 2, vec![1.0, 0.0, 0.0, 2.0], DistanceFn::Absolute, 3.0);
        let field = LabelField::from_labels(grid, 2, vec![0, 1]);
        // singleton(0, 0) = 1.0; singleton(1, 1) = 2.0; pair |0-1| * 3 = 3.
        assert_eq!(total_energy(&model, &field), 6.0);
    }

    #[test]
    fn labels_changed_is_zero_for_fixed_point() {
        // Start at the optimum with ICM: nothing should change.
        let model = test_model();
        let mut field = TabularMrf::checkerboard_truth(8, 8, 3);
        let mut icm = IcmSampler::new();
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let report = solve(
            &model,
            &mut field,
            &mut icm,
            Schedule::constant(1.0),
            5,
            &mut rng,
        );
        assert_eq!(report.labels_changed, 0);
    }
}
