//! Statistical-equivalence gate for the f32 fast path
//! ([`NumericPolicy::Fast`]): the f32 kernel is *not* required to match
//! the f64 oracle bit-for-bit — it is required to be statistically
//! indistinguishable from it. This suite is the gate: per-site
//! conditional distributions are compared with a two-sample χ² test at
//! fixed temperature, and whole-chain behaviour is compared with a
//! two-sample Kolmogorov–Smirnov test on final energies across ≥50
//! independent seeds, for all three paper distance functions (squared /
//! absolute / Potts). If a future "fast" approximation (e.g. a cruder
//! exponential) biases the sampler, these tests are designed to fail.
//!
//! The whole-chain gates run the checkerboard engine
//! ([`ParallelSweepSolver`] at one thread), the only engine with the
//! f32 kernel and active-site scheduling and the one the drivers run
//! for `--numeric fast` / `--active`; its exact configuration is the
//! oracle.

use mrf::{
    total_energy, DistanceFn, LabelField, MrfModel, NumericPolicy, ParallelSweepSolver, Schedule,
    SiteSampler, SoftwareGibbs, TabularMrf,
};
use rand::SeedableRng;
use sampling::Xoshiro256pp;

/// Two-sample χ² statistic between histograms `a` and `b` (possibly of
/// different totals), plus the degrees of freedom (non-empty bins − 1).
fn two_sample_chi_square(a: &[u64], b: &[u64]) -> (f64, usize) {
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    let ka = (nb as f64 / na as f64).sqrt();
    let kb = (na as f64 / nb as f64).sqrt();
    let mut chi = 0.0;
    let mut bins = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let tot = (x + y) as f64;
        if tot == 0.0 {
            continue;
        }
        let d = ka * x as f64 - kb * y as f64;
        chi += d * d / tot;
        bins += 1;
    }
    (chi, bins.saturating_sub(1))
}

/// Two-sample Kolmogorov–Smirnov statistic `D = sup |F_a − F_b|`.
/// Ties advance both pointers together (the empirical CDFs only jump
/// *between* distinct values), so identical samples give `D = 0`.
fn ks_statistic(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (n, m) = (a.len(), b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = a[i].min(b[j]);
        while i < n && a[i] == x {
            i += 1;
        }
        while j < m && b[j] == x {
            j += 1;
        }
        d = d.max((i as f64 / n as f64 - j as f64 / m as f64).abs());
    }
    d
}

/// At fixed temperature and a frozen neighbourhood, the f32 kernel's
/// per-site conditional label distribution is χ²-indistinguishable from
/// the f64 kernel's, for every site of a model under each distance
/// function. Per-site statistics are independent, so their sum is
/// χ²-distributed with the summed degrees of freedom; the bound sits
/// ~6σ past the mean, far beyond fluctuation at these sample sizes yet
/// tight enough to catch a percent-level weight bias (a Schraudolph-
/// style exponential fails it).
#[test]
fn f32_per_site_conditionals_match_f64_chi_square() {
    const DRAWS: usize = 4_000;
    const TEMPERATURE: f64 = 1.5;
    for dist in DistanceFn::ALL {
        let model = TabularMrf::checkerboard(6, 6, 4, 5.0, dist, 0.7);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        let mut gibbs = SoftwareGibbs::new();
        let mut e64 = Vec::new();
        let mut e32 = Vec::new();
        let mut chi_total = 0.0;
        let mut df_total = 0usize;
        for site in model.grid().sites() {
            model.local_energies(site, &field, &mut e64);
            let e_min = model.local_energies_f32(site, &field, &mut e32);
            let current = field.get(site);
            let mut exact = vec![0u64; model.num_labels()];
            let mut fast = vec![0u64; model.num_labels()];
            for _ in 0..DRAWS {
                let l = gibbs.sample_label(&e64, TEMPERATURE, current, &mut rng);
                exact[l as usize] += 1;
                let l = gibbs.sample_label_f32(&e32, e_min, TEMPERATURE, current, &mut rng);
                fast[l as usize] += 1;
            }
            let (chi, df) = two_sample_chi_square(&exact, &fast);
            chi_total += chi;
            df_total += df;
        }
        let bound = df_total as f64 + 6.0 * (2.0 * df_total as f64).sqrt();
        assert!(
            chi_total < bound,
            "{dist:?}: χ² {chi_total:.1} over {df_total} df exceeds {bound:.1}"
        );
    }
}

/// Runs one chain per seed under `schedule` and returns the
/// recomputed energy of each final field — the whole-chain summary
/// statistic the distribution tests compare. The *recomputed* energy is
/// the honest statistic: it measures where the chain ended. (The
/// incremental accumulator would add f32 drift noise under `Fast`;
/// that drift is gated separately below.)
fn final_energies(
    dist: DistanceFn,
    schedule: Schedule,
    numeric: NumericPolicy,
    active: bool,
) -> Vec<f64> {
    let model = TabularMrf::checkerboard(12, 12, 4, 5.0, dist, 0.6);
    (0..50u64)
        .map(|seed| {
            let chain_seed = seed * 7_919 + 1;
            let mut rng = Xoshiro256pp::seed_from_u64(chain_seed);
            let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
            ParallelSweepSolver::new(&model)
                .schedule(schedule)
                .iterations(30)
                .threads(1)
                .seed(chain_seed)
                .numeric(numeric)
                .active_sites(active)
                .run(&mut field, &SoftwareGibbs::new());
            total_energy(&model, &field)
        })
        .collect()
}

/// An equilibrium regime where final energies genuinely fluctuate
/// across seeds (annealing to the ground state collapses every chain
/// onto one energy, which a distribution test cannot distinguish).
fn equilibrium() -> Schedule {
    Schedule::constant(1.2)
}

/// Across 50 independently seeded constant-temperature chains, the
/// distribution of final energies under the f32 fast path is
/// KS-indistinguishable from the f64 oracle's, for all three distance
/// functions. The critical value at α = 0.001 for n = m = 50 is
/// 1.95·√(2/50) ≈ 0.39.
#[test]
fn f32_final_energy_distribution_matches_f64_ks() {
    for dist in DistanceFn::ALL {
        let exact = final_energies(dist, equilibrium(), NumericPolicy::Exact, false);
        let fast = final_energies(dist, equilibrium(), NumericPolicy::Fast, false);
        let d = ks_statistic(exact, fast);
        assert!(d < 0.39, "{dist:?}: KS D = {d:.3}");
    }
}

/// The same KS gate — annealed this time — for the f32 path: annealing
/// drives exact and fast chains to the same optima, so their final
/// energy distributions must coincide essentially exactly.
#[test]
fn f32_annealed_final_energies_match_f64_ks() {
    let annealed = Schedule::geometric(3.0, 0.9, 0.2);
    for dist in DistanceFn::ALL {
        let exact = final_energies(dist, annealed, NumericPolicy::Exact, false);
        let fast = final_energies(dist, annealed, NumericPolicy::Fast, false);
        let d = ks_statistic(exact, fast);
        assert!(d < 0.39, "{dist:?}: KS D = {d:.3}");
    }
}

/// Active-site scheduling is an *optimization-mode* accelerator, not an
/// equilibrium sampler: skipping a quiet site suppresses its thermal
/// re-draws, so a free-running hot chain self-quenches — flip rate,
/// worklist size and energy fall in lockstep until the field freezes
/// below the oracle's equilibrium energy. Equivalence-style KS gates
/// are therefore *wrong* for active configurations; the documented
/// contract (DESIGN §12) is bounded degradation of annealed solution
/// quality: mean final energy within 10% of the full-sweep oracle,
/// which is also the tolerance the CI smoke gate enforces end-to-end.
/// Two configurations are gated: active alone, and the combined
/// fast+active configuration the benches run.
#[test]
fn active_set_annealed_quality_loss_is_bounded() {
    let annealed = Schedule::geometric(3.0, 0.9, 0.2);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    for dist in DistanceFn::ALL {
        let mf = mean(&final_energies(dist, annealed, NumericPolicy::Exact, false));
        for (label, numeric) in [
            ("active", NumericPolicy::Exact),
            ("fast+active", NumericPolicy::Fast),
        ] {
            let ma = mean(&final_energies(dist, annealed, numeric, true));
            assert!(
                ma <= mf * 1.10,
                "{dist:?}/{label}: mean {ma:.2} exceeds full-sweep mean {mf:.2} by more than 10%"
            );
        }
    }
}

/// Under `Fast`, flip deltas are f32-derived, so the incremental energy
/// accumulator may drift from the true total — but only within f32
/// rounding, not grossly. 1e-4 relative is ~250× the single-flip
/// narrowing error accumulated over every accepted flip of a 24×24 run.
#[test]
fn fast_incremental_energy_drift_is_bounded() {
    for dist in DistanceFn::ALL {
        let model = TabularMrf::checkerboard(24, 24, 4, 6.0, dist, 0.8);
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        let report = ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(4.0, 0.97, 0.05))
            .iterations(100)
            .threads(1)
            .seed(42)
            .numeric(NumericPolicy::Fast)
            .run(&mut field, &SoftwareGibbs::new());
        let full = total_energy(&model, &field);
        let drift = (report.final_energy() - full).abs();
        assert!(
            drift <= 1e-4 * full.abs().max(1.0),
            "{dist:?}: incremental {} drifted {drift} from {full}",
            report.final_energy()
        );
    }
}

/// The parallel engine's thread-count determinism contract holds under
/// `Fast` exactly as under `Exact`: same field, same report, any thread
/// count.
#[test]
fn fast_parallel_is_thread_count_invariant() {
    let model = TabularMrf::checkerboard(13, 11, 4, 5.0, DistanceFn::Absolute, 0.6);
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let init = LabelField::random(model.grid(), model.num_labels(), &mut rng);
    let solve = |threads: usize| {
        let mut field = init.clone();
        let report = ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.05))
            .iterations(40)
            .threads(threads)
            .seed(77)
            .numeric(NumericPolicy::Fast)
            .run(&mut field, &SoftwareGibbs::new());
        (field, report)
    };
    let (base_field, base_report) = solve(1);
    for threads in [2, 7] {
        let (field, report) = solve(threads);
        assert_eq!(field.as_slice(), base_field.as_slice(), "{threads} threads");
        assert_eq!(report, base_report, "{threads} threads");
    }
}
