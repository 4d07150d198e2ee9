//! Determinism contract of the observability layer: attaching any
//! observer — the no-op, a recording one, or one that asks
//! for per-site updates — must leave every engine's chain bit-identical
//! to the unobserved run, including the RNG stream position for the
//! raster engine. Extends the fused≡direct identity suite
//! (`tests/fused_kernel.rs`) to the observer axis, across all three
//! engines at 1, 2 and 7 host threads.

use mrf::{
    DistanceFn, Label, LabelField, MrfModel, ParallelSweepSolver, Schedule, SoftwareGibbs,
    SweepObserver, SweepRecord, SweepSolver, TabularMrf,
};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rsu::{RsuArray, RsuConfig};
use sampling::Xoshiro256pp;

/// A deliberately heavy observer: records every sweep *and* every site
/// update, so any accidental coupling between observation and the chain
/// (shared RNG draws, reordered flips) would show up as divergence.
#[derive(Default)]
struct RecordingObserver {
    sweeps: Vec<SweepRecord>,
    site_updates: Vec<(usize, usize, Label, Label)>,
}

impl SweepObserver for RecordingObserver {
    fn on_sweep(&mut self, record: &SweepRecord) {
        self.sweeps.push(record.clone());
    }

    fn wants_site_updates(&self) -> bool {
        true
    }

    fn on_site_update(&mut self, iteration: usize, site: usize, old: Label, new: Label) {
        self.site_updates.push((iteration, site, old, new));
    }
}

fn arb_model() -> impl Strategy<Value = TabularMrf> {
    (
        2usize..10,
        2usize..10,
        2usize..=12,
        0.5f64..8.0,
        0.0f64..2.0,
        0usize..3,
    )
        .prop_map(|(w, h, labels, contrast, weight, dist_idx)| {
            TabularMrf::checkerboard(w, h, labels, contrast, DistanceFn::ALL[dist_idx], weight)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential solver: observed and unobserved runs agree on the
    /// field AND on how much randomness they consumed (the next draw
    /// from the shared RNG matches), and the recorded energies are the
    /// solver's own energy history.
    #[test]
    fn sweep_solver_observation_never_perturbs_the_chain(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let schedule = Schedule::geometric(3.0, 0.9, 0.1);
        let solve = |observer: &mut dyn FnMut(
            &mut LabelField,
            &mut Xoshiro256pp,
        ) -> mrf::SolveReport| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
            let report = observer(&mut field, &mut rng);
            (field, rng.next_u64(), report)
        };
        let (plain_field, plain_next, plain_report) = solve(&mut |field, rng| {
            SweepSolver::new(&model)
                .schedule(schedule)
                .iterations(8)
                .run(field, &mut SoftwareGibbs::new(), rng)
        });
        let mut recording = RecordingObserver::default();
        let (obs_field, obs_next, obs_report) = solve(&mut |field, rng| {
            SweepSolver::new(&model)
                .schedule(schedule)
                .iterations(8)
                .run_observed(field, &mut SoftwareGibbs::new(), rng, &mut recording)
        });
        prop_assert_eq!(plain_field.as_slice(), obs_field.as_slice());
        prop_assert_eq!(plain_next, obs_next, "observation changed RNG consumption");
        prop_assert_eq!(&plain_report.energy_history, &obs_report.energy_history);
        let recorded: Vec<f64> = recording.sweeps.iter().map(|r| r.energy).collect();
        prop_assert_eq!(&recorded, &obs_report.energy_history);
        let flips: u64 = recording.sweeps.iter().map(|r| r.flips).sum();
        prop_assert_eq!(flips, obs_report.labels_changed);
        prop_assert_eq!(recording.site_updates.len() as u64, flips);
    }

    /// Parallel checkerboard solver: for each of 1/2/7 threads, the
    /// observed field equals the unobserved one, and all observed runs
    /// see the identical sweep/site-update streams regardless of the
    /// thread count.
    #[test]
    fn parallel_solver_observation_is_thread_invariant(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let mut init_rng = Xoshiro256pp::seed_from_u64(seed);
        let start = LabelField::random(model.grid(), model.num_labels(), &mut init_rng);
        type Streams = (Vec<f64>, Vec<(usize, usize, Label, Label)>);
        let mut reference: Option<Streams> = None;
        for threads in [1usize, 2, 7] {
            let solver = ParallelSweepSolver::new(&model);
            let solver = solver
                .schedule(Schedule::constant(1.0))
                .iterations(4)
                .threads(threads)
                .seed(seed);
            let mut plain_field = start.clone();
            let plain_report = solver.run(&mut plain_field, &SoftwareGibbs::new());
            let mut obs_field = start.clone();
            let mut recording = RecordingObserver::default();
            let obs_report =
                solver.run_observed(&mut obs_field, &SoftwareGibbs::new(), &mut recording);
            prop_assert_eq!(
                plain_field.as_slice(), obs_field.as_slice(),
                "observation changed the chain at {} threads", threads
            );
            prop_assert_eq!(&plain_report.energy_history, &obs_report.energy_history);
            let flips: u64 = recording.sweeps.iter().map(|r| r.flips).sum();
            prop_assert_eq!(flips, obs_report.labels_changed);
            prop_assert_eq!(recording.site_updates.len() as u64, flips);
            let energies: Vec<f64> = recording.sweeps.iter().map(|r| r.energy).collect();
            match &reference {
                None => reference = Some((energies, recording.site_updates)),
                Some((ref_energies, ref_sites)) => {
                    prop_assert_eq!(
                        ref_energies, &energies,
                        "observed energies depend on thread count"
                    );
                    prop_assert_eq!(
                        ref_sites, &recording.site_updates,
                        "site-update stream depends on thread count"
                    );
                }
            }
        }
    }

    /// RSU array: observed and unobserved sweeps agree on the field and
    /// the cycle report at every thread count, the site-update stream is
    /// thread invariant, and the incrementally tracked energy the
    /// observer sees matches a fresh total-energy evaluation of the
    /// final field.
    #[test]
    fn rsu_array_observation_never_perturbs_the_chain(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let mut init_rng = Xoshiro256pp::seed_from_u64(seed);
        let start = LabelField::random(model.grid(), model.num_labels(), &mut init_rng);
        let mut reference: Option<Vec<(usize, usize, Label, Label)>> = None;
        for threads in [1usize, 2, 7] {
            let run_plain = || {
                let mut array = RsuArray::new(RsuConfig::new_design(), 4);
                let mut field = start.clone();
                let mut reports = Vec::new();
                for iteration in 0..3u64 {
                    reports.push(array.sweep_parallel(
                        &model, &mut field, 1.0, iteration, seed, threads,
                    ));
                }
                (field, reports)
            };
            let (plain_field, plain_reports) = run_plain();
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            let mut obs_field = start.clone();
            let mut recording = RecordingObserver::default();
            let mut obs_reports = Vec::new();
            for iteration in 0..3u64 {
                obs_reports.push(array.sweep_parallel_observed(
                    &model, &mut obs_field, 1.0, iteration, seed, threads, &mut recording,
                ));
            }
            prop_assert_eq!(
                plain_field.as_slice(), obs_field.as_slice(),
                "observation changed the chain at {} threads", threads
            );
            prop_assert_eq!(&plain_reports, &obs_reports);
            let flips: u64 = recording.sweeps.iter().map(|r| r.flips).sum();
            prop_assert_eq!(recording.site_updates.len() as u64, flips);
            let final_energy = recording.sweeps.last().unwrap().energy;
            let true_energy = mrf::total_energy(&model, &obs_field);
            prop_assert!(
                (final_energy - true_energy).abs() < 1e-6 * true_energy.abs().max(1.0),
                "incremental energy {} diverged from total {}", final_energy, true_energy
            );
            match &reference {
                None => reference = Some(recording.site_updates),
                Some(r) => prop_assert_eq!(
                    r, &recording.site_updates,
                    "site-update stream depends on thread count"
                ),
            }
        }
    }
}
