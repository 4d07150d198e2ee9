//! Integration tests for the checkpoint/resume determinism contract:
//! killing a run after `k` sweeps, serializing a [`Checkpoint`] through
//! its on-disk text format, and resuming produces the same field, the
//! same energy history (bit-for-bit) and the same RNG consumption as
//! the uninterrupted run — for both sweep engines, at any thread count.

use mrf::{
    total_energy, Checkpoint, DistanceFn, LabelField, MrfModel, ParallelSweepSolver, Schedule,
    SoftwareGibbs, SweepSolver, TabularMrf,
};
use proptest::prelude::*;
use rand::SeedableRng;
use sampling::Xoshiro256pp;

const SEED: u64 = 1234;

fn model() -> TabularMrf {
    TabularMrf::checkerboard(12, 10, 4, 5.0, DistanceFn::Absolute, 0.6)
}

fn schedule() -> Schedule {
    Schedule::geometric(4.0, 0.95, 0.1)
}

/// Kill the sequential solver at sweep `k`, round-trip the checkpoint
/// through text, resume: field, full energy history *and* the Xoshiro
/// state after the run (i.e. total RNG consumption) all match the
/// uninterrupted chain exactly.
#[test]
fn sequential_kill_and_resume_matches_uninterrupted_including_rng_consumption() {
    let model = model();
    let total = 40;
    for k in [1, 17, 39] {
        // Uninterrupted reference.
        let mut ref_rng = Xoshiro256pp::seed_from_u64(SEED);
        let mut ref_field = LabelField::random(model.grid(), model.num_labels(), &mut ref_rng);
        let ref_report = SweepSolver::new(&model)
            .schedule(schedule())
            .iterations(total)
            .run(&mut ref_field, &mut SoftwareGibbs::new(), &mut ref_rng);

        // Run to k, checkpoint, drop everything.
        let mut rng = Xoshiro256pp::seed_from_u64(SEED);
        let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        let partial = SweepSolver::new(&model)
            .schedule(schedule())
            .iterations(k)
            .run(&mut field, &mut SoftwareGibbs::new(), &mut rng);
        let checkpoint = Checkpoint::capture(
            "sweep",
            &field,
            k,
            partial.final_energy(),
            partial.labels_changed,
            partial.energy_history.clone(),
        )
        .with_seed(SEED)
        .with_rng_state(rng.state());
        drop((field, rng, partial));

        // Resume from the serialized form only.
        let restored = Checkpoint::from_text(&checkpoint.to_text()).unwrap();
        restored.expect_engine("sweep").unwrap();
        let mut resumed_field = restored.restore_field();
        let mut resumed_rng = Xoshiro256pp::from_state(restored.rng_state.unwrap());
        let resumed_report = SweepSolver::new(&model)
            .schedule(schedule())
            .iterations(total)
            .resume(restored.resume_state())
            .run(
                &mut resumed_field,
                &mut SoftwareGibbs::new(),
                &mut resumed_rng,
            );

        assert_eq!(ref_field, resumed_field, "kill at {k}");
        let ref_bits: Vec<u64> = ref_report
            .energy_history
            .iter()
            .map(|e| e.to_bits())
            .collect();
        let res_bits: Vec<u64> = resumed_report
            .energy_history
            .iter()
            .map(|e| e.to_bits())
            .collect();
        assert_eq!(ref_bits, res_bits, "kill at {k}: energy history");
        assert_eq!(
            ref_report.labels_changed, resumed_report.labels_changed,
            "kill at {k}: flip counter"
        );
        assert_eq!(
            ref_rng.state(),
            resumed_rng.state(),
            "kill at {k}: the resumed chain must consume the RNG identically"
        );
    }
}

/// Kill the parallel solver at sweep `k` on one thread count, resume on
/// another: the field and the full energy history match the
/// uninterrupted single-thread chain bit-for-bit for every pairing of
/// 1, 2 and 7 threads.
#[test]
fn parallel_kill_and_resume_matches_uninterrupted_across_thread_counts() {
    let model = model();
    let total = 30;
    let k = 13;
    let mut init_rng = Xoshiro256pp::seed_from_u64(SEED);
    let init = LabelField::random(model.grid(), model.num_labels(), &mut init_rng);

    let mut ref_field = init.clone();
    let ref_report = ParallelSweepSolver::new(&model)
        .schedule(schedule())
        .iterations(total)
        .threads(1)
        .seed(SEED)
        .run(&mut ref_field, &SoftwareGibbs::new());

    for kill_threads in [1, 2, 7] {
        let mut field = init.clone();
        let partial = ParallelSweepSolver::new(&model)
            .schedule(schedule())
            .iterations(k)
            .threads(kill_threads)
            .seed(SEED)
            .run(&mut field, &SoftwareGibbs::new());
        let checkpoint = Checkpoint::capture(
            "parallel",
            &field,
            k,
            partial.final_energy(),
            partial.labels_changed,
            partial.energy_history,
        )
        .with_seed(SEED);
        let restored = Checkpoint::from_text(&checkpoint.to_text()).unwrap();

        for resume_threads in [1, 2, 7] {
            let mut resumed_field = restored.restore_field();
            let resumed_report = ParallelSweepSolver::new(&model)
                .schedule(schedule())
                .iterations(total)
                .threads(resume_threads)
                .seed(restored.seed)
                .resume(restored.resume_state())
                .run(&mut resumed_field, &SoftwareGibbs::new());
            assert_eq!(
                ref_field, resumed_field,
                "kill at {kill_threads}t, resume at {resume_threads}t"
            );
            let ref_bits: Vec<u64> = ref_report
                .energy_history
                .iter()
                .map(|e| e.to_bits())
                .collect();
            let res_bits: Vec<u64> = resumed_report
                .energy_history
                .iter()
                .map(|e| e.to_bits())
                .collect();
            assert_eq!(
                ref_bits, res_bits,
                "kill at {kill_threads}t, resume at {resume_threads}t: energy history"
            );
        }
    }
}

/// A resumed chain's incremental energy still tracks the true total: the
/// accumulator carried across the checkpoint boundary agrees with a full
/// recomputation at the end.
#[test]
fn resumed_incremental_energy_matches_full_recomputation() {
    let model = model();
    let mut field = {
        let mut rng = Xoshiro256pp::seed_from_u64(SEED);
        LabelField::random(model.grid(), model.num_labels(), &mut rng)
    };
    let partial = ParallelSweepSolver::new(&model)
        .schedule(schedule())
        .iterations(20)
        .threads(3)
        .seed(SEED)
        .run(&mut field, &SoftwareGibbs::new());
    let checkpoint = Checkpoint::capture(
        "parallel",
        &field,
        20,
        partial.final_energy(),
        partial.labels_changed,
        partial.energy_history,
    )
    .with_seed(SEED);
    let mut resumed_field = checkpoint.restore_field();
    let report = ParallelSweepSolver::new(&model)
        .schedule(schedule())
        .iterations(45)
        .threads(3)
        .seed(SEED)
        .resume(checkpoint.resume_state())
        .run(&mut resumed_field, &SoftwareGibbs::new());
    let full = total_energy(&model, &resumed_field);
    assert!(
        (report.final_energy() - full).abs() < 1e-9,
        "incremental {} vs recomputed {full}",
        report.final_energy()
    );
}

/// The active kill/resume contract, crossed over 1/2/7 thread counts on
/// both sides of the kill: the worklist in the checkpoint makes
/// resumption bit-identical to the uninterrupted single-thread active
/// chain. Without the worklist the resumed chain would restart from an
/// all-active sweep and diverge — this is the test that forces the
/// checkpoint format to carry it.
#[test]
fn parallel_active_kill_and_resume_matches_uninterrupted_across_thread_counts() {
    let model = model();
    let total = 30;
    let k = 13;
    let mut init_rng = Xoshiro256pp::seed_from_u64(SEED);
    let init = LabelField::random(model.grid(), model.num_labels(), &mut init_rng);

    let mut ref_field = init.clone();
    let ref_report = ParallelSweepSolver::new(&model)
        .schedule(schedule())
        .iterations(total)
        .threads(1)
        .seed(SEED)
        .active_sites(true)
        .run(&mut ref_field, &SoftwareGibbs::new());

    for kill_threads in [1, 2, 7] {
        let mut field = init.clone();
        let partial = ParallelSweepSolver::new(&model)
            .schedule(schedule())
            .iterations(k)
            .threads(kill_threads)
            .seed(SEED)
            .active_sites(true)
            .run(&mut field, &SoftwareGibbs::new());
        let checkpoint = Checkpoint::capture(
            "parallel",
            &field,
            k,
            partial.final_energy(),
            partial.labels_changed,
            partial.energy_history,
        )
        .with_seed(SEED)
        .with_active_sites(
            partial
                .active_sites
                .expect("active run reports its worklist"),
        );
        let restored = Checkpoint::from_text(&checkpoint.to_text()).unwrap();

        for resume_threads in [1, 2, 7] {
            let mut resumed_field = restored.restore_field();
            let resumed_report = ParallelSweepSolver::new(&model)
                .schedule(schedule())
                .iterations(total)
                .threads(resume_threads)
                .seed(restored.seed)
                .active_sites(true)
                .resume(restored.resume_state())
                .run(&mut resumed_field, &SoftwareGibbs::new());
            assert_eq!(
                ref_field, resumed_field,
                "kill at {kill_threads}t, resume at {resume_threads}t"
            );
            assert_eq!(
                ref_report, resumed_report,
                "kill at {kill_threads}t, resume at {resume_threads}t: report"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form of the parallel contract: for random geometry,
    /// kill point and thread counts, kill-then-resume equals the
    /// uninterrupted run.
    #[test]
    fn prop_parallel_resume_equals_uninterrupted(
        width in 3usize..12,
        height in 3usize..12,
        labels in 2usize..5,
        total in 4usize..24,
        k_frac in 0.05f64..0.95,
        kill_choice in 0usize..3,
        resume_choice in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let kill_threads = [1usize, 2, 7][kill_choice];
        let resume_threads = [1usize, 2, 7][resume_choice];
        let k = ((total as f64 * k_frac) as usize).clamp(1, total - 1);
        let model = TabularMrf::checkerboard(width, height, labels, 4.0, DistanceFn::Binary, 0.4);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let init = LabelField::random(model.grid(), labels, &mut rng);

        let mut reference = init.clone();
        ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.1))
            .iterations(total)
            .threads(1)
            .seed(seed)
            .run(&mut reference, &SoftwareGibbs::new());

        let mut field = init;
        let partial = ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.1))
            .iterations(k)
            .threads(kill_threads)
            .seed(seed)
            .run(&mut field, &SoftwareGibbs::new());
        let checkpoint = Checkpoint::capture(
            "parallel", &field, k, partial.final_energy(),
            partial.labels_changed, partial.energy_history,
        ).with_seed(seed);
        let restored = Checkpoint::from_text(&checkpoint.to_text()).unwrap();
        let mut resumed = restored.restore_field();
        ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.1))
            .iterations(total)
            .threads(resume_threads)
            .seed(seed)
            .resume(restored.resume_state())
            .run(&mut resumed, &SoftwareGibbs::new());
        prop_assert_eq!(reference, resumed);
    }
}
