//! CI smoke gate for the f32 fast path + active-site scheduling
//! (`--numeric fast --active` in the drivers): runs a tiny stereo grid
//! under the f64 exact full-sweep oracle and under the combined
//! fast+active configuration, and cross-checks annealed solution
//! quality against the tolerances DESIGN §12 documents:
//!
//! * mean final energy within 10% of the oracle's (the active-set
//!   bounded-degradation contract — same bound the
//!   `numeric_equivalence` suite gates statistically);
//! * mean bad-pixel percentage within 5 points of the oracle's.
//!
//! Both arms run the checkerboard engine at one thread, so the only
//! differences under test are the f32 kernel and the worklist. Exits
//! non-zero on any violation; runtime is a few seconds.

use bench::table;
use chain::app::{STEREO_DATA_WEIGHT, STEREO_SMOOTH_WEIGHT};
use mrf::{total_energy, LabelField, MrfModel, NumericPolicy, ParallelSweepSolver, Schedule};
use rand::SeedableRng;
use sampling::Xoshiro256pp;
use std::process::ExitCode;
use vision::metrics::bad_pixel_percentage;
use vision::StereoModel;

const SEEDS: [u64; 3] = [1, 2, 3];
const ITERATIONS: usize = 60;
/// DESIGN §12 tolerances the gate enforces.
const ENERGY_TOLERANCE: f64 = 0.10;
const BP_TOLERANCE_POINTS: f64 = 5.0;

fn main() -> ExitCode {
    let ds = scenes::StereoSpec {
        width: 40,
        height: 30,
        num_disparities: 8,
        num_layers: 2,
        noise_sigma: 1.0,
    }
    .generate(5);
    let model = StereoModel::new(
        &ds.left,
        &ds.right,
        ds.num_disparities,
        STEREO_DATA_WEIGHT,
        STEREO_SMOOTH_WEIGHT,
    )
    .expect("generated datasets are consistent");
    let schedule = Schedule::geometric(10.0, 0.9, 0.3);

    let run = |seed: u64, numeric: NumericPolicy, active: bool| -> (f64, f64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        ParallelSweepSolver::new(&model)
            .schedule(schedule)
            .iterations(ITERATIONS)
            .threads(1)
            .seed(seed)
            .numeric(numeric)
            .active_sites(active)
            .run(&mut field, &mrf::SoftwareGibbs::new());
        let energy = total_energy(&model, &field);
        let bp = bad_pixel_percentage(&field, &ds.ground_truth, Some(&ds.occlusion), 1.0);
        (energy, bp)
    };

    println!(
        "numeric smoke — {}x{} stereo, {} disparities, {} sweeps, {} seeds\n",
        40,
        30,
        ds.num_disparities,
        ITERATIONS,
        SEEDS.len()
    );
    let mut rows = Vec::new();
    let mut exact_energy = 0.0;
    let mut exact_bp = 0.0;
    let mut fast_energy = 0.0;
    let mut fast_bp = 0.0;
    for &seed in &SEEDS {
        let (ee, eb) = run(seed, NumericPolicy::Exact, false);
        let (fe, fb) = run(seed, NumericPolicy::Fast, true);
        exact_energy += ee;
        exact_bp += eb;
        fast_energy += fe;
        fast_bp += fb;
        rows.push(vec![
            format!("seed {seed}"),
            format!("{ee:.1}"),
            format!("{fe:.1}"),
            format!("{eb:.2}"),
            format!("{fb:.2}"),
        ]);
    }
    let n = SEEDS.len() as f64;
    exact_energy /= n;
    exact_bp /= n;
    fast_energy /= n;
    fast_bp /= n;
    rows.push(vec![
        "mean".to_string(),
        format!("{exact_energy:.1}"),
        format!("{fast_energy:.1}"),
        format!("{exact_bp:.2}"),
        format!("{fast_bp:.2}"),
    ]);
    println!(
        "{}",
        table::render(
            &[
                "run",
                "E exact",
                "E fast+active",
                "BP% exact",
                "BP% fast+active"
            ],
            &rows
        )
    );

    let energy_bound = exact_energy * (1.0 + ENERGY_TOLERANCE);
    let bp_gap = (fast_bp - exact_bp).abs();
    let mut failed = false;
    // Negated `<=` on purpose: a NaN mean must fail the gate, and
    // `fast_energy > energy_bound` would let it slip through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(fast_energy <= energy_bound) {
        eprintln!(
            "FAIL: mean fast+active energy {fast_energy:.1} exceeds oracle {exact_energy:.1} \
             by more than {:.0}% (bound {energy_bound:.1})",
            ENERGY_TOLERANCE * 100.0
        );
        failed = true;
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(bp_gap <= BP_TOLERANCE_POINTS) {
        eprintln!(
            "FAIL: mean BP gap {bp_gap:.2} points exceeds {BP_TOLERANCE_POINTS} \
             (exact {exact_bp:.2}, fast+active {fast_bp:.2})"
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "OK: energy within {:.0}% of the f64 oracle, BP within {BP_TOLERANCE_POINTS} points",
        ENERGY_TOLERANCE * 100.0
    );
    ExitCode::SUCCESS
}
