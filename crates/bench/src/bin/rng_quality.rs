//! RNG-quality ablation for the Table IV discussion: run the bitstream
//! battery on every generator, then rerun a stereo workload with the
//! software Gibbs kernel driven by each RNG — the experiment behind the
//! paper's LFSR caveat ("result quality as good as mt19937 and RSU-G for
//! the selected benchmarks... result quality for other benchmarks ...
//! remains to be evaluated given the relatively short period").

use bench::{table, write_csv};
use chain::app::{annealing_schedule, STEREO_DATA_WEIGHT, STEREO_ITERATIONS, STEREO_SMOOTH_WEIGHT};
use mrf::{LabelField, MrfModel, SiteSampler, SoftwareGibbs};
use rand::{Rng, RngCore, SeedableRng};
use sampling::{bittests, Lfsr, Mt19937, Xoshiro256pp};
use vision::metrics::bad_pixel_percentage;
use vision::StereoModel;

fn run_with_rng<R: Rng>(model: &StereoModel, rng: &mut R, iterations: usize) -> LabelField {
    let mut field = LabelField::random(model.grid(), model.num_labels(), rng);
    let mut gibbs = SoftwareGibbs::new();
    let mut energies = Vec::new();
    for iter in 0..iterations {
        let t = annealing_schedule().temperature(iter);
        gibbs.begin_iteration(t);
        for site in model.grid().sites() {
            model.local_energies(site, &field, &mut energies);
            let current = field.get(site);
            let new = gibbs.sample_label(&energies, t, current, rng);
            field.set(site, new);
        }
    }
    field
}

fn main() {
    println!("RNG quality ablation (Table IV discussion)\n");
    println!("bitstream battery p-values (64 kbit):");
    let mut battery_rows = Vec::new();
    let mut run_battery = |name: &str, rng: &mut dyn RngCore| {
        let bits = bittests::collect_bits(rng, 1 << 16);
        battery_rows.push(vec![
            name.to_owned(),
            format!("{:.3}", bittests::monobit_pvalue(&bits)),
            format!("{:.3}", bittests::runs_pvalue(&bits)),
            format!("{:.3}", bittests::block_frequency_pvalue(&bits, 64)),
            format!("{:.3}", bittests::poker_pvalue(&bits)),
        ]);
    };
    run_battery("mt19937", &mut Mt19937::seed_from_u64(0xFEED));
    run_battery("lfsr19", &mut Lfsr::new_19bit(0x4242));
    run_battery("xoshiro256++", &mut Xoshiro256pp::seed_from_u64(0xFEED));
    println!(
        "{}",
        table::render(
            &["generator", "monobit", "runs", "blockfreq", "poker"],
            &battery_rows
        )
    );

    println!("stereo quality with each RNG driving the software Gibbs kernel:");
    let ds = scenes::stereo_poster_like(1002);
    let model = StereoModel::new(
        &ds.left,
        &ds.right,
        ds.num_disparities,
        STEREO_DATA_WEIGHT,
        STEREO_SMOOTH_WEIGHT,
    )
    .expect("generated datasets are consistent");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut run_quality = |name: &str, field: LabelField| {
        let bp = bad_pixel_percentage(&field, &ds.ground_truth, Some(&ds.occlusion), 1.0);
        rows.push(vec![name.to_owned(), format!("{bp:.1}")]);
        csv.push(format!("{name},{bp:.3}"));
    };
    run_quality(
        "mt19937",
        run_with_rng(&model, &mut Mt19937::seed_from_u64(11), STEREO_ITERATIONS),
    );
    run_quality(
        "lfsr19",
        run_with_rng(&model, &mut Lfsr::new_19bit(11), STEREO_ITERATIONS),
    );
    run_quality(
        "xoshiro256++",
        run_with_rng(
            &model,
            &mut Xoshiro256pp::seed_from_u64(11),
            STEREO_ITERATIONS,
        ),
    );
    println!("{}", table::render(&["generator", "poster BP%"], &rows));
    println!(
        "paper shape: the 19-bit LFSR matches mt19937 on this benchmark despite its\n\
         2^19−1 period, supporting the Table IV cost comparison's premise"
    );
    write_csv("rng_quality", "generator,poster_bp", &csv);
}
