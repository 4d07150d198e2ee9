//! Figure 9d + Table I: image-segmentation Variation of Information
//! across 30 images at 2/4/6/8 labels, software vs new RSU-G — mean VoI
//! (the figure) and its standard deviation (the table).

use bench::checkpoint::CheckpointCtl;
use bench::{table, write_csv};
use chain::app::SEGMENT_ITERATIONS;
use chain::trace_jsonl::JsonlTraceWriter;
use chain::{App, Chain, Engine, SamplerKind};
use mrf::{potential_scale_reduction, EnergyTrace, FanOut, NumericPolicy};
use sampling::stats::sample_std_dev;

const LABEL_COUNTS: [usize; 4] = [2, 4, 6, 8];
/// Chains traced per sampler when `--trace` is given (first image, 4
/// labels).
const TRACE_SEEDS: [u64; 3] = [31, 32, 33];
const TRACE_EPSILON: f64 = 0.02;

fn main() {
    let threads = bench::threads_from_args();
    let numeric = bench::numeric_from_args();
    let active = bench::active_from_args();
    let trace_path = bench::trace_path_from_args();
    let mut ckpt = CheckpointCtl::from_args_or_exit("fig9d_segmentation");
    println!("Fig. 9d / Tab. I — segmentation VoI over 30 images (30 iterations each)\n");
    if threads > 1 {
        println!("running the parallel checkerboard engine on {threads} threads\n");
    }
    if numeric == NumericPolicy::Fast || active {
        println!(
            "numeric policy {numeric:?}, active-site scheduling {}: chains run on the \
             checkerboard engine; quality is gated against the f64 full-sweep oracle \
             (DESIGN §12), not bit-identical to the default run\n",
            if active { "on" } else { "off" }
        );
    }
    if let Some(label) = ckpt.pending_resume() {
        println!("resuming interrupted run {label} (earlier runs are recomputed)\n");
    }
    let suite = scenes::segmentation_suite(3001, 30);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &k in &LABEL_COUNTS {
        let mut sw_vois = Vec::with_capacity(suite.len());
        let mut hw_vois = Vec::with_capacity(suite.len());
        for (i, ds) in suite.iter().enumerate() {
            let app = App::segmentation(ds, k).expect("generated datasets are consistent");
            let mut run = |sampler: SamplerKind| {
                let chain = ckpt.run(
                    &format!("fig9d/k{k}/img{i:02}/{}", sampler.name()),
                    &app,
                    app.schedule(),
                    31 + i as u64,
                    &mut Engine::solver(sampler, threads, numeric, active),
                    SEGMENT_ITERATIONS,
                );
                app.score(chain.field()).1
            };
            sw_vois.push(run(SamplerKind::software()));
            hw_vois.push(run(SamplerKind::new_rsu()));
        }
        let sw_mean = sw_vois.iter().sum::<f64>() / sw_vois.len() as f64;
        let hw_mean = hw_vois.iter().sum::<f64>() / hw_vois.len() as f64;
        let sw_sd = sample_std_dev(&sw_vois);
        let hw_sd = sample_std_dev(&hw_vois);
        rows.push(vec![
            format!("{k}-label"),
            format!("{sw_mean:.3}"),
            format!("{hw_mean:.3}"),
            format!("{sw_sd:.2}"),
            format!("{hw_sd:.2}"),
        ]);
        csv.push(format!(
            "{k},{sw_mean:.5},{hw_mean:.5},{sw_sd:.5},{hw_sd:.5}"
        ));
    }
    println!(
        "{}",
        table::render(
            &[
                "labels",
                "software VoI",
                "new-RSUG VoI",
                "sw σ(VoI)",
                "rsu σ(VoI)"
            ],
            &rows
        )
    );
    println!(
        "paper shape: mean VoI comparable between software and RSU-G at every label\n\
         count, with matching standard deviations (Table I: 0.63–0.79 band)"
    );
    write_csv(
        "fig9d_tab1_segmentation",
        "labels,software_voi_mean,rsug_voi_mean,software_voi_sd,rsug_voi_sd",
        &csv,
    );

    if let Some(path) = trace_path {
        write_trace(&path, &suite[0], threads);
    }
}

/// `--trace` mode: traces the first image of the suite at 4 labels,
/// software vs new RSU-G, as multi-seed chains with per-sweep JSONL
/// records plus ESS/PSRF/time-to-quality summaries.
fn write_trace(path: &std::path::Path, ds: &scenes::SegmentationDataset, threads: usize) {
    let file = std::fs::File::create(path).expect("can create trace file");
    let mut writer = JsonlTraceWriter::new(std::io::BufWriter::new(file));
    let app = App::segmentation(ds, 4).expect("generated datasets are consistent");
    for sampler in [SamplerKind::software(), SamplerKind::new_rsu()] {
        let config = sampler.name();
        let mut chains: Vec<EnergyTrace> = Vec::new();
        for &seed in &TRACE_SEEDS {
            writer.set_chain(&format!("{config}/seed{seed}"));
            let mut energy = EnergyTrace::new();
            {
                let mut observers = FanOut::new();
                observers.push(&mut energy);
                observers.push(&mut writer);
                let mut engine =
                    Engine::solver(sampler.clone(), threads, NumericPolicy::Exact, false);
                Chain::new(&app, app.schedule(), seed).step(
                    &app,
                    &mut engine,
                    SEGMENT_ITERATIONS,
                    None,
                    &mut observers,
                );
            }
            chains.push(energy);
        }
        let ess: Vec<Option<f64>> = chains.iter().map(EnergyTrace::ess).collect();
        let energy_series: Vec<Vec<f64>> = chains.iter().map(EnergyTrace::energies).collect();
        let psrf = potential_scale_reduction(&energy_series);
        let to_within: Vec<Option<usize>> = chains
            .iter()
            .map(|c| c.iterations_to_within(TRACE_EPSILON))
            .collect();
        writer.write_summary(config, &ess, psrf, TRACE_EPSILON, &to_within);
    }
    writer.flush();
    if let Some(e) = writer.take_error() {
        eprintln!("error: failed writing trace to {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote trace {}", path.display());
}
