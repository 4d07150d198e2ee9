//! Figure 8: stereo BP over the (`Time_bits`, `Truncation`) plane for
//! the poster-like dataset.
//!
//! Protocol note (documented in EXPERIMENTS.md): with the full annealing
//! schedule, our functional simulator is *flat* across this plane — the
//! probability cut-off leaves a single active label per pixel by the
//! time the schedule freezes, so the end state no longer depends on time
//! precision. That is itself a robustness finding, but it hides the
//! trade-off the paper maps. To expose sampling fidelity the sweep
//! therefore runs plain Gibbs at a fixed moderate temperature with the
//! §III-C3 clamp-to-`t_max` convention, where the equilibrium label
//! statistics directly reflect the realised win probabilities (Fig. 7).
//! The paper's iso-quality diagonal appears in this regime: quality
//! degrades at low truncation (time-bin compression) and at very high
//! truncation (over-truncation), and improves with more time bits.

use bench::{table, write_csv};
use chain::app::{STEREO_DATA_WEIGHT, STEREO_SMOOTH_WEIGHT};
use chain::trace_jsonl::JsonlTraceWriter;
use chain::{Chain, Engine, SamplerKind};
use mrf::{potential_scale_reduction, EnergyTrace, FanOut, MrfModel, NumericPolicy, Schedule};
use rsu::{CensoredPolicy, CycleAccuratePipeline, DesignKind, RsuConfig};
use vision::metrics::bad_pixel_percentage;
use vision::StereoModel;

const TIME_BITS: [u32; 6] = [3, 4, 5, 6, 7, 8];
const TRUNCATIONS: [f64; 7] = [0.01, 0.05, 0.1, 0.2, 0.5, 0.7, 0.9];
const TEMPERATURE: f64 = 2.0;
const ITERATIONS: usize = 150;
/// Chains traced per configuration when `--trace` is given.
const TRACE_SEEDS: [u64; 3] = [11, 12, 13];
/// ε for the iterations-to-within-ε convergence summary.
const TRACE_EPSILON: f64 = 0.02;

fn main() {
    let threads = bench::threads_from_args();
    let trace_path = bench::trace_path_from_args();
    let mut ckpt = bench::checkpoint::CheckpointCtl::from_args_or_exit("fig8_time_truncation");
    println!(
        "Fig. 8 — poster BP over Time_bits × Truncation (fixed T = {TEMPERATURE}, clamp-to-t_max)\n"
    );
    if threads > 1 {
        println!("running the parallel checkerboard engine on {threads} threads\n");
    }
    if let Some(label) = ckpt.pending_resume() {
        println!("resuming interrupted run {label} (earlier runs are recomputed)\n");
    }
    let ds = scenes::stereo_poster_like(1002);
    let model = StereoModel::new(
        &ds.left,
        &ds.right,
        ds.num_disparities,
        STEREO_DATA_WEIGHT,
        STEREO_SMOOTH_WEIGHT,
    )
    .expect("generated datasets are consistent");
    let schedule = Schedule::constant(TEMPERATURE);

    let mut run = |sampler: SamplerKind, label: &str| {
        let mut engine = Engine::solver(sampler, threads, NumericPolicy::Exact, false);
        ckpt.run(label, &model, schedule, 11, &mut engine, ITERATIONS)
            .into_field()
    };
    let sw_field = run(SamplerKind::software(), "fig8/software");
    let sw_bp = bad_pixel_percentage(&sw_field, &ds.ground_truth, Some(&ds.occlusion), 1.0);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &bits in &TIME_BITS {
        let mut cells = vec![format!("{bits}")];
        let mut csv_cells = vec![format!("{bits}")];
        for &trunc in &TRUNCATIONS {
            let cfg = RsuConfig::builder()
                .time_bits(bits)
                .truncation(trunc)
                .censored_policy(CensoredPolicy::ClampToTMax)
                .build()
                .expect("valid sweep point");
            let field = run(
                SamplerKind::custom(cfg),
                &format!("fig8/tb{bits}/tr{trunc}"),
            );
            let bp = bad_pixel_percentage(&field, &ds.ground_truth, Some(&ds.occlusion), 1.0);
            let marker = if bits == 5 && (trunc - 0.5).abs() < 1e-9 {
                "*"
            } else {
                ""
            };
            cells.push(format!("{bp:.1}{marker}"));
            csv_cells.push(format!("{bp:.3}"));
        }
        rows.push(cells);
        csv.push(csv_cells.join(","));
    }
    let header: Vec<String> = std::iter::once("Time_bits \\ Trunc".to_owned())
        .chain(TRUNCATIONS.iter().map(|t| format!("{t}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", table::render(&header_refs, &rows));
    println!("software reference at the same temperature: BP {sw_bp:.1} %");
    println!("(* = the paper's chosen design point: Time_bits 5, Truncation 0.5)");
    println!(
        "paper shape: worst at low-truncation/low-bits corner; degradation again at\n\
         truncation ≳ 0.7; a broad iso-quality band through the middle where the\n\
         starred point sits; more time bits monotonically help at fixed truncation"
    );
    write_csv(
        "fig8_time_truncation",
        &format!(
            "time_bits,{}",
            TRUNCATIONS.map(|t| format!("trunc_{t}")).join(",")
        ),
        &csv,
    );

    if let Some(path) = trace_path {
        write_trace(&path, &model, schedule, ds.num_disparities as u32, threads);
    }
}

/// `--trace` mode: re-runs the software reference and the starred
/// design point as multi-seed chains with per-sweep JSONL records plus
/// ESS/PSRF/time-to-quality summaries, and appends the cycle-accurate
/// pipeline counters for both RSU designs at this label count.
fn write_trace(
    path: &std::path::Path,
    model: &StereoModel,
    schedule: Schedule,
    labels: u32,
    threads: usize,
) {
    let file = std::fs::File::create(path).expect("can create trace file");
    let mut writer = JsonlTraceWriter::new(std::io::BufWriter::new(file));
    let starred = RsuConfig::builder()
        .time_bits(5)
        .truncation(0.5)
        .censored_policy(CensoredPolicy::ClampToTMax)
        .build()
        .expect("the starred design point is valid");
    for (config, sampler) in [
        ("software", SamplerKind::software()),
        ("starred-RSUG", SamplerKind::custom(starred)),
    ] {
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
                Chain::new(model, schedule, seed).step(
                    model,
                    &mut engine,
                    ITERATIONS,
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
    for (design, kind, config) in [
        ("new", DesignKind::New, RsuConfig::new_design()),
        (
            "previous",
            DesignKind::Previous,
            RsuConfig::previous_design(),
        ),
    ] {
        let sim = CycleAccuratePipeline::new(kind, config, labels);
        // One annealing iteration's worth of variables, with one
        // temperature update requested at its start.
        let report = sim.run(model.grid().len() as u64, 1);
        writer.write_rsu_pipeline(design, labels, &report);
    }
    writer.flush();
    if let Some(e) = writer.take_error() {
        eprintln!("error: failed writing trace to {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote trace {}", path.display());
}
