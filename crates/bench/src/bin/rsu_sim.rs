//! `rsu_sim` — command-line driver for the RSU-G simulator.
//!
//! ```text
//! rsu_sim stereo  [--labels N] [--width W] [--height H] [--sampler KIND]
//!                 [--iterations I] [--seed S] [--out FILE.pgm]
//! rsu_sim motion  [--patches P] [--sampler KIND] [--iterations I] [--seed S]
//! rsu_sim segment [--regions R] [--segments K] [--sampler KIND] [--seed S]
//! rsu_sim design  [--lambda-bits L] [--time-bits T] [--truncation X]
//! ```
//!
//! `KIND` is one of `software`, `new`, `prev`. `design` prints the λ
//! conversion table of the requested point plus its replica and cost
//! figures.

use chain::app::{annealing_schedule, segmentation_schedule};
use chain::{Chain, Engine, SamplerKind};
use mrf::{LabelField, MrfModel, NoopObserver, Schedule};
use rsu::{EnergyToLambda, LutConverter, PipelineModel, RsuConfig, RsuG};
use scenes::{FlowSpec, SegmentationSpec, StereoSpec};
use std::collections::HashMap;
use std::process::ExitCode;
use vision::image::labels_to_image;
use vision::metrics::{bad_pixel_percentage, endpoint_error, variation_of_information};
use vision::{MotionModel, SegmentModel, StereoModel};

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} is missing its value"))?;
        flags.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{v}'")),
    }
}

fn sampler_kind(flags: &HashMap<String, String>) -> Result<SamplerKind, String> {
    match flags.get("sampler").map(String::as_str).unwrap_or("new") {
        "software" => Ok(SamplerKind::software()),
        "new" => Ok(SamplerKind::new_rsu()),
        "prev" => Ok(SamplerKind::previous_rsu()),
        other => Err(format!(
            "unknown sampler '{other}' (want software|new|prev)"
        )),
    }
}

/// A raster chain of `model` on `sampler`, `iterations` sweeps from
/// `seed`; returns the final field.
fn solve<M: MrfModel + Sync>(
    model: &M,
    sampler: SamplerKind,
    schedule: Schedule,
    iterations: usize,
    seed: u64,
) -> LabelField {
    let mut chain = Chain::new(model, schedule, seed);
    chain.step(
        model,
        &mut Engine::Raster(sampler),
        iterations,
        None,
        &mut NoopObserver,
    );
    chain.into_field()
}

fn cmd_stereo(flags: HashMap<String, String>) -> Result<(), String> {
    let labels: usize = get(&flags, "labels", 24)?;
    let width: usize = get(&flags, "width", 96)?;
    let height: usize = get(&flags, "height", 72)?;
    let iterations: usize = get(&flags, "iterations", 200)?;
    let seed: u64 = get(&flags, "seed", 7)?;
    let kind = sampler_kind(&flags)?;
    let ds = StereoSpec {
        width,
        height,
        num_disparities: labels,
        num_layers: 4,
        noise_sigma: 2.0,
    }
    .generate(seed);
    let model =
        StereoModel::new(&ds.left, &ds.right, labels, 0.3, 0.3).map_err(|e| e.to_string())?;
    let field = solve(&model, kind.clone(), annealing_schedule(), iterations, seed);
    let bp = bad_pixel_percentage(&field, &ds.ground_truth, Some(&ds.occlusion), 1.0);
    println!(
        "stereo {width}x{height}, {labels} labels, {iterations} iterations, sampler {}",
        kind.name()
    );
    println!("bad pixels: {bp:.1} %");
    if let Some(path) = flags.get("out") {
        labels_to_image(&field)
            .save_pgm(path)
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_motion(flags: HashMap<String, String>) -> Result<(), String> {
    let patches: usize = get(&flags, "patches", 4)?;
    let iterations: usize = get(&flags, "iterations", 150)?;
    let seed: u64 = get(&flags, "seed", 7)?;
    let kind = sampler_kind(&flags)?;
    let ds = FlowSpec {
        width: 96,
        height: 72,
        window: 7,
        num_patches: patches,
        noise_sigma: 2.0,
    }
    .generate(seed);
    let model =
        MotionModel::new(&ds.frame1, &ds.frame2, 7, 0.004, 1.2).map_err(|e| e.to_string())?;
    let field = solve(&model, kind.clone(), annealing_schedule(), iterations, seed);
    let flow: Vec<(isize, isize)> = (0..field.grid().len())
        .map(|s| model.label_to_flow(field.get(s)))
        .collect();
    let epe = endpoint_error(&flow, &ds.ground_truth);
    println!(
        "motion 96x72, 49 labels, {patches} patches, sampler {}",
        kind.name()
    );
    println!("endpoint error: {epe:.3}");
    Ok(())
}

fn cmd_segment(flags: HashMap<String, String>) -> Result<(), String> {
    let regions: usize = get(&flags, "regions", 4)?;
    let segments: usize = get(&flags, "segments", 4)?;
    let seed: u64 = get(&flags, "seed", 7)?;
    let kind = sampler_kind(&flags)?;
    let ds = SegmentationSpec {
        width: 96,
        height: 72,
        num_regions: regions,
        noise_sigma: 8.0,
        contrast: 140.0,
    }
    .generate(seed);
    let model = SegmentModel::new(&ds.image, segments, 0.004, 2.5).map_err(|e| e.to_string())?;
    let field = solve(&model, kind.clone(), segmentation_schedule(), 30, seed);
    let voi = variation_of_information(&field, &ds.ground_truth);
    println!(
        "segment 96x72, {regions} regions, {segments} segments, sampler {}",
        kind.name()
    );
    println!("variation of information: {voi:.3} bits");
    if let Some(path) = flags.get("out") {
        labels_to_image(&field)
            .save_pgm(path)
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_design(flags: HashMap<String, String>) -> Result<(), String> {
    let lambda_bits: u32 = get(&flags, "lambda-bits", 4)?;
    let time_bits: u32 = get(&flags, "time-bits", 5)?;
    let truncation: f64 = get(&flags, "truncation", 0.5)?;
    let temperature: f64 = get(&flags, "temperature", 8.0)?;
    let cfg = RsuConfig::builder()
        .lambda_bits(lambda_bits)
        .time_bits(time_bits)
        .truncation(truncation)
        .conversion(rsu::Conversion::Lut)
        .build()
        .map_err(|e| e.to_string())?;
    println!(
        "design point: Energy 8b, Lambda {lambda_bits}b (2^n, scaled, cut-off), \
         Time {time_bits}b, Truncation {truncation}"
    );
    let lut = LutConverter::new(8, cfg.lambda_scale(), true, true, temperature);
    println!("\nλ conversion at T = {temperature} (energy code → multiplier of λ0):");
    let mut prev = u16::MAX;
    for e in 0..=255u16 {
        let m = lut.multiplier_of(e);
        if m != prev {
            println!("  E' >= {e:<3} → λ = {m:>3}·λ0");
            prev = m;
        }
    }
    let model = PipelineModel::new(rsu::DesignKind::New, cfg);
    println!("\nreplica arithmetic:");
    println!(
        "  RET circuits (window {} cycles): {}",
        model.ret_circuit_replicas(),
        model.ret_circuit_replicas()
    );
    println!(
        "  RET network rows per circuit: {}",
        model.ret_network_rows()
    );
    println!(
        "  latency (49 labels): {} cycles",
        model.variable_latency_cycles(49)
    );
    let unit = RsuG::with_config(cfg);
    println!("  λ0 = {:.5} per time bin", unit.config().lambda0_per_bin());
    Ok(())
}

fn usage() -> String {
    "usage: rsu_sim <stereo|motion|segment|design> [--flag value]...\n\
     run with a subcommand; see the binary's doc header for the flags"
        .to_owned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stereo") => parse_flags(&args[1..]).and_then(cmd_stereo),
        Some("motion") => parse_flags(&args[1..]).and_then(cmd_motion),
        Some("segment") => parse_flags(&args[1..]).and_then(cmd_segment),
        Some("design") => parse_flags(&args[1..]).and_then(cmd_design),
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
