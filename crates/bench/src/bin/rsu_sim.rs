//! `rsu_sim` — command-line driver for the RSU-G simulator.
//!
//! ```text
//! rsu_sim stereo  [--labels N] [--width W] [--height H] [--sampler KIND]
//!                 [--iterations I] [--seed S] [--out FILE.pgm]
//! rsu_sim motion  [--patches P] [--sampler KIND] [--iterations I] [--seed S]
//! rsu_sim segment [--regions R] [--segments K] [--sampler KIND] [--seed S]
//!                 [--out FILE.pgm]
//! rsu_sim design  [--lambda-bits L] [--time-bits T] [--truncation X]
//!                 [--temperature T]
//! ```
//!
//! `KIND` is one of `software`, `new`, `prev`. `design` prints the λ
//! conversion table of the requested point plus its replica and cost
//! figures. Every flag takes a value, as `--name value` or
//! `--name=value`. An unknown flag, a missing value or a value that
//! does not parse exits with code 2 and a usage line.

use chain::app::{annealing_schedule, segmentation_schedule};
use chain::{Chain, Engine, SamplerKind};
use mrf::{LabelField, MrfModel, NoopObserver, Schedule};
use rsu::{EnergyToLambda, LutConverter, PipelineModel, RsuConfig, RsuG};
use scenes::{FlowSpec, SegmentationSpec, StereoSpec};
use std::process::ExitCode;
use vision::image::labels_to_image;
use vision::metrics::{bad_pixel_percentage, endpoint_error, variation_of_information};
use vision::{MotionModel, SegmentModel, StereoModel};

/// A subcommand: its name, the flags it accepts and what it runs.
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Flags) -> Result<(), String>,
);

const COMMANDS: [Command; 4] = [
    (
        "stereo",
        &[
            "--labels",
            "--width",
            "--height",
            "--sampler",
            "--iterations",
            "--seed",
            "--out",
        ],
        cmd_stereo,
    ),
    (
        "motion",
        &["--patches", "--sampler", "--iterations", "--seed"],
        cmd_motion,
    ),
    (
        "segment",
        &["--regions", "--segments", "--sampler", "--seed", "--out"],
        cmd_segment,
    ),
    (
        "design",
        &[
            "--lambda-bits",
            "--time-bits",
            "--truncation",
            "--temperature",
        ],
        cmd_design,
    ),
];

/// The usage line of one subcommand.
fn usage(command: &str, flags: &[&str]) -> String {
    let flags: Vec<String> = flags.iter().map(|f| format!("[{f} <value>]")).collect();
    format!("rsu_sim {command} {}", flags.join(" "))
}

/// Rejects any argument that is not one of `known` flags. A flag's
/// value is skipped unless it is another flag, whose missing value
/// [`bench::flag_value`] then reports.
fn check_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let name = arg.split_once('=').map_or(arg.as_str(), |(name, _)| name);
        if !known.contains(&name) {
            return Err(format!("unknown flag '{arg}'"));
        }
        if !arg.contains('=') && rest.peek().is_some_and(|next| !next.starts_with("--")) {
            rest.next();
        }
    }
    Ok(())
}

/// The command line of one subcommand: its arguments and usage line.
struct Flags<'a> {
    args: &'a [String],
    usage: String,
}

impl Flags<'_> {
    /// The value of `name`, or `None` when absent; exits with code 2
    /// on a missing value.
    fn text(&self, name: &str) -> Option<&str> {
        bench::or_usage_exit(bench::flag_value(self.args, name), &self.usage)
    }

    /// The parsed value of `name`, or `default` when absent; exits with
    /// code 2 when the value does not parse.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let parsed = match self.text(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse '{v}'")),
        };
        bench::or_usage_exit(parsed, &self.usage)
    }

    fn sampler(&self) -> SamplerKind {
        let kind = match self.text("--sampler").unwrap_or("new") {
            "software" => Ok(SamplerKind::software()),
            "new" => Ok(SamplerKind::new_rsu()),
            "prev" => Ok(SamplerKind::previous_rsu()),
            other => Err(format!(
                "unknown sampler '{other}' (want software|new|prev)"
            )),
        };
        bench::or_usage_exit(kind, &self.usage)
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

fn cmd_stereo(flags: &Flags) -> Result<(), String> {
    let labels: usize = flags.get("--labels", 24);
    let width: usize = flags.get("--width", 96);
    let height: usize = flags.get("--height", 72);
    let iterations: usize = flags.get("--iterations", 200);
    let seed: u64 = flags.get("--seed", 7);
    let kind = flags.sampler();
    let out = flags.text("--out");
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
    if let Some(path) = out {
        labels_to_image(&field)
            .save_pgm(path)
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_motion(flags: &Flags) -> Result<(), String> {
    let patches: usize = flags.get("--patches", 4);
    let iterations: usize = flags.get("--iterations", 150);
    let seed: u64 = flags.get("--seed", 7);
    let kind = flags.sampler();
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

fn cmd_segment(flags: &Flags) -> Result<(), String> {
    let regions: usize = flags.get("--regions", 4);
    let segments: usize = flags.get("--segments", 4);
    let seed: u64 = flags.get("--seed", 7);
    let kind = flags.sampler();
    let out = flags.text("--out");
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
    if let Some(path) = out {
        labels_to_image(&field)
            .save_pgm(path)
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_design(flags: &Flags) -> Result<(), String> {
    let lambda_bits: u32 = flags.get("--lambda-bits", 4);
    let time_bits: u32 = flags.get("--time-bits", 5);
    let truncation: f64 = flags.get("--truncation", 0.5);
    let temperature: f64 = flags.get("--temperature", 8.0);
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    let found = COMMANDS.iter().find(|(name, ..)| *name == command);
    let &(command, known, run) = bench::or_usage_exit(
        found.ok_or_else(|| format!("want a subcommand, got {command:?}")),
        "rsu_sim <stereo|motion|segment|design> [--flag value]...",
    );
    let flags = Flags {
        args: rest,
        usage: usage(command, known),
    };
    bench::or_usage_exit(check_flags(rest, known), &flags.usage);
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
