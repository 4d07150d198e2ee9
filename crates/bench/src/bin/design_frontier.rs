//! §IV-B6 design-point synthesis: "Finding the optimal design point
//! requires synthesizing results of all points on the line." Enumerates
//! the (`Time_bits`, `Truncation`) grid, costs each point with the
//! replica-aware component model and scores it with the *exact*
//! sampling-fidelity error (`rsu::analysis`), then prints the Pareto
//! frontier of (sampling area, worst λ-ratio error).

use bench::{table, write_csv};
use chain::minijson::Value;
use chain::trace_jsonl::JsonlTraceWriter;
use rsu::DegradePolicy;
use std::path::{Path, PathBuf};
use uarch::degrade::{degraded_design_points, DegradedDesignPoint, DegradedStudySpec};
use uarch::explore::{enumerate_parallel, evaluate, pareto_frontier, DesignPoint};
use uarch::AreaPower;

const TIME_BITS: [u32; 5] = [3, 4, 5, 6, 7];
const TRUNCS: [f64; 6] = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9];

// Degraded-frontier study shape: a 12-unit array (Table II's R) running
// the fig. 9d-class 320×320 5-label segmentation for 100 sweeps, with
// seed-reproducible fault plans.
const DEGRADE_UNITS: usize = 12;
const DEGRADE_SHAPE: (usize, usize, u32) = (320, 320, 5);
const DEGRADE_SWEEPS: u64 = 100;
const DEGRADE_FAILED_UNITS: [usize; 2] = [1, 3];
const DEGRADE_SEED: u64 = 2018;

fn main() {
    let threads = bench::threads_from_args();
    let trace_path = bench::trace_path_from_args();
    let every = bench::checkpoint::checkpoint_every_from_args();
    let resume = bench::checkpoint::resume_path_from_args();
    println!("§IV-B6 — synthesis of all (Time_bits, Truncation) design points\n");
    if threads > 1 {
        println!("synthesising on {threads} threads (order-preserving, identical output)\n");
    }
    let points = enumerate_with_progress(threads, every, resume.as_deref());
    let frontier = pareto_frontier(&points);
    let chosen = evaluate(5, 0.5);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for p in &frontier {
        let star = if p.time_bits == 5 && (p.truncation - 0.5).abs() < 1e-9 {
            " *"
        } else {
            ""
        };
        rows.push(vec![
            format!("({}, {}){star}", p.time_bits, p.truncation),
            format!("{:.0}", p.sampling_cost.area_um2),
            format!("{:.4}", p.sampling_cost.power_mw),
            format!("{:.4}", p.worst_ratio_error),
        ]);
        csv.push(format!(
            "{},{},{:.1},{:.5},{:.6}",
            p.time_bits,
            p.truncation,
            p.sampling_cost.area_um2,
            p.sampling_cost.power_mw,
            p.worst_ratio_error
        ));
    }
    println!(
        "{}",
        table::render(
            &[
                "point (bits, trunc)",
                "sampling µm²",
                "mW",
                "worst ratio RE"
            ],
            &rows
        )
    );
    println!(
        "paper's chosen point (5, 0.5): {:.0} µm², exact worst error {:.4}",
        chosen.sampling_cost.area_um2, chosen.worst_ratio_error
    );
    println!(
        "finding: full synthesis shows the iso-quality line the paper describes; the\n\
         chosen point sits in the frontier's knee region, with (5, 0.3) a marginally\n\
         cheaper neighbour (6 vs 8 replica rows) at comparable fidelity — exactly the\n\
         'deeper analysis of distribution truncation vs. timing precision' the paper\n\
         lists as future work (§IV-D)"
    );
    write_csv(
        "design_frontier",
        "time_bits,truncation,area_um2,power_mw,worst_ratio_error",
        &csv,
    );

    let degraded = degraded_frontier(&frontier);

    if let Some(path) = trace_path {
        write_trace(&path, &points, &frontier, &degraded);
    }
}

/// Prices every frontier point degraded (fault count × policy grid) and
/// emits the degraded design points alongside the healthy frontier.
fn degraded_frontier(frontier: &[DesignPoint]) -> Vec<DegradedDesignPoint> {
    let (width, height, labels) = DEGRADE_SHAPE;
    let degraded = degraded_design_points(
        frontier,
        &DegradedStudySpec {
            units: DEGRADE_UNITS,
            width,
            height,
            labels,
            sweeps: DEGRADE_SWEEPS,
            failed_units: &DEGRADE_FAILED_UNITS,
            policies: &[
                DegradePolicy::RemapToHealthy,
                DegradePolicy::SoftwareFallback,
            ],
            seed: DEGRADE_SEED,
        },
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for d in &degraded {
        rows.push(vec![
            format!("({}, {})", d.point.time_bits, d.point.truncation),
            format!("{}", d.failed_units),
            policy_name(d.policy).to_string(),
            format!("{:.3}", d.slowdown),
            format!("{:.3}", d.energy_ratio),
            format!("{:.3}", d.software_fraction),
        ]);
        csv.push(format!(
            "{},{},{},{},{:.6},{:.6},{:.6}",
            d.point.time_bits,
            d.point.truncation,
            d.failed_units,
            policy_name(d.policy),
            d.slowdown,
            d.energy_ratio,
            d.software_fraction
        ));
    }
    println!(
        "\ndegraded frontier points ({DEGRADE_UNITS}-unit array, {}x{} @ {} labels, \
         {DEGRADE_SWEEPS} sweeps, fault seed {DEGRADE_SEED}):\n",
        DEGRADE_SHAPE.0, DEGRADE_SHAPE.1, DEGRADE_SHAPE.2
    );
    println!(
        "{}",
        table::render(
            &[
                "point (bits, trunc)",
                "failed",
                "policy",
                "slowdown",
                "energy ratio",
                "sw fraction"
            ],
            &rows
        )
    );
    write_csv(
        "design_frontier_degraded",
        "time_bits,truncation,failed_units,policy,slowdown,energy_ratio,software_fraction",
        &csv,
    );
    degraded
}

fn policy_name(policy: DegradePolicy) -> &'static str {
    match policy {
        DegradePolicy::RemapToHealthy => "remap",
        DegradePolicy::SoftwareFallback => "software",
    }
}

/// Header line of the enumeration progress file.
const PROGRESS_MAGIC: &str = "design-frontier-progress v1";

/// The full sweep in enumeration order (row-major over
/// `TIME_BITS × TRUNCS`), the order `enumerate`/`enumerate_parallel`
/// produce and the progress file indexes into.
fn sweep_grid() -> Vec<(u32, f64)> {
    TIME_BITS
        .iter()
        .flat_map(|&tb| TRUNCS.iter().map(move |&tr| (tb, tr)))
        .collect()
}

/// Enumerates the design grid with checkpoint/resume support. This
/// driver has no MCMC chain, so its checkpoint is enumeration progress:
/// the completed [`DesignPoint`]s, every `f64` stored as hex bits so a
/// resumed sweep reproduces the uninterrupted output bit-exactly.
/// Without either flag this defers to the parallel fast path.
fn enumerate_with_progress(
    threads: usize,
    every: Option<usize>,
    resume: Option<&Path>,
) -> Vec<DesignPoint> {
    if every.is_none() && resume.is_none() {
        return enumerate_parallel(&TIME_BITS, &TRUNCS, threads);
    }
    let grid = sweep_grid();
    let mut done: Vec<DesignPoint> = match resume {
        Some(path) => match load_progress(path, &grid) {
            Ok(points) => {
                println!(
                    "resuming enumeration: {} of {} points already evaluated\n",
                    points.len(),
                    grid.len()
                );
                points
            }
            Err(e) => {
                eprintln!("error: cannot resume from {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        None => Vec::new(),
    };
    let path = progress_path();
    for (i, &(tb, tr)) in grid.iter().enumerate().skip(done.len()) {
        done.push(evaluate(tb, tr));
        if let Some(every) = every {
            if (i + 1) % every == 0 || i + 1 == grid.len() {
                if let Err(e) = save_progress(&path, &done) {
                    eprintln!(
                        "warning: failed to write checkpoint {}: {e}",
                        path.display()
                    );
                }
            }
        }
    }
    done
}

fn progress_path() -> PathBuf {
    bench::artifacts_dir().join("design_frontier.ckpt")
}

/// Writes the progress file atomically (temp file + rename), mirroring
/// `mrf::Checkpoint::save`.
fn save_progress(path: &Path, done: &[DesignPoint]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(text, "{PROGRESS_MAGIC}");
    let _ = writeln!(text, "done {}", done.len());
    for p in done {
        let _ = writeln!(
            text,
            "point {} {:016x} {:016x} {:016x} {:016x}",
            p.time_bits,
            p.truncation.to_bits(),
            p.sampling_cost.area_um2.to_bits(),
            p.sampling_cost.power_mw.to_bits(),
            p.worst_ratio_error.to_bits()
        );
    }
    text.push_str("end\n");
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Loads a progress file and validates it against the current sweep
/// grid: the completed points must be a prefix of the enumeration
/// order, so a file from a different grid (or a different driver) is
/// rejected instead of silently corrupting the output.
fn load_progress(path: &Path, grid: &[(u32, f64)]) -> Result<Vec<DesignPoint>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut lines = text.lines();
    if lines.next() != Some(PROGRESS_MAGIC) {
        return Err(format!("not a `{PROGRESS_MAGIC}` file"));
    }
    let count: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("done "))
        .and_then(|n| n.parse().ok())
        .ok_or("expected `done <count>`")?;
    if count > grid.len() {
        return Err(format!(
            "{count} completed points for a {}-point sweep",
            grid.len()
        ));
    }
    let mut done = Vec::with_capacity(count);
    for (i, &(want_tb, want_tr)) in grid.iter().enumerate().take(count) {
        let line = lines.next().ok_or("truncated progress file")?;
        let words: Vec<&str> = line
            .strip_prefix("point ")
            .ok_or("expected `point ...`")?
            .split_whitespace()
            .collect();
        if words.len() != 5 {
            return Err(format!("expected 5 values per point, got {}", words.len()));
        }
        let time_bits: u32 = words[0].parse().map_err(|_| "bad time_bits".to_string())?;
        let mut f64s = words[1..].iter().map(|w| {
            u64::from_str_radix(w, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad hex value {w:?}"))
        });
        let truncation = f64s.next().unwrap()?;
        let area_um2 = f64s.next().unwrap()?;
        let power_mw = f64s.next().unwrap()?;
        let worst_ratio_error = f64s.next().unwrap()?;
        if time_bits != want_tb || truncation.to_bits() != want_tr.to_bits() {
            return Err(format!(
                "point {i} is ({time_bits}, {truncation}), sweep expects ({want_tb}, {want_tr})"
            ));
        }
        done.push(DesignPoint {
            time_bits,
            truncation,
            sampling_cost: AreaPower { area_um2, power_mw },
            worst_ratio_error,
        });
    }
    if lines.next() != Some("end") {
        return Err("missing `end` terminator".to_string());
    }
    Ok(done)
}

/// `--trace` mode: one `"design_point"` record per enumerated
/// configuration (flagged when it sits on the Pareto frontier), one
/// degraded record per (frontier point × fault count × policy), plus
/// the cycle-accurate pipeline counters of both designs for the chosen
/// (5, 0.5) point at the paper's 64-label capacity.
fn write_trace(
    path: &std::path::Path,
    points: &[DesignPoint],
    frontier: &[DesignPoint],
    degraded: &[DegradedDesignPoint],
) {
    let file = std::fs::File::create(path).expect("can create trace file");
    let mut writer = JsonlTraceWriter::new(std::io::BufWriter::new(file));
    for p in points {
        let on_frontier = frontier
            .iter()
            .any(|f| f.time_bits == p.time_bits && f.truncation == p.truncation);
        writer.write_design_point(vec![
            ("time_bits", Value::Number(p.time_bits as f64)),
            ("truncation", Value::Number(p.truncation)),
            ("area_um2", Value::Number(p.sampling_cost.area_um2)),
            ("power_mw", Value::Number(p.sampling_cost.power_mw)),
            ("worst_ratio_error", Value::Number(p.worst_ratio_error)),
            ("on_frontier", Value::Bool(on_frontier)),
        ]);
    }
    for d in degraded {
        writer.write_design_point(vec![
            ("degraded", Value::Bool(true)),
            ("time_bits", Value::Number(d.point.time_bits as f64)),
            ("truncation", Value::Number(d.point.truncation)),
            ("failed_units", Value::Number(d.failed_units as f64)),
            ("policy", Value::String(policy_name(d.policy).to_string())),
            ("fault_seed", Value::Number(d.fault_seed as f64)),
            ("slowdown", Value::Number(d.slowdown)),
            ("energy_ratio", Value::Number(d.energy_ratio)),
            ("software_fraction", Value::Number(d.software_fraction)),
        ]);
    }
    let labels = 64u32;
    for (design, kind, config) in [
        ("new", rsu::DesignKind::New, rsu::RsuConfig::new_design()),
        (
            "previous",
            rsu::DesignKind::Previous,
            rsu::RsuConfig::previous_design(),
        ),
    ] {
        let sim = rsu::CycleAccuratePipeline::new(kind, config, labels);
        let report = sim.run(1_000, 10);
        writer.write_rsu_pipeline(design, labels, &report);
    }
    writer.flush();
    if let Some(e) = writer.take_error() {
        eprintln!("error: failed writing trace to {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote trace {}", path.display());
}
