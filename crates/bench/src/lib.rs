//! Experiment harness: shared machinery for the per-figure/per-table
//! binaries that regenerate the paper's evaluation.
//!
//! Each binary in `src/bin/` reproduces one table or figure (see
//! `DESIGN.md` for the index) and prints the same rows/series the paper
//! reports, plus CSV/PGM artifacts under `artifacts/`.
//!
//! Chains run through the `chain` crate (one [`chain::Chain`] per run,
//! its engine picked from the driver flags). This crate adds what only
//! the drivers need:
//!
//! * the flag parsers (`--threads`, `--numeric`, `--active`, `--trace`)
//!   and [`checkpoint::CheckpointCtl`] (`--checkpoint-every`,
//!   `--resume`);
//! * the named dataset suites;
//! * [`table`] — plain-text table formatting;
//! * [`artifacts_dir`]/[`write_csv`] — artifact output.

use chain::app::STEREO_ITERATIONS;
use chain::{App, Chain, Engine, SamplerKind};
use mrf::{LabelField, NoopObserver, NumericPolicy};
use scenes::{FlowDataset, StereoDataset};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Scans `args` for `--name <value>` or `--name=<value>` and returns
/// the value of the first occurrence (`None` when the flag is absent).
/// A missing value — the end of the arguments, or another flag in its
/// place (`--threads --trace out.jsonl`) — is an error.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let prefix = format!("{name}=");
    for (i, arg) in args.iter().enumerate() {
        if *arg == name {
            return match args.get(i + 1) {
                None => Err(format!("{name} requires a value")),
                Some(next) if next.starts_with("--") => {
                    Err(format!("{name} requires a value, found flag '{next}'"))
                }
                Some(next) => Ok(Some(next)),
            };
        }
        if let Some(value) = arg.strip_prefix(&prefix) {
            return Ok(Some(value));
        }
    }
    Ok(None)
}

/// The value of `--name <N>` / `--name=<N>` as a positive integer,
/// `None` when the flag is absent.
pub fn positive_flag(args: &[String], name: &str) -> Result<Option<usize>, String> {
    flag_value(args, name)?
        .map(|value| {
            value
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{name} requires a positive integer, got '{value}'"))
        })
        .transpose()
}

/// The value of `--name <path>` / `--name=<path>` as a non-empty path.
pub(crate) fn path_flag(args: &[String], name: &str) -> Result<Option<PathBuf>, String> {
    match flag_value(args, name)? {
        Some("") => Err(format!("{name} requires a non-empty path")),
        value => Ok(value.map(PathBuf::from)),
    }
}

/// Unwraps a parsed command-line value, or prints the error and the
/// `usage` line to stderr and exits with code 2: a bad flag never
/// panics.
pub fn or_usage_exit<T>(parsed: Result<T, String>, usage: &str) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        eprintln!("usage: {usage}");
        std::process::exit(2);
    })
}

/// The process arguments after the program name.
pub(crate) fn process_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Parses `--threads N` (or `--threads=N`) from the process arguments
/// (default 1), exiting with code 2 on a malformed value.
pub fn threads_from_args() -> usize {
    or_usage_exit(
        parse_threads(&process_args()),
        "--threads <N>   worker threads, a positive integer (default 1)",
    )
}

/// The testable core of [`threads_from_args`].
pub fn parse_threads(args: &[String]) -> Result<usize, String> {
    Ok(positive_flag(args, "--threads")?.unwrap_or(1))
}

/// Parses `--trace <path>` (or `--trace=<path>`) from the process
/// arguments: the JSONL trace destination, `None` when absent. Exits
/// with code 2 on a missing value.
pub fn trace_path_from_args() -> Option<PathBuf> {
    or_usage_exit(
        parse_trace_path(&process_args()),
        "--trace <path>   write per-sweep JSONL trace records to <path>",
    )
}

/// The testable core of [`trace_path_from_args`].
pub fn parse_trace_path(args: &[String]) -> Result<Option<PathBuf>, String> {
    path_flag(args, "--trace")
}

/// Parses `--numeric exact|fast` (or `--numeric=fast`) from the process
/// arguments: the solver's [`NumericPolicy`], defaulting to the
/// bit-exact f64 path. Exits with code 2 on a malformed value.
pub fn numeric_from_args() -> NumericPolicy {
    or_usage_exit(
        parse_numeric(&process_args()),
        "--numeric exact|fast   numeric policy (default exact)",
    )
}

/// The testable core of [`numeric_from_args`].
pub fn parse_numeric(args: &[String]) -> Result<NumericPolicy, String> {
    match flag_value(args, "--numeric")? {
        None => Ok(NumericPolicy::Exact),
        Some(value) => value
            .parse()
            .map_err(|_| format!("--numeric must be 'exact' or 'fast', got '{value}'")),
    }
}

/// Whether `--active` appears in the process arguments: enables
/// active-site sweep scheduling in the drivers that support it. A bare
/// presence flag — it takes no value.
pub fn active_from_args() -> bool {
    std::env::args().skip(1).any(|arg| arg == "--active")
}

/// The default-flag stereo chain of the figure drivers: the raster
/// engine on `sampler`, [`STEREO_ITERATIONS`] sweeps from seed 11.
/// Returns the final field and its bad-pixel percentage.
pub fn solve_stereo(ds: &StereoDataset, sampler: SamplerKind) -> (LabelField, f64) {
    let app = App::stereo(ds).expect("generated datasets are consistent");
    let mut chain = Chain::new(&app, app.schedule(), 11);
    chain.step(
        &app,
        &mut Engine::Raster(sampler),
        STEREO_ITERATIONS,
        None,
        &mut NoopObserver,
    );
    let (_, bp) = app.score(chain.field());
    (chain.into_field(), bp)
}

/// The three named stereo datasets of the evaluation, with their seeds.
pub fn stereo_suite() -> Vec<(&'static str, StereoDataset)> {
    vec![
        ("teddy", scenes::stereo_teddy_like(1001)),
        ("poster", scenes::stereo_poster_like(1002)),
        ("art", scenes::stereo_art_like(1003)),
    ]
}

/// The three named flow datasets of the evaluation.
pub fn flow_suite() -> Vec<(&'static str, FlowDataset)> {
    vec![
        ("Venus", scenes::flow_venus_like(2001)),
        ("RubberWhale", scenes::flow_rubberwhale_like(2002)),
        ("Dimetrodon", scenes::flow_dimetrodon_like(2003)),
    ]
}

/// Directory for experiment artifacts (`artifacts/` at the workspace
/// root), created on first use.
pub fn artifacts_dir() -> PathBuf {
    let dir = workspace_root().join("artifacts");
    std::fs::create_dir_all(&dir).expect("can create artifacts directory");
    dir
}

/// The workspace root, where the `BENCH_*.json` exports live.
pub fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bench.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

/// The `rustc --version` line of the toolchain this process was built
/// by (strictly: the one on `PATH` at run time, which under `cargo
/// bench` is the same), or `"unknown"` when rustc cannot be queried.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler flags in effect for this process: `RUSTFLAGS` when set
/// (the knob that carries `-C target-cpu=...`), else cargo's encoded
/// form `CARGO_ENCODED_RUSTFLAGS` (0x1f-separated) joined with spaces,
/// else empty — meaning the default codegen options.
pub fn rustflags() -> String {
    if let Ok(flags) = std::env::var("RUSTFLAGS") {
        return flags.trim().to_string();
    }
    std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .map(|flags| flags.split('\u{1f}').collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

/// Host/toolchain provenance for the `BENCH_*.json` exports, as a
/// ready-to-embed JSON object fragment:
/// `"host_cores": N, "rustc": "...", "rustflags": "..."`. Throughput
/// numbers are only comparable across runs with matching provenance, so
/// the benches record it next to their results; `bench_compare` ignores
/// these fields (it only reads `ns_per*` metrics).
pub fn provenance_json_fields() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "\"host_cores\": {cores}, \"rustc\": {}, \"rustflags\": {}",
        chain::minijson::Value::String(rustc_version()),
        chain::minijson::Value::String(rustflags()),
    )
}

/// Writes rows of comma-separated values (header first) under
/// `artifacts/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = artifacts_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("can create csv");
    writeln!(f, "{header}").expect("csv write");
    for row in rows {
        writeln!(f, "{row}").expect("csv write");
    }
    println!("wrote {}", path.display());
}

pub mod checkpoint;

/// Plain-text table formatting helpers.
pub mod table {
    /// Renders an aligned table: `header` then `rows`, each a vector of
    /// cells; the first column is left-aligned, the rest right-aligned.
    pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("  {:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        out.push_str(&fmt_row(&header_cells, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_aligns_columns() {
        let s = table::render(
            &["name", "bp"],
            &[
                vec!["teddy".into(), "27.0".into()],
                vec!["a".into(), "113.25".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("27.0"));
    }

    #[test]
    fn stereo_suite_is_deterministic() {
        let a = stereo_suite();
        let b = stereo_suite();
        assert_eq!(a[0].1.left, b[0].1.left);
        assert_eq!(a.len(), 3);
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_threads_accepts_both_flag_forms_and_defaults_to_one() {
        assert_eq!(parse_threads(&strs(&[])), Ok(1));
        assert_eq!(parse_threads(&strs(&["--threads", "4"])), Ok(4));
        assert_eq!(parse_threads(&strs(&["--threads=8"])), Ok(8));
        assert_eq!(
            parse_threads(&strs(&["--other", "x", "--threads", "2", "tail"])),
            Ok(2)
        );
    }

    #[test]
    fn parse_threads_rejects_malformed_values() {
        for bad in [
            vec!["--threads"],
            vec!["--threads", "--trace"],
            vec!["--threads", "zero"],
            vec!["--threads", "0"],
            vec!["--threads=-3"],
            vec!["--threads="],
        ] {
            assert!(parse_threads(&strs(&bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_numeric_accepts_both_policies_and_defaults_to_exact() {
        assert_eq!(parse_numeric(&strs(&[])), Ok(NumericPolicy::Exact));
        assert_eq!(
            parse_numeric(&strs(&["--numeric", "exact"])),
            Ok(NumericPolicy::Exact)
        );
        assert_eq!(
            parse_numeric(&strs(&["--numeric", "fast"])),
            Ok(NumericPolicy::Fast)
        );
        assert_eq!(
            parse_numeric(&strs(&["--threads", "2", "--numeric=fast"])),
            Ok(NumericPolicy::Fast)
        );
    }

    #[test]
    fn parse_numeric_rejects_malformed_values() {
        for bad in [
            vec!["--numeric"],
            vec!["--numeric", "--active"],
            vec!["--numeric", "f32"],
            vec!["--numeric="],
            vec!["--numeric", "Fast"],
        ] {
            assert!(parse_numeric(&strs(&bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn provenance_fields_embed_as_valid_json() {
        let doc = format!("{{{}}}", provenance_json_fields());
        let parsed = chain::minijson::parse(&doc).expect("provenance fragment must be valid JSON");
        assert!(parsed.get("host_cores").and_then(|v| v.as_f64()).unwrap() >= 1.0);
        let rustc = parsed.get("rustc").and_then(|v| v.as_str()).unwrap();
        assert!(!rustc.is_empty());
        assert!(parsed.get("rustflags").and_then(|v| v.as_str()).is_some());
    }

    #[test]
    fn parse_trace_path_handles_presence_absence_and_errors() {
        assert_eq!(parse_trace_path(&strs(&[])), Ok(None));
        assert_eq!(
            parse_trace_path(&strs(&["--trace", "out.jsonl"])),
            Ok(Some(PathBuf::from("out.jsonl")))
        );
        assert_eq!(
            parse_trace_path(&strs(&["--trace=a/b.jsonl"])),
            Ok(Some(PathBuf::from("a/b.jsonl")))
        );
        assert!(parse_trace_path(&strs(&["--trace"])).is_err());
        assert!(parse_trace_path(&strs(&["--trace", "--threads"])).is_err());
        assert!(parse_trace_path(&strs(&["--trace="])).is_err());
    }
}
