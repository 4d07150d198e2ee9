//! Regression gate over two `BENCH_*.json` exports.
//!
//! ```text
//! bench_compare <base.json> <new.json> [--tolerance <pct>]
//! ```
//!
//! `--threshold <pct>` is accepted as an alias of `--tolerance`.
//!
//! An export holds a `"results"` array of entries keyed on their
//! `"config"` string; every numeric field whose name contains `ns_per`
//! (lower is better) is compared.
//!
//! The process exits non-zero when any metric regresses by more than
//! the tolerance (default 15%), so CI can diff a fresh bench run
//! against the committed baseline. Configs present on only one side
//! produce a warning, not a failure — bench matrices are allowed to
//! grow, and schema drift degrades to comparing the intersection.

use chain::minijson::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

const DEFAULT_TOLERANCE_PCT: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE_PCT;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--tolerance" | "--threshold") => {
                i += 1;
                tolerance = match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(t) if t >= 0.0 && t.is_finite() => t,
                    _ => {
                        eprintln!("bench_compare: {flag} needs a non-negative number");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_compare <base.json> <new.json> [--tolerance <pct>]\n\
                     (--threshold is an accepted alias of --tolerance)"
                );
                return ExitCode::SUCCESS;
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_compare <base.json> <new.json> [--tolerance <pct>]");
        return ExitCode::from(2);
    }

    let base = match load_results(&paths[0]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_compare: {}: {e}", paths[0]);
            return ExitCode::from(2);
        }
    };
    let new = match load_results(&paths[1]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_compare: {}: {e}", paths[1]);
            return ExitCode::from(2);
        }
    };

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (config, base_metrics) in &base {
        let Some(new_metrics) = new.get(config) else {
            eprintln!("warning: config {config:?} missing from {}", paths[1]);
            continue;
        };
        for (metric, &base_value) in base_metrics {
            let Some(&new_value) = new_metrics.get(metric) else {
                eprintln!("warning: {config:?} lost metric {metric:?}");
                continue;
            };
            if base_value <= 0.0 {
                continue;
            }
            compared += 1;
            let change_pct = (new_value - base_value) / base_value * 100.0;
            let status = if change_pct > tolerance {
                regressions += 1;
                "REGRESSION"
            } else if change_pct < -tolerance {
                "improved"
            } else {
                "ok"
            };
            println!(
                "{status:>10}  {config}/{metric}: {base_value:.2} -> {new_value:.2} \
                 ({change_pct:+.1}%)"
            );
        }
    }
    for config in new.keys() {
        if !base.contains_key(config) {
            eprintln!("warning: config {config:?} is new (not in {})", paths[0]);
        }
    }

    if compared == 0 {
        eprintln!("bench_compare: no comparable metrics found");
        return ExitCode::from(2);
    }
    println!(
        "compared {compared} metrics across {} configs; {regressions} regressed beyond \
         {tolerance}%",
        base.len()
    );
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Loads `path` and flattens it to `config → (metric → value)` for
/// every gated metric: `"results"` entries keyed by `"config"` with
/// `ns_per` fields.
fn load_results(path: &str) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = minijson::parse(&text).map_err(|e| e.to_string())?;
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or("document has no \"results\" array")?;
    let mut out = BTreeMap::new();
    for entry in results {
        let object = entry.as_object().ok_or("result entry is not an object")?;
        let config = object
            .get("config")
            .and_then(Value::as_str)
            .ok_or("result entry has no \"config\" string")?;
        let mut metrics = BTreeMap::new();
        for (key, value) in object {
            if let (true, Some(v)) = (key.contains("ns_per"), value.as_f64()) {
                metrics.insert(key.clone(), v);
            }
        }
        out.insert(config.to_string(), metrics);
    }
    Ok(out)
}
