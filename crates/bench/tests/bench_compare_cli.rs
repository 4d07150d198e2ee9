//! End-to-end tests of the `bench_compare` regression gate binary:
//! exit codes, intersection semantics for grown/shrunk bench matrices,
//! tolerance handling, and indifference to the provenance fields the
//! benches now record (`rustc`, `rustflags`, `host_cores`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_json(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bench-compare-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn run_compare(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args(args)
        .output()
        .expect("can spawn bench_compare")
}

/// A minimal export in the shape the benches write: provenance at the
/// top level, `config` + metrics per entry.
fn doc(entries: &[&str]) -> String {
    format!(
        "{{\n  \"benchmark\": \"t\",\n  \"host_cores\": 4,\n  \
         \"rustc\": \"rustc 1.0.0 (test)\",\n  \"rustflags\": \"-C target-cpu=native\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
}

#[test]
fn identical_files_pass_and_provenance_is_tolerated() {
    let text = doc(&[
        "{\"config\": \"a/M16\", \"fused_ns_per_site\": 100.0, \"fast_ns_per_site\": 60.0, \
         \"speedup\": 1.5}",
    ]);
    let base = temp_json("same-base.json", &text);
    let new = temp_json("same-new.json", &text);
    let out = run_compare(&[base.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Both ns_per metrics compared; the unitless speedup is not a
    // lower-is-better metric and must be ignored.
    assert!(stdout.contains("compared 2 metrics"), "stdout: {stdout}");
    assert!(stdout.contains("0 regressed"), "stdout: {stdout}");
}

#[test]
fn grown_and_shrunk_matrices_warn_but_compare_the_intersection() {
    let base = temp_json(
        "grow-base.json",
        &doc(&[
            "{\"config\": \"shared\", \"ns_per_sweep\": 1000.0}",
            "{\"config\": \"retired\", \"ns_per_sweep\": 500.0}",
        ]),
    );
    let new = temp_json(
        "grow-new.json",
        &doc(&[
            "{\"config\": \"shared\", \"ns_per_sweep\": 1001.0}",
            "{\"config\": \"added/fast-active\", \"ns_per_sweep\": 100.0}",
        ]),
    );
    let out = run_compare(&[base.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success(), "config drift must warn, not fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("\"retired\" missing from"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("\"added/fast-active\" is new"),
        "stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compared 1 metrics"), "stdout: {stdout}");
}

#[test]
fn regression_beyond_tolerance_fails_and_tolerance_flag_widens_the_gate() {
    let base = temp_json(
        "reg-base.json",
        &doc(&["{\"config\": \"x\", \"ns_per_site\": 100.0}"]),
    );
    let new = temp_json(
        "reg-new.json",
        &doc(&["{\"config\": \"x\", \"ns_per_site\": 130.0}"]),
    );
    // +30% against the default 15% tolerance: regression.
    let out = run_compare(&[base.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "default tolerance must fail");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));
    // The same diff under --tolerance 50 passes.
    let out = run_compare(&[
        base.to_str().unwrap(),
        new.to_str().unwrap(),
        "--tolerance",
        "50",
    ]);
    assert!(out.status.success(), "wider tolerance must pass");
}

#[test]
fn improvements_never_fail() {
    let base = temp_json(
        "imp-base.json",
        &doc(&["{\"config\": \"x\", \"ns_per_site\": 100.0}"]),
    );
    let new = temp_json(
        "imp-new.json",
        &doc(&["{\"config\": \"x\", \"ns_per_site\": 40.0}"]),
    );
    let out = run_compare(&[base.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("improved"));
}

#[test]
fn malformed_inputs_exit_with_usage_code() {
    let good = temp_json(
        "ok.json",
        &doc(&["{\"config\": \"x\", \"ns_per_site\": 1.0}"]),
    );
    let bad = temp_json("bad.json", "{\"results\": \"not an array\"}");
    let out = run_compare(&[good.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let out = run_compare(&[good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "one path is a usage error");
    let out = run_compare(&[
        good.to_str().unwrap(),
        good.to_str().unwrap(),
        "--tolerance",
        "-3",
    ]);
    assert_eq!(out.status.code(), Some(2), "negative tolerance is rejected");
}
