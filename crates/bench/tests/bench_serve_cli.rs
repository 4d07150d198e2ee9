//! `bench_serve` rejects a malformed flag with a usage message and exit
//! code 2, before it starts any server, instead of panicking.

use std::process::Command;

#[test]
fn malformed_flags_exit_2_without_a_panic() {
    for args in [
        &["--workers", "zero"][..],
        &["--jobs"][..],
        &["--quantum=0"][..],
        &["--workers", "--jobs", "8"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_serve"))
            .args(args)
            .output()
            .expect("can spawn bench_serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
