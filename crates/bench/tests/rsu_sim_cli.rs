//! `rsu_sim` rejects a malformed command line with a usage message and
//! exit code 2, before it builds any model, instead of panicking or
//! silently running with defaults.

use std::process::Command;

#[test]
fn malformed_flags_exit_2_without_a_panic() {
    for args in [
        // A misspelled flag is not ignored.
        &["stereo", "--widht", "8", "--iterations", "2"][..],
        // A missing value, at the end or before another flag.
        &["stereo", "--iterations"][..],
        &["design", "--lambda-bits", "--time-bits", "5"][..],
        // A value that does not parse.
        &["segment", "--seed", "seven"][..],
        &["motion", "--patches=-1"][..],
        // A flag another subcommand accepts.
        &["motion", "--out", "field.pgm"][..],
        // A misspelled or missing subcommand.
        &["stero", "--width", "8"][..],
        &[][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rsu_sim"))
            .args(args)
            .output()
            .expect("can spawn rsu_sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {stderr}");
    }
}
