#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Run from the workspace root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

# The job server must not depend on the figure-driver crate (nor,
# through it, on the analytical cost models): dependencies point from
# the drivers to the server, never back.
echo "==> dependency direction (retrsu-serve lists neither bench nor uarch)"
serve_deps=$(cargo tree -p retrsu-serve -e normal --offline --prefix none)
if grep -Eq '^(bench|uarch) ' <<<"$serve_deps"; then
    echo "retrsu-serve depends on:" >&2
    grep -E '^(bench|uarch) ' <<<"$serve_deps" | sort -u >&2
    exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

# The repository benchmark (perfbench/, a workspace of its own) builds
# against retrsu-serve by path: an API change it depends on must fail
# here, not only when the benchmark runs. Cargo rewrites
# perfbench/Cargo.lock whenever the crates' dependency graph moves, so
# the committed lock is restored afterwards, on failure too.
echo "==> cargo check perfbench (the repository benchmark still compiles)"
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock; rm -f "$perfbench_lock"' EXIT
cargo check --offline --manifest-path perfbench/Cargo.toml
cp "$perfbench_lock" perfbench/Cargo.lock

# --workspace matters: the root is a facade package, so a bare
# `cargo build`/`cargo test` would only cover it, leaving the member
# crates' binaries and test suites out of the gate.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

# Examples are not covered by --workspace builds or `cargo test`; keep
# them compiling.
echo "==> cargo build --workspace --examples"
cargo build --workspace --examples

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> trace write/read round trip (emit JSONL, re-parse with chain::minijson)"
cargo run --release -q -p bench --bin trace_roundtrip

echo "==> checkpoint write/resume round trip (kill mid-run, reload, bit-identical resume)"
cargo run --release -q -p bench --bin checkpoint_roundtrip

echo "==> numeric fast-path smoke (f32 + active-set vs f64 oracle within DESIGN §12 tolerance)"
cargo run --release -q -p bench --bin numeric_smoke

echo "==> fig_fault_sweep smoke (tiny degraded grid, trace re-parse self-check)"
cargo run --release -q -p bench --bin fig_fault_sweep -- --smoke --trace artifacts/fig_fault_sweep_smoke.jsonl

echo "==> serve smoke (forced preemption, lifecycle trace re-parse, deterministic rerun, cache-hit digest equality, NaN-safe percentile, forced-shed admission gate)"
cargo run --release -q -p retrsu-serve --bin serve_smoke

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> CI green"
