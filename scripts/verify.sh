#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting.
# Run from the repository root (or any subdirectory; cargo finds the root).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> perfbench self-tests (separate workspace; the main caller of the campaign runners)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> hlisa-lint (workspace determinism + detectability gate + draw ledger)"
cargo run -q -p hlisa-lint --release -- --ledger-check

# Each component bench at smoke sizing; every run writes BENCH_<name>.smoke.json.
for bench in campaign chaos interaction web lint parallel reliability; do
    echo "==> bench $bench --smoke"
    cargo run -q -p hlisa-bench --release --bin bench -- "$bench" --smoke
done

echo "==> perf-regression guard (fresh smoke speedups vs committed baselines)"
# campaign's end-to-end row only reaches its full speedup at full-run
# scale (world-cache amortisation), so it is exempted explicitly.
scripts/perf_guard.sh BENCH_campaign.smoke.json:campaign BENCH_interaction.smoke.json BENCH_web.smoke.json

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all gates passed"
