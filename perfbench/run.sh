#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line on stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p hetsched-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --cli "$CARGO_TARGET_DIR/release/hetsched-cli" "$@"
