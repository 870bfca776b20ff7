#!/usr/bin/env bash
# Builds ooo-serve and the benchmark from this checkout, then runs one
# benchmark pass:
#   bash perfbench/run.sh --workload cold_tune --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's messages go to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ooo-serve --bin ooo-serve
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/ooo-serve" \
  --trace-dir "$CARGO_TARGET_DIR/perfbench-traces" "$@"
