#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh [--seed S] [--workload W] [--seconds N] [--smoke]
#       every workload (or W): untraced run, then traced run; prints every
#       metric by name with its unit; exits non-zero on a failed output check
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run; the last line of stdout is the JSON result (BENCHMARK.json)
#
# Works from any directory; the build goes to $CARGO_TARGET_DIR when set,
# else to benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/rdp-bench" "$@"
