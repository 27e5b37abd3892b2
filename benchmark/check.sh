#!/usr/bin/env bash
# Everything a change to the benchmark must pass, offline:
# formatting, clippy with warnings denied, the tests (smoke-sized, seconds),
# and one --smoke run of every workload in both modes through run.sh.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release -q
# Reuse the build the steps above made (benchmark/.cargo/config.toml points
# cargo at ../target; run.sh starts from the repository root, where that
# file is not seen).
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target}" ./run.sh --smoke
