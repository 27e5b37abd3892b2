#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, doc links, the whole test
# suite (which holds the shape rules of tests/shape.rs, the chaos sweeps
# of every workload, the adversary corpus and the golden files: chaos hashes,
# replicated program, metrics dump, every `repro` experiment) in debug
# and again in release, the benchmark
# workspace, the benchmark's simulated clock, and the 100-seed adversary
# fuzz. Run from the repository root:
#
#     scripts/check.sh
#
# UPDATE_GOLDEN=1 rewrites every golden file a phase compares against and
# prints the lines that moved: do that only on purpose, and say why.
#
# CHAOS_JOBS=<n> caps the sweeps' worker threads (default: all cores).
# Any failing chaos seed prints a CHAOS_SEED=... repro line; replay it
# with:
#
#     CHAOS_SEED=<seed> cargo test -p chaos --test store -- --nocapture
#
# (`--test bcast`, `--test commute` and `--test recovery` replay the other
# workloads; a failing report prints the exact line.)
#
# The adversarial sweep works the same way; replay one hostile seed with:
#
#     CHAOS_SEED=<seed> cargo test -p adversary --test fuzz -- --nocapture
set -euo pipefail
cd "$(dirname "$0")/.."

# Each phase is timed so a slow gate is visible, not just a slow total.
phase_started=0
phase() {
  local now
  now=$(date +%s)
  if [ "$phase_started" -ne 0 ]; then
    echo "    [${phase_name}: $((now - phase_started))s]"
  fi
  phase_name="$1"
  phase_started=$now
  echo "==> $1"
}

phase "cargo fmt --check (the shape rules run in cargo test: tests/shape.rs)"
cargo fmt --all --check

phase "cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Doc links are checked by nothing else: a link to a deleted or private
# item, or one whose target wrapped onto the next line, fails here.
phase "cargo doc --workspace --no-deps (deny rustdoc warnings: broken, private and redundant links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

phase "cargo test --workspace (unit + integration tests, every chaos sweep, adversary corpus, golden files)"
cargo test --workspace -q

# The same program as the debug run (tests/shape.rs allows no
# `cfg(debug_assertions)` under crates/*/src), so every claim holds in both;
# this run is the build the benchmark measures. The allocation budgets,
# framing and scratch checks and heap-flat gates run here too,
# `commit_store_heap_is_flat` beside `commit_store_heap_is_flat_on_fresh_threads`
# (a fresh distributed thread per transaction, as `TxnClient` makes them).
phase "cargo test --workspace --release (the same suite, as the benchmark builds the crates)"
cargo test --workspace --release -q

# benchmark/ is a workspace of its own (path deps on crates/*), so nothing
# above compiles it: without this phase a crate change that breaks it goes
# unnoticed until the benchmark is next run.
phase "benchmark still builds and runs against the crates (benchmark/check.sh: fmt, clippy, tests, --smoke of every workload)"
bash benchmark/check.sh >/dev/null

# The benchmark's sim_* columns are a pure function of seed, size and the
# code under crates/; the driver compares them parent against change, and
# this pins them between its runs, so a moved simulated clock is a diff
# here first. The same runs ratchet the host clock: each workload's
# host_allocs_per_op and host_peak_heap_mb may not pass its ceiling in
# tests/golden/bench_smoke_allocs.txt and tests/golden/bench_smoke_heap.txt
# by more than 0.5 % (chaos_faults allocations repeat to within a few in
# millions, not exactly), and UPDATE_GOLDEN lowers a ceiling to what was
# measured, never raises one. Reuses the build benchmark/check.sh just made.
phase "benchmark simulated clock, allocations and heap (--smoke, seed 1985: 5 workloads x 5 sim_* figures against tests/golden/bench_smoke_sim.txt, host_allocs_per_op and host_peak_heap_mb under the ceilings in tests/golden/bench_smoke_allocs.txt and bench_smoke_heap.txt)"
sim_golden=tests/golden/bench_smoke_sim.txt
sim_actual=target/bench_smoke_sim.actual
: >"$sim_actual"
: >target/host_allocs_per_op.actual
: >target/host_peak_heap_mb.actual
for w in echo_small echo_bulk commit_contended ordered_bcast chaos_faults; do
  out=$(CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
    bash benchmark/run.sh --smoke --workload "$w" --seed 1985 --trace 0)
  awk -v w="$w" '/^sim_/ { print w, $1, $2, $3 }' <<<"$out" >>"$sim_actual"
  for m in host_allocs_per_op host_peak_heap_mb; do
    awk -v w="$w" -v m="$m" '$1 == m { print w, $1, $2, $3 }' <<<"$out" >>"target/$m.actual"
  done
done
if ! diff -u "$sim_golden" "$sim_actual"; then
  if [ -n "${UPDATE_GOLDEN:-}" ]; then
    cp "$sim_actual" "$sim_golden"
    echo "UPDATE_GOLDEN rewrote $sim_golden: the lines above moved"
  else
    echo "the benchmark's simulated clock moved; if that is intended, rerun with UPDATE_GOLDEN=1 and say why" >&2
    exit 1
  fi
fi
for ratchet in host_allocs_per_op:tests/golden/bench_smoke_allocs.txt \
  host_peak_heap_mb:tests/golden/bench_smoke_heap.txt; do
  m=${ratchet%%:*}
  golden=${ratchet#*:}
  actual=target/$m.actual
  if [ -n "${UPDATE_GOLDEN:-}" ]; then
    lowered=target/$m.lowered
    awk 'FILENAME == ARGV[1] { ceiling[$1] = $0; value[$1] = $3; next }
         ($1 in value) && value[$1] <= $3 { print ceiling[$1]; next }
         { print }' "$golden" "$actual" >"$lowered"
    if ! diff -u "$golden" "$lowered"; then
      cp "$lowered" "$golden"
      echo "UPDATE_GOLDEN lowered the ceilings above in $golden"
    fi
  fi
  if ! awk 'FILENAME == ARGV[1] { ceiling[$1] = $3; next }
            !($1 in ceiling) { print $1 ": no " $2 " ceiling"; bad = 1; next }
            $3 > ceiling[$1] * 1.005 { print $1 ": " $2 " " $3 ", over its ceiling of " ceiling[$1] " by more than 0.5 %"; bad = 1 }
            END { exit bad }' "$golden" "$actual"; then
    echo "a workload allocates more than its $m ceiling in $golden allows: find the allocation, do not raise the ceiling" >&2
    exit 1
  fi
done

# The full fuzz sweep's seed range rotates off the committed epoch
# counter (bump tests/corpus/seed_epoch to move CI onto 100 fresh
# seeds); bug-finding seeds are pinned in the corpus regardless.
adv_epoch=$(tr -d '[:space:]' < tests/corpus/seed_epoch)
phase "adversary fuzz sweep (100 seeds from epoch ${adv_epoch}, hostile injector, release, CHAOS_JOBS=${CHAOS_JOBS:-auto})"
ADV_SEED_BASE=$((adv_epoch * 100)) ADV_FULL=1 cargo test -p adversary --release --test fuzz -- --nocapture

phase "done"
echo "All checks passed."
