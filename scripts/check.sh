#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, the whole test suite, the
# chaos sweep (parallel, in release), and the benchmark gates. Run from
# the repository root:
#
#     scripts/check.sh
#
# CHAOS_JOBS=<n> caps the sweep's worker threads (default: all cores).
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

phase "cargo fmt --check"
cargo fmt --all --check

phase "cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

phase "cargo test --workspace"
cargo test --workspace -q

phase "allocation budget (n=3 echo call within its heap-allocation budget, wheel allocates nothing, release)"
cargo test --release --test alloc_budget -- --nocapture

# benchmark/ is a workspace of its own (path deps on crates/*), so nothing
# above compiles it: without this phase a crate change that breaks it goes
# unnoticed until the benchmark is next run.
phase "benchmark still builds and runs against the crates (benchmark/check.sh: fmt, clippy, tests, --smoke of every workload)"
bash benchmark/check.sh >/dev/null

phase "store chaos sweep (10 seeds + pinned, all oracles, self-heal gate, release, CHAOS_JOBS=${CHAOS_JOBS:-auto})"
cargo test -p chaos --release --test store -- --nocapture

phase "recovery chaos sweep (durable members, hostile disks, log-replay rejoin)"
cargo test -p chaos --release --test recovery -- --nocapture

phase "broadcast chaos sweep (10 seeds, identical-applied-order + no-starvation oracles)"
cargo test -p chaos --release --test bcast -- --nocapture

phase "commutative chaos sweep (10 seeds, convergence-without-commit oracle)"
cargo test -p chaos --release --test commute -- --nocapture

phase "adversary corpus replay (tests/corpus/adversary.seeds)"
cargo test -p adversary --release --test corpus -- --nocapture

# The full fuzz sweep's seed range rotates off the committed epoch
# counter (bump tests/corpus/seed_epoch to move CI onto 100 fresh
# seeds); bug-finding seeds are pinned in the corpus regardless.
adv_epoch=$(tr -d '[:space:]' < tests/corpus/seed_epoch)
phase "adversary fuzz sweep (100 seeds from epoch ${adv_epoch}, hostile injector, release, CHAOS_JOBS=${CHAOS_JOBS:-auto})"
ADV_SEED_BASE=$((adv_epoch * 100)) ADV_FULL=1 cargo test -p adversary --release --test fuzz -- --nocapture

phase "BENCH_4 gate (multicast call plane beats unicast on client sendmsg)"
cargo run -q --release -p bench --bin repro -- --quick bench4 >/dev/null
cargo run -q --release -p bench --bin repro -- --gate bench4

phase "BENCH_5 gate (parallel sweep beats serial wall clock)"
cargo run -q --release -p bench --bin repro -- --quick bench5 >/dev/null
cargo run -q --release -p bench --bin repro -- --gate bench5

phase "scheduler equivalence (timer wheel vs reference heap, bit-for-bit)"
cargo test --release --test sched_equivalence -- --nocapture

phase "BENCH_6 gate (timer churn at least matches the BENCH_5 baseline)"
cargo run -q --release -p bench --bin repro -- --quick bench6 >/dev/null
cargo run -q --release -p bench --bin repro -- --gate bench6

phase "BENCH_7 gate (delta rejoin moves fewer bytes than full state transfer)"
cargo run -q --release -p bench --bin repro -- --quick bench7 >/dev/null
cargo run -q --release -p bench --bin repro -- --gate bench7

phase "BENCH_8 gate (commutative ops out-throughput commit under conflict)"
cargo run -q --release -p bench --bin repro -- bench8 >/dev/null
cargo run -q --release -p bench --bin repro -- --gate bench8

phase "done"
echo "All checks passed."
