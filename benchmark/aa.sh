#!/usr/bin/env bash
# A/A check: two sets of runs of the same build must agree within the
# benchmark's own bounds — the acceptance rule a benchmark is held to.
#
#   benchmark/aa.sh [RUNS_PER_SET] [FIRST_SEED]      (defaults: 10, 1)
#
# Each set makes RUNS_PER_SET untraced runs of every workload, each run
# with another --seed. Per end-to-end metric x workload it prints
#   spread  = (Q3 - Q1) / median of a set's values (statistics.quantiles, n=4)
#   worse   = how far the second set's median is worse than the first's
# against the metric's bound from BENCHMARK.json, and exits non-zero when a
# spread (setup_s excepted: set-up is short and is held to `worse` only) or
# a `worse` exceeds its bound. A spread above a third of the bound is
# flagged "wide": the metric is one bad day away from failing.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/rdp-bench"
RUNS="${1:-10}" FIRST="${2:-1}" BIN="$BIN" exec python3 - <<'PY'
import json, os, statistics, subprocess, sys

runs, first, binary = int(os.environ["RUNS"]), int(os.environ["FIRST"]), os.environ["BIN"]
manifest = json.load(open("BENCHMARK.json"))
seconds = str(manifest["run_seconds"])
metrics = manifest["end_to_end"]
failed = False

def one_run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}

print(f"A/A: 2 sets x {runs} runs x {len(manifest['workloads'])} workloads, seeds from {first}, {seconds} s runs")
print(f"{'workload':<17} {'metric':<22} {'median 1':>14} {'median 2':>14} {'spread 1':>9} {'spread 2':>9} {'worse':>8} {'bound':>6}")
for w in (w["name"] for w in manifest["workloads"]):
    # Interleave the sets so slow drift of the machine lands on both.
    sets = ([], [])
    for i in range(runs):
        for s in (0, 1):
            sets[s].append(one_run(w, first + 2 * i + s))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        meds, spreads = [], []
        for values in ([r[name] for r in s] for s in sets):
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            meds.append(med)
            spreads.append((q[2] - q[0]) / med if med else 0.0)
        worse = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
        if m["better"] == "higher":
            worse = -worse
        verdict = ""
        if worse > bound or (name != "setup_s" and max(spreads) > bound):
            verdict, failed = "FAIL", True
        elif name != "setup_s" and max(spreads) > bound / 3:
            verdict = "wide"
        print(f"{w:<17} {name:<22} {meds[0]:>14.6g} {meds[1]:>14.6g} {spreads[0]:>8.2%} {spreads[1]:>8.2%} {worse:>+8.2%} {bound:>6.0%} {verdict}")
    sys.stdout.flush()
print("A/A FAILED" if failed else "A/A passed: every spread and every second median within its bound")
sys.exit(1 if failed else 0)
PY
