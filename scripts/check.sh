#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, the whole test suite (which
# holds the chaos sweeps of every workload, the adversary corpus and the
# golden files: chaos hashes, replicated program, metrics dump, every
# `repro` experiment) in debug and again in release, the benchmark
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

phase "cargo fmt --check (and the shape of the source: audited hash maps, no per-thread hash map in the call runtime, no crates/*/src/*.rs file over 900 lines (every crate), one multicast blast, one window of events (no span window beside the trace ring), one framing site, one digest site (a return is hashed only by message::digest in core/src/message.rs), one part layout (only message::parts in core/src/message.rs computes where a return is cut), replay memory in runs (no per-message queue or BTreeSet in pairedmsg's replay.rs), one range set (wire::IdSet), per-peer and per-call tables in one small map (wire::VecMap), one client side per synchronization scheme, one encoding site (a Courier type's wire form is its wire declaration, or the line above its impl says not a declaration:), one way to die (a PeerDead is pushed only in Endpoint::declare_dead), call numbers only rise (set_call_number, the test hook that can rewind one, has no caller under crates/*/src), one way to count (no publish_metrics impl, refresh_metrics() call or set_gauge outside obs and simnet's hooks), no cargo feature, no cfg(debug_assertions) under crates/*/src, one GlobalAlloc impl (tests/alloc_budget.rs), no ledger that grows with the run, no spawn loop or echo service beside the testbed's, EXPERIMENTS.md within 50,000 bytes, DESIGN.md within 80,000, a CHANGES.md entry within 1,536)"
cargo fmt --all --check
# A HashMap/HashSet field iterates in a per-process order: each one in the
# protocol crates says, on the line above it, why that is never observed.
awk 'FNR == 1 { prev = "" } /^ +(pub(\(crate\))? )?[a-z_]+: Hash(Map|Set)</ && prev !~ /never walked/ { print FILENAME ":" FNR ": unaudited" $0; bad = 1 } { prev = $0 } END { exit bad }' crates/{core,pairedmsg,ringmaster,simnet,transactions}/src/*.rs
# The call runtime keeps call sequences exactly, as ranges of serials per
# client troupe and origin (`CallSeqs` in calls.rs): a map with an entry
# for every thread it ever called on is the per-call growth it replaced.
if grep -n 'HashMap<ThreadId' crates/core/src/*.rs; then
  echo "a HashMap keyed by ThreadId in the call runtime (named above): keep threads as CallSeqs does" >&2
  exit 1
fi
# A file that has become its crate is split: no source file of any crate
# runs past 900 lines.
wc -l crates/*/src/*.rs | awk '$2 != "total" && $1 > 900 { print $2 ": " $1 " lines (over 900)"; bad = 1 } END { exit bad }'
# Calls and returns share one blast, `Conns::blast`: a multicast sent
# from anywhere else in the call runtime is a second copy of it.
if grep -n '\.multicast(' crates/core/src/*.rs | grep -v '^crates/core/src/conn\.rs:'; then
  echo "a multicast outside conn.rs (named above): send it through Conns::blast" >&2
  exit 1
fi
# The system records itself in one stream with one retained window,
# `simnet::TraceRing`: span mints are events on it, and the registry only
# folds them. A span window beside it, or a kept collection of span
# records anywhere, is the second window the stream replaced.
if grep -rnE --include='*.rs' -e 'recent_spans|SPAN_WINDOW' -e '(Vec|VecDeque)<(obs::)?SpanRecord>' \
  crates/*/src; then
  echo "a second window of spans (named above): keep the span mints in a TraceRing" >&2
  exit 1
fi
# A message is laid out as its datagrams in one place, pairedmsg's framing
# function (`Config::frame`, over `Framed::new`): a header stamped into a
# payload anywhere but frame.rs is a second message layout beside it.
if grep -rn --include='*.rs' -e '\.stamp(' -e 'Framed::new(' crates/*/src src |
  grep -v -e '^crates/pairedmsg/src/frame\.rs:' -e '^crates/simnet/src/payload\.rs:' \
    -e '^crates/pairedmsg/src/config\.rs:.*Framed::new('; then
  echo "a payload framed or stamped outside pairedmsg's frame.rs (named above): frame the message with Config::frame" >&2
  exit 1
fi
# A return is hashed in one place, `digest` in core/src/message.rs: the
# member that sends a digest and the client that checks it must hash
# alike, and a second hash of a return is one the other side cannot
# match. No other function of the call runtime computes a digest, and no
# other file of it hashes at all but for one hash of no return: a
# connection's jitter seed (conn.rs).
if grep -rnE --include='*.rs' 'fn [a-z_]*digest[a-z_]*(<[^>]*>)?\([^)]*\) -> u64' crates/core/src |
  grep -v '^crates/core/src/message\.rs:' ||
  grep -rnE --include='*.rs' 'fnv1a|Hasher|hash_one|wrapping_mul|rotate_left' crates/core/src |
  grep -vE -e '^crates/core/src/message\.rs:' -e '^crates/core/src/conn\.rs:.*(let h = obs::fnv1a|jitter_seed \^= obs::fnv1a_fold)'; then
  echo "a return hashed outside core/src/message.rs (named above): hash it with message::digest" >&2
  exit 1
fi
# A return is cut in one place, `parts` in core/src/message.rs: a member
# cuts its part and a client checks the parts it joins by the same layout,
# and a second layout is one the other side cannot join. Elsewhere in the
# call runtime the segment size is only handed to `parts` or kept for it,
# never computed with.
if grep -rnE --include='*.rs' -e 'max_segment_data' -e '\b(segment|tail)\b *[-+*/%]' crates/core/src |
  grep -vE -e '^crates/core/src/message\.rs:' -e '^crates/core/src/calls/tests\.rs:' \
    -e 'parts\(.*max_segment_data\)' -e 'segment: [a-z_.]*max_segment_data,'; then
  echo "a return cut outside core/src/message.rs (named above): cut it with message::parts" >&2
  exit 1
fi
# What an endpoint remembers of its completed messages is runs of call
# numbers (pairedmsg's replay.rs): a collection of per-message keys or
# completion times there, or a BTreeSet for its exactly-once audit, is
# the per-message storage the runs replaced.
if grep -nE 'BTreeSet|(^ +(pub(\([a-z]+\))? )?[a-z_]+: |struct [A-Za-z]+\().*(Vec|VecDeque|BTreeMap|HashMap|HashSet)<\(?(MsgKey|MsgType|[^>]*\bTime\))' \
  crates/pairedmsg/src/replay.rs; then
  echo "per-message storage in the replay log (named above): extend its runs" >&2
  exit 1
fi
# Ids are kept exactly in one range set, `wire::IdSet` (re-exported by
# circus): the replay audit, the call runtime's serials and the services'
# ledgers all use it. A second `IdSet`, or a field mapping range starts
# to range ends, is a second copy of it.
idsets=$(grep -rnE '\bstruct IdSet\b' crates/*/src || true)
if [ "$(grep -c . <<<"$idsets")" -ne 1 ] || [[ "$idsets" != crates/wire/src/idset.rs:* ]] ||
  grep -rnE '^ +(pub(\([a-z]+\))? )?[a-z_]+: (std::collections::)?BTreeMap<u(32|64), u(32|64)>,' crates/*/src |
  grep -v '^crates/wire/src/idset\.rs:'; then
  echo "${idsets:-no struct IdSet}" >&2
  echo "not exactly one range set, wire::IdSet in crates/wire/src/idset.rs (named above): keep the ids in it" >&2
  exit 1
fi
# The per-peer and per-call tables of large records are kept in one small
# ordered map, `wire::VecMap` (a sorted vector: it costs the entries it
# has room for, where a B-tree leaf costs eleven): an endpoint's senders
# and receivers, a node's connections, its open assemblies and its
# outstanding calls. A second small-map type, or one of those fields
# declared as anything else, is a step back to the leaf.
vecmaps=$(grep -rnE '\bstruct VecMap\b' crates/*/src || true)
if [ "$(grep -c . <<<"$vecmaps")" -ne 1 ] || [[ "$vecmaps" != crates/wire/src/vecmap.rs:* ]]; then
  echo "${vecmaps:-no struct VecMap}" >&2
  echo "not exactly one small map, wire::VecMap in crates/wire/src/vecmap.rs (named above): keep the tables in it" >&2
  exit 1
fi
for table in pairedmsg/src/endpoint.rs:senders pairedmsg/src/endpoint.rs:receivers \
  core/src/conn.rs:table core/src/assembly.rs:pending core/src/calls.rs:outstanding; do
  file=crates/${table%%:*} field=${table##*:}
  decls=$(grep -nE "^ +(pub(\([a-z]+\))? )?$field: [A-Za-z:]+<.*>,$" "$file" || true)
  if [ "$(grep -c . <<<"$decls")" -ne 1 ] || ! grep -qE ": VecMap<" <<<"$decls"; then
    echo "$file: ${decls:-no field $field}" >&2
    echo "$field in $file is not declared once, as a VecMap (named above): keep the table in wire::VecMap" >&2
    exit 1
  fi
done
# A peer dies one way, `Endpoint::declare_dead`, whatever the evidence: a
# crash horizon of silence, unanswered probes, or its host's
# port-unreachable notice. A `PeerDead` pushed anywhere else is a second
# way to die beside it, one the idempotence there does not cover.
find crates/*/src src -name '*.rs' -print0 |
  xargs -0 awk 'FNR == 1 { cur = "" } match($0, /fn [a-z_0-9]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) } /push[a-z_]*\(.*PeerDead/ && !(FILENAME == "crates/pairedmsg/src/endpoint.rs" && cur == "declare_dead") { print FILENAME ":" FNR ": a PeerDead pushed outside Endpoint::declare_dead:" $0; bad = 1 } END { exit bad }' ||
  { echo "a second way for a peer to die (named above): call Endpoint::declare_dead" >&2; exit 1; }
# Call numbers only rise: a number reused toward a peer is taken there
# for a replay. `Node::set_call_number`, the test hook that can rewind
# one, has no caller in the crates, so a joiner adopts its troupe's
# numbers only through `CallNumbers::raise`, which never lowers one.
if grep -rn --include='*.rs' 'set_call_number(' crates/*/src | grep -v 'fn set_call_number('; then
  echo "set_call_number called in the crates (named above): a call number only rises; adopt numbers with CallNumbers::raise" >&2
  exit 1
fi
# Each synchronization scheme has one client side, the protocols of
# transactions' client.rs: a scheme's procedure named anywhere else (its
# service and wire types aside) is a second copy of that client.
if grep -rnw --include='*.rs' -e PROC_EXECUTE -e PROC_GET_PROPOSED_TIME -e PROC_ACCEPT_TIME \
  -e PROC_CM_EXECUTE crates/*/src src |
  grep -v -E '^crates/transactions/src/(client|commit|broadcast(/tests)?|commute|lib)\.rs:'; then
  echo "a scheme's procedure named outside transactions' client and services (named above): drive the scheme through its transactions::Protocol" >&2
  exit 1
fi
# A Courier type is laid out on the wire by its declaration in `wire`
# (`record!`, `choice!`, `enumeration!`, `newtype!`): an `Externalize` or
# `Internalize` impl written out anywhere else says, on the line above it,
# why it is `not a declaration:`.
find crates src tests examples -path crates/wire/src -prune -o -name '*.rs' -print0 |
  xargs -0 awk 'FNR == 1 { prev = "" } /impl(<.*>)? (wire::)?(Externalize|Internalize)(<.*>)? for / && prev !~ /not a declaration:/ { print FILENAME ":" FNR ": an encoding written out:" $0; bad = 1 } { prev = $0 } END { exit bad }' ||
  { echo "a hand-written Externalize/Internalize (named above): declare the type with wire's record!/choice!/enumeration!/newtype!, or say on the line above why it is not a declaration:" >&2; exit 1; }
# Every metric family counts into its registry handles as events happen,
# the call runtime's `rpc.<addr>.*` included: a process that publishes
# totals when asked, a caller that asks (`refresh_metrics`), or a gauge
# set by name (`set_gauge`, which obs no longer has) is a second, partial
# way of counting beside it. Only simnet, which defines the hook, names it.
if grep -rnE --include='*.rs' -e 'fn publish_metrics' -e '\.refresh_metrics\(\)' -e 'set_gauge\(' \
  crates src tests examples |
  grep -v -e '^crates/obs/' -e '^crates/simnet/src/process\.rs:' -e '^crates/simnet/src/world\.rs:'; then
  echo "a second way of counting (named above): bump a registry handle where the event happens" >&2
  exit 1
fi
# A cargo feature is a second program nobody tests: there are none, and
# nothing is compiled conditionally on one.
if grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
  echo "a [features] table (named above): replace the code it selects, do not fork it" >&2
  exit 1
fi
if grep -rn 'cfg(feature' crates src tests; then
  echo "code conditional on a cargo feature (named above)" >&2
  exit 1
fi
# A debug build is the same program: nothing under crates/*/src, test
# modules included, is compiled or asserted differently in one
# (`debug_assert!` is a check, not a second program).
if grep -rnE --include='*.rs' 'cfg!?\(debug_assertions\)' crates/*/src; then
  echo "code conditional on a debug build (named above): state the claim so it holds in both builds" >&2
  exit 1
fi
# Allocations are counted by one allocator, tests/alloc_budget.rs's (the
# frozen benchmark keeps its own): a second counting binary is a copy of it.
allocators=$(grep -rnE --include='*.rs' --exclude-dir=benchmark --exclude-dir=target \
  'impl\b.*\bGlobalAlloc\b.* for ' . || true)
if [ "$(grep -c . <<<"$allocators")" -ne 1 ] || [[ "$allocators" != ./tests/alloc_budget.rs:* ]]; then
  echo "${allocators:-no GlobalAlloc impl}" >&2
  echo "not exactly one GlobalAlloc impl outside benchmark/, in tests/alloc_budget.rs (named above): count allocations there" >&2
  exit 1
fi
# The broadcast and commutative ledgers are bounded by the number of
# clients (tests/alloc_budget.rs holds them flat); the phrase is how the
# old, unbounded cache described itself.
if grep -rn 'grows with the run' crates/transactions/src; then
  echo "a ledger that admits it grows with the run (named above): bound it" >&2
  exit 1
fi
# The prose is capped in bytes: a change's A/B is one row of EXPERIMENTS.md's
# table, and DESIGN.md describes the system that exists, not its history.
for cap in EXPERIMENTS.md:50000 DESIGN.md:80000; do
  doc=${cap%%:*} max=${cap##*:}
  if [ "$(wc -c <"$doc")" -gt "$max" ]; then
    echo "$doc is $(wc -c <"$doc") bytes, over its cap of $max: shorten it" >&2
    exit 1
  fi
done
# A CHANGES.md entry is one line of at most 1,536 bytes: what changed,
# which goldens and gates moved and why, and what was left out. The
# test-by-test account belongs in the commit message.
LC_ALL=C awk 'length($0) > 1536 { print "CHANGES.md:" FNR ": an entry of " length($0) " bytes, over its cap of 1536: shorten it"; bad = 1 } END { exit bad }' CHANGES.md

# Tests, examples and experiments stand their troupes up with
# `circus::testbed` and serve its one echo: a hand-rolled member spawn or
# a private echo service says, on the line above it, why it is
# `not the testbed:`.
find tests examples crates/*/tests crates/bench/src -name '*.rs' -print0 |
  xargs -0 awk 'FNR == 1 { prev = "" } (/\.troupe_id\(/ || /impl Service for Echo/) && prev !~ /not the testbed:/ { print FILENAME ":" FNR ": a spawn or an echo of its own:" $0; bad = 1 } { prev = $0 } END { exit bad }'

phase "cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

phase "cargo test --workspace (unit + integration tests, every chaos sweep, adversary corpus, golden files)"
cargo test --workspace -q

# The same program as the debug run (check.sh allows no
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
