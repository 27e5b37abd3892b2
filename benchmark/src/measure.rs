//! What one repetition measures, and how windows over a `World` are read.
//!
//! A repetition builds its world, warms up, and then times a window of a
//! *fixed number of operations*. Everything simulated is read as a delta
//! of the world's `obs::Registry` (plus `World::now` and
//! `World::events_processed`) across that window, so every `sim_*` figure
//! and every count is a pure function of `(seed, sizes, code)`.

use std::collections::BTreeMap;
use std::time::Instant;

use obs::Registry;
use simnet::{Time, World};

use crate::alloc;
use crate::trace::{Rec, SegmentCounts, SinkCounts};

/// Registry-derived counts, by the benchmark's own short names.
pub type Counts = BTreeMap<&'static str, u64>;

/// Sum of the counters/gauges whose key starts with `prefix` and ends with
/// `suffix` (`Registry::sum_suffix` alone cannot tell `disk.h1.appends`
/// from `wal.appends`).
fn sum_keys(reg: &Registry, keys: &[String], prefix: &str, suffix: &str) -> u64 {
    keys.iter()
        .filter(|k| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|k| reg.get(k))
        .sum()
}

/// Reads every count the metrics use out of a registry. Gauges published
/// by `World::refresh_metrics` (the `rpc.<addr>.*` family) must have been
/// refreshed by the caller.
pub fn read_counts(reg: &Registry) -> Counts {
    let keys = reg.keys();
    let sum = |prefix: &str, suffix: &str| sum_keys(reg, &keys, prefix, suffix);
    let mut c = Counts::new();
    c.insert("sendmsgs", sum("cpu.", ".sys.sendmsg.n"));
    c.insert("datagrams", reg.get("net.sent"));
    c.insert("cpu_us", sum("cpu.", ".total_us"));
    c.insert(
        "dropped",
        reg.get("net.lost") + reg.get("net.partitioned") + reg.get("net.undeliverable"),
    );
    c.insert("disk_appends", sum("disk.", ".appends"));
    c.insert("disk_fsyncs", sum("disk.", ".fsyncs"));
    c.insert("segments", sum("rpc.", ".segments_sent"));
    c.insert("replays_suppressed", sum("rpc.", ".replays_suppressed"));
    c.insert(
        "duplicate_deliveries",
        sum("rpc.", ".duplicate_call_deliveries"),
    );
    c.insert("exchanges", sum("rpc.", ".returns_delivered"));
    c.insert("calls", reg.get("rpc.calls_completed"));
    let lat = reg.histogram("rpc.call_latency_us").snapshot();
    c.insert("call_latency_us", lat.sum);
    c.insert("call_latency_n", lat.count);
    c.insert("txn_commits", reg.get("txn.commits"));
    c.insert("txn_aborts", reg.get("txn.aborts"));
    c.insert("wal_appends", reg.get("wal.appends"));
    c.insert("bcast_dup_proposes", reg.get("bcast.dup_proposes"));
    c.insert("bcast_dup_accepts", reg.get("bcast.dup_accepts"));
    c.insert("ring_probes", reg.get("ring.probes"));
    c.insert("ring_suspicions", reg.get("ring.suspicions"));
    c.insert("ring_false_suspicions", reg.get("ring.false_suspicions"));
    c.insert("ring_repairs", reg.get("ring.repairs"));
    c.insert("spare_state_bytes", reg.get("spare.state_bytes"));
    c.insert("spans", reg.span_count());
    c
}

/// `after - before`, key by key.
pub fn counts_delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// `into += add`, key by key.
pub fn counts_add(into: &mut Counts, add: &Counts) {
    for (k, v) in add {
        *into.entry(k).or_default() += v;
    }
}

/// One edge of a timed window over a world.
pub struct Edge {
    /// Host clock at the edge.
    pub host: Instant,
    /// Allocations so far.
    pub allocs: u64,
    /// Simulated clock.
    pub sim: Time,
    /// Events processed so far.
    pub events: u64,
    /// Registry counts.
    pub counts: Counts,
}

impl Edge {
    /// Opens a window: the registry is read *first*, so its cost (key
    /// formatting, map walks) stays outside the host-clock window.
    pub fn open(w: &World) -> Edge {
        w.refresh_metrics();
        let counts = read_counts(&w.metrics());
        Edge {
            allocs: alloc::allocations(),
            sim: w.now(),
            events: w.events_processed(),
            counts,
            host: Instant::now(),
        }
    }

    /// Closes a window: host clock and allocations are read *first*.
    pub fn close(w: &World) -> Edge {
        let host = Instant::now();
        let allocs = alloc::allocations();
        w.refresh_metrics();
        Edge {
            host,
            allocs,
            sim: w.now(),
            events: w.events_processed(),
            counts: read_counts(&w.metrics()),
        }
    }
}

/// Host seconds the reference kernel takes on a quiet machine of the kind
/// this benchmark was sized on; fixes the scale of [`SetupClock`] only.
const KERNEL_NOMINAL_S: f64 = 1.5e-3;

/// A fixed piece of allocator- and ordered-map-heavy work owned by the
/// benchmark (nothing of the crates under test runs in it): the yardstick
/// for how fast the machine is running *right now*.
fn reference_kernel() -> f64 {
    use std::collections::BTreeMap;
    let t0 = Instant::now();
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = vec![i as u8; 64 + (x % 64) as usize];
        if let Some(old) = map.insert(x % 512, v) {
            acc += old.len() as u64 + old[0] as u64;
        }
        if i % 3 == 0 {
            map.remove(&((x >> 20) % 512));
        }
    }
    std::hint::black_box(acc + map.len() as u64);
    t0.elapsed().as_secs_f64()
}

/// Times a set-up phase in *speed-corrected* host seconds.
///
/// Set-up is short (tens of milliseconds), and the shared machines this
/// runs on drift between a fast and a slow mode that differ by a third
/// and last from seconds to minutes — longer than a run, so no statistic
/// inside a run averages them out. The reference kernel is therefore
/// timed immediately before and after the phase, and the phase's wall
/// time is scaled by `nominal kernel time / measured kernel time`. Work
/// moved into set-up still shows in full; the machine's mood mostly does
/// not.
pub struct SetupClock {
    kernel_before: f64,
    started: Instant,
}

impl SetupClock {
    /// Starts timing a set-up phase.
    pub fn start() -> SetupClock {
        let kernel_before = reference_kernel();
        SetupClock {
            kernel_before,
            started: Instant::now(),
        }
    }

    /// Ends the phase: (speed-corrected seconds, raw wall seconds).
    pub fn stop(&self) -> (f64, f64) {
        let raw = self.started.elapsed().as_secs_f64();
        let kernel = (self.kernel_before + reference_kernel()) / 2.0;
        (raw * KERNEL_NOMINAL_S / kernel, raw)
    }
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Host seconds from the start of the repetition (world build, spawn,
    /// bind, warm-up) to the first timed operation, speed-corrected by
    /// [`SetupClock`].
    pub setup_s: f64,
    /// The same, as raw wall time.
    pub setup_raw_s: f64,
    /// Host seconds of the timed window.
    pub host_s: f64,
    /// Host seconds of the timed window spent inside process handlers
    /// (traced repetitions only).
    pub handler_ns: u64,
    /// Operations scripted for the timed window.
    pub scripted: u64,
    /// Operations confirmed complete in the timed window.
    pub ops: u64,
    /// Simulated µs the timed window covered (summed over worlds).
    pub sim_us: u64,
    /// One simulated latency sample per operation (µs).
    pub lat_us: Vec<u64>,
    /// Simulator events processed in the window.
    pub events: u64,
    /// Heap allocations in the window.
    pub allocs: u64,
    /// Peak live heap bytes over the whole repetition.
    pub peak_heap_bytes: u64,
    /// Registry deltas over the window.
    pub counts: Counts,
    /// Whole-run totals for the exactly-once ratio: invocations started at
    /// troupe members, and replicated calls the clients completed.
    pub member_invocations: u64,
    /// See `member_invocations`.
    pub client_calls: u64,
    /// Simulator-boundary counts (traced repetitions only).
    pub sink: SinkCounts,
    /// Delivered segments by kind (traced repetitions only).
    pub segments: SegmentCounts,
    /// Self time per layer in host ns (traced repetitions only).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// The span log (traced repetitions of the fault-free rigs only).
    pub recorder: Option<Rec>,
    /// Per-world extras of `chaos_faults`: one entry per seed.
    pub per_seed: Vec<SeedStats>,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

/// Per-seed figures of the chaos workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeedStats {
    /// Faults the plan scheduled.
    pub faults: u64,
    /// Repairs the self-healing agent completed.
    pub repairs: u64,
    /// Mean `ring.mttr_us` of the seed (0 when it repaired nothing).
    pub mttr_us: u64,
    /// Stale-binding rebinds across the seed's clients.
    pub rebinds: u64,
    /// Oracle violations.
    pub violations: u64,
}

impl Rep {
    /// Fills the window figures from its two edges.
    pub fn window(&mut self, open: &Edge, close: &Edge) {
        self.host_s += close.host.duration_since(open.host).as_secs_f64();
        self.allocs += close.allocs - open.allocs;
        self.sim_us += close.sim.since(open.sim).as_micros();
        self.events += close.events - open.events;
        counts_add(&mut self.counts, &counts_delta(&close.counts, &open.counts));
    }

    /// A count by name (0 when the workload never touched it).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}
