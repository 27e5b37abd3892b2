//! BENCH_5: wall-clock throughput of the simulator itself.
//!
//! Two sections, both emitted as one JSON record per line (the BENCH_4
//! convention — shell tooling needs no JSON parser):
//!
//! - `throughput` — the replicated echo rig at growing call payloads
//!   (64 B to 8 KiB), reporting simulator events per *real* second.
//!   This is the number the zero-copy data plane moves: one encode per
//!   segment, refcount bumps per hop, no per-byte work on the hot path
//!   beyond the single buffer build.
//! - `sweep` — the 10-seed chaos sweep run serially and then across
//!   worker threads, with the wall-clock for each and the speedup. The
//!   per-seed trace hashes are checked for equality between the two
//!   modes before anything is reported: a parallel sweep that changed
//!   a single run would be worse than a slow one.
//!
//! Deterministic fields (payload sizes, event counts, simulated time,
//! seed count, trace-hash fold) are byte-stable across reruns on any
//! machine; wall-clock fields (`wall_ms`, `events_per_sec`, `speedup`)
//! are measurements and vary. `repro --gate bench5` applies a
//! core-count-aware threshold to the speedup.

use std::fmt::Write as _;
use std::time::Instant;

use chaos::{chaos_jobs, sweep, ScenarioOptions, Store};

/// The payload sizes the throughput section walks.
const PAYLOADS: [usize; 3] = [64, 1024, 8192];

/// The seeds the sweep section times (the same 1..11 range as the
/// chaos sweep test, so the runs are byte-identical to the gate's).
const SWEEP_SEEDS: std::ops::Range<u64> = 1..11;

/// Builds the full BENCH_5 report. `quick` shrinks the throughput call
/// count; the sweep is always the full 10 seeds (it *is* the thing
/// being measured).
pub fn bench_5_json(quick: bool) -> String {
    let calls = if quick { 60 } else { 300 };
    let mut out = String::new();

    for &payload in &PAYLOADS {
        let t0 = Instant::now();
        let r = crate::testbed::run_circus_echo_rig(3, calls, false, payload);
        let wall = t0.elapsed();
        let eps = r.events as f64 / wall.as_secs_f64().max(1e-9);
        let _ = writeln!(
            out,
            "{{\"experiment\":\"bench5\",\"section\":\"throughput\",\"payload\":{payload},\
             \"replicas\":3,\"calls\":{calls},\"events\":{},\"sim_ms\":{:.2},\
             \"wall_ms\":{:.2},\"events_per_sec\":{:.0}}}",
            r.events,
            r.sim.as_millis_f64(),
            wall.as_secs_f64() * 1e3,
            eps,
        );
    }

    let seeds: Vec<u64> = SWEEP_SEEDS.collect();
    let opts = ScenarioOptions::default();
    let jobs = chaos_jobs();

    let t0 = Instant::now();
    let serial = sweep(&Store, &seeds, &opts, 1);
    let serial_wall = t0.elapsed();

    let t0 = Instant::now();
    let parallel = sweep(&Store, &seeds, &opts, jobs);
    let parallel_wall = t0.elapsed();

    // The determinism cross-check: scheduling must not leak into a run.
    let mut hash_fold = 0u64;
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            (s.seed, s.trace_hash),
            (p.seed, p.trace_hash),
            "parallel sweep diverged from serial on seed {}",
            s.seed
        );
        hash_fold ^= s.trace_hash.rotate_left((s.seed % 63) as u32);
    }

    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    let _ = writeln!(
        out,
        "{{\"experiment\":\"bench5\",\"section\":\"sweep\",\"mode\":\"serial\",\
         \"seeds\":{},\"jobs\":1,\"trace_hash_fold\":\"{hash_fold:#018x}\",\"wall_ms\":{:.2}}}",
        seeds.len(),
        serial_wall.as_secs_f64() * 1e3,
    );
    let _ = writeln!(
        out,
        "{{\"experiment\":\"bench5\",\"section\":\"sweep\",\"mode\":\"parallel\",\
         \"seeds\":{},\"jobs\":{jobs},\"trace_hash_fold\":\"{hash_fold:#018x}\",\"wall_ms\":{:.2}}}",
        seeds.len(),
        parallel_wall.as_secs_f64() * 1e3,
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(
        out,
        "{{\"experiment\":\"bench5\",\"section\":\"sweep_summary\",\"seeds\":{},\
         \"jobs\":{jobs},\"cores\":{cores},\"hashes_match\":true,\"speedup\":{speedup:.3}}}",
        seeds.len(),
    );
    out
}
