//! Per-seed runs, sweeps, and the report both produce.
//!
//! [`run`] does one complete chaos run of a workload: build the world,
//! drive the faults, quiesce, run the oracles, and fold everything into
//! a [`Report`]. Because plan, world, and workload are all pure
//! functions of the seed, two reports for the same seed must be
//! identical — trace hash, event count, CPU totals, network counters and
//! all — which is what the determinism tests and the golden table
//! assert, and what makes the copy-pasteable repro line from a failing
//! sweep actually reproduce.

use std::fmt;

use simnet::{TraceEvent, TraceRing};

use crate::harness::{quiesce, ScenarioOptions, Workload};
use crate::oracle::Violation;

/// How many retained trace events a report carries for inspection.
const TRACE_SAMPLE: usize = 64;

/// Everything one chaos run produced: the common fields, plus the
/// workload's own in `extra`.
#[derive(Clone, Debug)]
pub struct Report<E> {
    /// The workload's [`NAME`](Workload::NAME).
    pub workload: &'static str,
    /// The seed.
    pub seed: u64,
    /// FNV-1a hash over *every* trace event of the run.
    pub trace_hash: u64,
    /// Total trace events emitted.
    pub trace_events: u64,
    /// A few retained events (the oldest the ring still holds), for
    /// eyeballing a diverging run.
    pub trace_sample: Vec<TraceEvent>,
    /// Faults the plan scheduled.
    pub faults: usize,
    /// Crash/kill repairs performed by the self-healing agent.
    pub repairs: usize,
    /// Stale-binding rebinds across all clients.
    pub rebinds: u32,
    /// Unrecoverable client errors.
    pub client_errors: Vec<String>,
    /// Driver anomalies (failed repair steps, spec violations after a
    /// heal, and the like).
    pub driver_warnings: Vec<String>,
    /// Whether every client finished its script and probe.
    pub all_clients_finished: bool,
    /// Oracle violations.
    pub violations: Vec<Violation>,
    /// The whole metrics registry at quiesce, the span hash over the
    /// causal span records minted during the run included — same seed,
    /// same snapshot (and the same bytes from [`obs::Snapshot::to_json`]).
    pub metrics: obs::Snapshot,
    /// The workload's own figures.
    pub extra: E,
}

impl<E> Report<E> {
    /// `true` if the run is clean: no violations, no client errors, no
    /// driver warnings, everyone finished.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.client_errors.is_empty()
            && self.driver_warnings.is_empty()
            && self.all_clients_finished
    }

    /// A copy-pasteable command reproducing this run by seed.
    pub fn repro(&self) -> String {
        format!(
            "CHAOS_SEED={} cargo test -p chaos --test {}",
            self.seed, self.workload
        )
    }
}

/// One sweep row: the common figures, then the workload's.
impl<E: fmt::Display> fmt::Display for Report<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} seed {}: trace {:#018x} over {} events; {} faults, {} repairs, {} rebinds, {}; \
             {} violations",
            self.workload,
            self.seed,
            self.trace_hash,
            self.trace_events,
            self.faults,
            self.repairs,
            self.rebinds,
            self.extra,
            self.violations.len(),
        )
    }
}

impl<E: fmt::Display> Report<E> {
    /// A one-paragraph failure description, repro line first.
    pub fn failure_summary(&self) -> String {
        let mut s = format!(
            "{} chaos seed {} FAILED — reproduce with:\n    {}\n{self}\n",
            self.workload,
            self.seed,
            self.repro(),
        );
        if !self.all_clients_finished {
            s.push_str("clients did not finish their scripts\n");
        }
        for w in &self.driver_warnings {
            s.push_str(&format!("driver: {w}\n"));
        }
        for e in &self.client_errors {
            s.push_str(&format!("client: {e}\n"));
        }
        for v in &self.violations {
            s.push_str(&format!("violation: {v}\n"));
        }
        s
    }
}

/// Prints one row per report and panics with every failure summary if
/// any run was not clean — the tail of every sweep test.
pub fn assert_all_passed<E: fmt::Display>(reports: &[Report<E>]) {
    let mut failures = Vec::new();
    for r in reports {
        println!("{r}{}", if r.passed() { "" } else { "  FAILED" });
        if !r.passed() {
            failures.push(r.failure_summary());
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} chaos runs failed:\n\n{}",
        failures.len(),
        reports.len(),
        failures.join("\n")
    );
}

/// One full chaos run of `wl` for `seed`: scenario, oracles, report.
pub fn run<W: Workload>(wl: &W, seed: u64, opts: &ScenarioOptions) -> Report<W::Extra> {
    let (q, mut extra) = quiesce(wl, seed, opts);
    let mut violations = Vec::new();
    wl.check(&q, &mut extra, &mut violations);

    let (trace_hash, trace_events, trace_sample) = q
        .world
        .trace_sink_as::<TraceRing>()
        .map(|ring| {
            let sample = ring.events().into_iter().take(TRACE_SAMPLE).collect();
            (ring.hash(), ring.seen(), sample)
        })
        .unwrap_or((0, 0, Vec::new()));

    let mut rebinds = 0u32;
    let mut client_errors = Vec::new();
    q.each_client::<W::Proto>(|_, a| {
        rebinds += a.rebinds;
        client_errors.extend(a.errors.iter().cloned());
    });

    Report {
        workload: W::NAME,
        seed,
        trace_hash,
        trace_events,
        trace_sample,
        faults: q.plan.faults.len(),
        repairs: q.repairs,
        rebinds,
        client_errors,
        all_clients_finished: q.all_clients_finished,
        violations,
        metrics: q.world.metrics().snapshot(),
        driver_warnings: q.driver_warnings,
        extra,
    }
}

/// How many worker threads a parallel sweep should use: the
/// `CHAOS_JOBS` environment variable, or the machine's available
/// parallelism.
pub fn chaos_jobs() -> usize {
    match std::env::var("CHAOS_JOBS") {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("CHAOS_JOBS must be a positive integer, got {s:?}")),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The seeds a sweep should run: the `CHAOS_SEED` environment variable
/// (a single seed for replaying a failure) or the given default range.
pub fn sweep_seeds(default: std::ops::Range<u64>) -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => {
            let seed = s
                .trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got {s:?}"));
            vec![seed]
        }
        Err(_) => default.collect(),
    }
}

/// Runs `wl` for every seed across `jobs` worker threads (1 = serially,
/// on this thread) and returns the reports in the order of `seeds`.
///
/// Each worker builds its own [`World`] — the simulator's interior
/// (`Rc`-based metrics registry, payload handles) is deliberately
/// thread-*un*safe, so nothing of a run crosses a thread boundary except
/// the finished, plain-data [`Report`]. Every run is a pure function of
/// its seed, so the schedule (which worker picks which seed, in what
/// order) cannot change any report: parallel and serial sweeps are
/// bit-identical, which `scripts/check.sh` and the sweep tests assert.
pub fn sweep<W: Workload>(
    wl: &W,
    seeds: &[u64],
    opts: &ScenarioOptions,
    jobs: usize,
) -> Vec<Report<W::Extra>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let jobs = jobs.max(1).min(seeds.len().max(1));
    if jobs == 1 {
        return seeds.iter().map(|&s| run(wl, s, opts)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Report<W::Extra>>>> =
        seeds.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let report = run(wl, seed, opts);
                *slots[i].lock().expect("sweep slot poisoned") = Some(report);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every seed produced a report")
        })
        .collect()
}
