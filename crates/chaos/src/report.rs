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
    /// The run's last [`TRACE_SAMPLE`](crate::TRACE_SAMPLE) events, up to
    /// quiesce, oldest first: the whole window the harness retains, which
    /// [`failure_summary`](Report::failure_summary) prints.
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
    /// A one-paragraph failure description, repro line first and the
    /// retained tail of the trace last, one event a line.
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
        if !self.trace_sample.is_empty() {
            s.push_str(&format!(
                "trace: the last {} of {} events\n",
                self.trace_sample.len(),
                self.trace_events
            ));
        }
        for ev in &self.trace_sample {
            s.push_str(&format!("    {}\n", trace_line(ev)));
        }
        s
    }
}

/// One trace event as a failure prints it: time, kind, endpoints, length,
/// and a datagram's first 8 head bytes in hex.
fn trace_line(ev: &TraceEvent) -> String {
    use TraceEvent::*;
    let hex = |head: &[u8]| -> String { head[..8].iter().map(|b| format!("{b:02x}")).collect() };
    match *ev {
        Send {
            at,
            from,
            to,
            len,
            ref head,
        } => format!("{at} send {from} -> {to} len {len} head {}", hex(head)),
        Duplicate {
            at,
            from,
            to,
            ref head,
        } => format!("{at} duplicate {from} -> {to} head {}", hex(head)),
        Deliver {
            at,
            from,
            to,
            len,
            ref head,
        } => format!("{at} deliver {from} -> {to} len {len} head {}", hex(head)),
        Drop {
            at,
            from,
            to,
            len,
            reason,
            ref head,
        } => format!(
            "{at} drop ({reason:?}) {from} -> {to} len {len} head {}",
            hex(head)
        ),
        TimerFire { at, owner, id, tag } => format!("{at} timer {owner} id {} tag {tag}", id.0),
        Spawn { at, addr } => format!("{at} spawn {addr}"),
        Kill { at, addr } => format!("{at} kill {addr}"),
        CrashHost { at, host } => format!("{at} crash {host}"),
        RestartHost { at, host } => format!("{at} restart {host}"),
        Inject { at, from, to, len } => format!("{at} inject {from} -> {to} len {len}"),
        Unreachable { at, to, dead } => format!("{at} unreachable {dead} -> {to}"),
        Span {
            at,
            id,
            parent,
            label,
        } => format!(
            "{at} span {} parent {} label {label}",
            id.raw(),
            parent.raw()
        ),
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
        .map(|ring| (ring.hash(), ring.seen(), ring.events()))
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
/// Each worker builds its own [`World`](simnet::World) — the
/// simulator's interior (`Rc`-based metrics registry, payload handles)
/// is deliberately thread-*un*safe, so nothing of a run crosses a thread boundary except
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

#[cfg(test)]
mod tests {
    use simnet::{HostId, SockAddr, Time, TraceSink};

    use super::*;
    use crate::TRACE_SAMPLE;

    /// A failing report over `n` traced events, its trace taken from a
    /// ring of the harness's size as [`run`] takes it.
    fn failing_report(n: u64) -> Report<String> {
        let mut ring = TraceRing::new(TRACE_SAMPLE);
        for i in 0..n {
            ring.record(&TraceEvent::Send {
                at: Time::from_micros(i),
                from: SockAddr::new(HostId(1), 10),
                to: SockAddr::new(HostId(10), 70),
                len: 100,
                head: [0xab; simnet::trace::HEAD_LEN],
            });
        }
        Report {
            workload: "store",
            seed: 7,
            trace_hash: ring.hash(),
            trace_events: ring.seen(),
            trace_sample: ring.events(),
            faults: 0,
            repairs: 0,
            rebinds: 0,
            client_errors: Vec::new(),
            driver_warnings: Vec::new(),
            all_clients_finished: true,
            violations: vec![Violation {
                oracle: "planted",
                detail: "for the test".into(),
            }],
            metrics: obs::Snapshot::default(),
            extra: String::new(),
        }
    }

    #[test]
    fn a_failure_prints_the_tail_of_its_trace() {
        for n in [3, TRACE_SAMPLE as u64, 1_000] {
            let r = failing_report(n);
            assert!(!r.passed());
            let summary = r.failure_summary();
            let (head, tail) = summary
                .split_once("violation: [planted] for the test\n")
                .expect("the violation is printed");
            assert!(head.starts_with("store chaos seed 7 FAILED"));
            let lines: Vec<&str> = tail.lines().collect();
            let shown = n.min(TRACE_SAMPLE as u64);
            assert_eq!(lines[0], format!("trace: the last {shown} of {n} events"));
            assert_eq!(lines.len() as u64, 1 + shown, "{summary}");
            let last_at = Time::from_micros(n - 1);
            assert_eq!(
                *lines.last().unwrap(),
                format!("    {last_at} send h1:10 -> h10:70 len 100 head abababababababab")
            );
        }
    }
}
