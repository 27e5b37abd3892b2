//! # benchmark: two clocks, five workloads, one table
//!
//! A benchmark of the replicated-distributed-programs workspace that
//! reaches the crates only through their public API. It reads two clocks:
//! the deterministic *simulated* clock (the paper's cost model — ms,
//! `sendmsg`s and datagrams per replicated call) and the *host* clock (what
//! the Rust code costs — ns per event, allocations per call).
//!
//! One run = one workload, one seed, one of two modes:
//!
//! - **untraced** ([`run_untraced`]): five repetitions at seeds `S..S+5`,
//!   bare processes, end-to-end metrics;
//! - **traced** ([`run_traced`]): one repetition with host-clock span
//!   wrappers, a counting trace sink and a passive segment tap, next to an
//!   untraced companion of the same seed, an n=1 baseline pass and the
//!   isolated layer drills — per-layer metrics.
//!
//! See `README.md` beside this crate for the metric catalogue, the
//! predictions each layer metric carries, and the API surface relied on.

#![warn(missing_docs)]

pub mod alloc;
pub mod chaos_rig;
pub mod cli;
pub mod drills;
pub mod measure;
pub mod metrics;
pub mod rigs;
pub mod stats;
pub mod trace;
pub mod workload;

use measure::Rep;
use metrics::{Traced, Value};
use trace::Rec;
use workload::{Size, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Calls of the n=1 baseline pass (`core.unreplicated_sim_op_ms`) at full
/// size.
const UNREPLICATED_CALLS: u64 = 2_000;

/// The result of one run.
pub struct Outcome {
    /// Every metric of the mode that ran, in catalogue order.
    pub metrics: Vec<Value>,
    /// Operations scripted for the timed windows.
    pub attempted: u64,
    /// Scripted operations never confirmed complete.
    pub failed: u64,
    /// Output checks that failed (empty when the run is correct).
    pub errors: Vec<String>,
    /// Operations per host second of each repetition, in seed order: raw
    /// wall-clock rates, shown so their spread is in plain sight.
    pub rep_ops_per_s: Vec<f64>,
    /// Raw wall seconds of each repetition's set-up (`setup_s` is the
    /// speed-corrected median).
    pub rep_setup_raw_s: Vec<f64>,
    /// Host self time per layer of the traced repetition (ns per op).
    pub self_ns_per_op: Vec<(&'static str, f64)>,
    /// The traced repetition's span log, for the caller to write out.
    pub spans: Option<Rec>,
}

impl Outcome {
    /// `true` when every output check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

fn tally(reps: &[&Rep]) -> (u64, u64, Vec<String>) {
    let attempted = reps.iter().map(|r| r.scripted).sum();
    let failed = reps.iter().map(|r| r.scripted.saturating_sub(r.ops)).sum();
    let errors = reps.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    (attempted, failed, errors)
}

/// Exactly-once: every member of the callee troupe ran every replicated
/// call the clients completed, once.
fn check_exactly_once(workload: Workload, rep: &Rep, errors: &mut Vec<String>) {
    if workload == Workload::ChaosFaults {
        return; // The chaos oracles audit the members' ledgers instead.
    }
    if rep.member_invocations != rigs::REPLICAS as u64 * rep.client_calls {
        errors.push(format!(
            "{} member invocations for {} client calls: not exactly once at each of {} members",
            rep.member_invocations,
            rep.client_calls,
            rigs::REPLICAS
        ));
    }
}

/// The untraced run: end-to-end metrics from [`Size::reps`] repetitions.
pub fn run_untraced(workload: Workload, seed: u64, size: Size) -> Outcome {
    let reps: Vec<Rep> = (0..size.reps)
        .map(|r| workload.run_rep(seed.wrapping_add(r), size.units, false))
        .collect();
    let (attempted, failed, mut errors) = tally(&reps.iter().collect::<Vec<_>>());
    for rep in &reps {
        check_exactly_once(workload, rep, &mut errors);
    }
    Outcome {
        metrics: metrics::end_to_end(&reps),
        attempted,
        failed,
        errors,
        rep_ops_per_s: reps.iter().map(|r| r.ops as f64 / r.host_s).collect(),
        rep_setup_raw_s: reps.iter().map(|r| r.setup_raw_s).collect(),
        self_ns_per_op: Vec::new(),
        spans: None,
    }
}

/// The traced run: per-layer metrics from one traced repetition, its
/// untraced companion, the n=1 baseline and the drills.
pub fn run_traced(workload: Workload, seed: u64, size: Size) -> Outcome {
    let untraced = workload.run_rep(seed, size.units, false);
    let mut traced = workload.run_rep(seed, size.units, true);
    let baseline_calls = ((UNREPLICATED_CALLS as f64 * size.drill_scale) as u64).max(20);
    let unreplicated = rigs::run_echo(seed, 1, workload.payload(), baseline_calls, false);
    let drills = drills::run_all(seed, size.drill_scale);

    let (attempted, failed, mut errors) = tally(&[&untraced, &traced, &unreplicated]);
    check_exactly_once(workload, &untraced, &mut errors);
    check_exactly_once(workload, &traced, &mut errors);
    let ops = traced.ops.max(1) as f64;
    let mut self_ns_per_op: Vec<(&'static str, f64)> = traced
        .self_ns
        .iter()
        .map(|(layer, ns)| (*layer, *ns as f64 / ops))
        .collect();
    let run_self = (traced.host_s * 1e9 - traced.handler_ns as f64).max(0.0);
    self_ns_per_op.insert(0, ("simnet (run loop)", run_self / ops));
    let spans = traced.recorder.take();
    let metrics = Traced {
        workload,
        untraced: &untraced,
        traced: &traced,
        unreplicated: &unreplicated,
        drills: &drills,
        peak_rss_mb: alloc::peak_rss_mb().unwrap_or(0.0),
    }
    .per_layer();
    Outcome {
        metrics,
        attempted,
        failed,
        errors,
        rep_ops_per_s: vec![untraced.ops as f64 / untraced.host_s, ops / traced.host_s],
        rep_setup_raw_s: vec![untraced.setup_raw_s, traced.setup_raw_s],
        self_ns_per_op,
        spans,
    }
}

/// The run's one-line JSON result, as the driver reads it.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = metrics::def(name).map_or("", |d| d.unit);
            // `{}` on an f64 prints the shortest digits that round-trip.
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// Runs one mode of one workload at the given size.
pub fn run(workload: Workload, seed: u64, size: Size, traced: bool) -> Outcome {
    if traced {
        run_traced(workload, seed, size)
    } else {
        run_untraced(workload, seed, size)
    }
}
