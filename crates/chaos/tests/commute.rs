//! The commutative-operations chaos sweep: ten seeds, full fault
//! schedules, convergence-without-commit oracle — plus a partition-heavy
//! schedule, since partitions are exactly the regime where commutative
//! ops shine (no commit round to stall).

use chaos::{
    assert_all_passed, chaos_jobs, run, sweep, sweep_seeds, Commute, PlanOptions, ScenarioOptions,
    Workload,
};
use simnet::Duration;

#[test]
fn commute_sweep_converges_without_commit() {
    let seeds = sweep_seeds(1..11);
    let replaying = std::env::var("CHAOS_SEED").is_ok();
    let reports = sweep(&Commute, &seeds, &Commute::options(), chaos_jobs());
    assert_all_passed(&reports);
    let repairs: usize = reports.iter().map(|r| r.repairs).sum();
    let batches: usize = reports.iter().map(|r| r.extra.batches).sum();
    if !replaying {
        assert!(repairs > 0, "no crash was ever repaired across the sweep");
        assert!(
            batches >= seeds.len() * 2 * 30,
            "fewer batches than scripts imply: {batches}"
        );
    }
}

#[test]
fn commute_same_seed_is_bit_identical() {
    let opts = Commute::options();
    let a = run(&Commute, 5, &opts);
    let b = run(&Commute, 5, &opts);
    assert_eq!(a.trace_hash, b.trace_hash, "trace hashes diverge");
    assert_eq!(a.trace_events, b.trace_events);
    assert_eq!(a.metrics, b.metrics, "metrics diverge");
}

/// Members partitioned over and over mid-stream still converge: the ops
/// commute, delivery-everywhere is the only obligation, and there is no
/// commit round for the partition to abort.
#[test]
fn partition_storm_still_converges() {
    let opts = ScenarioOptions {
        plan: PlanOptions {
            partitions_only: Some((
                Duration::from_micros(500_000),
                Duration::from_micros(1_900_000),
            )),
            ..PlanOptions::default()
        },
        ..Commute::options()
    };
    for seed in [21, 22, 23] {
        let r = run(&Commute, seed, &opts);
        assert!(r.passed(), "{}", r.failure_summary());
    }
}
