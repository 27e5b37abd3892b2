//! The ordered-broadcast chaos sweep: ten seeds, full fault schedules,
//! identical-applied-order and no-starvation oracles, plus a forced
//! kill-mid-broadcast regression for spare rejoin with broadcast state.

use chaos::{
    assert_all_passed, chaos_jobs, run, sweep, sweep_seeds, Bcast, Fault, PlannedFault,
    ScenarioOptions, Workload,
};
use simnet::{Duration, Time};

#[test]
fn bcast_sweep_holds_the_oracles() {
    let seeds = sweep_seeds(1..11);
    let replaying = std::env::var("CHAOS_SEED").is_ok();
    let reports = sweep(&Bcast, &seeds, &Bcast::options(), chaos_jobs());
    assert_all_passed(&reports);
    let repairs: usize = reports.iter().map(|r| r.repairs).sum();
    let broadcasts: usize = reports.iter().map(|r| r.extra.broadcasts).sum();
    if !replaying {
        // Across ten full fault schedules the sweep must actually have
        // exercised the repair pipeline and the workload.
        assert!(repairs > 0, "no crash was ever repaired across the sweep");
        assert!(
            broadcasts >= seeds.len() * 2 * 30,
            "fewer broadcasts than scripts imply: {broadcasts}"
        );
    }
}

#[test]
fn bcast_same_seed_is_bit_identical() {
    let opts = Bcast::options();
    let a = run(&Bcast, 3, &opts);
    let b = run(&Bcast, 3, &opts);
    assert_eq!(a.trace_hash, b.trace_hash, "trace hashes diverge");
    assert_eq!(a.trace_events, b.trace_events);
    assert_eq!(a.metrics, b.metrics, "metrics diverge");
}

/// The spare-rejoin regression: kill a member in the middle of the
/// broadcast storm, let the healer join a spare via state transfer, and
/// require the rejoined member to agree byte-for-byte on the applied
/// order — exactly what `get_state`/`set_state` dropping the queue,
/// position, or applied history would break.
#[test]
fn killed_member_mid_broadcast_rejoins_with_identical_order() {
    let opts = ScenarioOptions {
        override_faults: Some(vec![
            PlannedFault {
                at: Time::from_micros(20_000_000),
                fault: Fault::KillProc { victim_idx: 1 },
            },
            PlannedFault {
                at: Time::from_micros(45_000_000),
                fault: Fault::Partition {
                    victim_idx: 0,
                    heal_after: Duration::from_micros(1_500_000),
                },
            },
        ]),
        ..Bcast::options()
    };
    for seed in [7, 8] {
        let r = run(&Bcast, seed, &opts);
        assert_eq!(r.repairs, 1, "seed {seed}: the kill was not repaired");
        assert!(r.passed(), "{}", r.failure_summary());
    }
}
