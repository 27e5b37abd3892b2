//! Deterministic replay: the whole chaos run — fault schedule, workload,
//! network behavior, repairs — is a pure function of the seed. Running
//! the same seed twice must give bit-identical traces and resource
//! accounting; different seeds must actually diverge.

use chaos::{run, Report, ScenarioOptions, Store, StoreExtra};

fn run_seed(seed: u64) -> Report<StoreExtra> {
    run(&Store, seed, &ScenarioOptions::default())
}

#[test]
fn same_seed_same_trace_and_resource_totals() {
    let a = run_seed(42);
    let b = run_seed(42);

    assert_eq!(a.trace_hash, b.trace_hash, "trace hashes diverged");
    assert_eq!(a.trace_events, b.trace_events, "event counts diverged");
    assert_eq!(a.trace_sample, b.trace_sample, "event streams diverged");

    // And so must the workload's outcome.
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.extra.commits, b.extra.commits);
    assert_eq!(a.extra.aborts, b.extra.aborts);
    assert_eq!(a.rebinds, b.rebinds);

    // The observability layer is part of the contract as well: the whole
    // metrics registry — the simulated CPU charged to every process,
    // everything the network did, and the hash of every span minted
    // across every call — must replay exactly.
    assert_eq!(a.metrics, b.metrics, "metrics diverged");
}

/// The multicast data plane is part of the same contract: one multicast
/// op fans out to many receivers inside a single event, and a replay
/// must schedule every copy identically.
#[test]
fn multicast_mode_replays_bit_identically() {
    let opts = ScenarioOptions {
        multicast_small_calls: true,
        ..ScenarioOptions::default()
    };
    let a = run(&Store, 42, &opts);
    let b = run(&Store, 42, &opts);

    assert_eq!(a.trace_hash, b.trace_hash, "trace hashes diverged");
    assert_eq!(a.metrics, b.metrics, "metrics diverged");

    // The mode actually engaged: troupe calls rode the multicast path.
    assert!(
        a.metrics.get("net.multicasts") > 0,
        "no multicasts in multicast mode"
    );

    // And it is a genuinely different data plane than unicast — fewer
    // datagrams enter the network per one-to-many call, so the two
    // modes' runs diverge. (The unicast run multicasts too: every commit
    // verdict a client returns to the store troupe.)
    let unicast = run_seed(42);
    let mcast_calls = |r: &Report<StoreExtra>| r.metrics.sum("rpc.", ".mcast_calls");
    assert!(mcast_calls(&a) > 0);
    assert_eq!(mcast_calls(&unicast), 0, "no call was multicast");
    assert_ne!(a.trace_hash, unicast.trace_hash);
}

#[test]
fn different_seeds_diverge() {
    let a = run_seed(1);
    let b = run_seed(2);
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "two different seeds produced identical traces"
    );
}
