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

    // Resource accounting is part of the determinism contract too: the
    // simulated CPU charged to every process and everything the network
    // did must replay exactly.
    assert_eq!(a.cpu_total, b.cpu_total, "CPU totals diverged");
    assert_eq!(a.net.sent, b.net.sent);
    assert_eq!(a.net.delivered, b.net.delivered);
    assert_eq!(a.net.lost, b.net.lost);
    assert_eq!(a.net.duplicated, b.net.duplicated);
    assert_eq!(a.net.partitioned, b.net.partitioned);
    assert_eq!(a.net.undeliverable, b.net.undeliverable);
    assert_eq!(a.net.multicasts, b.net.multicasts);

    // And so must the workload's outcome.
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.extra.commits, b.extra.commits);
    assert_eq!(a.extra.aborts, b.extra.aborts);
    assert_eq!(a.rebinds, b.rebinds);

    // The observability layer is part of the contract as well: the full
    // metrics registry must dump to the same bytes, and the causal span
    // forest (every span minted across every call) must hash identically.
    assert_eq!(a.metrics_json, b.metrics_json, "metrics dumps diverged");
    assert_eq!(a.span_hash, b.span_hash, "span trees diverged");
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
    assert_eq!(a.cpu_total, b.cpu_total, "CPU totals diverged");
    assert_eq!(a.net.sent, b.net.sent);
    assert_eq!(a.net.multicasts, b.net.multicasts);
    assert_eq!(a.metrics_json, b.metrics_json, "metrics dumps diverged");
    assert_eq!(a.span_hash, b.span_hash, "span trees diverged");

    // The mode actually engaged: troupe calls rode the multicast path.
    assert!(a.net.multicasts > 0, "no multicasts in multicast mode");

    // And it is a genuinely different data plane than unicast — fewer
    // datagrams enter the network per one-to-many call, so the two
    // modes' runs diverge. (The unicast run multicasts too: every commit
    // verdict a client returns to the store troupe.)
    let unicast = run_seed(42);
    assert!(mcast_calls(&a) > 0);
    assert_eq!(mcast_calls(&unicast), 0, "no call was multicast");
    assert_ne!(a.trace_hash, unicast.trace_hash);
}

/// Every node's `rpc.<addr>.mcast_calls`, summed out of the run's dump.
fn mcast_calls(r: &Report<StoreExtra>) -> u64 {
    let each = r.metrics_json.split(".mcast_calls\":").skip(1);
    each.map(|rest| {
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse::<u64>().ok()).expect("a count")
    })
    .sum()
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
