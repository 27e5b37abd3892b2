//! Causal span propagation across a replicated call (§3.3's one-to-many
//! call): the client's `call` mints a root span, every member that the
//! network actually delivered the sub-call to contributes an `invoke`
//! child, and the assembled tree makes the fan-out legible — even with a
//! crashed replica, and identically for any seed.

mod golden;

use rdp::circus::testbed::{
    addr, call, spawn_caller, spawn_troupe, CountingService, Request, MODULE, PROC_ECHO,
};
use rdp::circus::{CollationPolicy, NodeConfig, TroupeId};
use rdp::simnet::{Duration, TraceRing, World};

/// Runs one one-to-many call against a 3-member troupe whose third
/// member is crashed before the call, then checks the span tree against
/// the registry's own delivery counters. With `multicast` set, the call
/// data travels as a single troupe-wide multicast per segment, whose
/// segment headers must carry the call's span like unicast ones: if they
/// dropped it, the members' `invoke` spans would detach into extra roots
/// and the tree assertions below fail. The forest is built from the
/// world's retained trace stream, where every span mint is an event.
fn crashed_replica_spans(seed: u64, multicast: bool) -> String {
    let mut w = World::new(seed);
    w.set_trace_sink(Box::new(TraceRing::unbounded()));
    let config = NodeConfig {
        multicast_small_calls: multicast,
        ..NodeConfig::default()
    };
    let members = [addr(1, 70), addr(2, 70), addr(3, 70)];
    let troupe = spawn_troupe(
        &mut w,
        TroupeId(9),
        &members,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    let client = spawn_caller(&mut w, addr(10, 10), config, None);

    // One replica is down for the whole run.
    w.crash_host(members[2].host);
    let ping = Request::new(&troupe, MODULE, PROC_ECHO, b"ping".to_vec())
        .collate(CollationPolicy::Majority);
    let done = call(&mut w, client, ping, Duration::from_secs(30));
    assert!(
        done.is_ok(),
        "majority collation should complete with 2/3 members: {done:?}"
    );
    w.run(simnet::Until::Time(rdp::simnet::Time::from_secs(30)));

    // The registry's own delivery counters are the ground truth for how
    // many sub-calls actually reached a member.
    let reg = w.metrics();
    let delivered: u64 = members
        .iter()
        .map(|m| reg.get(&format!("rpc.{m}.calls_delivered")))
        .sum();
    assert_eq!(delivered, 2, "only the two live members get the sub-call");

    // The span tree for the one client call: a single `call` root whose
    // leaves are exactly the `invoke` spans of the members that executed.
    let ring = w.trace_sink_as::<TraceRing>().expect("installed above");
    let tree = ring.span_tree(&reg);
    let roots: Vec<u64> = tree
        .roots()
        .iter()
        .copied()
        .filter(|&id| {
            tree.record(id)
                .is_some_and(|r| r.label.starts_with("call "))
        })
        .collect();
    assert_eq!(roots.len(), 1, "one app call, one root:\n{}", tree.render());
    let leaves = tree.leaves(roots[0]);
    assert_eq!(
        leaves.len() as u64,
        delivered,
        "span leaves must match delivered sub-calls:\n{}",
        tree.render()
    );
    for leaf in leaves {
        assert!(
            leaf.label.starts_with("invoke "),
            "unexpected leaf {:?} in:\n{}",
            leaf.label,
            tree.render()
        );
    }
    tree.render()
}

#[test]
fn span_tree_matches_deliveries_seed_7() {
    crashed_replica_spans(7, false);
}

/// The four forests above, byte for byte: how the tree is kept may
/// change, the tree may not.
#[test]
fn span_forests_match_the_golden() {
    let mut forests = String::new();
    for (seed, multicast) in [(7, false), (1985, false), (7, true), (1985, true)] {
        forests.push_str(&format!("## seed {seed} multicast {multicast}\n"));
        forests.push_str(&crashed_replica_spans(seed, multicast));
    }
    golden::check_golden("tests/golden/span_forests.txt", &forests);
}

#[test]
fn span_tree_matches_deliveries_seed_1985() {
    crashed_replica_spans(1985, false);
}

#[test]
fn span_tree_matches_deliveries_multicast_seed_7() {
    crashed_replica_spans(7, true);
}

#[test]
fn span_tree_matches_deliveries_multicast_seed_1985() {
    crashed_replica_spans(1985, true);
}
