//! Causal span propagation across a replicated call (§3.3's one-to-many
//! call): the client's `call` mints a root span, every member that the
//! network actually delivered the sub-call to contributes an `invoke`
//! child, and the assembled tree makes the fan-out legible — even with a
//! crashed replica, and identically for any seed.

use rdp::circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, Troupe, TroupeId,
};
use rdp::simnet::{Duration, HostId, SockAddr, World};

const MODULE: u16 = 3;
const PROC_ECHO: u16 = 0;

struct Echo;

impl Service for Echo {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        Step::Reply(args.to_vec())
    }
    fn get_state(&self) -> Vec<u8> {
        Vec::new()
    }
    fn set_state(&mut self, _state: &[u8]) {}
}

struct OneShot {
    troupe: Troupe,
    done: Option<Result<Vec<u8>, CallError>>,
}

impl Agent for OneShot {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        let t = nc.fresh_thread();
        let troupe = self.troupe.clone();
        nc.call(
            t,
            &troupe,
            MODULE,
            PROC_ECHO,
            b"ping".to_vec(),
            CollationPolicy::Majority,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.done = Some(result);
    }
}

/// Runs one one-to-many call against a 3-member troupe whose third
/// member is crashed before the call, then checks the span tree against
/// the registry's own delivery counters. With `multicast` set, the call
/// data travels as a single troupe-wide multicast per segment — which
/// also pins the `Ctx::multicast_spanned` fix: if the multicast dropped
/// the span (the old hardcoded `span: 0`), the members' `invoke` spans
/// would detach into extra roots and the tree assertions below fail.
fn crashed_replica_spans(seed: u64, multicast: bool) {
    let mut w = World::new(seed);
    let config = NodeConfig {
        multicast_small_calls: multicast,
        ..NodeConfig::default()
    };
    let id = TroupeId(9);
    let members: Vec<ModuleAddr> = (1..=3)
        .map(|h| ModuleAddr::new(SockAddr::new(HostId(h), 70), MODULE))
        .collect();
    for m in &members {
        let p = NodeBuilder::new(m.addr, config.clone())
            .service(MODULE, Box::new(Echo))
            .troupe_id(id)
            .build()
            .expect("valid node");
        w.spawn(m.addr, Box::new(p));
    }
    let client = SockAddr::new(HostId(10), 10);
    let p = NodeBuilder::new(client, config)
        .agent(Box::new(OneShot {
            troupe: Troupe::new(id, members.clone()),
            done: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));

    // One replica is down for the whole run.
    w.crash_host(members[2].addr.host);
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(30)));

    let done = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<OneShot>().unwrap().done.clone()
        })
        .unwrap();
    assert!(
        matches!(done, Some(Ok(_))),
        "majority collation should complete with 2/3 members: {done:?}"
    );

    // The registry's own delivery counters are the ground truth for how
    // many sub-calls actually reached a member.
    w.refresh_metrics();
    let reg = w.metrics();
    let delivered: u64 = members
        .iter()
        .map(|m| reg.get(&format!("rpc.{}.calls_delivered", m.addr)))
        .sum();
    assert_eq!(delivered, 2, "only the two live members get the sub-call");

    // The span tree for the one client call: a single `call` root whose
    // leaves are exactly the `invoke` spans of the members that executed.
    let tree = reg.span_tree();
    let roots = tree.roots_labeled(|l| l.starts_with("call "));
    assert_eq!(roots.len(), 1, "one app call, one root:\n{}", tree.render());
    let root = roots[0];
    assert_eq!(
        tree.leaf_count(root) as u64,
        delivered,
        "span leaves must match delivered sub-calls:\n{}",
        tree.render()
    );
    for leaf in tree.leaves(root) {
        assert!(
            leaf.label.starts_with("invoke "),
            "unexpected leaf {:?} in:\n{}",
            leaf.label,
            tree.render()
        );
    }
}

#[test]
fn span_tree_matches_deliveries_seed_7() {
    crashed_replica_spans(7, false);
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
