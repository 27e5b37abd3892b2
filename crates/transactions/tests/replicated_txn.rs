//! End-to-end tests of replicated transactions: the troupe commit
//! protocol under no conflict, conflict, and opposite lock orders; the
//! ordered broadcast protocol's identical-order guarantee; both broadcast and
//! commutative clients reaching every member through a partition; a
//! wedged member's refusal collating with its peers' abort; and a stale
//! binding winning over a dead member.

use circus::testbed::{addr, agent, call, node_mut, service, spawn_troupe};
use circus::{Agent, CallError, CallHandle, NodeBuilder, NodeConfig, NodeCtx, Troupe, TroupeId};
use simnet::{Duration, HostId, Partition, SockAddr, Until, World};
use transactions::{
    AppliedOrder, Broadcaster, CmBatch, CmClient, CmOp, CommitVoterService, CommutativeService,
    ExecuteRequest, ObjId, Op, OrderedApply, OrderedBroadcastService, ProposeAccept, Protocol,
    TroupeStoreService, TxnClient, TxnOutcome, PROC_EXECUTE,
};
use wire::{from_bytes, to_bytes};

/// Module numbers.
const STORE_MODULE: u16 = 1;
const COMMIT_MODULE: u16 = 2;

const A: ObjId = ObjId(1);
const B: ObjId = ObjId(2);

/// Node config with a short vote-assembly timeout, so a silent member
/// costs little in tests.
fn config() -> NodeConfig {
    NodeConfig {
        assembly_timeout: Duration::from_millis(1500),
        ..NodeConfig::default()
    }
}

/// Spawns a transactional store troupe of `n` members.
fn spawn_store_troupe(w: &mut World, n: u32) -> Troupe {
    let addrs: Vec<SockAddr> = (1..=n).map(|h| addr(h, 70)).collect();
    spawn_troupe(
        w,
        TroupeId(77),
        &addrs,
        STORE_MODULE,
        &config(),
        None,
        || TroupeStoreService::new(COMMIT_MODULE),
    )
}

/// Spawns a transaction client (with its commit-voter module) at `a`.
fn spawn_txn_client(w: &mut World, a: SockAddr, troupe: Troupe, script: Vec<Vec<Op>>) {
    let p = NodeBuilder::new(a, config())
        .agent(Box::new(TxnClient::new(troupe, STORE_MODULE, script)))
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
        .build()
        .expect("valid node");
    w.spawn(a, Box::new(p));
}

fn client_state(w: &World, a: SockAddr) -> (bool, Vec<Vec<i64>>, u32, Vec<String>) {
    agent(w, a, |c: &TxnClient| {
        (
            c.finished(),
            c.committed.clone(),
            c.aborts,
            c.errors.clone(),
        )
    })
}

fn member_committed(w: &World, m: SockAddr, obj: ObjId) -> i64 {
    service(w, m, STORE_MODULE, |s: &TroupeStoreService| {
        s.tm().store().read_committed(obj)
    })
}

#[test]
fn single_client_transactions_commit_everywhere() {
    let mut w = World::new(1);
    let troupe = spawn_store_troupe(&mut w, 3);
    let client = addr(10, 50);
    spawn_txn_client(
        &mut w,
        client,
        troupe.clone(),
        vec![
            vec![Op::Write(A, 100)],
            vec![Op::Add(A, 5), Op::Read(A)],
            vec![Op::Add(B, 7)],
        ],
    );
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(30)));

    let (finished, committed, _aborts, errors) = client_state(&w, client);
    assert!(finished, "script incomplete: {committed:?} {errors:?}");
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(committed, vec![vec![100], vec![105, 105], vec![7]]);
    for m in &troupe.members {
        assert_eq!(member_committed(&w, m.addr, A), 105);
        assert_eq!(member_committed(&w, m.addr, B), 7);
    }
}

#[test]
fn non_conflicting_clients_commit_in_parallel() {
    let mut w = World::new(2);
    let troupe = spawn_store_troupe(&mut w, 3);
    let c1 = addr(10, 50);
    let c2 = addr(11, 50);
    spawn_txn_client(&mut w, c1, troupe.clone(), vec![vec![Op::Add(A, 1)]; 3]);
    spawn_txn_client(&mut w, c2, troupe.clone(), vec![vec![Op::Add(B, 1)]; 3]);
    w.poke(c1, 0);
    w.poke(c2, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(60)));

    for c in [c1, c2] {
        let (finished, _, _, errors) = client_state(&w, c);
        assert!(finished && errors.is_empty(), "client {c}: {errors:?}");
    }
    for m in &troupe.members {
        assert_eq!(member_committed(&w, m.addr, A), 3);
        assert_eq!(member_committed(&w, m.addr, B), 3);
    }
}

#[test]
fn conflicting_clients_serialize_identically_at_all_members() {
    // The heart of Chapter 5: concurrent conflicting transactions must
    // commit in the SAME order at every member (troupe consistency),
    // with divergent orders resolved through abort and retry.
    let mut w = World::new(3);
    let troupe = spawn_store_troupe(&mut w, 3);
    let clients: Vec<SockAddr> = (0..4).map(|i| addr(10 + i, 50)).collect();
    for (i, &c) in clients.iter().enumerate() {
        // Everyone increments the same two objects — maximal conflict.
        let script = vec![vec![Op::Add(A, 1), Op::Add(B, 10 + i as i64)]; 3];
        spawn_txn_client(&mut w, c, troupe.clone(), script);
    }
    for &c in &clients {
        w.poke(c, 0);
    }
    w.run(simnet::Until::Elapsed(Duration::from_secs(600)));

    let mut total_aborts = 0;
    for &c in &clients {
        let (finished, committed, aborts, errors) = client_state(&w, c);
        assert!(
            finished && errors.is_empty(),
            "client {c} stuck: committed={committed:?} aborts={aborts} errors={errors:?}"
        );
        total_aborts += aborts;
    }
    let _ = total_aborts; // Conflict may or may not trigger aborts per seed.

    // All 12 increments of A committed exactly once at every member.
    for m in &troupe.members {
        assert_eq!(member_committed(&w, m.addr, A), 12);
    }
    // B's final value is order-dependent; consistency requires it to be
    // IDENTICAL at all members (Theorem 5.1's consequence).
    let b0 = member_committed(&w, troupe.members[0].addr, B);
    for m in &troupe.members {
        assert_eq!(member_committed(&w, m.addr, B), b0, "members diverged on B");
    }
}

#[test]
fn aborted_transactions_leave_no_trace() {
    // A client whose transaction is overtaken (forced by lock ordering)
    // retries; intermediate aborts must not affect state.
    let mut w = World::new(4);
    let troupe = spawn_store_troupe(&mut w, 2);
    let c1 = addr(10, 50);
    let c2 = addr(11, 50);
    // Opposite lock orders maximize the chance of a cycle of waits.
    spawn_txn_client(
        &mut w,
        c1,
        troupe.clone(),
        vec![vec![Op::Add(A, 1), Op::Add(B, 1)]; 4],
    );
    spawn_txn_client(
        &mut w,
        c2,
        troupe.clone(),
        vec![vec![Op::Add(B, 1), Op::Add(A, 1)]; 4],
    );
    w.poke(c1, 0);
    w.poke(c2, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(600)));

    for c in [c1, c2] {
        let (finished, _, _, errors) = client_state(&w, c);
        assert!(finished && errors.is_empty(), "client {c}: {errors:?}");
    }
    for m in &troupe.members {
        assert_eq!(member_committed(&w, m.addr, A), 8, "A at {}", m.addr);
        assert_eq!(member_committed(&w, m.addr, B), 8, "B at {}", m.addr);
    }
}

/// A member wedged for a membership change (§6.4.1) refuses a
/// transaction at once, and its peers, whose `ready_to_commit` round
/// misses its vote, abort it: the refusal is the same outcome as their
/// abort, so the client's Unanimous collation sees one `Aborted`, not a
/// `Disagreement` (a determinism violation that is not one).
#[test]
fn a_wedged_member_refuses_with_the_abort_its_peers_give() {
    let mut w = World::new(5);
    let troupe = spawn_store_troupe(&mut w, 3);
    let client = addr(10, 50);
    spawn_troupe(
        &mut w,
        TroupeId::UNREGISTERED,
        &[client],
        COMMIT_MODULE,
        &config(),
        None,
        || CommitVoterService,
    );
    let wedged = Troupe::new(TroupeId::UNREGISTERED, vec![troupe.members[2]]);
    let wedge = circus::binding::reserved_procs::WEDGE;
    let wedge = circus::testbed::Request::new(&wedged, STORE_MODULE, wedge, Vec::new());
    let patience = Duration::from_secs(30);
    assert_eq!(call(&mut w, client, wedge, patience), Ok(Vec::new()));

    let ops = vec![Op::Add(A, 1)];
    // The request, then its submission time: the stamp's first half.
    let txn = to_bytes(&(ExecuteRequest { nonce: 1, ops }, 0u64));
    let txn = circus::testbed::Request::new(&troupe, STORE_MODULE, PROC_EXECUTE, txn);
    let outcome = call(&mut w, client, txn, patience).expect("one outcome");
    let outcome = from_bytes::<TxnOutcome>(&outcome).expect("an outcome");
    assert!(matches!(outcome, TxnOutcome::Aborted(_)), "{outcome:?}");
    assert_eq!(w.metrics().get("txn.wedge_refusals"), 1);
    for m in &troupe.members {
        assert_eq!(member_committed(&w, m.addr, A), 0, "at {}", m.addr);
    }
}

// ---------------------------------------------------------------------
// Ordered broadcast (§5.4).
// ---------------------------------------------------------------------

/// Deterministic app: a log of payload bytes.
struct LogApp {
    log: Vec<Vec<u8>>,
}

impl OrderedApply for LogApp {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.log.push(payload.to_vec());
        to_bytes(&(self.log.len() as u32))
    }

    fn snapshot(&self) -> Vec<u8> {
        to_bytes(&self.log)
    }

    fn restore(&mut self, state: &[u8]) {
        if let Ok(log) = from_bytes(state) {
            self.log = log;
        }
    }
}

const BCAST_MODULE: u16 = 3;

fn spawn_broadcast_troupe(w: &mut World, n: u32) -> Troupe {
    let addrs: Vec<SockAddr> = (1..=n).map(|h| addr(h, 71)).collect();
    let config = NodeConfig::default();
    spawn_troupe(w, TroupeId(88), &addrs, BCAST_MODULE, &config, None, || {
        OrderedBroadcastService::new(LogApp { log: Vec::new() })
    })
}

/// Spawns `n` broadcasters at port 50 of hosts 20.., broadcaster `i`
/// with `count` two-byte messages `[i, k]`, and returns their addresses.
fn spawn_broadcasters(w: &mut World, troupe: &Troupe, n: u32, count: u8) -> Vec<SockAddr> {
    let senders: Vec<SockAddr> = (0..n).map(|i| addr(20 + i, 50)).collect();
    for (i, &s) in senders.iter().enumerate() {
        let msgs: Vec<Vec<u8>> = (0..count).map(|k| vec![i as u8, k]).collect();
        let first_id = (i as u64 + 1) * 1000;
        let p = NodeBuilder::new(s, NodeConfig::default())
            .agent(Box::new(Broadcaster::new(
                troupe.clone(),
                BCAST_MODULE,
                first_id,
                msgs,
            )))
            .build()
            .expect("valid node");
        w.spawn(s, Box::new(p));
    }
    senders
}

/// What member `m` applied, in order: the folded id order, and the
/// app's own log of the payloads.
fn applied_order(w: &World, m: SockAddr) -> (AppliedOrder, Vec<Vec<u8>>) {
    let view = |s: &OrderedBroadcastService<LogApp>| (s.applied_order.clone(), s.app().log.clone());
    service(w, m, BCAST_MODULE, view)
}

#[test]
fn ordered_broadcast_identical_order_at_all_members() {
    let mut w = World::new(5);
    let troupe = spawn_broadcast_troupe(&mut w, 3);
    // Three concurrent broadcasters, interleaved in time.
    let senders = spawn_broadcasters(&mut w, &troupe, 3, 5);
    for &s in &senders {
        w.poke(s, 0);
    }
    w.run(simnet::Until::Elapsed(Duration::from_secs(120)));

    for &s in &senders {
        let finished = agent(&w, s, |b: &Broadcaster| b.finished());
        assert!(finished, "broadcaster {s} incomplete");
    }

    // Every member accepted all 15 messages in the SAME total order.
    let order0 = applied_order(&w, troupe.members[0].addr);
    assert_eq!((order0.0.len(), order0.1.len()), (15, 15));
    for m in &troupe.members[1..] {
        assert_eq!(
            applied_order(&w, m.addr),
            order0,
            "member {} diverged",
            m.addr
        );
    }
}

#[test]
fn ordered_broadcast_no_starvation_under_contention() {
    // Unlike the optimistic commit protocol, ordered broadcast makes
    // progress without any aborts regardless of contention (§5.4).
    let mut w = World::new(6);
    let troupe = spawn_broadcast_troupe(&mut w, 3);
    let senders = spawn_broadcasters(&mut w, &troupe, 6, 10);
    for &s in &senders {
        w.poke(s, 0);
    }
    w.run(simnet::Until::Elapsed(Duration::from_secs(300)));

    for &s in &senders {
        let (finished, errors) = agent(&w, s, |b: &Broadcaster| (b.finished(), b.errors.clone()));
        assert!(finished && errors.is_empty(), "broadcaster {s}: {errors:?}");
    }
    let order0 = applied_order(&w, troupe.members[0].addr);
    assert_eq!((order0.0.len(), order0.1.len()), (60, 60));
    for m in &troupe.members[1..] {
        assert_eq!(applied_order(&w, m.addr), order0);
    }
}

// ---------------------------------------------------------------------
// A member partitioned away for longer than the crash horizon.
// ---------------------------------------------------------------------

/// Isolates member host 3 300 ms into the run, heals the partition 60 s
/// later (well past the paired-message crash horizon, so the clients'
/// calls see the member dead for a while), and runs on to 600 s.
fn partition_member_three(w: &mut World) {
    w.run(Until::Elapsed(Duration::from_millis(300)));
    w.set_partition(Partition::isolate(vec![HostId(3)]));
    w.run(Until::Elapsed(Duration::from_secs(60)));
    w.set_partition(Partition::none());
    w.run(Until::Elapsed(Duration::from_secs(600)));
}

#[test]
fn broadcast_reaches_a_member_partitioned_past_the_crash_horizon() {
    let mut w = World::new(7);
    let troupe = spawn_broadcast_troupe(&mut w, 3);
    let senders = spawn_broadcasters(&mut w, &troupe, 1, 8);
    w.poke(senders[0], 0);
    partition_member_three(&mut w);

    let (finished, errors) = agent(&w, senders[0], |b: &Broadcaster| {
        (b.finished(), b.errors.clone())
    });
    assert!(finished && errors.is_empty(), "broadcaster: {errors:?}");
    let order0 = applied_order(&w, troupe.members[0].addr);
    assert_eq!((order0.0.len(), order0.1.len()), (8, 8));
    for m in &troupe.members[1..] {
        assert_eq!(applied_order(&w, m.addr), order0, "member {}", m.addr);
    }
}

#[test]
fn commutative_ops_reach_a_member_partitioned_past_the_crash_horizon() {
    const CM_MODULE: u16 = 4;
    let mut w = World::new(7);
    let addrs: Vec<SockAddr> = (1..=3).map(|h| addr(h, 72)).collect();
    let config = NodeConfig::default();
    let troupe = spawn_troupe(
        &mut w,
        TroupeId(99),
        &addrs,
        CM_MODULE,
        &config,
        None,
        CommutativeService::new,
    );
    let client = addr(30, 50);
    let script = vec![vec![CmOp::Incr(ObjId(1), 1)]; 8];
    let p = NodeBuilder::new(client, config)
        .agent(Box::new(CmClient::new(troupe, CM_MODULE, 1_000, script)))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    partition_member_three(&mut w);

    let (finished, errors) = agent(&w, client, |c: &CmClient| (c.finished(), c.errors.clone()));
    assert!(finished && errors.is_empty(), "client: {errors:?}");
    let counters: Vec<i64> = addrs
        .iter()
        .map(|&m| {
            service(&w, m, CM_MODULE, |s: &CommutativeService| {
                s.counter(ObjId(1))
            })
        })
        .collect();
    assert_eq!(counters, [8, 8, 8]);
}

// ---------------------------------------------------------------------
// A stale binding to a troupe with a dead member.
// ---------------------------------------------------------------------

/// Sends, on each poke, the first request its protocol makes for `item`
/// to the troupe it holds, and keeps every result.
struct FirstRequest<P: Protocol> {
    proto: P,
    item: P::Item,
    troupe: Troupe,
    module: u16,
    results: Vec<Result<Vec<u8>, CallError>>,
}

impl<P: Protocol> Agent for FirstRequest<P> {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.proto.start();
        let (proc, args, collation) = self.proto.request(&self.item, nc.now());
        let thread = nc.fresh_thread();
        nc.call(thread, &self.troupe, self.module, proc, args, collation);
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.results.push(result);
    }
}

/// Member 1's process dies, and the survivors move on to incarnation 89
/// while the client still holds 88. The client's first call learns the
/// death; its second, with the member under the dead-peer marker that
/// death left, must still hear a survivor's `WrongTroupe`, or the client
/// retries its stale binding until the marker lapses.
fn stale_binding_wins_over_a_dead_member<P: Protocol, S: circus::Service>(
    module: u16,
    item: P::Item,
    proto: P,
    service: impl FnMut() -> S,
) {
    let mut w = World::new(9);
    let addrs: Vec<SockAddr> = (1..=3).map(|h| addr(h, 73)).collect();
    let config = NodeConfig::default();
    let troupe = spawn_troupe(&mut w, TroupeId(88), &addrs, module, &config, None, service);
    let client = addr(30, 50);
    let agent_of = FirstRequest {
        proto,
        item,
        troupe,
        module,
        results: Vec::new(),
    };
    let p = NodeBuilder::new(client, config)
        .agent(Box::new(agent_of))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));

    w.kill(addrs[0]);
    let results = |w: &World| agent(w, client, |a: &FirstRequest<P>| a.results.clone());
    let called = |n: usize| move |w: &World| results(w).len() == n;
    w.poke(client, 0);
    let deadline = w.now() + Duration::from_secs(6);
    assert!(w.run(Until::pred(deadline, called(1))), "the first call");
    for &m in &addrs[1..] {
        node_mut(&mut w, m, |n| n.set_troupe_id(TroupeId(89)));
    }
    w.poke(client, 0);
    let deadline = w.now() + Duration::from_secs(1);
    assert!(w.run(Until::pred(deadline, called(2))), "the second call");
    let last = results(&w).pop().expect("two results");
    assert_eq!(last, Err(CallError::StaleBinding(Some(TroupeId(89)))));
}

#[test]
fn a_stale_binding_wins_over_a_dead_member_in_propose_and_in_commutative_calls() {
    stale_binding_wins_over_a_dead_member(BCAST_MODULE, vec![1], ProposeAccept::new(1), || {
        OrderedBroadcastService::new(LogApp { log: Vec::new() })
    });
    let batch = vec![CmOp::Incr(ObjId(1), 1)];
    let commutative = CommutativeService::new;
    stale_binding_wins_over_a_dead_member(4, batch, CmBatch::new(1), commutative);
}
