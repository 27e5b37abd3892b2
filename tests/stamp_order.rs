//! Theorem 5.1's deadlocks end in one round trip.
//!
//! Members that serialize two conflicting transactions in different
//! orders would leave both vote assemblies incomplete until the assembly
//! timeout (§5.3.1). Each execute call carries its client's clock at
//! submission, and a member never lets an older transaction wait behind
//! a younger one: the member that ordered the two against their stamps
//! votes no at once, the older aborts everywhere, and its client retries.
//! So clients in maximal conflict finish in less than one assembly
//! timeout, and no assembly proceeds on its timeout.

use circus::testbed::{addr, agent, service, spawn_troupe};
use circus::{NodeBuilder, NodeConfig, Troupe, TroupeId};
use simnet::{Duration, SockAddr, Until, World};
use transactions::{CommitVoterService, ObjId, Op, TroupeStoreService, TxnClient};

const STORE_MODULE: u16 = 1;
const COMMIT_MODULE: u16 = 2;
const A: ObjId = ObjId(1);
const B: ObjId = ObjId(2);

/// The vote-assembly timeout: the chaos workloads' 1.5 s.
const ASSEMBLY_TIMEOUT: Duration = Duration::from_millis(1500);

fn config() -> NodeConfig {
    NodeConfig {
        assembly_timeout: ASSEMBLY_TIMEOUT,
        ..NodeConfig::default()
    }
}

fn spawn_store(w: &mut World) -> Troupe {
    let members: Vec<SockAddr> = (1..=3).map(|h| addr(h, 70)).collect();
    spawn_troupe(
        w,
        TroupeId(77),
        &members,
        STORE_MODULE,
        &config(),
        None,
        || TroupeStoreService::new(COMMIT_MODULE),
    )
}

fn spawn_client(w: &mut World, a: SockAddr, troupe: Troupe, script: Vec<Vec<Op>>) {
    let p = NodeBuilder::new(a, config())
        .agent(Box::new(TxnClient::new(troupe, STORE_MODULE, script)))
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
        .build()
        .expect("valid node");
    w.spawn(a, Box::new(p));
}

/// Pokes every client at once, then requires each to have finished its
/// script within one assembly timeout, and the world to show no assembly
/// that proceeded on its timeout even long after. Returns the members'
/// committed values of A and B.
fn finish_within_one_timeout(w: &mut World, troupe: &Troupe, clients: &[SockAddr]) -> Vec<i64> {
    for &c in clients {
        w.poke(c, 0);
    }
    w.run(Until::Elapsed(ASSEMBLY_TIMEOUT));
    for &c in clients {
        let (finished, committed, aborts) = agent(w, c, |t: &TxnClient| {
            (t.finished(), t.committed.len(), t.aborts)
        });
        assert!(
            finished,
            "client {c}: {committed} committed, {aborts} aborts at {:?}",
            w.now()
        );
    }
    w.run(Until::Elapsed(Duration::from_secs(10)));
    assert_eq!(w.metrics().get("rpc.assembly_timeouts"), 0);
    let values = |m: SockAddr| {
        service(w, m, STORE_MODULE, |s: &TroupeStoreService| {
            [A, B].map(|o| s.tm().store().read_committed(o))
        })
    };
    let first = values(troupe.members[0].addr);
    for m in &troupe.members {
        assert_eq!(values(m.addr), first, "members diverged");
    }
    first.to_vec()
}

/// Four clients, poked together, each incrementing the same two objects
/// three times: maximal conflict, and jitter orders their execute calls
/// differently at different members.
#[test]
fn four_conflicting_clients_finish_within_one_assembly_timeout() {
    for seed in 1..=20 {
        let mut w = World::new(seed);
        let troupe = spawn_store(&mut w);
        let clients: Vec<SockAddr> = (0..4).map(|i| addr(10 + i, 50)).collect();
        for (i, &c) in clients.iter().enumerate() {
            let script = vec![vec![Op::Add(A, 1), Op::Add(B, 10 + i as i64)]; 3];
            spawn_client(&mut w, c, troupe.clone(), script);
        }
        let values = finish_within_one_timeout(&mut w, &troupe, &clients);
        assert_eq!(values[0], 12, "seed {seed}");
    }
}

/// Two clients submitting in the same microsecond, one calling the
/// members in the troupe's order and the other in reverse: the first
/// member hears one first and the last member the other, whatever the
/// jitter.
#[test]
fn a_client_calling_the_members_in_reverse_order_costs_no_timeout() {
    for seed in 1..=20 {
        let mut w = World::new(seed);
        let troupe = spawn_store(&mut w);
        let mut reversed = troupe.clone();
        reversed.members.reverse();
        let clients = [addr(10, 50), addr(11, 50)];
        let script = vec![vec![Op::Add(A, 1), Op::Add(B, 1)]; 3];
        spawn_client(&mut w, clients[0], troupe.clone(), script.clone());
        spawn_client(&mut w, clients[1], reversed, script);
        let values = finish_within_one_timeout(&mut w, &troupe, &clients);
        assert_eq!(values, [6, 6], "seed {seed}");
    }
}
