//! Whole-system integration tests spanning every crate: binding agent +
//! replicated transactions + reconfiguration + configuration language in
//! one world.

use rdp::circus::binding::{BINDING_MODULE, RINGMASTER_PORT};
use rdp::circus::testbed::{addr, agent, agent_mut, call, service, spawn_caller, spawn_troupe};
use rdp::circus::{ModuleAddr, NodeBuilder, NodeConfig, Troupe, TroupeId};
use rdp::configlang::{extend_troupe, parse, Machine, Universe, Value};
use rdp::ringmaster::{
    activation, registration, spawn_ringmaster, RingmasterService, SpareService, SPARE_CTL_MODULE,
};
use rdp::simnet::{Duration, HostId, SockAddr, Time, World};
use rdp::transactions::{CommitVoterService, ObjId, Op, TroupeStoreService, TxnClient};
use rdp::wire::from_bytes;

const STORE_MODULE: u16 = 1;
const COMMIT_MODULE: u16 = 2;

fn store() -> TroupeStoreService {
    TroupeStoreService::new(COMMIT_MODULE)
}

/// Spawns a transaction client (with its commit-voter module) at `a`.
fn spawn_txn_client(
    w: &mut World,
    a: SockAddr,
    config: &NodeConfig,
    troupe: &Troupe,
    script: Vec<Vec<Op>>,
) {
    let p = NodeBuilder::new(a, config.clone())
        .agent(Box::new(TxnClient::new(
            troupe.clone(),
            STORE_MODULE,
            script,
        )))
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
        .build()
        .expect("valid node");
    w.spawn(a, Box::new(p));
}

/// What the store member at `a` holds for `obj`.
fn read(w: &World, a: SockAddr, obj: ObjId) -> i64 {
    service(w, a, STORE_MODULE, |s: &TroupeStoreService| {
        s.tm().store().read_committed(obj)
    })
}

/// The whole story in one world: solve a placement with the config
/// language, spawn and register a transactional store troupe with the
/// Ringmaster, run conflicting transactions from two clients, crash a
/// member, join a replacement with state transfer, and run more
/// transactions — verifying exact agreement at every surviving replica.
#[test]
fn configured_replicated_transactional_store_survives_crash_and_heals() {
    let mut w = World::new(4096);
    let config = NodeConfig {
        assembly_timeout: Duration::from_millis(1500),
        ..NodeConfig::default()
    };

    // 1. Configuration language picks the machines.
    let mut universe = Universe::new();
    for h in 4..=9u32 {
        universe = universe
            .with(Machine::named(h, &format!("vax-{h}")).with("memory", Value::Num(8 + h as i64)));
    }
    let spec = parse("troupe(x, y, z) where x.memory >= 12 and y.memory >= 12 and z.memory >= 12")
        .unwrap();
    let placement = extend_troupe(&spec, &universe, &[]).expect("satisfiable");
    assert_eq!(placement.len(), 3);

    // 2. The Ringmaster troupe.
    let rm = spawn_ringmaster(&mut w, &[HostId(1), HostId(2), HostId(3)], config.clone());

    // 3. Spawn the store members on the chosen machines and register
    // them from the administrative process.
    let placed: Vec<SockAddr> = placement.iter().map(|&m| addr(m, 70)).collect();
    let members = spawn_troupe(
        &mut w,
        TroupeId::UNREGISTERED,
        &placed,
        STORE_MODULE,
        &config,
        Some(&rm),
        store,
    )
    .members;
    let registrar = spawn_caller(&mut w, addr(90, 10), config.clone(), None);
    let register = registration(&rm, "store", &members);
    let id = call(&mut w, registrar, register, Duration::from_secs(10)).expect("registered");
    let troupe = Troupe::new(from_bytes(&id).expect("a troupe id"), members.clone());
    w.run(simnet::Until::Time(Time::from_secs(10)));

    // 4. Two conflicting transaction clients.
    let c1 = SockAddr::new(HostId(50), 10);
    let c2 = SockAddr::new(HostId(51), 10);
    const A: ObjId = ObjId(1);
    const B: ObjId = ObjId(2);
    spawn_txn_client(
        &mut w,
        c1,
        &config,
        &troupe,
        vec![vec![Op::Add(A, 1), Op::Add(B, 1)]; 4],
    );
    spawn_txn_client(
        &mut w,
        c2,
        &config,
        &troupe,
        vec![vec![Op::Add(B, 1), Op::Add(A, 1)]; 4],
    );
    w.poke(c1, 0);
    w.poke(c2, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(600)));
    let assert_finished = |w: &World, c: SockAddr| {
        let (done, errors) = agent(w, c, |t: &TxnClient| (t.finished(), t.errors.clone()));
        assert!(done && errors.is_empty(), "client {c}: {errors:?}");
    };
    assert_finished(&w, c1);
    assert_finished(&w, c2);

    // 5. Crash one member; join a replacement with state transfer while
    // a third client is in the middle of its script (on an object of its
    // own, so A and B stay what the first two clients left).
    const C: ObjId = ObjId(3);
    let busy = SockAddr::new(HostId(53), 10);
    spawn_txn_client(
        &mut w,
        busy,
        &config,
        &troupe,
        vec![vec![Op::Add(C, 1)]; 12],
    );
    w.poke(busy, 0);
    w.run(simnet::Until::Elapsed(Duration::from_millis(500)));
    let victim = members[2].addr;
    w.crash_host(victim.host);
    let newbie = SockAddr::new(HostId(9), 70);
    assert!(w.is_alive(newbie) || !members.iter().any(|m| m.addr == newbie));
    let p = NodeBuilder::new(newbie, config.clone())
        .service(STORE_MODULE, Box::new(store()))
        .service(
            SPARE_CTL_MODULE,
            Box::new(SpareService::new(rm.clone(), "store", STORE_MODULE)),
        )
        .binder(rm.clone())
        .build()
        .expect("valid node");
    w.spawn(newbie, Box::new(p));
    let window = w.now() + Duration::from_secs(30);
    let join = activation(ModuleAddr::new(newbie, SPARE_CTL_MODULE), "store");
    let joined = call(&mut w, registrar, join, Duration::from_secs(30));
    assert!(joined.is_ok(), "{joined:?}");
    w.run(simnet::Until::Time(window));

    // The self-healing Ringmaster notices the crash on its own: it
    // probes the dead member, evicts it, and re-incarnates the troupe —
    // possibly *after* our manual join computed its incarnation. Wait
    // for the registry to converge and take the authoritative troupe
    // from it, as a rebinding client would (§6.2).
    let rm_leader = SockAddr::new(HostId(1), RINGMASTER_PORT);
    let registry_store = |w: &World| -> Option<Troupe> {
        service(w, rm_leader, BINDING_MODULE, |s: &RingmasterService| {
            s.lookup("store").cloned()
        })
    };
    let deadline = w.now() + Duration::from_secs(120);
    let converged = w.run(simnet::Until::pred(deadline, |w| {
        registry_store(w)
            .is_some_and(|t| t.members.len() == 3 && !t.members.iter().any(|m| m.addr == victim))
    }));
    assert!(converged, "registry: {:?}", registry_store(&w));
    let current = registry_store(&w).expect("store bound");
    assert!(current.members.iter().any(|m| m.addr == newbie));

    // The transferred state matches the survivors.
    assert_eq!(read(&w, newbie, A), 8);
    assert_eq!(read(&w, newbie, B), 8);

    // The busy client's binding went stale when the join re-incarnated
    // the troupe; hand it the new one, as a rebind would (§6.2).
    agent_mut(&mut w, busy, |t: &mut TxnClient| t.troupe = current.clone());

    // 6. More transactions against the NEW incarnation reach all three
    // current members (two survivors + the replacement).
    let c3 = SockAddr::new(HostId(52), 10);
    spawn_txn_client(&mut w, c3, &config, &current, vec![vec![Op::Add(A, 100)]]);
    w.poke(c3, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(60)));

    assert_finished(&w, busy);

    // The join happened under load: every commit the survivors made
    // before, during and after it is in the replacement too, once.
    let ledger = |w: &World, a: SockAddr| -> (u64, u64) {
        service(w, a, STORE_MODULE, |s: &TroupeStoreService| {
            (s.state_digest(), s.ledger().len())
        })
    };
    for m in [members[0].addr, members[1].addr, newbie] {
        assert_eq!(read(&w, m, A), 108, "member {m} diverged");
        assert_eq!(read(&w, m, B), 8, "member {m} diverged");
        assert_eq!(read(&w, m, C), 12, "member {m} diverged");
        assert_eq!(ledger(&w, m), ledger(&w, newbie), "member {m} diverged");
    }
}

/// The whole stack is deterministic: identical seeds give identical
/// final states; different seeds still agree on the protocol outcome.
#[test]
fn full_stack_outcome_is_seed_independent() {
    fn run(seed: u64) -> Vec<i64> {
        let mut w = World::new(seed);
        let config = NodeConfig {
            assembly_timeout: Duration::from_millis(1500),
            ..NodeConfig::default()
        };
        let members = [addr(1, 70), addr(2, 70), addr(3, 70)];
        let troupe = spawn_troupe(
            &mut w,
            TroupeId(1),
            &members,
            STORE_MODULE,
            &config,
            None,
            store,
        );
        let client = addr(10, 10);
        let script = vec![vec![Op::Add(ObjId(1), 7)], vec![Op::Add(ObjId(1), 5)]];
        spawn_txn_client(&mut w, client, &config, &troupe, script);
        w.poke(client, 0);
        w.run(simnet::Until::Elapsed(Duration::from_secs(120)));
        members.iter().map(|&m| read(&w, m, ObjId(1))).collect()
    }
    assert_eq!(run(1), vec![12, 12, 12]);
    assert_eq!(run(2), vec![12, 12, 12]);
    assert_eq!(run(1), run(1));
}
