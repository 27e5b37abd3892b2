//! Whole-system integration tests spanning every crate: binding agent +
//! replicated transactions + reconfiguration + configuration language in
//! one world.

use rdp::circus::binding::{binding_procs, BINDING_MODULE, RINGMASTER_PORT};
use rdp::circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Troupe, TroupeId,
};
use rdp::configlang::{extend_troupe, parse, Machine, Universe, Value};
use rdp::ringmaster::{
    activate, spawn_ringmaster, RegisterTroupe, RingmasterService, SpareService, SPARE_CTL_MODULE,
};
use rdp::simnet::{Duration, HostId, SockAddr, World};
use rdp::transactions::{CommitVoterService, ObjId, Op, TroupeStoreService, TxnClient};
use rdp::wire::{from_bytes, to_bytes};

const STORE_MODULE: u16 = 1;
const COMMIT_MODULE: u16 = 2;

/// The administrative process: registers the troupe (poke 0) and tells
/// a replacement started on host `h` to join it (poke `h`).
struct Registrar {
    binder: Troupe,
    req: RegisterTroupe,
    id: Option<TroupeId>,
    joined: Option<Result<Vec<u8>, CallError>>,
}

impl Agent for Registrar {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        if tag != 0 {
            let replacement = SockAddr::new(HostId(tag as u32), 70);
            activate(
                nc,
                ModuleAddr::new(replacement, SPARE_CTL_MODULE),
                &self.req.name,
            );
            return;
        }
        let t = nc.fresh_thread();
        let binder = self.binder.clone();
        nc.call(
            t,
            &binder,
            BINDING_MODULE,
            binding_procs::REGISTER_TROUPE,
            to_bytes(&self.req),
            CollationPolicy::Majority,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if self.id.is_some() {
            self.joined = Some(result);
        } else if let Ok(bytes) = result {
            self.id = from_bytes(&bytes).ok();
        }
    }
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

    // 3. Spawn the store members on the chosen machines and register.
    let members: Vec<ModuleAddr> = placement
        .iter()
        .map(|&m| ModuleAddr::new(SockAddr::new(HostId(m), 70), STORE_MODULE))
        .collect();
    for m in &members {
        let p = NodeBuilder::new(m.addr, config.clone())
            .service(
                STORE_MODULE,
                Box::new(TroupeStoreService::new(COMMIT_MODULE)),
            )
            .binder(rm.clone())
            .build()
            .expect("valid node");
        w.spawn(m.addr, Box::new(p));
    }
    let registrar = SockAddr::new(HostId(90), 10);
    let p = NodeBuilder::new(registrar, config.clone())
        .agent(Box::new(Registrar {
            binder: rm.clone(),
            req: RegisterTroupe {
                name: "store".into(),
                members: members.clone(),
            },
            id: None,
            joined: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(registrar, Box::new(p));
    w.poke(registrar, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    let id = w
        .with_proc(registrar, |p: &CircusProcess| {
            p.agent_as::<Registrar>().unwrap().id
        })
        .unwrap()
        .expect("registered");
    let troupe = Troupe::new(id, members.clone());

    // 4. Two conflicting transaction clients.
    let c1 = SockAddr::new(HostId(50), 10);
    let c2 = SockAddr::new(HostId(51), 10);
    const A: ObjId = ObjId(1);
    const B: ObjId = ObjId(2);
    for (addr, script) in [
        (c1, vec![vec![Op::Add(A, 1), Op::Add(B, 1)]; 4]),
        (c2, vec![vec![Op::Add(B, 1), Op::Add(A, 1)]; 4]),
    ] {
        let p = NodeBuilder::new(addr, config.clone())
            .agent(Box::new(TxnClient::new(
                troupe.clone(),
                STORE_MODULE,
                script,
            )))
            .service(COMMIT_MODULE, Box::new(CommitVoterService))
            .build()
            .expect("valid node");
        w.spawn(addr, Box::new(p));
    }
    w.poke(c1, 0);
    w.poke(c2, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(600)));
    let assert_finished = |w: &World, c: SockAddr| {
        let (done, errors) = w
            .with_proc(c, |p: &CircusProcess| {
                let t = p.agent_as::<TxnClient>().unwrap();
                (t.finished(), t.errors.clone())
            })
            .unwrap();
        assert!(done && errors.is_empty(), "client {c}: {errors:?}");
    };
    assert_finished(&w, c1);
    assert_finished(&w, c2);

    // 5. Crash one member; join a replacement with state transfer while
    // a third client is in the middle of its script (on an object of its
    // own, so A and B stay what the first two clients left).
    const C: ObjId = ObjId(3);
    let busy = SockAddr::new(HostId(53), 10);
    let p = NodeBuilder::new(busy, config.clone())
        .agent(Box::new(TxnClient::new(
            troupe.clone(),
            STORE_MODULE,
            vec![vec![Op::Add(C, 1)]; 12],
        )))
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
        .build()
        .expect("valid node");
    w.spawn(busy, Box::new(p));
    w.poke(busy, 0);
    w.run(simnet::Until::Elapsed(Duration::from_millis(500)));
    let victim = members[2].addr;
    w.crash_host(victim.host);
    let newbie = SockAddr::new(HostId(9), 70);
    assert!(w.is_alive(newbie) || !members.iter().any(|m| m.addr == newbie));
    let p = NodeBuilder::new(newbie, config.clone())
        .service(
            STORE_MODULE,
            Box::new(TroupeStoreService::new(COMMIT_MODULE)),
        )
        .service(
            SPARE_CTL_MODULE,
            Box::new(SpareService::new(rm.clone(), "store", STORE_MODULE)),
        )
        .binder(rm.clone())
        .build()
        .expect("valid node");
    w.spawn(newbie, Box::new(p));
    w.poke(registrar, u64::from(newbie.host.0));
    w.run(simnet::Until::Elapsed(Duration::from_secs(30)));
    let joined = w
        .with_proc(registrar, |p: &CircusProcess| {
            p.agent_as::<Registrar>().unwrap().joined.clone()
        })
        .unwrap();
    assert!(matches!(joined, Some(Ok(_))), "{joined:?}");

    // The self-healing Ringmaster notices the crash on its own: it
    // probes the dead member, evicts it, and re-incarnates the troupe —
    // possibly *after* our manual join computed its incarnation. Wait
    // for the registry to converge and take the authoritative troupe
    // from it, as a rebinding client would (§6.2).
    let rm_leader = SockAddr::new(HostId(1), RINGMASTER_PORT);
    let registry_store = |w: &World| -> Option<Troupe> {
        w.with_proc(rm_leader, |p: &CircusProcess| {
            p.node()
                .service_as::<RingmasterService>(BINDING_MODULE)
                .unwrap()
                .lookup("store")
                .cloned()
        })
        .unwrap()
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
    let read = |w: &World, a: SockAddr, obj: ObjId| -> i64 {
        w.with_proc(a, |p: &CircusProcess| {
            p.node()
                .service_as::<TroupeStoreService>(STORE_MODULE)
                .unwrap()
                .tm()
                .store()
                .read_committed(obj)
        })
        .unwrap()
    };
    assert_eq!(read(&w, newbie, A), 8);
    assert_eq!(read(&w, newbie, B), 8);

    // The busy client's binding went stale when the join re-incarnated
    // the troupe; hand it the new one, as a rebind would (§6.2).
    w.with_proc_mut(busy, |p: &mut CircusProcess| {
        p.agent_as_mut::<TxnClient>().unwrap().troupe = current.clone();
    })
    .unwrap();

    // 6. More transactions against the NEW incarnation reach all three
    // current members (two survivors + the replacement).
    let c3 = SockAddr::new(HostId(52), 10);
    let p = NodeBuilder::new(c3, config.clone())
        .agent(Box::new(TxnClient::new(
            current.clone(),
            STORE_MODULE,
            vec![vec![Op::Add(A, 100)]],
        )))
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
        .build()
        .expect("valid node");
    w.spawn(c3, Box::new(p));
    w.poke(c3, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(60)));

    assert_finished(&w, busy);

    // The join happened under load: every commit the survivors made
    // before, during and after it is in the replacement too, once.
    let ledger = |w: &World, a: SockAddr| -> (u64, usize) {
        w.with_proc(a, |p: &CircusProcess| {
            let s = p
                .node()
                .service_as::<TroupeStoreService>(STORE_MODULE)
                .unwrap();
            (s.state_digest(), s.committed_log().len())
        })
        .unwrap()
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
        let id = TroupeId(1);
        let members: Vec<ModuleAddr> = (1..=3)
            .map(|h| ModuleAddr::new(SockAddr::new(HostId(h), 70), STORE_MODULE))
            .collect();
        for m in &members {
            let p = NodeBuilder::new(m.addr, config.clone())
                .service(
                    STORE_MODULE,
                    Box::new(TroupeStoreService::new(COMMIT_MODULE)),
                )
                .troupe_id(id)
                .build()
                .expect("valid node");
            w.spawn(m.addr, Box::new(p));
        }
        let troupe = Troupe::new(id, members.clone());
        let client = SockAddr::new(HostId(10), 10);
        let p = NodeBuilder::new(client, config)
            .agent(Box::new(TxnClient::new(
                troupe,
                STORE_MODULE,
                vec![vec![Op::Add(ObjId(1), 7)], vec![Op::Add(ObjId(1), 5)]],
            )))
            .service(COMMIT_MODULE, Box::new(CommitVoterService))
            .build()
            .expect("valid node");
        w.spawn(client, Box::new(p));
        w.poke(client, 0);
        w.run(simnet::Until::Elapsed(Duration::from_secs(120)));
        members
            .iter()
            .map(|m| {
                w.with_proc(m.addr, |p: &CircusProcess| {
                    p.node()
                        .service_as::<TroupeStoreService>(STORE_MODULE)
                        .unwrap()
                        .tm()
                        .store()
                        .read_committed(ObjId(1))
                })
                .unwrap()
            })
            .collect()
    }
    assert_eq!(run(1), vec![12, 12, 12]);
    assert_eq!(run(2), vec![12, 12, 12]);
    assert_eq!(run(1), run(1));
}
