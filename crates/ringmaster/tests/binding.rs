//! End-to-end binding-agent tests: registration, lookup, stale-binding
//! rebind, member join with state transfer, garbage collection, and the
//! server-side directory lookup path.

use circus::binding::{binding_procs, BINDING_MODULE};
use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use ringmaster::{
    activate, spawn_ringmaster, GcAgent, ImportCache, RegisterTroupe, RingmasterService,
    SpareService, SPARE_CTL_MODULE,
};
use simnet::{Duration, HostId, SockAddr, World};
use wire::{from_bytes, to_bytes};

const APP_MODULE: u16 = 1;

/// A replicated counter used as the application module.
struct Counter {
    value: u32,
}

impl Service for Counter {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        match proc {
            0 => {
                let n: u32 = from_bytes(args).unwrap_or(0);
                self.value += n;
                Step::Reply(to_bytes(&self.value))
            }
            _ => Step::Error("bad proc".into()),
        }
    }

    fn get_state(&self) -> Vec<u8> {
        to_bytes(&self.value)
    }

    fn set_state(&mut self, state: &[u8]) {
        if let Ok(v) = from_bytes(state) {
            self.value = v;
        }
    }
}

fn world(seed: u64) -> World {
    World::new(seed)
}

fn hosts(list: &[u32]) -> Vec<HostId> {
    list.iter().map(|&h| HostId(h)).collect()
}

/// Spawns a counter troupe and registers it with the ringmaster via a
/// third-party register_troupe call, returning the registered troupe.
fn register_counter_troupe(
    w: &mut World,
    binder: &Troupe,
    name: &str,
    host_list: &[u32],
) -> Troupe {
    register_counter_troupe_from(w, binder, name, host_list, 10)
}

/// Like `register_counter_troupe`, but with an explicit registrar port —
/// each logical registrar process must have a fresh address, as a reused
/// address would collide with the old process's call numbers (ports are
/// not reused this fast by a real UDP implementation, §4.2.1).
fn register_counter_troupe_from(
    w: &mut World,
    binder: &Troupe,
    name: &str,
    host_list: &[u32],
    registrar_port: u16,
) -> Troupe {
    let members: Vec<ModuleAddr> = host_list
        .iter()
        .map(|&h| ModuleAddr::new(SockAddr::new(HostId(h), 70), APP_MODULE))
        .collect();
    for m in &members {
        // Spawn only if not already running: re-registration reuses the
        // live member processes (a reused address with a fresh process
        // would collide with the old incarnation's call numbers, which
        // a real UDP port allocator prevents).
        if !w.is_alive(m.addr) {
            let p = NodeBuilder::new(m.addr, NodeConfig::default())
                .service(APP_MODULE, Box::new(Counter { value: 0 }))
                .binder(binder.clone())
                .build()
                .expect("valid node");
            w.spawn(m.addr, Box::new(p));
        }
    }
    // Third-party registrar (the configuration manager's role, §6.2).
    let registrar = SockAddr::new(HostId(90), registrar_port);
    struct Registrar {
        binder: Troupe,
        req: RegisterTroupe,
        pub id: Option<TroupeId>,
    }
    impl Agent for Registrar {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
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
            if let Ok(bytes) = result {
                self.id = from_bytes(&bytes).ok();
            }
        }
    }
    let p = NodeBuilder::new(registrar, NodeConfig::default())
        .agent(Box::new(Registrar {
            binder: binder.clone(),
            req: RegisterTroupe {
                name: name.into(),
                members: members.clone(),
            },
            id: None,
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
        .expect("registration failed");
    Troupe::new(id, members)
}

/// An operator-driven join (§6.4.1): starts a fresh counter process on
/// host 6 exporting the spare control module, has a third-party process
/// call `activate` on it — what the healer does for a registered spare —
/// and returns the joiner's address and the incarnation it ended up in.
fn join_counter_troupe(w: &mut World, binder: &Troupe, window: Duration) -> (SockAddr, TroupeId) {
    let newbie = SockAddr::new(HostId(6), 70);
    let p = NodeBuilder::new(newbie, NodeConfig::default())
        .service(APP_MODULE, Box::new(Counter { value: 0 }))
        .service(
            SPARE_CTL_MODULE,
            Box::new(SpareService::new(binder.clone(), "counter", APP_MODULE)),
        )
        .binder(binder.clone())
        .build()
        .expect("valid node");
    w.spawn(newbie, Box::new(p));

    struct Operator {
        ctl: ModuleAddr,
        outcome: Option<Result<Vec<u8>, CallError>>,
    }
    impl Agent for Operator {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            activate(nc, self.ctl, "counter");
        }
        fn on_call_done(
            &mut self,
            _nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            self.outcome = Some(result);
        }
    }
    let operator = SockAddr::new(HostId(91), 10);
    let p = NodeBuilder::new(operator, NodeConfig::default())
        .agent(Box::new(Operator {
            ctl: ModuleAddr::new(newbie, SPARE_CTL_MODULE),
            outcome: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(operator, Box::new(p));
    w.poke(operator, 0);
    w.run(simnet::Until::Elapsed(window));

    let outcome = w
        .with_proc(operator, |p: &CircusProcess| {
            p.agent_as::<Operator>().unwrap().outcome.clone()
        })
        .unwrap();
    assert!(
        matches!(outcome, Some(Ok(_))),
        "join did not finish cleanly: {outcome:?}"
    );
    let joined = w
        .with_proc(newbie, |p: &CircusProcess| p.node().troupe_id())
        .unwrap();
    (newbie, joined)
}

#[test]
fn register_and_lookup_by_name() {
    let mut w = world(1);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);
    assert_ne!(registered.id, TroupeId::UNREGISTERED);

    // Every member received the new incarnation via set_troupe_id.
    for m in &registered.members {
        let id = w
            .with_proc(m.addr, |p: &CircusProcess| p.node().troupe_id())
            .unwrap();
        assert_eq!(id, registered.id);
    }

    // A client imports by name and calls.
    struct Importer {
        binder: Troupe,
        found: Option<Troupe>,
        result: Option<u32>,
    }
    impl Agent for Importer {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let t = nc.fresh_thread();
            let (proc, args) = ImportCache::lookup_request("counter");
            let binder = self.binder.clone();
            nc.call(
                t,
                &binder,
                BINDING_MODULE,
                proc,
                args,
                CollationPolicy::Majority,
            );
        }
        fn on_call_done(
            &mut self,
            nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            match (&self.found, result) {
                (None, Ok(bytes)) => {
                    let troupe: Option<Troupe> = from_bytes(&bytes).unwrap();
                    let troupe = troupe.expect("name bound");
                    self.found = Some(troupe.clone());
                    let t = nc.fresh_thread();
                    nc.call(
                        t,
                        &troupe,
                        APP_MODULE,
                        0,
                        to_bytes(&5u32),
                        CollationPolicy::Unanimous,
                    );
                }
                (Some(_), Ok(bytes)) => {
                    self.result = from_bytes(&bytes).ok();
                }
                (_, Err(e)) => panic!("call failed: {e}"),
            }
        }
    }
    let client = SockAddr::new(HostId(50), 10);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(Importer {
            binder: rm.clone(),
            found: None,
            result: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));

    let result = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<Importer>().unwrap().result
        })
        .unwrap();
    assert_eq!(result, Some(5));
}

#[test]
fn join_agent_transfers_state_and_reincarnates() {
    let mut w = world(2);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);

    // Seed state by calling the troupe directly.
    let driver = SockAddr::new(HostId(60), 10);
    struct Caller {
        troupe: Troupe,
        results: Vec<Result<Vec<u8>, CallError>>,
    }
    impl Agent for Caller {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let t = nc.fresh_thread();
            let troupe = self.troupe.clone();
            nc.call(
                t,
                &troupe,
                APP_MODULE,
                0,
                to_bytes(&42u32),
                CollationPolicy::Unanimous,
            );
        }
        fn on_call_done(
            &mut self,
            _nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            self.results.push(result);
        }
    }
    let p = NodeBuilder::new(driver, NodeConfig::default())
        .agent(Box::new(Caller {
            troupe: registered.clone(),
            results: Vec::new(),
        }))
        .build()
        .expect("valid node");
    w.spawn(driver, Box::new(p));
    w.poke(driver, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));

    // A new member joins (§6.4.1).
    let (newbie, joined) = join_counter_troupe(&mut w, &rm, Duration::from_secs(20));
    // New incarnation differs from the registration-time one.
    assert_ne!(joined, registered.id);

    // State was transferred: the new member's counter is 42.
    let value = w
        .with_proc(newbie, |p: &CircusProcess| {
            p.node().service_as::<Counter>(APP_MODULE).unwrap().value
        })
        .unwrap();
    assert_eq!(value, 42);

    // All three members (old and new) hold the new incarnation.
    for a in [
        registered.members[0].addr,
        registered.members[1].addr,
        newbie,
    ] {
        let id = w
            .with_proc(a, |p: &CircusProcess| p.node().troupe_id())
            .unwrap();
        assert_eq!(id, joined, "member {a} has stale incarnation");
    }

    // A client still holding the OLD binding is rejected and can rebind.
    w.poke(driver, 0); // Caller re-uses the old troupe representation.
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    let results = w
        .with_proc(driver, |p: &CircusProcess| {
            p.agent_as::<Caller>().unwrap().results.clone()
        })
        .unwrap();
    assert_eq!(results.len(), 2);
    assert!(results[0].is_ok());
    assert!(
        matches!(results[1], Err(CallError::StaleBinding(Some(id))) if id == joined),
        "expected stale-binding rejection, got {:?}",
        results[1]
    );
}

#[test]
fn gc_removes_crashed_member() {
    let mut w = world(3);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5, 6]);

    // Attach a garbage collector to ringmaster member 0's process... the
    // process already exists; spawn the collector as its own process
    // colocated on host 1 instead, with its own RingmasterService? No —
    // the GC must read a live registry. Re-spawn ringmaster member 0's
    // host with an agent is disruptive. Instead: the GC agent lives on a
    // fresh process that holds a replica of the registry via get_state.
    let gc_addr = SockAddr::new(HostId(1), 99);
    let mut gc_service = RingmasterService::new(rm.clone());
    // Mirror the current registry into the collector's local copy.
    let registry_state = w
        .with_proc(rm.members[0].addr, |p: &CircusProcess| {
            p.node()
                .service_as::<RingmasterService>(BINDING_MODULE)
                .unwrap()
                .get_state()
        })
        .unwrap();
    gc_service.set_state(&registry_state);
    let p = NodeBuilder::new(gc_addr, NodeConfig::default())
        .service(BINDING_MODULE + 1, Box::new(gc_service))
        .binder(rm.clone())
        .agent(Box::new(GcAgent::new(
            rm.clone(),
            BINDING_MODULE + 1,
            Duration::from_secs(5),
        )))
        .build()
        .expect("valid node");
    w.spawn(gc_addr, Box::new(p));

    // Crash one member.
    w.crash_host(HostId(6));
    w.run(simnet::Until::Elapsed(Duration::from_secs(120)));

    let collected = w
        .with_proc(gc_addr, |p: &CircusProcess| {
            p.agent_as::<GcAgent>().unwrap().collected.clone()
        })
        .unwrap();
    assert!(
        collected
            .iter()
            .any(|(n, m)| n == "counter" && m.addr.host == HostId(6)),
        "dead member never collected: {collected:?}"
    );

    // The registry now shows 2 members under a fresh incarnation.
    let current = w
        .with_proc(rm.members[0].addr, |p: &CircusProcess| {
            p.node()
                .service_as::<RingmasterService>(BINDING_MODULE)
                .unwrap()
                .lookup("counter")
                .cloned()
        })
        .unwrap()
        .expect("binding survives");
    assert_eq!(current.members.len(), 2);
    assert_ne!(current.id, registered.id);
}

#[test]
fn server_resolves_client_troupe_via_binder() {
    // A registered client troupe calls a server that has NO preloaded
    // directory entry: the server must park the call, resolve the
    // membership via lookup_troupe_by_id at the ringmaster, and then
    // execute exactly once (§4.3.2's binding-agent path).
    let mut w = world(4);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let server = register_counter_troupe(&mut w, &rm, "server", &[4]);
    // Note: register_counter_troupe gives the server its binder.

    // Build a 2-member CLIENT troupe, registered so it has a real id.
    let client_members: Vec<ModuleAddr> = [7u32, 8]
        .iter()
        .map(|&h| ModuleAddr::new(SockAddr::new(HostId(h), 50), APP_MODULE))
        .collect();
    struct TroupeClient {
        server: Troupe,
        thread: ThreadId,
        result: Option<Result<Vec<u8>, CallError>>,
    }
    impl Agent for TroupeClient {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let server = self.server.clone();
            nc.call(
                self.thread,
                &server,
                APP_MODULE,
                0,
                to_bytes(&9u32),
                CollationPolicy::Unanimous,
            );
        }
        fn on_call_done(
            &mut self,
            _nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            self.result = Some(result);
        }
    }
    let shared_thread = ThreadId {
        origin: SockAddr::new(HostId(200), 1),
        serial: 1,
    };
    for m in &client_members {
        let p = NodeBuilder::new(m.addr, NodeConfig::default())
            .service(APP_MODULE, Box::new(Counter { value: 0 }))
            .binder(rm.clone())
            .agent(Box::new(TroupeClient {
                server: server.clone(),
                thread: shared_thread,
                result: None,
            }))
            .build()
            .expect("valid node");
        w.spawn(m.addr, Box::new(p));
    }
    // Register the client troupe so the ringmaster can answer
    // lookup_troupe_by_id; use the registrar flow.
    let registrar = SockAddr::new(HostId(91), 10);
    struct Reg {
        binder: Troupe,
        req: RegisterTroupe,
        id: Option<TroupeId>,
    }
    impl Agent for Reg {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
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
            if let Ok(bytes) = result {
                self.id = from_bytes(&bytes).ok();
            }
        }
    }
    let p = NodeBuilder::new(registrar, NodeConfig::default())
        .agent(Box::new(Reg {
            binder: rm.clone(),
            req: RegisterTroupe {
                name: "client".into(),
                members: client_members.clone(),
            },
            id: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(registrar, Box::new(p));
    w.poke(registrar, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));

    // Fire the replicated call from both client members.
    for m in &client_members {
        w.poke(m.addr, 0);
    }
    w.run(simnet::Until::Elapsed(Duration::from_secs(20)));

    // The server executed exactly once.
    let value = w
        .with_proc(server.members[0].addr, |p: &CircusProcess| {
            p.node().service_as::<Counter>(APP_MODULE).unwrap().value
        })
        .unwrap();
    assert_eq!(value, 9, "server must execute the replicated call once");

    // Both client members got the answer.
    for m in &client_members {
        let result = w
            .with_proc(m.addr, |p: &CircusProcess| {
                p.agent_as::<TroupeClient>().unwrap().result.clone()
            })
            .unwrap()
            .expect("client member has result");
        assert_eq!(from_bytes::<u32>(result.as_ref().unwrap()).unwrap(), 9);
    }
}

#[test]
fn rebind_after_stale_binding() {
    let mut w = world(5);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);

    // Re-register with different membership, invalidating the old id.
    let re_registered = register_counter_troupe_from(&mut w, &rm, "counter", &[4], 11);
    assert_ne!(re_registered.id, registered.id);

    // A driver with the stale binding: first call fails StaleBinding,
    // then it rebinds and retries successfully.
    struct RebindingClient {
        binder: Troupe,
        cache: ImportCache,
        stale: Troupe,
        outcome: Vec<String>,
        state: u32,
    }
    impl Agent for RebindingClient {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let t = nc.fresh_thread();
            let stale = self.stale.clone();
            self.state = 1;
            nc.call(
                t,
                &stale,
                APP_MODULE,
                0,
                to_bytes(&1u32),
                CollationPolicy::Unanimous,
            );
        }
        fn on_call_done(
            &mut self,
            nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            match self.state {
                1 => match result {
                    Err(ref e) if ImportCache::should_rebind(e) => {
                        self.outcome.push("stale".into());
                        self.cache.invalidate("counter");
                        let (proc, args) = self.cache.rebind_request("counter");
                        let t = nc.fresh_thread();
                        let binder = self.binder.clone();
                        self.state = 2;
                        nc.call(
                            t,
                            &binder,
                            BINDING_MODULE,
                            proc,
                            args,
                            CollationPolicy::Majority,
                        );
                    }
                    other => panic!("expected stale binding, got {other:?}"),
                },
                2 => {
                    let troupe = self
                        .cache
                        .store_reply("counter", &result.expect("rebind reply"))
                        .expect("rebound");
                    let t = nc.fresh_thread();
                    self.state = 3;
                    nc.call(
                        t,
                        &troupe,
                        APP_MODULE,
                        0,
                        to_bytes(&1u32),
                        CollationPolicy::Unanimous,
                    );
                }
                3 => {
                    assert!(result.is_ok(), "retry failed: {result:?}");
                    self.outcome.push("retried-ok".into());
                }
                _ => {}
            }
        }
    }
    let client = SockAddr::new(HostId(50), 10);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(RebindingClient {
            binder: rm.clone(),
            cache: ImportCache::new(),
            stale: registered,
            outcome: Vec::new(),
            state: 0,
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(20)));

    let outcome = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<RebindingClient>().unwrap().outcome.clone()
        })
        .unwrap();
    assert_eq!(outcome, vec!["stale".to_string(), "retried-ok".to_string()]);
}

#[test]
fn binding_survives_ringmaster_member_crash() {
    // The binding agent is itself a troupe precisely so that binding
    // stays available through partial failures (§6.2: "it is essential
    // that the binding agent be highly available"). With one of three
    // Ringmaster members dead, majority-collated lookups still succeed.
    let mut w = world(6);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);

    w.crash_host(HostId(2)); // Kill one Ringmaster member.

    struct Lookup {
        binder: Troupe,
        found: Option<Troupe>,
    }
    impl Agent for Lookup {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let t = nc.fresh_thread();
            let (proc, args) = ImportCache::lookup_request("counter");
            let binder = self.binder.clone();
            nc.call(
                t,
                &binder,
                BINDING_MODULE,
                proc,
                args,
                CollationPolicy::Majority,
            );
        }
        fn on_call_done(
            &mut self,
            _nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            self.found = result
                .ok()
                .and_then(|b| from_bytes::<Option<Troupe>>(&b).ok())
                .flatten();
        }
    }
    let client = SockAddr::new(HostId(50), 10);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(Lookup {
            binder: rm.clone(),
            found: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(60)));

    let found = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<Lookup>().unwrap().found.clone()
        })
        .unwrap()
        .expect("lookup must succeed with 2 of 3 ringmaster members");
    assert_eq!(found, registered);
}

#[test]
fn registration_survives_ringmaster_member_crash() {
    // Mutations also keep working: add_troupe_member reaches the two
    // surviving Ringmaster members, which agree on the new incarnation
    // deterministically (no inter-member communication, §3.5.1).
    let mut w = world(7);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);
    w.crash_host(HostId(3));

    // A new member joins through the surviving majority.
    let (_, joined) = join_counter_troupe(&mut w, &rm, Duration::from_secs(60));
    assert_ne!(joined, registered.id);

    // The surviving Ringmaster members agree on the new registry entry.
    for h in [1u32, 2] {
        let entry = w
            .with_proc(
                SockAddr::new(HostId(h), circus::binding::RINGMASTER_PORT),
                |p: &CircusProcess| {
                    p.node()
                        .service_as::<RingmasterService>(BINDING_MODULE)
                        .unwrap()
                        .lookup("counter")
                        .cloned()
                },
            )
            .unwrap()
            .expect("entry");
        assert_eq!(entry.id, joined);
        assert_eq!(entry.members.len(), 3);
    }
}
