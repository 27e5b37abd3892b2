//! End-to-end binding-agent tests: registration, lookup, stale-binding
//! rebind, member join with state transfer, the healer's idle sweep (and
//! its refuted suspicion), and the server-side directory lookup path.

use circus::binding::{BINDING_MODULE, RINGMASTER_PORT};
use circus::testbed::{
    addr, agent, call, enqueue, node, results, service, spawn_caller, spawn_troupe,
    CountingService, Request, PROC_ADD,
};
use circus::{
    Agent, CallError, CallHandle, CollationPolicy, ModuleAddr, Node, NodeBuilder, NodeConfig,
    NodeCtx, Service, ServiceCtx, StateSince, Step, ThreadId, Troupe, TroupeId,
};
use ringmaster::{
    activation, registration, spawn_ringmaster, ImportCache, RingmasterService, SpareAgent,
    SpareService, SPARE_CTL_MODULE,
};
use simnet::{Duration, HostId, Partition, SockAddr, World};
use wire::{from_bytes, to_bytes};

/// The application module: the testbed's counting service, whose total is
/// the replicated counter.
const APP_MODULE: u16 = 1;

fn world(seed: u64) -> World {
    World::new(seed)
}

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

fn hosts(list: &[u32]) -> Vec<HostId> {
    list.iter().map(|&h| HostId(h)).collect()
}

/// The counter the member at `a` holds.
fn counter(w: &World, a: SockAddr) -> u32 {
    service(w, a, APP_MODULE, |s: &CountingService| s.total)
}

/// An increment of `troupe`'s counter by `n`.
fn add(troupe: &Troupe, n: u32) -> Request {
    Request::new(troupe, APP_MODULE, PROC_ADD, to_bytes(&n))
}

/// What the Ringmaster member on `host` has registered under `name`.
fn registered_as(w: &World, host: u32, name: &str) -> Option<Troupe> {
    let member = addr(host, RINGMASTER_PORT);
    service(w, member, BINDING_MODULE, |s: &RingmasterService| {
        s.lookup(name).cloned()
    })
}

/// Registers, from the configuration manager's process (§6.2), a counter
/// troupe with a member on each of `host_list` under `name`, spawning the
/// members not yet running (re-registration reuses the live ones: a fresh
/// process at a reused address would collide with the old one's call
/// numbers, which a real UDP port allocator prevents, §4.2.1). Returns the
/// registered troupe.
fn register_counter_troupe(
    w: &mut World,
    binder: &Troupe,
    name: &str,
    host_list: &[u32],
) -> Troupe {
    let config = NodeConfig::default();
    let all: Vec<SockAddr> = host_list.iter().map(|&h| addr(h, 70)).collect();
    let fresh: Vec<SockAddr> = all.iter().copied().filter(|&a| !w.is_alive(a)).collect();
    spawn_troupe(
        w,
        TroupeId::UNREGISTERED,
        &fresh,
        APP_MODULE,
        &config,
        Some(binder),
        CountingService::default,
    );
    let members: Vec<ModuleAddr> = all
        .iter()
        .map(|&a| ModuleAddr::new(a, APP_MODULE))
        .collect();
    let manager = addr(90, 10);
    if !w.is_alive(manager) {
        spawn_caller(w, manager, config, None);
    }
    let id = call(w, manager, registration(binder, name, &members), secs(10))
        .expect("registration failed");
    Troupe::new(from_bytes(&id).expect("a troupe id"), members)
}

/// A fresh counter process at `a` able to join the troupe "counter": it
/// exports the spare control module beside the counter.
fn counter_spare(a: SockAddr, binder: &Troupe) -> NodeBuilder {
    let ctl = SpareService::new(binder.clone(), "counter", APP_MODULE);
    NodeBuilder::new(a, NodeConfig::default())
        .service(APP_MODULE, Box::new(CountingService::default()))
        .service(SPARE_CTL_MODULE, Box::new(ctl))
        .binder(binder.clone())
}

/// An operator-driven join (§6.4.1): starts a fresh counter process on
/// host 6 exporting the spare control module, has a third-party process
/// call `activate` on it — what the healer does for a registered spare —
/// and returns the joiner's address and the incarnation it ended up in.
fn join_counter_troupe(w: &mut World, binder: &Troupe, window: Duration) -> (SockAddr, TroupeId) {
    let newbie = addr(6, 70);
    let p = counter_spare(newbie, binder).build().expect("valid node");
    w.spawn(newbie, Box::new(p));

    let operator = spawn_caller(w, addr(91, 10), NodeConfig::default(), None);
    let ctl = ModuleAddr::new(newbie, SPARE_CTL_MODULE);
    let outcome = call(w, operator, activation(ctl, "counter"), window);
    assert!(outcome.is_ok(), "join did not finish cleanly: {outcome:?}");
    (newbie, node(w, newbie, Node::troupe_id))
}

#[test]
fn register_and_lookup_by_name() {
    let mut w = world(1);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);
    assert_ne!(registered.id, TroupeId::UNREGISTERED);

    // Every member received the new incarnation via set_troupe_id.
    for m in &registered.members {
        assert_eq!(node(&w, m.addr, Node::troupe_id), registered.id);
    }

    // A client imports by name and calls.
    let client = spawn_caller(&mut w, addr(50, 10), NodeConfig::default(), None);
    let (proc, args) = ImportCache::lookup_request("counter");
    let lookup = Request::new(&rm, BINDING_MODULE, proc, args).collate(CollationPolicy::Majority);
    let found = call(&mut w, client, lookup, secs(10)).expect("lookup answered");
    let found: Option<Troupe> = from_bytes(&found).expect("a binding");
    let found = found.expect("name bound");
    assert_eq!(found, registered);
    let total = call(&mut w, client, add(&found, 5), secs(10)).expect("call failed");
    assert_eq!(from_bytes::<u32>(&total), Ok(5));
}

#[test]
fn join_agent_transfers_state_and_reincarnates() {
    let mut w = world(2);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);

    // Seed state by calling the troupe directly.
    let driver = spawn_caller(&mut w, addr(60, 10), NodeConfig::default(), None);
    assert!(call(&mut w, driver, add(&registered, 42), secs(10)).is_ok());

    // A new member joins (§6.4.1).
    let (newbie, joined) = join_counter_troupe(&mut w, &rm, secs(20));
    // New incarnation differs from the registration-time one.
    assert_ne!(joined, registered.id);

    // State was transferred: the new member's counter is 42.
    assert_eq!(counter(&w, newbie), 42);

    // All three members (old and new) hold the new incarnation.
    for a in [
        registered.members[0].addr,
        registered.members[1].addr,
        newbie,
    ] {
        let id = node(&w, a, Node::troupe_id);
        assert_eq!(id, joined, "member {a} has stale incarnation");
    }

    // A client still holding the OLD binding is rejected and can rebind.
    let stale = call(&mut w, driver, add(&registered, 42), secs(10));
    assert_eq!(stale, Err(CallError::StaleBinding(Some(joined))));
}

/// A counter that keeps its total as a durable member keeps its log: the
/// total it holds is its recovery token, and a peer's delta is the rest.
#[derive(Default)]
struct DurableCounter(CountingService);

impl Service for DurableCounter {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        self.0.dispatch(ctx, proc, args)
    }
    fn get_state(&self) -> Vec<u8> {
        self.0.get_state()
    }
    fn set_state(&mut self, state: &[u8]) {
        self.0.set_state(state);
    }
    fn recovery_token(&self) -> Option<Vec<u8>> {
        Some(to_bytes(&self.0.total))
    }
    fn get_state_since(&self, token: &[u8]) -> StateSince {
        match from_bytes::<u32>(token) {
            Ok(held) if held <= self.0.total => StateSince::Delta(to_bytes(&(self.0.total - held))),
            _ => StateSince::Full(self.get_state()),
        }
    }
    fn apply_delta(&mut self, delta: &[u8]) {
        self.0.total += from_bytes::<u32>(delta).unwrap_or(0);
    }
}

/// The joining node decides delta or full (§6.4.1): a durable joiner
/// behind a plain spare control module sends its recovery token with the
/// fetch and installs only what it lacked.
#[test]
fn a_durable_joiner_behind_a_plain_spare_rejoins_by_delta() {
    let mut w = world(2);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let (config, members) = (NodeConfig::default(), [addr(4, 70), addr(5, 70)]);
    let (id, make) = (TroupeId::UNREGISTERED, DurableCounter::default);
    let troupe = spawn_troupe(&mut w, id, &members, APP_MODULE, &config, Some(&rm), make);
    let manager = spawn_caller(&mut w, addr(90, 10), config.clone(), None);
    let register = registration(&rm, "counter", &troupe.members);
    let id = call(&mut w, manager, register, secs(10)).expect("registered");
    let troupe = Troupe::new(from_bytes(&id).expect("a troupe id"), troupe.members);
    assert!(call(&mut w, manager, add(&troupe, 42), secs(10)).is_ok());

    // The joiner replayed 40 of the 42 from its own log.
    let newbie = addr(6, 70);
    let replayed = DurableCounter(CountingService {
        total: 40,
        ..CountingService::default()
    });
    let p = NodeBuilder::new(newbie, config.clone())
        .service(APP_MODULE, Box::new(replayed))
        .service(
            SPARE_CTL_MODULE,
            Box::new(SpareService::new(rm.clone(), "counter", APP_MODULE)),
        )
        .binder(rm.clone())
        .build()
        .expect("valid node");
    w.spawn(newbie, Box::new(p));
    let ctl = ModuleAddr::new(newbie, SPARE_CTL_MODULE);
    let joined = call(&mut w, manager, activation(ctl, "counter"), secs(20));
    assert!(joined.is_ok(), "join did not finish cleanly: {joined:?}");

    let total = service(&w, newbie, APP_MODULE, |s: &DurableCounter| s.0.total);
    assert_eq!(total, 42, "the delta of 2 came on top of the replayed 40");
    let reg = w.metrics();
    let fetches = (
        reg.get("spare.delta_fetches"),
        reg.get("spare.full_fetches"),
    );
    assert_eq!(
        fetches,
        (1, 0),
        "a plain spare's durable joiner fetches its delta"
    );
    let delta = to_bytes(&StateSince::Delta(to_bytes(&2u32)));
    assert_eq!(reg.get("spare.state_bytes"), delta.len() as u64);
}

#[test]
fn idle_sweep_evicts_and_replaces_a_silently_dead_member() {
    // §6.1's collector — "a process which periodically enumerates all the
    // registered modules, probes them with a special null procedure call
    // and explicitly deletes the bindings for modules that do not respond"
    // — as the system runs it: the healer's round-robin sweep. Nobody
    // calls the counter troupe, so no client's failed call ever reports
    // the crash; the sweep alone must notice it.
    let mut w = world(3);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5, 6]);
    let spare = addr(7, 70);
    let p = counter_spare(spare, &rm)
        .agent(Box::new(SpareAgent::new(rm.clone(), "counter")))
        .build()
        .expect("valid node");
    w.spawn(spare, Box::new(p));

    w.crash_host(HostId(6));
    let reg = w.metrics();
    let deadline = w.now() + secs(300);
    let repaired = w.run(simnet::Until::pred(deadline, |_| {
        reg.get("ring.repairs") == 1
    }));
    assert!(repaired, "the dead member was never replaced");

    // An unanswered sweep raised the suspicion; nobody reported it. The
    // sweep was the healer's first unanswered null call to the member, so
    // one probe, unanswered too, confirmed the death before the eviction,
    // the only one.
    assert!(reg.get("ring.sweeps") > 0);
    assert_eq!(reg.get("ring.suspicions"), 1);
    assert_eq!(reg.get("ring.probes"), 1);
    assert_eq!(reg.get("ring.false_suspicions"), 0);
    assert_eq!(reg.get("ring.evictions"), 1);

    // Every Ringmaster member shows three members again under a fresh
    // incarnation: the survivors and the spare, which holds it too.
    for h in [1, 2, 3] {
        let current = registered_as(&w, h, "counter").expect("binding survives");
        let mut members: Vec<SockAddr> = current.members.iter().map(|m| m.addr).collect();
        members.sort();
        assert_eq!(members, vec![addr(4, 70), addr(5, 70), spare]);
        assert_ne!(current.id, registered.id);
        assert_eq!(node(&w, spare, Node::troupe_id), current.id);
    }

    // Every member of each new incarnation numbered the Ringmaster's
    // install alike: no assembly split, so none waited out the assembly
    // timeout (10 s here), and the repair, timed from the unanswered
    // sweep, took the one confirming probe (a 4.5 s crash horizon) and
    // the join alone.
    assert_eq!(reg.sum_suffix(".split_calls"), 0);
    let mttr = Duration::from_micros(reg.get("ring.mttr_us"));
    assert!(mttr < secs(7), "MTTR {mttr:?}");
}

#[test]
fn an_unanswered_sweep_alone_never_evicts() {
    // The sweep counts as the first of the healer's two unanswered null
    // calls, never as both: a member partitioned away through one sweep
    // is suspected, and the probe that follows, answered once the
    // partition heals, clears the suspicion.
    let mut w = world(3);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5, 6]);

    w.set_partition(Partition::isolate(hosts(&[6])));
    let reg = w.metrics();
    let deadline = w.now() + secs(60);
    let suspected = w.run(simnet::Until::pred(deadline, |_| {
        reg.get("ring.suspicions") == 1
    }));
    assert!(suspected, "the partitioned member was never swept");
    w.set_partition(Partition::none());
    w.run(simnet::Until::Elapsed(secs(20)));

    let evictions = reg.get("ring.evictions");
    assert_eq!(evictions, 0, "evicted on one unanswered sweep");
    assert_eq!(reg.get("ring.probes"), 1);
    assert_eq!(reg.get("ring.false_suspicions"), 1);
    assert_eq!(registered_as(&w, 1, "counter"), Some(registered));
}

#[test]
fn a_killed_member_is_evicted_on_its_hosts_word_within_a_second() {
    // The member's process is killed and its host stays up. A client's
    // call finds the port empty and reports the suspect; each of the
    // healer's two probes is answered by the host's port-unreachable
    // notice instead of waiting out the crash horizon, so the repair
    // takes round trips, not horizons.
    let mut w = world(3);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5, 6]);
    let spare = addr(7, 70);
    let p = counter_spare(spare, &rm)
        .agent(Box::new(SpareAgent::new(rm.clone(), "counter")))
        .build()
        .expect("valid node");
    w.spawn(spare, Box::new(p));
    let ring = simnet::TraceRing::unbounded();
    w.add_trace_sink(Box::new(ring));

    let victim = addr(6, 70);
    w.kill(victim);
    let client = spawn_caller(&mut w, addr(92, 10), NodeConfig::default(), Some(&rm));
    assert!(call(&mut w, client, add(&registered, 1), secs(1)).is_ok());
    let reg = w.metrics();
    let deadline = w.now() + secs(60);
    let repaired = w.run(simnet::Until::pred(deadline, |_| {
        reg.get("ring.repairs") == 1
    }));
    assert!(repaired, "the killed member was never replaced");

    assert_eq!(reg.get("ring.suspicions"), 1);
    assert_eq!(reg.get("ring.probes"), 2);
    assert_eq!(reg.get("ring.false_suspicions"), 0);
    assert_eq!(reg.get("ring.evictions"), 1);
    // The client's call, then each probe, failed on a notice.
    let events = w.trace_sink_as::<simnet::TraceRing>().unwrap().events();
    let notices = |to: u32| {
        let to_host = |e: &&simnet::TraceEvent| {
            matches!(e, simnet::TraceEvent::Unreachable { to: t, dead, .. }
                if t.host == HostId(to) && *dead == victim)
        };
        events.iter().filter(to_host).count()
    };
    assert_eq!(notices(92), 1);
    assert_eq!((1..=3).map(notices).sum::<usize>(), 2);
    let mttr = Duration::from_micros(reg.get("ring.mttr_us"));
    assert!(mttr < secs(1), "MTTR {mttr:?}");
}

#[test]
fn a_repair_is_one_membership_change_with_a_spare_and_two_without() {
    // A confirmed death with a spare registered: the spare takes the dead
    // member's place in one registry mutation, one new incarnation. With
    // none, the member is evicted (one) and the spare that registers later
    // joins (two).
    for spare_waiting in [true, false] {
        let mut w = world(3);
        let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
        let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5, 6]);
        let generation = |w: &World| {
            let member = addr(1, RINGMASTER_PORT);
            service(w, member, BINDING_MODULE, |s: &RingmasterService| {
                s.generation("counter")
            })
        };
        let before = generation(&w);
        let spare = addr(7, 70);
        let start_spare = |w: &mut World| {
            let p = counter_spare(spare, &rm)
                .agent(Box::new(SpareAgent::new(rm.clone(), "counter")))
                .build()
                .expect("valid node");
            w.spawn(spare, Box::new(p));
        };
        if spare_waiting {
            start_spare(&mut w);
        }
        w.kill(addr(6, 70));
        let client = spawn_caller(&mut w, addr(92, 10), NodeConfig::default(), Some(&rm));
        assert!(call(&mut w, client, add(&registered, 1), secs(1)).is_ok());
        let reg = w.metrics();
        let deadline = w.now() + secs(60);
        assert!(w.run(simnet::Until::pred(deadline, |_| {
            reg.get("ring.evictions") == 1
        })));
        if !spare_waiting {
            start_spare(&mut w);
        }
        let repaired = w.run(simnet::Until::pred(deadline, |_| {
            reg.get("ring.repairs") == 1
        }));
        assert!(repaired, "spare waiting: {spare_waiting}");

        let steps = if spare_waiting { 1 } else { 2 };
        assert_eq!(
            generation(&w),
            before + steps,
            "spare waiting: {spare_waiting}"
        );
        let current = registered_as(&w, 1, "counter").expect("bound");
        let members: Vec<SockAddr> = current.members.iter().map(|m| m.addr).collect();
        assert_eq!(members, [addr(4, 70), addr(5, 70), spare]);
        assert_eq!(node(&w, spare, Node::troupe_id), current.id);
        assert_eq!(counter(&w, spare), 1, "the state came with it");
    }
}

#[test]
fn server_resolves_client_troupe_via_binder() {
    // A registered client troupe calls a server that has NO preloaded
    // directory entry: the server must park the call, resolve the
    // membership via lookup_troupe_by_id at the ringmaster, and then
    // execute exactly once (§4.3.2's binding-agent path).
    let mut w = world(4);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    // Note: register_counter_troupe gives the server its binder.
    let server = register_counter_troupe(&mut w, &rm, "server", &[4]);

    // A 2-member CLIENT troupe, registered so it has a real id.
    let clients = register_counter_troupe(&mut w, &rm, "client", &[7, 8]);

    // Fire the replicated call from both client members.
    let shared_thread = ThreadId {
        origin: addr(200, 1),
        serial: 1,
    };
    for m in &clients.members {
        enqueue(&mut w, m.addr, [add(&server, 9).on(shared_thread)]);
        w.poke(m.addr, 0);
    }
    w.run(simnet::Until::Elapsed(secs(20)));

    // The server executed exactly once.
    let value = counter(&w, server.members[0].addr);
    assert_eq!(value, 9, "server must execute the replicated call once");

    // Both client members got the answer.
    for m in &clients.members {
        assert_eq!(results(&w, m.addr), vec![Ok(to_bytes(&9u32))]);
    }
}

#[test]
fn rebind_after_stale_binding() {
    let mut w = world(5);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);

    // Re-register with different membership, invalidating the old id.
    let re_registered = register_counter_troupe(&mut w, &rm, "counter", &[4]);
    assert_ne!(re_registered.id, registered.id);

    // A driver with the stale binding: first call fails StaleBinding,
    // then it rebinds and retries successfully. Each step follows from the
    // last completion through the client's own `ImportCache`, which a
    // script of requests fixed beforehand cannot say.
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
            self.state = 1;
            nc.call(
                t,
                &self.stale,
                APP_MODULE,
                PROC_ADD,
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
                        self.state = 2;
                        nc.call(
                            t,
                            &self.binder,
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
                        PROC_ADD,
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
    let client = addr(50, 10);
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
    w.run(simnet::Until::Elapsed(secs(20)));

    let outcome = agent(&w, client, |c: &RebindingClient| c.outcome.clone());
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

    let client = spawn_caller(&mut w, addr(50, 10), NodeConfig::default(), None);
    let (proc, args) = ImportCache::lookup_request("counter");
    let lookup = Request::new(&rm, BINDING_MODULE, proc, args).collate(CollationPolicy::Majority);
    let found = call(&mut w, client, lookup, secs(60))
        .expect("lookup must succeed with 2 of 3 ringmaster members");
    assert_eq!(from_bytes::<Option<Troupe>>(&found), Ok(Some(registered)));
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
    let (_, joined) = join_counter_troupe(&mut w, &rm, secs(60));
    assert_ne!(joined, registered.id);

    // The surviving Ringmaster members agree on the new registry entry.
    for h in [1, 2] {
        let entry = registered_as(&w, h, "counter").expect("entry");
        assert_eq!(entry.id, joined);
        assert_eq!(entry.members.len(), 3);
    }
}
