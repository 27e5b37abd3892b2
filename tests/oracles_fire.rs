//! Oracles proven to fire: each test quiesces one clean chaos scenario,
//! damages it behind the oracles' back, and requires the named violation.
//! An oracle that has never been seen to fail vouches for nothing.

use chaos::{
    quiesce, Bcast, ChaosApp, Client, Commute, Quiesced, Recovery, ScenarioOptions, Scripted,
    Store, Violation, Workload, MEMBER_MODULE,
};
use circus::binding::{reserved_procs, BINDING_MODULE, RINGMASTER_PORT};
use circus::census::{CALL_NUMBERS, OUTSTANDING_CALLS};
use circus::testbed::{
    addr, agent_mut, call, enqueue, node, node_mut, results, service_mut, spawn_troupe,
    CountingService, Request, MODULE, PROC_ECHO,
};
use circus::{
    CallError, ModuleAddr, Node, NodeConfig, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use ringmaster::RingmasterService;
use simnet::{Duration, HostId, SockAddr, Until};
use transactions::broadcast::StateWire;
use transactions::{
    AppliedOrder, CommitRecord, CommutativeService, ExecuteRequest, Ledger, ObjId, Op,
    OrderedBroadcastService, TroupeStoreService, Txn, PROC_EXECUTE, RECENT_IDS,
};
use wire::{from_bytes, to_bytes};

/// What `oracle` reported among `violations`.
fn reports_of<'a>(violations: &'a [Violation], oracle: &str) -> Vec<&'a str> {
    violations
        .iter()
        .filter(|v| v.oracle == oracle)
        .map(|v| v.detail.as_str())
        .collect()
}

/// Runs `wl`'s oracles over `q`.
fn check<W: Workload>(wl: &W, q: &Quiesced) -> Vec<Violation> {
    let mut violations = Vec::new();
    wl.check(q, &mut W::Extra::default(), &mut violations);
    violations
}

/// Replaces the workload-service state of member `addr` with
/// `doctor(that state)`, through the service's own `set_state`.
fn doctor_state<S: Service>(
    q: &mut Quiesced,
    addr: SockAddr,
    doctor: impl FnOnce(Vec<u8>) -> Vec<u8>,
) {
    service_mut(&mut q.world, addr, MEMBER_MODULE, |s: &mut S| {
        let state = doctor(s.get_state());
        s.set_state(&state);
    });
}

/// A store member's state with one object's value altered in the image
/// and the commit ledger left as it was.
fn alter_one_value(state: Vec<u8>) -> Vec<u8> {
    type State = (Vec<(u64, i64)>, Ledger);
    let (mut image, ledger) = from_bytes::<State>(&state).expect("the store's own state");
    image.first_mut().expect("something was committed").1 += 1;
    to_bytes(&(image, ledger))
}

/// Requires at least one violation, every one of them `oracle`'s.
fn assert_only(violations: &[Violation], oracle: &str) {
    assert!(
        !violations.is_empty() && violations.iter().all(|v| v.oracle == oracle),
        "expected {oracle} and only it: {violations:?}"
    );
}

#[test]
fn bcast_oracles_fire_on_a_swapped_order_a_forgotten_id_and_a_hoarded_cache() {
    type Member = OrderedBroadcastService<ChaosApp>;
    // Scripts short enough that the recent-ids window is the whole order,
    // so the test can rebuild the fold of a doctored order exactly.
    let opts = ScenarioOptions {
        txns_per_client: 5,
        ..Bcast::options()
    };
    let (mut q, _) = quiesce(&Bcast, 3, &opts);
    assert!(check(&Bcast, &q).is_empty(), "the scenario starts clean");
    let victim = q.members[1].addr;
    let mut clean = Vec::new();
    doctor_state::<Member>(&mut q, victim, |state| {
        clean = state.clone();
        state
    });
    let decode = |state: &[u8]| from_bytes::<StateWire>(state).expect("the member's own state");

    // Two applied ids swapped in one member's order: same ids, same
    // count, same application state bytes — only the fold knows.
    doctor_state::<Member>(&mut q, victim, |state| {
        let (app, order, set, retry, queue) = decode(&state);
        let mut ids = order.recent();
        assert!(ids.len() == order.len() && ids.len() <= RECENT_IDS);
        ids.swap(0, 1);
        let swapped: AppliedOrder = ids.into_iter().collect();
        to_bytes(&(app, swapped, set, retry, queue))
    });
    let violations = check(&Bcast, &q);
    assert_only(&violations, "identical-applied-order");
    assert!(
        violations
            .iter()
            .any(|v| v.detail.contains("applied orders diverge")),
        "{violations:?}"
    );

    // One confirmed id gone from one member's applied-id set.
    doctor_state::<Member>(&mut q, victim, |_| {
        let (app, order, mut set, retry, queue) = decode(&clean);
        assert!(set.remove(order.recent()[0]), "the first id applied");
        to_bytes(&(app, order, set, retry, queue))
    });
    let violations = check(&Bcast, &q);
    assert_only(&violations, "no-starvation");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].detail.contains("never applied it"));

    // A member that remembers every answer it ever gave: one retry-cache
    // entry per applied id, as the pre-compaction ledger held.
    doctor_state::<Member>(&mut q, victim, |_| {
        let (app, order, set, _, queue) = decode(&clean);
        let hoard: Vec<(u64, u64, u64, Vec<u8>)> = (order.recent().into_iter())
            .map(|id| (0, id, 0, Vec::new()))
            .collect();
        assert_eq!(hoard.len(), order.len());
        to_bytes(&(app, order, set, hoard, queue))
    });
    let violations = check(&Bcast, &q);
    assert_only(&violations, "bounded-state");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].detail.contains("retry-cache entries"));

    doctor_state::<Member>(&mut q, victim, |_| clean.clone());
    assert!(check(&Bcast, &q).is_empty(), "the clean state is clean");
}

#[test]
fn commute_oracle_fires_on_a_forgotten_id() {
    let (mut q, _) = quiesce(&Commute, 3, &Commute::options());
    assert!(check(&Commute, &q).is_empty(), "the scenario starts clean");
    // One confirmed id gone from one member's dedup ledger.
    let victim = q.members[1].addr;
    doctor_state::<CommutativeService>(&mut q, victim, |state| {
        type State = (Vec<(u64, i64)>, Vec<u64>, Vec<(u64, u64)>);
        let (counters, gset, mut seen) = from_bytes::<State>(&state).expect("the member's state");
        assert!(seen[0].0 < seen[0].1, "a client's run of ids");
        seen[0].0 += 1;
        to_bytes(&(counters, gset, seen))
    });
    let violations = check(&Commute, &q);
    assert_only(&violations, "convergence-without-commit");
    let reports = reports_of(&violations, "convergence-without-commit");
    assert!(
        reports.iter().any(|d| d.contains("never applied it"))
            && reports.iter().any(|d| d.contains("state digests diverge")),
        "{violations:?}"
    );
}

#[test]
fn recovery_oracles_fire_on_a_corrupt_value_and_a_phantom_commit() {
    let (seed, wl) = (3, Recovery::default());
    let (mut q, mut extra) = quiesce(&wl, seed, &Recovery::options());
    let recovered = extra.recovered.expect("the fault script ran");
    let check = |q: &chaos::Quiesced, extra: &mut chaos::RecoveryExtra| {
        let mut violations = Vec::new();
        wl.check(q, extra, &mut violations);
        violations
    };
    assert!(
        check(&q, &mut extra).is_empty(),
        "the scenario starts clean"
    );

    // (ii) One stored value altered on the recovered member only: same
    // ledger, different image.
    doctor_state::<TroupeStoreService>(&mut q, recovered, alter_one_value);
    let violations = check(&q, &mut extra);
    let digest = reports_of(&violations, "recovered-digest");
    assert_eq!(digest.len(), 2, "one per survivor: {violations:?}");
    assert!(
        digest.iter().all(|d| d.contains("has digest")),
        "{digest:?}"
    );
    assert!(
        reports_of(&violations, "torn-log-safety").is_empty(),
        "the ledger is intact: {violations:?}"
    );

    // (i) A delta holding a key no client submitted.
    let phantom = CommitRecord {
        thread: ThreadId {
            origin: SockAddr::new(HostId(99), 9),
            serial: 1,
        },
        nonce: 1,
        writes: Vec::new(),
    };
    service_mut(
        &mut q.world,
        recovered,
        MEMBER_MODULE,
        |store: &mut TroupeStoreService| store.apply_delta(&to_bytes(&vec![phantom])),
    );
    let violations = check(&q, &mut extra);
    let torn = reports_of(&violations, "torn-log-safety");
    assert_eq!(
        torn.iter()
            .filter(|d| d.contains("no client ever submitted"))
            .count(),
        1,
        "{violations:?}"
    );
    assert_eq!(
        torn.iter()
            .filter(|d| d.contains("resurrected a commit the troupe never agreed on"))
            .count(),
        2,
        "one per survivor: {violations:?}"
    );
}

#[test]
fn store_oracles_fire_on_a_rewritten_value_and_a_dead_member() {
    let (mut q, _) = quiesce(&Store, 3, &Store::options());
    assert!(check(&Store, &q).is_empty(), "the scenario starts clean");
    let victim = q.members[1].addr;

    // One object's value rewritten in one member's store image, its
    // ledger untouched: every commit is still where it should be, exactly
    // once — only the state it adds up to is wrong.
    doctor_state::<TroupeStoreService>(&mut q, victim, alter_one_value);
    let violations = check(&Store, &q);
    assert_only(&violations, "convergence");
    let reports = reports_of(&violations, "convergence");
    assert!(
        reports.iter().any(|d| d.contains("state digests diverge"))
            && reports
                .iter()
                .any(|d| d.contains("differs from ledger replay")),
        "{violations:?}"
    );

    // One registered member's process gone (and with it the doctored
    // state): the survivors agree, the registry still names three.
    q.world.kill(victim);
    let violations = check(&Store, &q);
    assert_only(&violations, "under-replication");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].detail.contains("is not a live process"));
}

#[test]
fn exactly_once_fires_on_a_recommitted_key() {
    let (mut q, _) = quiesce(&Store, 3, &Store::options());
    assert!(check(&Store, &q).is_empty(), "the scenario starts clean");
    let mut first = None;
    q.each_client::<Txn>(|_, a| first = first.or(a.committed_keys.first().copied()));
    let (thread, nonce) = first.expect("a client saw a commit");

    // One member runs a committed `(origin, nonce)` again, read-only: the
    // image is untouched and the ledger already holds the key, so only
    // the duplicate count knows.
    let (victim, now) = (q.members[1].addr, q.world.now());
    service_mut(
        &mut q.world,
        victim,
        MEMBER_MODULE,
        |s: &mut TroupeStoreService| {
            let mut ctx = ServiceCtx {
                thread,
                caller: TroupeId(0),
                invocation: u64::MAX,
                now,
                me: victim,
                span: obs::SpanId::NONE,
                metrics: obs::Registry::new(),
                effects: Vec::new(),
            };
            let again = ExecuteRequest {
                nonce,
                ops: vec![Op::Read(ObjId(1))],
            };
            let vote = s.dispatch(&mut ctx, PROC_EXECUTE, &to_bytes(&(again, now.as_micros())));
            assert!(matches!(vote, Step::Call(_)), "{vote:?}");
            let reply = s.resume(&mut ctx, Ok(to_bytes(&true)));
            assert!(matches!(reply, Step::Reply(_)), "{reply:?}");
        },
    );
    let violations = check(&Store, &q);
    assert_only(&violations, "exactly-once");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].detail.contains("already held"));
}

#[test]
fn atomicity_fires_on_a_commit_its_client_saw_abort() {
    let (mut q, _) = quiesce(&Store, 3, &Store::options());
    assert!(check(&Store, &q).is_empty(), "the scenario starts clean");
    let mut first = None;
    q.each_client::<Txn>(|addr, a| {
        first = first.or(a.committed_keys.first().map(|&key| (addr, key)));
    });
    let (client, key) = first.expect("a client saw a commit");

    // One client's view reports a key every member committed as
    // explicitly aborted: the ledgers still agree with one another and
    // with every commit a client saw, so only the abort contradicts them.
    agent_mut(&mut q.world, client, |c: &mut Client<Txn>| {
        c.aborted_keys.push(key);
    });
    let violations = check(&Store, &q);
    assert_only(&violations, "atomicity");
    assert_eq!(violations.len(), q.members.len(), "{violations:?}");
    let aborted = format!("saw {key:?} abort, yet member");
    assert!(
        violations.iter().all(|v| v.detail.contains(&aborted)),
        "{violations:?}"
    );
}

#[test]
fn stale_binding_fires_on_a_registry_that_moved_on() {
    let (mut q, _) = quiesce(&Store, 3, &Store::options());
    assert!(check(&Store, &q).is_empty(), "the scenario starts clean");
    let mut cached = None;
    q.each_client::<Txn>(|_, a| cached = a.cache().get(q.troupe).map(|t| t.id));
    let cached = cached.expect("a client caches the store's binding");

    // Every Ringmaster member re-binds the store's name, same members, to
    // an incarnation no client has heard of: each client's cached binding
    // now names a retired troupe id.
    type Registry = (Vec<(String, (Troupe, u64))>, Vec<(String, Vec<ModuleAddr>)>);
    for h in q.ringmaster_hosts.clone() {
        let addr = SockAddr::new(h, RINGMASTER_PORT);
        service_mut(
            &mut q.world,
            addr,
            BINDING_MODULE,
            |s: &mut RingmasterService| {
                let (mut entries, spares) =
                    from_bytes::<Registry>(&s.get_state()).expect("the registry's own state");
                let (_, (troupe, _)) = entries
                    .iter_mut()
                    .find(|(name, _)| name == q.troupe)
                    .expect("the store is bound");
                troupe.id = TroupeId(troupe.id.0 + 1);
                s.set_state(&to_bytes(&(entries, spares)));
            },
        );
    }
    let violations = check(&Store, &q);
    assert_only(&violations, "stale-binding");
    assert_eq!(violations.len(), q.client_addrs.len(), "{violations:?}");
    let stale = format!("(incarnation {cached:?})");
    assert!(
        violations.iter().all(|v| v.detail.contains(&stale)),
        "{violations:?}"
    );
}

/// Rewinds one client's next call to one member to call number 1, which
/// that connection carried long ago, and runs until the client's next
/// transaction has its call messages out, before any reaches a member.
fn rewind_a_call() -> (Quiesced, SockAddr, SockAddr) {
    let (mut q, _) = quiesce(&Store, 3, &Store::options());
    assert!(check(&Store, &q).is_empty(), "the scenario starts clean");
    let (client, member) = (q.client_addrs[0], q.members[0].addr);
    node_mut(&mut q.world, client, |n| n.set_call_number(member, 1));
    agent_mut(&mut q.world, client, |c: &mut Client<Txn>| {
        c.enqueue(Txn::probe(0))
    });
    q.world.poke(client, 0);
    let outstanding = |q: &Quiesced| {
        let census = node(&q.world, client, |n| n.census());
        census.iter().any(|&(l, n)| l == OUTSTANDING_CALLS && n > 0)
    };
    while !outstanding(&q) {
        assert!(q.world.step(), "the client never called");
    }
    (q, client, member)
}

/// The oracles name the client's one rewound call, and whatever else.
fn assert_regression_named(q: &Quiesced, client: SockAddr) -> Vec<Violation> {
    let violations = check(&Store, q);
    let named = reports_of(&violations, "serial-monotonicity");
    let sent = format!("{client} sent 1 non-monotonic call number");
    assert!(
        named.len() == 1 && named[0].contains(&sent),
        "{violations:?}"
    );
    violations
}

#[test]
fn serial_monotonicity_fires_on_a_rewound_call_number() {
    let (q, client, _) = rewind_a_call();
    assert_only(&assert_regression_named(&q, client), "serial-monotonicity");
}

/// The count outlives the connection that made it: the member is killed,
/// and the client declares it dead and drops its connection to it.
#[test]
fn serial_monotonicity_fires_on_a_rewound_call_to_a_member_since_killed() {
    let (mut q, client, member) = rewind_a_call();
    let held = node(&q.world, client, Node::conn_count);
    q.world.kill(member);
    while node(&q.world, client, Node::conn_count) >= held {
        assert!(q.world.step(), "the client never gave the member up");
    }
    assert_regression_named(&q, client);
}

/// The count outlives the process that made it.
#[test]
fn serial_monotonicity_fires_on_a_rewound_call_from_a_client_since_killed() {
    let (mut q, client, _) = rewind_a_call();
    q.world.kill(client);
    assert_regression_named(&q, client);
}

#[test]
fn split_call_fires_on_a_member_a_call_ahead() {
    let (mut q, _) = quiesce(&Store, 3, &Store::options());
    assert!(check(&Store, &q).is_empty(), "the scenario starts clean");

    // A registered client troupe of three on hosts the scenario never
    // used, which every store member knows from its directory.
    let id = TroupeId(0x5EED);
    let callers: Vec<SockAddr> = (150..153).map(|h| addr(h, 70)).collect();
    let config = NodeConfig::default();
    spawn_troupe(
        &mut q.world,
        id,
        &callers,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    q.spawned.extend(&callers);
    for m in &q.members {
        node_mut(&mut q.world, m.addr, |n| {
            n.preload_directory(id, callers.clone())
        });
    }
    // Every member calls the store's null procedure on `thread`, as one
    // replicated client, and the world runs past the assembly timeout.
    let store = Troupe::new(TroupeId::UNREGISTERED, q.members.clone());
    let all_call = |q: &mut Quiesced, thread: ThreadId| {
        for &c in &callers {
            let null = Request::new(&store, MEMBER_MODULE, reserved_procs::NULL, Vec::new());
            enqueue(&mut q.world, c, [null.on(thread)]);
            q.world.poke(c, 0);
        }
        q.world.run(Until::Elapsed(Duration::from_secs(5)));
        for &c in &callers {
            assert_eq!(results(&q.world, c).last(), Some(&Ok(Vec::new())), "{c}");
        }
    };

    // A replica that diverged: one troupe call more on the shared thread
    // than its peers, to a troupe with no member left, so nothing goes out
    // but the number is taken. Its copy of the next call carries 2 where
    // theirs carry 1: each store member opens two assemblies and times one
    // out on members it heard in the other.
    let shared = node_mut(&mut q.world, callers[0], Node::fresh_thread);
    let nobody = Troupe::new(TroupeId::UNREGISTERED, Vec::new());
    let ahead = Request::new(&nobody, MODULE, PROC_ECHO, Vec::new()).on(shared);
    let done = call(&mut q.world, callers[0], ahead, Duration::from_secs(1));
    assert_eq!(done, Err(CallError::AllMembersDead));
    all_call(&mut q, shared);

    // The returns those assemblies buffered for the members they missed
    // expire (60 s) at the next call message: one the members number
    // alike, on a fresh thread, which assembles once.
    q.world.run(Until::Elapsed(Duration::from_secs(61)));
    let fresh = node_mut(&mut q.world, callers[0], Node::fresh_thread);
    all_call(&mut q, fresh);

    let violations = check(&Store, &q);
    assert_only(&violations, "split-call");
    assert_eq!(violations.len(), q.members.len(), "{violations:?}");
    assert!(
        violations
            .iter()
            .all(|v| v.detail.contains("under another call_seq")),
        "{violations:?}"
    );
}

#[test]
fn bounded_state_fires_on_an_inflated_census_at_a_client() {
    let (mut q, _) = quiesce(&Store, 3, &Store::options());
    assert!(check(&Store, &q).is_empty(), "the scenario starts clean");
    let client = q.client_addrs[0];

    // A client that numbers calls to more peers than the world ever held
    // processes: what a call-number table keyed by something that grows
    // with the run would look like. No call is made, so nothing else can
    // notice.
    let peers = q.spawned.len() + q.outsiders + 1;
    node_mut(&mut q.world, client, |n| {
        for i in 0..peers {
            n.set_call_number(SockAddr::new(HostId(200 + i as u32), 9), 1);
        }
    });
    let violations = check(&Store, &q);
    assert_only(&violations, "bounded-state");
    assert_eq!(violations.len(), 1, "{violations:?}");
    let held = format!("process {client} holds");
    assert!(
        violations[0].detail.contains(&held) && violations[0].detail.contains(CALL_NUMBERS),
        "{violations:?}"
    );
}

#[test]
fn bounded_state_fires_on_a_ringmaster_hoarding_suspects() {
    let (mut q, _) = quiesce(&Store, 3, &Store::options());
    assert!(check(&Store, &q).is_empty(), "the scenario starts clean");
    // A Ringmaster member that is not the leader queues more suspects than
    // the world ever held processes; only the leader's healer drains one.
    let member = SockAddr::new(q.ringmaster_hosts[1], RINGMASTER_PORT);
    let made_up =
        (0..=q.spawned.len() + q.outsiders).map(|i| SockAddr::new(HostId(200 + i as u32), 9));
    service_mut(
        &mut q.world,
        member,
        BINDING_MODULE,
        |s: &mut RingmasterService| made_up.for_each(|addr| s.requeue_suspect(addr)),
    );
    let violations = check(&Store, &q);
    assert_only(&violations, "bounded-state");
    assert_eq!(violations.len(), 1, "{violations:?}");
    let held = format!("process {member} holds");
    let detail = &violations[0].detail;
    assert!(
        detail.contains(&held) && detail.contains("queued suspects"),
        "{detail}"
    );
}
