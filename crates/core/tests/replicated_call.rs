//! End-to-end tests of replicated procedure calls in the simulated world:
//! one-to-many, many-to-one, many-to-many, crashes, collators, nested
//! calls, and binding invalidation.

use circus::testbed::*;
use circus::{
    CallError, CollationPolicy, NodeConfig, OutCall, Service, ServiceCtx, Step, ThreadId, Troupe,
    TroupeId, TroupeTarget,
};
use pairedmsg::config::RETRANSMIT_INTERVAL;
use pairedmsg::{MsgType, SegmentHeader};
use simnet::{
    Duration, HostId, SockAddr, Syscall, SyscallCosts, Time, TraceEvent, TraceRing, World,
};
use wire::{from_bytes, to_bytes};

fn run(world: &mut World, d: u64) {
    world.run(simnet::Until::Elapsed(Duration::from_secs(d)));
}

/// Spawns `n` members at port 70 of hosts `first_host..`, each exporting
/// `service()` as [`MODULE`], as troupe `id`.
fn spawn_members<S: Service>(
    world: &mut World,
    id: u64,
    first_host: u32,
    n: u32,
    service: impl FnMut() -> S,
) -> Troupe {
    let addrs: Vec<SockAddr> = (first_host..first_host + n).map(|h| addr(h, 70)).collect();
    let config = NodeConfig::default();
    spawn_troupe(world, TroupeId(id), &addrs, MODULE, &config, None, service)
}

/// Spawns a server troupe of `CountingService`s.
fn spawn_server_troupe(world: &mut World, id: u64, first_host: u32, n: u32) -> Troupe {
    spawn_members(world, id, first_host, n, CountingService::default)
}

/// Spawns the unreplicated client, at host 100, with `script` queued: one
/// call per poke.
fn spawn_client(world: &mut World, script: Vec<Request>) -> SockAddr {
    let client = spawn_caller(world, addr(100, 200), NodeConfig::default(), None);
    enqueue(world, client, script);
    client
}

/// Spawns a replicated client: troupe `id` with a member at port 50 of
/// each of `hosts`, every member about to make `request` on the troupe's
/// one thread. Returns the members' addresses.
fn spawn_client_troupe(
    world: &mut World,
    id: u64,
    hosts: &[u32],
    request: Request,
) -> Vec<SockAddr> {
    let addrs: Vec<SockAddr> = hosts.iter().map(|&h| addr(h, 50)).collect();
    let config = NodeConfig::default();
    spawn_troupe(
        world,
        TroupeId(id),
        &addrs,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    let thread = ThreadId {
        origin: addr(200, 1),
        serial: 1,
    };
    for &a in &addrs {
        enqueue(world, a, [request.clone().on(thread)]);
    }
    addrs
}

/// Tells the member at `server` that client troupe `id` is `members`
/// (§4.3.2; the binding-agent path is tested in `ringmaster`).
fn introduce(world: &mut World, server: SockAddr, id: u64, members: &[SockAddr]) {
    node_mut(world, server, |n| {
        n.preload_directory(TroupeId(id), members.to_vec())
    });
}

#[test]
fn unreplicated_call_works_like_rpc() {
    let mut w = world(1);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 1);
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_ECHO, b"hello".to_vec())],
    );
    w.poke(client, 0);
    run(&mut w, 5);
    assert_eq!(results(&w, client), vec![Ok(b"hello".to_vec())]);
    assert_eq!(executions(&w, troupe.members[0]), 1);
    assert_quiescent(&w);
}

/// The world's cost table is the node's one price list: the stubs'
/// marshalling is `Syscall::Compute`, 3.0 ms a message on the 1985 table
/// and nothing on a free one, where no process is charged any CPU at all.
#[test]
fn the_cost_table_prices_every_charge_a_node_makes() {
    let echo = |costs| {
        let mut w = World::with_config(4, simnet::NetConfig::lan_1985(), costs);
        let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
        let client = spawn_client(
            &mut w,
            vec![Request::new(&troupe, MODULE, PROC_ECHO, vec![])],
        );
        w.poke(client, 0);
        run(&mut w, 5);
        assert_eq!(results(&w, client), vec![Ok(Vec::new())]);
        w.proc_addrs().into_iter().map(move |a| w.cpu(a))
    };
    let compute = Syscall::Compute.index();
    let free = echo(SyscallCosts::free());
    for (vax, free) in echo(SyscallCosts::vax_4_2bsd()).zip(free) {
        assert!(vax.count_of(compute) > 0);
        assert_eq!(vax.time_in_us(compute), 3_000 * vax.count_of(compute));
        assert_eq!(free.count_of(compute), vax.count_of(compute));
        assert_eq!(free.total_us(), 0, "{free:?}");
    }
}

#[test]
fn one_to_many_executes_at_every_member() {
    let mut w = world(2);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_ADD, to_bytes(&7u32))],
    );
    w.poke(client, 0);
    run(&mut w, 5);
    let results = results(&w, client);
    assert_eq!(results.len(), 1);
    assert_eq!(from_bytes::<u32>(results[0].as_ref().unwrap()).unwrap(), 7);
    // Exactly-once at ALL replicas (§4.1).
    for &m in &troupe.members {
        assert_eq!(executions(&w, m), 1);
    }
    assert_quiescent(&w);
}

#[test]
fn sequential_calls_have_consistent_state() {
    let mut w = world(3);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let req = |n: u32| Request::new(&troupe, MODULE, PROC_ADD, to_bytes(&n));
    let client = spawn_client(&mut w, vec![req(1), req(2), req(3)]);
    for _ in 0..3 {
        w.poke(client, 0);
        run(&mut w, 5);
    }
    let results = results(&w, client);
    let totals: Vec<u32> = results
        .iter()
        .map(|r| from_bytes(r.as_ref().unwrap()).unwrap())
        .collect();
    assert_eq!(totals, vec![1, 3, 6]);
    assert_quiescent(&w);
}

#[test]
fn deterministic_error_propagates() {
    let mut w = world(4);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_FAIL, Vec::new())],
    );
    w.poke(client, 0);
    run(&mut w, 5);
    assert_eq!(
        results(&w, client),
        vec![Err(CallError::Remote("deterministic failure".into()))]
    );
    assert_quiescent(&w);
}

#[test]
fn unanimous_detects_nondeterminism() {
    let mut w = world(5);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_NONDET, Vec::new())],
    );
    w.poke(client, 0);
    run(&mut w, 5);
    assert_eq!(results(&w, client), vec![Err(CallError::Disagreement)]);
    assert_quiescent(&w);
}

#[test]
fn first_come_ignores_nondeterminism() {
    let mut w = world(6);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_NONDET, Vec::new())
            .collate(CollationPolicy::FirstCome)],
    );
    w.poke(client, 0);
    run(&mut w, 5);
    let results = results(&w, client);
    assert_eq!(results.len(), 1);
    assert!(results[0].is_ok());
    assert_quiescent(&w);
}

#[test]
fn crash_of_one_member_is_masked() {
    let mut w = world(7);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    // Kill member 1 before the call.
    w.crash_host(HostId(2));
    let client = spawn_client(
        &mut w,
        vec![Request::new(
            &troupe,
            MODULE,
            PROC_ECHO,
            b"still here".to_vec(),
        )],
    );
    w.poke(client, 0);
    run(&mut w, 60); // Crash detection needs probe timeouts.
    assert_eq!(results(&w, client), vec![Ok(b"still here".to_vec())]);
    // The client should have been notified of the dead member.
    let dead = agent(&w, client, |c: &Caller| c.dead_members.clone());
    assert_eq!(dead, vec![addr(2, 70)]);
    assert_quiescent(&w);
}

/// A member whose process was killed, its host up, is dead on its host's
/// word: the host answers the call with port-unreachable, and the call
/// completes from the survivors within a second. A member whose host is
/// down answers nothing, and the call still waits out the crash horizon.
#[test]
fn a_killed_member_is_given_up_at_once_a_crashed_one_at_the_horizon() {
    for crash in [false, true] {
        let mut w = world(7);
        let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
        let victim = troupe.members[1].addr;
        if crash {
            w.crash_host(victim.host);
        } else {
            w.kill(victim);
        }
        let echo = Request::new(&troupe, MODULE, PROC_ECHO, b"who".to_vec());
        let client = spawn_client(&mut w, vec![echo]);
        w.poke(client, 0);
        run(&mut w, 60);
        let (result, took) = agent(&w, client, |c: &Caller| {
            let call = &c.completed[0];
            (call.result.clone(), call.done.since(call.begun))
        });
        assert_eq!(result, Ok(b"who".to_vec()));
        let dead = agent(&w, client, |c: &Caller| c.dead_members.clone());
        assert_eq!(dead, vec![victim]);
        assert_eq!(w.net_stats().unreachable, u64::from(!crash));
        if crash {
            assert!(
                took > Duration::from_millis(4_500),
                "crashed: took {took:?}"
            );
        } else {
            assert!(took < Duration::from_secs(1), "killed: took {took:?}");
        }
        assert_quiescent(&w);
    }
}

/// The timer package (§4.2.4: `gettimeofday`, `sigblock`, `setitimer`)
/// is charged only where the node's one timer is armed. Two calls back
/// to back: the second's retransmission deadline falls after the one the
/// first armed, so it adds no `setitimer` and no `gettimeofday` to the
/// client.
#[test]
fn a_call_behind_the_armed_timer_charges_no_timer_package() {
    let mut w = world(7);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let echo = || Request::new(&troupe, MODULE, PROC_ECHO, b"twice".to_vec());
    let client = spawn_client(&mut w, vec![echo(), echo()]);
    let package = |w: &World| {
        let cpu = w.cpu(client);
        [Syscall::SetITimer, Syscall::GetTimeOfDay].map(|s| cpu.count_of(s.index()))
    };
    let done = |w: &World| agent(w, client, |c: &Caller| c.completed.len());
    w.poke(client, 1);
    while done(&w) < 1 {
        assert!(w.step());
    }
    assert_eq!(package(&w), [1, 1], "the first call arms the node's timer");
    while done(&w) < 2 {
        assert!(w.step());
    }
    assert_eq!(package(&w), [1, 1], "the second call arms nothing");
    assert_eq!(results(&w, client), vec![Ok(b"twice".to_vec()); 2]);
}

/// A node runs one protocol timer on an honest clock. A call goes to a
/// troupe of four: a live member, whose address sorts first, and three
/// on hosts that are down. Each dead member's first retransmission leaves
/// exactly `RETRANSMIT_INTERVAL` after its first transmission: its clock
/// started when that went to the wire, a `sendmsg` or more after the call
/// was queued, and the timer fires at the deadline, not late by the sends
/// of the flush that armed it. No flush arms more than one timer, and no
/// member is given up before the crash horizon.
#[test]
fn every_retransmission_clock_starts_at_the_wire() {
    let mut w = world(7);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 4);
    let dead: Vec<SockAddr> = (2..=4).map(|h| addr(h, 70)).collect();
    for m in &dead {
        w.crash_host(m.host);
    }
    w.set_trace_sink(Box::new(TraceRing::unbounded()));
    let echo = Request::new(&troupe, MODULE, PROC_ECHO, b"anyone".to_vec());
    let client = spawn_client(&mut w, vec![echo]);
    let arms = |w: &World| w.cpu(client).count_of(Syscall::SetITimer.index());
    w.poke(client, 0);
    while w.cpu(client).count_of(Syscall::SendMsg.index()) == 0 {
        assert!(w.step());
    }
    // The node's one timer: the call arms none of its own.
    assert_eq!(arms(&w), 1);
    let mut before = arms(&w);
    while w.step() {
        let after = arms(&w);
        assert!(after - before <= 1, "one timer per flush");
        before = after;
    }
    assert_eq!(results(&w, client), vec![Ok(b"anyone".to_vec())]);

    let ring = w.trace_sink_as::<TraceRing>().expect("the ring");
    let horizon = pairedmsg::Config::default().crash_horizon();
    let done = agent(&w, client, |c: &Caller| c.completed[0].done);
    for &m in &dead {
        let calls: Vec<Time> = (ring.events().iter())
            .filter_map(|ev| match ev {
                TraceEvent::Send {
                    at, from, to, head, ..
                } if (*from, *to) == (client, m) => {
                    let h = SegmentHeader::decode(head).expect("a segment");
                    (h.msg_type == MsgType::Call && !h.ack && !h.probe).then_some(*at)
                }
                _ => None,
            })
            .collect();
        let retransmits = pairedmsg::Config::default().max_retransmits as usize;
        assert_eq!(calls.len(), 1 + retransmits, "to {m}");
        assert_eq!(calls[1].since(calls[0]), RETRANSMIT_INTERVAL, "to {m}");
        // The call waited for every member to be given up, a horizon
        // after the first `sendmsg` to it began.
        let sendmsg = SyscallCosts::vax_4_2bsd().cost(Syscall::SendMsg);
        assert!(
            done.since(calls[0]) + sendmsg >= horizon,
            "{m} given up early"
        );
    }
    let mut gave_up = agent(&w, client, |c: &Caller| c.dead_members.clone());
    gave_up.sort();
    assert_eq!(gave_up, dead);
}

/// A node's counts are the registry's, not its connections': the client's
/// retransmissions to a member whose host is down, and every segment it
/// sent, keep counting through the `PeerDead` that drops its connection
/// to that member, and never go down.
#[test]
fn a_count_never_goes_down() {
    let mut w = world(7);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    w.crash_host(HostId(2));
    let echo = Request::new(&troupe, MODULE, PROC_ECHO, b"anyone".to_vec());
    let client = spawn_client(&mut w, vec![echo]);
    let reg = w.metrics();
    let counts = || {
        let key = |what| format!("rpc.{client}.{what}");
        [reg.get(&key("retransmits")), reg.get(&key("segments_sent"))]
    };
    let gave_up = |w: &World| agent(w, client, |c: &Caller| !c.dead_members.is_empty());
    let rose = |after: [u64; 2], before: [u64; 2]| after[0] >= before[0] && after[1] >= before[1];
    w.poke(client, 0);
    let mut before = counts();
    while !gave_up(&w) {
        assert!(w.step(), "the client never gave the member up");
        let after = counts();
        assert!(rose(after, before), "{after:?} after {before:?}");
        before = after;
    }
    let retransmits = u64::from(pairedmsg::Config::default().max_retransmits);
    assert!(before[0] >= retransmits, "{before:?}");
    run(&mut w, 60);
    assert_eq!(results(&w, client), vec![Ok(b"anyone".to_vec())]);
    let after = counts();
    assert!(rose(after, before), "{after:?} after {before:?}");
}

#[test]
fn total_failure_reported() {
    let mut w = world(8);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    for h in 1..=3 {
        w.crash_host(HostId(h));
    }
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_ECHO, Vec::new())],
    );
    w.poke(client, 0);
    run(&mut w, 120);
    assert_eq!(results(&w, client), vec![Err(CallError::AllMembersDead)]);
    assert_quiescent(&w);
}

#[test]
fn majority_collation_masks_one_divergent_member() {
    let mut w = world(9);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    // PROC_NONDET replies with the host number; to give two members the
    // same answer we instead use a troupe where two members share... we
    // cannot: hosts differ. Use PROC_ECHO for 2 members and corrupt one
    // member's state so PROC_ADD diverges.
    let divergent = troupe.members[2].addr;
    service_mut(&mut w, divergent, MODULE, |s: &mut CountingService| {
        s.total = 100
    });
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_ADD, to_bytes(&1u32))
            .collate(CollationPolicy::Majority)],
    );
    w.poke(client, 0);
    run(&mut w, 5);
    let results = results(&w, client);
    assert_eq!(
        from_bytes::<u32>(results[0].as_ref().unwrap()).unwrap(),
        1,
        "majority should mask the divergent member's 101"
    );
    assert_quiescent(&w);
}

#[test]
fn stale_binding_rejected() {
    let mut w = world(10);
    let mut troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    // The client's cached troupe has a stale incarnation.
    troupe.id = TroupeId(9999);
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_ECHO, Vec::new())],
    );
    w.poke(client, 0);
    run(&mut w, 5);
    assert_eq!(
        results(&w, client),
        vec![Err(CallError::StaleBinding(Some(TroupeId(10))))]
    );
    // No member executed the call (§6.2: such calls "cannot be allowed
    // to succeed").
    for h in 0..3 {
        assert_eq!(executions(&w, troupe.members[h]), 0);
    }
    assert_quiescent(&w);
}

#[test]
fn many_to_one_executes_once_and_answers_all() {
    // A replicated client troupe (3 members) calls an unreplicated
    // server: the server must execute ONCE and reply to every member
    // (§4.3.2).
    let mut w = world(11);
    let server = spawn_server_troupe(&mut w, 20, 1, 1);
    let add = Request::new(&server, MODULE, PROC_ADD, to_bytes(&5u32));
    let client_addrs = spawn_client_troupe(&mut w, 30, &[10, 11, 12], add);
    // The server must know the client troupe's membership (§4.3.2).
    introduce(&mut w, server.members[0].addr, 30, &client_addrs);

    for &a in &client_addrs {
        w.poke(a, 0);
    }
    run(&mut w, 5);

    // Exactly once at the server despite three call messages.
    assert_eq!(executions(&w, server.members[0]), 1);
    // Every client member received the result.
    for &a in &client_addrs {
        let results = results(&w, a);
        assert_eq!(results.len(), 1, "client {a} missing result");
        assert_eq!(from_bytes::<u32>(results[0].as_ref().unwrap()).unwrap(), 5);
    }
    assert_quiescent(&w);
}

#[test]
fn many_to_many_call() {
    // 2-member client troupe calls 3-member server troupe: each server
    // member executes once; each client member gets a result (§4.3.3).
    let mut w = world(12);
    let server = spawn_server_troupe(&mut w, 20, 1, 3);
    let add = Request::new(&server, MODULE, PROC_ADD, to_bytes(&3u32));
    let client_addrs = spawn_client_troupe(&mut w, 30, &[10, 11], add);
    for m in &server.members {
        introduce(&mut w, m.addr, 30, &client_addrs);
    }
    for &a in &client_addrs {
        w.poke(a, 0);
    }
    run(&mut w, 5);

    for &m in &server.members {
        assert_eq!(executions(&w, m), 1);
    }
    for &a in &client_addrs {
        let results = results(&w, a);
        assert_eq!(results.len(), 1);
        assert_eq!(from_bytes::<u32>(results[0].as_ref().unwrap()).unwrap(), 3);
    }
    assert_quiescent(&w);
}

/// A service that forwards every echo through a second troupe, recording
/// the thread IDs it sees (nested calls + thread propagation, §3.4.1).
struct Forwarder {
    downstream: Troupe,
    pending_args: Vec<u8>,
}

impl Service for Forwarder {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        self.pending_args = args.to_vec();
        Step::Call(OutCall {
            target: TroupeTarget::Troupe(self.downstream.clone()),
            module: MODULE,
            proc: PROC_WHO,
            args: Vec::new().into(),
            collation: CollationPolicy::Unanimous,
            solo: false,
        })
    }

    fn resume(&mut self, _ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        match reply {
            Ok(_) => Step::Reply(self.pending_args.clone()),
            Err(e) => Step::Error(format!("downstream failed: {e}")),
        }
    }
}

#[test]
fn nested_call_propagates_thread_id() {
    let mut w = world(13);
    // Downstream troupe B of CountingService (records thread ids).
    let b = spawn_server_troupe(&mut w, 40, 5, 2);
    // Middle troupe A of Forwarders (2 members) with troupe id 41.
    let a_troupe = spawn_members(&mut w, 41, 1, 2, || Forwarder {
        downstream: b.clone(),
        pending_args: Vec::new(),
    });
    // B's members must know A's membership to group the nested calls.
    for m in &b.members {
        introduce(&mut w, m.addr, 41, &[addr(1, 70), addr(2, 70)]);
    }

    let client = spawn_client(
        &mut w,
        vec![Request::new(
            &a_troupe,
            MODULE,
            PROC_ECHO,
            b"via A".to_vec(),
        )],
    );
    w.poke(client, 0);
    run(&mut w, 10);

    assert_eq!(results(&w, client), vec![Ok(b"via A".to_vec())]);
    // Each B member executed the nested call exactly once, on behalf of
    // the ORIGINAL thread (whose base is the client).
    for &m in &b.members {
        let threads = service(&w, m.addr, MODULE, |s: &CountingService| {
            s.seen_threads.clone()
        });
        assert_eq!(threads.len(), 1);
        assert_eq!(threads[0].origin, client, "thread id not propagated");
        assert_eq!(executions(&w, m), 1);
    }
    assert_quiescent(&w);
}

#[test]
fn reserved_procedures_work() {
    let mut w = world(14);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 1);
    let member = troupe.members[0].addr;
    // Prime some state.
    let client = spawn_client(
        &mut w,
        vec![
            Request::new(&troupe, MODULE, PROC_ADD, to_bytes(&9u32)),
            Request::new(
                &troupe,
                MODULE,
                circus::binding::reserved_procs::GET_STATE,
                Vec::new(),
            ),
            Request::new(
                &troupe,
                MODULE,
                circus::binding::reserved_procs::NULL,
                Vec::new(),
            ),
            Request::new(
                &troupe,
                MODULE,
                circus::binding::reserved_procs::SET_TROUPE_ID,
                to_bytes(&Troupe::new(TroupeId(777), troupe.members.clone())),
            ),
        ],
    );
    for _ in 0..4 {
        w.poke(client, 0);
        run(&mut w, 5);
    }
    let results = results(&w, client);
    assert_eq!(results.len(), 4);
    // get_state returned the externalized (executions, total).
    let state: (u32, u32) = from_bytes(results[1].as_ref().unwrap()).unwrap();
    assert_eq!(state, (1, 9));
    // null returned empty.
    assert_eq!(results[2], Ok(Vec::new()));
    // set_troupe_id installed the new incarnation.
    assert_eq!(node(&w, member, circus::Node::troupe_id), TroupeId(777));
    assert_quiescent(&w);
}

/// A state fetch hands the fetcher its troupe's call numbers (§4.3.3,
/// §6.4.1): the joiner's next call to each peer goes out under the larger
/// of its own number and the survivor's, never a lower one, and the
/// survivor's number for the joiner itself is not taken. The service's
/// `get_state` contract is unchanged: the state arrives as it left.
#[test]
fn a_state_fetch_raises_the_fetchers_call_numbers_to_the_survivors() {
    let mut w = world(15);
    let survivor = spawn_server_troupe(&mut w, 10, 1, 1);
    let (ahead, behind) = (
        spawn_server_troupe(&mut w, 11, 2, 1),
        spawn_server_troupe(&mut w, 12, 3, 1),
    );
    let (a, b) = (ahead.members[0].addr, behind.members[0].addr);
    let fetch = circus::binding::reserved_procs::GET_STATE;
    let client = spawn_client(
        &mut w,
        vec![
            Request::new(&survivor, MODULE, fetch, Vec::new()),
            Request::new(&ahead, MODULE, PROC_ECHO, b"a".to_vec()),
            Request::new(&behind, MODULE, PROC_ECHO, b"b".to_vec()),
        ],
    );
    node_mut(&mut w, survivor.members[0].addr, |n| {
        n.set_call_number(a, 9);
        n.set_call_number(b, 3);
        n.set_call_number(client, 40);
    });
    node_mut(&mut w, client, |n| n.set_call_number(b, 6));
    w.add_trace_sink(Box::new(simnet::TraceRing::unbounded()));
    for _ in 0..3 {
        w.poke(client, 0);
        run(&mut w, 5);
    }

    let results = results(&w, client);
    let state: (u32, u32) = from_bytes(results[0].as_ref().unwrap()).unwrap();
    assert_eq!(state, (0, 0));
    let events = w.trace_sink_as::<simnet::TraceRing>().unwrap().events();
    let numbered = |to| {
        let sent = events.iter().filter_map(|e| match e {
            simnet::TraceEvent::Send {
                from, to: t, head, ..
            } if *from == client && *t == to => pairedmsg::SegmentHeader::decode(head).ok(),
            _ => None,
        });
        let calls = sent.filter(|h| h.msg_type == pairedmsg::MsgType::Call && !h.ack);
        calls.map(|h| h.call_number).collect::<Vec<_>>()
    };
    assert_eq!(numbered(a), [9], "raised to the survivor's");
    assert_eq!(numbered(b), [6], "its own, the larger");
    let census = node(&w, client, circus::Node::census);
    let numbers = census
        .iter()
        .find(|(l, _)| *l == circus::census::CALL_NUMBERS);
    assert_eq!(
        numbers,
        Some(&(circus::census::CALL_NUMBERS, 3)),
        "none for itself"
    );
}

/// A ready_to_commit-style callback service: on PROC_ECHO it calls BACK
/// to the caller troupe's module 2, then replies with what the caller
/// troupe answered (the call-back pattern of §5.3).
#[derive(Default)]
struct CallbackServer {
    executions: u32,
}

impl Service for CallbackServer {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
        self.executions += 1;
        Step::Call(OutCall {
            target: TroupeTarget::Caller,
            module: 2,
            proc: 0,
            args: b"are you ready?".into(),
            collation: CollationPolicy::Unanimous,
            solo: false,
        })
    }

    fn resume(&mut self, _ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        match reply {
            Ok(v) => Step::Reply(v),
            Err(e) => Step::Error(format!("callback failed: {e}")),
        }
    }
}

/// The client's exported module answering callbacks.
struct ReadyResponder;

impl Service for ReadyResponder {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
        Step::Reply(b"yes".to_vec())
    }
}

#[test]
fn callback_to_caller_troupe() {
    let mut w = world(15);
    let server = spawn_members(&mut w, 50, 1, 1, CallbackServer::default);

    // The client exports module 2 to receive callbacks.
    let client_addr = addr(100, 200);
    let config = NodeConfig::default();
    spawn_troupe(
        &mut w,
        TroupeId::UNREGISTERED,
        &[client_addr],
        2,
        &config,
        None,
        || ReadyResponder,
    );
    let ask = Request::new(&server, MODULE, PROC_ECHO, Vec::new());
    enqueue(&mut w, client_addr, [ask]);

    w.poke(client_addr, 0);
    run(&mut w, 10);
    assert_eq!(results(&w, client_addr), vec![Ok(b"yes".to_vec())]);
    assert_quiescent(&w);
}

/// A crashed client member under the server's dead-peer marker costs a
/// later call nothing (§4.3.2). With no binding agent, nothing evicts it:
/// the call that finds it dead waits out the assembly timeout for its
/// call message and the crash horizon for its call-back; the call made
/// while the marker lives excuses it from the assembly at once and does
/// not call it back.
#[test]
fn a_member_under_its_dead_peer_marker_is_excused_from_later_calls() {
    let mut w = world(16);
    let server = spawn_members(&mut w, 52, 1, 1, CallbackServer::default);
    let server_addr = server.members[0].addr;
    let executions = |w: &World| service(w, server_addr, MODULE, |s: &CallbackServer| s.executions);
    let clients: Vec<SockAddr> = (10..13).map(|h| addr(h, 50)).collect();
    let config = NodeConfig::default();
    spawn_troupe(&mut w, TroupeId(53), &clients, 2, &config, None, || {
        ReadyResponder
    });
    introduce(&mut w, server_addr, 53, &clients);
    let thread = ThreadId {
        origin: addr(200, 1),
        serial: 1,
    };
    let ask = Request::new(&server, MODULE, PROC_ECHO, Vec::new()).on(thread);
    let call = |w: &mut World, members: &[SockAddr]| {
        for &m in members {
            enqueue(w, m, [ask.clone()]);
            w.poke(m, 0);
        }
    };
    let took = |w: &World, m: SockAddr| {
        agent(w, m, |c: &Caller| {
            let last = c.completed.last().expect("a finished call");
            assert_eq!(last.result, Ok(b"yes".to_vec()));
            last.done.since(last.begun)
        })
    };
    let (live, dead) = (&clients[..2], clients[2]);

    call(&mut w, &clients);
    run(&mut w, 2);
    assert_eq!(executions(&w), 1);

    // Call 2: the assembly timeout (10 s), then the call-back's crash
    // horizon (4.5 s) before `PeerDead` marks the member dead.
    w.crash_host(dead.host);
    call(&mut w, live);
    run(&mut w, 16);
    assert_eq!(executions(&w), 2);
    for &m in live {
        assert!(
            took(&w, m) > Duration::from_secs(14),
            "{m} took {:?}",
            took(&w, m)
        );
    }

    // Call 3, under the marker: one execution, in well under a second
    // of simulated time.
    call(&mut w, live);
    run(&mut w, 1);
    assert_eq!(executions(&w), 3);
    for &m in live {
        assert_eq!(results(&w, m).len(), 3);
        assert!(
            took(&w, m) < Duration::from_secs(1),
            "{m} took {:?}",
            took(&w, m)
        );
    }
    assert_quiescent(&w);
}

#[test]
fn exactly_once_under_heavy_loss() {
    let mut w = World::with_config(
        16,
        simnet::NetConfig::lossy(0.25),
        simnet::SyscallCosts::vax_4_2bsd(),
    );
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let req = |n: u32| Request::new(&troupe, MODULE, PROC_ADD, to_bytes(&n));
    let client = spawn_client(&mut w, vec![req(1), req(1), req(1)]);
    for _ in 0..3 {
        w.poke(client, 0);
        run(&mut w, 30);
    }
    let results = results(&w, client);
    assert_eq!(results.len(), 3, "calls lost under loss: {results:?}");
    // Each call executed exactly once at each member: totals 1,2,3.
    let totals: Vec<u32> = results
        .iter()
        .map(|r| from_bytes(r.as_ref().unwrap()).unwrap())
        .collect();
    assert_eq!(totals, vec![1, 2, 3]);
    for &m in &troupe.members {
        assert_eq!(executions(&w, m), 3);
    }
    assert_quiescent(&w);
}

#[test]
fn deterministic_across_seeds() {
    // The protocol outcome (results, execution counts) is identical for
    // different network seeds even though timings differ.
    fn outcome(seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut w = world(seed);
        let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
        let req = |n: u32| Request::new(&troupe, MODULE, PROC_ADD, to_bytes(&n));
        let client = spawn_client(&mut w, vec![req(2), req(3)]);
        w.poke(client, 0);
        run(&mut w, 5);
        w.poke(client, 0);
        run(&mut w, 5);
        let totals = results(&w, client)
            .iter()
            .map(|r| from_bytes(r.as_ref().unwrap()).unwrap())
            .collect();
        let execs = troupe.members.iter().map(|&m| executions(&w, m)).collect();
        (totals, execs)
    }
    assert_eq!(outcome(100), outcome(101));
}

#[test]
fn watchdog_detects_late_disagreement() {
    // The watchdog scheme (§4.3.4): computation proceeds with the first
    // reply, but late replies are compared and inconsistency raises an
    // alarm. PROC_NONDET replies differ per member, so the watchdog must
    // fire; plain FirstCome (tested above) stays silent.
    let mut w = world(17);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let watched = CollationPolicy::FirstComeWatchdog;
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_NONDET, Vec::new()).collate(watched)],
    );
    w.poke(client, 0);
    run(&mut w, 10);

    let (result, alarms) = agent(&w, client, |c: &Caller| {
        (c.completed[0].result.clone(), c.violations.len())
    });
    // Computation proceeded with the first reply...
    assert!(result.is_ok(), "first-come result must be delivered");
    // ...and the watchdog flagged the inconsistency.
    assert!(
        alarms >= 1,
        "watchdog never fired on nondeterministic replies"
    );
    assert_quiescent(&w);
}

#[test]
fn watchdog_silent_when_replies_agree() {
    let mut w = world(18);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let watched = CollationPolicy::FirstComeWatchdog;
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_ECHO, b"same".to_vec()).collate(watched)],
    );
    w.poke(client, 0);
    run(&mut w, 10);
    let (done, alarms) = agent(&w, client, |c: &Caller| {
        (c.completed.len(), c.violations.len())
    });
    assert_eq!(done, 1);
    assert_eq!(alarms, 0, "watchdog fired on identical replies");
    assert_quiescent(&w);
}

#[test]
fn slow_client_member_served_from_buffer() {
    // §4.3.4's first-come argument collation: the server executes on the
    // first call message and buffers its return for the slow members —
    // "execution of the procedure thus appears instantaneous to the slow
    // client troupe members".
    struct FirstComeService {
        executions: u32,
    }
    impl Service for FirstComeService {
        fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
            self.executions += 1;
            Step::Reply(args.to_vec())
        }
        fn arg_collation(&self, _proc: u16) -> CollationPolicy {
            CollationPolicy::FirstCome
        }
    }

    let mut w = world(19);
    let server = spawn_members(&mut w, 60, 1, 1, || FirstComeService { executions: 0 });
    let server_addr = server.members[0].addr;
    let executions =
        |w: &World| service(w, server_addr, MODULE, |s: &FirstComeService| s.executions);

    // A 2-member client troupe sharing one logical thread; the second
    // member is poked much later.
    let hi = Request::new(&server, MODULE, PROC_ECHO, b"hi".to_vec());
    let clients = spawn_client_troupe(&mut w, 61, &[10, 11], hi);
    let (fast, slow) = (clients[0], clients[1]);
    introduce(&mut w, server_addr, 61, &clients);

    // Fast member calls immediately; the server (first-come args)
    // executes at once.
    w.poke(fast, 0);
    run(&mut w, 5);
    assert_eq!(results(&w, fast), vec![Ok(b"hi".to_vec())]);
    assert_eq!(executions(&w), 1);

    // The slow member calls 20 seconds later: the buffered return is
    // ready and waiting; the procedure is NOT executed again.
    run(&mut w, 20);
    w.poke(slow, 0);
    run(&mut w, 5);
    assert_eq!(results(&w, slow), vec![Ok(b"hi".to_vec())]);
    assert_eq!(
        executions(&w),
        1,
        "exactly-once violated for the slow member"
    );
    assert_quiescent(&w);
}

/// A thread's `call_seq` never repeats, however long the thread idles
/// (the note on `CallSeqs` in `calls.rs`). Client member A's first call
/// on the troupe's thread waits out the server's 10 s assembly timeout
/// for silent member B, so the return buffered for B is younger than A's
/// call. 65 s after that call began — past the 60 s `DONE_TTL` by A's
/// own clock — A calls again on the thread. A table that had retired the
/// thread would number it 1 again and get call 1's buffered return; this
/// one numbers it 2, and the server executes it.
#[test]
fn thread_idle_past_done_ttl_calls_on_at_the_next_sequence_number() {
    let mut w = world(23);
    let server = spawn_server_troupe(&mut w, 20, 1, 1);
    let add = |n: u32| Request::new(&server, MODULE, PROC_ADD, to_bytes(&n));
    let clients = spawn_client_troupe(&mut w, 30, &[10, 11], add(5));
    let (a, b) = (clients[0], clients[1]);
    introduce(&mut w, server.members[0].addr, 30, &clients);
    let thread = ThreadId {
        origin: addr(200, 1),
        serial: 1,
    };
    enqueue(&mut w, a, [add(7).on(thread)]);
    let total = |r: &Result<Vec<u8>, CallError>| from_bytes::<u32>(r.as_ref().unwrap()).unwrap();

    // Call 1 executes once the assembly gives up on B, at 10 s.
    w.poke(a, 0);
    run(&mut w, 65);
    assert_eq!(results(&w, a).iter().map(total).collect::<Vec<_>>(), [5]);

    // A's call 2 goes out; B's first call on the thread, its copy of
    // call 1, still finds call 1's return buffered.
    w.poke(a, 0);
    run(&mut w, 1);
    w.poke(b, 0);
    run(&mut w, 15);
    assert_eq!(results(&w, b).iter().map(total).collect::<Vec<_>>(), [5]);
    assert_eq!(
        results(&w, a).iter().map(total).collect::<Vec<_>>(),
        [5, 12],
        "call 2 ran, after call 1's return had been buffered for 56 s"
    );
    assert_eq!(executions(&w, server.members[0]), 2);
    let census = node(&w, a, |n| n.census());
    assert!(
        census.contains(&(circus::census::MULTI_CALL_THREADS, 1)),
        "{census:?}"
    );
    assert_quiescent(&w);
}

#[test]
fn partition_minority_fails_majority_succeeds() {
    // §4.3.5: "to prevent troupe members in different partitions from
    // diverging, one can require that each troupe member receive a
    // majority of the expected set of messages". With majority
    // collation, a client partitioned from 2 of 3 members cannot
    // proceed; a client that sees a majority can.
    let mut w = world(20);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let client = spawn_client(
        &mut w,
        vec![
            Request::new(&troupe, MODULE, PROC_ECHO, b"q1".to_vec())
                .collate(CollationPolicy::Majority),
            Request::new(&troupe, MODULE, PROC_ECHO, b"q2".to_vec())
                .collate(CollationPolicy::Majority),
        ],
    );

    // Partition the client away from members on hosts 2 and 3: only one
    // member (a minority) is reachable.
    w.set_partition(simnet::Partition::groups(vec![
        vec![HostId(100), HostId(1)],
        vec![HostId(2), HostId(3)],
    ]));
    w.poke(client, 0);
    run(&mut w, 120);
    let minority = results(&w, client);
    assert!(
        matches!(
            minority[..],
            [Err(CallError::NoMajority) | Err(CallError::AllMembersDead)]
        ),
        "minority side must not proceed: {minority:?}"
    );

    // Heal the partition; the next call reaches a majority and succeeds.
    w.set_partition(simnet::Partition::none());
    w.poke(client, 0);
    run(&mut w, 60);
    let results = results(&w, client);
    assert_eq!(results.len(), 2);
    assert_eq!(results[1], Ok(b"q2".to_vec()));
    assert_quiescent(&w);
}

#[test]
fn stale_client_membership_rejected_not_looped() {
    // Regression: a call message from a sender that an OPEN assembly's
    // membership does not list must be rejected with an error, not
    // re-parked forever (the pending entry's membership cannot change,
    // so re-looking-up the directory would loop).
    let mut w = world(21);
    let server = spawn_server_troupe(&mut w, 10, 1, 1);
    let server_addr = server.members[0].addr;

    let m = Request::new(&server, MODULE, PROC_ECHO, b"m".to_vec());
    let clients = spawn_client_troupe(&mut w, 70, &[10, 11], m);
    let (known, unknown) = (clients[0], clients[1]);
    // The server believes the troupe is ONLY the known member.
    introduce(&mut w, server_addr, 70, &[known]);

    // The known member opens the assembly; then the unknown one calls.
    w.poke(known, 0);
    run(&mut w, 2);
    w.poke(unknown, 0);
    run(&mut w, 30);

    // The known member's call succeeded (singleton membership, unanimous
    // over one vote).
    assert_eq!(results(&w, known), vec![Ok(b"m".to_vec())]);
    // The unknown member got a CLEAN error — no hang, no lookup loop.
    let results = results(&w, unknown);
    assert_eq!(results.len(), 1, "stale member's call must complete");
    assert!(
        matches!(results[0], Err(CallError::Remote(_))),
        "expected rejection, got {results:?}"
    );
    // No runaway traffic: the network carried a bounded number of
    // datagrams (a looping lookup would send hundreds).
    assert!(
        w.net_stats().sent < 60,
        "suspicious traffic volume: {}",
        w.net_stats().sent
    );
    // And the rejected call opened no assembly: nothing would ever close
    // it (no member of the troupe made that call).
    assert_quiescent(&w);
}

#[test]
fn forged_membership_claims_open_no_assemblies() {
    // A process outside the client troupe claims its ID on call after
    // call. Each is rejected, and none may leave state behind: remote
    // input must not grow the server's tables (one-member troupe: no
    // assembly timeout would ever collect them).
    let mut w = world(23);
    let server = spawn_server_troupe(&mut w, 10, 1, 1);
    let server_addr = server.members[0].addr;
    let member = addr(10, 50);
    let req = Request::new(&server, MODULE, PROC_ECHO, b"m".to_vec());
    let forger = spawn_client_troupe(&mut w, 70, &[11], req.clone())[0];
    enqueue(&mut w, forger, vec![req; 4]);
    for _ in 0..5 {
        // The rejection forgets the directory entry; a real server
        // would re-learn it from the binding agent.
        introduce(&mut w, server_addr, 70, &[member]);
        w.poke(forger, 0);
        run(&mut w, 2);
    }
    let results = results(&w, forger);
    assert_eq!(results.len(), 5);
    assert!(results
        .iter()
        .all(|r| matches!(r, Err(CallError::Remote(_)))));
    assert_eq!(executions(&w, server.members[0]), 0);
    assert_quiescent(&w);
}

#[test]
fn reply_too_long_to_send_is_an_error_not_silence() {
    // Regression: the member used to drop such a reply on the floor while
    // still acknowledging the call and answering the caller's probes, so
    // the caller waited for ever.
    let mut w = world(22);
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    let client = spawn_client(
        &mut w,
        vec![Request::new(&troupe, MODULE, PROC_BLOAT, Vec::new())],
    );
    w.poke(client, 0);
    // One round trip of single-segment messages at n = 3 is ~50 ms.
    w.run(simnet::Until::Elapsed(Duration::from_millis(100)));
    let results = results(&w, client);
    let limit = NodeConfig::default().pm.max_message_len().to_string();
    assert!(
        matches!(&results[..], [Err(CallError::Remote(why))] if why.contains(&limit)),
        "expected an error naming the {limit}-byte limit, got {results:?}"
    );
    assert_quiescent(&w);
}
