//! The message counts of the call data plane (§4.3.3, §4.4.1) — and the
//! grain they are in: a default segment fills one Ethernet frame, so a
//! message costs `ceil(len / 1,484)` datagrams per member and nothing
//! else on a lossless LAN.
//!
//! A one-to-many call that fits one segment is sent per member: n
//! `sendmsg`s, as the paper measured. From two segments up it is sent
//! once, by troupe-wide multicast: k `sendmsg`s instead of n·k, "m+n
//! messages". `multicast_small_calls` extends that to single segments.
//! Each server member returns to its one caller on its own — the whole
//! return once it fits one segment, else, to a unanimous blast, its part:
//! the data member the head, each other member one segment of the tail;
//! the return of
//! a many-to-one call — a troupe calling back, as in the commit round —
//! goes to the calling members once, by multicast. Reliability is per
//! member either way: acknowledgment, retransmission toward a straggler
//! and crash detection are unicast.
//!
//! And what a call costs on top of its data when the caller does not
//! call again at once: nothing. A one-segment return is sent once and
//! nobody acknowledges it unasked; under loss, the caller's call timer
//! asks for it again.

use std::any::Any;

use rdp::circus::testbed::{
    agent, enqueue, executions, service, spawn_caller, spawn_troupe, Caller, CountingService,
    Request, MODULE, PROC_ECHO, PROC_WHO,
};
use rdp::circus::{
    CallError, CollationPolicy, ModuleAddr, NodeConfig, OutCall, Service, ServiceCtx, Step,
    ThreadId, TroupeId, TroupeTarget,
};
use rdp::pairedmsg::{self, MsgType, Segment};
use rdp::simnet::{
    Duration, ForgedDatagram, HostId, NetConfig, Payload, SockAddr, Syscall, SyscallCosts, Time,
    TraceRing, TrafficInjector, Until, World,
};

const MEMBERS: u32 = 5;
const CLIENT: SockAddr = SockAddr {
    host: HostId(10),
    port: 10,
};

/// A `members`-member echo troupe and one client, with `calls` echo calls
/// of `payload` queued, on the lossless 1985 LAN with the VAX syscall
/// costs. Each call is made on a thread of its own and the members
/// remember on whose behalf they ran ([`PROC_WHO`]).
fn rig(members: u32, payload: Vec<u8>, calls: u64) -> World {
    let w = World::with_config(1985, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd());
    rig_in(w, members, payload, calls)
}

/// The same troupe and client, spawned into `w`.
fn rig_in(mut w: World, members: u32, payload: Vec<u8>, calls: u64) -> World {
    let config = NodeConfig::default();
    let members: Vec<SockAddr> = (1..=members).map(member).collect();
    let troupe = spawn_troupe(
        &mut w,
        TroupeId(9),
        &members,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    spawn_caller(&mut w, CLIENT, config, None);
    let echo = Request::new(&troupe, MODULE, PROC_WHO, payload);
    enqueue(&mut w, CLIENT, vec![echo; calls as usize]);
    w
}

/// The client's successful completions so far.
fn completions(w: &World) -> usize {
    agent(w, CLIENT, |c: &Caller| {
        c.completed.iter().filter(|c| c.result.is_ok()).count()
    })
}

/// The threads whose calls the member at `addr` has executed, in order.
fn invocations(w: &World, addr: SockAddr) -> Vec<ThreadId> {
    service(w, addr, MODULE, |s: &CountingService| {
        s.seen_threads.clone()
    })
}

/// Requires the client to have finished exactly `calls` calls, each
/// returning `payload`.
fn assert_all_echoed(w: &World, calls: usize, payload: &[u8], seed: u64) {
    agent(w, CLIENT, |c: &Caller| {
        assert_eq!(c.completed.len(), calls, "seed {seed}");
        for (i, c) in c.completed.iter().enumerate() {
            assert_eq!(c.result.as_deref(), Ok(payload), "seed {seed}, call {i}");
        }
    });
}

/// The member at `addr` executed `calls` calls, no two on one thread:
/// each of the client's calls exactly once.
fn assert_ran_each_once(w: &World, addr: SockAddr, calls: usize, seed: u64) {
    let mut invoked = invocations(w, addr);
    let ran = invoked.len();
    invoked.sort();
    invoked.dedup();
    assert_eq!(
        (ran, invoked.len()),
        (calls, calls),
        "seed {seed}: {addr} ran every call exactly once"
    );
}

fn member(host: u32) -> SockAddr {
    SockAddr::new(HostId(host), 70)
}

/// What crossed the wire, decoded: a passive `TrafficInjector` whose one
/// mandatory tick injects nothing and disarms.
#[derive(Clone, Copy, Default)]
struct WireTap {
    /// Data segments on first transmission.
    data: u64,
    /// Acks, probes and *please ack* retransmissions.
    overhead: u64,
    /// The *please ack* retransmissions among them: of calls, of returns.
    resent: [u64; 2],
    /// Segments per call message and per return message (the largest
    /// `total` field seen on each).
    totals: [u8; 2],
    /// Largest datagram, in bytes.
    largest: usize,
}

impl TrafficInjector for WireTap {
    fn observe(&mut self, _now: Time, _from: SockAddr, _to: SockAddr, data: &Payload) {
        let h = Segment::decode(data).expect("only segments travel").header;
        if h.ack || h.probe || h.please_ack {
            self.overhead += 1;
            if h.please_ack && !h.ack && !h.probe {
                self.resent[(h.msg_type == MsgType::Return) as usize] += 1;
            }
        } else {
            self.data += 1;
            let total = &mut self.totals[(h.msg_type == MsgType::Return) as usize];
            *total = (*total).max(h.total);
        }
        self.largest = self.largest.max(data.len());
    }

    fn inject(&mut self, _now: Time) -> (Vec<ForgedDatagram>, Option<Duration>) {
        (Vec::new(), None)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The closed-loop and paced rigs' degree of replication.
const N: u32 = 3;

/// The `sendmsg`s of the client and all [`N`] members, and the wire tap.
fn sendmsgs_and_tap(w: &World) -> (u64, WireTap) {
    let sendmsgs = (1..=N)
        .map(member)
        .chain([CLIENT])
        .map(|a| w.cpu(a).count_of(Syscall::SendMsg.index()))
        .sum();
    (
        sendmsgs,
        *w.injector_as::<WireTap>().expect("tap installed"),
    )
}

/// Runs `calls` echo calls of `payload` bytes back to back — the default
/// data plane, `Unanimous`, n = 3: the benchmark's `echo_small`/`echo_bulk`
/// rig — and stops the moment the last completes (a multi-segment return
/// that no further call acknowledges is re-sent with *please ack* a little
/// later). Returns the `sendmsg`s of all four processes, the wire tap, and
/// the world.
fn closed_loop(calls: u64, payload: usize) -> (u64, WireTap, World) {
    let mut w = rig(N, vec![0xAB; payload], calls);
    w.set_injector(Box::<WireTap>::default(), Duration::ZERO);
    w.poke(CLIENT, calls - 1);
    let deadline = w.now() + Duration::from_secs(10);
    let done = w.run(Until::pred(deadline, |w| completions(w) == calls as usize));
    assert!(done, "{calls} calls succeed");
    let (sendmsgs, tap) = sendmsgs_and_tap(&w);
    (sendmsgs, tap, w)
}

/// A caller that thinks: `calls` 64-byte echo calls at n = 3 in `w` (a
/// [`rig_in`] world with that many queued), one begun every `gap` whether or not the last
/// is over, and a last `gap` for the last call to settle. Returns the
/// `sendmsg`s of all four processes, the wire tap, and the world.
fn paced(mut w: World, calls: u64, gap: Duration) -> (u64, WireTap, World) {
    w.set_injector(Box::<WireTap>::default(), Duration::ZERO);
    for _ in 0..calls {
        w.poke(CLIENT, 0);
        w.run(Until::Elapsed(gap));
    }
    let (sendmsgs, tap) = sendmsgs_and_tap(&w);
    (sendmsgs, tap, w)
}

#[test]
fn multisegment_call_multicasts_once_per_segment() {
    // Two and a half default segments of arguments: three segments (the
    // call header is far smaller than the half segment left over) — and
    // nobody asked: the call's size selects the multicast. After one
    // warmup call, two calls 200 ms apart: inside the retransmission
    // interval, so each call's returns are acknowledged by the next.
    let grain = pairedmsg::Config::default().max_segment_data;
    let mut w = rig(MEMBERS, vec![7u8; grain * 5 / 2], 3);
    w.poke(CLIENT, 0);
    w.run(Until::Elapsed(Duration::from_millis(200)));
    w.reset_cpu(CLIENT);
    let before = w.net_stats().multicasts;
    for _ in 0..2 {
        w.poke(CLIENT, 0);
        w.run(Until::Elapsed(Duration::from_millis(200)));
    }
    assert_eq!(completions(&w), 3);
    assert_eq!(
        w.net_stats().multicasts - before,
        2 * 3,
        "one multicast op per segment"
    );
    assert_eq!(w.cpu(CLIENT).count_of(Syscall::SendMsg.index()), 2 * 3);
}

/// The floor on the paper's cost model (Table 4.2 charges per datagram):
/// an 8 KiB echo at n = 3 is 3 members × 6 call frames and the 6 frames of
/// the return in parts — the data member's 4-frame head and one tail frame
/// from each other member — and not one datagram more, and the 6 call
/// frames cost the client one `sendmsg` each, not one per member.
#[test]
fn bulk_echo_sends_exactly_the_frames_the_ethernet_needs() {
    const CALLS: u64 = 5;
    let grain = pairedmsg::Config::default().max_segment_data;
    let mtu = NetConfig::lan_1985().mtu;
    let (sendmsgs, tap, w) = closed_loop(CALLS, 8192);
    // The call and return headers fit the last segment's slack.
    let per_message = 8192usize.div_ceil(grain) as u64;
    assert_eq!(tap.totals, [per_message as u8, 4]);
    assert_eq!(per_message, 6);
    // The head in four segments; one segment of the tail from each other
    // member.
    assert_eq!(sendmsgs, CALLS * (6 + 4 + 2), "12 per call");
    assert_eq!(w.net_stats().multicasts, CALLS * 6);
    assert_eq!(w.net_stats().sent, CALLS * (3 * 6 + 4 + 2), "24 per call");
    assert_eq!(tap.data, CALLS * 24, "every datagram a first transmission");
    assert_eq!(tap.overhead, 0, "no ack, retransmission or probe");
    assert_eq!(w.net_stats().oversize, 0);
    assert_eq!(tap.largest, mtu, "a full segment is exactly one frame");
}

#[test]
fn call_header_counts_toward_the_segment() {
    let grain = pairedmsg::Config::default().max_segment_data;
    // A segment's worth of arguments no longer fits one segment once the
    // call header (and the list of the three members it names) is in
    // front of it; the echo's return spills too. Two segments are enough
    // to share: 2 for the call, and the return in three one-segment
    // parts — a 20-byte head, one part carrying the digest alone, and a
    // full segment of the tail.
    let (sendmsgs, tap, _) = closed_loop(2, grain);
    assert_eq!(tap.totals, [2, 1]);
    assert_eq!(sendmsgs, 2 * (2 + 3));
    // The paper's own tables use calls like this one: a single segment.
    let (sendmsgs, tap, _) = closed_loop(2, 64);
    assert_eq!(tap.totals, [1, 1]);
    assert_eq!(sendmsgs, 2 * 3 * (1 + 1));
    assert_eq!(tap.overhead, 0);
}

/// `sendmsg`s per n = 3 echo call of k segments each way: 2n at k = 1,
/// k + max(n, k) from there up (the call once; the return in parts, each
/// of at least one segment: at these sizes the head takes k − n + 1 of
/// the k, and a member whose part would be empty still sends its
/// digest), and nothing but first transmissions at any size — at 9
/// segments per-member transmission took 381 ms a call, past the 300 ms
/// interval, and re-sent a *please ack* every other call.
#[test]
fn sendmsgs_per_call_follow_the_segment_count() {
    const N: u64 = 3;
    const CALLS: u64 = 6;
    let grain = pairedmsg::Config::default().max_segment_data;
    for k in [1u64, 2, 3, 6, 9] {
        // Arguments ending half-way into the k-th segment: the call and
        // return headers fit the slack.
        let (sendmsgs, tap, w) = closed_loop(CALLS, (k as usize - 1) * grain + grain / 2);
        let head = if k == 1 {
            1
        } else {
            k.saturating_sub(N - 1).max(1)
        };
        assert_eq!(tap.totals, [k as u8, head as u8]);
        let (call, mcasts, back) = if k == 1 { (N, 0, N) } else { (k, k, k.max(N)) };
        assert_eq!(sendmsgs, CALLS * (call + back), "sendmsgs at k = {k}");
        assert_eq!(w.net_stats().multicasts, CALLS * mcasts, "k = {k}");
        assert_eq!(
            w.net_stats().sent,
            CALLS * (N * k + back),
            "datagrams, k = {k}"
        );
        assert_eq!(tap.overhead, 0, "ack, retransmission or probe at k = {k}");
    }
}

const BULK_CALLS: usize = 6;

/// One seeded run of the bulk path under faults: [`BULK_CALLS`] 8 KiB
/// echoes to five members over a LAN that loses and duplicates
/// datagrams, with the last member killed while the second call's blast
/// is on the wire. Returns the trace hash.
fn faulty_bulk_run(seed: u64) -> u64 {
    const SEGMENTS: u64 = 6;
    let net = NetConfig {
        loss: 0.03,
        duplicate: 0.03,
        ..NetConfig::lan_1985()
    };
    let mut w = World::with_config(seed, net, SyscallCosts::vax_4_2bsd());
    w.set_trace_sink(Box::new(TraceRing::new(64)));
    let payload = vec![0xAB; 8192];
    let mut w = rig_in(w, MEMBERS, payload.clone(), BULK_CALLS as u64);
    w.set_injector(Box::<WireTap>::default(), Duration::ZERO);
    w.poke(CLIENT, BULK_CALLS as u64 - 1);
    let deadline = w.now() + Duration::from_secs(120);
    assert!(w.run(Until::pred(deadline, |w| completions(w) == 1)));

    // The handler that completed the first call began the second, so its
    // six frames have left the client. Kill a member that holds at most
    // half of them.
    let victim = member(MEMBERS);
    let received = |w: &World| w.cpu(victim).count_of(Syscall::RecvMsg.index());
    let half = received(&w) + SEGMENTS / 2;
    assert!(w.run(Until::pred(deadline, |w| received(w) >= half)));
    assert_eq!(w.net_stats().multicasts, 2 * SEGMENTS, "seed {seed}");
    assert_eq!(invocations(&w, victim).len(), 1, "seed {seed}");
    w.kill(victim);

    assert!(
        w.run(Until::pred(deadline, |w| completions(w) == BULK_CALLS)),
        "seed {seed}: {} of {BULK_CALLS} calls succeeded",
        completions(&w)
    );
    assert_all_echoed(&w, BULK_CALLS, &payload, seed);
    for survivor in (1..MEMBERS).map(member) {
        assert_ran_each_once(&w, survivor, BULK_CALLS, seed);
    }
    // Each call was blasted once, to however many members were thought
    // alive; everything sent again went to one member at a time.
    assert_eq!(w.net_stats().multicasts, BULK_CALLS as u64 * SEGMENTS);
    let tap = w.injector_as::<WireTap>().expect("installed above");
    assert!(tap.overhead > 0, "seed {seed}: nothing was retransmitted");
    w.trace_sink_as::<TraceRing>()
        .expect("installed above")
        .hash()
}

/// The path every bulk call now takes, under the faults the chaos
/// workloads never put it through (none of them sends a multi-segment
/// one-to-many call): every call completes with the survivors' unanimous
/// result, every survivor runs each call exactly once, only first
/// transmissions are multicast, and a seed replays bit for bit.
#[test]
fn bulk_multicast_survives_loss_duplication_and_a_kill_mid_blast() {
    for seed in 1..=10 {
        let hash = faulty_bulk_run(seed);
        if seed == 1 {
            assert_eq!(hash, faulty_bulk_run(seed), "seed {seed} replays");
        }
    }
}

/// A return no later call acknowledges costs nothing: a 64-byte echo a
/// second costs its 2n `sendmsg`s, call and return per member, exactly as
/// a caller that calls again at once does. (A caller acknowledging each
/// return unasked would make it 2n + n; a callee re-sending it with
/// *please ack* and the caller answering, 2n + 2n.)
#[test]
fn idle_return_costs_no_ack() {
    const CALLS: u64 = 5;
    let n = N as u64;
    let w = rig(N, vec![0xAB; 64], CALLS);
    let (sendmsgs, tap, w) = paced(w, CALLS, Duration::from_secs(1));
    assert_eq!(completions(&w), CALLS as usize);
    assert_eq!(sendmsgs, CALLS * 2 * n, "call and return: 6 per call");
    assert_eq!(w.net_stats().sent, CALLS * 2 * n);
    assert_eq!(tap.data, CALLS * 2 * n);
    assert_eq!(tap.overhead, 0, "no ack, re-send or probe");
    // The endpoints' own counters tell the tap's story.
    let reg = w.metrics();
    assert_eq!(reg.sum_suffix(".acks_sent"), 0);
    assert_eq!(reg.sum_suffix(".retransmits"), 0);

    let (sendmsgs, tap, _) = closed_loop(CALLS, 64);
    assert_eq!(sendmsgs, CALLS * 2 * n, "back to back: 6 per call");
    assert_eq!(tap.overhead, 0);
}

/// One seeded paced run over a LAN that loses and duplicates datagrams.
/// Returns the trace hash and the returns the members re-sent.
fn faulty_paced_run(seed: u64) -> (u64, u64) {
    const CALLS: usize = 12;
    let net = NetConfig {
        loss: 0.03,
        duplicate: 0.03,
        ..NetConfig::lan_1985()
    };
    let mut w = World::with_config(seed, net, SyscallCosts::vax_4_2bsd());
    w.set_trace_sink(Box::new(TraceRing::new(64)));
    let payload = vec![0xAB; 64];
    let w = rig_in(w, N, payload.clone(), CALLS as u64);
    let (_, tap, mut w) = paced(w, CALLS as u64, Duration::from_secs(1));
    let deadline = w.now() + Duration::from_secs(30);
    assert!(
        w.run(Until::pred(deadline, |w| completions(w) == CALLS)),
        "seed {seed}: {} of {CALLS} calls succeeded",
        completions(&w)
    );
    assert_all_echoed(&w, CALLS, &payload, seed);
    for m in (1..=N).map(member) {
        assert_ran_each_once(&w, m, CALLS, seed);
    }
    assert_eq!(tap.resent[1], 0, "seed {seed}: a return asked for an ack");
    let resent = (1..=N)
        .map(|m| w.metrics().get(&format!("rpc.{}.retransmits", member(m))))
        .sum();
    let hash = w
        .trace_sink_as::<TraceRing>()
        .expect("installed above")
        .hash();
    (hash, resent)
}

/// Holding returns is safe under loss: with calls, returns and their
/// re-sends lost and duplicated, every paced call completes with every
/// member's echo, every member runs each exactly once, lost returns are
/// re-sent when the client's call timer asks for them (no return ever
/// asks for an ack), and a seed replays bit for bit.
#[test]
fn paced_calls_survive_loss_and_duplication() {
    let mut resent = 0;
    for seed in 1..=10 {
        let run = faulty_paced_run(seed);
        assert_eq!(run, faulty_paced_run(seed), "seed {seed} replays");
        resent += run.1;
    }
    assert!(resent > 0, "no return was re-sent on demand");
}

/// Three calls back to back, then silence: the last returns are held and
/// nothing acknowledges them, because nothing needs to. No member re-sends
/// and the client answers nothing.
#[test]
fn back_to_back_calls_leave_nothing_to_acknowledge() {
    let n = N as u64;
    let mut w = rig(N, vec![0xAB; 64], 3);
    w.set_injector(Box::<WireTap>::default(), Duration::ZERO);
    w.poke(CLIENT, 2);
    w.run(Until::Elapsed(Duration::from_secs(5)));
    assert_eq!(completions(&w), 3);
    let reg = w.metrics();
    assert_eq!(reg.sum_suffix(".retransmits"), 0, "no member re-sent");
    assert_eq!(reg.sum_suffix(".acks_sent"), 0, "nobody answered");
    let (sendmsgs, tap) = sendmsgs_and_tap(&w);
    assert_eq!(sendmsgs, 3 * 2 * n);
    assert_eq!((tap.overhead, tap.resent), (0, [0, 0]));
}

/// The module the client exports for [`CallBackService`]'s call-backs.
const CALLBACK_MODULE: u16 = 2;

/// A member that calls its caller back before it answers, as a store
/// member does to vote in §5.3's commit round: it records the thread it
/// runs on, has the caller echo the arguments, and returns the echo.
#[derive(Default)]
struct CallBackService {
    seen_threads: Vec<ThreadId>,
}

impl Service for CallBackService {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        self.seen_threads.push(ctx.thread);
        Step::Call(OutCall {
            target: TroupeTarget::Caller,
            module: CALLBACK_MODULE,
            proc: PROC_ECHO,
            args: args.into(),
            collation: CollationPolicy::Unanimous,
            solo: false,
        })
    }

    fn resume(&mut self, _ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        match reply {
            Ok(echo) => Step::Reply(echo),
            Err(e) => Step::Error(format!("call-back failed: {e}")),
        }
    }
}

/// An [`N`]-member troupe of [`CallBackService`]s and a client exporting
/// the echo they call back, spawned into `w` with `calls` calls of
/// `payload` queued.
fn callback_rig(mut w: World, payload: &[u8], calls: u64) -> World {
    let config = NodeConfig::default();
    let members: Vec<SockAddr> = (1..=N).map(member).collect();
    let troupe = spawn_troupe(
        &mut w,
        TroupeId(9),
        &members,
        MODULE,
        &config,
        None,
        CallBackService::default,
    );
    spawn_troupe(
        &mut w,
        TroupeId::UNREGISTERED,
        &[CLIENT],
        CALLBACK_MODULE,
        &config,
        None,
        CountingService::default,
    );
    let call = Request::new(&troupe, MODULE, PROC_ECHO, payload.to_vec());
    enqueue(&mut w, CLIENT, vec![call; calls as usize]);
    w
}

/// Every member ran each of the client's `calls` calls exactly once, and
/// the client ran each call-back once for the whole troupe.
fn assert_callbacks_ran_once(w: &World, calls: usize, seed: u64) {
    for m in (1..=N).map(member) {
        let mut ran = service(w, m, MODULE, |s: &CallBackService| s.seen_threads.clone());
        ran.sort();
        ran.dedup();
        assert_eq!(ran.len(), calls, "seed {seed}: {m} ran every call once");
    }
    let echo = ModuleAddr::new(CLIENT, CALLBACK_MODULE);
    assert_eq!(executions(w, echo), calls as u32, "seed {seed}: call-backs");
}

/// The commit round's shape (§5.3): each member calls the client back
/// before it answers, and the client assembles the n call-backs into one
/// execution (§4.3.2). A call a second costs 3n + 1 `sendmsg`s — per
/// member the call, the call-back and the return, and the call-back's
/// return once for all n by multicast (§4.3.3's m+n) — and nothing else:
/// both returns are held, and neither side acknowledges one unasked. The
/// network still carries 4n datagrams, the multicast's n copies among
/// them. And with datagrams lost and duplicated, every call still
/// completes, each member runs it once, the client runs each call-back
/// once, a member that missed the multicast return gets it again by
/// unicast when its call-back's timer asks, and a seed replays bit for
/// bit.
#[test]
fn callback_round_costs_3n_plus_1_sendmsgs() {
    const CALLS: u64 = 5;
    let n = N as u64;
    let payload = [0xAB; 64];
    let w = World::with_config(1985, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd());
    let (sendmsgs, tap, w) = paced(
        callback_rig(w, &payload, CALLS),
        CALLS,
        Duration::from_secs(1),
    );
    assert_all_echoed(&w, CALLS as usize, &payload, 1985);
    assert_callbacks_ran_once(&w, CALLS as usize, 1985);
    assert_eq!(sendmsgs, CALLS * (3 * n + 1), "10 per call");
    assert_eq!(w.net_stats().sent, CALLS * 4 * n);
    assert_eq!(w.net_stats().multicasts, CALLS);
    assert_eq!(tap.data, CALLS * 4 * n);
    assert_eq!(tap.overhead, 0);
    let reg = w.metrics();
    assert_eq!(reg.get(&format!("rpc.{CLIENT}.mcast_returns")), CALLS);
    assert_eq!(reg.sum_suffix(".acks_sent"), 0);
    assert_eq!(reg.sum_suffix(".retransmits"), 0);

    let mut resent = 0;
    for seed in 1..=10 {
        let run = faulty_callback_run(seed);
        assert_eq!(run, faulty_callback_run(seed), "seed {seed} replays");
        resent += run.1;
    }
    assert!(resent > 0, "no multicast return was re-sent by unicast");
}

/// One seeded run of [`callback_round_costs_3n_plus_1_sendmsgs`]'s rig
/// over a LAN that loses and duplicates datagrams. Returns the trace hash
/// and the client's re-sent segments: its held returns answering a
/// member's *please ack* call-back among them.
fn faulty_callback_run(seed: u64) -> (u64, u64) {
    const CALLS: usize = 12;
    let net = NetConfig {
        loss: 0.03,
        duplicate: 0.03,
        ..NetConfig::lan_1985()
    };
    let mut w = World::with_config(seed, net, SyscallCosts::vax_4_2bsd());
    w.set_trace_sink(Box::new(TraceRing::new(64)));
    let payload = [0xAB; 64];
    let w = callback_rig(w, &payload, CALLS as u64);
    let (_, _, mut w) = paced(w, CALLS as u64, Duration::from_secs(1));
    let deadline = w.now() + Duration::from_secs(30);
    assert!(
        w.run(Until::pred(deadline, |w| completions(w) == CALLS)),
        "seed {seed}: {} of {CALLS} calls succeeded",
        completions(&w)
    );
    assert_all_echoed(&w, CALLS, &payload, seed);
    assert_callbacks_ran_once(&w, CALLS, seed);
    let resent = w.metrics().get(&format!("rpc.{CLIENT}.retransmits"));
    let hash = w
        .trace_sink_as::<TraceRing>()
        .expect("installed above")
        .hash();
    (hash, resent)
}
