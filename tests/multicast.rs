//! The m+n message count of §4.3.3: with `multicast_calls` on, a
//! one-to-many call charges the client exactly one `sendmsg` per call
//! segment (the troupe-wide multicast), where the paper-faithful unicast
//! path charges one per segment *per member*. Return messages still
//! arrive per member (the n half of m+n), and reliability is unchanged:
//! every call completes with the same results in both modes.
//!
//! And the grain those counts are in: a default segment fills one
//! Ethernet frame, so a bulk call costs `ceil(len / 1,484)` datagrams per
//! member and direction and nothing else on a lossless LAN.

use std::any::Any;

use rdp::circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, Troupe, TroupeId,
};
use rdp::pairedmsg::{self, MsgType, Segment};
use rdp::simnet::{
    Duration, ForgedDatagram, HostId, NetConfig, Payload, SockAddr, Syscall, SyscallCosts, Time,
    TrafficInjector, Until, World,
};

const MODULE: u16 = 3;
const PROC_ECHO: u16 = 0;
const MEMBERS: u32 = 5;
const CLIENT: SockAddr = SockAddr {
    host: HostId(10),
    port: 10,
};

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

/// Fires one echo call per poke, then `chained` more back to back (each
/// from the completion of the one before), and records completions.
struct ScriptedClient {
    troupe: Troupe,
    payload: Vec<u8>,
    chained: u64,
    results: Vec<Result<Vec<u8>, CallError>>,
}

impl ScriptedClient {
    fn call(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let t = nc.fresh_thread();
        let troupe = self.troupe.clone();
        let payload = self.payload.clone();
        nc.call(
            t,
            &troupe,
            MODULE,
            PROC_ECHO,
            payload,
            CollationPolicy::Unanimous,
        );
    }
}

impl Agent for ScriptedClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.call(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.results.push(result);
        if self.chained > 0 {
            self.chained -= 1;
            self.call(nc);
        }
    }
}

/// A `members`-member echo troupe and one scripted client on the lossless
/// 1985 LAN with the VAX syscall costs.
fn testbed(members: u32, multicast: bool, payload: Vec<u8>, chained: u64) -> World {
    let mut w = World::with_config(1985, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd());
    let config = NodeConfig {
        multicast_calls: multicast,
        ..NodeConfig::default()
    };
    let id = TroupeId(9);
    let members: Vec<ModuleAddr> = (1..=members)
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
    let p = NodeBuilder::new(CLIENT, config)
        .agent(Box::new(ScriptedClient {
            troupe: Troupe::new(id, members),
            payload,
            chained,
            results: Vec::new(),
        }))
        .build()
        .expect("valid node");
    w.spawn(CLIENT, Box::new(p));
    w
}

/// The client's successful completions so far.
fn completions(w: &World) -> usize {
    w.with_proc(CLIENT, |p: &CircusProcess| {
        let client = p.agent_as::<ScriptedClient>().unwrap();
        client.results.iter().filter(|r| r.is_ok()).count()
    })
    .unwrap()
}

/// Runs `calls` measured echo calls (after one warmup call) against a
/// 5-member troupe on a lossless LAN and returns the client's measured
/// `sendmsg` count, the network's multicast-operation count, and the
/// number of successful completions.
fn measure(multicast: bool, calls: u64, payload: Vec<u8>) -> (u64, u64, usize) {
    let mut w = testbed(MEMBERS, multicast, payload, 0);

    // Warmup call: lets connections, directories, and the previous
    // return's ack traffic settle outside the measured window.
    w.poke(CLIENT, 0);
    w.run(Until::Elapsed(Duration::from_millis(200)));
    w.reset_cpu(CLIENT);
    let mcasts_before = w.net_stats().multicasts;

    // Each measured call gets 200 ms: far beyond the LAN round trip, but
    // inside the 300 ms retransmission interval, so a lossless run
    // carries no retransmissions or explicit acks — each call's returns
    // are implicitly acknowledged by the next call.
    for _ in 0..calls {
        w.poke(CLIENT, 0);
        w.run(Until::Elapsed(Duration::from_millis(200)));
    }

    let sendmsgs = w.cpu(CLIENT).count_of(Syscall::SendMsg.index());
    let mcasts = w.net_stats().multicasts - mcasts_before;
    (sendmsgs, mcasts, completions(&w))
}

/// What crossed the wire, decoded: a passive `TrafficInjector` whose one
/// mandatory tick injects nothing and disarms.
#[derive(Clone, Copy, Default)]
struct WireTap {
    /// Data segments on first transmission.
    data: u64,
    /// Acks, probes and *please ack* retransmissions.
    overhead: u64,
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

/// Runs `calls` echo calls of `payload` bytes back to back — unicast,
/// `Unanimous`, n = 3: the benchmark's `echo_small`/`echo_bulk` rig — and
/// stops the moment the last completes (a little later its return, which
/// no further call acknowledges, would be retransmitted). Returns the
/// `sendmsg`s of all four processes, the wire tap, and the world.
fn closed_loop(calls: u64, payload: usize) -> (u64, WireTap, World) {
    const N: u32 = 3;
    let mut w = testbed(N, false, vec![0xAB; payload], calls - 1);
    w.set_injector(Box::<WireTap>::default(), Duration::ZERO);
    w.poke(CLIENT, 0);
    let deadline = w.now() + Duration::from_secs(10);
    let done = w.run(Until::pred(deadline, |w| completions(w) == calls as usize));
    assert!(done, "{calls} calls succeed");
    let sendmsgs = (1..=N)
        .map(|h| SockAddr::new(HostId(h), 70))
        .chain([CLIENT])
        .map(|a| w.cpu(a).count_of(Syscall::SendMsg.index()))
        .sum();
    let tap = *w.injector_as::<WireTap>().expect("installed above");
    (sendmsgs, tap, w)
}

#[test]
fn unicast_charges_one_sendmsg_per_member() {
    let (sendmsgs, mcasts, ok) = measure(false, 4, b"ping".to_vec());
    assert_eq!(ok, 5, "warmup + 4 measured calls all complete");
    assert_eq!(mcasts, 0, "paper-faithful mode never multicasts");
    assert_eq!(
        sendmsgs,
        4 * MEMBERS as u64,
        "unicast: one sendmsg per member per (single-segment) call"
    );
}

#[test]
fn multicast_charges_one_sendmsg_per_call_segment() {
    let (sendmsgs, mcasts, ok) = measure(true, 4, b"ping".to_vec());
    assert_eq!(ok, 5, "warmup + 4 measured calls all complete");
    assert_eq!(mcasts, 4, "one multicast op per single-segment call");
    assert_eq!(
        sendmsgs, 4,
        "multicast: exactly 1 sendmsg per call segment, independent of troupe size"
    );
}

#[test]
fn multisegment_call_multicasts_once_per_segment() {
    // Two and a half default segments of arguments: three segments (the
    // call header is far smaller than the half segment left over).
    let grain = pairedmsg::Config::default().max_segment_data;
    let (sendmsgs, mcasts, ok) = measure(true, 2, vec![7u8; grain * 5 / 2]);
    assert_eq!(ok, 3);
    assert_eq!(mcasts, 2 * 3, "one multicast op per segment");
    assert_eq!(sendmsgs, 2 * 3);
}

/// The unicast floor on the paper's cost model (Table 4.2 charges per
/// datagram): an 8 KiB echo at n = 3 is 3 members × (6 call + 6 return)
/// full Ethernet frames and not one datagram more.
#[test]
fn bulk_echo_sends_exactly_the_frames_the_ethernet_needs() {
    const CALLS: u64 = 5;
    let grain = pairedmsg::Config::default().max_segment_data;
    let mtu = NetConfig::lan_1985().mtu;
    let (sendmsgs, tap, w) = closed_loop(CALLS, 8192);
    // The call and return headers fit the last segment's slack.
    let per_message = 8192usize.div_ceil(grain) as u64;
    assert_eq!(tap.totals, [per_message as u8; 2]);
    assert_eq!(per_message, 6);
    assert_eq!(sendmsgs, CALLS * 3 * 2 * per_message, "36 per call");
    assert_eq!(w.net_stats().sent, sendmsgs, "one datagram per sendmsg");
    assert_eq!(tap.data, sendmsgs, "every datagram is a first transmission");
    assert_eq!(tap.overhead, 0, "no ack, retransmission or probe");
    assert_eq!(w.net_stats().oversize, 0);
    assert_eq!(tap.largest, mtu, "a full segment is exactly one frame");
}

#[test]
fn call_header_counts_toward_the_segment() {
    let grain = pairedmsg::Config::default().max_segment_data;
    // A segment's worth of arguments no longer fits one segment once the
    // call header is in front of it; the echo's return spills too.
    let (sendmsgs, tap, _) = closed_loop(2, grain);
    assert_eq!(tap.totals, [2, 2]);
    assert_eq!(sendmsgs, 2 * 3 * (2 + 2));
    // The paper's own tables use calls like this one: a single segment.
    let (sendmsgs, tap, _) = closed_loop(2, 64);
    assert_eq!(tap.totals, [1, 1]);
    assert_eq!(sendmsgs, 2 * 3 * (1 + 1));
    assert_eq!(tap.overhead, 0);
}
