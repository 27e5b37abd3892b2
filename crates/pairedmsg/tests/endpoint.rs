//! Transcripts of two endpoints over an in-memory wire, for what no §4.2
//! rule states: PARC datagram counts, probes that keep a peer alive, one
//! `PeerDead` per incarnation (a port-unreachable notice's included),
//! oversize, concurrent calls out of order, adopted calls, and a dead
//! caller noticed through a timed return but not through a held one.
//! Each runs under the §4.2 checker too (`spec`: its `Pair` asserts when
//! dropped). Loss, duplication, replays, held and timed returns, crash
//! detection and the idle floor are the checker's, over the seeded sweep
//! in `fast_path.rs`.

mod spec;

use pairedmsg::config::RETRANSMIT_INTERVAL;
use pairedmsg::{Config, Endpoint, Event, MsgSender, MsgType, SendError};
use simnet::{Duration, Time};
use spec::{Pair, CLIENT, SERVER};

fn small_segments() -> Config {
    Config {
        max_segment_data: 4,
        ..Config::default()
    }
}

/// A [`Pair`] on a lossless wire with a clock: the client calls, the
/// server returns.
struct Link {
    pair: Pair,
    now: Time,
}

impl Link {
    fn new(config: Config) -> Link {
        Link {
            pair: Pair::new(config),
            now: Time::ZERO,
        }
    }

    fn end(&mut self, side: usize) -> &mut Endpoint {
        &mut self.pair.ends[side]
    }

    /// Side `side` sends its message of call `cn`: a call from the client,
    /// a return from the server.
    fn send(&mut self, side: usize, cn: u32, data: &[u8]) {
        let ty = [MsgType::Call, MsgType::Return][side];
        let now = self.now;
        self.end(side).send(now, ty, cn, 0, data).unwrap();
    }

    /// Everything `from` has queued crosses to the other side; returns how
    /// many datagrams did.
    fn carry(&mut self, from: usize) -> usize {
        let segs = self.pair.drain(self.now, from);
        let n = segs.len();
        for seg in segs {
            self.pair.arrive(self.now, 1 - from, seg);
        }
        n
    }

    /// Carries both ways until neither side has output.
    fn settle(&mut self) {
        while self.carry(CLIENT) + self.carry(SERVER) > 0 {}
    }

    /// Advances to the earlier of the two deadlines, ticks both, settles.
    fn tick_round(&mut self) {
        let ends = &self.pair.ends;
        if let Some(t) = ends.iter().filter_map(Endpoint::poll_timer).min() {
            self.now = t;
            self.pair.tick(t, CLIENT);
            self.pair.tick(t, SERVER);
            self.settle();
        }
    }

    /// Everything the client has queued is lost.
    fn lose(&mut self) {
        self.pair.spec.unreliable();
        self.pair.drain(self.now, CLIENT);
    }

    /// The other side is gone: what `side` sends vanishes and its clock
    /// runs until nothing is timed. Returns the `PeerDead` events raised
    /// and the datagrams lost.
    fn black_hole(&mut self, side: usize) -> (usize, usize) {
        self.pair.spec.unreliable();
        let (mut deaths, mut lost) = (0, 0);
        for _ in 0..100 {
            lost += self.pair.drain(self.now, side).len();
            while let Some(ev) = self.pair.event(side) {
                deaths += usize::from(ev == Event::PeerDead);
            }
            let Some(t) = self.end(side).poll_timer() else {
                break;
            };
            self.now = t;
            self.pair.tick(t, side);
        }
        (deaths, lost)
    }

    /// The next event on `side` is message `(ty, cn)`; returns its data.
    fn expect(&mut self, side: usize, ty: MsgType, cn: u32) -> Vec<u8> {
        match self.pair.event(side) {
            Some(Event::Message {
                msg_type,
                call_number,
                data,
                ..
            }) if (msg_type, call_number) == (ty, cn) => data.to_vec(),
            other => panic!("expected {ty:?} {cn}, got {other:?}"),
        }
    }
}

/// One return rule: a held return lives as long as its call's record, so
/// an endpoint whose replay TTL falls short of the crash horizon is
/// refused.
#[test]
#[should_panic(expected = "shorter than the crash horizon")]
fn a_replay_ttl_short_of_the_crash_horizon_is_refused() {
    let config = Config {
        replay_ttl: Config::default().crash_horizon() - Duration::from_micros(1),
        ..Config::default()
    };
    Endpoint::new(config);
}

#[test]
fn probes_answered_keep_connection_alive() {
    let mut link = Link::new(Config::default());
    link.send(CLIENT, 1, b"slow");
    link.settle();
    link.expect(SERVER, MsgType::Call, 1);

    // Let many probe intervals pass with the server answering probes.
    for _ in 0..10 {
        link.tick_round();
        assert!(
            link.pair.event(CLIENT).is_none(),
            "client gave up too early"
        );
    }
    // Finally the server replies; the exchange completes normally.
    link.send(SERVER, 1, b"ok");
    link.settle();
    assert_eq!(link.expect(CLIENT, MsgType::Return, 1), b"ok");
    assert!(!link.end(CLIENT).is_dead());
}

#[test]
fn dead_peer_reported_once_despite_queued_retransmits() {
    // Two concurrent calls to a peer that has crashed: both senders'
    // retransmission schedules run out, but only ONE PeerDead may surface
    // for this peer incarnation — the second give-up must be swallowed.
    let mut link = Link::new(Config::default());
    link.send(CLIENT, 1, b"a");
    link.send(CLIENT, 2, b"b");
    let (deaths, _) = link.black_hole(CLIENT);
    assert_eq!(deaths, 1, "duplicate PeerDead for one incarnation");
    assert!(link.end(CLIENT).is_dead());
}

/// A port-unreachable notice is the peer's death on its host's word: the
/// endpoint raises `PeerDead` at once, not a crash horizon later, and a
/// second notice, or the horizon running out, raises no other.
#[test]
fn a_notice_declares_the_peer_dead_at_once_and_once() {
    let mut link = Link::new(Config::default());
    link.send(CLIENT, 1, b"a");
    link.send(CLIENT, 2, b"b");
    link.lose();
    link.now += Duration::from_millis(1);
    for _ in 0..2 {
        link.pair.unreachable(link.now, CLIENT);
    }
    assert_eq!(link.pair.event(CLIENT), Some(Event::PeerDead));
    assert!(link.end(CLIENT).is_dead());
    assert!(link.end(CLIENT).poll_timer().is_none());
    assert_eq!(link.black_hole(CLIENT), (0, 0));
}

#[test]
fn oversize_message_rejected_at_send() {
    let mut link = Link::new(Config::default());
    let max = Config::default().max_message_len();
    let client = link.end(CLIENT);
    let fits = vec![0u8; max];
    assert!(client.send(Time::ZERO, MsgType::Call, 1, 0, &fits).is_ok());
    let huge = vec![0u8; max + 1];
    assert_eq!(
        client.send(Time::ZERO, MsgType::Call, 2, 0, &huge),
        Err(SendError::TooLong { len: max + 1, max })
    );
}

/// Counts data/ack datagrams both ways for a one-way S-segment message
/// under a lossless wire, for the §4.2.5 protocol comparison.
fn transfer_counting(config: Config, segments: usize) -> (usize, usize) {
    let mut link = Link::new(Config {
        max_segment_data: 4,
        ..config
    });
    let payload = vec![7u8; 4 * segments];
    link.send(CLIENT, 1, &payload);
    let (mut forward, mut backward) = (0, 0);
    loop {
        let moved = (link.carry(CLIENT), link.carry(SERVER));
        forward += moved.0;
        backward += moved.1;
        if let Some(Event::Message { data, .. }) = link.pair.event(SERVER) {
            assert_eq!(data, payload);
            return (forward, backward);
        }
        assert!(moved != (0, 0), "message never delivered");
    }
}

#[test]
fn parc_mode_delivers_multi_segment_messages() {
    let (forward, backward) = transfer_counting(Config::parc(), 8);
    // Stop-and-wait: 8 data segments forward, 7 explicit acks back
    // ("an explicit acknowledgment of every segment but the last").
    assert_eq!(forward, 8);
    assert_eq!(backward, 7);
}

#[test]
fn circus_mode_sends_minimum_datagrams() {
    let (forward, backward) = transfer_counting(Config::default(), 8);
    // Eager send: 8 data segments, no acks needed on a lossless wire.
    assert_eq!(forward, 8);
    assert_eq!(backward, 0);
}

#[test]
fn concurrent_calls_completing_out_of_order_both_deliver() {
    // Two calls in flight to the same peer; the higher-numbered one
    // completes first. The lower-numbered one is a slow concurrent call,
    // NOT a replay, and must still be delivered (suppressing on the
    // highest delivered number starved exactly this case).
    let mut link = Link::new(Config::default());
    link.send(CLIENT, 1, b"first");
    let call1 = link.pair.drain(Time::ZERO, CLIENT);
    link.send(CLIENT, 2, b"second");
    link.carry(CLIENT);
    assert_eq!(link.expect(SERVER, MsgType::Call, 2), b"second");
    for seg in call1 {
        link.pair.arrive(Time::ZERO, SERVER, seg);
    }
    assert_eq!(link.expect(SERVER, MsgType::Call, 1), b"first");

    let counts = &link.pair.counts[SERVER];
    assert_eq!(counts.calls_delivered.get(), 2);
    assert_eq!(counts.duplicate_call_deliveries.get(), 0);
}

/// The receiving endpoint cannot tell a multicast copy from a unicast
/// one: an adopted call completes through the normal event path when
/// the (multicast) segments arrive at the peer, and the return
/// message implicitly acknowledges the adopted sender.
#[test]
fn adopted_call_round_trips_through_endpoints() {
    let cfg = small_segments();
    let now = Time::ZERO;
    let mut link = Link::new(cfg.clone());

    // The blast is cut by a sender of the caller's own, off to the side.
    let message = cfg.frame(b"abcdefghij");
    let blast = MsgSender::new(now, &cfg, MsgType::Call, 1, 0, message.clone()).unwrap();
    assert_eq!(blast.total(), 3);
    link.end(CLIENT)
        .adopt(now, MsgType::Call, 1, 0, message)
        .unwrap();
    assert_eq!(link.carry(CLIENT), 0, "nothing of its own");
    for n in 1..=blast.total() {
        let seg = blast.segment(n, false);
        link.pair.spec.sent(now, CLIENT, &seg.header);
        link.pair.arrive(now, SERVER, seg);
    }
    link.expect(SERVER, MsgType::Call, 1);

    // The return implicitly acknowledges the adopted sender.
    link.send(SERVER, 1, b"ok");
    link.carry(SERVER);
    link.expect(CLIENT, MsgType::Return, 1);
    assert_eq!(link.end(CLIENT).poll_timer(), None, "nothing to time");
    assert_eq!(link.pair.counts[CLIENT].send_call_regressions.get(), 0);
}

/// A member that missed the multicast is served by the ordinary
/// unicast retransmission schedule (straggler fallback), whose clock
/// starts when the caller says the blast left.
#[test]
fn straggler_served_by_unicast_retransmission() {
    let blasted = Time::from_millis(113);
    let mut link = Link::new(small_segments());
    let message = small_segments().frame(b"abcdefghij");
    link.end(CLIENT)
        .adopt(blasted, MsgType::Call, 1, 0, message)
        .unwrap();
    let due = link.end(CLIENT).poll_timer().expect("retransmission armed");
    assert_eq!(due, blasted + RETRANSMIT_INTERVAL);
    link.pair.tick(due, CLIENT);
    let seg = link.pair.drain(due, CLIENT);
    let h = seg.first().expect("retransmit queued").header;
    assert!(!h.ack && !h.probe && h.number == 1);
    assert!(h.please_ack, "retransmissions demand an ack");
}

/// Liveness rests on the timed path where there is one: a caller that
/// dies holding a timed return costs the callee every permitted re-send
/// and ends in `PeerDead` at the crash horizon.
#[test]
fn dead_caller_of_a_timed_return_still_ends_in_peer_dead_at_the_crash_horizon() {
    let config = Config {
        jitter_permille: 0,
        ..small_segments()
    };
    let mut link = Link::new(config.clone());
    link.send(CLIENT, 1, b"args");
    link.settle();
    link.expect(SERVER, MsgType::Call, 1);
    let returned = Time::from_millis(40);
    link.now = returned;
    link.send(SERVER, 1, b"abcdefghij");
    link.settle();
    link.expect(CLIENT, MsgType::Return, 1);
    // The client is gone; each re-send is the return's first segment.
    let resent = config.max_retransmits as usize;
    assert_eq!(link.black_hole(SERVER), (1, resent));
    assert_eq!(link.pair.spec.tally["resent_timed"], resent as u64);
    assert_eq!(link.now, returned + config.crash_horizon());
}

/// What holding gives up: a caller that dies holding a one-segment return
/// is never noticed through it. The callee sends nothing, times nothing
/// and raises nothing; the return waits for its call's record to expire.
#[test]
fn dead_caller_of_a_one_segment_return_is_not_noticed() {
    let mut link = Link::new(Config::default());
    link.send(CLIENT, 1, b"args");
    link.settle();
    link.expect(SERVER, MsgType::Call, 1);
    link.send(SERVER, 1, b"ok");
    link.settle();
    link.expect(CLIENT, MsgType::Return, 1);
    // The client is gone.
    assert_eq!(link.end(SERVER).poll_timer(), None);
    let later = Time::ZERO + Config::default().crash_horizon() + Duration::from_secs(60);
    link.pair.tick(later, SERVER);
    assert!(link.pair.drain(later, SERVER).is_empty());
    assert_eq!(link.pair.event(SERVER), None);
    assert!(!link.end(SERVER).is_dead());
}
