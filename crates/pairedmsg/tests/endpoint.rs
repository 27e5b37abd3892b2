//! Integration tests driving two endpoints against each other through an
//! in-memory "wire" with controllable loss, and the transcripts of whose
//! clock re-sends a lost return (`endpoint`'s "How a return gets
//! acknowledged"), carried by hand over the same wire.

use pairedmsg::config::RETRANSMIT_INTERVAL;
use pairedmsg::{Config, Endpoint, Event, MsgSender, MsgType, Segment, SendError};
use simnet::{Duration, Time};

fn ms(n: u64) -> Time {
    Time::ZERO + Duration::from_millis(n)
}

/// One line per segment, for transcripts: `C1 2/3 please-ack`,
/// `ack R1 3`, `probe 1`.
fn show(seg: &Segment) -> String {
    let h = seg.header;
    let t = match h.msg_type {
        MsgType::Call => 'C',
        MsgType::Return => 'R',
    };
    let cn = h.call_number;
    match (h.probe, h.ack) {
        (true, false) => format!("probe {cn}"),
        (true, true) => format!("probe-reply {cn}"),
        (false, true) => format!("ack {t}{cn} {}", h.number),
        (false, false) if h.please_ack => {
            format!("{t}{cn} {}/{} please-ack", h.number, h.total)
        }
        (false, false) => format!("{t}{cn} {}/{}", h.number, h.total),
    }
}

/// The wire between two endpoints: its clock, and which datagrams
/// (counting across the whole test) it loses.
struct Wire {
    now: Time,
    counter: usize,
    drop_list: Vec<usize>,
}

impl Wire {
    fn new() -> Wire {
        Wire {
            now: Time::ZERO,
            counter: 0,
            drop_list: Vec::new(),
        }
    }

    fn dropping(drop_list: Vec<usize>) -> Wire {
        Wire {
            drop_list,
            ..Wire::new()
        }
    }

    /// Sets the clock to `n` ms.
    fn at(&mut self, n: u64) -> &mut Wire {
        self.now = ms(n);
        self
    }

    /// The pump: everything `tx` has queued crosses to `rx`, through the
    /// datagram encoding, unless the drop list claims it. Returns what
    /// was sent, one [`show`] line per segment.
    fn carry(&mut self, tx: &mut Endpoint, rx: &mut Endpoint) -> Vec<String> {
        let mut crossed = Vec::new();
        while let Some(seg) = tx.poll_transmit_segment() {
            crossed.push(show(&seg));
            if !self.drop_list.contains(&self.counter) {
                rx.on_datagram(self.now, &seg.encode()).unwrap();
            }
            self.counter += 1;
        }
        crossed
    }

    /// Carries both ways until neither side has output.
    fn settle(&mut self, a: &mut Endpoint, b: &mut Endpoint) -> Vec<String> {
        let mut crossed = Vec::new();
        loop {
            let before = crossed.len();
            crossed.extend(self.carry(a, b));
            crossed.extend(self.carry(b, a));
            if crossed.len() == before {
                return crossed;
            }
        }
    }

    /// Advances time to the earlier of the endpoints' next deadlines,
    /// ticks both, then settles.
    fn tick_round(&mut self, a: &mut Endpoint, b: &mut Endpoint) {
        let deadline = [a.poll_timer(), b.poll_timer()].into_iter().flatten().min();
        if let Some(t) = deadline {
            self.now = t;
            a.on_timer(self.now);
            b.on_timer(self.now);
            self.settle(a, b);
        }
    }
}

fn pair() -> (Endpoint, Endpoint) {
    pair_with(Config::default())
}

fn pair_with(config: Config) -> (Endpoint, Endpoint) {
    (Endpoint::new(config.clone()), Endpoint::new(config))
}

fn small_segments() -> Config {
    Config {
        max_segment_data: 4,
        ..Config::default()
    }
}

fn expect_message(e: &mut Endpoint, ty: MsgType, cn: u32) -> Vec<u8> {
    match e.poll_event() {
        Some(Event::Message {
            msg_type,
            call_number,
            data,
            ..
        }) => {
            assert_eq!(msg_type, ty);
            assert_eq!(call_number, cn);
            data.to_vec()
        }
        other => panic!("expected message, got {other:?}"),
    }
}

#[test]
fn simple_exchange_no_loss() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();

    client.send(wire.now, MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    let got = expect_message(&mut server, MsgType::Call, 1);
    assert_eq!(got, b"args");

    server
        .send(wire.now, MsgType::Return, 1, 0, b"results")
        .unwrap();
    wire.settle(&mut client, &mut server);
    let got = expect_message(&mut client, MsgType::Return, 1);
    assert_eq!(got, b"results");
    // The return implicitly acknowledged the call; the client's call
    // sender is gone.
    assert!(client.poll_event().is_none());
}

#[test]
fn exchange_uses_minimal_packets() {
    // One datagram per direction: the call's ack is deferred, the return
    // acknowledges the call, and the return is held, not timed.
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();
    client.send(wire.now, MsgType::Call, 1, 0, b"x").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server.send(wire.now, MsgType::Return, 1, 0, b"y").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut client, MsgType::Return, 1);
    // Exactly 2 datagrams so far: the call and the return.
    assert_eq!(wire.counter, 2);
}

#[test]
fn back_to_back_calls_implicitly_ack_returns() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();
    for cn in 1..=10u32 {
        client
            .send(wire.now, MsgType::Call, cn, 0, b"ping")
            .unwrap();
        wire.settle(&mut client, &mut server);
        expect_message(&mut server, MsgType::Call, cn);
        server
            .send(wire.now, MsgType::Return, cn, 0, b"pong")
            .unwrap();
        wire.settle(&mut client, &mut server);
        expect_message(&mut client, MsgType::Return, cn);
    }
    // 10 calls + 10 returns, no acks needed in steady state: each call
    // implicitly acknowledges the previous return.
    assert_eq!(wire.counter, 20);
    // The final return is held: nothing is timed on either side.
    assert_eq!(client.poll_timer(), None);
    assert_eq!(server.poll_timer(), None);
    assert!(client.is_idle() && server.is_idle());
}

#[test]
fn multi_segment_message_reassembles() {
    let config = Config {
        max_segment_data: 8,
        ..Config::default()
    };
    let mut client = Endpoint::new(config.clone());
    let mut server = Endpoint::new(config);
    let mut wire = Wire::new();
    let big: Vec<u8> = (0..100u8).collect();
    client.send(wire.now, MsgType::Call, 1, 0, &big).unwrap();
    wire.settle(&mut client, &mut server);
    let got = expect_message(&mut server, MsgType::Call, 1);
    assert_eq!(got, big);
}

#[test]
fn lost_call_segment_recovered_by_retransmission() {
    let (mut client, mut server) = pair();
    // Drop the very first datagram (the call).
    let mut wire = Wire::dropping(vec![0]);
    client.send(wire.now, MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    assert!(server.poll_event().is_none());
    // Client's retransmit timer recovers it.
    wire.tick_round(&mut client, &mut server);
    let got = expect_message(&mut server, MsgType::Call, 1);
    assert_eq!(got, b"args");
}

#[test]
fn lost_middle_segment_recovered() {
    let config = Config {
        max_segment_data: 4,
        ..Config::default()
    };
    let mut client = Endpoint::new(config.clone());
    let mut server = Endpoint::new(config);
    // Message of 3 segments; drop the 2nd (index 1).
    let mut wire = Wire::dropping(vec![1]);
    client
        .send(wire.now, MsgType::Call, 1, 0, b"abcdefghij")
        .unwrap();
    wire.settle(&mut client, &mut server);
    // Out-of-order arrival of segment 3 provoked an immediate ack (ack
    // number 1) and the retransmission cycle fills the gap.
    let mut done = false;
    for _ in 0..5 {
        wire.tick_round(&mut client, &mut server);
        if let Some(Event::Message { data, .. }) = server.poll_event() {
            assert_eq!(data, b"abcdefghij");
            done = true;
            break;
        }
    }
    assert!(done, "message never reassembled");
}

#[test]
fn lost_return_recovered() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::dropping(vec![1]); // Drop the return.
    client.send(wire.now, MsgType::Call, 1, 0, b"q").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server.send(wire.now, MsgType::Return, 1, 0, b"r").unwrap();
    wire.settle(&mut client, &mut server);
    assert!(client.poll_event().is_none());
    wire.tick_round(&mut client, &mut server);
    let got = expect_message(&mut client, MsgType::Return, 1);
    assert_eq!(got, b"r");
}

#[test]
fn duplicate_call_not_delivered_twice() {
    let (mut client, mut server) = pair();
    let wire = Wire::new();
    client.send(wire.now, MsgType::Call, 1, 0, b"once").unwrap();
    // Capture and replay the call datagram.
    let bytes = client.poll_transmit().unwrap();
    server.on_datagram(wire.now, &bytes).unwrap();
    expect_message(&mut server, MsgType::Call, 1);
    server.on_datagram(wire.now, &bytes).unwrap();
    assert!(server.poll_event().is_none(), "duplicate delivered");
}

#[test]
fn replay_after_completion_is_reacked_not_redelivered() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();
    client.send(wire.now, MsgType::Call, 1, 0, b"once").unwrap();
    let call_bytes = client.poll_transmit().unwrap();
    server.on_datagram(wire.now, &call_bytes).unwrap();
    expect_message(&mut server, MsgType::Call, 1);
    server
        .send(wire.now, MsgType::Return, 1, 0, b"done")
        .unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut client, MsgType::Return, 1);
    // The next call retires the held return.
    exchange(10, 2, &mut client, &mut server);

    // A delayed duplicate of call 1 arrives with please-ack: the server
    // re-acks (so the sender stops) but does not re-deliver.
    let mut seg = Segment::decode(&call_bytes).unwrap();
    seg.header.please_ack = true;
    server.on_segment(wire.now, seg);
    assert!(server.poll_event().is_none());
    let out = server.poll_transmit_segment().unwrap();
    assert_eq!(show(&out), "ack C1 1");
}

#[test]
fn crash_detected_by_unanswered_retransmissions() {
    let (mut client, _server) = pair();
    let mut now = Time::ZERO;
    client.send(now, MsgType::Call, 1, 0, b"void").unwrap();
    while let Some(bytes) = client.poll_transmit() {
        drop(bytes); // Black hole: the server is gone.
    }
    let mut dead = false;
    for _ in 0..20 {
        match client.poll_timer() {
            Some(t) => {
                now = t;
                client.on_timer(now);
                while client.poll_transmit().is_some() {}
                if let Some(Event::PeerDead) = client.poll_event() {
                    dead = true;
                    break;
                }
            }
            None => break,
        }
    }
    assert!(dead, "peer death never detected");
    assert!(client.is_dead());
}

#[test]
fn crash_during_long_call_detected_by_probes() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();
    client
        .send(wire.now, MsgType::Call, 1, 0, b"slow-op")
        .unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);

    // The server acknowledges receipt explicitly (simulate a please-ack
    // round) so the client enters the probing phase.
    // First retransmission elicits an ack from the completed-receive cache.
    let mut now = client.poll_timer().unwrap();
    client.on_timer(now);
    wire.now = now;
    wire.settle(&mut client, &mut server);

    // The server never replies (crashed mid-procedure). Probes go
    // unanswered; the client eventually declares it dead.
    let mut dead = false;
    for _ in 0..20 {
        match client.poll_timer() {
            Some(t) => {
                now = t;
                client.on_timer(now);
                // Black-hole any probe segments.
                while client.poll_transmit().is_some() {}
                if let Some(Event::PeerDead) = client.poll_event() {
                    dead = true;
                    break;
                }
            }
            None => break,
        }
    }
    assert!(dead, "crash during execution never detected");
}

#[test]
fn probes_answered_keep_connection_alive() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();
    client.send(wire.now, MsgType::Call, 1, 0, b"slow").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);

    // Let many probe intervals pass with the server answering probes.
    for _ in 0..10 {
        wire.tick_round(&mut client, &mut server);
        assert!(client.poll_event().is_none(), "client gave up too early");
    }
    // Finally the server replies; the exchange completes normally.
    server.send(wire.now, MsgType::Return, 1, 0, b"ok").unwrap();
    wire.settle(&mut client, &mut server);
    let got = expect_message(&mut client, MsgType::Return, 1);
    assert_eq!(got, b"ok");
    assert!(!client.is_dead());
}

#[test]
fn abandon_call_stops_activity() {
    let (mut client, _server) = pair();
    client.send(Time::ZERO, MsgType::Call, 1, 0, b"x").unwrap();
    while client.poll_transmit().is_some() {}
    client.abandon_call(Time::ZERO, 1);
    assert!(client.is_idle());
    assert!(client.poll_timer().is_none());
}

#[test]
fn dead_peer_reported_once_despite_queued_retransmits() {
    // Two concurrent calls to a peer that has crashed: both senders'
    // retransmission schedules run out, but only ONE PeerDead may surface
    // for this peer incarnation — the second give-up (and any abandon of
    // the still-queued call afterwards) must be swallowed.
    let (mut client, _server) = pair();
    let mut now = Time::ZERO;
    client.send(now, MsgType::Call, 1, 0, b"a").unwrap();
    client.send(now, MsgType::Call, 2, 0, b"b").unwrap();
    while client.poll_transmit().is_some() {}

    let mut dead_events = 0;
    for _ in 0..40 {
        match client.poll_timer() {
            Some(t) => {
                now = t;
                client.on_timer(now);
                while client.poll_transmit().is_some() {}
            }
            None => break,
        }
        while let Some(ev) = client.poll_event() {
            if ev == Event::PeerDead {
                dead_events += 1;
            }
        }
    }
    assert!(client.is_dead());
    assert_eq!(dead_events, 1, "duplicate PeerDead for one incarnation");

    // Abandoning the other call after the death must not resurrect any
    // activity (probe re-arm) or emit further events.
    client.abandon_call(now, 2);
    assert!(client.poll_timer().is_none());
    client.on_timer(now + Duration::from_secs(60));
    assert!(client.poll_event().is_none());
    assert!(client.poll_transmit().is_none());
}

#[test]
fn abandon_then_giveup_single_peer_dead() {
    // A call is abandoned while its retransmission is queued; the
    // remaining call still exhausts its schedule. Exactly one PeerDead.
    let (mut client, _server) = pair();
    let mut now = Time::ZERO;
    client.send(now, MsgType::Call, 1, 0, b"x").unwrap();
    client.send(now, MsgType::Call, 2, 0, b"y").unwrap();
    // Let one retransmit round pass so both senders have queued output.
    now = client.poll_timer().unwrap();
    client.on_timer(now);
    client.abandon_call(now, 1);
    while client.poll_transmit().is_some() {}

    let mut dead_events = 0;
    for _ in 0..40 {
        match client.poll_timer() {
            Some(t) => {
                now = t;
                client.on_timer(now);
                while client.poll_transmit().is_some() {}
            }
            None => break,
        }
        while let Some(ev) = client.poll_event() {
            if ev == Event::PeerDead {
                dead_events += 1;
            }
        }
    }
    assert_eq!(dead_events, 1);
    assert!(client.is_dead());
}

#[test]
fn oversize_message_rejected_at_send() {
    let (mut client, _server) = pair();
    let max = Config::default().max_message_len();
    let fits = vec![0u8; max];
    assert!(client.send(Time::ZERO, MsgType::Call, 1, 0, &fits).is_ok());
    let huge = vec![0u8; max + 1];
    assert_eq!(
        client.send(Time::ZERO, MsgType::Call, 2, 0, &huge),
        Err(SendError::TooLong { len: max + 1, max })
    );
}

#[test]
fn heavy_loss_eventually_delivers() {
    let config = Config {
        max_retransmits: 50,
        ..small_segments()
    };
    let mut client = Endpoint::new(config.clone());
    let mut server = Endpoint::new(config);
    // Drop every third datagram.
    let drop_list: Vec<usize> = (0..400).filter(|i| i % 3 == 0).collect();
    let mut wire = Wire::dropping(drop_list);
    client
        .send(wire.now, MsgType::Call, 1, 0, b"abcdefghijklmnopqrstuvwxyz")
        .unwrap();
    wire.settle(&mut client, &mut server);
    let mut got = None;
    for _ in 0..60 {
        if let Some(Event::Message { data, .. }) = server.poll_event() {
            got = Some(data);
            break;
        }
        wire.tick_round(&mut client, &mut server);
    }
    assert_eq!(got.as_deref(), Some(b"abcdefghijklmnopqrstuvwxyz".as_ref()));
}

/// Counts data/ack datagrams both ways for a one-way S-segment message
/// under a lossless wire, for the §4.2.5 protocol comparison.
fn transfer_counting(config: Config, segments: usize) -> (usize, usize) {
    let seg_size = 4usize;
    let mut tx = Endpoint::new(config.clone());
    let mut rx = Endpoint::new(config);
    let payload = vec![7u8; seg_size * segments];
    let mut now = Time::ZERO;
    tx.send(now, MsgType::Call, 1, 0, &payload).unwrap();
    let mut forward = 0usize;
    let mut backward = 0usize;
    for _ in 0..10_000 {
        let mut moved = false;
        while let Some(bytes) = tx.poll_transmit() {
            moved = true;
            forward += 1;
            rx.on_datagram(now, &bytes).unwrap();
        }
        while let Some(bytes) = rx.poll_transmit() {
            moved = true;
            backward += 1;
            tx.on_datagram(now, &bytes).unwrap();
        }
        if let Some(Event::Message { data, .. }) = rx.poll_event() {
            assert_eq!(data, payload);
            return (forward, backward);
        }
        if !moved {
            match tx.poll_timer() {
                Some(t) => {
                    now = t;
                    tx.on_timer(now);
                }
                None => break,
            }
        }
    }
    panic!("message never delivered");
}

#[test]
fn parc_mode_delivers_multi_segment_messages() {
    let config = Config {
        max_segment_data: 4,
        ..Config::parc()
    };
    let (forward, backward) = transfer_counting(config, 8);
    // Stop-and-wait: 8 data segments forward, 7 explicit acks back
    // ("an explicit acknowledgment of every segment but the last").
    assert_eq!(forward, 8);
    assert_eq!(backward, 7);
}

#[test]
fn circus_mode_sends_minimum_datagrams() {
    let config = Config {
        max_segment_data: 4,
        ..Config::default()
    };
    let (forward, backward) = transfer_counting(config, 8);
    // Eager send: 8 data segments, no acks needed on a lossless wire.
    assert_eq!(forward, 8);
    assert_eq!(backward, 0);
}

#[test]
fn parc_mode_bounds_receiver_buffering() {
    // PARC: at most one segment in flight, so the receiver never buffers
    // out of order; Circus may buffer many (here the wire is in-order,
    // so we check the sender-side property: one unacked at a time via
    // the datagram counts above, and the receiver metric stays 0/1).
    let config = Config {
        max_segment_data: 4,
        ..Config::parc()
    };
    let (mut tx, mut rx) = pair_with(config);
    tx.send(Time::ZERO, MsgType::Call, 1, 0, &[1u8; 4 * 6])
        .unwrap();
    Wire::new().settle(&mut tx, &mut rx);
    assert!(matches!(rx.poll_event(), Some(Event::Message { .. })));
    assert!(
        rx.stats().max_recv_buffered <= 1,
        "PARC must bound receiver buffering, saw {}",
        rx.stats().max_recv_buffered
    );
}

#[test]
fn parc_mode_recovers_from_loss() {
    let config = Config {
        max_segment_data: 4,
        max_retransmits: 30,
        ..Config::parc()
    };
    let mut tx = Endpoint::new(config.clone());
    let mut rx = Endpoint::new(config);
    let payload = vec![9u8; 4 * 5];
    let mut now = Time::ZERO;
    tx.send(now, MsgType::Call, 1, 0, &payload).unwrap();
    let mut rng_drop = 0usize;
    for _ in 0..200 {
        let mut moved = false;
        while let Some(bytes) = tx.poll_transmit() {
            moved = true;
            rng_drop += 1;
            if !rng_drop.is_multiple_of(3) {
                rx.on_datagram(now, &bytes).unwrap();
            }
        }
        while let Some(bytes) = rx.poll_transmit() {
            moved = true;
            if rng_drop % 4 != 1 {
                tx.on_datagram(now, &bytes).unwrap();
            }
        }
        if let Some(Event::Message { data, .. }) = rx.poll_event() {
            assert_eq!(data, payload);
            return;
        }
        if !moved {
            match tx.poll_timer() {
                Some(t) => {
                    now = t;
                    tx.on_timer(now);
                }
                None => break,
            }
        }
    }
    panic!("PARC-mode message never delivered under loss");
}

#[test]
fn concurrent_calls_completing_out_of_order_both_deliver() {
    // Two calls in flight to the same peer; the higher-numbered one
    // completes first. The lower-numbered one is a slow concurrent call,
    // NOT a replay, and must still be delivered (suppressing on the
    // highest delivered number starved exactly this case).
    let (mut client, mut server) = pair();

    // Hand-deliver so we control arrival order: capture both calls' raw
    // datagrams first.
    client
        .send(Time::ZERO, MsgType::Call, 1, 0, b"first")
        .unwrap();
    let call1 = client.poll_transmit().unwrap();
    client
        .send(Time::ZERO, MsgType::Call, 2, 0, b"second")
        .unwrap();
    let call2 = client.poll_transmit().unwrap();

    server.on_datagram(Time::ZERO, &call2).unwrap();
    let got = expect_message(&mut server, MsgType::Call, 2);
    assert_eq!(got, b"second");

    server.on_datagram(Time::ZERO, &call1).unwrap();
    let got = expect_message(&mut server, MsgType::Call, 1);
    assert_eq!(got, b"first");

    let stats = server.stats();
    assert_eq!(stats.calls_delivered, 2);
    assert_eq!(stats.duplicate_call_deliveries, 0);
}

#[test]
fn replay_of_purged_call_suppressed() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();

    client.send(wire.now, MsgType::Call, 1, 0, b"args").unwrap();
    let call1 = client.poll_transmit().unwrap();
    server.on_datagram(wire.now, &call1).unwrap();
    expect_message(&mut server, MsgType::Call, 1);
    server
        .send(wire.now, MsgType::Return, 1, 0, b"res")
        .unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut client, MsgType::Return, 1);

    // Age the completed record past the replay TTL, then replay the call.
    let later = Time::ZERO + Config::default().replay_ttl + Config::default().replay_ttl;
    server.on_datagram(later, &call1).unwrap();
    assert!(
        server.poll_event().is_none(),
        "purged call must not re-execute"
    );
    assert_eq!(server.stats().replays_suppressed, 1);
    assert_eq!(server.stats().calls_delivered, 1);
}

#[test]
fn audit_counters_track_monotonic_sends() {
    let (mut client, _server) = pair();
    client.send(Time::ZERO, MsgType::Call, 1, 0, b"a").unwrap();
    client.send(Time::ZERO, MsgType::Call, 2, 0, b"b").unwrap();
    assert_eq!(client.stats().send_call_regressions, 0);
}

/// The receiving endpoint cannot tell a multicast copy from a unicast
/// one: an adopted call completes through the normal event path when
/// the (multicast) segments arrive at the peer, and the return
/// message implicitly acknowledges the adopted sender.
#[test]
fn adopted_call_round_trips_through_endpoints() {
    let cfg = small_segments();
    let now = Time::ZERO;
    let (mut client, mut server) = pair_with(cfg.clone());

    // The blast is cut by a sender of the caller's own, off to the side.
    let blast = MsgSender::new(now, &cfg, MsgType::Call, 1, 0, b"abcdefghij").unwrap();
    assert_eq!(blast.total(), 3);
    client
        .adopt(now, MsgType::Call, 1, 0, b"abcdefghij")
        .unwrap();
    assert!(client.poll_transmit().is_none(), "nothing of its own");

    for n in 1..=blast.total() {
        server
            .on_datagram(now, &blast.segment(n, false).encode())
            .unwrap();
    }
    expect_message(&mut server, MsgType::Call, 1);

    // The return implicitly acknowledges the adopted sender.
    server.send(now, MsgType::Return, 1, 0, b"ok").unwrap();
    Wire::new().carry(&mut server, &mut client);
    expect_message(&mut client, MsgType::Return, 1);
    assert!(client.is_idle());
    assert_eq!(client.stats().send_call_regressions, 0);
}

/// A member that missed the multicast is served by the ordinary
/// unicast retransmission schedule (straggler fallback), whose clock
/// starts when the caller says the blast left.
#[test]
fn straggler_served_by_unicast_retransmission() {
    let blasted = ms(113);
    let mut client = Endpoint::new(small_segments());
    client
        .adopt(blasted, MsgType::Call, 1, 0, b"abcdefghij")
        .unwrap();
    let due = client.poll_timer().expect("retransmission armed");
    assert_eq!(due, blasted + RETRANSMIT_INTERVAL);
    client.on_timer(due);
    let seg = client.poll_transmit_segment().expect("retransmit queued");
    assert!(seg.is_data());
    assert_eq!(seg.header.number, 1);
    assert!(seg.header.please_ack, "retransmissions demand an ack");
}

/// A return a troupe-wide multicast carried at `at` ms: the callee adopts
/// it, and the caller receives the blast's copy unless `lost`. Returns
/// what reached the caller, one [`show`] line per segment.
fn blast_return(
    at: u64,
    data: &[u8],
    config: &Config,
    (client, server): (&mut Endpoint, &mut Endpoint),
    lost: bool,
) -> Vec<String> {
    let cut = MsgSender::new(ms(at), config, MsgType::Return, 1, 0, data).unwrap();
    server.adopt(ms(at), MsgType::Return, 1, 0, data).unwrap();
    assert!(server.poll_transmit().is_none(), "nothing of its own");
    let mut crossed = Vec::new();
    for n in 1..=cut.total() {
        let seg = cut.segment(n, false);
        crossed.push(show(&seg));
        if !lost {
            client.on_datagram(ms(at), &seg.encode()).unwrap();
        }
    }
    crossed
}

/// An adopted return follows the rule of a sent one. One segment to a
/// call the callee never acknowledged explicitly is held: no timer. When
/// the blast's copy is lost, the caller's call timer brings the call
/// back with *please ack* and the callee re-sends the return to it alone,
/// once; the caller's next call retires it, so a later *please ack*
/// duplicate of the call gets an ack, not the return.
#[test]
fn adopted_one_segment_return_is_held_and_resent_on_please_ack() {
    let config = Config {
        jitter_permille: 0,
        ..Config::default()
    };
    let (mut client, mut server) = pair_with(config.clone());
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    let call = client.poll_transmit().unwrap();
    server.on_datagram(ms(0), &call).unwrap();
    expect_message(&mut server, MsgType::Call, 1);
    let pair = (&mut client, &mut server);
    assert_eq!(blast_return(40, b"ok", &config, pair, true), ["R1 1/1"]);
    assert_eq!(server.poll_timer(), None, "held: the callee times nothing");
    assert!(server.is_idle());

    assert_eq!(client.poll_timer(), Some(ms(300)));
    client.on_timer(ms(300));
    assert_eq!(
        wire.at(300).settle(&mut client, &mut server),
        ["C1 1/1 please-ack", "R1 1/1"]
    );
    assert_eq!(expect_message(&mut client, MsgType::Return, 1), b"ok");
    assert_eq!(server.stats().retransmits, 1);
    assert_eq!(server.stats().acks_sent, 0);
    assert!(tick_at(&[900, 5_000], &mut client, &mut server).is_empty());

    exchange(6_000, 2, &mut client, &mut server);
    let mut again = Segment::decode(&call).unwrap();
    again.header.please_ack = true;
    server.on_segment(ms(6_100), again);
    let answer = server.poll_transmit_segment().unwrap();
    assert_eq!(show(&answer), "ack C1 1", "retired by the next call");
    assert_eq!(server.stats().retransmits, 1);
}

/// An adopted return to a call the callee acknowledged while it ran keeps
/// its timer: the ack stopped the caller's call timer, so only the callee
/// can ask for it again.
#[test]
fn adopted_return_to_a_call_acked_while_it_ran_is_timed() {
    let config = Config::default();
    let (mut client, mut server) = pair_with(config.clone());
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    assert_eq!(
        tick_at(&[300], &mut client, &mut server),
        ["C1 1/1 please-ack", "ack C1 1"]
    );

    let pair = (&mut client, &mut server);
    assert_eq!(blast_return(400, b"ok", &config, pair, false), ["R1 1/1"]);
    expect_message(&mut client, MsgType::Return, 1);
    assert_eq!(server.poll_timer(), Some(ms(700)));
    assert_eq!(
        tick_at(&[700], &mut client, &mut server),
        ["R1 1/1 please-ack", "ack R1 1"]
    );
    assert!(client.poll_event().is_none(), "not delivered twice");
    assert!(server.is_idle() && server.poll_timer().is_none());
}

/// An adopted return of two segments keeps its timer, as a sent one does:
/// its first segment stops the caller's call timer.
#[test]
fn adopted_two_segment_return_keeps_its_timer() {
    let config = small_segments();
    let (mut client, mut server) = pair_with(config.clone());
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);

    let pair = (&mut client, &mut server);
    let crossed = blast_return(SERVICE_MS, b"abcdefgh", &config, pair, false);
    assert_eq!(crossed, ["R1 1/2", "R1 2/2"]);
    assert_eq!(expect_message(&mut client, MsgType::Return, 1), b"abcdefgh");
    assert_eq!(client.poll_timer(), None);
    assert_eq!(server.poll_timer(), Some(ms(SERVICE_MS + 300)));
    assert_eq!(
        tick_at(&[SERVICE_MS + 300], &mut client, &mut server),
        ["R1 1/2 please-ack", "ack R1 2"]
    );
    assert!(server.is_idle() && server.poll_timer().is_none());
}

/// How long the callee takes to answer in [`exchange`].
const SERVICE_MS: u64 = 40;

/// One whole exchange: `client` sends call `cn` at `at` ms, `server`
/// answers [`SERVICE_MS`] later, and both messages arrive and are
/// delivered upward. Returns everything that crossed.
fn exchange(at: u64, cn: u32, client: &mut Endpoint, server: &mut Endpoint) -> Vec<String> {
    let mut wire = Wire::new();
    client.send(ms(at), MsgType::Call, cn, 0, b"args").unwrap();
    let mut crossed = wire.at(at).settle(client, server);
    expect_message(server, MsgType::Call, cn);
    server
        .send(ms(at + SERVICE_MS), MsgType::Return, cn, 0, b"ok")
        .unwrap();
    crossed.extend(wire.at(at + SERVICE_MS).settle(server, client));
    expect_message(client, MsgType::Return, cn);
    crossed
}

/// Ticks both endpoints at each of `ticks` ms and carries what they send.
fn tick_at(ticks: &[u64], client: &mut Endpoint, server: &mut Endpoint) -> Vec<String> {
    let mut wire = Wire::new();
    let mut crossed = Vec::new();
    for &tick in ticks {
        client.on_timer(ms(tick));
        server.on_timer(ms(tick));
        crossed.extend(wire.at(tick).settle(client, server));
    }
    crossed
}

/// An idle exchange is its two messages and nothing more: the callee
/// holds its one-segment return with no timer, and the caller never
/// acknowledges it unasked.
#[test]
fn idle_exchange_is_the_call_and_the_return_only() {
    let (mut client, mut server) = pair();
    let crossed = exchange(0, 1, &mut client, &mut server);
    assert_eq!(crossed, ["C1 1/1", "R1 1/1"]);
    assert_eq!(server.poll_timer(), None);
    assert_eq!(client.poll_timer(), None);
    assert!(tick_at(&[300, 340, 5_000], &mut client, &mut server).is_empty());
    for s in [client.stats(), server.stats()] {
        assert_eq!((s.acks_sent, s.retransmits, s.segments_sent), (0, 0, 1));
    }
}

/// A lost return is recovered on the caller's clock: its call timer
/// re-sends the call with *please ack* at call + 300 ms, and the callee
/// answers with the return itself — no *please ack* on it, and no ack of
/// the call. Lost again, the same happens one backed-off interval later.
#[test]
fn lost_return_is_recovered_by_the_callers_call_timer() {
    let config = Config {
        jitter_permille: 0,
        ..Config::default()
    };
    let (mut client, mut server) = pair_with(config);
    // The return, then its first re-send.
    let mut wire = Wire::dropping(vec![1, 3]);
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server
        .send(ms(SERVICE_MS), MsgType::Return, 1, 0, b"ok")
        .unwrap();
    assert_eq!(
        wire.at(SERVICE_MS).settle(&mut server, &mut client),
        ["R1 1/1"]
    );
    assert!(client.poll_event().is_none(), "lost");
    assert_eq!(server.poll_timer(), None, "the callee times nothing");

    let mut crossed = Vec::new();
    for due in [300, 900] {
        assert_eq!(client.poll_timer(), Some(ms(due)));
        client.on_timer(ms(due));
        crossed.extend(wire.at(due).settle(&mut client, &mut server));
    }
    assert_eq!(
        crossed,
        ["C1 1/1 please-ack", "R1 1/1", "C1 1/1 please-ack", "R1 1/1"]
    );
    assert_eq!(expect_message(&mut client, MsgType::Return, 1), b"ok");
    assert!(server.poll_event().is_none(), "the call ran once");
    let (c, s) = (client.stats(), server.stats());
    assert_eq!((c.retransmits, c.acks_sent), (2, 0));
    assert_eq!((s.retransmits, s.acks_sent), (2, 0));
    assert!(client.is_idle() && server.is_idle());
    assert!(tick_at(&[1_500, 5_000], &mut client, &mut server).is_empty());
}

/// A *please ack* duplicate that arrives while the call is still running
/// is acknowledged at once, which stops the caller's call timer: the
/// return then keeps a timer of its own, and the caller answers its
/// *please ack*.
#[test]
fn please_ack_while_the_call_runs_is_acked_and_the_return_keeps_its_timer() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    assert_eq!(
        tick_at(&[300], &mut client, &mut server),
        ["C1 1/1 please-ack", "ack C1 1"]
    );

    server.send(ms(400), MsgType::Return, 1, 0, b"ok").unwrap();
    assert_eq!(wire.at(400).settle(&mut server, &mut client), ["R1 1/1"]);
    expect_message(&mut client, MsgType::Return, 1);
    assert_eq!(server.poll_timer(), Some(ms(700)));
    assert_eq!(
        tick_at(&[700], &mut client, &mut server),
        ["R1 1/1 please-ack", "ack R1 1"]
    );
    assert!(client.poll_event().is_none(), "not delivered twice");
    assert!(server.is_idle() && server.poll_timer().is_none());
}

/// A return of two or more segments keeps its timer: its first segment
/// stops the caller's call timer, so nothing on the caller's side would
/// ever ask for a segment that went missing after it.
#[test]
fn multi_segment_return_keeps_its_timer() {
    let (mut client, mut server) = pair_with(small_segments());
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server
        .send(ms(SERVICE_MS), MsgType::Return, 1, 0, b"abcdefghij")
        .unwrap();
    assert_eq!(
        wire.at(SERVICE_MS).settle(&mut server, &mut client),
        ["R1 1/3", "R1 2/3", "R1 3/3"]
    );
    expect_message(&mut client, MsgType::Return, 1);
    assert_eq!(client.poll_timer(), None);
    assert_eq!(server.poll_timer(), Some(ms(SERVICE_MS + 300)));
    assert_eq!(
        tick_at(&[SERVICE_MS + 300], &mut client, &mut server),
        ["R1 1/3 please-ack", "ack R1 3"]
    );
    assert!(server.is_idle() && server.poll_timer().is_none());
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
    let (mut client, mut server) = pair_with(config.clone());
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server
        .send(ms(SERVICE_MS), MsgType::Return, 1, 0, b"abcdefghij")
        .unwrap();
    wire.at(SERVICE_MS).settle(&mut server, &mut client);
    drop(client);

    let mut resent = 0;
    let died = loop {
        let due = server.poll_timer().expect("armed until it gives up");
        server.on_timer(due);
        while let Some(seg) = server.poll_transmit_segment() {
            assert_eq!(show(&seg), "R1 1/3 please-ack");
            resent += 1;
        }
        if let Some(ev) = server.poll_event() {
            assert_eq!(ev, Event::PeerDead);
            break due;
        }
    };
    assert_eq!(resent, config.max_retransmits);
    assert_eq!(server.stats().retransmits, resent as u64);
    assert_eq!(died, ms(SERVICE_MS) + config.crash_horizon());
}

/// What holding gives up: a caller that dies holding a one-segment return
/// is never noticed through it. The callee sends nothing, times nothing
/// and raises nothing; the return waits for its call's record to expire.
#[test]
fn dead_caller_of_a_one_segment_return_is_not_noticed() {
    let (mut client, mut server) = pair();
    exchange(0, 1, &mut client, &mut server);
    drop(client);
    assert_eq!(server.poll_timer(), None);
    let horizon = ms(SERVICE_MS) + Config::default().crash_horizon();
    server.on_timer(horizon + Duration::from_secs(60));
    assert_eq!(server.poll_transmit_segment(), None);
    assert_eq!(server.poll_event(), None);
    assert!(!server.is_dead());
}

/// A held return needs its call's record to outlive the caller's
/// re-sends; an endpoint whose replay TTL is shorter than the crash
/// horizon cannot promise that, and times every return instead.
#[test]
fn a_replay_ttl_short_of_the_crash_horizon_times_every_return() {
    let config = Config {
        replay_ttl: Config::default().crash_horizon() - Duration::from_micros(1),
        ..Config::default()
    };
    let (mut client, mut server) = pair_with(config);
    exchange(0, 1, &mut client, &mut server);
    assert_eq!(server.poll_timer(), Some(ms(SERVICE_MS + 300)));
    assert_eq!(
        tick_at(&[SERVICE_MS + 300], &mut client, &mut server),
        ["R1 1/1 please-ack", "ack R1 1"]
    );
}

/// The stop-and-wait discipline is untouched — every call segment but
/// the last acknowledged as it arrives, the last by the reply — and a
/// one-segment reply is held as in the eager discipline: the rule does
/// not depend on the mode.
#[test]
fn parc_stop_and_wait_holds_a_one_segment_reply_too() {
    let config = Config {
        max_segment_data: 4,
        jitter_permille: 0,
        ..Config::parc()
    };
    let (mut client, mut server) = pair_with(config);
    let mut wire = Wire::new();
    client
        .send(ms(0), MsgType::Call, 1, 0, b"abcdefghij")
        .unwrap();
    let mut crossed = wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server.send(ms(40), MsgType::Return, 1, 0, b"ok").unwrap();
    crossed.extend(wire.at(40).carry(&mut server, &mut client));
    expect_message(&mut client, MsgType::Return, 1);
    assert_eq!(
        crossed,
        [
            "C1 1/3 please-ack",
            "ack C1 1",
            "C1 2/3 please-ack",
            "ack C1 2",
            "C1 3/3",
            "R1 1/1"
        ]
    );
    assert!(tick_at(&[299, 300, 340, 640], &mut client, &mut server).is_empty());
    assert!(client.is_idle() && server.is_idle());
}
