//! Integration tests driving two endpoints against each other through an
//! in-memory "wire" with controllable loss, and the transcripts of who
//! acknowledges what, when (`endpoint`'s "How a return gets
//! acknowledged"), carried by hand over the same wire.

use pairedmsg::config::RETRANSMIT_INTERVAL;
use pairedmsg::{Config, Endpoint, Event, MsgSender, MsgType, Segment, SendError, TRAILER_LEN};
use simnet::{Duration, Time};

fn ms(n: u64) -> Time {
    Time::ZERO + Duration::from_millis(n)
}

/// One line per segment, for transcripts: `C1 2/3 please-ack`,
/// `ack R1 3`, `probe 1`, and a data segment's ack trailer after a `+`:
/// `R1 1/1 +ack R7 1`.
fn show(seg: &Segment) -> String {
    let h = seg.header;
    let t = match h.msg_type {
        MsgType::Call => 'C',
        MsgType::Return => 'R',
    };
    let cn = h.call_number;
    let line = match (h.probe, h.ack) {
        (true, false) => format!("probe {cn}"),
        (true, true) => format!("probe-reply {cn}"),
        (false, true) => format!("ack {t}{cn} {}", h.number),
        (false, false) if h.please_ack => {
            format!("{t}{cn} {}/{} please-ack", h.number, h.total)
        }
        (false, false) => format!("{t}{cn} {}/{}", h.number, h.total),
    };
    match seg.acks_return {
        Some((acked, total)) => format!("{line} +ack R{acked} {total}"),
        None => line,
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
    // Fast path: one datagram per direction (deferred ack + implicit ack),
    // plus the idle-return explicit ack round (return retransmitted with
    // please-ack, then acked).
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
    // Only the final return remains unacknowledged (server will
    // retransmit it once, then get an explicit ack).
    wire.tick_round(&mut client, &mut server);
    assert!(server.poll_timer().is_none() || server.is_idle());
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

    // A delayed duplicate of the call arrives with please-ack: the server
    // re-acks (so the sender stops) but does not re-deliver.
    let mut seg = Segment::decode(&call_bytes).unwrap();
    seg.header.please_ack = true;
    server.on_segment(wire.now, seg);
    assert!(server.poll_event().is_none());
    let out = server.poll_transmit_segment().unwrap();
    assert!(out.header.ack);
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
    client.adopt_call(now, 1, 0, b"abcdefghij").unwrap();
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
    client.adopt_call(blasted, 1, 0, b"abcdefghij").unwrap();
    let due = client.poll_timer().expect("retransmission armed");
    assert_eq!(due, blasted + RETRANSMIT_INTERVAL);
    client.on_timer(due);
    let seg = client.poll_transmit_segment().expect("retransmit queued");
    assert!(seg.is_data());
    assert_eq!(seg.header.number, 1);
    assert!(seg.header.please_ack, "retransmissions demand an ack");
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

/// A return no later call acknowledges is acknowledged once, by its
/// caller, on the tick the call was given — and that is the whole
/// cost: the callee never re-sends it.
#[test]
fn idle_return_is_acked_once_on_the_calls_own_tick() {
    let (mut client, mut server) = pair();
    let crossed = exchange(0, 1, &mut client, &mut server);
    assert_eq!(crossed, ["C1 1/1", "R1 1/1"]);

    // The owed ack asks for no timer of its own.
    assert_eq!(client.poll_timer(), None);
    assert!(client.is_idle());
    assert_eq!(server.poll_timer(), Some(ms(SERVICE_MS + 300)));

    // The tick the driver armed when call 1 went out: 300 ms, exactly.
    client.on_timer(ms(300));
    let mut wire = Wire::new();
    assert_eq!(wire.at(305).carry(&mut client, &mut server), ["ack R1 1"]);
    let s = client.stats();
    assert_eq!((s.acks_sent, s.acks_on_tick, s.retransmits), (1, 1, 0));

    // The callee is done; its own tick, 35 ms later, has nothing to do.
    assert!(server.is_idle());
    assert_eq!(server.poll_timer(), None);
    server.on_timer(ms(SERVICE_MS + 300));
    assert_eq!(server.poll_transmit_segment(), None);
    assert_eq!(server.stats().retransmits, 0);

    // And the ack is paid once.
    client.on_timer(ms(600));
    assert_eq!(client.poll_transmit_segment(), None);
}

/// A caller that calls again before its tick acknowledges the return
/// the way §4.2.2 says, for nothing: no explicit ack is ever sent.
#[test]
fn next_call_before_the_tick_cancels_the_owed_ack() {
    let (mut client, mut server) = pair();
    exchange(0, 1, &mut client, &mut server);
    assert_eq!(server.poll_timer(), Some(ms(SERVICE_MS + 300)));

    let crossed = exchange(100, 2, &mut client, &mut server);
    assert_eq!(crossed, ["C2 1/1", "R2 1/1"]);
    assert_eq!(
        server.poll_timer(),
        Some(ms(100 + SERVICE_MS + 300)),
        "call 2 retired return 1: only return 2 is still timed"
    );

    // Call 1's tick finds nothing owed for it; call 2's pays for 2.
    client.on_timer(ms(300));
    assert_eq!(client.poll_transmit_segment(), None);
    client.on_timer(ms(400));
    let mut wire = Wire::new();
    assert_eq!(wire.at(400).carry(&mut client, &mut server), ["ack R2 1"]);
    assert_eq!(client.stats().acks_sent, 1);
    assert_eq!(server.stats().acks_sent, 0);
}

/// The tick ack is an optimization the *please ack* path backs up:
/// lost, it costs what the parent protocol always paid, and the
/// prompt ack that answers the re-send is the last one.
#[test]
fn lost_tick_ack_falls_back_to_please_ack() {
    let (mut client, mut server) = pair();
    exchange(0, 1, &mut client, &mut server);
    client.on_timer(ms(300));
    let lost = client.poll_transmit_segment().expect("the tick ack");
    assert_eq!(show(&lost), "ack R1 1");

    let due = server.poll_timer().expect("return unacknowledged");
    assert_eq!(due, ms(SERVICE_MS + 300));
    server.on_timer(due);
    let mut wire = Wire::new();
    assert_eq!(
        wire.at(SERVICE_MS + 300).settle(&mut server, &mut client),
        ["R1 1/1 please-ack", "ack R1 1"]
    );
    assert!(server.is_idle());
    assert!(client.poll_event().is_none(), "not delivered twice");
    let (c, s) = (client.stats(), server.stats());
    assert_eq!((c.acks_sent, c.acks_on_tick, s.retransmits), (2, 1, 1));

    client.on_timer(ms(900));
    assert_eq!(client.poll_transmit_segment(), None);
}

/// When the callee's timer wins the race (the caller's tick is late),
/// the *please ack* duplicate is answered at once and settles the
/// debt: the tick, when it comes, sends nothing.
#[test]
fn please_ack_duplicate_settles_the_owed_ack() {
    let (mut client, mut server) = pair();
    exchange(0, 1, &mut client, &mut server);
    server.on_timer(ms(SERVICE_MS + 300));
    let mut wire = Wire::new();
    assert_eq!(
        wire.at(SERVICE_MS + 300).settle(&mut server, &mut client),
        ["R1 1/1 please-ack", "ack R1 1"]
    );

    client.on_timer(ms(350));
    assert_eq!(client.poll_transmit_segment(), None);
    assert_eq!(client.stats().acks_on_tick, 0);

    // A plain duplicate (the network's, no *please ack*) is ignored
    // and leaves a debt standing.
    exchange(1_000, 2, &mut client, &mut server);
    let dup = Segment::data(MsgType::Return, 2, 0, 1, 1, false, b"ok".to_vec());
    client.on_segment(ms(1_100), dup);
    assert_eq!(client.poll_transmit_segment(), None);
    client.on_timer(ms(1_300));
    assert_eq!(wire.at(1_300).carry(&mut client, &mut server), ["ack R2 1"]);
}

/// The ack covers the whole return, and is owed only once the whole
/// return is here — though the deadline was fixed by its first segment.
#[test]
fn multi_segment_return_is_acked_in_full() {
    let (mut client, mut server) = pair_with(small_segments());
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.carry(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server
        .send(ms(40), MsgType::Return, 1, 0, b"abcdefghij")
        .unwrap();

    // Two of three segments arrive; the third is delayed past the tick.
    let first = server.poll_transmit_segment().unwrap();
    let second = server.poll_transmit_segment().unwrap();
    let third = server.poll_transmit_segment().unwrap();
    client.on_segment(ms(50), first);
    client.on_segment(ms(50), second);
    // The call is implicitly acknowledged: its 300 ms deadline is gone
    // and only the probe for the unfinished return is timed.
    assert!(client.poll_timer().is_some_and(|t| t > ms(300)));
    client.on_timer(ms(300));
    assert!(
        wire.at(300).carry(&mut client, &mut server).is_empty(),
        "nothing owed yet"
    );

    client.on_segment(ms(310), third);
    assert!(client.poll_event().is_some());
    // The call's tick has passed: whichever tick comes next pays.
    client.on_timer(ms(320));
    assert_eq!(wire.at(320).carry(&mut client, &mut server), ["ack R1 3"]);
    assert!(server.is_idle(), "all three acknowledged");
}

/// An owed ack waits for its own deadline — a tick armed for an older
/// exchange does not pay it early — and never shows in `poll_timer`.
#[test]
fn early_tick_pays_nothing_and_poll_timer_ignores_the_debt() {
    let (mut client, mut server) = pair();
    exchange(0, 1, &mut client, &mut server);
    exchange(200, 2, &mut client, &mut server);
    assert_eq!(client.poll_timer(), None, "no sender, no probe");

    // Call 1's tick: call 2's ack is not due for another 200 ms.
    client.on_timer(ms(300));
    assert_eq!(client.poll_transmit_segment(), None);
    assert_eq!(client.poll_timer(), None);
    client.on_timer(ms(499));
    assert_eq!(client.poll_transmit_segment(), None);
    client.on_timer(ms(500));
    let mut wire = Wire::new();
    assert_eq!(wire.at(500).carry(&mut client, &mut server), ["ack R2 1"]);

    // With a call in flight the timer is the call's, nothing else's.
    exchange(1_000, 3, &mut client, &mut server);
    client
        .send(ms(1_100), MsgType::Call, 4, 0, b"args")
        .unwrap();
    assert_eq!(client.poll_timer(), Some(ms(1_400)));
}

/// Liveness does not rest on the new path: a caller that dies holding
/// a return costs the callee every permitted re-send and ends in
/// `PeerDead` at the crash horizon, as before.
#[test]
fn dead_caller_still_ends_in_peer_dead_at_the_crash_horizon() {
    let config = Config {
        jitter_permille: 0,
        ..Config::default()
    };
    let (mut client, mut server) = pair_with(config.clone());
    exchange(0, 1, &mut client, &mut server);
    drop(client);

    let mut resent = 0;
    let died = loop {
        let due = server.poll_timer().expect("armed until it gives up");
        server.on_timer(due);
        while let Some(seg) = server.poll_transmit_segment() {
            assert_eq!(show(&seg), "R1 1/1 please-ack");
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

/// Only a call whose sender the return itself retired owes an ack. A
/// call that outlived its interval was acknowledged explicitly — its
/// tick is spent — and a return for a call we never made is not ours
/// to acknowledge; both are left to *please ack*.
#[test]
fn explicitly_acked_calls_and_forged_returns_owe_nothing() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.carry(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);

    // The call's tick comes before the return: re-send, explicit ack.
    client.on_timer(ms(300));
    assert_eq!(
        wire.at(300).settle(&mut client, &mut server),
        ["C1 1/1 please-ack", "ack C1 1"]
    );

    server.send(ms(400), MsgType::Return, 1, 0, b"ok").unwrap();
    wire.at(400).carry(&mut server, &mut client);
    expect_message(&mut client, MsgType::Return, 1);

    // A return nobody asked for is delivered (the layer above drops
    // it) and owes nothing either.
    let forged = Segment::data(MsgType::Return, 77, 0, 1, 1, false, b"boo".to_vec());
    client.on_segment(ms(400), forged);

    for tick in [600, 900, 5_000] {
        client.on_timer(ms(tick));
    }
    assert_eq!(client.poll_transmit_segment(), None);
    assert_eq!(client.stats().acks_sent, 0);
}

/// The stop-and-wait discipline is untouched — every call segment but
/// the last acknowledged as it arrives, the last by the reply — and
/// the reply's own ack rides the call's tick like any other: the path
/// does not depend on the mode.
#[test]
fn parc_transcript_is_unchanged_up_to_the_returns_ack() {
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
    // The last ack that made progress restarted the call's clock.
    let mut idle = Vec::new();
    for tick in [299, 300, 340, 640] {
        client.on_timer(ms(tick));
        server.on_timer(ms(tick));
        idle.extend(wire.at(tick).settle(&mut client, &mut server));
    }
    assert_eq!(idle, ["ack R1 1"]);
}

/// A call-back (§5.3's `ready_to_commit`): `client` calls `cn` at `at`
/// ms; 10 ms later `server`, still executing it, calls the client back
/// on its own call number `back`; the client returns 10 ms after that,
/// and the server returns `reply` 10 ms after that. Each message crosses
/// as it is sent and is delivered. Returns what crossed.
fn callback(
    at: u64,
    cn: u32,
    back: u32,
    reply: &[u8],
    client: &mut Endpoint,
    server: &mut Endpoint,
) -> Vec<String> {
    let mut wire = Wire::new();
    client.send(ms(at), MsgType::Call, cn, 0, b"args").unwrap();
    let mut crossed = wire.at(at).carry(client, server);
    expect_message(server, MsgType::Call, cn);
    server
        .send(ms(at + 10), MsgType::Call, back, 0, b"ready?")
        .unwrap();
    crossed.extend(wire.at(at + 10).carry(server, client));
    expect_message(client, MsgType::Call, back);
    client
        .send(ms(at + 20), MsgType::Return, back, 0, b"yes")
        .unwrap();
    crossed.extend(wire.at(at + 20).carry(client, server));
    expect_message(server, MsgType::Return, back);
    server
        .send(ms(at + 30), MsgType::Return, cn, 0, reply)
        .unwrap();
    crossed.extend(wire.at(at + 30).carry(server, client));
    expect_message(client, MsgType::Return, cn);
    crossed
}

/// The callee of a call-back owes the caller an ack for the call-back's
/// return, and it is about to send that caller a return of its own: the
/// ack rides in that return's trailer, and the tick that would have
/// carried it alone has nothing left to send.
#[test]
fn callback_return_carries_the_owed_ack_and_no_tick_ack_follows() {
    let (mut client, mut server) = pair();
    let crossed = callback(0, 1, 7, b"ok", &mut client, &mut server);
    assert_eq!(crossed, ["C1 1/1", "C7 1/1", "R7 1/1", "R1 1/1 +ack R7 1"]);
    assert_eq!(server.stats().acks_piggybacked, 1);
    assert_eq!(server.stats().acks_sent, 0, "no segment of its own");
    // The trailer retired the client's return sender: nothing of the
    // client's is timed any more.
    assert!(client.is_idle());
    assert_eq!(client.poll_timer(), None);

    // The server's tick for call 7 (10 + 300 ms) finds nothing owed.
    let mut wire = Wire::new();
    server.on_timer(ms(310));
    assert!(wire.at(310).carry(&mut server, &mut client).is_empty());
    // What is left is the client's own debt for return 1, paid on its
    // call's tick — the one bare ack of the exchange.
    client.on_timer(ms(300));
    assert_eq!(wire.at(300).carry(&mut client, &mut server), ["ack R1 1"]);
    assert!(server.is_idle());
    for tick in [330, 900, 5_000] {
        server.on_timer(ms(tick));
        client.on_timer(ms(tick));
    }
    assert!(wire.settle(&mut client, &mut server).is_empty());
    assert_eq!(
        (server.stats().acks_sent, server.stats().retransmits),
        (0, 0)
    );
    assert_eq!(
        (client.stats().acks_sent, client.stats().retransmits),
        (1, 0)
    );
}

/// The trailer is an optimization over a path that is still there: its
/// carrier lost, the call-back's return is re-sent with *please ack* on
/// the client's timer and answered at once, exactly as when a tick ack
/// is lost — and nothing is delivered twice.
#[test]
fn lost_carrier_falls_back_to_please_ack() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::dropping(vec![3]);
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.at(0).carry(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server.send(ms(10), MsgType::Call, 7, 0, b"ready?").unwrap();
    wire.at(10).carry(&mut server, &mut client);
    expect_message(&mut client, MsgType::Call, 7);
    client.send(ms(20), MsgType::Return, 7, 0, b"yes").unwrap();
    wire.at(20).carry(&mut client, &mut server);
    expect_message(&mut server, MsgType::Return, 7);
    server.send(ms(30), MsgType::Return, 1, 0, b"ok").unwrap();
    assert_eq!(
        wire.at(30).carry(&mut server, &mut client),
        ["R1 1/1 +ack R7 1"],
        "lost"
    );
    assert_eq!(server.stats().acks_piggybacked, 1);

    // Every timer in turn: the client re-sends call 1 and return 7 with
    // *please ack*, the server answers both, and its own re-sent return
    // 1 — no trailer on a retransmission — is acknowledged at once.
    let mut crossed = Vec::new();
    for tick in [300, 310, 320, 330] {
        client.on_timer(ms(tick));
        server.on_timer(ms(tick));
        crossed.extend(wire.at(tick).settle(&mut client, &mut server));
    }
    assert_eq!(
        crossed,
        [
            "C1 1/1 please-ack",
            "ack C1 1",
            "R7 1/1 please-ack",
            "ack R7 1",
            "R1 1/1 please-ack",
            "ack R1 1"
        ]
    );
    expect_message(&mut client, MsgType::Return, 1);
    assert!(client.poll_event().is_none() && server.poll_event().is_none());
    assert!(client.is_idle() && server.is_idle());
}

/// The trailer never makes a segment longer than `max_segment_data`: a
/// return whose last segment is full goes without, and the owed ack is
/// paid on the tick as before; one with room carries it on its *last*
/// segment.
#[test]
fn full_last_segment_gets_no_trailer_and_the_tick_pays() {
    let grain = Config::default().max_segment_data;
    let (mut client, mut server) = pair();
    let crossed = callback(0, 1, 7, &vec![0; grain], &mut client, &mut server);
    assert_eq!(crossed, ["C1 1/1", "C7 1/1", "R7 1/1", "R1 1/1"]);
    server.on_timer(ms(310));
    let mut wire = Wire::new();
    assert_eq!(wire.at(310).carry(&mut server, &mut client), ["ack R7 1"]);
    assert_eq!(server.stats().acks_on_tick, 1);
    assert_eq!(server.stats().acks_piggybacked, 0);

    // Five bytes short of full: room, on the last of two segments.
    let (mut client, mut server) = pair();
    let reply = vec![0; grain + grain - TRAILER_LEN];
    let crossed = callback(0, 1, 7, &reply, &mut client, &mut server);
    assert_eq!(
        crossed,
        ["C1 1/1", "C7 1/1", "R7 1/1", "R1 1/2", "R1 2/2 +ack R7 1"]
    );
    server.on_timer(ms(310));
    assert!(wire.at(310).carry(&mut server, &mut client).is_empty());
}

/// Two call-backs' returns owed at once: the oldest rides the one
/// return going back, the other is paid on its call's tick.
#[test]
fn with_two_debts_one_rides_the_trailer_and_the_tick_pays_the_other() {
    let (mut client, mut server) = pair();
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.at(0).carry(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server.send(ms(10), MsgType::Call, 7, 0, b"ready?").unwrap();
    server
        .send(ms(10), MsgType::Call, 8, 0, b"steady?")
        .unwrap();
    wire.at(10).carry(&mut server, &mut client);
    for back in [7, 8] {
        expect_message(&mut client, MsgType::Call, back);
        client
            .send(ms(20), MsgType::Return, back, 0, b"yes")
            .unwrap();
    }
    wire.at(20).carry(&mut client, &mut server);
    expect_message(&mut server, MsgType::Return, 7);
    expect_message(&mut server, MsgType::Return, 8);
    server.send(ms(30), MsgType::Return, 1, 0, b"ok").unwrap();
    assert_eq!(
        wire.at(30).carry(&mut server, &mut client),
        ["R1 1/1 +ack R7 1"]
    );
    server.on_timer(ms(310));
    assert_eq!(wire.at(310).carry(&mut server, &mut client), ["ack R8 1"]);
    let s = server.stats();
    assert_eq!((s.acks_piggybacked, s.acks_on_tick, s.acks_sent), (1, 1, 1));
    client.on_timer(ms(300));
    wire.at(300).settle(&mut client, &mut server);
    assert!(client.is_idle() && server.is_idle());
}

/// The stop-and-wait discipline is untouched by the trailer: the call
/// still goes a segment per ack, and a single-segment return carries the
/// owed ack as in the eager discipline. A multi-segment return's first
/// transmission is its first segment alone, which is full: no trailer,
/// and the tick pays.
#[test]
fn parc_stop_and_wait_is_unchanged_by_the_trailer() {
    let config = Config {
        max_segment_data: 8,
        jitter_permille: 0,
        ..Config::parc()
    };
    let (mut client, mut server) = pair_with(config.clone());
    let mut wire = Wire::new();
    client
        .send(ms(0), MsgType::Call, 1, 0, b"abcdefghij")
        .unwrap();
    let mut crossed = wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server.send(ms(10), MsgType::Call, 7, 0, b"ready?").unwrap();
    crossed.extend(wire.at(10).settle(&mut server, &mut client));
    expect_message(&mut client, MsgType::Call, 7);
    client.send(ms(20), MsgType::Return, 7, 0, b"yes").unwrap();
    crossed.extend(wire.at(20).settle(&mut client, &mut server));
    expect_message(&mut server, MsgType::Return, 7);
    server.send(ms(30), MsgType::Return, 1, 0, b"ok").unwrap();
    crossed.extend(wire.at(30).settle(&mut server, &mut client));
    expect_message(&mut client, MsgType::Return, 1);
    assert_eq!(
        crossed,
        [
            "C1 1/2 please-ack",
            "ack C1 1",
            "C1 2/2",
            "C7 1/1",
            "R7 1/1",
            "R1 1/1 +ack R7 1"
        ]
    );

    let (mut client, mut server) = pair_with(config);
    let mut wire = Wire::new();
    client.send(ms(0), MsgType::Call, 1, 0, b"args").unwrap();
    wire.settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Call, 1);
    server.send(ms(10), MsgType::Call, 7, 0, b"ready?").unwrap();
    wire.at(10).settle(&mut server, &mut client);
    expect_message(&mut client, MsgType::Call, 7);
    client.send(ms(20), MsgType::Return, 7, 0, b"yes").unwrap();
    wire.at(20).settle(&mut client, &mut server);
    expect_message(&mut server, MsgType::Return, 7);
    server
        .send(ms(30), MsgType::Return, 1, 0, b"abcdefghij")
        .unwrap();
    let crossed = wire.at(30).settle(&mut server, &mut client);
    assert_eq!(crossed, ["R1 1/2 please-ack", "ack R1 1", "R1 2/2"]);
    server.on_timer(ms(310));
    assert_eq!(wire.at(310).carry(&mut server, &mut client), ["ack R7 1"]);
}
