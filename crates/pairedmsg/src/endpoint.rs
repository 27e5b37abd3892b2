//! A paired-message conversation with one peer.
//!
//! An [`Endpoint`] manages the call/return exchanges between this process
//! and a single remote process: segmentation and reassembly, explicit and
//! implicit acknowledgments (§4.2.2), the deferred-ack optimization
//! (§4.2.4), crash-detection probes while awaiting a reply (§4.2.3), and
//! suppression of replayed call numbers (§4.2.4).
//!
//! The endpoint is sans-io: feed it datagrams and timer ticks, drain
//! segments to transmit and events to deliver upward.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::receiver::MsgReceiver;
use crate::replay::ReplayLog;
use crate::segment::{MsgType, Segment, SegmentError, SegmentHeader};
use crate::sender::{MsgSender, SendError, SenderTick};
use simnet::{Payload, Time};

/// Something the endpoint wants delivered to the layer above.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// A complete message arrived.
    Message {
        /// Call or return.
        msg_type: MsgType,
        /// The exchange it belongs to.
        call_number: u32,
        /// Causal span carried by the message's segments (0 = none).
        span: u64,
        /// The reassembled message bytes (single-segment messages share
        /// the arrival datagram's allocation).
        data: Payload,
    },
    /// Retransmissions or probes went unanswered long enough to presume
    /// the peer has crashed (§4.2.3). The endpoint is dead afterwards.
    PeerDead,
}

#[derive(Debug)]
struct ProbeState {
    call_number: u32,
    next: Time,
    unanswered: u32,
}

/// Traffic counters, used by the §4.2.5 protocol-discipline ablation and
/// the chaos harness's serial-number-monotonicity oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointStats {
    /// Segments handed to the network (data, acks, and probes).
    pub segments_sent: u64,
    /// Largest number of out-of-order segments buffered by any receiver
    /// at once — the buffering cost the PARC discipline avoids (§4.2.5).
    pub max_recv_buffered: usize,
    /// Complete Call messages delivered upward.
    pub calls_delivered: u64,
    /// Complete Return messages delivered upward.
    pub returns_delivered: u64,
    /// Call messages delivered upward more than once for the same call
    /// number — must stay zero: each serial number executes at most once
    /// (§4.2.4). Checked by the chaos harness at quiesce.
    pub duplicate_call_deliveries: u64,
    /// Outgoing calls whose call number did not exceed every call number
    /// previously sent to this peer — must stay zero: senders allocate
    /// serial numbers monotonically.
    pub send_call_regressions: u64,
    /// Incoming segments ignored as replays of purged exchanges.
    pub replays_suppressed: u64,
}

/// State machine for all exchanges with one peer process.
#[derive(Debug)]
pub struct Endpoint {
    config: Config,
    senders: BTreeMap<(MsgType, u32), MsgSender>,
    receivers: BTreeMap<(MsgType, u32), MsgReceiver>,
    /// Completed incoming messages, kept for re-acknowledgment and replay
    /// suppression.
    replay: ReplayLog,
    out: VecDeque<Segment>,
    events: VecDeque<Event>,
    probe: Option<ProbeState>,
    /// Calls we sent whose returns have not yet been delivered; drives
    /// crash-detection probing.
    awaiting_reply: BTreeSet<u32>,
    /// Highest call number delivered upward as a complete Call message
    /// (monotonicity audit).
    highest_delivered_call: Option<u32>,
    /// Highest call number we ourselves have sent (monotonicity audit).
    highest_sent_call: Option<u32>,
    dead: bool,
    stats: EndpointStats,
}

impl Endpoint {
    /// Creates an endpoint with the given configuration.
    pub fn new(config: Config) -> Endpoint {
        Endpoint {
            config,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            replay: ReplayLog::new(),
            out: VecDeque::new(),
            events: VecDeque::new(),
            probe: None,
            awaiting_reply: BTreeSet::new(),
            highest_delivered_call: None,
            highest_sent_call: None,
            dead: false,
            stats: EndpointStats::default(),
        }
    }

    /// Traffic counters (§4.2.5 ablation).
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Publishes the traffic counters into a metrics registry as gauges
    /// under `prefix` (e.g. `pm.h1:70`). Consumers read the registry;
    /// the raw [`EndpointStats`] struct stays an implementation detail.
    pub fn publish_metrics(&self, reg: &obs::Registry, prefix: &str) {
        let s = self.stats;
        reg.set_gauge(&format!("{prefix}.segments_sent"), s.segments_sent);
        reg.set_gauge(
            &format!("{prefix}.max_recv_buffered"),
            s.max_recv_buffered as u64,
        );
        reg.set_gauge(&format!("{prefix}.calls_delivered"), s.calls_delivered);
        reg.set_gauge(&format!("{prefix}.returns_delivered"), s.returns_delivered);
        reg.set_gauge(
            &format!("{prefix}.duplicate_call_deliveries"),
            s.duplicate_call_deliveries,
        );
        reg.set_gauge(
            &format!("{prefix}.send_call_regressions"),
            s.send_call_regressions,
        );
        reg.set_gauge(
            &format!("{prefix}.replays_suppressed"),
            s.replays_suppressed,
        );
    }

    /// `true` once the peer has been declared dead.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// `true` when no exchange is in progress (no timers needed).
    pub fn is_idle(&self) -> bool {
        self.senders.is_empty() && self.probe.is_none()
    }

    /// Abandons an outstanding call (e.g. the member was dropped from the
    /// caller's troupe view after a crash elsewhere): stops transmitting
    /// and probing for it.
    pub fn abandon_call(&mut self, now: Time, call_number: u32) {
        self.senders.remove(&(MsgType::Call, call_number));
        self.awaiting_reply.remove(&call_number);
        if self.dead {
            // Dead endpoints must stay inert: re-arming a probe here could
            // drive a second give-up cycle for a peer already reported dead.
            return;
        }
        if self
            .probe
            .as_ref()
            .is_some_and(|p| p.call_number == call_number)
        {
            self.probe = None;
            if let Some(&cn) = self.awaiting_reply.last() {
                self.arm_probe(now, cn);
            }
        }
    }

    /// Starts transmitting a message attributed to causal span `span`
    /// (0 = none). For a call the endpoint begins crash-detection probing
    /// once the call is fully acknowledged; sending a return cancels the
    /// deferred ack it implicitly carries.
    pub fn send(
        &mut self,
        now: Time,
        msg_type: MsgType,
        call_number: u32,
        span: u64,
        data: impl Into<Payload>,
    ) -> Result<(), SendError> {
        if self.dead {
            // A dead endpoint transmits nothing; the caller should have
            // replaced it after the PeerDead event.
            return Ok(());
        }
        let mut sender = MsgSender::new(now, &self.config, msg_type, call_number, span, data)?;
        self.out.extend(sender.initial_segments());
        self.track(sender);
        Ok(())
    }

    /// Adopts an outgoing call whose segments a troupe-wide multicast
    /// has just carried (§4.3.3), the last of them handed to the network
    /// at `now`: full sender bookkeeping — ack tracking, the unicast
    /// retransmission schedule toward a straggling peer, crash-detection
    /// probing, the monotonicity audit — without queuing any initial
    /// segments of its own. The reliability story is then identical to
    /// [`Endpoint::send`]: only the first copy of each segment travels by
    /// multicast, and the first retransmission is due one interval after
    /// the wire had the message, not after it was queued.
    pub fn adopt_call(
        &mut self,
        now: Time,
        call_number: u32,
        span: u64,
        data: impl Into<Payload>,
    ) -> Result<(), SendError> {
        if self.dead {
            return Ok(());
        }
        let mut sender = MsgSender::new(now, &self.config, MsgType::Call, call_number, span, data)?;
        sender.mark_transmitted();
        self.track(sender);
        Ok(())
    }

    /// Takes over a message whose first transmission is accounted for.
    fn track(&mut self, sender: MsgSender) {
        let (msg_type, call_number) = (sender.msg_type(), sender.call_number());
        if msg_type == MsgType::Call {
            self.awaiting_reply.insert(call_number);
            if self.highest_sent_call.is_some_and(|hi| call_number <= hi) {
                self.stats.send_call_regressions += 1;
            }
            self.highest_sent_call = Some(
                self.highest_sent_call
                    .map_or(call_number, |hi| hi.max(call_number)),
            );
        }
        self.senders.insert((msg_type, call_number), sender);
    }

    /// Feeds an incoming datagram. Decoding is zero-copy: the resulting
    /// segment's data is a window into `bytes`.
    pub fn on_datagram(&mut self, now: Time, bytes: &Payload) -> Result<(), SegmentError> {
        let seg = Segment::decode(bytes)?;
        self.on_segment(now, seg);
        Ok(())
    }

    /// Feeds an already-decoded segment.
    pub fn on_segment(&mut self, now: Time, seg: Segment) {
        if self.dead {
            return;
        }
        self.replay.purge(now, self.config.replay_ttl);
        // Any arrival is a life sign: reset the probe clock (§4.2.3).
        if let Some(p) = &mut self.probe {
            p.unanswered = 0;
            p.next = now + self.config.probe_interval;
        }
        let h = seg.header;
        if h.probe {
            if !h.ack {
                // A probe request: answer it.
                self.out.push_back(Segment::probe_reply(h.call_number));
            }
            // A probe reply needs no action beyond the life sign above.
            return;
        }
        if h.ack {
            self.on_explicit_ack(h.msg_type, h.call_number, h.number, now);
            return;
        }
        self.on_data_segment(now, seg);
    }

    fn on_explicit_ack(&mut self, msg_type: MsgType, call_number: u32, number: u8, now: Time) {
        let key = (msg_type, call_number);
        let complete = match self.senders.get_mut(&key) {
            Some(s) => {
                self.out.extend(s.on_ack(now, number));
                s.complete()
            }
            None => return,
        };
        if complete {
            self.senders.remove(&key);
            if msg_type == MsgType::Call {
                self.arm_probe(now, call_number);
            }
        }
    }

    fn on_data_segment(&mut self, now: Time, seg: Segment) {
        let h = seg.header;
        let key = (h.msg_type, h.call_number);

        // Implicit acknowledgments (§4.2.2): a return segment acknowledges
        // the call with the same call number; a call segment acknowledges
        // any return with an earlier call number.
        match h.msg_type {
            MsgType::Return => {
                if self
                    .senders
                    .remove(&(MsgType::Call, h.call_number))
                    .is_some()
                {
                    // Our call is implicitly acknowledged; probing (if it
                    // had started) continues until the return completes.
                    self.arm_probe(now, h.call_number);
                }
            }
            MsgType::Call => {
                let stale = (MsgType::Return, 0)..(MsgType::Return, h.call_number);
                while let Some((&k, _)) = self.senders.range(stale.clone()).next() {
                    self.senders.remove(&k);
                }
            }
        }

        // Duplicate of an already-delivered message: re-acknowledge if
        // asked ("subsequent please ack segments should be acknowledged
        // promptly", §4.2.4).
        if let Some(total) = self.replay.total_of(key) {
            if h.please_ack {
                self.out
                    .push_back(Segment::ack(h.msg_type, h.call_number, total, total));
            }
            return;
        }
        // Replay of a purged exchange: ignore entirely. The watermark only
        // covers call numbers whose completed records aged out, so a slow
        // concurrent call that finishes after a higher-numbered one still
        // gets through (suppressing on the highest *delivered* number
        // starved exactly that case).
        if h.msg_type == MsgType::Call && self.replay.suppresses(h.call_number) {
            self.stats.replays_suppressed += 1;
            return;
        }

        // Fast path: the only segment of a message nobody is assembling
        // yet *is* the message — deliver its data window as it stands. The
        // general path below does exactly this with a one-slot receiver
        // it creates and discards on the spot.
        if h.total == 1 && h.number == 1 && !self.receivers.contains_key(&key) {
            self.complete_message(now, seg.header, 1, seg.data, h.please_ack);
            return;
        }

        let receiver = self
            .receivers
            .entry(key)
            .or_insert_with(|| MsgReceiver::new(&seg));
        let actions = receiver.on_segment(&seg);
        self.stats.max_recv_buffered = self
            .stats
            .max_recv_buffered
            .max(receiver.buffered_out_of_order());
        if actions.completed {
            let recv = self.receivers.remove(&key).expect("receiver exists");
            let total = recv.total();
            self.complete_message(now, h, total, recv.assemble(), actions.send_ack);
        } else if actions.send_ack {
            let ack = receiver.make_ack();
            self.out.push_back(ack);
        }
    }

    /// A whole message (its last missing segment bore header `h`) has
    /// arrived: remember it, acknowledge it if due, deliver it upward.
    fn complete_message(
        &mut self,
        now: Time,
        h: SegmentHeader,
        total: u8,
        data: Payload,
        mut want_ack: bool,
    ) {
        self.replay.record((h.msg_type, h.call_number), total, now);
        match h.msg_type {
            MsgType::Call => {
                self.highest_delivered_call = Some(
                    self.highest_delivered_call
                        .map_or(h.call_number, |hi| hi.max(h.call_number)),
                );
                self.stats.calls_delivered += 1;
                if !self.replay.note_call_delivered(h.call_number) {
                    self.stats.duplicate_call_deliveries += 1;
                }
                // Deferred ack: hold the ack back in the hope the
                // return message will serve instead (§4.2.4).
                if self.config.deferred_ack {
                    want_ack = false;
                }
            }
            MsgType::Return => {
                self.stats.returns_delivered += 1;
                // Exchange over: stop probing for it, but keep watch
                // over any other call still awaiting its return.
                self.awaiting_reply.remove(&h.call_number);
                if self
                    .probe
                    .as_ref()
                    .is_some_and(|p| p.call_number == h.call_number)
                {
                    self.probe = None;
                    if let Some(&cn) = self.awaiting_reply.last() {
                        self.arm_probe(now, cn);
                    }
                }
            }
        }
        if want_ack {
            self.out
                .push_back(Segment::ack(h.msg_type, h.call_number, total, total));
        }
        self.events.push_back(Event::Message {
            msg_type: h.msg_type,
            call_number: h.call_number,
            span: h.span,
            data,
        });
    }

    fn arm_probe(&mut self, now: Time, call_number: u32) {
        // Only probe for the newest outstanding call.
        let newer = self
            .probe
            .as_ref()
            .is_some_and(|p| p.call_number > call_number);
        if newer {
            return;
        }
        // Don't re-arm for a call whose return already completed.
        if self
            .replay
            .total_of((MsgType::Return, call_number))
            .is_some()
        {
            return;
        }
        self.probe = Some(ProbeState {
            call_number,
            next: now + self.config.probe_interval,
            unanswered: 0,
        });
    }

    /// When the endpoint next needs a timer tick.
    pub fn poll_timer(&self) -> Option<Time> {
        if self.dead {
            return None;
        }
        let sender_min = self.senders.values().filter_map(|s| s.deadline()).min();
        let probe_min = self.probe.as_ref().map(|p| p.next);
        match (sender_min, probe_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances retransmission and probe clocks to `now`.
    pub fn on_timer(&mut self, now: Time) {
        if self.dead {
            return;
        }
        for sender in self.senders.values_mut() {
            match sender.on_tick(now) {
                SenderTick::Idle => {}
                SenderTick::Retransmit(numbers) => {
                    self.out.extend(numbers.map(|n| sender.segment(n, true)));
                }
                SenderTick::GiveUp => {
                    self.declare_dead();
                    return;
                }
            }
        }
        let probe_action = match &mut self.probe {
            Some(p) if now >= p.next => {
                if p.unanswered >= self.config.max_unanswered_probes {
                    None // Dead.
                } else {
                    p.unanswered += 1;
                    p.next = now + self.config.probe_interval;
                    Some(Segment::probe(p.call_number))
                }
            }
            _ => return,
        };
        match probe_action {
            Some(seg) => self.out.push_back(seg),
            None => self.declare_dead(),
        }
    }

    fn declare_dead(&mut self) {
        if self.dead {
            // Idempotent: one PeerDead per endpoint incarnation, even if a
            // queued retransmission and the probe machinery both give up.
            return;
        }
        self.dead = true;
        self.senders.clear();
        self.receivers.clear();
        self.probe = None;
        self.awaiting_reply.clear();
        self.out.clear();
        self.events.push_back(Event::PeerDead);
    }

    /// Drains the next segment to transmit, already encoded.
    pub fn poll_transmit(&mut self) -> Option<Payload> {
        self.poll_transmit_segment().map(|s| s.encode())
    }

    /// Drains the next segment to transmit, in decoded form (for tests).
    pub fn poll_transmit_segment(&mut self) -> Option<Segment> {
        let seg = self.out.pop_front();
        if seg.is_some() {
            self.stats.segments_sent += 1;
        }
        seg
    }

    /// Drains the next upward event.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Duration;

    /// Delivers everything `tx` has queued to `rx`.
    fn carry(now: Time, tx: &mut Endpoint, rx: &mut Endpoint) {
        while let Some(bytes) = tx.poll_transmit() {
            rx.on_datagram(now, &bytes).unwrap();
        }
    }

    fn small_segments() -> Config {
        Config {
            max_segment_data: 4,
            ..Config::default()
        }
    }

    /// The receiving endpoint cannot tell a multicast copy from a unicast
    /// one: an adopted call completes through the normal event path when
    /// the (multicast) segments arrive at the peer, and the return
    /// message implicitly acknowledges the adopted sender.
    #[test]
    fn adopted_call_round_trips_through_endpoints() {
        let cfg = small_segments();
        let now = Time::ZERO;
        let mut client = Endpoint::new(cfg.clone());
        let mut server = Endpoint::new(cfg.clone());

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
        let ev = server.poll_event().expect("call delivered");
        assert!(matches!(
            ev,
            Event::Message {
                msg_type: MsgType::Call,
                call_number: 1,
                ..
            }
        ));

        // The return implicitly acknowledges the adopted sender.
        server.send(now, MsgType::Return, 1, 0, b"ok").unwrap();
        carry(now, &mut server, &mut client);
        let ev = client.poll_event().expect("return delivered");
        assert!(matches!(
            ev,
            Event::Message {
                msg_type: MsgType::Return,
                call_number: 1,
                ..
            }
        ));
        assert!(client.senders.is_empty());
        assert_eq!(client.stats().send_call_regressions, 0);
    }

    /// A member that missed the multicast is served by the ordinary
    /// unicast retransmission schedule (straggler fallback), whose clock
    /// starts when the caller says the blast left.
    #[test]
    fn straggler_served_by_unicast_retransmission() {
        let cfg = small_segments();
        let blasted = Time::ZERO + Duration::from_millis(113);
        let mut client = Endpoint::new(cfg.clone());
        client.adopt_call(blasted, 1, 0, b"abcdefghij").unwrap();
        let due = client.poll_timer().expect("retransmission armed");
        assert_eq!(due, blasted + cfg.retransmit_interval);
        client.on_timer(due);
        let seg = client.poll_transmit_segment().expect("retransmit queued");
        assert!(seg.is_data());
        assert_eq!(seg.header.number, 1);
        assert!(seg.header.please_ack, "retransmissions demand an ack");
    }

    /// Every piece of per-peer state is bounded by the replay TTL, not by
    /// the number of exchanges ever made: after 10 000 sequential calls
    /// whose clock runs far past `replay_ttl`, the completed records, the
    /// purge queue and the exactly-once audit set each hold one TTL
    /// window's worth — and the audit still fires above the watermark.
    #[test]
    fn per_peer_state_is_bounded_by_the_replay_ttl() {
        const STEP: Duration = Duration::from_millis(50);
        let config = Config::default();
        let window = (config.replay_ttl.as_micros() / STEP.as_micros()) as usize;
        let mut client = Endpoint::new(config.clone());
        let mut server = Endpoint::new(config);
        let mut now = Time::ZERO;
        for cn in 1..=10_000u32 {
            client.send(now, MsgType::Call, cn, 0, b"ping").unwrap();
            carry(now, &mut client, &mut server);
            assert!(matches!(
                server.poll_event(),
                Some(Event::Message { call_number, .. }) if call_number == cn
            ));
            server.send(now, MsgType::Return, cn, 0, b"pong").unwrap();
            carry(now, &mut server, &mut client);
            assert!(matches!(client.poll_event(), Some(Event::Message { .. })));
            now += STEP;
        }
        for (name, e) in [("client", &client), ("server", &server)] {
            let r = &e.replay;
            assert!(
                r.len() <= window + 1,
                "{name} remembers {} exchanges, window {window}",
                r.len()
            );
            assert!(r.order_len() <= window + 1, "{name} purge queue");
            assert!(r.audit_len() <= window + 1, "{name} audit set");
            // (The server's last return waits for a later call to
            // acknowledge it implicitly.)
            assert!(e.senders.len() <= 1 && e.receivers.is_empty());
        }
        assert_eq!(server.replay.watermark(), Some(10_000 - window as u32));
        assert_eq!(server.stats().duplicate_call_deliveries, 0);

        // A forged duplicate *below* the watermark is suppressed before
        // delivery, so the audit has nothing to say about it...
        let old = Segment::data(MsgType::Call, 17, 0, 1, 1, false, b"ping".to_vec());
        server.on_segment(now, old);
        assert_eq!(server.stats().replays_suppressed, 1);
        assert!(server.poll_event().is_none());

        // ...and one *above* it that somehow gets delivered twice (its
        // completed record lost — which only a bug could cause) still
        // trips the audit.
        let live = 10_000;
        assert!(server.replay.forget_record((MsgType::Call, live)));
        let dup = Segment::data(MsgType::Call, live, 0, 1, 1, false, b"ping".to_vec());
        server.on_segment(now, dup);
        assert!(server.poll_event().is_some(), "re-delivered upward");
        assert_eq!(server.stats().duplicate_call_deliveries, 1);
    }
}
