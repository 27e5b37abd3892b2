//! A paired-message conversation with one peer.
//!
//! An [`Endpoint`] manages the call/return exchanges between this process
//! and a single remote process: segmentation and reassembly, explicit and
//! implicit acknowledgments (§4.2.2), the deferred-ack optimization
//! (§4.2.4), crash-detection probes while awaiting a reply (§4.2.3), and
//! suppression of replayed call numbers (§4.2.4).
//!
//! The endpoint is sans-io: feed it datagrams and timer ticks, drain
//! datagrams to transmit and events to deliver upward.
//!
//! # How a return gets acknowledged
//!
//! A return is the last message of its exchange, so nothing the protocol
//! must send anyway follows it. The caller's next call acknowledges it
//! for nothing (§4.2.2: a call segment retires every return with an
//! earlier call number); otherwise only an explicit ack, sent when asked,
//! does. What differs between returns is whose clock re-sends one that
//! was lost:
//!
//! - **A one-segment return to a call this endpoint never acknowledged
//!   explicitly** is sent once and *held*: no timer, no *please ack*
//!   ([`MsgSender::hold`]). Its caller's call timer is its
//!   retransmission timer. When a *please ack* duplicate of the call
//!   arrives, the held return's segment goes back instead of an ack of
//!   the call, without *please ack*, counted in
//!   [`Counters::retransmits`]. The return is held until the
//!   caller's next call or an explicit ack retires it, or until its
//!   call's replay record expires (`replay_ttl`), lazily, in the purge
//!   every arrival runs: no timer of its own.
//! - **Any other return** keeps its own retransmission timer: one of two
//!   or more segments, or one to a call already acknowledged explicitly
//!   (a slow call the caller re-sent while it ran). The callee re-sends
//!   its first unacknowledged segment with *please ack*, and the caller
//!   answers at once (§4.2.2, §4.2.4).
//!
//! Whether a call was acknowledged explicitly is a bit on its replay
//! record. The caller owes nothing: it never acknowledges a return
//! unasked.
//!
//! **Why holding is safe.** Only an acknowledgment of a call retires the
//! caller's call sender: an explicit ack of all of it, or a segment of
//! the return (§4.2.2). The callee sent no explicit ack, so the caller's
//! call timer runs until the return arrives, and a one-segment return
//! arrives whole or not at all. A lost return therefore brings the call
//! back with *please ack* within one backed-off interval, and the callee
//! answers it with the return. If every copy is lost for the crash
//! horizon, the caller raises [`Event::PeerDead`]: the outcome the
//! callee's own timer reached, by the same horizon. A return of two or
//! more segments is different: its first segment stops the caller's
//! timer, so it keeps a timer of its own. What holding gives up is the
//! callee noticing a dead *caller* through a one-segment return that
//! nobody acknowledges.
//!
//! The argument needs the call's record, and with it the held return, to
//! outlive the caller's re-sends: the record is made when the call
//! arrives, the caller's schedule ends a crash horizon after its last
//! progress at most, and a re-send that finds the record gone is
//! suppressed as a replay. So `replay_ttl` must be at least
//! [`Config::crash_horizon`] (the horizon's final wait covers the
//! jitter), 60 s against 4.5 s by default, and [`Endpoint::new`] refuses
//! a configuration that breaks this.

use std::collections::VecDeque;
use std::fmt;

use crate::config::{Config, MAX_UNANSWERED_PROBES, PROBE_INTERVAL};
use crate::frame::Framed;
use crate::receiver::MsgReceiver;
use crate::replay::ReplayLog;
use crate::segment::{MsgType, Segment, SegmentError, SegmentHeader};
use crate::sender::{MsgSender, SendError, SenderTick};
use obs::{Counter, Gauge, Registry};
use simnet::{Payload, Time};
use wire::VecMap;

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
    /// the peer has crashed (§4.2.3), or its host said that nothing holds
    /// its port ([`Endpoint::on_unreachable`]). The endpoint is dead
    /// afterwards.
    PeerDead,
}

#[derive(Debug)]
struct ProbeState {
    call_number: u32,
    next: Time,
    unanswered: u32,
}

/// Where an endpoint counts its traffic, as it happens: registry handles,
/// one set shared by every endpoint of a process (`rpc.<addr>.*`), so its
/// totals outlive the connections that counted them. The default set is
/// held by no registry and counts nothing.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Segments handed to the network (data, acks, and probes).
    pub segments_sent: Counter,
    /// Data segments sent again: by a retransmission timer, *please ack*
    /// set, or a held return answering its call's *please ack* duplicate.
    pub retransmits: Counter,
    /// Explicit acknowledgments handed to the network.
    pub acks_sent: Counter,
    /// Most out-of-order segments one receiver buffered at once — the
    /// buffering cost the PARC discipline avoids (§4.2.5).
    pub max_recv_buffered: Gauge,
    /// Complete Call messages delivered upward.
    pub calls_delivered: Counter,
    /// Complete Return messages delivered upward.
    pub returns_delivered: Counter,
    /// Calls delivered upward twice at one call number: must stay zero
    /// (§4.2.4); the chaos harness checks it at quiesce.
    pub duplicate_call_deliveries: Counter,
    /// Calls sent at a number not above every number sent to the peer
    /// before: must stay zero.
    pub send_call_regressions: Counter,
    /// Incoming segments ignored as replays of purged exchanges.
    pub replays_suppressed: Counter,
}

impl Counters {
    /// Registers (or finds) one metric per field, `{prefix}.{field name}`.
    pub fn register(reg: &Registry, prefix: impl fmt::Display) -> Counters {
        let counter = |name: &str| reg.counter(format_args!("{prefix}.{name}"));
        Counters {
            segments_sent: counter("segments_sent"),
            retransmits: counter("retransmits"),
            acks_sent: counter("acks_sent"),
            max_recv_buffered: reg.gauge(format_args!("{prefix}.max_recv_buffered")),
            calls_delivered: counter("calls_delivered"),
            returns_delivered: counter("returns_delivered"),
            duplicate_call_deliveries: counter("duplicate_call_deliveries"),
            send_call_regressions: counter("send_call_regressions"),
            replays_suppressed: counter("replays_suppressed"),
        }
    }
}

/// State machine for all exchanges with one peer process.
#[derive(Debug)]
pub struct Endpoint {
    config: Config,
    /// Outgoing messages not yet acknowledged, held returns among them:
    /// a few at a time, kept in key order (an ack retires one, a call
    /// the returns below its number).
    senders: VecMap<(MsgType, u32), MsgSender>,
    /// Incoming messages of two or more segments being assembled.
    receivers: VecMap<(MsgType, u32), MsgReceiver>,
    /// Completed incoming messages, kept for re-acknowledgment, replay
    /// suppression, and the lifetime of held returns.
    replay: ReplayLog,
    /// Encoded datagrams to transmit.
    out: VecDeque<Payload>,
    events: VecDeque<Event>,
    probe: Option<ProbeState>,
    /// Calls we sent whose returns have not yet been delivered; drives
    /// crash-detection probing.
    awaiting_return: Vec<u32>,
    /// Highest call number we ourselves have sent (monotonicity audit).
    highest_sent_call: Option<u32>,
    dead: bool,
    counters: Counters,
}

impl Endpoint {
    /// Creates an endpoint with the given configuration that counts its
    /// traffic nowhere ([`Endpoint::counting`] counts it).
    ///
    /// # Panics
    ///
    /// Panics if `config.replay_ttl` is shorter than
    /// [`Config::crash_horizon`] ([`Config::validate`]).
    pub fn new(config: Config) -> Endpoint {
        Endpoint::counting(config, Counters::default())
    }

    /// Creates an endpoint that counts its traffic into `counters`, as
    /// [`Endpoint::new`] otherwise.
    pub fn counting(config: Config, counters: Counters) -> Endpoint {
        config.validate();
        Endpoint {
            config,
            senders: VecMap::new(),
            receivers: VecMap::new(),
            replay: ReplayLog::new(),
            out: VecDeque::new(),
            events: VecDeque::new(),
            probe: None,
            awaiting_return: Vec::new(),
            highest_sent_call: None,
            dead: false,
            counters,
        }
    }

    /// Completed incoming messages remembered (for re-acknowledgment,
    /// replay suppression and held returns), expired ones included until
    /// the next arrival purges them.
    pub fn replay_records(&self) -> usize {
        self.replay.len()
    }

    /// `true` once the peer has been declared dead.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The newest call whose return has not yet been delivered.
    fn newest_awaited(&self) -> Option<u32> {
        self.awaiting_return.iter().copied().max()
    }

    /// Starts transmitting a message attributed to causal span `span`
    /// (0 = none): frames it ([`Config::frame`], its one copy), then sends
    /// that as [`Endpoint::send_shared`] does.
    pub fn send(
        &mut self,
        now: Time,
        msg_type: MsgType,
        call_number: u32,
        span: u64,
        data: impl Into<Payload>,
    ) -> Result<(), SendError> {
        let mut framed = self.config.frame(&data.into());
        self.send_shared(now, msg_type, call_number, span, &mut framed)
    }

    /// Starts transmitting a framed message, which other peers may be sent
    /// as well: [`Endpoint::adopt`] it, then queue its initial segments.
    /// `msg` is left a handle on it for the next peer. Handed over while
    /// the caller holds it alone, its initial headers are written into
    /// its rooms and every first transmission is a window of it; a peer
    /// sent it later at the same call number finds them there and shares
    /// those datagrams; one at another call number copies them
    /// ([`MsgSender`]). A message too long to send is left as it was.
    pub fn send_shared(
        &mut self,
        now: Time,
        msg_type: MsgType,
        call_number: u32,
        span: u64,
        msg: &mut Framed,
    ) -> Result<(), SendError> {
        if self.dead {
            return Ok(());
        }
        msg.fits()?;
        let mut sender = self.sender(now, msg_type, call_number, span, std::mem::take(msg))?;
        *msg = sender.framed().clone();
        self.out.extend(sender.initial_datagrams());
        self.track(sender);
        Ok(())
    }

    /// Adopts an outgoing message whose segments a troupe-wide multicast
    /// has just carried (§4.3.3), the last of them handed to the network
    /// at `now`: full sender bookkeeping without queuing any initial
    /// segments of its own. For a call that is ack tracking, the unicast
    /// retransmission schedule toward a straggling peer, crash-detection
    /// probing once the call is fully acknowledged, and the monotonicity
    /// audit. A return follows the same rule as one sent by
    /// [`Endpoint::send`]: one segment to a call never acknowledged
    /// explicitly is held off the clock and re-sent, by unicast, when its
    /// call's *please ack* duplicate arrives; any other return keeps its
    /// timer (module docs). Only the first copy of each segment travels
    /// by multicast, and the first retransmission is due one interval
    /// after the wire had the message, not after it was queued.
    pub fn adopt(
        &mut self,
        now: Time,
        msg_type: MsgType,
        call_number: u32,
        span: u64,
        data: Framed,
    ) -> Result<(), SendError> {
        if !self.dead {
            let mut sender = self.sender(now, msg_type, call_number, span, data)?;
            sender.on_wire(now);
            self.track(sender);
        }
        Ok(())
    }

    /// The sender of a message handed to the network whole, held if its
    /// caller re-asks for it (a one-segment return to a call never
    /// acknowledged explicitly, module docs). Never asked of a dead
    /// endpoint, which transmits nothing: the caller should have replaced
    /// it after the `PeerDead` event.
    fn sender(
        &self,
        now: Time,
        msg_type: MsgType,
        call_number: u32,
        span: u64,
        data: Framed,
    ) -> Result<MsgSender, SendError> {
        let mut sender = MsgSender::new(now, &self.config, msg_type, call_number, span, data)?;
        sender.mark_transmitted();
        if msg_type == MsgType::Return
            && sender.total() == 1
            && self.replay.acked((MsgType::Call, call_number)) == Some(false)
        {
            // Its caller's call timer is its retransmission timer.
            sender.hold();
        }
        Ok(sender)
    }

    /// Takes over a message whose first transmission is accounted for.
    fn track(&mut self, sender: MsgSender) {
        let (msg_type, call_number) = (sender.msg_type(), sender.call_number());
        if msg_type == MsgType::Call {
            if !self.awaiting_return.contains(&call_number) {
                self.awaiting_return.push(call_number);
            }
            if self.highest_sent_call.is_some_and(|hi| call_number <= hi) {
                self.counters.send_call_regressions.inc();
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

    /// The peer's host answered one of this endpoint's datagrams with
    /// port-unreachable: no process holds the peer's port, so the peer is
    /// dead now, not a crash horizon from now (§4.2.3).
    pub fn on_unreachable(&mut self) {
        self.declare_dead();
    }

    /// Feeds an already-decoded segment.
    pub fn on_segment(&mut self, now: Time, seg: Segment) {
        if self.dead {
            return;
        }
        let senders = &mut self.senders;
        self.replay.purge(now, self.config.replay_ttl, |cn| {
            // A held return lives as long as its call's record.
            let key = (MsgType::Return, cn);
            if senders.get(&key).is_some_and(MsgSender::held) {
                senders.remove(&key);
            }
        });
        // Any arrival is a life sign: reset the probe clock (§4.2.3).
        if let Some(p) = &mut self.probe {
            p.unanswered = 0;
            p.next = now + PROBE_INTERVAL;
        }
        let h = seg.header;
        if h.probe {
            if !h.ack {
                // A probe request: answer it.
                self.out
                    .push_back(Segment::probe_reply(h.call_number).encode());
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
                self.senders.retain(|k, _| !stale.contains(k));
            }
        }

        // Duplicate of an already-delivered message: answer it if asked
        // ("subsequent please ack segments should be acknowledged
        // promptly", §4.2.4).
        if let Some(total) = self.replay.total_of(key) {
            if h.please_ack {
                self.answer_please_ack(h, total);
            }
            return;
        }
        // Replay of a purged exchange: ignore entirely. The watermark only
        // covers call numbers whose completed records aged out, so a slow
        // concurrent call that finishes after a higher-numbered one still
        // gets through (suppressing on the highest *delivered* number
        // starved exactly that case).
        if h.msg_type == MsgType::Call && self.replay.suppresses(h.call_number) {
            self.counters.replays_suppressed.inc();
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
            .get_or_insert_with(key, || MsgReceiver::new(&seg));
        let actions = receiver.on_segment(&seg);
        let most = &self.counters.max_recv_buffered;
        most.set(most.get().max(receiver.buffered_out_of_order() as u64));
        if actions.completed {
            let recv = self.receivers.remove(&key).expect("receiver exists");
            let total = recv.total();
            self.complete_message(now, h, total, recv.assemble(), actions.send_ack);
        } else if actions.send_ack {
            self.out.push_back(receiver.make_ack().encode());
        }
    }

    /// A *please ack* duplicate of a message delivered in full, `total`
    /// segments: a call whose return is held gets the return again (module
    /// docs); anything else gets an ack of the whole message, which for a
    /// call is noted on its record.
    fn answer_please_ack(&mut self, h: SegmentHeader, total: u8) {
        if h.msg_type == MsgType::Call {
            let held = self.senders.get_mut(&(MsgType::Return, h.call_number));
            if let Some(ret) = held.filter(|s| s.held()) {
                self.out.push_back(ret.datagram(1, false));
                self.counters.retransmits.inc();
                return;
            }
            self.replay.note_acked((MsgType::Call, h.call_number));
        }
        let ack = Segment::ack(h.msg_type, h.call_number, total, total);
        self.out.push_back(ack.encode());
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
                self.counters.calls_delivered.inc();
                if !self.replay.note_call_delivered(h.call_number) {
                    self.counters.duplicate_call_deliveries.inc();
                }
                // Deferred ack: hold the ack back in the hope the
                // return message will serve instead (§4.2.4).
                want_ack = false;
            }
            MsgType::Return => {
                self.counters.returns_delivered.inc();
                self.awaiting_return.retain(|&cn| cn != h.call_number);
                // Exchange over: stop probing for it, but keep watch
                // over any other call still awaiting its return.
                if self
                    .probe
                    .as_ref()
                    .is_some_and(|p| p.call_number == h.call_number)
                {
                    self.probe = None;
                    if let Some(cn) = self.newest_awaited() {
                        self.arm_probe(now, cn);
                    }
                }
            }
        }
        if want_ack {
            let ack = Segment::ack(h.msg_type, h.call_number, total, total);
            self.out.push_back(ack.encode());
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
            next: now + PROBE_INTERVAL,
            unanswered: 0,
        });
    }

    /// When the endpoint next needs a timer tick. A held return never
    /// asks for one.
    pub fn poll_timer(&self) -> Option<Time> {
        if self.dead {
            return None;
        }
        let senders = self.senders.values().filter_map(MsgSender::deadline);
        senders.chain(self.probe.as_ref().map(|p| p.next)).min()
    }

    /// Advances retransmission and probe clocks to `now`.
    pub fn on_timer(&mut self, now: Time) {
        if self.dead {
            return;
        }
        let queued = self.out.len();
        for sender in self.senders.values_mut() {
            match sender.on_tick(now) {
                SenderTick::Idle => {}
                SenderTick::Retransmit(n) => self.out.push_back(sender.datagram(n, true)),
                SenderTick::GiveUp => {
                    self.declare_dead();
                    return;
                }
            }
        }
        self.counters
            .retransmits
            .add((self.out.len() - queued) as u64);
        match &mut self.probe {
            Some(p) if now >= p.next => {
                if p.unanswered >= MAX_UNANSWERED_PROBES {
                    self.declare_dead();
                    return;
                }
                p.unanswered += 1;
                p.next = now + PROBE_INTERVAL;
                self.out.push_back(Segment::probe(p.call_number).encode());
            }
            _ => {}
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
        self.awaiting_return.clear();
        self.out.clear();
        self.events.push_back(Event::PeerDead);
    }

    /// Drains the next datagram to transmit, its message's clock left at
    /// its queueing ([`Endpoint::transmit`] starts it at the wire).
    pub fn poll_transmit(&mut self) -> Option<Payload> {
        self.pop_transmit().map(|(datagram, _)| datagram)
    }

    /// Drains the next datagram to transmit, handed to the network at
    /// `now`: a message's first starts its clock ([`MsgSender::on_wire`]).
    pub fn transmit(&mut self, now: Time) -> Option<Payload> {
        let (datagram, h) = self.pop_transmit()?;
        let sender = self.senders.get_mut(&(h.msg_type, h.call_number));
        if let Some(sender) = sender.filter(|_| !h.ack && !h.probe) {
            sender.on_wire(now);
        }
        Some(datagram)
    }

    /// Drains and counts the next datagram to transmit, with its header.
    fn pop_transmit(&mut self) -> Option<(Payload, SegmentHeader)> {
        let datagram = self.out.pop_front()?;
        let h = SegmentHeader::decode(&datagram).expect("the endpoint encodes whole segments");
        self.counters.segments_sent.inc();
        if h.ack && !h.probe {
            self.counters.acks_sent.inc();
        }
        Some((datagram, h))
    }

    /// Drains the next datagram to transmit, decoded (for tests): its data
    /// is a window of the datagram.
    pub fn poll_transmit_segment(&mut self) -> Option<Segment> {
        let datagram = self.poll_transmit()?;
        Some(Segment::decode(&datagram).expect("the endpoint encodes whole segments"))
    }

    /// Drains the next upward event.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    //! Only what needs the endpoint's private state; the §4.2 rules are
    //! checked over two endpoints in `tests/` (`spec`).

    use super::*;
    use simnet::Duration;

    /// One single-segment exchange, hand-carried at `now`: call `cn` over,
    /// delivered, answered, the return back and delivered.
    fn exchange(now: Time, cn: u32, client: &mut Endpoint, server: &mut Endpoint) {
        client.send(now, MsgType::Call, cn, 0, b"ping").unwrap();
        server.on_segment(now, client.poll_transmit_segment().expect("the call"));
        assert!(matches!(
            server.poll_event(),
            Some(Event::Message { call_number, .. }) if call_number == cn
        ));
        server.send(now, MsgType::Return, cn, 0, b"pong").unwrap();
        client.on_segment(now, server.poll_transmit_segment().expect("the return"));
        assert!(matches!(client.poll_event(), Some(Event::Message { .. })));
    }

    /// Runs `calls` sequential exchanges `step` apart; returns the client,
    /// the server (counting into `reg`) and the clock after the last.
    fn sequential(calls: u32, step: Duration, reg: &Registry) -> (Endpoint, Endpoint, Time) {
        let config = Config::default();
        let mut client = Endpoint::new(config.clone());
        let mut server = Endpoint::counting(config, Counters::register(reg, "server"));
        let mut now = Time::ZERO;
        for cn in 1..=calls {
            exchange(now, cn, &mut client, &mut server);
            now += step;
        }
        (client, server, now)
    }

    /// Every piece of per-peer state is bounded by the replay TTL, not by
    /// the number of exchanges ever made: after sequential calls whose
    /// clock runs far past `replay_ttl`, the completed records and the
    /// exactly-once audit set each hold one TTL window's worth, in one run
    /// however many calls a window holds — and the audit still fires
    /// above the watermark.
    #[test]
    fn per_peer_state_is_bounded_by_the_replay_ttl() {
        let ttl = Config::default().replay_ttl;
        for step in [Duration::from_millis(50), Duration::from_millis(5)] {
            let window = (ttl.as_micros() / step.as_micros()) as usize;
            let calls = (window * 8 + 400) as u32;
            let reg = Registry::new();
            let (client, server, _) = sequential(calls, step, &reg);
            for (name, e) in [("client", &client), ("server", &server)] {
                let r = &e.replay;
                assert!(
                    r.len() <= window + 1,
                    "{name} remembers {} exchanges, window {window}",
                    r.len()
                );
                assert_eq!(r.run_count(), 1, "{name} at {step:?} steps");
                assert!(r.audit_len() <= window as u64 + 1, "{name} audit set");
                // (The server's last return waits for a later call to
                // acknowledge it implicitly.)
                assert!(e.senders.len() <= 1 && e.receivers.is_empty());
            }
            assert_eq!(server.replay.watermark(), Some(calls - window as u32));
            assert_eq!(reg.get("server.duplicate_call_deliveries"), 0);
        }

        let reg = Registry::new();
        let (_, mut server, now) = sequential(10_000, Duration::from_millis(50), &reg);
        // A forged duplicate *below* the watermark is suppressed before
        // delivery, so the audit has nothing to say about it...
        let old = Segment::data(MsgType::Call, 17, 0, 1, 1, false, b"ping".to_vec());
        server.on_segment(now, old);
        assert_eq!(reg.get("server.replays_suppressed"), 1);
        assert!(server.poll_event().is_none());

        // ...and one *above* it that somehow gets delivered twice (its
        // completed record lost — which only a bug could cause) still
        // trips the audit.
        let live = 10_000;
        assert!(server.replay.forget_record((MsgType::Call, live)));
        let dup = Segment::data(MsgType::Call, live, 0, 1, 1, false, b"ping".to_vec());
        server.on_segment(now, dup);
        assert!(server.poll_event().is_some(), "re-delivered upward");
        assert_eq!(reg.get("server.duplicate_call_deliveries"), 1);
    }

    /// What a caller keeps of the calls it sent is the calls in flight,
    /// never a history: a delivered return and a lost peer each take
    /// their entries.
    #[test]
    fn awaited_returns_are_the_calls_in_flight() {
        let ms = |n| Time::ZERO + Duration::from_millis(n);
        let mut client = Endpoint::new(Config::default());
        let mut server = Endpoint::new(Config::default());
        for cn in 1..=1_000u32 {
            exchange(ms(cn as u64 * 50), cn, &mut client, &mut server);
            assert!(client.awaiting_return.is_empty());
        }
        assert!(client.awaiting_return.capacity() <= 4);

        for cn in [1_001, 1_002] {
            client
                .send(ms(60_000), MsgType::Call, cn, 0, b"ping")
                .unwrap();
        }
        assert_eq!(client.awaiting_return, [1_001, 1_002]);
        client.declare_dead();
        assert!(client.awaiting_return.is_empty());
    }

    /// A held return lives exactly as long as its call's replay record —
    /// the first arrival at or past `replay_ttl` purges both, and no
    /// timer is ever armed for it — and paced calls, each retiring the
    /// return before it, leave at most one held return per peer.
    #[test]
    fn a_held_return_lives_as_long_as_its_calls_record() {
        let ttl = Config::default().replay_ttl;
        let mut client = Endpoint::new(Config::default());
        let mut server = Endpoint::new(Config::default());
        exchange(Time::ZERO, 1, &mut client, &mut server);
        let held = (MsgType::Return, 1);
        assert!(server.senders[&held].held());
        assert_eq!(server.poll_timer(), None);

        // Any arrival runs the purge; a probe reply asks for nothing back.
        let probe = Segment::probe_reply(9);
        server.on_segment(Time::from_micros(ttl.as_micros() - 1), probe.clone());
        assert!(server.senders.contains_key(&held), "the record still lives");
        server.on_segment(Time::ZERO + ttl, probe);
        assert_eq!(server.replay.total_of((MsgType::Call, 1)), None);
        assert!(server.senders.is_empty(), "the return went with it");

        const STEP: Duration = Duration::from_secs(1);
        let mut now = Time::ZERO + ttl;
        for cn in 2..=20_001u32 {
            exchange(now, cn, &mut client, &mut server);
            assert_eq!(server.senders.len(), 1, "call {cn}");
            assert_eq!(server.poll_timer(), None);
            now += STEP;
        }
        assert!(server.senders[&(MsgType::Return, 20_001)].held());
        assert!(server.replay.len() <= (ttl.as_micros() / STEP.as_micros()) as usize + 1);
    }
}
