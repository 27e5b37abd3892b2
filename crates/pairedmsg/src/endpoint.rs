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
//!
//! # How a return gets acknowledged
//!
//! A return is the last message of its exchange, so nothing the protocol
//! must send anyway follows it. Four things can acknowledge it, tried in
//! this order:
//!
//! 1. **The caller's next call** (§4.2.2): a call segment retires every
//!    return with an earlier call number. Free, and the only path a
//!    caller that calls again within the retransmission interval takes.
//! 2. **The caller's next return** to the same peer: the return of a
//!    call-back (§5.3's `ready_to_commit`), sent while the ack is owed.
//!    Its last initial segment carries the owed ack in a 5-byte trailer
//!    ([`crate::segment`]) if it has that much room under
//!    `max_segment_data`, so a datagram never outgrows the MTU. The
//!    oldest debt rides; retransmissions carry none. Lost, it is lost
//!    like a tick ack, and path 4 pays.
//! 3. **The caller's own tick.** The return's first segment retires our
//!    call's sender; the endpoint keeps that sender's pending
//!    retransmission deadline, and once the return is complete an ack is
//!    *owed*, due at that deadline. [`Endpoint::on_timer`] at or after it
//!    emits one `ack(Return, cn, total, total)` — unless path 1, path 2
//!    or a *please ack* duplicate (path 4) got there first. The owed ack
//!    is never reported by [`Endpoint::poll_timer`], so no timer is armed
//!    (nor its `gettimeofday` / `sigblock` / `setitimer` charged, Table
//!    4.2) on its account: it rides whatever tick the driver armed for
//!    this peer. That is the call's own deadline when no earlier timer
//!    was armed; when one was (an earlier call's), the driver keeps it,
//!    and if that tick finds the debt not yet due and nothing else
//!    timed, no tick follows and the ack falls to path 4.
//! 4. ***Please ack*, the fallback** (§4.2.2, §4.2.4): the callee's
//!    retransmission timer re-sends the return's first unacknowledged
//!    segment with *please ack* and the caller answers at once. Two
//!    datagrams instead of one, and the only path on which liveness and
//!    [`Event::PeerDead`] rest: it runs whenever a tick ack or a trailer
//!    is lost, loses the race, or no tick comes.
//!
//! The caller's tick normally wins the race with the callee's timer: the
//! return was queued at least one `sendmsg`, one hop and the receive path
//! after the call was. A caller pacing its calls a little over one
//! interval apart (≈ 310 ms at the default 300) pays for path 3 just
//! before path 1 would have made it unnecessary; that is the one band
//! where this sends more than *please ack* alone would.

use std::collections::{BTreeMap, VecDeque};

use crate::config::{Config, MAX_UNANSWERED_PROBES, PROBE_INTERVAL};
use crate::receiver::MsgReceiver;
use crate::replay::ReplayLog;
use crate::segment::{MsgType, Segment, SegmentError, SegmentHeader, TRAILER_LEN};
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

/// A call this endpoint sent, kept until its return needs nothing more
/// from us.
#[derive(Clone, Copy, Debug)]
struct SentCall {
    call_number: u32,
    /// Segments of the delivered return whose ack we owe; 0 while the
    /// return is still awaited.
    returned: u8,
    /// The pending retransmission deadline of the call's sender when the
    /// return's first segment retired it: when the owed ack falls due.
    /// `None` while the sender lives, and for good if an explicit ack
    /// retired it (the tick it names has been spent or re-armed).
    tick: Option<Time>,
}

/// Traffic counters, used by the §4.2.5 protocol-discipline ablation and
/// the chaos harness's serial-number-monotonicity oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointStats {
    /// Segments handed to the network (data, acks, and probes).
    pub segments_sent: u64,
    /// Data segments re-sent, *please ack* set, by a retransmission
    /// timer (a subset of `segments_sent`).
    pub retransmits: u64,
    /// Explicit acknowledgments handed to the network (a subset of
    /// `segments_sent`).
    pub acks_sent: u64,
    /// Acknowledgments of a delivered return sent on the call's own tick
    /// (a subset of `acks_sent`).
    pub acks_on_tick: u64,
    /// Acknowledgments of a delivered return carried in the trailer of a
    /// return to the same peer (not in `acks_sent`: no segment of their
    /// own).
    pub acks_piggybacked: u64,
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

impl EndpointStats {
    /// Folds another endpoint's counters into these: sums, and the
    /// larger of the two buffering high-water marks.
    pub fn absorb(&mut self, other: &EndpointStats) {
        self.segments_sent += other.segments_sent;
        self.retransmits += other.retransmits;
        self.acks_sent += other.acks_sent;
        self.acks_on_tick += other.acks_on_tick;
        self.acks_piggybacked += other.acks_piggybacked;
        self.max_recv_buffered = self.max_recv_buffered.max(other.max_recv_buffered);
        self.calls_delivered += other.calls_delivered;
        self.returns_delivered += other.returns_delivered;
        self.duplicate_call_deliveries += other.duplicate_call_deliveries;
        self.send_call_regressions += other.send_call_regressions;
        self.replays_suppressed += other.replays_suppressed;
    }

    /// Sets one gauge per counter, `{prefix}.{field name}`.
    pub fn publish(&self, reg: &obs::Registry, prefix: &str) {
        // One key buffer for the lot: a chaos sweep publishes every node
        // of every scenario.
        let mut key = String::with_capacity(prefix.len() + 32);
        key.push_str(prefix);
        key.push('.');
        let stem = key.len();
        for (name, value) in [
            ("segments_sent", self.segments_sent),
            ("retransmits", self.retransmits),
            ("acks_sent", self.acks_sent),
            ("acks_on_tick", self.acks_on_tick),
            ("acks_piggybacked", self.acks_piggybacked),
            ("max_recv_buffered", self.max_recv_buffered as u64),
            ("calls_delivered", self.calls_delivered),
            ("returns_delivered", self.returns_delivered),
            ("duplicate_call_deliveries", self.duplicate_call_deliveries),
            ("send_call_regressions", self.send_call_regressions),
            ("replays_suppressed", self.replays_suppressed),
        ] {
            key.truncate(stem);
            key.push_str(name);
            reg.set_gauge(&key, value);
        }
    }
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
    /// Calls we sent (never more than are in flight at once, plus the
    /// returns delivered since the last call). One whose return has not
    /// yet been delivered drives crash-detection probing; one whose
    /// return has been delivered owes its ack (see the module docs).
    sent_calls: Vec<SentCall>,
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
            sent_calls: Vec::new(),
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
        self.stats.publish(reg, prefix);
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
        self.sent_calls.retain(|c| c.call_number != call_number);
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
            if let Some(cn) = self.newest_awaited() {
                self.arm_probe(now, cn);
            }
        }
    }

    /// The newest call whose return has not yet been delivered.
    fn newest_awaited(&self) -> Option<u32> {
        let awaited = self.sent_calls.iter().filter(|c| c.returned == 0);
        awaited.map(|c| c.call_number).max()
    }

    /// Starts transmitting a message attributed to causal span `span`
    /// (0 = none). For a call the endpoint begins crash-detection probing
    /// once the call is fully acknowledged; sending a return cancels the
    /// deferred ack it implicitly carries, and carries the oldest return
    /// ack owed to this peer if its last segment has room.
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
        if msg_type == MsgType::Return {
            self.settle_owed_ack_in_trailer();
        }
        self.track(sender);
        Ok(())
    }

    /// Settles the oldest owed return ack in the trailer of the segment
    /// just queued — a return's last initial segment — if the trailer
    /// fits under `max_segment_data`.
    fn settle_owed_ack_in_trailer(&mut self) {
        let Some(last) = self.out.back_mut() else {
            return;
        };
        if last.data.len() + TRAILER_LEN > self.config.max_segment_data {
            return;
        }
        if let Some(i) = self.sent_calls.iter().position(|c| c.returned != 0) {
            let owed = self.sent_calls.remove(i);
            last.acks_return = Some((owed.call_number, owed.returned));
        }
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
            // The call acknowledges every earlier return (§4.2.2): their
            // acks are no longer owed.
            self.sent_calls.retain(|c| {
                c.call_number != call_number && (c.returned == 0 || c.call_number > call_number)
            });
            self.sent_calls.push(SentCall {
                call_number,
                returned: 0,
                tick: None,
            });
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
            p.next = now + PROBE_INTERVAL;
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
        // A trailer acknowledges one of our returns, whatever the data.
        if let Some((call_number, total)) = seg.acks_return {
            self.on_explicit_ack(MsgType::Return, call_number, total, now);
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
                if let Some(call) = self.senders.remove(&(MsgType::Call, h.call_number)) {
                    // Our call is implicitly acknowledged; probing (if it
                    // had started) continues until the return completes.
                    // The call's deadline stays due: remember when, for
                    // the ack the return will be owed.
                    if let Some(c) = self.sent_call_mut(h.call_number) {
                        c.tick = call.deadline();
                    }
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
                if h.msg_type == MsgType::Return {
                    // That was the ack we owed.
                    self.sent_calls
                        .retain(|c| c.call_number != h.call_number || c.returned == 0);
                }
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
                want_ack = false;
            }
            MsgType::Return => {
                self.stats.returns_delivered += 1;
                // The return's ack is owed from the call's tick on — if
                // the call's sender still had a deadline and the callee
                // has not just asked for the ack outright.
                match self.sent_call_mut(h.call_number) {
                    Some(c) if c.tick.is_some() && !want_ack => c.returned = total,
                    _ => self.sent_calls.retain(|c| c.call_number != h.call_number),
                }
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

    fn sent_call_mut(&mut self, call_number: u32) -> Option<&mut SentCall> {
        self.sent_calls
            .iter_mut()
            .find(|c| c.call_number == call_number)
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

    /// When the endpoint next needs a timer tick. An owed return ack
    /// never asks for one: it rides a tick armed for something else.
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

    /// Advances retransmission and probe clocks to `now`, and pays the
    /// return acks that have come due.
    pub fn on_timer(&mut self, now: Time) {
        if self.dead {
            return;
        }
        let queued = self.out.len();
        for sender in self.senders.values_mut() {
            match sender.on_tick(now) {
                SenderTick::Idle => {}
                SenderTick::Retransmit(n) => self.out.push_back(sender.segment(n, true)),
                SenderTick::GiveUp => {
                    self.declare_dead();
                    return;
                }
            }
        }
        self.stats.retransmits += (self.out.len() - queued) as u64;
        match &mut self.probe {
            Some(p) if now >= p.next => {
                if p.unanswered >= MAX_UNANSWERED_PROBES {
                    self.declare_dead();
                    return;
                }
                p.unanswered += 1;
                p.next = now + PROBE_INTERVAL;
                self.out.push_back(Segment::probe(p.call_number));
            }
            _ => {}
        }
        let (out, stats) = (&mut self.out, &mut self.stats);
        self.sent_calls.retain(|c| {
            let due = c.returned != 0 && c.tick.is_some_and(|t| now >= t);
            if due {
                out.push_back(Segment::ack(
                    MsgType::Return,
                    c.call_number,
                    c.returned,
                    c.returned,
                ));
                stats.acks_on_tick += 1;
            }
            !due
        });
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
        self.sent_calls.clear();
        self.out.clear();
        self.events.push_back(Event::PeerDead);
    }

    /// Drains the next segment to transmit, already encoded.
    pub fn poll_transmit(&mut self) -> Option<Payload> {
        self.poll_transmit_segment().map(|s| s.encode())
    }

    /// Drains the next segment to transmit, in decoded form (for tests).
    pub fn poll_transmit_segment(&mut self) -> Option<Segment> {
        let seg = self.out.pop_front()?;
        self.stats.segments_sent += 1;
        if seg.header.ack && !seg.header.probe {
            self.stats.acks_sent += 1;
        }
        if seg.acks_return.is_some() {
            self.stats.acks_piggybacked += 1;
        }
        Some(seg)
    }

    /// Drains the next upward event.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    //! Only what needs the endpoint's private state; the two-endpoint
    //! transcripts are in `tests/endpoint.rs`.

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
            exchange(now, cn, &mut client, &mut server);
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

    /// The debt dies with the exchange's other state.
    #[test]
    fn abandoning_a_call_or_losing_the_peer_drops_what_is_owed() {
        let ms = |n| Time::ZERO + Duration::from_millis(n);
        let mut client = Endpoint::new(Config::default());
        let mut server = Endpoint::new(Config::default());
        exchange(ms(0), 1, &mut client, &mut server);
        assert_eq!(client.sent_calls.len(), 1);
        client.abandon_call(ms(100), 1);
        assert!(client.sent_calls.is_empty());
        client.on_timer(ms(300));
        assert_eq!(client.poll_transmit_segment(), None);

        exchange(ms(1_000), 2, &mut client, &mut server);
        client.declare_dead();
        assert!(client.sent_calls.is_empty());
        client.on_timer(ms(1_300));
        assert_eq!(client.poll_transmit_segment(), None);

        // The entries of a busy endpoint are the calls in flight plus the
        // returns since the last call — never a history.
        let mut client = Endpoint::new(Config::default());
        let mut server = Endpoint::new(Config::default());
        for cn in 1..=1_000u32 {
            exchange(ms(cn as u64 * 50), cn, &mut client, &mut server);
            assert_eq!(client.sent_calls.len(), 1);
        }
        assert!(client.sent_calls.capacity() <= 4);
    }
}
