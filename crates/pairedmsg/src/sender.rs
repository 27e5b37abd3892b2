//! The sending half of a message exchange (§4.2.2).
//!
//! A message is divided into segments numbered from 1. The sender first
//! transmits every segment with no control bits, then periodically
//! retransmits the first unacknowledged segment with *please ack* set,
//! while removing acknowledged segments from its queue, on a clock that
//! starts at the wire ([`MsgSender::on_wire`]). Transmission is complete
//! when the queue is empty. A held message ([`MsgSender::hold`]) is never
//! retransmitted on a timer: the endpoint re-sends it when asked.
//!
//! Acknowledgment numbers are cumulative, so the queue of unacknowledged
//! segments is always the suffix `acked + 1 ..= total`: the sender keeps
//! one counter and the message in its framed layout ([`Framed`]), and
//! owns no per-segment state.
//!
//! A sender made from the only handle on the message writes every
//! segment's initial header into its room at once, so each first
//! transmission is a window of the message's buffer and costs no
//! allocation. A sender that shares the message takes the same windows
//! wherever the rooms already hold its headers: every peer sent it at
//! one call number. Only a datagram whose header differs — a
//! retransmission (*please ack* set), a peer at another call number — is
//! built by [`Segment::encode`], one allocation each past 30 bytes.

use crate::config::{backed_off_interval, Config, ProtocolMode, RETRANSMIT_INTERVAL};
use crate::frame::Framed;
use crate::segment::{MsgType, Segment, SegmentHeader};
use simnet::{Duration, Payload, Time};

/// Why a message could not be sent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendError {
    /// The message needs more than 255 segments.
    TooLong {
        /// The message length in bytes.
        len: usize,
        /// The maximum this configuration can carry.
        max: usize,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::TooLong { len, max } => {
                write!(f, "message of {len} bytes exceeds maximum of {max}")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// State machine transmitting one message reliably.
#[derive(Debug)]
pub struct MsgSender {
    msg_type: MsgType,
    call_number: u32,
    span: u64,
    /// The whole message, laid out as its datagrams.
    data: Framed,
    total: u8,
    /// Highest segment number acknowledged so far.
    acked: u8,
    /// When the next retransmission is due; `None` once the message is
    /// held off the clock ([`MsgSender::hold`]).
    next_retransmit: Option<Time>,
    /// The soonest it may give up, [`Config::crash_horizon`] after its
    /// first datagram went to the wire ([`MsgSender::on_wire`]), and whether it has.
    give_up_at: Time,
    wired: bool,
    jitter_permille: u32,
    jitter_seed: u64,
    retries: u32,
    max_retries: u32,
    mode: ProtocolMode,
    /// Highest segment number handed out for transmission.
    sent_through: u8,
}

/// The sender's reaction to a timeout tick.
#[derive(Debug, PartialEq, Eq)]
pub enum SenderTick {
    /// Nothing due yet or already complete.
    Idle,
    /// Retransmit the segment with this number — the first
    /// unacknowledged one — *please ack* set (build it with
    /// [`MsgSender::datagram`]).
    Retransmit(u8),
    /// Too many retransmissions with no acknowledgment: the peer is
    /// presumed to have crashed (§4.2.3).
    GiveUp,
}

impl MsgSender {
    /// Takes over the framed message `data` and queues every segment,
    /// each one's initial header written into its room if `data` is the
    /// only handle (module docs). `initial_datagrams` returns the first
    /// transmission. `span` is the causal span id stamped into every
    /// segment of the message (0 = none).
    pub fn new(
        now: Time,
        config: &Config,
        msg_type: MsgType,
        call_number: u32,
        span: u64,
        data: Framed,
    ) -> Result<MsgSender, SendError> {
        data.fits()?;
        let total = data.total();
        let mut sender = MsgSender {
            msg_type,
            call_number,
            span,
            data,
            total: total as u8,
            acked: 0,
            next_retransmit: Some(now + RETRANSMIT_INTERVAL),
            give_up_at: now + config.crash_horizon(),
            wired: false,
            jitter_permille: config.jitter_permille,
            jitter_seed: config.jitter_seed,
            retries: 0,
            max_retries: config.max_retransmits,
            mode: config.mode,
            sent_through: 0,
        };
        // Every room at once, while no window of the buffer is out yet.
        for number in 1..=sender.total {
            let header = sender.header(number, sender.initial_please_ack(number));
            sender.data.put_header(header);
        }
        Ok(sender)
    }

    /// Segment `number` (1-based, `<= total`) of the message. Its data is
    /// a zero-copy window into the one message buffer.
    pub fn segment(&self, number: u8, please_ack: bool) -> Segment {
        debug_assert!((1..=self.total).contains(&number));
        Segment {
            header: self.header(number, please_ack),
            data: self.data.data(number),
        }
    }

    fn header(&self, number: u8, please_ack: bool) -> SegmentHeader {
        SegmentHeader {
            msg_type: self.msg_type,
            please_ack,
            ack: false,
            probe: false,
            total: self.total,
            number,
            call_number: self.call_number,
            span: self.span,
        }
    }

    /// Segment `number` as a datagram: a window of the message's buffer
    /// if its room holds this header or may be written (module docs),
    /// else a fresh encode.
    pub fn datagram(&mut self, number: u8, please_ack: bool) -> Payload {
        let header = self.header(number, please_ack);
        if self.data.put_header(header) {
            return self.data.window(number);
        }
        self.segment(number, please_ack).encode()
    }

    /// The message being sent, framed: a handle on its buffer.
    pub fn framed(&self) -> &Framed {
        &self.data
    }

    /// How many segments the message was cut into.
    pub fn total(&self) -> u8 {
        self.total
    }

    /// Whether segment `number` asks for an ack when first sent: never
    /// under the Circus discipline; in PARC mode every segment but the
    /// last (§4.2.5), the last being implicitly acknowledged by the reply.
    fn initial_please_ack(&self, number: u8) -> bool {
        self.mode == ProtocolMode::Parc && number < self.total
    }

    /// The message type being sent.
    pub fn msg_type(&self) -> MsgType {
        self.msg_type
    }

    /// The current interval perturbed by a deterministic jitter: a pure
    /// function of the seed, the exchange, and the retry count, so the
    /// same run always produces the same schedule while concurrent
    /// senders (distinct seeds or call numbers) decorrelate.
    fn jittered_interval(&self) -> Duration {
        let interval = backed_off_interval(self.retries).as_micros();
        if self.jitter_permille == 0 {
            return Duration::from_micros(interval);
        }
        // FNV-1a over (seed, call number, message type, retry count).
        let h = obs::fnv1a(&self.jitter_seed.to_le_bytes());
        let h = obs::fnv1a_fold(h, &self.call_number.to_le_bytes());
        let h = obs::fnv1a_fold(h, &[self.msg_type as u8, self.retries as u8]);
        // Map the hash to ±half the jitter window around the interval.
        let window = interval * self.jitter_permille as u64 / 1000;
        let offset = if window == 0 { 0 } else { h % (window + 1) };
        Duration::from_micros(interval - window / 2 + offset)
    }

    /// The call number of the exchange.
    pub fn call_number(&self) -> u32 {
        self.call_number
    }

    /// Datagrams for the initial transmission. The Circus discipline
    /// sends everything eagerly with no control bits (§4.2.2); the PARC
    /// discipline sends only the first segment, stop-and-wait (§4.2.5).
    pub fn initial_datagrams(&mut self) -> impl Iterator<Item = Payload> + '_ {
        let parc = self.mode == ProtocolMode::Parc;
        self.sent_through = if parc { 1 } else { self.total };
        (1..=self.sent_through).map(move |n| {
            let please_ack = self.initial_please_ack(n);
            self.datagram(n, please_ack)
        })
    }

    /// The first datagram went to the wire at `now`: the clock, started at
    /// its queueing, moves on by the wait, both deadlines with it, once.
    pub fn on_wire(&mut self, now: Time) {
        if let Some(due) = self.next_retransmit.filter(|_| !self.wired) {
            let waited = (now + RETRANSMIT_INTERVAL).since(due);
            self.next_retransmit = Some(due + waited);
            self.give_up_at += waited;
        }
        self.wired = true;
    }

    /// Takes the message off the retransmission clock: it has been sent
    /// once, and nothing re-sends it unless asked. An acknowledgment still
    /// completes it.
    pub fn hold(&mut self) {
        self.next_retransmit = None;
    }

    /// `true` for a message [`MsgSender::hold`] took off the clock.
    pub fn held(&self) -> bool {
        self.next_retransmit.is_none()
    }

    /// Records that every segment has already been handed to the network
    /// by other means (a troupe-wide multicast, §4.3.3): retransmission
    /// and acknowledgment tracking proceed as if the eager initial
    /// transmission had happened, but no initial segments are produced by
    /// this sender. Stragglers are then served by the ordinary unicast
    /// retransmission schedule.
    pub fn mark_transmitted(&mut self) {
        self.sent_through = self.total;
    }

    /// Processes an explicit acknowledgment number: removes every segment
    /// numbered `<= ack_number` and resets the retry counter if progress
    /// was made. Returns the datagram to transmit next, if any (the PARC
    /// discipline releases the following segment on each ack).
    pub fn on_ack(&mut self, now: Time, ack_number: u8) -> Option<Payload> {
        let acked = ack_number.min(self.total);
        if acked > self.acked {
            self.acked = acked;
            // Progress resets the backoff to the base interval.
            self.retries = 0;
            if !self.held() {
                self.next_retransmit = Some(now + self.jittered_interval());
            }
        }
        if self.mode == ProtocolMode::Parc
            && ack_number >= self.sent_through
            && self.acked <= self.sent_through
            && self.sent_through < self.total
        {
            self.sent_through += 1;
            let n = self.sent_through;
            return Some(self.datagram(n, self.initial_please_ack(n)));
        }
        None
    }

    /// `true` once every segment has been acknowledged.
    pub fn complete(&self) -> bool {
        self.acked == self.total
    }

    /// When the next retransmission is due (`None` once complete, and
    /// while held).
    pub fn deadline(&self) -> Option<Time> {
        if self.complete() {
            None
        } else {
            self.next_retransmit
        }
    }

    /// Advances the retransmission clock.
    pub fn on_tick(&mut self, now: Time) -> SenderTick {
        if self.deadline().is_none_or(|due| now < due) {
            return SenderTick::Idle;
        }
        if self.retries >= self.max_retries {
            return SenderTick::GiveUp;
        }
        self.retries += 1;
        // The wait that ends in giving up ends no sooner than the horizon.
        let floor = (self.retries == self.max_retries).then_some(self.give_up_at);
        self.next_retransmit = Some(now + self.jittered_interval()).max(floor);
        // PARC mode holds later segments back, but never the first
        // unacknowledged one: `on_ack` releases it with the ack before it.
        debug_assert!(self.acked < self.sent_through);
        SenderTick::Retransmit(self.acked + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> Config {
        Config {
            max_segment_data: 4,
            ..Config::default()
        }
    }

    fn sender(cfg: &Config, msg_type: MsgType, message: &[u8]) -> MsgSender {
        MsgSender::new(Time::ZERO, cfg, msg_type, 1, 0, cfg.frame(message)).unwrap()
    }

    fn initial_segments(s: &mut MsgSender) -> Vec<Segment> {
        let decode = |d: Payload| Segment::decode(&d).expect("a segment");
        s.initial_datagrams().map(decode).collect()
    }

    #[test]
    fn small_message_is_one_segment() {
        let mut s = sender(&config(), MsgType::Call, b"ab");
        let segs = initial_segments(&mut s);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].header.total, 1);
        assert_eq!(segs[0].header.number, 1);
        assert_eq!(segs[0].data, b"ab");
    }

    #[test]
    fn empty_message_still_has_one_segment() {
        let mut s = sender(&config(), MsgType::Return, b"");
        assert_eq!(s.initial_datagrams().count(), 1);
    }

    #[test]
    fn large_message_segments_in_order() {
        let mut s = sender(&config(), MsgType::Call, b"abcdefghij");
        let segs = initial_segments(&mut s);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].data, b"abcd");
        assert_eq!(segs[1].data, b"efgh");
        assert_eq!(segs[2].data, b"ij");
        assert!(segs.iter().all(|s| s.header.total == 3));
    }

    #[test]
    fn oversize_message_rejected() {
        let cfg = config();
        let data = cfg.frame(&[0u8; 4 * 255 + 1]);
        assert!(matches!(
            MsgSender::new(Time::ZERO, &cfg, MsgType::Call, 1, 0, data),
            Err(SendError::TooLong {
                len: 1_021,
                max: 1_020
            })
        ));
    }

    #[test]
    fn acks_remove_prefix() {
        let mut s = sender(&config(), MsgType::Call, b"abcdefghij");
        s.on_ack(Time::ZERO, 2);
        assert!(!s.complete());
        s.on_ack(Time::ZERO, 3);
        assert!(s.complete());
        assert_eq!(s.deadline(), None);
    }

    #[test]
    fn retransmit_first_unacked_with_please_ack() {
        let cfg = config();
        let mut s = sender(&cfg, MsgType::Call, b"abcdefghij");
        let _ = s.initial_datagrams().count();
        s.on_ack(Time::ZERO, 1);
        let due = s.deadline().unwrap();
        match s.on_tick(due) {
            SenderTick::Retransmit(number) => {
                assert_eq!(number, 2);
                assert!(s.segment(2, true).header.please_ack);
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn gives_up_after_max_retries() {
        let cfg = Config {
            max_retransmits: 2,
            ..config()
        };
        let mut s = sender(&cfg, MsgType::Call, b"x");
        let _ = s.initial_datagrams().count();
        for _ in 0..2 {
            let now = s.deadline().unwrap();
            assert!(matches!(s.on_tick(now), SenderTick::Retransmit(_)));
        }
        let now = s.deadline().unwrap();
        assert_eq!(s.on_tick(now), SenderTick::GiveUp);
    }

    #[test]
    fn progress_resets_retries() {
        let cfg = Config {
            max_retransmits: 2,
            ..config()
        };
        let mut s = sender(&cfg, MsgType::Call, b"abcdefgh");
        let _ = s.initial_datagrams().count();
        let now = s.deadline().unwrap();
        assert!(matches!(s.on_tick(now), SenderTick::Retransmit(_)));
        s.on_ack(Time::ZERO, 1); // Progress.
        let now = s.deadline().unwrap();
        assert!(matches!(s.on_tick(now), SenderTick::Retransmit(_)));
        let now = s.deadline().unwrap();
        assert!(matches!(s.on_tick(now), SenderTick::Retransmit(_)));
    }

    #[test]
    fn held_message_has_no_deadline_until_acknowledged() {
        let mut s = sender(&config(), MsgType::Return, b"x");
        let _ = s.initial_datagrams().count();
        s.hold();
        assert!(s.held());
        assert_eq!(s.deadline(), None);
        assert_eq!(s.on_tick(Time::from_secs(3_600)), SenderTick::Idle);
        assert_eq!(s.on_ack(Time::ZERO, 1), None);
        assert!(s.complete() && s.held());
    }

    /// A message's clock runs from its first datagram on the wire, not from
    /// its queueing; only the first report of the wire counts.
    #[test]
    fn the_clock_starts_at_the_wire() {
        let mut s = sender(&config(), MsgType::Call, b"x");
        let wire = Time::from_secs(2);
        s.on_wire(wire);
        s.on_wire(wire + RETRANSMIT_INTERVAL);
        assert_eq!(s.deadline(), Some(wire + RETRANSMIT_INTERVAL));
    }

    #[test]
    fn tick_before_deadline_is_idle() {
        let mut s = sender(&config(), MsgType::Call, b"x");
        assert_eq!(s.on_tick(Time::ZERO), SenderTick::Idle);
    }

    /// Drives a sender to GiveUp, returning the successive waits between
    /// scheduled deadlines.
    fn drain_schedule(cfg: &Config) -> Vec<u64> {
        let mut s = MsgSender::new(Time::ZERO, cfg, MsgType::Call, 7, 0, cfg.frame(b"x")).unwrap();
        let _ = s.initial_datagrams().count();
        let mut waits = Vec::new();
        let mut last = Time::ZERO;
        loop {
            let due = s.deadline().unwrap();
            waits.push(due.since(last).as_micros());
            last = due;
            match s.on_tick(due) {
                SenderTick::Retransmit(_) => {}
                SenderTick::GiveUp => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        waits
    }

    #[test]
    fn backoff_doubles_to_cap_then_gives_up() {
        let cfg = Config {
            jitter_permille: 0,
            ..config()
        };
        // One wait before each of the 4 retransmissions, one before the
        // GiveUp tick: base, 2×, 4× (capped), cap, cap.
        assert_eq!(
            drain_schedule(&cfg),
            vec![300_000, 600_000, 1_200_000, 1_200_000, 1_200_000]
        );
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let cfg = Config {
            jitter_seed: 42,
            ..config()
        };
        let a = drain_schedule(&cfg);
        let b = drain_schedule(&cfg);
        assert_eq!(a, b, "same seed must give the same schedule");
        let nominal = [300_000u64, 600_000, 1_200_000, 1_200_000, 1_200_000];
        assert_eq!(a.len(), nominal.len());
        let (sum, horizon) = (a.iter().sum::<u64>(), cfg.crash_horizon().as_micros());
        for (i, (&wait, nom)) in a.iter().zip(nominal).enumerate() {
            let half = nom / 20; // permille 100 ⇒ ±5%.
            assert!(wait >= nom - half, "wait {wait} under ±5% of {nom}");
            // The wait that ends in giving up is the jittered one or ends
            // at the crash horizon, whichever is later.
            let last = i == nominal.len() - 1;
            assert!(
                wait <= nom + half || last && sum == horizon,
                "wait {wait} over ±5% of {nom}"
            );
        }
        assert!(sum >= horizon, "gave up {sum} µs in, before the horizon");
        let c = drain_schedule(&Config {
            jitter_seed: 43,
            ..config()
        });
        assert_ne!(a, c, "different seeds should decorrelate the schedule");
    }

    #[test]
    fn progress_resets_backoff_interval() {
        let cfg = Config {
            jitter_permille: 0,
            ..config()
        };
        let mut s = sender(&cfg, MsgType::Call, b"abcdefgh");
        let _ = s.initial_datagrams().count();
        let mut now = s.deadline().unwrap();
        assert!(matches!(s.on_tick(now), SenderTick::Retransmit(_)));
        now = s.deadline().unwrap();
        assert!(matches!(s.on_tick(now), SenderTick::Retransmit(_)));
        // Two retries deep the interval is 4× base (capped); an ack that
        // makes progress snaps it back to the base.
        s.on_ack(now, 1);
        let due = s.deadline().unwrap();
        assert_eq!(due.since(now).as_micros(), 300_000);
    }
}
