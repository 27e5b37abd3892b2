//! The §4.2 paired-message rules as one executable checker (`mod spec;` in
//! each integration test), in the manner of the Derecho paper's runtime
//! checking: a test feeds [`Spec`] every segment that crosses its wire
//! (time, direction, decoded header) and every event either endpoint
//! delivers upward, and the checker flags each event that breaks a rule.
//! [`Pair`] does the feeding for two live endpoints, and asserts the
//! checker found nothing when it is dropped (unless already unwinding).
//!
//! - **S1** no endpoint delivers a call number upward twice;
//! - **S2** after its first transmission, a one-segment return goes out
//!   without *please ack* only in answer to a *please ack* copy of its
//!   call (a held return is re-sent only when asked);
//! - **S3** `ack T n k` leaves an endpoint only if it holds segments
//!   `1..=k` of `(T, n)`;
//! - **S4** `PeerDead` fires only after one of the endpoint's messages
//!   has gone a jitter-reduced crash horizon without progress, after
//!   `MAX_UNANSWERED_PROBES` probes went unanswered, or after a
//!   port-unreachable notice for its peer reached it;
//! - **S5** a *please ack* copy of a message the endpoint delivered whole,
//!   whose record is younger than `replay_ttl`, is answered before the
//!   endpoint's queue is next drained: by an ack of the whole message or,
//!   for a call, by its return;
//! - **S6** on a reliable wire, a one-segment exchange whose service time
//!   is under one jitter-reduced `RETRANSMIT_INTERVAL` costs exactly two
//!   datagrams (checked by [`Spec::finish`]).
//!
//! The checker sees only the wire, so where the wire cannot show an
//! endpoint's state it errs towards silence, never towards a false alarm:
//! S4 counts every arrival as a life sign and keeps a message it cannot
//! see retired (a held return) as still waiting.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use pairedmsg::config::{MAX_UNANSWERED_PROBES, RETRANSMIT_INTERVAL};
use pairedmsg::{Config, Counters, Endpoint, Event, MsgType, Segment, SegmentHeader};
use simnet::{Duration, Time};

/// The two sides of a [`Pair`]'s wire.
pub const CLIENT: usize = 0;
pub const SERVER: usize = 1;

/// One of the §4.2 rules (module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    S1,
    S2,
    S3,
    S4,
    S5,
    S6,
}

/// A broken rule: which, by which side, when, and how.
#[derive(Clone, Debug)]
pub struct Violation(pub Rule, pub usize, pub Time, pub String);

type Key = (MsgType, u32);

/// A message an endpoint sent that is not yet wholly acknowledged (S4).
struct Waiting {
    since: Time,
    acked: u8,
    total: u8,
}

/// What the checker knows of one endpoint.
#[derive(Default)]
struct End {
    /// Messages delivered upward, and when (S1, S5).
    delivered: BTreeMap<Key, Time>,
    /// Segment numbers that have arrived, per message (S3).
    holds: BTreeMap<Key, BTreeSet<u8>>,
    /// Calls whose one-segment return has gone out once (S2).
    returned: BTreeSet<u32>,
    /// *Please ack* copies of each call that came after its return went
    /// out, not yet spent on a re-send (S2).
    asked: BTreeMap<u32, u32>,
    /// *Please ack* copies of delivered messages not yet answered (S5).
    owed: BTreeMap<Key, u32>,
    /// Messages sent and not yet wholly acknowledged (S4).
    waiting: BTreeMap<Key, Waiting>,
    /// Probes sent since the last arrival (S4).
    probes: u32,
    /// A port-unreachable notice for the peer arrived (S4).
    notified: bool,
    dead: bool,
}

/// One exchange as S6 sees it, keyed by (caller, call number).
#[derive(Default)]
struct Exchange {
    datagrams: u32,
    call_total: Option<u8>,
    call_arrived: Option<Time>,
    return_total: Option<u8>,
    returned: Option<Time>,
}

/// The checker (module docs).
pub struct Spec {
    replay_ttl: Duration,
    horizon: Duration,
    interval: Duration,
    ends: [End; 2],
    exchanges: BTreeMap<(usize, u32), Exchange>,
    reliable: bool,
    /// Every rule broken so far, in the order found.
    pub violations: Vec<Violation>,
    /// How much the run exercised the rules: `owed` *please ack* copies
    /// (S5), held returns `resent_held` on request and `resent_timed` on
    /// the callee's clock (S2), `PeerDead` after unanswered probes, a
    /// horizon of silence or a notice (S4), exchanges held to their
    /// `floor` (S6).
    pub tally: BTreeMap<&'static str, u64>,
}

/// `d` less the most a `jitter_permille` window can take off it.
fn jitter_reduced(d: Duration, jitter_permille: u32) -> Duration {
    let off = (d.as_micros() * jitter_permille as u64).div_ceil(2_000);
    Duration::from_micros(d.as_micros() - off)
}

/// Which side made the call a segment from `from` belongs to.
fn caller(from: usize, h: &SegmentHeader) -> usize {
    let to = 1 - from;
    match (h.probe, h.ack, h.msg_type) {
        (true, false, _) => from,
        (true, true, _) => to,
        (false, false, MsgType::Call) | (false, true, MsgType::Return) => from,
        (false, false, MsgType::Return) | (false, true, MsgType::Call) => to,
    }
}

impl Spec {
    /// A checker for two endpoints configured as `config`, on a wire that
    /// delivers every datagram exactly once until told otherwise.
    pub fn new(config: &Config) -> Spec {
        Spec {
            replay_ttl: config.replay_ttl,
            horizon: jitter_reduced(config.crash_horizon(), config.jitter_permille),
            interval: jitter_reduced(RETRANSMIT_INTERVAL, config.jitter_permille),
            ends: Default::default(),
            exchanges: BTreeMap::new(),
            reliable: true,
            violations: Vec::new(),
            tally: BTreeMap::new(),
        }
    }

    /// The wire lost, duplicated, replayed or forged a datagram: S6 is off.
    pub fn unreliable(&mut self) {
        self.reliable = false;
    }

    fn flag(&mut self, rule: Rule, side: usize, at: Time, what: String) {
        self.violations.push(Violation(rule, side, at, what));
    }

    /// Side `from` handed a segment with header `h` to the network.
    pub fn sent(&mut self, at: Time, from: usize, h: &SegmentHeader) {
        count(&mut self.tally, "segments");
        let ex = self.exchanges.entry((caller(from, h), h.call_number));
        let ex = ex.or_default();
        ex.datagrams += 1;
        if !h.ack && !h.probe {
            match h.msg_type {
                MsgType::Call => ex.call_total = ex.call_total.or(Some(h.total)),
                MsgType::Return if ex.returned.is_none() => {
                    ex.return_total = Some(h.total);
                    ex.returned = Some(at);
                }
                MsgType::Return => {}
            }
        }
        let key = (h.msg_type, h.call_number);
        let me = &mut self.ends[from];
        if h.probe {
            me.probes += u32::from(!h.ack);
            return;
        }
        if h.ack {
            if h.number == h.total {
                discharge(&mut me.owed, key);
            }
            let holds = me.holds.get(&key);
            if !(1..=h.number).all(|k| holds.is_some_and(|s| s.contains(&k))) {
                let what = format!("ack {key:?} {} ahead of its data {holds:?}", h.number);
                self.flag(Rule::S3, from, at, what);
            }
            return;
        }
        me.waiting.entry(key).or_insert(Waiting {
            since: at,
            acked: 0,
            total: h.total,
        });
        if h.msg_type == MsgType::Return && h.please_ack {
            count(&mut self.tally, "resent_timed");
        }
        if h.msg_type != MsgType::Return || h.please_ack {
            return;
        }
        discharge(&mut me.owed, (MsgType::Call, h.call_number));
        if h.total != 1 || me.returned.insert(h.call_number) {
            return;
        }
        if discharge(&mut me.asked, h.call_number) {
            count(&mut self.tally, "resent_held");
        } else {
            let what = format!("return {} re-sent unasked", h.call_number);
            self.flag(Rule::S2, from, at, what);
        }
    }

    /// A segment with header `h` arrived at side `to`.
    pub fn arrived(&mut self, at: Time, to: usize, h: &SegmentHeader) {
        let key = (h.msg_type, h.call_number);
        let me = &mut self.ends[to];
        if me.dead {
            return;
        }
        me.probes = 0;
        if h.probe {
            return;
        }
        if h.ack {
            if let Some(w) = me.waiting.get_mut(&key) {
                if h.number.min(w.total) > w.acked {
                    w.acked = h.number.min(w.total);
                    w.since = at;
                }
                if w.acked == w.total {
                    me.waiting.remove(&key);
                }
            }
            return;
        }
        me.holds.entry(key).or_default().insert(h.number);
        match h.msg_type {
            MsgType::Return => {
                me.waiting.remove(&(MsgType::Call, h.call_number));
            }
            MsgType::Call => {
                me.waiting
                    .retain(|&(t, n), _| t == MsgType::Call || n >= h.call_number);
                let ex = self.exchanges.entry((1 - to, h.call_number)).or_default();
                ex.call_arrived = ex.call_arrived.or(Some(at));
                if h.please_ack && me.returned.contains(&h.call_number) {
                    *me.asked.entry(h.call_number).or_default() += 1;
                }
            }
        }
        let fresh = me
            .delivered
            .get(&key)
            .is_some_and(|&d| at.since(d) < self.replay_ttl);
        if h.please_ack && fresh {
            *me.owed.entry(key).or_default() += 1;
            count(&mut self.tally, "owed");
        }
    }

    /// The peer's host told side `to` that nothing holds the peer's port:
    /// a `PeerDead` may follow at once (S4).
    pub fn unreachable(&mut self, to: usize) {
        count(&mut self.tally, "notices");
        self.ends[to].notified = true;
    }

    /// Side `side` drained its queue: every *please ack* copy that arrived
    /// before must have been answered (S5).
    pub fn drained(&mut self, at: Time, side: usize) {
        let owed = std::mem::take(&mut self.ends[side].owed);
        for (key, n) in owed.into_iter().filter(|&(_, n)| n > 0) {
            let what = format!("{n} please-ack copies of {key:?} unanswered");
            self.flag(Rule::S5, side, at, what);
        }
    }

    /// Side `side` delivered `ev` upward.
    pub fn event(&mut self, at: Time, side: usize, ev: &Event) {
        count(&mut self.tally, "events");
        let me = &mut self.ends[side];
        match *ev {
            Event::Message {
                msg_type,
                call_number,
                ..
            } => {
                let again = me.delivered.insert((msg_type, call_number), at);
                if msg_type == MsgType::Call && again.is_some() {
                    let what = format!("call {call_number} delivered again");
                    self.flag(Rule::S1, side, at, what);
                }
            }
            Event::PeerDead => {
                me.dead = true;
                me.owed.clear();
                let silent = me.waiting.values().map(|w| at.since(w.since)).max();
                if me.notified {
                    count(&mut self.tally, "dead_by_notice");
                } else if me.probes >= MAX_UNANSWERED_PROBES {
                    count(&mut self.tally, "dead_by_probes");
                } else if silent.is_some_and(|d| d >= self.horizon) {
                    count(&mut self.tally, "dead_by_silence");
                } else {
                    let probes = me.probes;
                    let what = format!("PeerDead after {probes} probes, {silent:?} of silence");
                    self.flag(Rule::S4, side, at, what);
                }
            }
        }
    }

    /// Applies the end-of-run rule (S6) and returns every violation found.
    pub fn finish(&mut self) -> &[Violation] {
        let exchanges = std::mem::take(&mut self.exchanges);
        for ((side, n), ex) in exchanges {
            let (Some(arrived), Some(returned)) = (ex.call_arrived, ex.returned) else {
                continue;
            };
            let quick = returned >= arrived && returned.since(arrived) < self.interval;
            if !self.reliable || (ex.call_total, ex.return_total, quick) != (Some(1), Some(1), true)
            {
                continue;
            }
            count(&mut self.tally, "floor");
            if ex.datagrams != 2 {
                let what = format!("exchange {n} cost {} datagrams", ex.datagrams);
                self.flag(Rule::S6, side, returned, what);
            }
        }
        &self.violations
    }
}

fn count(tally: &mut BTreeMap<&'static str, u64>, what: &'static str) {
    *tally.entry(what).or_default() += 1;
}

/// Spends one unit of `map[key]`; `false` if there was none.
fn discharge<K: Ord>(map: &mut BTreeMap<K, u32>, key: K) -> bool {
    match map.get_mut(&key) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    }
}

/// Two endpoints with the checker on the wire between them. A test moves
/// segments with [`Pair::drain`] and [`Pair::arrive`] (losing or
/// reordering them as it likes, after [`Spec::unreliable`] if it does),
/// and reads what each side delivered with [`Pair::event`], and what
/// each counted in `counts`.
pub struct Pair {
    pub ends: [Endpoint; 2],
    pub counts: [Counters; 2],
    pub spec: Spec,
    events: [VecDeque<Event>; 2],
}

impl Pair {
    pub fn new(config: Config) -> Pair {
        let reg = obs::Registry::new();
        let counts = ["client", "server"].map(|side| Counters::register(&reg, side));
        Pair {
            spec: Spec::new(&config),
            ends: counts
                .clone()
                .map(|c| Endpoint::counting(config.clone(), c)),
            counts,
            events: Default::default(),
        }
    }

    /// Everything side `from` has queued, handed to the network at `at`.
    pub fn drain(&mut self, at: Time, from: usize) -> Vec<Segment> {
        let mut out = Vec::new();
        while let Some(seg) = self.ends[from].poll_transmit_segment() {
            self.spec.sent(at, from, &seg.header);
            out.push(seg);
        }
        self.spec.drained(at, from);
        out
    }

    /// `seg` arrives at side `to` at `at`.
    pub fn arrive(&mut self, at: Time, to: usize, seg: Segment) {
        self.spec.arrived(at, to, &seg.header);
        self.ends[to].on_segment(at, seg);
        self.flush(at, to);
    }

    /// The peer's host answers side `to`'s last datagram with
    /// port-unreachable at `at`.
    pub fn unreachable(&mut self, at: Time, to: usize) {
        self.spec.unreachable(to);
        self.ends[to].on_unreachable();
        self.flush(at, to);
    }

    /// Side `side`'s clock reaches `at`.
    pub fn tick(&mut self, at: Time, side: usize) {
        self.ends[side].on_timer(at);
        self.flush(at, side);
    }

    fn flush(&mut self, at: Time, side: usize) {
        while let Some(ev) = self.ends[side].poll_event() {
            self.spec.event(at, side, &ev);
            self.events[side].push_back(ev);
        }
    }

    /// The next event side `side` delivered upward.
    pub fn event(&mut self, side: usize) -> Option<Event> {
        self.events[side].pop_front()
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let found = self.spec.finish();
            assert!(found.is_empty(), "§4.2 rules broken: {found:#?}");
        }
    }
}
