//! Memory of completed exchanges, for re-acknowledgment and replay
//! suppression (§4.2.4).
//!
//! Each completed incoming message is remembered for the configured
//! `replay_ttl`: while the record lives, a delayed duplicate is recognised
//! (and re-acknowledged if it asks); once it expires, the call number
//! folds into a *watermark* at or below which arriving calls are replays
//! of exchanges no longer remembered. A record also says whether the
//! message was acknowledged explicitly, which decides how the return to a
//! remembered call is retransmitted (`endpoint`, "How a return gets
//! acknowledged").
//!
//! The records are kept as *runs*, per message type in key order: a run
//! is a stretch of consecutive call numbers that completed with one
//! segment count and one acked bit, none earlier than the one before it,
//! stored as a header (first number, segment count, bit, base time) and a
//! 2-byte completion offset per message, in whole milliseconds. Call
//! numbers rise per peer, so a completion almost always extends the last
//! run; an explicit ack, a key completed again or a completion out of
//! order splits off a run of its own. A run of one message keeps its
//! offset in the header and allocates nothing; the log holds no hash table
//! and no per-message key.
//!
//! A completion time is kept rounded up to the whole millisecond, so a
//! record never expires before its TTL, and at most 1 ms after it. Expiry
//! is O(expired + runs), not O(remembered): within a run completion times
//! never fall, so its expired messages are a prefix of it, and a purge
//! trims each run's prefix — in practice the first run's.
//!
//! Everything here is bounded by the TTL window: the runs, and the
//! exactly-once audit, an [`IdSet`] of the delivered call numbers (one
//! range while they arrive in order), which forgets a call number as soon
//! as the watermark covers it — arrivals that low are suppressed before
//! they could be delivered twice, so the audit cannot fire for them
//! anyway.

use std::collections::VecDeque;

use crate::segment::MsgType;
use simnet::{Duration, Time};
use wire::IdSet;

/// Identifies one message of one exchange.
pub type MsgKey = (MsgType, u32);

/// Messages of one type at consecutive call numbers, completed with one
/// segment count and one acked bit, none earlier than the one before.
#[derive(Debug)]
struct Run {
    /// The first message's call number.
    lo: u32,
    total: u8,
    /// An ack of each whole message went out.
    acked: bool,
    /// What the completion offsets count from, in whole ms.
    base: u64,
    /// The first message's completion, in ms past `base`.
    head: u16,
    /// The other messages' completions, in ms past `base`.
    rest: VecDeque<u16>,
}

/// `at` in whole milliseconds, rounded up.
fn ms_up(at: Time) -> u64 {
    at.as_micros().div_ceil(1_000)
}

impl Run {
    /// A run of the one message `cn`, unacknowledged.
    fn single(cn: u32, total: u8, at: Time) -> Run {
        Run {
            lo: cn,
            total,
            acked: false,
            base: ms_up(at),
            head: 0,
            rest: VecDeque::new(),
        }
    }

    /// A run of the message `i` places in alone.
    fn one(&self, i: usize) -> Run {
        Run {
            lo: self.lo + i as u32,
            head: self.offset(i),
            rest: VecDeque::new(),
            ..*self
        }
    }

    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// One past the last call number (wide: a run may end at `u32::MAX`).
    fn end(&self) -> u64 {
        u64::from(self.lo) + self.len() as u64
    }

    /// The completion offset of the message `i` places in.
    fn offset(&self, i: usize) -> u16 {
        if i == 0 {
            self.head
        } else {
            self.rest[i - 1]
        }
    }

    /// When the message `i` places in completed, rounded up to the ms.
    fn at(&self, i: usize) -> Time {
        Time::from_millis(self.base + u64::from(self.offset(i)))
    }

    /// Appends message `cn` if it is the next number, of the same shape
    /// and not older than the last; `false` if it belongs in a run of its
    /// own. An offset past `u16::MAX` ms (65.5 s) rebases the run on its
    /// first message, and splits it only if that is still too far.
    fn extend(&mut self, cn: u32, total: u8, at: Time) -> bool {
        let fits = u64::from(cn) == self.end() && total == self.total && !self.acked;
        let last = u64::from(self.offset(self.len() - 1));
        let offset = match ms_up(at).checked_sub(self.base) {
            Some(offset) if fits && offset >= last => offset,
            _ => return false,
        };
        let shift = if offset > u64::from(u16::MAX) {
            self.head
        } else {
            0
        };
        let Ok(offset) = u16::try_from(offset - u64::from(shift)) else {
            return false;
        };
        if shift > 0 {
            self.base += u64::from(shift);
            self.head = 0;
            self.rest.iter_mut().for_each(|o| *o -= shift);
        }
        self.rest.push_back(offset);
        true
    }

    /// Drops the first `k` messages (`k < len`).
    fn trim(&mut self, k: usize) {
        self.head = self.offset(k);
        self.rest.drain(..k);
        self.lo += k as u32;
    }

    /// Splits off the messages from `i` places in on (`0 < i < len`).
    fn split_off(&mut self, i: usize) -> Run {
        let mut rest = self.rest.split_off(i - 1);
        let head = rest.pop_front().expect("i < len");
        Run {
            lo: self.lo + i as u32,
            head,
            rest,
            ..*self
        }
    }
}

/// The index of the run holding `cn`, or where a run of `cn` alone goes.
fn find(runs: &VecDeque<Run>, cn: u32) -> Result<usize, usize> {
    // Most lookups are for the newest message: check the last run first.
    let i = match runs.back() {
        Some(last) if last.lo <= cn => runs.len(),
        _ => runs.partition_point(|r| r.lo <= cn),
    };
    match i.checked_sub(1) {
        Some(j) if u64::from(cn) < runs[j].end() => Ok(j),
        _ => Err(i),
    }
}

/// Where each message type's runs are kept.
fn slot(msg_type: MsgType) -> usize {
    match msg_type {
        MsgType::Call => 0,
        MsgType::Return => 1,
    }
}

/// The completed-exchange memory of one [`Endpoint`](crate::Endpoint).
#[derive(Debug, Default)]
pub struct ReplayLog {
    /// Calls' runs, then returns', each in key order (module docs).
    runs: [VecDeque<Run>; 2],
    /// Highest call number among *expired* Call records; arrivals at or
    /// below it are replays of exchanges no longer remembered. Calls above
    /// it that are still remembered are handled by `runs`, so a
    /// legitimate concurrent call that completes after a higher-numbered
    /// one is NOT mistaken for a replay.
    watermark: Option<u32>,
    /// Call numbers above the watermark delivered upward as Calls
    /// (exactly-once audit).
    delivered_calls: IdSet,
}

impl ReplayLog {
    /// An empty log.
    pub fn new() -> ReplayLog {
        ReplayLog::default()
    }

    fn get(&self, (msg_type, cn): MsgKey) -> Option<&Run> {
        let runs = &self.runs[slot(msg_type)];
        find(runs, cn).ok().map(|i| &runs[i])
    }

    /// Takes message `key` out of its run, splitting the run around it,
    /// and returns it as a run of its own with where that run goes; or,
    /// if it is not remembered, where a run of it would go.
    fn take(&mut self, (msg_type, cn): MsgKey) -> Result<(usize, Run), usize> {
        let runs = &mut self.runs[slot(msg_type)];
        let i = find(runs, cn)?;
        let run = &mut runs[i];
        let p = (cn - run.lo) as usize;
        if run.len() == 1 {
            return Ok((i, runs.remove(i).expect("found")));
        }
        let one = run.one(p);
        if p == 0 {
            run.trim(1);
            return Ok((i, one));
        }
        if p + 1 < run.len() {
            let right = run.split_off(p + 1);
            runs.insert(i + 1, right);
        }
        runs[i].rest.pop_back();
        Ok((i + 1, one))
    }

    /// Forgets every record completed `ttl` or longer before `now`,
    /// folding expired call numbers into the watermark and handing each
    /// to `expired_call`.
    pub fn purge(&mut self, now: Time, ttl: Duration, mut expired_call: impl FnMut(u32)) {
        let mut watermark = self.watermark;
        for (s, runs) in self.runs.iter_mut().enumerate() {
            runs.retain_mut(|run| {
                let expired = (0..run.len())
                    .take_while(|&i| now.since(run.at(i)) >= ttl)
                    .count();
                if s == slot(MsgType::Call) && expired > 0 {
                    let last = run.lo + (expired - 1) as u32;
                    watermark = Some(watermark.map_or(last, |wm| wm.max(last)));
                    (run.lo..=last).for_each(&mut expired_call);
                }
                if expired == run.len() {
                    return false;
                }
                run.trim(expired);
                true
            });
        }
        if watermark != self.watermark {
            self.watermark = watermark;
            let wm = watermark.expect("a watermark that moved is set");
            self.delivered_calls.remove_through(wm.into());
        }
    }

    /// Remembers that message `key`, of `total` segments, completed at
    /// `now`.
    pub fn record(&mut self, key: MsgKey, total: u8, now: Time) {
        let i = self.take(key).map_or_else(|i| i, |(i, _)| i);
        let runs = &mut self.runs[slot(key.0)];
        let extended =
            i == runs.len() && runs.back_mut().is_some_and(|r| r.extend(key.1, total, now));
        if !extended {
            runs.insert(i, Run::single(key.1, total, now));
        }
    }

    /// Notes that the remembered message `key` was acknowledged in full,
    /// explicitly.
    pub fn note_acked(&mut self, key: MsgKey) {
        if self.acked(key) == Some(false) {
            let (i, mut one) = self.take(key).expect("remembered");
            one.acked = true;
            self.runs[slot(key.0)].insert(i, one);
        }
    }

    /// Whether the remembered message `key` was acknowledged explicitly;
    /// `None` if it is not remembered.
    pub fn acked(&self, key: MsgKey) -> Option<bool> {
        self.get(key).map(|r| r.acked)
    }

    /// The segment count of the remembered message `key`, if it is still
    /// remembered.
    pub fn total_of(&self, key: MsgKey) -> Option<u8> {
        self.get(key).map(|r| r.total)
    }

    /// `true` if a call numbered `call_number` is a replay of an exchange
    /// whose record has expired.
    pub fn suppresses(&self, call_number: u32) -> bool {
        self.watermark.is_some_and(|wm| call_number <= wm)
    }

    /// Notes that call `call_number` is being delivered upward. Returns
    /// `false` if it was delivered before — an exactly-once violation.
    pub fn note_call_delivered(&mut self, call_number: u32) -> bool {
        self.delivered_calls.insert(call_number.into())
    }

    /// The replay watermark (see [`ReplayLog::suppresses`]).
    pub fn watermark(&self) -> Option<u32> {
        self.watermark
    }

    /// The remembered keys, sorted.
    pub fn keys(&self) -> Vec<MsgKey> {
        let types = [MsgType::Call, MsgType::Return];
        let runs = types.into_iter().zip(&self.runs);
        runs.flat_map(|(t, runs)| {
            runs.iter()
                .flat_map(move |r| (0..r.len() as u32).map(move |i| (t, r.lo + i)))
        })
        .collect()
    }

    /// Number of remembered messages.
    pub fn len(&self) -> usize {
        self.runs.iter().flatten().map(Run::len).sum()
    }

    /// `true` if nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(VecDeque::is_empty)
    }

    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.runs.iter().map(VecDeque::len).sum()
    }

    #[cfg(test)]
    pub(crate) fn audit_len(&self) -> u64 {
        self.delivered_calls.len()
    }

    /// Drops the record of `key` alone (not its audit entry): the fault a
    /// test injects to reach the exactly-once audit.
    #[cfg(test)]
    pub(crate) fn forget_record(&mut self, key: MsgKey) -> bool {
        self.take(key).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: Duration = Duration::from_secs(60);

    fn at(ms: u64) -> Time {
        Time::from_micros(ms * 1_000)
    }

    /// Purges, collecting the expired call numbers.
    fn purge(log: &mut ReplayLog, now: Time) -> Vec<u32> {
        let mut expired = Vec::new();
        log.purge(now, TTL, |cn| expired.push(cn));
        expired
    }

    #[test]
    fn records_expire_into_the_watermark() {
        let mut log = ReplayLog::new();
        log.record((MsgType::Call, 5), 1, at(0));
        log.record((MsgType::Return, 9), 3, at(10));
        log.record((MsgType::Call, 4), 1, at(20));
        assert!(purge(&mut log, at(59_999)).is_empty());
        assert_eq!(log.len(), 3);
        assert_eq!(log.watermark(), None);
        assert_eq!(purge(&mut log, at(60_010)), [5], "returns are not calls");
        assert_eq!(log.keys(), vec![(MsgType::Call, 4)]);
        assert_eq!(log.total_of((MsgType::Return, 9)), None);
        assert_eq!(log.watermark(), Some(5), "returns do not move it");
        assert!(log.suppresses(5) && log.suppresses(1) && !log.suppresses(6));
        // The lower-numbered straggler expires without lowering it.
        assert_eq!(purge(&mut log, at(60_020)), [4]);
        assert!(log.is_empty());
        assert_eq!(log.watermark(), Some(5));
    }

    #[test]
    fn the_acked_bit_lives_and_dies_with_its_record() {
        let mut log = ReplayLog::new();
        let key = (MsgType::Call, 3);
        assert_eq!(log.acked(key), None);
        log.note_acked(key);
        assert_eq!(log.acked(key), None, "nothing to mark");
        log.record(key, 1, at(0));
        assert_eq!(log.acked(key), Some(false));
        log.note_acked(key);
        assert_eq!(log.acked(key), Some(true));
        assert_eq!(purge(&mut log, at(60_000)), [3]);
        assert_eq!(log.acked(key), None);
    }

    #[test]
    fn a_key_recorded_again_lives_by_its_newer_time() {
        let mut log = ReplayLog::new();
        log.record((MsgType::Return, 1), 1, at(0));
        log.record((MsgType::Return, 1), 2, at(30_000));
        purge(&mut log, at(60_000));
        assert_eq!(log.total_of((MsgType::Return, 1)), Some(2));
        purge(&mut log, at(90_000));
        assert!(log.is_empty());
    }

    /// Records completed out of call-number order are found, replaced
    /// and expired as a map would have them, and `keys` comes back sorted.
    #[test]
    fn out_of_order_records_behave_as_a_map() {
        let mut log = ReplayLog::new();
        for (i, cn) in [5u32, 2, 9, 7, 2, 1].into_iter().enumerate() {
            log.record((MsgType::Return, cn), i as u8, at(i as u64));
        }
        log.record((MsgType::Call, 3), 1, at(10));
        let keys = |cns: &[u32]| {
            let returns = cns.iter().map(|&cn| (MsgType::Return, cn));
            [(MsgType::Call, 3)]
                .into_iter()
                .chain(returns)
                .collect::<Vec<_>>()
        };
        assert_eq!(log.keys(), keys(&[1, 2, 5, 7, 9]));
        assert_eq!(
            log.total_of((MsgType::Return, 2)),
            Some(4),
            "the newer record"
        );
        assert_eq!(log.total_of((MsgType::Return, 3)), None);
        // The first record of 2 is stale in the queue; its newer one lives.
        assert!(purge(&mut log, at(60_003)).is_empty(), "returns only");
        assert_eq!(log.keys(), keys(&[1, 2]));
        purge(&mut log, at(60_010));
        assert!(log.is_empty() && log.watermark() == Some(3));
    }

    /// Consecutive completions share one run; an explicit ack, a key
    /// completed again, a gap and an out-of-order completion each split
    /// off a run of their own, and every piece answers and expires as the
    /// records it holds would.
    #[test]
    fn runs_split_where_the_records_differ() {
        let call = |cn| (MsgType::Call, cn);
        let mut log = ReplayLog::new();
        for cn in 1..=10 {
            log.record(call(cn), 1, at(cn as u64));
        }
        assert_eq!(log.run_count(), 1);
        log.note_acked(call(5));
        assert_eq!(log.run_count(), 3, "[1, 4] [5] [6, 10]");
        log.record(call(8), 2, at(20));
        log.record(call(12), 1, at(21));
        log.record(call(11), 1, at(22));
        assert_eq!(
            log.run_count(),
            7,
            "[1, 4] [5] [6, 7] [8] [9, 10] [11] [12]"
        );
        assert_eq!(log.len(), 12);
        assert_eq!(log.acked(call(5)), Some(true));
        assert_eq!(log.acked(call(6)), Some(false));
        assert_eq!(log.total_of(call(8)), Some(2));
        assert_eq!(log.total_of(call(9)), Some(1));
        assert_eq!(purge(&mut log, at(60_010)), [1, 2, 3, 4, 5, 6, 7, 9, 10]);
        assert_eq!(log.keys(), [8, 11, 12].map(call));
        assert_eq!(log.watermark(), Some(10));
        // An offset past `u16::MAX` ms of the run's first message starts a
        // run of its own.
        let late = at(21 + 65_536);
        log.record(call(13), 1, late);
        assert_eq!(log.run_count(), 4, "[8] [11] [12] [13]");
        assert_eq!(purge(&mut log, late), [8, 11, 12]);
        assert_eq!(log.keys(), [call(13)]);
    }

    /// A run whose next offset would pass `u16::MAX` ms moves its base up
    /// to its first remembered message rather than split, and its records
    /// still expire at their own times.
    #[test]
    fn a_run_rebases_on_its_first_remembered_message() {
        let call = |cn| (MsgType::Call, cn);
        let mut log = ReplayLog::new();
        for (cn, ms) in [(1, 0), (2, 30_000), (3, 50_000)] {
            log.record(call(cn), 1, at(ms));
        }
        assert_eq!(purge(&mut log, at(60_000)), [1]);
        log.record(call(4), 1, at(70_000));
        assert_eq!(log.run_count(), 1, "[2, 4], based on 2");
        assert!(purge(&mut log, at(89_999)).is_empty());
        assert_eq!(purge(&mut log, at(90_000)), [2]);
        assert_eq!(purge(&mut log, at(129_999)), [3]);
        assert_eq!(purge(&mut log, at(130_000)), [4]);
    }

    /// A completion time is kept rounded up to the whole millisecond: its
    /// record outlives the TTL by less than 1 ms, never falls short of it.
    #[test]
    fn a_record_expires_within_a_millisecond_after_its_ttl() {
        let mut log = ReplayLog::new();
        let done = Time::from_micros(1_001);
        log.record((MsgType::Call, 1), 1, done);
        let past = |us| Time::from_micros(done.as_micros() + us);
        assert!(purge(&mut log, past(60_000_000 - 1)).is_empty());
        assert!(purge(&mut log, past(60_000_998)).is_empty());
        assert_eq!(purge(&mut log, past(60_000_999)), [1]);
    }

    #[test]
    fn audit_forgets_what_the_watermark_covers() {
        let mut log = ReplayLog::new();
        for cn in 1..=3 {
            assert!(log.note_call_delivered(cn));
            log.record((MsgType::Call, cn), 1, at(cn as u64));
        }
        assert!(!log.note_call_delivered(2), "duplicate above the watermark");
        assert_eq!(purge(&mut log, at(60_002)), [1, 2]);
        assert_eq!(log.watermark(), Some(2));
        assert_eq!(log.delivered_calls.ranges().collect::<Vec<_>>(), [(3, 3)]);
    }
}
