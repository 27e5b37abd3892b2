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
//! Expiry is O(expired), not O(remembered): records are also queued in
//! completion order, and the endpoint's clock never runs backwards, so the
//! expired records are always a prefix of that queue. (Fed a clock that
//! does run backwards, the log stays correct but may keep a record past
//! its time, until everything queued before it has expired too.)
//!
//! The records themselves are kept in one queue in key order — calls by
//! number, then returns by number — and found by binary search: call
//! numbers rise per peer, so a record almost always lands at the back of
//! its type's run and expires from the front of it, and the log holds no
//! hash table and allocates nothing per record once its queues have grown
//! to the window.
//!
//! Everything here is bounded by the TTL window: the records, the queue,
//! and the exactly-once audit set, which forgets a call number as soon as
//! the watermark covers it — arrivals that low are suppressed before they
//! could be delivered twice, so the audit cannot fire for them anyway.

use std::collections::{BTreeSet, VecDeque};

use crate::segment::MsgType;
use simnet::{Duration, Time};

/// Identifies one message of one exchange.
pub type MsgKey = (MsgType, u32);

#[derive(Debug)]
struct Completed {
    total: u8,
    at: Time,
    /// An ack of the whole message went out.
    acked: bool,
}

/// The remembered messages, ascending by key.
#[derive(Debug, Default)]
struct Records(VecDeque<(MsgKey, Completed)>);

impl Records {
    /// Where `key`'s record is, or where it would go.
    fn find(&self, key: MsgKey) -> Result<usize, usize> {
        // Most lookups are for the newest record: check the back first.
        match self.0.back() {
            Some(&(last, _)) if last < key => Err(self.0.len()),
            _ => self.0.binary_search_by_key(&key, |&(k, _)| k),
        }
    }

    fn get(&self, key: MsgKey) -> Option<&Completed> {
        self.find(key).ok().map(|i| &self.0[i].1)
    }

    fn get_mut(&mut self, key: MsgKey) -> Option<&mut Completed> {
        self.find(key).ok().map(|i| &mut self.0[i].1)
    }

    fn insert(&mut self, key: MsgKey, record: Completed) {
        match self.find(key) {
            Ok(i) => self.0[i].1 = record,
            Err(i) => self.0.insert(i, (key, record)),
        }
    }

    fn remove(&mut self, key: MsgKey) -> Option<Completed> {
        let i = self.find(key).ok()?;
        self.0.remove(i).map(|(_, c)| c)
    }
}

/// The completed-exchange memory of one [`Endpoint`](crate::Endpoint).
#[derive(Debug, Default)]
pub struct ReplayLog {
    /// In key order (module docs).
    records: Records,
    /// `(key, completion time)` in completion order. An entry whose time
    /// no longer matches its record (the key was recorded again) is stale
    /// and skipped.
    order: VecDeque<(MsgKey, Time)>,
    /// Highest call number among *expired* Call records; arrivals at or
    /// below it are replays of exchanges no longer remembered. Calls above
    /// it that are still remembered are handled by `records`, so a
    /// legitimate concurrent call that completes after a higher-numbered
    /// one is NOT mistaken for a replay.
    watermark: Option<u32>,
    /// Call numbers above the watermark delivered upward as Calls
    /// (exactly-once audit).
    delivered_calls: BTreeSet<u32>,
}

impl ReplayLog {
    /// An empty log.
    pub fn new() -> ReplayLog {
        ReplayLog::default()
    }

    /// Forgets every record completed `ttl` or longer before `now`,
    /// folding expired call numbers into the watermark and handing each
    /// to `expired_call`.
    pub fn purge(&mut self, now: Time, ttl: Duration, mut expired_call: impl FnMut(u32)) {
        let before = self.watermark;
        while let Some(&(key, at)) = self.order.front() {
            if now.since(at) < ttl {
                break;
            }
            self.order.pop_front();
            if self.records.get(key).is_some_and(|c| c.at == at) {
                self.records.remove(key);
                if let (MsgType::Call, cn) = key {
                    self.watermark = Some(self.watermark.map_or(cn, |wm| wm.max(cn)));
                    expired_call(cn);
                }
            }
        }
        if self.watermark != before {
            let wm = self.watermark.expect("a watermark that moved is set");
            while self.delivered_calls.first().is_some_and(|&cn| cn <= wm) {
                self.delivered_calls.pop_first();
            }
        }
    }

    /// Remembers that message `key`, of `total` segments, completed at
    /// `now`.
    pub fn record(&mut self, key: MsgKey, total: u8, now: Time) {
        let record = Completed {
            total,
            at: now,
            acked: false,
        };
        self.records.insert(key, record);
        self.order.push_back((key, now));
    }

    /// Notes that the remembered message `key` was acknowledged in full,
    /// explicitly.
    pub fn note_acked(&mut self, key: MsgKey) {
        if let Some(c) = self.records.get_mut(key) {
            c.acked = true;
        }
    }

    /// Whether the remembered message `key` was acknowledged explicitly;
    /// `None` if it is not remembered.
    pub fn acked(&self, key: MsgKey) -> Option<bool> {
        self.records.get(key).map(|c| c.acked)
    }

    /// The segment count of the remembered message `key`, if it is still
    /// remembered.
    pub fn total_of(&self, key: MsgKey) -> Option<u8> {
        self.records.get(key).map(|c| c.total)
    }

    /// `true` if a call numbered `call_number` is a replay of an exchange
    /// whose record has expired.
    pub fn suppresses(&self, call_number: u32) -> bool {
        self.watermark.is_some_and(|wm| call_number <= wm)
    }

    /// Notes that call `call_number` is being delivered upward. Returns
    /// `false` if it was delivered before — an exactly-once violation.
    pub fn note_call_delivered(&mut self, call_number: u32) -> bool {
        self.delivered_calls.insert(call_number)
    }

    /// The replay watermark (see [`ReplayLog::suppresses`]).
    pub fn watermark(&self) -> Option<u32> {
        self.watermark
    }

    /// The remembered keys, sorted.
    pub fn keys(&self) -> Vec<MsgKey> {
        self.records.0.iter().map(|&(key, _)| key).collect()
    }

    /// Number of remembered messages.
    pub fn len(&self) -> usize {
        self.records.0.len()
    }

    /// `true` if nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[cfg(test)]
    pub(crate) fn order_len(&self) -> usize {
        self.order.len()
    }

    #[cfg(test)]
    pub(crate) fn audit_len(&self) -> usize {
        self.delivered_calls.len()
    }

    /// Drops the record of `key` alone (not its audit entry): the fault a
    /// test injects to reach the exactly-once audit.
    #[cfg(test)]
    pub(crate) fn forget_record(&mut self, key: MsgKey) -> bool {
        self.records.remove(key).is_some()
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
        assert_eq!(log.delivered_calls.iter().copied().collect::<Vec<_>>(), [3]);
    }
}
