//! Two-phase locking (§2.3.1, §5.2.1).
//!
//! "The simplest version of two-phase locking associates a lock with each
//! shared object"; this manager supports shared/exclusive modes so
//! operations that do not conflict proceed concurrently, and FIFO wait
//! queues. Each transaction holds all acquired locks until it commits or
//! aborts, which guarantees serializability.

use std::collections::{BTreeMap, VecDeque};

use crate::store::{ObjId, TxnId};

/// The lock mode of one request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Shared (read) — compatible with other shared locks.
    Shared,
    /// Exclusive (write) — compatible with nothing.
    Exclusive,
}

impl Mode {
    fn compatible(self, other: Mode) -> bool {
        matches!((self, other), (Mode::Shared, Mode::Shared))
    }
}

/// The holders of one lock and their (strongest) modes, in transaction
/// order. A lone holder — every exclusive lock, and most shared ones —
/// is held in place; only two or more (shared) holders spill to a map,
/// a vector sorted by transaction, which folds back when one is left.
/// Either way the entry is as small as the one vector.
#[derive(Debug, Default)]
enum Holders {
    #[default]
    None,
    One(TxnId, Mode),
    Many(Vec<(TxnId, Mode)>),
}

const _: () = assert!(std::mem::size_of::<Holders>() == std::mem::size_of::<Vec<(TxnId, Mode)>>());

impl Holders {
    fn iter(&self) -> impl Iterator<Item = (TxnId, Mode)> + '_ {
        let (one, many) = match self {
            Holders::None => (None, None),
            Holders::One(t, m) => (Some((*t, *m)), None),
            Holders::Many(many) => (None, Some(many)),
        };
        let many = many.into_iter().flatten().copied();
        one.into_iter().chain(many)
    }

    fn get(&self, txn: TxnId) -> Option<Mode> {
        self.iter().find(|(t, _)| *t == txn).map(|(_, m)| m)
    }

    fn is_empty(&self) -> bool {
        matches!(self, Holders::None)
    }

    /// `true` if `txn` holds the lock and nobody else does.
    fn is_only(&self, txn: TxnId) -> bool {
        matches!(self, Holders::One(t, _) if *t == txn)
    }

    /// Adds `txn` in `mode`, or sets the mode it holds in.
    fn insert(&mut self, txn: TxnId, mode: Mode) {
        match self {
            Holders::None => *self = Holders::One(txn, mode),
            Holders::One(t, m) if *t == txn => *m = mode,
            Holders::One(t, m) => {
                let mut many = vec![(*t, *m), (txn, mode)];
                many.sort_unstable_by_key(|&(t, _)| t);
                *self = Holders::Many(many);
            }
            Holders::Many(many) => match many.binary_search_by_key(&txn, |&(t, _)| t) {
                Ok(i) => many[i].1 = mode,
                Err(i) => many.insert(i, (txn, mode)),
            },
        }
    }

    fn remove(&mut self, txn: TxnId) {
        match self {
            Holders::One(t, _) if *t == txn => *self = Holders::None,
            Holders::Many(many) => {
                many.retain(|&(t, _)| t != txn);
                if let [(t, m)] = many[..] {
                    *self = Holders::One(t, m);
                }
            }
            _ => {}
        }
    }

    /// Whether `mode` may be granted to `txn` beside the holders: every
    /// holder is compatible with it, or `txn` upgrades with no co-holder.
    fn admit(&self, txn: TxnId, mode: Mode) -> bool {
        self.iter().all(|(_, h)| h.compatible(mode))
            || (mode == Mode::Exclusive && self.is_only(txn))
    }
}

#[derive(Debug, Default)]
struct LockState {
    holders: Holders,
    /// FIFO queue of waiting requests.
    waiters: VecDeque<(TxnId, Mode)>,
}

/// Outcome of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Acquire {
    /// The lock is held; proceed.
    Granted,
    /// Queued; the returned transaction is one the requester now waits
    /// behind. [`LockManager::ahead`] names every one.
    Waiting(TxnId),
}

/// The lock table.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: BTreeMap<ObjId, LockState>,
}

impl LockManager {
    /// An empty lock table.
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Requests `obj` in `mode` for `txn`. Re-entrant: a holder asking
    /// again (or upgrading S→X when it is the only holder) is granted —
    /// queued waiters do not block a sole holder's upgrade, they are
    /// behind it either way.
    pub fn acquire(&mut self, txn: TxnId, obj: ObjId, mode: Mode) -> Acquire {
        let state = self.locks.entry(obj).or_default();
        if let Some(held) = state.holders.get(txn) {
            match (held, mode) {
                (Mode::Exclusive, _) | (_, Mode::Shared) => return Acquire::Granted,
                (Mode::Shared, Mode::Exclusive) => {
                    if state.holders.is_only(txn) {
                        state.holders.insert(txn, Mode::Exclusive);
                        return Acquire::Granted;
                    }
                    // Upgrade blocked by a co-holder.
                    let (blocker, _) = (state.holders.iter())
                        .find(|(t, _)| *t != txn)
                        .expect("another holder exists");
                    state.waiters.push_back((txn, mode));
                    return Acquire::Waiting(blocker);
                }
            }
        }
        let all_compatible = state.holders.iter().all(|(_, h)| h.compatible(mode));
        if all_compatible && state.waiters.is_empty() {
            state.holders.insert(txn, mode);
            Acquire::Granted
        } else {
            let blocker = (state.holders.iter().next().map(|(t, _)| t))
                .or_else(|| state.waiters.front().map(|(t, _)| *t))
                .expect("conflict implies a holder or waiter");
            state.waiters.push_back((txn, mode));
            Acquire::Waiting(blocker)
        }
    }

    /// Releases everything `txn` holds or waits for; returns the
    /// transactions granted locks as a result (they may now be runnable),
    /// in transaction order, each once. Allocates only when it grants.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut granted = Vec::new();
        self.locks.retain(|_, state| {
            state.holders.remove(txn);
            state.waiters.retain(|(t, _)| *t != txn);
            // Promote waiters FIFO while compatible.
            while let Some(&(waiter, mode)) = state.waiters.front() {
                if !state.holders.admit(waiter, mode) {
                    break;
                }
                state.waiters.pop_front();
                state.holders.insert(waiter, mode);
                granted.push(waiter);
            }
            !(state.holders.is_empty() && state.waiters.is_empty())
        });
        granted.sort_unstable();
        granted.dedup();
        granted
    }

    /// The transactions `txn`'s queued request for `obj` waits behind:
    /// the holders its mode conflicts with, then the waiters queued ahead
    /// of it. Nothing if `txn` is not queued for `obj`.
    pub fn ahead(&self, txn: TxnId, obj: ObjId) -> impl Iterator<Item = TxnId> + '_ {
        let queued = self.locks.get(&obj).and_then(|state| {
            let at = state.waiters.iter().position(|&(t, _)| t == txn)?;
            Some((state, at, state.waiters[at].1))
        });
        queued.into_iter().flat_map(move |(state, at, mode)| {
            let holders = state.holders.iter();
            let holders = holders.filter(move |&(t, held)| t != txn && !held.compatible(mode));
            let waiters = state.waiters.iter().take(at);
            holders.map(|(t, _)| t).chain(waiters.map(|&(t, _)| t))
        })
    }

    /// Whether `txn` currently holds `obj` in at least `mode`.
    pub fn holds(&self, txn: TxnId, obj: ObjId, mode: Mode) -> bool {
        self.locks
            .get(&obj)
            .and_then(|s| s.holders.get(txn))
            .map(|h| h == Mode::Exclusive || mode == Mode::Shared)
            .unwrap_or(false)
    }

    /// Number of objects with any lock activity (for tests).
    pub fn active_objects(&self) -> usize {
        self.locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjId = ObjId(1);
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const T3: TxnId = TxnId(3);

    #[test]
    fn shared_locks_are_compatible() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, A, Mode::Shared), Acquire::Granted);
        assert_eq!(lm.acquire(T2, A, Mode::Shared), Acquire::Granted);
        assert!(lm.holds(T1, A, Mode::Shared));
        assert!(lm.holds(T2, A, Mode::Shared));
    }

    #[test]
    fn exclusive_conflicts() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, A, Mode::Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(T2, A, Mode::Shared), Acquire::Waiting(T1));
        assert_eq!(lm.acquire(T3, A, Mode::Exclusive), Acquire::Waiting(T1));
    }

    #[test]
    fn release_promotes_fifo() {
        let mut lm = LockManager::new();
        lm.acquire(T1, A, Mode::Exclusive);
        lm.acquire(T2, A, Mode::Exclusive);
        lm.acquire(T3, A, Mode::Shared);
        let granted = lm.release_all(T1);
        assert_eq!(granted, vec![T2], "FIFO: T2 before T3");
        let granted = lm.release_all(T2);
        assert_eq!(granted, vec![T3]);
    }

    #[test]
    fn reentrant_acquire() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, A, Mode::Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(T1, A, Mode::Shared), Acquire::Granted);
        assert_eq!(lm.acquire(T1, A, Mode::Exclusive), Acquire::Granted);
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, A, Mode::Shared), Acquire::Granted);
        assert_eq!(lm.acquire(T1, A, Mode::Exclusive), Acquire::Granted);
        assert!(lm.holds(T1, A, Mode::Exclusive));
    }

    /// A sole S-holder upgrading while others queue behind it: there is
    /// no co-holder to wait for, so the upgrade is granted in place (this
    /// state used to panic looking for "another holder").
    #[test]
    fn sole_holder_upgrades_past_queued_waiters() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, A, Mode::Shared), Acquire::Granted);
        assert_eq!(lm.acquire(T2, A, Mode::Exclusive), Acquire::Waiting(T1));
        assert_eq!(lm.acquire(T1, A, Mode::Exclusive), Acquire::Granted);
        assert!(lm.holds(T1, A, Mode::Exclusive));
        // The waiter is still queued, and gets the lock once T1 is done.
        assert!(!lm.holds(T2, A, Mode::Shared));
        assert_eq!(lm.release_all(T1), vec![T2]);
        assert!(lm.holds(T2, A, Mode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_coholder() {
        let mut lm = LockManager::new();
        lm.acquire(T1, A, Mode::Shared);
        lm.acquire(T2, A, Mode::Shared);
        assert_eq!(lm.acquire(T1, A, Mode::Exclusive), Acquire::Waiting(T2));
        // When T2 releases, T1's upgrade is granted.
        let granted = lm.release_all(T2);
        assert_eq!(granted, vec![T1]);
        assert!(lm.holds(T1, A, Mode::Exclusive));
    }

    #[test]
    fn waiters_cut_in_line_is_prevented() {
        let mut lm = LockManager::new();
        lm.acquire(T1, A, Mode::Shared);
        lm.acquire(T2, A, Mode::Exclusive); // Waits.
                                            // T3's shared request must queue behind T2's exclusive one, even
                                            // though it is compatible with the current holder.
        assert!(matches!(
            lm.acquire(T3, A, Mode::Shared),
            Acquire::Waiting(_)
        ));
    }

    /// An upgrade waits behind its co-holders; a shared request behind a
    /// queued exclusive one waits behind that waiter, not behind the
    /// shared holder it is compatible with.
    #[test]
    fn ahead_names_conflicting_holders_then_earlier_waiters() {
        let mut lm = LockManager::new();
        const T4: TxnId = TxnId(4);
        lm.acquire(T1, A, Mode::Shared);
        lm.acquire(T2, A, Mode::Shared);
        assert_eq!(lm.acquire(T3, A, Mode::Exclusive), Acquire::Waiting(T1));
        lm.acquire(T4, A, Mode::Shared);
        assert_eq!(lm.acquire(T1, A, Mode::Exclusive), Acquire::Waiting(T2));
        let ahead = |lm: &LockManager, t| lm.ahead(t, A).collect::<Vec<_>>();
        assert_eq!(ahead(&lm, T3), [T1, T2]);
        assert_eq!(ahead(&lm, T4), [T3]);
        assert_eq!(ahead(&lm, T1), [T2, T3, T4]);
        assert_eq!(ahead(&lm, T2), [], "a holder waits for nothing");
    }

    #[test]
    fn release_cleans_empty_entries() {
        let mut lm = LockManager::new();
        lm.acquire(T1, A, Mode::Exclusive);
        lm.release_all(T1);
        assert_eq!(lm.active_objects(), 0);
    }
}
