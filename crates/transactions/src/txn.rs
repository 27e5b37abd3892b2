//! The local transaction manager of one troupe member (§5.2).
//!
//! Combines the volatile store and two-phase locking into the "local
//! concurrency control method" that the troupe commit protocol is
//! generic over (§5.3): any local method works "as long as it correctly
//! serializes the effects of transactions".
//!
//! A transaction arrives as a batch of operations, with its [`Stamp`].
//! Locks are acquired in operation order; a conflict suspends the
//! transaction (the caller re-runs it when the blocker finishes) if
//! every transaction it would wait behind is older, and aborts it at
//! once if any is younger: a younger transaction has overtaken it here.
//! Every wait then points at an older transaction, so no cycle of waits
//! can close, at one member or across the troupe's vote assemblies
//! (Theorem 5.1's deadlocks).

use wire::VecMap;

use crate::lock::{Acquire, LockManager, Mode};
use crate::store::{ObjId, Store, TxnId};
use circus::ThreadId;

/// A transaction's age: its client's clock at submission, in
/// microseconds, then the distributed thread it was submitted on. The
/// smaller stamp is the older transaction; a retry is a new transaction
/// with a later stamp.
pub type Stamp = (u64, ThreadId);

wire::choice! {
    /// One operation within a transaction.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum Op {
        /// Read an object (shared lock); yields its value.
        Read(ObjId) = 0,
        /// Overwrite an object (exclusive lock); yields the new value.
        Write(ObjId, i64) = 1,
        /// Add a delta to an object (exclusive lock); yields the new value.
        Add(ObjId, i64) = 2,
    }
}

impl Op {
    fn obj(&self) -> ObjId {
        match self {
            Op::Read(o) | Op::Write(o, _) | Op::Add(o, _) => *o,
        }
    }

    fn mode(&self) -> Mode {
        match self {
            Op::Read(_) => Mode::Shared,
            Op::Write(..) | Op::Add(..) => Mode::Exclusive,
        }
    }
}

/// Result of attempting to run a transaction's operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecOutcome {
    /// All locks held and operations applied tentatively; per-op results.
    Executed(Vec<i64>),
    /// Queued behind the given transaction, and every transaction it
    /// waits behind is older; re-run when unblocked.
    MustWait(TxnId),
    /// A younger transaction holds, or is queued ahead for, a lock this
    /// one needs: this member ordered the two against their stamps. The
    /// transaction has been aborted here, and should be retried by the
    /// client; the transactions its release granted locks are listed (the
    /// caller should re-run them).
    Overtaken(Vec<TxnId>),
}

/// The per-member transaction manager.
#[derive(Debug, Default)]
pub struct LocalTm {
    store: Store,
    locks: LockManager,
    /// The stamp of every transaction that holds or waits for a lock.
    stamps: VecMap<TxnId, Stamp>,
}

impl LocalTm {
    /// A fresh manager with an empty store.
    pub fn new() -> LocalTm {
        LocalTm::default()
    }

    /// Read access to the store (observers/tests).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable store access (state transfer).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Attempts to execute `ops` under `txn`, stamped `stamp`. Safe to
    /// call repeatedly after `MustWait`: lock acquisition is re-entrant
    /// and tentative writes happen only once all locks are held.
    pub fn try_execute(&mut self, txn: TxnId, stamp: Stamp, ops: &[Op]) -> ExecOutcome {
        self.stamps.insert(txn, stamp);
        for op in ops {
            match self.locks.acquire(txn, op.obj(), op.mode()) {
                Acquire::Granted => {}
                Acquire::Waiting(blocker) if self.may_wait(txn, &stamp, op.obj()) => {
                    return ExecOutcome::MustWait(blocker);
                }
                Acquire::Waiting(_) => return ExecOutcome::Overtaken(self.abort(txn)),
            }
        }
        let writes = ops.iter().filter(|op| op.mode() == Mode::Exclusive);
        self.store.reserve(txn, writes.count());
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            let v = match op {
                Op::Read(o) => self.store.read(txn, *o),
                Op::Write(o, v) => {
                    self.store.write(txn, *o, *v);
                    *v
                }
                Op::Add(o, d) => {
                    let v = self.store.read(txn, *o) + d;
                    self.store.write(txn, *o, v);
                    v
                }
            };
            results.push(v);
        }
        ExecOutcome::Executed(results)
    }

    /// Whether `txn`, stamped `stamp` and queued for `obj`, waits behind
    /// older transactions only. The one place two stamps are compared.
    fn may_wait(&self, txn: TxnId, stamp: &Stamp, obj: ObjId) -> bool {
        let older = |t| self.stamps.get(&t).is_some_and(|theirs| theirs < stamp);
        self.locks.ahead(txn, obj).all(older)
    }

    /// Commits `txn`; returns its writes in object order (its commit-log
    /// record's, see [`Store::commit`]) and the transactions granted locks
    /// by the release (the caller should re-run them).
    pub fn commit(&mut self, txn: TxnId) -> (Vec<(u64, i64)>, Vec<TxnId>) {
        let writes = self.store.commit(txn);
        self.stamps.remove(&txn);
        (writes, self.locks.release_all(txn))
    }

    /// Aborts `txn`; returns transactions granted locks by the release.
    pub fn abort(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.store.abort(txn);
        self.stamps.remove(&txn);
        self.locks.release_all(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{HostId, SockAddr};

    const A: ObjId = ObjId(1);
    const B: ObjId = ObjId(2);
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    /// The stamp of a transaction submitted at `us` on thread 1 of its
    /// client: the smaller `us`, the older.
    fn at(us: u64) -> Stamp {
        let origin = SockAddr::new(HostId(10), 50);
        (us, ThreadId { origin, serial: 1 })
    }

    #[test]
    fn simple_transaction_commits() {
        let mut tm = LocalTm::new();
        let out = tm.try_execute(T1, at(1), &[Op::Write(A, 5), Op::Read(A)]);
        assert_eq!(out, ExecOutcome::Executed(vec![5, 5]));
        tm.commit(T1);
        assert_eq!(tm.store().read_committed(A), 5);
    }

    #[test]
    fn a_younger_transaction_waits_then_runs() {
        let mut tm = LocalTm::new();
        assert!(matches!(
            tm.try_execute(T1, at(1), &[Op::Add(A, 1)]),
            ExecOutcome::Executed(_)
        ));
        assert_eq!(
            tm.try_execute(T2, at(2), &[Op::Add(A, 10)]),
            ExecOutcome::MustWait(T1)
        );
        let (writes, unblocked) = tm.commit(T1);
        assert_eq!((writes, unblocked), (vec![(A.0, 1)], vec![T2]));
        // Re-run T2: it sees T1's committed value.
        assert_eq!(
            tm.try_execute(T2, at(2), &[Op::Add(A, 10)]),
            ExecOutcome::Executed(vec![11])
        );
        tm.commit(T2);
        assert_eq!(tm.store().read_committed(A), 11);
    }

    /// Two transactions that lock A and B in opposite orders: the younger
    /// waits behind the older, and the older, finding the younger ahead
    /// of it, is aborted rather than close the cycle. Its abort grants
    /// the younger A, and the younger runs.
    #[test]
    fn an_older_transaction_never_waits_behind_a_younger_one() {
        let mut tm = LocalTm::new();
        assert!(matches!(
            tm.try_execute(T1, at(1), &[Op::Add(A, 1)]),
            ExecOutcome::Executed(_)
        ));
        assert!(matches!(
            tm.try_execute(T2, at(2), &[Op::Add(B, 1)]),
            ExecOutcome::Executed(_)
        ));
        assert_eq!(
            tm.try_execute(T2, at(2), &[Op::Add(B, 1), Op::Add(A, 1)]),
            ExecOutcome::MustWait(T1)
        );
        assert_eq!(
            tm.try_execute(T1, at(1), &[Op::Add(A, 1), Op::Add(B, 1)]),
            ExecOutcome::Overtaken(vec![T2])
        );
        assert!(matches!(
            tm.try_execute(T2, at(2), &[Op::Add(B, 1), Op::Add(A, 1)]),
            ExecOutcome::Executed(_)
        ));
    }

    /// The thread breaks a tie between two transactions submitted in the
    /// same microsecond, and a waiter queued ahead counts as a holder
    /// does.
    #[test]
    fn a_waiter_ahead_counts_and_the_thread_breaks_a_tie() {
        let mut tm = LocalTm::new();
        let (t3, later_thread) = (
            TxnId(3),
            (
                5,
                ThreadId {
                    serial: 2,
                    ..at(5).1
                },
            ),
        );
        tm.try_execute(T1, at(1), &[Op::Add(A, 1)]);
        assert_eq!(
            tm.try_execute(t3, later_thread, &[Op::Read(A)]),
            ExecOutcome::MustWait(T1)
        );
        let overtaken = ExecOutcome::Overtaken(Vec::new());
        assert_eq!(tm.try_execute(T2, at(5), &[Op::Read(A)]), overtaken);
    }

    #[test]
    fn aborted_writes_vanish() {
        let mut tm = LocalTm::new();
        tm.try_execute(T1, at(1), &[Op::Write(A, 99)]);
        tm.abort(T1);
        assert_eq!(tm.store().read_committed(A), 0);
        // And the lock is free.
        assert!(matches!(
            tm.try_execute(T2, at(2), &[Op::Read(A)]),
            ExecOutcome::Executed(_)
        ));
    }

    #[test]
    fn readers_share() {
        let mut tm = LocalTm::new();
        assert!(matches!(
            tm.try_execute(T1, at(2), &[Op::Read(A)]),
            ExecOutcome::Executed(_)
        ));
        assert!(matches!(
            tm.try_execute(T2, at(1), &[Op::Read(A)]),
            ExecOutcome::Executed(_)
        ));
    }

    #[test]
    fn ops_round_trip_wire() {
        use wire::{from_bytes, to_bytes};
        let ops = vec![Op::Read(A), Op::Write(B, -7), Op::Add(A, 1 << 40)];
        assert_eq!(from_bytes::<Vec<Op>>(&to_bytes(&ops)).unwrap(), ops);
    }
}
