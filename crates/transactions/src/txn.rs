//! The local transaction manager of one troupe member (§5.2).
//!
//! Combines the volatile store, two-phase locking, and waits-for deadlock
//! detection into the "local concurrency control method" that the troupe
//! commit protocol is generic over (§5.3): any local method works "as
//! long as it correctly serializes the effects of transactions".
//!
//! A transaction arrives as a batch of operations. Locks are acquired in
//! operation order; a conflict suspends the transaction (the caller
//! re-runs it when the blocker finishes), and a waits-for cycle aborts it
//! immediately.

use crate::deadlock::WaitsFor;
use crate::lock::{Acquire, LockManager, Mode};
use crate::store::{ObjId, Store, TxnId};

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
    /// Blocked on a lock held by the given transaction; re-run when
    /// unblocked.
    MustWait(TxnId),
    /// Waiting would close a waits-for cycle (§2.3.1): the transaction
    /// has been aborted and should be retried by the client.
    Deadlock,
}

/// The per-member transaction manager.
#[derive(Debug, Default)]
pub struct LocalTm {
    store: Store,
    locks: LockManager,
    waits: WaitsFor,
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

    /// Attempts to execute `ops` under `txn`. Safe to call repeatedly
    /// after `MustWait`: lock acquisition is re-entrant and tentative
    /// writes happen only once all locks are held.
    pub fn try_execute(&mut self, txn: TxnId, ops: &[Op]) -> ExecOutcome {
        for op in ops {
            match self.locks.acquire(txn, op.obj(), op.mode()) {
                Acquire::Granted => {}
                Acquire::Waiting(blocker) => {
                    self.waits.add(txn, blocker);
                    if self.waits.on_cycle(txn) {
                        // Break the deadlock by aborting the requester
                        // ("any transaction in the cycle may be aborted
                        // and restarted", §2.3.1).
                        self.abort(txn);
                        return ExecOutcome::Deadlock;
                    }
                    return ExecOutcome::MustWait(blocker);
                }
            }
        }
        self.waits.remove(txn);
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

    /// Commits `txn`; returns its writes in object order (its commit-log
    /// record's, see [`Store::commit`]) and the transactions granted locks
    /// by the release (the caller should re-run them).
    pub fn commit(&mut self, txn: TxnId) -> (Vec<(u64, i64)>, Vec<TxnId>) {
        let writes = self.store.commit(txn);
        self.waits.remove(txn);
        (writes, self.locks.release_all(txn))
    }

    /// Aborts `txn`; returns transactions granted locks by the release.
    pub fn abort(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.store.abort(txn);
        self.waits.remove(txn);
        self.locks.release_all(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjId = ObjId(1);
    const B: ObjId = ObjId(2);
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    #[test]
    fn simple_transaction_commits() {
        let mut tm = LocalTm::new();
        let out = tm.try_execute(T1, &[Op::Write(A, 5), Op::Read(A)]);
        assert_eq!(out, ExecOutcome::Executed(vec![5, 5]));
        tm.commit(T1);
        assert_eq!(tm.store().read_committed(A), 5);
    }

    #[test]
    fn conflicting_transaction_waits_then_runs() {
        let mut tm = LocalTm::new();
        assert!(matches!(
            tm.try_execute(T1, &[Op::Add(A, 1)]),
            ExecOutcome::Executed(_)
        ));
        assert_eq!(
            tm.try_execute(T2, &[Op::Add(A, 10)]),
            ExecOutcome::MustWait(T1)
        );
        let (writes, unblocked) = tm.commit(T1);
        assert_eq!((writes, unblocked), (vec![(A.0, 1)], vec![T2]));
        // Re-run T2: it sees T1's committed value.
        assert_eq!(
            tm.try_execute(T2, &[Op::Add(A, 10)]),
            ExecOutcome::Executed(vec![11])
        );
        tm.commit(T2);
        assert_eq!(tm.store().read_committed(A), 11);
    }

    #[test]
    fn deadlock_detected_and_aborted() {
        let mut tm = LocalTm::new();
        // T1 locks A; T2 locks B; then T1 wants B and T2 wants A.
        assert!(matches!(
            tm.try_execute(T1, &[Op::Add(A, 1)]),
            ExecOutcome::Executed(_)
        ));
        assert!(matches!(
            tm.try_execute(T2, &[Op::Add(B, 1)]),
            ExecOutcome::Executed(_)
        ));
        assert_eq!(
            tm.try_execute(T1, &[Op::Add(A, 1), Op::Add(B, 1)]),
            ExecOutcome::MustWait(T2)
        );
        // T2's request for A closes the cycle: aborted.
        assert_eq!(
            tm.try_execute(T2, &[Op::Add(B, 1), Op::Add(A, 1)]),
            ExecOutcome::Deadlock
        );
        // T2's abort released B, so T1 can now finish.
        assert!(matches!(
            tm.try_execute(T1, &[Op::Add(A, 1), Op::Add(B, 1)]),
            ExecOutcome::Executed(_)
        ));
    }

    #[test]
    fn aborted_writes_vanish() {
        let mut tm = LocalTm::new();
        tm.try_execute(T1, &[Op::Write(A, 99)]);
        tm.abort(T1);
        assert_eq!(tm.store().read_committed(A), 0);
        // And the lock is free.
        assert!(matches!(
            tm.try_execute(T2, &[Op::Read(A)]),
            ExecOutcome::Executed(_)
        ));
    }

    #[test]
    fn readers_share() {
        let mut tm = LocalTm::new();
        assert!(matches!(
            tm.try_execute(T1, &[Op::Read(A)]),
            ExecOutcome::Executed(_)
        ));
        assert!(matches!(
            tm.try_execute(T2, &[Op::Read(A)]),
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
