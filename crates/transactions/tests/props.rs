//! Property-based tests: serializability of the local transaction
//! manager, snapshot/restore of the store under commits and aborts, and
//! the lock table against a model.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use transactions::{Acquire, ExecOutcome, LocalTm, LockManager, Mode, ObjId, Op, TxnId};

/// Strategy for a small transaction: 1–4 operations over 3 objects.
fn txn_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u64..3, -5i64..5, any::<bool>()).prop_map(|(obj, val, write)| {
            if write {
                Op::Add(ObjId(obj), val)
            } else {
                Op::Read(ObjId(obj))
            }
        }),
        1..4,
    )
}

/// Runs a set of transactions serially in the given order; returns the
/// final committed values of the three objects.
fn run_serial(txns: &[Vec<Op>], order: &[usize]) -> Vec<i64> {
    let mut tm = LocalTm::new();
    for (k, &i) in order.iter().enumerate() {
        let id = TxnId(k as u64 + 1);
        match tm.try_execute(id, &txns[i]) {
            ExecOutcome::Executed(_) => {
                tm.commit(id);
            }
            other => panic!("serial execution cannot block: {other:?}"),
        }
    }
    (0..3)
        .map(|o| tm.store().read_committed(ObjId(o)))
        .collect()
}

proptest! {
    /// Two-phase locking with waits: interleaving two transactions via
    /// the wait/unblock machinery yields a final state equal to SOME
    /// serial order (serializability, §2.3.1).
    #[test]
    fn interleaved_execution_is_serializable(
        t1 in txn_strategy(),
        t2 in txn_strategy(),
    ) {
        let mut tm = LocalTm::new();
        let a = TxnId(1);
        let b = TxnId(2);
        // Try a first; if it waits (impossible: empty store) run it; then
        // start b which may wait behind a; commit a; finish b.
        let ra = tm.try_execute(a, &t1);
        prop_assert!(matches!(ra, ExecOutcome::Executed(_)));
        let rb = tm.try_execute(b, &t2);
        match rb {
            ExecOutcome::Executed(_) => {
                // Non-conflicting: any commit order, same result.
                tm.commit(a);
                tm.commit(b);
            }
            ExecOutcome::MustWait(blocker) => {
                prop_assert_eq!(blocker, a);
                let (_, unblocked) = tm.commit(a);
                prop_assert!(unblocked.contains(&b));
                match tm.try_execute(b, &t2) {
                    ExecOutcome::Executed(_) => { tm.commit(b); }
                    other => prop_assert!(false, "retry blocked: {other:?}"),
                }
            }
            ExecOutcome::Deadlock => {
                // b aborted; only a commits. Equivalent to serial a-only.
                tm.commit(a);
                let interleaved: Vec<i64> =
                    (0..3).map(|o| tm.store().read_committed(ObjId(o))).collect();
                let serial = run_serial(std::slice::from_ref(&t1), &[0]);
                prop_assert_eq!(interleaved, serial);
                return Ok(());
            }
        }
        let interleaved: Vec<i64> =
            (0..3).map(|o| tm.store().read_committed(ObjId(o))).collect();
        let order_ab = run_serial(&[t1.clone(), t2.clone()], &[0, 1]);
        let order_ba = run_serial(&[t1.clone(), t2.clone()], &[1, 0]);
        prop_assert!(
            interleaved == order_ab || interleaved == order_ba,
            "not serializable: {:?} vs {:?} / {:?}",
            interleaved,
            order_ab,
            order_ba
        );
    }

    /// Snapshot/restore round-trips interleaved with commits and aborts:
    /// the store tracks a model of the committed image exactly, restores
    /// rewind to the snapshotted committed state, and tentative
    /// workspaces never survive a restore (a recovered member must not
    /// resurrect in-flight transactions from before the crash).
    #[test]
    fn snapshot_restore_round_trips_under_commit_abort(
        script in proptest::collection::vec((0u8..5, 0u64..3, -5i64..5), 1..80),
    ) {
        use std::collections::BTreeMap;
        use transactions::Store;

        let mut s = Store::new();
        // The model: committed image, open workspaces, and the last
        // snapshot (of both store and model).
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        let mut open: Vec<TxnId> = Vec::new();
        let mut next_txn = 1u64;
        type Snapshot = (Vec<(u64, i64)>, BTreeMap<u64, i64>);
        let mut saved: Option<Snapshot> = None;

        for (action, obj, val) in script {
            match action {
                // Write into a (possibly fresh) workspace.
                0 => {
                    let t = if open.is_empty() || val < 0 {
                        let t = TxnId(next_txn);
                        next_txn += 1;
                        open.push(t);
                        t
                    } else {
                        open[obj as usize % open.len()]
                    };
                    s.write(t, ObjId(obj), val);
                }
                // Commit the oldest open transaction.
                1 => {
                    if let Some(t) = open.first().copied() {
                        open.remove(0);
                        for (o, v) in s.commit(t) {
                            model.insert(o, v);
                        }
                    }
                }
                // Abort the newest open transaction.
                2 => {
                    if let Some(t) = open.pop() {
                        s.abort(t);
                    }
                }
                // Snapshot the committed image.
                3 => {
                    saved = Some((s.snapshot(), model.clone()));
                }
                // Restore the last snapshot (no-op if none was taken).
                _ => {
                    if let Some((snap, m)) = &saved {
                        s.restore(snap);
                        model = m.clone();
                        // Every workspace is gone: commits of formerly
                        // open transactions must change nothing.
                        for t in open.drain(..) {
                            prop_assert!(s.commit(t).is_empty());
                        }
                        let now: Vec<(u64, i64)> = s.snapshot();
                        let want: Vec<(u64, i64)> =
                            m.iter().map(|(&o, &v)| (o, v)).collect();
                        prop_assert_eq!(now, want);
                    }
                }
            }
            // The committed image always matches the model (workspaces
            // are invisible until committed).
            for o in 0..3u64 {
                prop_assert_eq!(
                    s.read_committed(ObjId(o)),
                    model.get(&o).copied().unwrap_or(0)
                );
            }
        }
        // Final snapshot → fresh store restore reproduces the image.
        let snap = s.snapshot();
        let mut fresh = Store::new();
        fresh.restore(&snap);
        for o in 0..3u64 {
            prop_assert_eq!(fresh.read_committed(ObjId(o)), s.read_committed(ObjId(o)));
        }
    }
}

/// One step of a lock-table script.
#[derive(Clone, Copy, Debug)]
enum LockStep {
    Acquire(TxnId, ObjId, Mode),
    ReleaseAll(TxnId),
    Holds(TxnId, ObjId, Mode),
}

/// Scripts over four transactions, three objects and both modes: mostly
/// acquires, so that locks pile up, queue and change hands.
fn lock_script() -> impl Strategy<Value = Vec<LockStep>> {
    proptest::collection::vec(
        (0u8..8, 1u64..5, 0u64..3, any::<bool>()).prop_map(|(kind, t, o, shared)| {
            let (t, o) = (TxnId(t), ObjId(o));
            let mode = if shared {
                Mode::Shared
            } else {
                Mode::Exclusive
            };
            match kind {
                0..=4 => LockStep::Acquire(t, o, mode),
                5 | 6 => LockStep::ReleaseAll(t),
                _ => LockStep::Holds(t, o, mode),
            }
        }),
        1..48,
    )
}

/// One object's lock in the model: its holders and their modes, and its
/// FIFO queue of waiters.
type ModelLock = (BTreeMap<TxnId, Mode>, VecDeque<(TxnId, Mode)>);

/// The lock table as plainly as it can be written: per object, a map of
/// holders to their modes and a queue of waiters; an object with neither
/// is not in the table.
#[derive(Default)]
struct LockModel {
    locks: BTreeMap<ObjId, ModelLock>,
}

fn compatible(a: Mode, b: Mode) -> bool {
    a == Mode::Shared && b == Mode::Shared
}

impl LockModel {
    /// `Acquire` plus whether it was a shared holder's upgrade blocked by
    /// a co-holder.
    fn acquire(&mut self, txn: TxnId, obj: ObjId, mode: Mode) -> (Acquire, bool) {
        let (holders, waiters) = self.locks.entry(obj).or_default();
        match holders.get(&txn) {
            Some(Mode::Exclusive) => return (Acquire::Granted, false),
            Some(_) if mode == Mode::Shared => return (Acquire::Granted, false),
            Some(_) if holders.len() == 1 => {
                holders.insert(txn, Mode::Exclusive);
                return (Acquire::Granted, false);
            }
            Some(_) => {
                let blocker = *holders.keys().find(|t| **t != txn).unwrap();
                waiters.push_back((txn, mode));
                return (Acquire::Waiting(blocker), true);
            }
            None => {}
        }
        if holders.values().all(|h| compatible(*h, mode)) && waiters.is_empty() {
            holders.insert(txn, mode);
            return (Acquire::Granted, false);
        }
        let first_waiter = waiters.front().map(|(t, _)| *t);
        let blocker = holders.keys().next().copied().or(first_waiter).unwrap();
        waiters.push_back((txn, mode));
        (Acquire::Waiting(blocker), false)
    }

    fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut granted = BTreeSet::new();
        for (holders, waiters) in self.locks.values_mut() {
            holders.remove(&txn);
            waiters.retain(|(t, _)| *t != txn);
            while let Some(&(waiter, mode)) = waiters.front() {
                let upgrade = holders.len() == 1 && holders.contains_key(&waiter);
                if !(holders.values().all(|h| compatible(*h, mode))
                    || (upgrade && mode == Mode::Exclusive))
                {
                    break;
                }
                waiters.pop_front();
                holders.insert(waiter, mode);
                granted.insert(waiter);
            }
        }
        self.locks
            .retain(|_, (h, w)| !h.is_empty() || !w.is_empty());
        granted.into_iter().collect()
    }

    fn holds(&self, txn: TxnId, obj: ObjId, mode: Mode) -> bool {
        let held = self.locks.get(&obj).and_then(|(h, _)| h.get(&txn));
        held.is_some_and(|h| *h == Mode::Exclusive || mode == Mode::Shared)
    }

    fn holder_counts(&self) -> BTreeMap<ObjId, usize> {
        self.locks.iter().map(|(o, (h, _))| (*o, h.len())).collect()
    }
}

/// How often a script made a lock's holders go from one to several, from
/// several back to one, and a shared holder's upgrade wait behind a
/// co-holder.
#[derive(Default, Debug)]
struct LockCoverage {
    spills: u32,
    folds: u32,
    blocked_upgrades: u32,
}

/// Runs `script` on a `LockManager` and on the model, requiring every
/// answer and the number of active objects to agree at each step.
fn check_locks(script: &[LockStep]) -> LockCoverage {
    let (mut lm, mut model) = (LockManager::new(), LockModel::default());
    let mut cov = LockCoverage::default();
    let mut before = BTreeMap::new();
    for (i, &step) in script.iter().enumerate() {
        match step {
            LockStep::Acquire(t, o, m) => {
                let (want, blocked_upgrade) = model.acquire(t, o, m);
                assert_eq!(
                    lm.acquire(t, o, m),
                    want,
                    "step {i}: {step:?} of {script:?}"
                );
                cov.blocked_upgrades += u32::from(blocked_upgrade);
            }
            LockStep::ReleaseAll(t) => {
                let want = model.release_all(t);
                assert_eq!(lm.release_all(t), want, "step {i}: {step:?} of {script:?}");
            }
            LockStep::Holds(t, o, m) => {
                let want = model.holds(t, o, m);
                assert_eq!(lm.holds(t, o, m), want, "step {i}: {step:?} of {script:?}");
            }
        }
        assert_eq!(
            lm.active_objects(),
            model.locks.len(),
            "step {i} of {script:?}"
        );
        let after = model.holder_counts();
        for (o, &n) in &after {
            let was = before.get(o).copied().unwrap_or(0);
            cov.spills += u32::from(was == 1 && n > 1);
            cov.folds += u32::from(was > 1 && n == 1);
        }
        before = after;
    }
    cov
}

proptest! {
    /// The lock table answers every acquire, release and query as the
    /// map-of-maps model does: the same grants, the same blocker, the same
    /// transactions granted by a release in the same order, and the same
    /// objects left active.
    #[test]
    fn lock_manager_matches_its_model(script in lock_script()) {
        check_locks(&script);
    }
}

/// The scripts `lock_manager_matches_its_model` draws from do reach the
/// paths its model exists for: a lone holder joined by others and left
/// alone again, and a shared holder's upgrade blocked by a co-holder.
#[test]
fn lock_scripts_reach_the_spill_the_fold_and_the_blocked_upgrade() {
    let mut rng =
        TestRng::for_test("lock_scripts_reach_the_spill_the_fold_and_the_blocked_upgrade");
    let strategy = lock_script();
    let mut total = LockCoverage::default();
    for _ in 0..96 {
        let cov = check_locks(&strategy.generate(&mut rng));
        total.spills += cov.spills;
        total.folds += cov.folds;
        total.blocked_upgrades += cov.blocked_upgrades;
    }
    assert!(
        total.spills > 0 && total.folds > 0 && total.blocked_upgrades > 0,
        "{total:?}"
    );
}
