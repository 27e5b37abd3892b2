//! Property-based tests: serializability of the local transaction
//! manager, the stamp rule across three members voting on every
//! transaction, snapshot/restore of the store under commits and aborts,
//! and the lock table against a model.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use circus::ThreadId;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use simnet::{HostId, SockAddr};
use transactions::{
    Acquire, ExecOutcome, LocalTm, LockManager, Mode, ObjId, Op, Stamp, Store, TxnId,
};

/// The stamp of a transaction submitted at `us` on thread `serial`.
fn stamp(us: u64, serial: u32) -> Stamp {
    let origin = SockAddr::new(HostId(10), 50);
    (us, ThreadId { origin, serial })
}

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
        match tm.try_execute(id, stamp(k as u64, 1), &txns[i]) {
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
        b_older in any::<bool>(),
    ) {
        let mut tm = LocalTm::new();
        let a = TxnId(1);
        let b = TxnId(2);
        let (sa, sb) = if b_older { (stamp(2, 1), stamp(1, 2)) } else { (stamp(1, 1), stamp(2, 2)) };
        // Try a first; if it waits (impossible: empty store) run it; then
        // start b which may wait behind a (or, older, is overtaken by
        // it); commit a; finish b.
        let ra = tm.try_execute(a, sa, &t1);
        prop_assert!(matches!(ra, ExecOutcome::Executed(_)));
        let rb = tm.try_execute(b, sb, &t2);
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
                match tm.try_execute(b, sb, &t2) {
                    ExecOutcome::Executed(_) => { tm.commit(b); }
                    other => prop_assert!(false, "retry blocked: {other:?}"),
                }
            }
            ExecOutcome::Overtaken(_) => {
                prop_assert!(b_older, "a younger transaction overtaken");
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

// ---------------------------------------------------------------------
// The stamp rule across a troupe.
// ---------------------------------------------------------------------

/// One member's local transaction manager, as the troupe model drives
/// it: `LocalTm`, or a copy of it with a fault planted in its rule.
trait Member {
    fn try_execute(&mut self, txn: TxnId, stamp: Stamp, ops: &[Op]) -> ExecOutcome;
    /// Commits `txn`; returns the transactions its release granted locks.
    fn commit(&mut self, txn: TxnId) -> Vec<TxnId>;
    /// Aborts `txn`; returns the transactions its release granted locks.
    fn abort(&mut self, txn: TxnId) -> Vec<TxnId>;
    fn image(&self) -> Vec<(u64, i64)>;
}

impl Member for LocalTm {
    fn try_execute(&mut self, txn: TxnId, stamp: Stamp, ops: &[Op]) -> ExecOutcome {
        LocalTm::try_execute(self, txn, stamp, ops)
    }
    fn commit(&mut self, txn: TxnId) -> Vec<TxnId> {
        LocalTm::commit(self, txn).1
    }
    fn abort(&mut self, txn: TxnId) -> Vec<TxnId> {
        LocalTm::abort(self, txn)
    }
    fn image(&self) -> Vec<(u64, i64)> {
        self.store().snapshot()
    }
}

/// A fault planted in the stamp rule, for the troupe property to catch.
#[derive(Clone, Copy, Debug)]
enum Plant {
    /// An older requester may wait behind a younger transaction.
    OlderWaits,
    /// Only the blocker `acquire` returns is compared, not every
    /// transaction the request queues behind.
    FirstBlockerOnly,
}

/// `LocalTm` rebuilt from the public lock table and store, with `plant`
/// in its rule.
struct Planted {
    plant: Plant,
    locks: LockManager,
    store: Store,
    stamps: BTreeMap<TxnId, Stamp>,
}

impl Planted {
    fn new(plant: Plant) -> Planted {
        let (locks, store, stamps) = (LockManager::new(), Store::new(), BTreeMap::new());
        Planted {
            plant,
            locks,
            store,
            stamps,
        }
    }
}

impl Member for Planted {
    fn try_execute(&mut self, txn: TxnId, stamp: Stamp, ops: &[Op]) -> ExecOutcome {
        self.stamps.insert(txn, stamp);
        for op in ops {
            let (obj, mode) = lock_of(op);
            if let Acquire::Waiting(blocker) = self.locks.acquire(txn, obj, mode) {
                let wait = match self.plant {
                    Plant::OlderWaits => true,
                    Plant::FirstBlockerOnly => self.stamps[&blocker] < stamp,
                };
                if wait {
                    return ExecOutcome::MustWait(blocker);
                }
                return ExecOutcome::Overtaken(self.abort(txn));
            }
        }
        let results = ops.iter().map(|op| match *op {
            Op::Read(o) => self.store.read(txn, o),
            Op::Write(o, v) => {
                self.store.write(txn, o, v);
                v
            }
            Op::Add(o, d) => {
                let v = self.store.read(txn, o) + d;
                self.store.write(txn, o, v);
                v
            }
        });
        ExecOutcome::Executed(results.collect())
    }
    fn commit(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.store.commit(txn);
        self.stamps.remove(&txn);
        self.locks.release_all(txn)
    }
    fn abort(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.store.abort(txn);
        self.stamps.remove(&txn);
        self.locks.release_all(txn)
    }
    fn image(&self) -> Vec<(u64, i64)> {
        self.store.snapshot()
    }
}

/// The lock an operation takes.
fn lock_of(op: &Op) -> (ObjId, Mode) {
    match *op {
        Op::Read(o) => (o, Mode::Shared),
        Op::Write(o, _) | Op::Add(o, _) => (o, Mode::Exclusive),
    }
}

/// One troupe case: stamped transactions, each member's arrival order
/// of them, and the order in which the members take their next arrival.
#[derive(Debug)]
struct TroupeCase {
    txns: Vec<(Stamp, Vec<Op>)>,
    arrivals: [Vec<usize>; 3],
    turns: Vec<usize>,
}

/// Two to five transactions of `txn_strategy`, stamped in 0–3 µs (so
/// ties fall to the thread), each member's arrivals a shuffle of them.
struct TroupeCases;

fn shuffled<T>(mut v: Vec<T>, rng: &mut TestRng) -> Vec<T> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

impl Strategy for TroupeCases {
    type Value = TroupeCase;
    fn generate(&self, rng: &mut TestRng) -> TroupeCase {
        let k = 2 + rng.below(4) as usize;
        let txns = (1..=k as u32)
            .map(|serial| (stamp(rng.below(4), serial), txn_strategy().generate(rng)))
            .collect();
        let arrivals = [(); 3].map(|_| shuffled((0..k).collect(), rng));
        let turns = shuffled((0..3 * k).map(|i| i % 3).collect(), rng);
        TroupeCase {
            txns,
            arrivals,
            turns,
        }
    }
}

/// Runs `case` through `members`, each taking the transactions in its
/// own arrival order, with a model vote round: a member votes yes when a
/// transaction executes and no when it is overtaken; the first "no"
/// aborts the transaction, three yeses commit it, and a member learns
/// the verdict once it has voted, as a late voter gets its buffered
/// return. A shadow `LockManager` per member, fed the same requests,
/// says whom each wait sits behind.
///
/// Errs on a wait behind a younger transaction, a transaction still
/// undecided once every call has arrived (only a timeout could end it),
/// or members whose committed images differ.
fn run_troupe<M: Member>(case: &TroupeCase, mut members: [M; 3]) -> Result<(), String> {
    let k = case.txns.len();
    let mut shadows = [(); 3].map(|_| LockManager::new());
    let mut votes = vec![[None::<bool>; 3]; k];
    let mut told = vec![[false; 3]; k];
    let mut verdicts = vec![None::<bool>; k];
    let mut taken = [0; 3];
    let mut runs = VecDeque::new();
    for &m in &case.turns {
        runs.push_back((m, case.arrivals[m][taken[m]]));
        taken[m] += 1;
        while let Some((m, t)) = runs.pop_front() {
            let (txn, (stamp, ops)) = (TxnId(t as u64 + 1), &case.txns[t]);
            let queued = ops.iter().map(lock_of).find(|&(obj, mode)| {
                matches!(shadows[m].acquire(txn, obj, mode), Acquire::Waiting(_))
            });
            let yes = match (members[m].try_execute(txn, *stamp, ops), queued) {
                (ExecOutcome::MustWait(_), Some((obj, _))) => {
                    let older = |a: TxnId| case.txns[a.0 as usize - 1].0 < *stamp;
                    match shadows[m].ahead(txn, obj).find(|&a| !older(a)) {
                        Some(a) => return Err(format!("member {m}: {txn:?} waits behind {a:?}")),
                        None => continue,
                    }
                }
                (ExecOutcome::Executed(_), None) => true,
                (ExecOutcome::Overtaken(granted), Some(_)) => {
                    released(m, txn, &granted, &mut shadows[m], &mut runs)?;
                    false
                }
                (out, queued) => {
                    return Err(format!("member {m}: {txn:?} {out:?}, queued {queued:?}"))
                }
            };
            votes[t][m] = Some(yes);
            if verdicts[t].is_none() && (!yes || votes[t].iter().all(|v| *v == Some(true))) {
                verdicts[t] = Some(yes);
            }
            let Some(go) = verdicts[t] else { continue };
            for v in 0..3 {
                if votes[t][v].is_none() || std::mem::replace(&mut told[t][v], true) {
                    continue;
                }
                let granted = if go {
                    members[v].commit(txn)
                } else {
                    members[v].abort(txn)
                };
                released(v, txn, &granted, &mut shadows[v], &mut runs)?;
            }
        }
    }
    if let Some(t) = verdicts.iter().position(Option::is_none) {
        return Err(format!("transaction {t} undecided: votes {:?}", votes[t]));
    }
    let images = members.each_ref().map(|m| m.image());
    if images[1..].iter().any(|i| *i != images[0]) {
        return Err(format!("members diverged: {images:?}"));
    }
    Ok(())
}

/// Mirrors member `m`'s release of `txn` in its shadow, which must grant
/// the same transactions, and queues their re-runs.
fn released(
    m: usize,
    txn: TxnId,
    granted: &[TxnId],
    shadow: &mut LockManager,
    runs: &mut VecDeque<(usize, usize)>,
) -> Result<(), String> {
    if shadow.release_all(txn) != granted {
        return Err(format!(
            "member {m}: its lock table and the shadow diverged"
        ));
    }
    runs.extend(granted.iter().map(|g| (m, g.0 as usize - 1)));
    Ok(())
}

proptest! {
    /// Three members, each with its own arrival order: every wait sits
    /// behind older transactions only, every transaction is decided by
    /// the votes alone, and the members commit identical images.
    #[test]
    fn stamped_transactions_never_wait_behind_younger_ones_at_any_member(case in TroupeCases) {
        let members = [(); 3].map(|_| LocalTm::new());
        if let Err(why) = run_troupe(&case, members) {
            prop_assert!(false, "{why}: {case:?}");
        }
    }
}

/// The troupe property catches each fault planted in the rule.
#[test]
fn the_troupe_property_fails_on_each_planted_fault() {
    for plant in [Plant::OlderWaits, Plant::FirstBlockerOnly] {
        let mut rng = TestRng::for_test("the_troupe_property_fails_on_each_planted_fault");
        let caught = (0..400).find_map(|_| {
            let case = TroupeCases.generate(&mut rng);
            run_troupe(&case, [(); 3].map(|_| Planted::new(plant))).err()
        });
        assert!(caught.is_some(), "{plant:?} went unnoticed");
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
