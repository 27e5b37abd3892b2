//! Nested lightweight transactions (§2.3.2, §5.2).
//!
//! "A nested transaction consists of a tree of subtransactions, with a
//! single top-level transaction at the root. The tentative updates of a
//! transaction that has not yet committed are visible only to its
//! descendants in the tree. The effects of a committed subtransaction
//! are visible only to ancestors and siblings in the tree. If a
//! transaction aborts, then any uncommitted subtransactions must be
//! aborted, and the effects of any committed subtransactions must be
//! undone" (§2.3.2). This is Moss's locking formulation: a lock may be
//! acquired when every conflicting holder is an ancestor; on
//! subtransaction commit, locks and tentative updates are inherited by
//! the parent.
//!
//! Like the single-level [`LocalTm`](crate::txn::LocalTm), everything is
//! volatile (§5.2: replication, not stable storage, provides
//! permanence). Conflicts are *no-wait*: a blocked acquisition returns
//! the conflicting transaction so the caller can abort and retry — the
//! same optimistic posture as the troupe commit protocol.

use std::collections::{BTreeMap, BTreeSet};

use crate::lock::Mode;
use crate::store::{ObjId, TxnId};

/// Errors from nested transaction operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NestedError {
    /// The transaction id is unknown or already finished.
    NoSuchTransaction(TxnId),
    /// A lock is held by a non-ancestor; the conflicting holder is
    /// returned (abort or retry).
    Conflict(TxnId),
    /// Commit attempted while active children remain.
    ActiveChildren(TxnId),
}

impl std::fmt::Display for NestedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NestedError::NoSuchTransaction(t) => write!(f, "no such transaction {t:?}"),
            NestedError::Conflict(t) => write!(f, "lock conflict with {t:?}"),
            NestedError::ActiveChildren(t) => {
                write!(f, "transaction {t:?} still has active children")
            }
        }
    }
}

impl std::error::Error for NestedError {}

#[derive(Debug)]
struct NTxn {
    parent: Option<TxnId>,
    workspace: BTreeMap<ObjId, i64>,
    children: BTreeSet<TxnId>,
    locks: BTreeMap<ObjId, Mode>,
}

/// A nested transaction manager over a volatile store of `i64` objects.
#[derive(Debug, Default)]
pub struct NestedTm {
    committed: BTreeMap<ObjId, i64>,
    /// Ordered: `acquire` walks it and names the first conflicting holder.
    txns: BTreeMap<TxnId, NTxn>,
    next: u64,
}

impl NestedTm {
    /// An empty manager.
    pub fn new() -> NestedTm {
        NestedTm::default()
    }

    /// The committed value of an object (absent reads as zero).
    pub fn read_committed(&self, obj: ObjId) -> i64 {
        self.committed.get(&obj).copied().unwrap_or(0)
    }

    /// Number of live (active) transactions.
    pub fn active(&self) -> usize {
        self.txns.len()
    }

    /// `true` while `txn` has neither committed nor aborted.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn)
    }

    /// Begins a top-level transaction.
    pub fn begin_top(&mut self) -> TxnId {
        self.begin(None)
    }

    /// Begins a subtransaction of `parent`.
    pub fn begin_child(&mut self, parent: TxnId) -> Result<TxnId, NestedError> {
        if !self.txns.contains_key(&parent) {
            return Err(NestedError::NoSuchTransaction(parent));
        }
        let child = self.begin(Some(parent));
        self.txns
            .get_mut(&parent)
            .expect("parent checked")
            .children
            .insert(child);
        Ok(child)
    }

    fn begin(&mut self, parent: Option<TxnId>) -> TxnId {
        self.next += 1;
        let id = TxnId(self.next);
        self.txns.insert(
            id,
            NTxn {
                parent,
                workspace: BTreeMap::new(),
                children: BTreeSet::new(),
                locks: BTreeMap::new(),
            },
        );
        id
    }

    fn is_ancestor_or_self(&self, candidate: TxnId, of: TxnId) -> bool {
        let mut cur = Some(of);
        while let Some(t) = cur {
            if t == candidate {
                return true;
            }
            cur = self.txns.get(&t).and_then(|n| n.parent);
        }
        false
    }

    /// Moss's rule: `txn` may hold `obj` in `mode` iff every other holder
    /// of a conflicting lock is an ancestor of `txn`.
    fn acquire(&mut self, txn: TxnId, obj: ObjId, mode: Mode) -> Result<(), NestedError> {
        if !self.txns.contains_key(&txn) {
            return Err(NestedError::NoSuchTransaction(txn));
        }
        for (&holder, node) in &self.txns {
            if holder == txn {
                continue;
            }
            if let Some(&held) = node.locks.get(&obj) {
                let conflicts = matches!((held, mode), (Mode::Exclusive, _) | (_, Mode::Exclusive));
                if conflicts && !self.is_ancestor_or_self(holder, txn) {
                    return Err(NestedError::Conflict(holder));
                }
            }
        }
        let node = self.txns.get_mut(&txn).expect("checked");
        let entry = node.locks.entry(obj).or_insert(mode);
        if mode == Mode::Exclusive {
            *entry = Mode::Exclusive;
        }
        Ok(())
    }

    /// Reads `obj` as seen by `txn`: its own workspace, then its
    /// ancestors' (nearest first), then the committed image (§2.3.2's
    /// visibility rule).
    pub fn read(&mut self, txn: TxnId, obj: ObjId) -> Result<i64, NestedError> {
        self.acquire(txn, obj, Mode::Shared)?;
        let mut cur = Some(txn);
        while let Some(t) = cur {
            let node = self
                .txns
                .get(&t)
                .ok_or(NestedError::NoSuchTransaction(txn))?;
            if let Some(v) = node.workspace.get(&obj) {
                return Ok(*v);
            }
            cur = node.parent;
        }
        Ok(self.read_committed(obj))
    }

    /// Writes `obj` tentatively in `txn`'s workspace.
    pub fn write(&mut self, txn: TxnId, obj: ObjId, value: i64) -> Result<(), NestedError> {
        self.acquire(txn, obj, Mode::Exclusive)?;
        self.txns
            .get_mut(&txn)
            .ok_or(NestedError::NoSuchTransaction(txn))?
            .workspace
            .insert(obj, value);
        Ok(())
    }

    /// Adds `delta` to `obj` under `txn`.
    pub fn add(&mut self, txn: TxnId, obj: ObjId, delta: i64) -> Result<i64, NestedError> {
        let v = self.read(txn, obj)? + delta;
        self.write(txn, obj, v)?;
        Ok(v)
    }

    /// Commits `txn`. A subtransaction's workspace and locks are
    /// inherited by its parent ("the effects of a committed
    /// subtransaction are visible only to ancestors and siblings"); a
    /// top-level commit publishes to the committed image.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), NestedError> {
        let node = self
            .txns
            .get(&txn)
            .ok_or(NestedError::NoSuchTransaction(txn))?;
        if !node.children.is_empty() {
            return Err(NestedError::ActiveChildren(txn));
        }
        let node = self.txns.remove(&txn).expect("checked");
        match node.parent {
            Some(parent) => {
                let p = self
                    .txns
                    .get_mut(&parent)
                    .expect("parent outlives child by construction");
                p.children.remove(&txn);
                for (obj, v) in node.workspace {
                    p.workspace.insert(obj, v);
                }
                // Lock inheritance (anti-inheritance in Moss's terms).
                for (obj, mode) in node.locks {
                    let entry = p.locks.entry(obj).or_insert(mode);
                    if mode == Mode::Exclusive {
                        *entry = Mode::Exclusive;
                    }
                }
            }
            None => {
                for (obj, v) in node.workspace {
                    self.committed.insert(obj, v);
                }
            }
        }
        Ok(())
    }

    /// Aborts `txn`, recursively aborting its active subtransactions and
    /// discarding everything — including the inherited effects of
    /// already-committed subtransactions, which live in `txn`'s
    /// workspace ("the effects of any committed subtransactions must be
    /// undone").
    pub fn abort(&mut self, txn: TxnId) -> Result<(), NestedError> {
        let node = self
            .txns
            .get(&txn)
            .ok_or(NestedError::NoSuchTransaction(txn))?;
        let children: Vec<TxnId> = node.children.iter().copied().collect();
        for c in children {
            self.abort(c)?;
        }
        let node = self.txns.remove(&txn).expect("checked");
        if let Some(parent) = node.parent {
            if let Some(p) = self.txns.get_mut(&parent) {
                p.children.remove(&txn);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjId = ObjId(1);
    const B: ObjId = ObjId(2);

    #[test]
    fn top_level_commit_publishes() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        tm.write(t, A, 5).unwrap();
        assert_eq!(tm.read_committed(A), 0, "tentative until commit");
        tm.commit(t).unwrap();
        assert_eq!(tm.read_committed(A), 5);
        assert_eq!(tm.active(), 0);
    }

    #[test]
    fn child_sees_parent_tentative_state() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        tm.write(t, A, 7).unwrap();
        let c = tm.begin_child(t).unwrap();
        assert_eq!(
            tm.read(c, A).unwrap(),
            7,
            "descendants see tentative updates"
        );
    }

    #[test]
    fn committed_child_visible_to_parent_and_siblings() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        let c1 = tm.begin_child(t).unwrap();
        tm.write(c1, A, 10).unwrap();
        tm.commit(c1).unwrap();
        assert_eq!(tm.read(t, A).unwrap(), 10, "parent sees committed child");
        let c2 = tm.begin_child(t).unwrap();
        assert_eq!(tm.read(c2, A).unwrap(), 10, "sibling sees committed child");
        // Still not globally committed.
        assert_eq!(tm.read_committed(A), 0);
    }

    #[test]
    fn uncommitted_child_invisible_to_siblings() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        let c1 = tm.begin_child(t).unwrap();
        tm.write(c1, A, 10).unwrap();
        let c2 = tm.begin_child(t).unwrap();
        // c2 cannot even lock A: c1 is not its ancestor.
        assert_eq!(tm.read(c2, A), Err(NestedError::Conflict(c1)));
    }

    #[test]
    fn parent_abort_undoes_committed_children() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        let c = tm.begin_child(t).unwrap();
        tm.write(c, A, 10).unwrap();
        tm.commit(c).unwrap();
        tm.abort(t).unwrap();
        assert_eq!(
            tm.read_committed(A),
            0,
            "committed subtxn undone by parent abort"
        );
        assert_eq!(tm.active(), 0);
    }

    #[test]
    fn abort_cascades_to_active_children() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        let c = tm.begin_child(t).unwrap();
        let gc = tm.begin_child(c).unwrap();
        tm.write(gc, A, 1).unwrap();
        tm.abort(t).unwrap();
        assert_eq!(tm.active(), 0);
        assert_eq!(tm.read(gc, A), Err(NestedError::NoSuchTransaction(gc)));
    }

    #[test]
    fn commit_requires_children_finished() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        let _c = tm.begin_child(t).unwrap();
        assert_eq!(tm.commit(t), Err(NestedError::ActiveChildren(t)));
    }

    #[test]
    fn child_may_lock_what_ancestors_hold() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        tm.write(t, A, 1).unwrap(); // t holds X(A).
        let c = tm.begin_child(t).unwrap();
        // Moss's rule: conflicting holder is an ancestor — allowed.
        tm.write(c, A, 2).unwrap();
        tm.commit(c).unwrap();
        assert_eq!(tm.read(t, A).unwrap(), 2);
    }

    #[test]
    fn unrelated_transactions_conflict() {
        let mut tm = NestedTm::new();
        let t1 = tm.begin_top();
        let t2 = tm.begin_top();
        tm.write(t1, A, 1).unwrap();
        assert_eq!(tm.write(t2, A, 2), Err(NestedError::Conflict(t1)));
        // Shared locks do not conflict.
        tm.read(t1, B).unwrap();
        tm.read(t2, B).unwrap();
    }

    #[test]
    fn lock_inheritance_keeps_exclusion_until_root_commits() {
        let mut tm = NestedTm::new();
        let t1 = tm.begin_top();
        let c = tm.begin_child(t1).unwrap();
        tm.write(c, A, 5).unwrap();
        tm.commit(c).unwrap(); // X(A) inherited by t1.
        let t2 = tm.begin_top();
        assert_eq!(
            tm.write(t2, A, 9),
            Err(NestedError::Conflict(t1)),
            "inherited lock still excludes outsiders"
        );
        tm.commit(t1).unwrap();
        tm.write(t2, A, 9).unwrap();
        tm.commit(t2).unwrap();
        assert_eq!(tm.read_committed(A), 9);
    }

    #[test]
    fn deep_nesting_reads_nearest_ancestor() {
        let mut tm = NestedTm::new();
        let t = tm.begin_top();
        tm.write(t, A, 1).unwrap();
        let c = tm.begin_child(t).unwrap();
        tm.write(c, A, 2).unwrap();
        let gc = tm.begin_child(c).unwrap();
        assert_eq!(
            tm.read(gc, A).unwrap(),
            2,
            "nearest enclosing workspace wins"
        );
        tm.add(gc, A, 10).unwrap();
        assert_eq!(tm.read(gc, A).unwrap(), 12);
        // While gc holds X(A), even its parent may not read it: in the
        // sequential model a parent is suspended while children run, and
        // Moss's rule only exempts *ancestors'* retained locks.
        assert_eq!(tm.read(c, A), Err(NestedError::Conflict(gc)));
        tm.commit(gc).unwrap();
        assert_eq!(tm.read(c, A).unwrap(), 12);
    }

    #[test]
    fn errors_on_unknown_transactions() {
        let mut tm = NestedTm::new();
        let ghost = TxnId(99);
        assert_eq!(
            tm.begin_child(ghost),
            Err(NestedError::NoSuchTransaction(ghost))
        );
        assert_eq!(
            tm.read(ghost, A),
            Err(NestedError::NoSuchTransaction(ghost))
        );
        assert_eq!(tm.commit(ghost), Err(NestedError::NoSuchTransaction(ghost)));
        assert_eq!(tm.abort(ghost), Err(NestedError::NoSuchTransaction(ghost)));
    }
}
