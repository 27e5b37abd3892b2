//! A volatile object store with transaction workspaces (§5.2).
//!
//! Lightweight transactions "can dispense with the crash recovery
//! facilities based on stable storage and operate entirely in volatile
//! memory": permanence comes from replication, not disks. Tentative
//! updates live in per-transaction workspaces; commit folds a workspace
//! into the committed image, abort discards it — so "aborts never
//! cascade" (§2.3.1).

use std::collections::{BTreeMap, HashMap};

wire::newtype! {
    /// Names a shared object.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct ObjId(pub u64);
}

/// Names a transaction within one store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u64);

/// The volatile store.
#[derive(Debug, Default)]
pub struct Store {
    committed: BTreeMap<ObjId, i64>,
    /// Each transaction's tentative writes, `(object, value)` in object
    /// order, one per object: the form its commit-log record carries.
    /// Point lookups and `clear` only, never walked.
    workspaces: HashMap<TxnId, Vec<(u64, i64)>>,
}

impl Store {
    /// An empty store (absent objects read as zero).
    pub fn new() -> Store {
        Store::default()
    }

    /// Reads `obj` as seen by `txn`: its own tentative update if any,
    /// else the committed value. Intermediate effects of *other*
    /// transactions are never visible (atomicity, §2.3.1).
    pub fn read(&self, txn: TxnId, obj: ObjId) -> i64 {
        let ws = self.workspaces.get(&txn).map_or(&[][..], Vec::as_slice);
        match ws.binary_search_by_key(&obj.0, |&(o, _)| o) {
            Ok(i) => ws[i].1,
            Err(_) => self.read_committed(obj),
        }
    }

    /// Reads the committed value directly (for observers/tests).
    pub fn read_committed(&self, obj: ObjId) -> i64 {
        self.committed.get(&obj).copied().unwrap_or(0)
    }

    /// Sizes `txn`'s workspace for `writes` writes, so that a transaction
    /// which announces them before it writes allocates its workspace once,
    /// exactly.
    pub(crate) fn reserve(&mut self, txn: TxnId, writes: usize) {
        self.workspaces
            .entry(txn)
            .or_default()
            .reserve_exact(writes);
    }

    /// Writes a tentative value into `txn`'s workspace.
    pub fn write(&mut self, txn: TxnId, obj: ObjId, value: i64) {
        let ws = self.workspaces.entry(txn).or_default();
        match ws.binary_search_by_key(&obj.0, |&(o, _)| o) {
            Ok(i) => ws[i].1 = value,
            Err(i) => ws.insert(i, (obj.0, value)),
        }
    }

    /// Makes `txn`'s tentative updates permanent and hands them back, in
    /// object order — the payload of its commit-log record — with no
    /// spare capacity (a workspace reserved for more writes than distinct
    /// objects is shrunk).
    pub fn commit(&mut self, txn: TxnId) -> Vec<(u64, i64)> {
        let mut ws = self.workspaces.remove(&txn).unwrap_or_default();
        self.apply_committed(&ws);
        ws.shrink_to_fit();
        ws
    }

    /// Discards `txn`'s tentative updates, "leaving no trace of ever
    /// having been performed" (§2.3.1).
    pub fn abort(&mut self, txn: TxnId) {
        self.workspaces.remove(&txn);
    }

    /// Externalizes the committed image (state transfer, §6.4.1).
    pub fn snapshot(&self) -> Vec<(u64, i64)> {
        self.committed.iter().map(|(o, v)| (o.0, *v)).collect()
    }

    /// Applies the writes of an already-committed transaction directly
    /// to the committed image (log replay and delta catch-up; no
    /// workspace involved).
    pub fn apply_committed(&mut self, writes: &[(u64, i64)]) {
        for &(o, v) in writes {
            self.committed.insert(ObjId(o), v);
        }
    }

    /// Replaces the committed image from a snapshot.
    pub fn restore(&mut self, snap: &[(u64, i64)]) {
        self.committed = snap.iter().map(|&(o, v)| (ObjId(o), v)).collect();
        self.workspaces.clear();
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
    fn absent_objects_read_zero() {
        let s = Store::new();
        assert_eq!(s.read(T1, A), 0);
        assert_eq!(s.read_committed(A), 0);
    }

    #[test]
    fn tentative_updates_invisible_to_others() {
        let mut s = Store::new();
        s.write(T1, A, 10);
        assert_eq!(s.read(T1, A), 10);
        assert_eq!(s.read(T2, A), 0, "T2 must not see T1's tentative write");
        assert_eq!(s.read_committed(A), 0);
    }

    #[test]
    fn commit_publishes() {
        let mut s = Store::new();
        s.write(T1, A, 10);
        s.commit(T1);
        assert_eq!(s.read(T2, A), 10);
        assert_eq!(s.read_committed(A), 10);
    }

    #[test]
    fn commit_hands_back_its_writes_in_object_order_exactly_sized() {
        let mut s = Store::new();
        s.reserve(T1, 3);
        s.write(T1, B, 1);
        s.write(T1, A, 2);
        s.write(T1, B, 3);
        let writes = s.commit(T1);
        assert_eq!(writes, vec![(A.0, 2), (B.0, 3)]);
        assert_eq!(writes.capacity(), 2, "no slack kept with the record");
        assert_eq!(s.read_committed(B), 3);
        assert!(s.commit(T2).is_empty(), "no workspace, no writes");
    }

    #[test]
    fn abort_leaves_no_trace() {
        let mut s = Store::new();
        s.write(T1, A, 10);
        s.write(T1, B, 20);
        s.abort(T1);
        assert_eq!(s.read_committed(A), 0);
        assert_eq!(s.read(T1, B), 0);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut s = Store::new();
        s.write(T1, A, 5);
        s.commit(T1);
        let snap = s.snapshot();
        let mut t = Store::new();
        t.restore(&snap);
        assert_eq!(t.read_committed(A), 5);
    }

    #[test]
    fn restore_drops_tentative_workspaces() {
        // A restore replaces the member's whole state (recovery or state
        // transfer); any transaction tentatively in flight belongs to the
        // *old* state and must not leak its writes across.
        let mut s = Store::new();
        s.write(T1, A, 5);
        s.commit(T1);
        s.write(T2, A, 99); // tentative at restore time
        let snap = s.snapshot();
        s.restore(&snap);
        assert_eq!(s.read_committed(A), 5);
        assert_eq!(
            s.read(T2, A),
            5,
            "T2's pre-restore tentative write survived the restore"
        );
        // A commit of the stale transaction after restore is a no-op:
        // its workspace is gone.
        assert!(s.commit(T2).is_empty());
        assert_eq!(s.read_committed(A), 5);
    }

    #[test]
    fn restore_into_dirty_store_replaces_everything() {
        let mut s = Store::new();
        s.write(T1, A, 1);
        s.write(T1, B, 2);
        s.commit(T1);
        let snap = s.snapshot();
        let mut t = Store::new();
        t.write(T1, A, 77);
        t.commit(T1);
        t.write(T2, B, 88); // tentative
        t.restore(&snap);
        assert_eq!(t.read_committed(A), 1);
        assert_eq!(t.read_committed(B), 2);
        assert_eq!(t.read(T2, B), 2, "stale workspace visible after restore");
    }

    #[test]
    fn apply_committed_bypasses_workspaces() {
        let mut s = Store::new();
        s.write(T1, A, 3); // tentative, unrelated
        s.apply_committed(&[(A.0, 10), (B.0, 20)]);
        assert_eq!(s.read_committed(A), 10);
        assert_eq!(s.read_committed(B), 20);
        // The open workspace still shadows for its own transaction...
        assert_eq!(s.read(T1, A), 3);
        // ...and committing it folds over the applied value.
        s.commit(T1);
        assert_eq!(s.read_committed(A), 3);
    }

    #[test]
    fn workspace_isolated_per_txn() {
        let mut s = Store::new();
        s.write(T1, A, 1);
        s.write(T2, A, 2);
        assert_eq!(s.read(T1, A), 1);
        assert_eq!(s.read(T2, A), 2);
        s.commit(T2);
        s.abort(T1);
        assert_eq!(s.read_committed(A), 2);
    }
}
