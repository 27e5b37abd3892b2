//! The waits-for graph and deadlock detection (§2.3.1).
//!
//! "Define the relation *T waits for T′* to be true when transaction T
//! waits for a lock held by transaction T′. A cycle in the waits-for
//! relation is called a deadlock; the transactions involved will wait
//! forever."

use std::collections::BTreeSet;

use crate::store::TxnId;

/// The waits-for relation.
#[derive(Debug, Default)]
pub struct WaitsFor {
    /// Its edges, `(waiter, holder)`: one set, so a waiter's edges are a
    /// range of it rather than a set of their own.
    edges: BTreeSet<(TxnId, TxnId)>,
    /// [`WaitsFor::on_cycle`]'s walk: the transactions it has reached,
    /// kept between probes so that a probe allocates nothing once warm.
    reached: Vec<TxnId>,
}

impl WaitsFor {
    /// An empty relation.
    pub fn new() -> WaitsFor {
        WaitsFor::default()
    }

    /// Records that `waiter` waits for `holder`.
    pub fn add(&mut self, waiter: TxnId, holder: TxnId) {
        if waiter != holder {
            self.edges.insert((waiter, holder));
        }
    }

    /// Removes every edge involving `txn` (it committed or aborted).
    pub fn remove(&mut self, txn: TxnId) {
        self.edges.retain(|&(w, h)| w != txn && h != txn);
    }

    /// Whether `start` is on a cycle: whether following the waits-for
    /// edges from it, breadth-first, leads back to it.
    pub fn on_cycle(&mut self, start: TxnId) -> bool {
        let reached = &mut self.reached;
        reached.clear();
        reached.push(start);
        let mut i = 0;
        while let Some(&at) = reached.get(i) {
            i += 1;
            for &(_, next) in self.edges.range((at, TxnId(0))..=(at, TxnId(u64::MAX))) {
                if next == start {
                    return true;
                }
                if !reached.contains(&next) {
                    reached.push(next);
                }
            }
        }
        false
    }

    /// `true` if any deadlock exists anywhere in the relation.
    pub fn has_cycle(&mut self) -> bool {
        let mut waiters: Vec<TxnId> = self.edges.iter().map(|&(w, _)| w).collect();
        waiters.dedup();
        waiters.into_iter().any(|t| self.on_cycle(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const T3: TxnId = TxnId(3);

    #[test]
    fn no_cycle_in_chain() {
        let mut g = WaitsFor::new();
        g.add(T1, T2);
        g.add(T2, T3);
        assert!(!g.on_cycle(T1));
        assert!(!g.has_cycle());
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = WaitsFor::new();
        g.add(T1, T2);
        g.add(T2, T1);
        assert!(g.on_cycle(T1) && g.on_cycle(T2));
        assert!(g.has_cycle());
    }

    #[test]
    fn three_cycle_detected() {
        let mut g = WaitsFor::new();
        g.add(T1, T2);
        g.add(T2, T3);
        g.add(T3, T1);
        assert!([T1, T2, T3].into_iter().all(|t| g.on_cycle(t)));
    }

    /// A transaction waiting on a deadlock it is not part of is not on
    /// the cycle: aborting it would break nothing.
    #[test]
    fn waiting_into_a_cycle_is_not_being_on_it() {
        let mut g = WaitsFor::new();
        g.add(T1, T2);
        g.add(T2, T3);
        g.add(T3, T2);
        assert!(!g.on_cycle(T1));
        assert!(g.on_cycle(T2) && g.on_cycle(T3));
        assert!(g.has_cycle());
    }

    #[test]
    fn removing_breaks_cycle() {
        let mut g = WaitsFor::new();
        g.add(T1, T2);
        g.add(T2, T1);
        g.remove(T2);
        assert!(!g.has_cycle());
    }

    #[test]
    fn self_edges_ignored() {
        let mut g = WaitsFor::new();
        g.add(T1, T1);
        assert!(!g.has_cycle());
    }
}
