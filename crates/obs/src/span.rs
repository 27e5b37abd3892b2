//! Causal spans for replicated calls.
//!
//! A span marks one causally-scoped unit of work: a client call, a
//! service invocation, a nested call, a directory lookup, a transaction
//! phase. Spans form a tree via parent links; the id is minted by the
//! [`Registry`](crate::Registry) from a global counter (so numbering is
//! deterministic) and travels across the simulated wire as a plain `u64`
//! in the paired-message segment header — `0` means "no span". The
//! registry only folds a mint; a [`SpanTree`] is built from the
//! [`SpanRecord`]s some retained event stream kept.

use std::collections::BTreeMap;

/// Identifier of one span. `SpanId::NONE` (zero) means "no span": the
/// wire encoding of "this traffic is not attributed to any call".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (wire value 0).
    pub const NONE: SpanId = SpanId(0);

    /// Is this the absent span?
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The raw wire value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// From a raw wire value (0 ⇒ [`SpanId::NONE`]).
    pub fn from_raw(v: u64) -> SpanId {
        SpanId(v)
    }
}

/// One minted span, as a forest holds it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (never [`SpanId::NONE`]).
    pub id: SpanId,
    /// Parent span, or [`SpanId::NONE`] for a root.
    pub parent: SpanId,
    /// Simulated time (µs) the span was minted.
    pub at_us: u64,
    /// Human-readable label, e.g. `call m1.p2` or `invoke m1.p2`. Shared
    /// by every record with the same label (the registry interns them).
    pub label: std::rc::Rc<str>,
}

/// The causal tree over a set of [`SpanRecord`]s.
///
/// A record whose parent is [`SpanId::NONE`] — or whose parent id is not
/// in the set (a bounded stream retains only the most recent spans, so a
/// long run's oldest retained children have lost their parents) — is a
/// root.
#[derive(Clone, Debug)]
pub struct SpanTree {
    records: BTreeMap<u64, SpanRecord>,
    children: BTreeMap<u64, Vec<u64>>,
    roots: Vec<u64>,
    /// Spans minted by the run the records were taken from.
    minted: u64,
}

impl SpanTree {
    /// Builds the forest over `records`, the retained tail of a run that
    /// minted `minted` spans in all (no more than `records` holds: the
    /// whole run).
    pub fn window(records: impl IntoIterator<Item = SpanRecord>, minted: u64) -> SpanTree {
        let map: BTreeMap<u64, SpanRecord> = records.into_iter().map(|r| (r.id.0, r)).collect();
        let minted = minted.max(map.len() as u64);
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (id, r) in map.iter() {
            if r.parent.is_none() || !map.contains_key(&r.parent.0) {
                roots.push(*id);
            } else {
                children.entry(r.parent.0).or_default().push(*id);
            }
        }
        SpanTree {
            records: map,
            children,
            roots,
            minted,
        }
    }

    /// Root span ids, ascending.
    pub fn roots(&self) -> &[u64] {
        &self.roots
    }

    /// The record for `id`, if present.
    pub fn record(&self, id: u64) -> Option<&SpanRecord> {
        self.records.get(&id)
    }

    /// Direct children of `id`, ascending.
    pub fn children(&self, id: u64) -> &[u64] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Leaves (spans with no children) in the subtree rooted at `id`.
    pub fn leaves(&self, id: u64) -> Vec<&SpanRecord> {
        let mut out = Vec::new();
        self.collect_leaves(id, &mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, id: u64, out: &mut Vec<&'a SpanRecord>) {
        let kids = self.children(id);
        if kids.is_empty() {
            if let Some(r) = self.records.get(&id) {
                out.push(r);
            }
        } else {
            for &c in kids {
                self.collect_leaves(c, out);
            }
        }
    }

    /// Indented text rendering of every root's subtree, deterministic.
    /// A forest that covers only the tail of its run says so in a first
    /// line `# last R of M spans`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let retained = self.records.len() as u64;
        if self.minted > retained {
            out.push_str(&format!("# last {retained} of {} spans\n", self.minted));
        }
        for &r in &self.roots {
            self.render_into(r, 0, &mut out);
        }
        out
    }

    fn render_into(&self, id: u64, depth: usize, out: &mut String) {
        if let Some(r) = self.records.get(&id) {
            out.push_str(&format!(
                "{}#{} {} @{}us\n",
                "  ".repeat(depth),
                r.id.0,
                r.label,
                r.at_us
            ));
        }
        for &c in self.children(id) {
            self.render_into(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, label: &str) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: SpanId(parent),
            at_us: id * 10,
            label: label.into(),
        }
    }

    #[test]
    fn fan_out_tree_counts_leaves() {
        // One client call fanning out to three invocations, one of which
        // makes a nested call.
        let t = SpanTree::window(
            vec![
                rec(1, 0, "call m1.p2"),
                rec(2, 1, "invoke m1.p2"),
                rec(3, 1, "invoke m1.p2"),
                rec(4, 1, "invoke m1.p2"),
                rec(5, 2, "nested m9.p1"),
            ],
            0,
        );
        assert_eq!(t.roots(), &[1]);
        assert_eq!(t.leaves(1).len(), 3);
        assert_eq!(t.children(1), &[2, 3, 4]);
    }

    #[test]
    fn orphaned_parent_becomes_root() {
        let t = SpanTree::window(vec![rec(7, 3, "invoke")], 0);
        assert_eq!(t.roots(), &[7]);
        assert_eq!(t.leaves(7).len(), 1);
    }

    #[test]
    fn render_is_indented_and_stable() {
        let t = SpanTree::window(vec![rec(1, 0, "call"), rec(2, 1, "invoke")], 0);
        assert_eq!(t.render(), "#1 call @10us\n  #2 invoke @20us\n");
    }
}
