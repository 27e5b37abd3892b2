//! An exact set of ids, stored as disjoint ranges.
//!
//! Idempotence needs to answer one question for ever: *was this id
//! applied here?* Every client mints consecutive ids, so the set of ids a
//! member has applied is one run per client, and a run is two words
//! however long it gets. The call runtime asks the same kind of question
//! of thread serials (*has this thread called from here once?*), and a
//! base process mints those consecutively too. [`IdSet`] stores runs and
//! nothing else: it is exact for any id pattern (a scattered pattern just
//! costs a range per id, as a `BTreeSet` would), it never forgets what it
//! is not told to remove and it never infers — an id between two held
//! ranges is *not* a member until it is inserted.

use std::collections::BTreeMap;

use obs::fnv1a_fold;

use crate::{Externalize, Internalize, Reader, WireError, Writer};

/// An exact set of `u64` ids held as inclusive ranges that are pairwise
/// disjoint and never adjacent (so equal sets have equal representations).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct IdSet {
    /// Range start → range end, both inclusive.
    ranges: BTreeMap<u64, u64>,
}

impl IdSet {
    /// The empty set.
    pub fn new() -> IdSet {
        IdSet::default()
    }

    /// Whether `id` was ever inserted.
    pub fn contains(&self, id: u64) -> bool {
        self.ranges
            .range(..=id)
            .next_back()
            .is_some_and(|(_, &hi)| id <= hi)
    }

    /// Adds `id`; `false` if it was already a member.
    pub fn insert(&mut self, id: u64) -> bool {
        if self.contains(id) {
            return false;
        }
        // Swallow the range that starts right above, then grow the one
        // that ends right below — or start a new one.
        let hi = id
            .checked_add(1)
            .and_then(|next| self.ranges.remove(&next))
            .unwrap_or(id);
        match self.ranges.range_mut(..id).next_back() {
            // `below < id` (the id is not a member), so `+ 1` cannot wrap.
            Some((_, below)) if *below + 1 == id => *below = hi,
            _ => {
                self.ranges.insert(id, hi);
            }
        }
        true
    }

    /// Takes `id` out; `false` if it was not a member. Removing an id from
    /// inside a range splits it in two.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some((&lo, &hi)) = self.ranges.range(..=id).next_back() else {
            return false;
        };
        if id > hi {
            return false;
        }
        // `lo <= id <= hi`: keep what lies on either side of `id`.
        if lo == id {
            self.ranges.remove(&lo);
        } else {
            self.ranges.insert(lo, id - 1);
        }
        if id < hi {
            self.ranges.insert(id + 1, hi);
        }
        true
    }

    /// Takes out every id at or below `floor`; a range that straddles it
    /// keeps its part above.
    pub fn remove_through(&mut self, floor: u64) {
        while let Some((&lo, &hi)) = self.ranges.first_key_value() {
            if lo > floor {
                break;
            }
            self.ranges.remove(&lo);
            // `floor < hi`, so `+ 1` cannot wrap.
            if hi > floor {
                self.ranges.insert(floor + 1, hi);
            }
        }
    }

    /// Number of ids held (saturating: the full `u64` domain does not fit).
    pub fn len(&self) -> u64 {
        self.ranges.iter().fold(0u64, |n, (&lo, &hi)| {
            n.saturating_add((hi - lo).saturating_add(1))
        })
    }

    /// Number of ids held above `floor` (saturating, as [`len`](IdSet::len)).
    pub fn len_above(&self, floor: u64) -> u64 {
        // `hi > floor`, so `floor + 1` cannot wrap.
        self.ranges
            .iter()
            .rev()
            .take_while(|&(_, &hi)| hi > floor)
            .fold(0u64, |n, (&lo, &hi)| {
                n.saturating_add((hi - lo.max(floor + 1)).saturating_add(1))
            })
    }

    /// Whether every id held here is held by `other`.
    pub fn is_subset(&self, other: &IdSet) -> bool {
        // `other`'s ranges never touch, so a run it holds lies in one.
        self.ranges.iter().all(|(&lo, &hi)| {
            other
                .ranges
                .range(..=lo)
                .next_back()
                .is_some_and(|(_, &top)| hi <= top)
        })
    }

    /// The highest id held.
    pub fn max(&self) -> Option<u64> {
        self.ranges.last_key_value().map(|(_, &hi)| hi)
    }

    /// Whether no id was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of ranges the ids are held in — what the set costs.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// The ranges, ascending, as inclusive `(first, last)` pairs.
    pub fn ranges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&lo, &hi)| (lo, hi))
    }

    /// Folds the ranges into a running FNV digest.
    pub fn fold_into(&self, mut h: u64) -> u64 {
        for (&lo, &hi) in &self.ranges {
            h = fnv1a_fold(h, &lo.to_be_bytes());
            h = fnv1a_fold(h, &hi.to_be_bytes());
        }
        h
    }
}

// not a declaration: the ranges, ascending, laid out as `Vec<(u64, u64)>`.
impl Externalize for IdSet {
    fn externalize(&self, w: &mut Writer) {
        w.put_seq_len(self.ranges.len());
        for (&lo, &hi) in &self.ranges {
            w.put_u64(lo);
            w.put_u64(hi);
        }
    }
}

// not a declaration: rejects ranges no `IdSet` could have written.
impl Internalize<'_> for IdSet {
    /// Accepts exactly what `externalize` writes: well-formed ranges,
    /// ascending, disjoint and coalesced.
    fn internalize(r: &mut Reader<'_>) -> Result<IdSet, WireError> {
        let mut ranges = BTreeMap::new();
        let mut prev_hi: Option<u64> = None;
        for _ in 0..r.get_seq_len()? {
            let (lo, hi) = (r.get_u64()?, r.get_u64()?);
            // Strictly past the previous range with a gap of at least one.
            let clear = prev_hi.is_none_or(|p| p.checked_add(1).is_some_and(|n| n < lo));
            if lo > hi || !clear {
                return Err(WireError::Invalid("IdSet"));
            }
            prev_hi = Some(hi);
            ranges.insert(lo, hi);
        }
        Ok(IdSet { ranges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn consecutive_ids_cost_one_range_per_run() {
        let mut s = IdSet::new();
        for base in [1u64, 1_000_001] {
            for i in 0..1_000 {
                assert!(s.insert(base + i));
            }
        }
        assert_eq!(s.range_count(), 2);
        assert_eq!(s.len(), 2_000);
        assert!(!s.insert(500), "a second insert is refused");
        assert!(!s.contains(1_001), "the gap between runs is not inferred");
        assert!(s.insert(u64::MAX) && s.insert(0));
        assert_eq!(s.range_count(), 3, "0 joined the run above it");
        assert!(s.remove(500) && !s.remove(500) && !s.contains(500));
        assert_eq!(s.range_count(), 4, "a removal splits its range");
        assert!(s.remove(u64::MAX) && s.max() == Some(1_001_000));
    }

    #[test]
    fn wire_form_rejects_what_insert_could_not_have_built() {
        let decode = |ranges: &[(u64, u64)]| from_bytes::<IdSet>(&to_bytes(ranges));
        assert!(decode(&[(1, 3), (5, 9)]).is_ok());
        for bad in [
            vec![(3, 1)],         // inverted
            vec![(1, 3), (4, 9)], // adjacent: not coalesced
            vec![(1, 5), (3, 9)], // overlapping
            vec![(5, 9), (1, 3)], // descending
            vec![(1, u64::MAX), (0, 0)],
        ] {
            assert_eq!(decode(&bad), Err(WireError::Invalid("IdSet")), "{bad:?}");
        }
    }

    proptest! {
        /// Against a `BTreeSet` model over a small domain (so runs form,
        /// merge, split and are hit again): membership agrees, the ranges
        /// stay disjoint and coalesced, and the wire form round-trips.
        #[test]
        fn agrees_with_a_btreeset_model(
            ids in proptest::collection::vec(0u64..96, 0..200),
            others in proptest::collection::vec(0u64..96, 0..200),
            removed in proptest::collection::vec(0u64..96, 0..60),
            floor in 0u64..100,
        ) {
            let mut set = IdSet::new();
            let mut model = BTreeSet::new();
            for &id in &ids {
                prop_assert_eq!(set.insert(id), model.insert(id));
            }
            let mut other = IdSet::new();
            let mut other_model = BTreeSet::new();
            for &id in &others {
                other.insert(id);
                other_model.insert(id);
            }
            prop_assert_eq!(other.is_subset(&set), other_model.is_subset(&model));
            let mut half = IdSet::new();
            for &id in &ids[..ids.len() / 2] {
                half.insert(id);
            }
            prop_assert!(half.is_subset(&set));
            for &id in &removed {
                prop_assert_eq!(set.remove(id), model.remove(&id));
            }
            let mut low = set.clone();
            low.remove_through(floor);
            let above: Vec<u64> = model.range(floor + 1..).copied().collect();
            prop_assert_eq!(low.ranges().flat_map(|(lo, hi)| lo..=hi).collect::<Vec<_>>(), above);
            for id in 0..100 {
                prop_assert_eq!(set.contains(id), model.contains(&id));
            }
            prop_assert_eq!(set.len(), model.len() as u64);
            prop_assert_eq!(set.max(), model.last().copied());
            for floor in [0, 31, 95] {
                prop_assert_eq!(set.len_above(floor), model.range(floor + 1..).count() as u64);
            }
            let bytes = to_bytes(&set);
            let ranges: Vec<(u64, u64)> = from_bytes(&bytes).unwrap();
            for pair in ranges.windows(2) {
                prop_assert!(pair[0].1 + 1 < pair[1].0, "{:?} touch or overlap", pair);
            }
            prop_assert!(ranges.iter().all(|&(lo, hi)| lo <= hi));
            prop_assert_eq!(from_bytes::<IdSet>(&bytes), Ok(set));
        }
    }
}
