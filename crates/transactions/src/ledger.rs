//! The commit ledger: which transactions a store member committed.
//!
//! A §5.3 store member asks its ledger one question for ever: *was
//! `(client, nonce)` committed here?* Every submission, a retry included,
//! takes its client's next nonce, so per client the committed nonces are
//! one run, cut only where an attempt never committed. [`Ledger`] keeps an
//! exact [`IdSet`] per client origin: one range per client plus one per
//! such gap, however long the history. Like the sets it is made of, it
//! never forgets and never infers.

use std::collections::BTreeMap;

use circus::ThreadId;
use obs::fnv1a_fold;

use crate::pack_origin;
use circus::IdSet;
use wire::{Externalize, Internalize, Reader, WireError, Writer};

/// The committed `(origin, nonce)` keys of one store member.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Ledger {
    /// `pack_origin(thread.origin)` → the nonces committed from there.
    /// Never holds an empty set.
    origins: BTreeMap<u64, IdSet>,
}

impl Ledger {
    /// The empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Records that `nonce`, submitted on `thread`, committed; `false` if
    /// the ledger already held it.
    pub fn insert(&mut self, thread: ThreadId, nonce: u64) -> bool {
        self.origins
            .entry(pack_origin(thread.origin))
            .or_default()
            .insert(nonce)
    }

    /// Whether `nonce`, submitted on `thread`, committed here.
    pub fn contains(&self, thread: ThreadId, nonce: u64) -> bool {
        self.origins
            .get(&pack_origin(thread.origin))
            .is_some_and(|s| s.contains(nonce))
    }

    /// Number of transactions held (saturating, as [`IdSet::len`]).
    pub fn len(&self) -> u64 {
        self.origins
            .values()
            .fold(0, |n, s| n.saturating_add(s.len()))
    }

    /// Whether nothing committed here.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// Number of ranges the keys are held in — what the ledger costs.
    pub fn range_count(&self) -> usize {
        self.origins.values().map(IdSet::range_count).sum()
    }

    /// Whether every transaction held here is held by `other`.
    pub fn is_subset(&self, other: &Ledger) -> bool {
        self.origins
            .iter()
            .all(|(o, s)| other.origins.get(o).is_some_and(|t| s.is_subset(t)))
    }

    /// Per origin, the highest nonce committed, ascending by origin.
    pub fn watermarks(&self) -> Vec<(u64, u64)> {
        self.origins
            .iter()
            .filter_map(|(&o, s)| Some((o, s.max()?)))
            .collect()
    }

    /// Number of keys above `marks` (an origin without a mark counts
    /// whole).
    pub fn len_above(&self, marks: &BTreeMap<u64, u64>) -> u64 {
        self.origins.iter().fold(0, |n, (o, s)| {
            n.saturating_add(marks.get(o).map_or_else(|| s.len(), |&m| s.len_above(m)))
        })
    }

    /// Folds the ledger into a running FNV digest.
    pub(crate) fn fold_into(&self, mut h: u64) -> u64 {
        for (&origin, set) in &self.origins {
            h = fnv1a_fold(h, &origin.to_be_bytes());
            h = set.fold_into(h);
        }
        h
    }
}

// not a declaration: per origin, ascending, its nonces, as `Vec<(u64, IdSet)>`.
impl Externalize for Ledger {
    fn externalize(&self, w: &mut Writer) {
        w.put_seq_len(self.origins.len());
        for (origin, set) in &self.origins {
            (origin, set).externalize(w);
        }
    }
}

// not a declaration: rejects a ledger no `insert` could have built.
impl Internalize<'_> for Ledger {
    /// Accepts exactly what `externalize` writes: origins strictly
    /// ascending, each set non-empty and well-formed.
    fn internalize(r: &mut Reader<'_>) -> Result<Ledger, WireError> {
        let mut origins = BTreeMap::new();
        let mut prev: Option<u64> = None;
        for _ in 0..r.get_seq_len()? {
            let (origin, set) = <(u64, IdSet)>::internalize(r)?;
            if prev.is_some_and(|p| p >= origin) || set.is_empty() {
                return Err(WireError::Invalid("Ledger"));
            }
            prev = Some(origin);
            origins.insert(origin, set);
        }
        Ok(Ledger { origins })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{HostId, SockAddr};
    use wire::{from_bytes, to_bytes};

    fn on(host: u32) -> ThreadId {
        ThreadId {
            origin: SockAddr::new(HostId(host), 10),
            serial: 7,
        }
    }

    #[test]
    fn two_clients_with_a_gap_cost_three_ranges() {
        let mut l = Ledger::new();
        for n in (1..=20).filter(|n| ![5, 11].contains(n)) {
            assert!(l.insert(on(1), n));
        }
        for n in 1..=4 {
            assert!(l.insert(on(2), n));
        }
        // A different thread of the same origin names the same client.
        let other_thread = ThreadId { serial: 8, ..on(1) };
        assert!(!l.insert(other_thread, 3), "a key is held once");
        assert!(l.contains(on(1), 20) && !l.contains(on(1), 11) && !l.contains(on(3), 1));
        assert_eq!((l.len(), l.range_count()), (22, 4));
        let (a, b) = (pack_origin(on(1).origin), pack_origin(on(2).origin));
        assert_eq!(l.watermarks(), vec![(a, 20), (b, 4)]);
        let marks = BTreeMap::from([(a, 10)]);
        assert_eq!(l.len_above(&marks), 9 + 4);
        let mut part = Ledger::new();
        part.insert(on(1), 12);
        assert!(part.is_subset(&l) && !l.is_subset(&part));
        part.insert(on(3), 1);
        assert!(!part.is_subset(&l), "another client's key");
        assert_eq!(from_bytes::<Ledger>(&to_bytes(&l)), Ok(l));
    }

    #[test]
    fn wire_form_rejects_what_insert_could_not_have_built() {
        let decode = |wire: &[(u64, Vec<(u64, u64)>)]| from_bytes::<Ledger>(&to_bytes(wire));
        assert!(decode(&[(1, vec![(1, 3)]), (2, vec![(1, 1)])]).is_ok());
        for bad in [
            vec![(2, vec![(1, 3)]), (1, vec![(1, 1)])], // descending origins
            vec![(1, vec![(1, 3)]), (1, vec![(5, 6)])], // a repeated origin
            vec![(1, vec![])],                          // an empty set
            vec![(1, vec![(3, 1)])],                    // a malformed set
        ] {
            assert!(decode(&bad).is_err(), "{bad:?}");
        }
    }
}
