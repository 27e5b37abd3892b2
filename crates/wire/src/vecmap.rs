//! A small ordered map, stored as one sorted vector.
//!
//! The protocol keeps a handful of tables with few entries each and large
//! values: a process's connections, an endpoint's messages in flight, a
//! server's open assemblies, a client's outstanding calls. A `BTreeMap`
//! leaf has room for eleven values and keeps it once the map empties, so
//! a table of one 424-byte connection costs 4.7 KB. [`VecMap`] keeps its
//! entries in key order in one `Vec`: it costs the entries it has (its
//! capacity, at least four), walks in key order as a `BTreeMap` does,
//! and keeps its capacity when it empties, so a table that fills and
//! drains call after call allocates nothing once it has grown. Lookups
//! are binary searches; an insert or a removal shifts the entries above
//! it, which for a table this small costs less than a tree's node walk.

use std::ops::{Bound, Index, RangeBounds};
use std::{fmt, iter, mem, slice};

/// An ordered map from `K` to `V`, its entries held sorted by key in one
/// vector. The subset of `BTreeMap`'s API the protocol's tables use.
pub struct VecMap<K, V> {
    /// Strictly ascending by key.
    entries: Vec<(K, V)>,
}

/// An iterator over a [`VecMap`]'s entries, in key order.
pub type Iter<'a, K, V> = iter::Map<slice::Iter<'a, (K, V)>, fn(&(K, V)) -> (&K, &V)>;

/// An iterator over a [`VecMap`]'s entries, in key order, with mutable
/// values.
pub type IterMut<'a, K, V> = iter::Map<slice::IterMut<'a, (K, V)>, fn(&mut (K, V)) -> (&K, &mut V)>;

/// An iterator over a [`VecMap`]'s keys, in order.
pub type Keys<'a, K, V> = iter::Map<slice::Iter<'a, (K, V)>, fn(&(K, V)) -> &K>;

/// An iterator over a [`VecMap`]'s values, in key order.
pub type Values<'a, K, V> = iter::Map<slice::Iter<'a, (K, V)>, fn(&(K, V)) -> &V>;

/// An iterator over a [`VecMap`]'s values, in key order, mutably.
pub type ValuesMut<'a, K, V> = iter::Map<slice::IterMut<'a, (K, V)>, fn(&mut (K, V)) -> &mut V>;

// Named, so that the iterators above are nameable types without a drop
// of their own: a caller may borrow the map again while one is live.

fn pair<K, V>((k, v): &(K, V)) -> (&K, &V) {
    (k, v)
}

fn pair_mut<K, V>((k, v): &mut (K, V)) -> (&K, &mut V) {
    (k, v)
}

fn key<K, V>((k, _): &(K, V)) -> &K {
    k
}

fn value<K, V>((_, v): &(K, V)) -> &V {
    v
}

fn value_mut<K, V>((_, v): &mut (K, V)) -> &mut V {
    v
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap::new()
    }
}

impl<K, V> VecMap<K, V> {
    /// The empty map; it allocates at its first insert.
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Makes room for at least `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Removes every entry, keeping the capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entries, in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.entries.iter().map(pair as _)
    }

    /// The entries, in key order, with mutable values.
    pub fn iter_mut(&mut self) -> IterMut<'_, K, V> {
        self.entries.iter_mut().map(pair_mut as _)
    }

    /// The keys, in order.
    pub fn keys(&self) -> Keys<'_, K, V> {
        self.entries.iter().map(key as _)
    }

    /// The values, in key order.
    pub fn values(&self) -> Values<'_, K, V> {
        self.entries.iter().map(value as _)
    }

    /// The values, in key order, mutably.
    pub fn values_mut(&mut self) -> ValuesMut<'_, K, V> {
        self.entries.iter_mut().map(value_mut as _)
    }

    /// Keeps the entries for which `keep` says so, visited in key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Where `key` is (`Ok`), or where it would go (`Err`).
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value at `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.find(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// The value at `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Whether there is a value at `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Puts `value` at `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Takes the value at `key` out.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// The value at `key`, put there by `make` first if there is none
    /// (`BTreeMap`'s `entry(key).or_insert_with(make)`).
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// The entries whose keys lie in `range`, in key order.
    pub fn range(&self, range: impl RangeBounds<K>) -> Iter<'_, K, V> {
        let start = match range.start_bound() {
            Bound::Included(b) => self.entries.partition_point(|(k, _)| k < b),
            Bound::Excluded(b) => self.entries.partition_point(|(k, _)| k <= b),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(b) => self.entries.partition_point(|(k, _)| k <= b),
            Bound::Excluded(b) => self.entries.partition_point(|(k, _)| k < b),
            Bound::Unbounded => self.entries.len(),
        };
        // A range that ends before it starts holds nothing.
        self.entries[start..end.max(start)].iter().map(pair as _)
    }
}

impl<K: Ord, V> Index<&K> for VecMap<K, V> {
    type Output = V;

    /// The value at `key`.
    ///
    /// # Panics
    ///
    /// Panics if there is none.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry for the key")
    }
}

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn an_emptied_map_keeps_its_capacity() {
        let mut m = VecMap::new();
        for k in [3u32, 1, 2] {
            m.insert(k, [0u8; 424]);
        }
        let capacity = m.entries.capacity();
        for k in [2, 3, 1] {
            assert!(m.remove(&k).is_some());
        }
        m.insert(9, [0; 424]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.entries.capacity(), capacity, "room for the next call");
    }

    proptest! {
        /// Against a `BTreeMap` model over a small key domain (so keys are
        /// hit again): each operation answers as the model does, and after
        /// each the lookups, the length and the walk in key order agree.
        #[test]
        fn agrees_with_a_btreemap_model(
            ops in proptest::collection::vec((0u8..8, 0u32..40, 0u32..40, any::<u32>()), 0..300),
        ) {
            let mut map = VecMap::new();
            let mut model = BTreeMap::new();
            for (op, k, other, v) in ops {
                let (lo, hi) = (k.min(other), k.max(other));
                match op {
                    0 | 1 => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    2 => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    3 => {
                        let got = map.get_or_insert_with(k, || v);
                        let want = model.entry(k).or_insert(v);
                        prop_assert_eq!(*got, *want);
                        *got = got.wrapping_add(1);
                        *want = want.wrapping_add(1);
                    }
                    4 => {
                        let pairs = |i: Iter<'_, u32, u32>| i.map(|(&k, &v)| (k, v)).collect::<Vec<_>>();
                        let model_pairs = |i: std::collections::btree_map::Range<'_, u32, u32>| {
                            i.map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
                        };
                        prop_assert_eq!(pairs(map.range(lo..=hi)), model_pairs(model.range(lo..=hi)));
                        prop_assert_eq!(pairs(map.range(lo..hi)), model_pairs(model.range(lo..hi)));
                        prop_assert_eq!(pairs(map.range(lo..)), model_pairs(model.range(lo..)));
                        prop_assert_eq!(pairs(map.range(..hi)), model_pairs(model.range(..hi)));
                        let above = (Bound::Excluded(lo), Bound::Included(hi));
                        prop_assert_eq!(pairs(map.range(above)), model_pairs(model.range(above)));
                    }
                    5 => {
                        let keep = |k: &u32, v: &mut u32| {
                            *v = v.wrapping_add(*k);
                            !(k ^ *v).is_multiple_of(3)
                        };
                        map.retain(keep);
                        model.retain(keep);
                    }
                    6 if v.is_multiple_of(4) => {
                        map.clear();
                        model.clear();
                    }
                    _ => {
                        if let Some(got) = map.get_mut(&k) {
                            *got ^= v;
                        }
                        if let Some(want) = model.get_mut(&k) {
                            *want ^= v;
                        }
                    }
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                for key in 0..40 {
                    prop_assert_eq!(map.get(&key), model.get(&key));
                    prop_assert_eq!(map.contains_key(&key), model.contains_key(&key));
                }
                prop_assert!(map.iter().eq(model.iter()), "{:?} walks as {:?}", map, model);
                prop_assert!(map.keys().rev().eq(model.keys().rev()));
            }
        }
    }
}
