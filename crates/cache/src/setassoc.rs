//! A generic set-associative container with true-LRU replacement.
//!
//! This one structure backs the L2 model, every DRAM-cache tag array, the
//! MissMap and the Footprint History Table: they differ only in what they
//! store per entry and how they index/tag addresses.

use serde::{Deserialize, Serialize};

/// A set-associative array mapping `(set, tag)` keys to values of type
/// `V`, with least-recently-used replacement inside each set.
///
/// # Examples
///
/// ```
/// use fc_cache::SetAssoc;
///
/// let mut cache: SetAssoc<u32> = SetAssoc::new(2, 2);
/// assert!(cache.insert(0, 10, 100).is_none());
/// assert!(cache.insert(0, 20, 200).is_none());
/// // Touch tag 10 so tag 20 becomes the LRU victim.
/// assert_eq!(cache.get(0, 10), Some(&mut 100));
/// let evicted = cache.insert(0, 30, 300).unwrap();
/// assert_eq!(evicted, (20, 200));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SetAssoc<V> {
    sets: usize,
    ways: usize,
    entries: Vec<Option<Entry<V>>>,
    stamp: u64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Entry<V> {
    tag: u64,
    lru: u64,
    value: V,
}

impl<V> SetAssoc<V> {
    /// Creates an empty array of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "sets and ways must be positive");
        let mut entries = Vec::new();
        entries.resize_with(sets * ways, || None);
        Self {
            sets,
            ways,
            entries,
            stamp: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.is_none())
    }

    #[inline]
    fn set_range(&self, set: usize) -> core::ops::Range<usize> {
        debug_assert!(set < self.sets, "set {set} out of range {}", self.sets);
        let base = set * self.ways;
        base..base + self.ways
    }

    /// Looks up `(set, tag)`, updating LRU on hit.
    pub fn get(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(set);
        self.entries[range]
            .iter_mut()
            .flatten()
            .find(|e| e.tag == tag)
            .map(|e| {
                e.lru = stamp;
                &mut e.value
            })
    }

    /// Looks up `(set, tag)` without touching LRU state.
    pub fn peek(&self, set: usize, tag: u64) -> Option<&V> {
        let range = self.set_range(set);
        self.entries[range]
            .iter()
            .flatten()
            .find(|e| e.tag == tag)
            .map(|e| &e.value)
    }

    /// Mutable lookup of `(set, tag)` without touching LRU state (e.g.,
    /// aging a replacement-candidate's counter must not refresh its
    /// recency).
    pub fn peek_mut(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        let range = self.set_range(set);
        self.entries[range]
            .iter_mut()
            .flatten()
            .find(|e| e.tag == tag)
            .map(|e| &mut e.value)
    }

    /// Inserts `(set, tag) -> value` as most-recently-used. If the tag is
    /// already present, its value is replaced and returned as
    /// `Some((tag, old))`. If the set is full, the LRU victim is evicted
    /// and returned. Returns `None` if an empty way absorbed the insert.
    ///
    /// One scan of the set decides all three cases: a present tag is
    /// replaced in place; otherwise the *first* empty way takes the
    /// entry; otherwise the way with the smallest LRU stamp is evicted
    /// (stamps within a set are unique, so the choice is exact).
    pub fn insert(&mut self, set: usize, tag: u64, value: V) -> Option<(u64, V)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(set);
        let base = range.start;

        let mut empty = None;
        let mut lru_way = 0;
        let mut lru_stamp = u64::MAX;
        for (way, slot) in self.entries[range].iter_mut().enumerate() {
            match slot {
                Some(e) if e.tag == tag => {
                    e.lru = stamp;
                    let old = core::mem::replace(&mut e.value, value);
                    return Some((tag, old));
                }
                Some(e) if e.lru < lru_stamp => {
                    lru_stamp = e.lru;
                    lru_way = way;
                }
                None if empty.is_none() => empty = Some(way),
                _ => {}
            }
        }

        let entry = Entry {
            tag,
            lru: stamp,
            value,
        };
        match empty {
            Some(way) => {
                self.entries[base + way] = Some(entry);
                None
            }
            None => {
                let victim = self.entries[base + lru_way]
                    .replace(entry)
                    .expect("victim way is full");
                Some((victim.tag, victim.value))
            }
        }
    }

    /// Removes `(set, tag)` and returns its value.
    pub fn remove(&mut self, set: usize, tag: u64) -> Option<V> {
        let range = self.set_range(set);
        for i in range {
            if matches!(&self.entries[i], Some(e) if e.tag == tag) {
                return self.entries[i].take().map(|e| e.value);
            }
        }
        None
    }

    /// The LRU victim of a set, if the set is full: the entry that would
    /// be evicted by the next insert of a new tag.
    pub fn victim(&self, set: usize) -> Option<(u64, &V)> {
        let range = self.set_range(set);
        if self.entries[range.clone()].iter().any(|e| e.is_none()) {
            return None;
        }
        range
            .min_by_key(|&i| self.entries[i].as_ref().map(|e| e.lru).unwrap_or(0))
            .and_then(|i| self.entries[i].as_ref().map(|e| (e.tag, &e.value)))
    }

    /// Iterates over `(tag, value)` pairs of one set.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (u64, &V)> {
        self.entries[self.set_range(set)]
            .iter()
            .flatten()
            .map(|e| (e.tag, &e.value))
    }

    /// Iterates over all `(set, tag, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &V)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| e.as_ref().map(|e| (i / self.ways, e.tag, &e.value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove() {
        let mut c: SetAssoc<&str> = SetAssoc::new(4, 2);
        assert!(c.insert(1, 7, "a").is_none());
        assert_eq!(c.get(1, 7), Some(&mut "a"));
        assert_eq!(c.peek(1, 7), Some(&"a"));
        assert_eq!(c.remove(1, 7), Some("a"));
        assert!(c.get(1, 7).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_replaces_value() {
        let mut c: SetAssoc<u8> = SetAssoc::new(1, 2);
        c.insert(0, 5, 1);
        let old = c.insert(0, 5, 2);
        assert_eq!(old, Some((5, 1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: SetAssoc<u8> = SetAssoc::new(1, 3);
        c.insert(0, 1, 10);
        c.insert(0, 2, 20);
        c.insert(0, 3, 30);
        // Access order now 1 < 2 < 3; touch 1 so 2 is LRU.
        c.get(0, 1);
        assert_eq!(c.victim(0).map(|(t, _)| t), Some(2));
        let evicted = c.insert(0, 4, 40);
        assert_eq!(evicted, Some((2, 20)));
    }

    #[test]
    fn victim_none_when_set_has_space() {
        let mut c: SetAssoc<u8> = SetAssoc::new(1, 2);
        c.insert(0, 1, 1);
        assert!(c.victim(0).is_none());
    }

    #[test]
    fn sets_are_independent() {
        let mut c: SetAssoc<u8> = SetAssoc::new(2, 1);
        c.insert(0, 1, 1);
        c.insert(1, 1, 2);
        assert_eq!(c.peek(0, 1), Some(&1));
        assert_eq!(c.peek(1, 1), Some(&2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ways_rejected() {
        SetAssoc::<u8>::new(4, 0);
    }

    /// Reference model: per-set association list with explicit LRU order.
    #[derive(Default)]
    struct RefSet {
        // front = MRU
        order: Vec<(u64, u32)>,
    }

    proptest! {
        /// Against a straightforward reference model, the container agrees
        /// on hits, evictions, and occupancy for arbitrary op sequences.
        #[test]
        fn matches_reference_model(
            ops in proptest::collection::vec((0u64..12, any::<bool>()), 1..200)
        ) {
            const WAYS: usize = 4;
            let mut sut: SetAssoc<u32> = SetAssoc::new(1, WAYS);
            let mut reference = RefSet::default();
            let mut payload = 0u32;

            for (tag, is_insert) in ops {
                payload += 1;
                if is_insert {
                    let evicted = sut.insert(0, tag, payload);
                    // Reference insert.
                    if let Some(pos) = reference.order.iter().position(|(t, _)| *t == tag) {
                        let old = reference.order.remove(pos);
                        reference.order.insert(0, (tag, payload));
                        prop_assert_eq!(evicted, Some(old));
                    } else if reference.order.len() == WAYS {
                        let victim = reference.order.pop().expect("full");
                        reference.order.insert(0, (tag, payload));
                        prop_assert_eq!(evicted, Some(victim));
                    } else {
                        reference.order.insert(0, (tag, payload));
                        prop_assert!(evicted.is_none());
                    }
                } else {
                    let hit = sut.get(0, tag).copied();
                    let ref_hit = reference.order.iter().position(|(t, _)| *t == tag);
                    match ref_hit {
                        Some(pos) => {
                            let e = reference.order.remove(pos);
                            reference.order.insert(0, e);
                            prop_assert_eq!(hit, Some(e.1));
                        }
                        None => prop_assert!(hit.is_none()),
                    }
                }
                prop_assert_eq!(sut.len(), reference.order.len());
                prop_assert!(sut.len() <= WAYS);
            }
        }

        /// Against a reference that tracks every way's position, the
        /// container agrees on insert results, hits, victims and
        /// `iter_set` order across several sets — including after
        /// removals leave the first empty way in the middle of a set.
        #[test]
        fn matches_positional_reference_with_holes(
            ops in proptest::collection::vec((0u8..4, 0usize..3, 0u64..10), 1..300)
        ) {
            const SETS: usize = 3;
            const WAYS: usize = 4;
            let mut sut: SetAssoc<u32> = SetAssoc::new(SETS, WAYS);
            // reference[set][way] = (tag, value, last use)
            let mut reference = vec![[None::<(u64, u32, u64)>; WAYS]; SETS];
            let mut clock = 0u64;
            let mut payload = 0u32;

            for (op, set, tag) in ops {
                clock += 1;
                payload += 1;
                let ways = &mut reference[set];
                let pos = ways.iter().position(|w| matches!(w, Some((t, _, _)) if *t == tag));
                match op {
                    0 => {
                        let got = sut.insert(set, tag, payload);
                        let want = if let Some(i) = pos {
                            let (_, old, _) = ways[i].replace((tag, payload, clock)).unwrap();
                            Some((tag, old))
                        } else if let Some(i) = ways.iter().position(Option::is_none) {
                            ways[i] = Some((tag, payload, clock));
                            None
                        } else {
                            let i = (0..WAYS).min_by_key(|&i| ways[i].unwrap().2).unwrap();
                            let (t, v, _) = ways[i].replace((tag, payload, clock)).unwrap();
                            Some((t, v))
                        };
                        prop_assert_eq!(got, want);
                    }
                    1 => {
                        let got = sut.get(set, tag).copied();
                        let want = pos.map(|i| {
                            let way = ways[i].as_mut().unwrap();
                            way.2 = clock;
                            way.1
                        });
                        prop_assert_eq!(got, want);
                    }
                    2 => {
                        let got = sut.peek_mut(set, tag).map(|v| {
                            *v += 1000;
                            *v
                        });
                        let want = pos.map(|i| {
                            let way = ways[i].as_mut().unwrap();
                            way.1 += 1000;
                            way.1
                        });
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let got = sut.remove(set, tag);
                        let want = pos.map(|i| ways[i].take().unwrap().1);
                        prop_assert_eq!(got, want);
                    }
                }
                for (s, ways) in reference.iter().enumerate() {
                    let order: Vec<(u64, u32)> = sut.iter_set(s).map(|(t, v)| (t, *v)).collect();
                    let want: Vec<(u64, u32)> = ways.iter().flatten().map(|w| (w.0, w.1)).collect();
                    prop_assert_eq!(order, want);
                    let victim = sut.victim(s).map(|(t, v)| (t, *v));
                    let want_victim = if ways.iter().any(Option::is_none) {
                        None
                    } else {
                        ways.iter().flatten().min_by_key(|w| w.2).map(|w| (w.0, w.1))
                    };
                    prop_assert_eq!(victim, want_victim);
                }
            }
        }

        /// Occupancy never exceeds capacity with many sets.
        #[test]
        fn capacity_respected(
            ops in proptest::collection::vec((0usize..8, 0u64..64), 1..300)
        ) {
            let mut c: SetAssoc<()> = SetAssoc::new(8, 2);
            let mut model: HashMap<usize, std::collections::HashSet<u64>> = HashMap::new();
            for (set, tag) in ops {
                c.insert(set, tag, ());
                model.entry(set).or_default().insert(tag);
            }
            prop_assert!(c.len() <= c.capacity());
            for set in 0..8 {
                prop_assert!(c.iter_set(set).count() <= 2);
            }
        }
    }
}
