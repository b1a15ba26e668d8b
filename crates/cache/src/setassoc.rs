//! A generic set-associative container with true-LRU replacement.
//!
//! This one structure backs the L2 model, every DRAM-cache tag array, the
//! MissMap and the Footprint History Table: they differ only in what they
//! store per entry and how they index/tag addresses.
//!
//! # Layout
//!
//! Each set is one contiguous run of `u64` words: `ceil(ways / 8)` rank
//! words holding one LRU rank byte per way, then the `ways` tags. Values
//! live in a separate array, `ways` per set. Rank 0 marks an empty way; the
//! valid ways of a set hold the ranks 1 (most recent) up to the set's
//! occupancy, so the LRU way of a full set has rank `ways`. All-zero words
//! and default values are an empty array, so [`SetAssoc::new`] is two
//! zeroed allocations for integer and `bool` values.
//!
//! Rank updates, and the searches for the first empty way and the LRU way,
//! work a whole rank word at a time with byte arithmetic on `u64` (SWAR,
//! "SIMD within a register"). Only the tag match visits ways one by one.

use serde::{Deserialize, Serialize};

/// `0x01` in every byte.
const LOW: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte.
const HIGH: u64 = 0x8080_8080_8080_8080;
/// The largest associativity: ranks stay below the high bit of a byte.
const MAX_WAYS: usize = 127;
/// The `promote` limit for an empty way: above every valid rank.
const EMPTY: u8 = MAX_WAYS as u8 + 1;

/// The high bit of every non-zero byte of `x`, whose bytes are at most
/// 127 (so adding 127 carries into the high bit, never past it).
#[inline]
fn nonzero(x: u64) -> u64 {
    (x + !HIGH) & HIGH
}

/// The high bit of every byte where `x`'s byte is less than `y`'s, for
/// bytes of `x` at most 127 and of `y` at most 128: each byte of
/// `x | HIGH` is `128 + x`, so subtracting `y` never borrows across bytes,
/// and the difference keeps its high bit exactly when `x >= y`.
#[inline]
fn less(x: u64, y: u64) -> u64 {
    !((x | HIGH) - y) & HIGH
}

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
    /// Rank words at the head of each set's run: `ceil(ways / 8)`.
    rank_words: usize,
    /// Per set, `rank_words` rank words and then `ways` tags.
    words: Vec<u64>,
    /// Per set, `ways` values; an empty way holds `V::default()`.
    values: Vec<V>,
}

/// The result of [`SetAssoc::probe`].
#[derive(Debug, PartialEq, Eq)]
pub enum Probe<'a, V> {
    /// The tag was present and is now most-recently-used.
    Hit(&'a mut V),
    /// The tag was absent and has been inserted by [`SetAssoc::insert`]'s
    /// rules; holds the evicted LRU entry if the set was full.
    Miss(Option<(u64, V)>),
}

impl<V: Clone + Default> SetAssoc<V> {
    /// Creates an empty array of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or `ways` exceeds 127 (a rank
    /// is one byte, and the rank arithmetic keeps each byte's high bit
    /// free).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "sets and ways must be positive");
        assert!(ways <= MAX_WAYS, "at most 127 ways");
        let rank_words = ways.div_ceil(8);
        Self {
            sets,
            ways,
            rank_words,
            words: vec![0; sets * (rank_words + ways)],
            values: vec![V::default(); sets * ways],
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

    /// Heap memory held by the array, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>() + self.values.capacity() * size_of::<V>()
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        (0..self.sets)
            .flat_map(|set| self.ranks(self.base(set)))
            .map(|&word| nonzero(word).count_ones() as usize)
            .sum()
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        (0..self.sets).all(|set| self.ranks(self.base(set)).iter().all(|&word| word == 0))
    }

    /// Index of a set's first word.
    #[inline]
    fn base(&self, set: usize) -> usize {
        debug_assert!(set < self.sets, "set {set} out of range {}", self.sets);
        set * (self.rank_words + self.ways)
    }

    #[inline]
    fn ranks(&self, base: usize) -> &[u64] {
        &self.words[base..base + self.rank_words]
    }

    #[inline]
    fn rank(&self, base: usize, way: usize) -> u8 {
        (self.words[base + way / 8] >> (way % 8 * 8)) as u8
    }

    #[inline]
    fn set_rank(&mut self, base: usize, way: usize, rank: u8) {
        let shift = way % 8 * 8;
        let word = &mut self.words[base + way / 8];
        *word = (*word & !(0xff << shift)) | (u64::from(rank) << shift);
    }

    #[inline]
    fn tag(&self, base: usize, way: usize) -> u64 {
        self.words[base + self.rank_words + way]
    }

    #[inline]
    fn value_index(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// The way holding `tag` in the set starting at `base`.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let tags = &self.words[base + self.rank_words..base + self.rank_words + self.ways];
        // An empty way keeps a stale tag, so a match must also be valid.
        (0..self.ways).find(|&way| tags[way] == tag && self.rank(base, way) != 0)
    }

    /// The first way of the set at `base` whose rank is `rank`.
    #[inline]
    fn first_with_rank(&self, base: usize, rank: u8) -> Option<usize> {
        let pattern = LOW * u64::from(rank);
        for (i, &word) in self.ranks(base).iter().enumerate() {
            let equal = !nonzero(word ^ pattern) & HIGH;
            if equal != 0 {
                // Padding bytes past the last way read as empty; they come
                // after every real way, so a first match there means none.
                let way = i * 8 + equal.trailing_zeros() as usize / 8;
                return (way < self.ways).then_some(way);
            }
        }
        None
    }

    /// Makes `way` most-recently-used: every valid way ranked below
    /// `rank` (more recent than `way`) ages by one. `rank` is `way`'s
    /// current rank, or [`EMPTY`] for an empty way (every valid way ages).
    #[inline]
    fn promote(&mut self, base: usize, way: usize, rank: u8) {
        let limit = LOW * u64::from(rank);
        self.update_ranks(base, |word| {
            word + ((nonzero(word) & less(word, limit)) >> 7)
        });
        self.set_rank(base, way, 1);
    }

    /// Applies `f` to every rank word of the set at `base`. Sets of up to
    /// 16 ways (one or two words) take straight-line code: for so few
    /// words a loop's dispatch costs more than the update.
    #[inline]
    fn update_ranks(&mut self, base: usize, f: impl Fn(u64) -> u64) {
        match &mut self.words[base..base + self.rank_words] {
            [a] => *a = f(*a),
            [a, b] => (*a, *b) = (f(*a), f(*b)),
            ranks => ranks.iter_mut().for_each(|word| *word = f(*word)),
        }
    }

    /// Fills absent `tag` into the set's first empty way, else its LRU
    /// way, as most-recently-used. Returns the evicted entry.
    fn fill_at(&mut self, set: usize, base: usize, tag: u64, value: V) -> Option<(u64, V)> {
        let (way, evicts) = match self.first_with_rank(base, 0) {
            Some(way) => {
                self.promote(base, way, EMPTY);
                (way, false)
            }
            None => {
                let lru = self.ways as u8;
                let way = self
                    .first_with_rank(base, lru)
                    .expect("a full set has an LRU way");
                self.promote(base, way, lru);
                (way, true)
            }
        };
        let old_tag = core::mem::replace(&mut self.words[base + self.rank_words + way], tag);
        let index = self.value_index(set, way);
        let old = core::mem::replace(&mut self.values[index], value);
        evicts.then_some((old_tag, old))
    }

    /// Looks up `(set, tag)`, updating LRU on hit.
    pub fn get(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.get_way(set, tag).map(|(_, value)| value)
    }

    /// [`get`](Self::get), plus the way that holds the entry (for
    /// [`touch`](Self::touch) after a later step of the same access).
    pub(crate) fn get_way(&mut self, set: usize, tag: u64) -> Option<(usize, &mut V)> {
        let way = self.find(self.base(set), tag)?;
        Some((way, self.touch(set, way)))
    }

    /// Marks the valid entry at `way` most-recently-used and returns its
    /// value. The way must still hold the entry a lookup found there.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) -> &mut V {
        let base = self.base(set);
        let rank = self.rank(base, way);
        debug_assert!(rank != 0, "way {way} of set {set} is empty");
        // The most recent way stays so; repeated hits skip the update.
        if rank != 1 {
            self.promote(base, way, rank);
        }
        let index = self.value_index(set, way);
        &mut self.values[index]
    }

    /// [`insert`](Self::insert) of a tag the caller knows is absent from
    /// the set, because a lookup just missed it and nothing inserted it
    /// since: the same choice of way, without scanning the tags. Returns
    /// the evicted LRU entry if the set was full. Filling a present tag
    /// would leave it in two ways; debug builds check that it is absent.
    pub fn fill(&mut self, set: usize, tag: u64, value: V) -> Option<(u64, V)> {
        let base = self.base(set);
        debug_assert!(
            self.find(base, tag).is_none(),
            "tag {tag} already in set {set}"
        );
        self.fill_at(set, base, tag, value)
    }

    /// Looks up `(set, tag)` without touching LRU state.
    pub fn peek(&self, set: usize, tag: u64) -> Option<&V> {
        let way = self.find(self.base(set), tag)?;
        Some(&self.values[self.value_index(set, way)])
    }

    /// Mutable lookup of `(set, tag)` without touching LRU state (e.g.,
    /// aging a replacement-candidate's counter must not refresh its
    /// recency).
    pub fn peek_mut(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        let way = self.find(self.base(set), tag)?;
        let index = self.value_index(set, way);
        Some(&mut self.values[index])
    }

    /// Inserts `(set, tag) -> value` as most-recently-used. If the tag is
    /// already present, its value is replaced and returned as
    /// `Some((tag, old))`. If the set is full, the LRU victim is evicted
    /// and returned. Returns `None` if an empty way absorbed the insert.
    ///
    /// One scan of the set's tags decides all three cases: a present tag
    /// is replaced in place; otherwise the *first* empty way takes the
    /// entry; otherwise the way of rank `ways` (the exact LRU) is evicted.
    pub fn insert(&mut self, set: usize, tag: u64, value: V) -> Option<(u64, V)> {
        let base = self.base(set);
        match self.find(base, tag) {
            Some(way) => {
                let old = core::mem::replace(self.touch(set, way), value);
                Some((tag, old))
            }
            None => self.fill_at(set, base, tag, value),
        }
    }

    /// [`get`](Self::get), and on a miss [`insert`](Self::insert) of
    /// `value`, in one scan of the set. On a hit `value` is dropped.
    ///
    /// ```
    /// use fc_cache::{Probe, SetAssoc};
    ///
    /// let mut counters: SetAssoc<u32> = SetAssoc::new(1, 2);
    /// assert_eq!(counters.probe(0, 7, 1), Probe::Miss(None));
    /// assert_eq!(counters.probe(0, 8, 1), Probe::Miss(None));
    /// if let Probe::Hit(count) = counters.probe(0, 7, 1) {
    ///     *count += 1; // tag 7 is now the most recent
    /// }
    /// assert_eq!(counters.probe(0, 9, 1), Probe::Miss(Some((8, 1))));
    /// assert_eq!(counters.peek(0, 7), Some(&2));
    /// ```
    pub fn probe(&mut self, set: usize, tag: u64, value: V) -> Probe<'_, V> {
        let base = self.base(set);
        match self.find(base, tag) {
            Some(way) => Probe::Hit(self.touch(set, way)),
            None => Probe::Miss(self.fill_at(set, base, tag, value)),
        }
    }

    /// Removes `(set, tag)` and returns its value.
    pub fn remove(&mut self, set: usize, tag: u64) -> Option<V> {
        let base = self.base(set);
        let way = self.find(base, tag)?;
        // Every way older than the removed one moves up a rank.
        let limit = LOW * u64::from(self.rank(base, way));
        self.update_ranks(base, |word| word - (less(limit, word) >> 7));
        self.set_rank(base, way, 0);
        let index = self.value_index(set, way);
        Some(core::mem::take(&mut self.values[index]))
    }

    /// The LRU victim of a set, if the set is full: the entry that would
    /// be evicted by the next insert of a new tag.
    pub fn victim(&self, set: usize) -> Option<(u64, &V)> {
        let base = self.base(set);
        if self.first_with_rank(base, 0).is_some() {
            return None;
        }
        let way = self.first_with_rank(base, self.ways as u8)?;
        Some((
            self.tag(base, way),
            &self.values[self.value_index(set, way)],
        ))
    }

    /// Iterates over `(tag, value)` pairs of one set, in way order.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (u64, &V)> {
        let base = self.base(set);
        (0..self.ways)
            .filter(move |&way| self.rank(base, way) != 0)
            .map(move |way| {
                (
                    self.tag(base, way),
                    &self.values[self.value_index(set, way)],
                )
            })
    }

    /// Iterates over all `(set, tag, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &V)> {
        (0..self.sets).flat_map(move |set| self.iter_set(set).map(move |(tag, v)| (set, tag, v)))
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

    #[test]
    #[should_panic(expected = "127")]
    fn rank_bytes_cap_the_ways() {
        SetAssoc::<u8>::new(1, 128);
    }

    /// The word-at-a-time byte compares agree with per-byte arithmetic on
    /// every pair of byte values in their domains (ranks up to 127, limits
    /// up to 128), beside neighbours that would expose a carry or borrow
    /// crossing a byte boundary.
    #[test]
    fn swar_byte_compares_match_scalar() {
        let pack = |lanes: [u64; 8]| lanes.iter().rev().fold(0, |w, &l| w << 8 | l);
        for a in 0..=127u64 {
            for b in 0..=128u64 {
                let xs = [a, 0, 127, a, 64, 127, 1, b.min(127)];
                let ys = [b, 128, 0, a, 127, 1, 0, a];
                let (x, y) = (pack(xs), pack(ys));
                for lane in 0..8 {
                    let bit = |mask: u64| (mask >> (lane * 8 + 7)) & 1 == 1;
                    assert_eq!(
                        bit(less(x, y)),
                        xs[lane] < ys[lane],
                        "{a} < {b}, lane {lane}"
                    );
                    assert_eq!(bit(nonzero(x)), xs[lane] != 0, "{a}, lane {lane}");
                }
            }
        }
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
        /// container agrees on insert and probe results, hits, victims
        /// and `iter_set` order across several sets — including after
        /// removals leave the first empty way in the middle of a set. The
        /// way counts cross the 8-way rank-word boundary and leave padding
        /// bytes in the last rank word. There are half again as many
        /// tags as ways, so sets fill and evict. A probe also agrees with
        /// `get` then `insert` on a clone.
        #[test]
        fn matches_positional_reference_with_holes(
            ops in proptest::collection::vec((0u8..8, 0usize..2, 0u64..1000), 1..600)
        ) {
            const SETS: usize = 2;
            for ways in [1usize, 7, 8, 9, 16, 24, 30, 36] {
                let mut sut: SetAssoc<u32> = SetAssoc::new(SETS, ways);
                // reference[set][way] = (tag, value, last use)
                let mut reference = vec![vec![None::<(u64, u32, u64)>; ways]; SETS];
                let mut clock = 0u64;
                let mut payload = 0u32;

                for &(op, set, tag) in &ops {
                    let tag = tag % (ways + ways / 2 + 3) as u64;
                    clock += 1;
                    payload += 1;
                    let slots = &mut reference[set];
                    let pos = slots.iter().position(|w| matches!(w, Some((t, _, _)) if *t == tag));
                    // The reference's insert of an absent tag.
                    let fill = |slots: &mut Vec<Option<(u64, u32, u64)>>| {
                        if let Some(i) = slots.iter().position(Option::is_none) {
                            slots[i] = Some((tag, payload, clock));
                            None
                        } else {
                            let i = (0..ways).min_by_key(|&i| slots[i].unwrap().2).unwrap();
                            let (t, v, _) = slots[i].replace((tag, payload, clock)).unwrap();
                            Some((t, v))
                        }
                    };
                    match op {
                        0..=2 => {
                            let got = sut.insert(set, tag, payload);
                            let want = match pos {
                                Some(i) => {
                                    let (_, old, _) = slots[i].replace((tag, payload, clock)).unwrap();
                                    Some((tag, old))
                                }
                                None => fill(slots),
                            };
                            prop_assert_eq!(got, want);
                        }
                        3 => {
                            let got = sut.get(set, tag).copied();
                            let want = pos.map(|i| {
                                let way = slots[i].as_mut().unwrap();
                                way.2 = clock;
                                way.1
                            });
                            prop_assert_eq!(got, want);
                        }
                        4 => {
                            let got = sut.peek_mut(set, tag).map(|v| {
                                *v += 1000;
                                *v
                            });
                            let want = pos.map(|i| {
                                let way = slots[i].as_mut().unwrap();
                                way.1 += 1000;
                                way.1
                            });
                            prop_assert_eq!(got, want);
                        }
                        5 => {
                            let got = sut.remove(set, tag);
                            let want = pos.map(|i| slots[i].take().unwrap().1);
                            prop_assert_eq!(got, want);
                        }
                        _ => {
                            let mut twin = sut.clone();
                            let twin_got = match twin.get(set, tag).copied() {
                                Some(v) => Ok(v),
                                None => Err(twin.insert(set, tag, payload)),
                            };
                            let got = match sut.probe(set, tag, payload) {
                                Probe::Hit(v) => Ok(*v),
                                Probe::Miss(evicted) => Err(evicted),
                            };
                            let want = match pos {
                                Some(i) => {
                                    let way = slots[i].as_mut().unwrap();
                                    way.2 = clock;
                                    Ok(way.1)
                                }
                                None => Err(fill(slots)),
                            };
                            prop_assert_eq!(&got, &want);
                            prop_assert_eq!(twin_got, want);
                            for s in 0..SETS {
                                let order: Vec<(u64, u32)> = sut.iter_set(s).map(|(t, v)| (t, *v)).collect();
                                let twin_order: Vec<(u64, u32)> = twin.iter_set(s).map(|(t, v)| (t, *v)).collect();
                                prop_assert_eq!(order, twin_order);
                                prop_assert_eq!(sut.victim(s), twin.victim(s));
                            }
                        }
                    }
                    for (s, slots) in reference.iter().enumerate() {
                        let order: Vec<(u64, u32)> = sut.iter_set(s).map(|(t, v)| (t, *v)).collect();
                        let want: Vec<(u64, u32)> = slots.iter().flatten().map(|w| (w.0, w.1)).collect();
                        prop_assert_eq!(order, want);
                        let victim = sut.victim(s).map(|(t, v)| (t, *v));
                        let want_victim = if slots.iter().any(Option::is_none) {
                            None
                        } else {
                            slots.iter().flatten().min_by_key(|w| w.2).map(|w| (w.0, w.1))
                        };
                        prop_assert_eq!(victim, want_victim);
                    }
                    prop_assert_eq!(sut.len(), reference.iter().flatten().flatten().count());
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
