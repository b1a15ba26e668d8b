//! The Singleton Table (Section 4.4).
//!
//! When the FHT predicts a single-block footprint, Footprint Cache does
//! not allocate the page: the block is forwarded to the upper hierarchy,
//! bypassing the cache. But an unallocated page produces no eviction
//! feedback, so a wrong singleton classification could never be corrected.
//! The Singleton Table closes the loop: it remembers recent singleton
//! decisions (page tag, PC, offset); a second access to such a page — an
//! underprediction — promotes the page to a normal allocation and fixes
//! the FHT entry using the PC & offset stored in the table.

use serde::{Deserialize, Serialize};

use fc_types::PageAddr;

use fc_cache::SetAssoc;

use crate::pattern_hash;

/// What the Singleton Table remembers about one bypassed page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SingletonEntry {
    /// Prediction key (PC & offset, already collapsed by
    /// [`KeyKind`](crate::KeyKind)) that classified the page as singleton.
    pub key: u64,
    /// The single block offset that was accessed.
    pub offset: u8,
}

/// The Singleton Table: 512 entries, 3 KB in the paper's configuration.
///
/// # Examples
///
/// ```
/// use footprint_cache::SingletonTable;
/// use fc_types::PageAddr;
///
/// let mut st = SingletonTable::new(512);
/// let page = PageAddr::new(42);
/// st.record(page, 0x400 << 6, 7);
///
/// // A second access to the page finds (and removes) the entry.
/// let entry = st.take(page).unwrap();
/// assert_eq!(entry.offset, 7);
/// assert!(st.take(page).is_none());
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SingletonTable {
    table: SetAssoc<SingletonEntry>,
}

impl SingletonTable {
    const WAYS: usize = 8;
    /// Bits per entry: page tag + PC&offset key + offset (the paper's 512
    /// entries occupy 3 KB → 48 bits each).
    const ENTRY_BITS: u64 = 48;

    /// Creates a table with `entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of 8.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries > 0 && entries.is_multiple_of(Self::WAYS),
            "entries must be a positive multiple of 8"
        );
        Self {
            table: SetAssoc::new(entries / Self::WAYS, Self::WAYS),
        }
    }

    #[inline]
    fn decompose(&self, page: PageAddr) -> (usize, u64) {
        let h = pattern_hash(page.raw());
        ((h % self.table.sets() as u64) as usize, page.raw())
    }

    /// Records a singleton bypass decision for `page`. The entry stays
    /// until a second access ([`take`](Self::take)) or LRU eviction.
    pub fn record(&mut self, page: PageAddr, key: u64, offset: u8) {
        let (set, tag) = self.decompose(page);
        self.table.insert(set, tag, SingletonEntry { key, offset });
    }

    /// Looks up `page` and, if present, removes and returns its entry —
    /// the second-access promotion path.
    pub fn take(&mut self, page: PageAddr) -> Option<SingletonEntry> {
        let (set, tag) = self.decompose(page);
        self.table.remove(set, tag)
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.table.capacity()
    }

    /// SRAM size in bytes (512 entries → 3 KB).
    pub fn storage_bytes(&self) -> u64 {
        self.table.capacity() as u64 * Self::ENTRY_BITS / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_take_cycle() {
        let mut st = SingletonTable::new(64);
        let p = PageAddr::new(1000);
        st.record(p, 77, 3);
        let e = st.take(p).unwrap();
        assert_eq!(e, SingletonEntry { key: 77, offset: 3 });
        assert!(st.take(p).is_none());
    }

    #[test]
    fn distinct_pages_do_not_collide() {
        let mut st = SingletonTable::new(64);
        st.record(PageAddr::new(1), 10, 1);
        st.record(PageAddr::new(2), 20, 2);
        assert_eq!(st.take(PageAddr::new(1)).unwrap().key, 10);
        assert_eq!(st.take(PageAddr::new(2)).unwrap().key, 20);
    }

    #[test]
    fn rerecord_updates_entry() {
        let mut st = SingletonTable::new(64);
        let p = PageAddr::new(5);
        st.record(p, 1, 1);
        st.record(p, 2, 2);
        assert_eq!(st.take(p).unwrap().offset, 2);
    }

    #[test]
    fn lru_bounds_occupancy() {
        let mut st = SingletonTable::new(8); // one set
        for i in 0..20u64 {
            st.record(PageAddr::new(i), i, 0);
        }
        let live = (0..20u64)
            .filter(|&i| st.take(PageAddr::new(i)).is_some())
            .count();
        assert_eq!(live, 8);
    }

    #[test]
    fn paper_sizing_is_3_kb() {
        let st = SingletonTable::new(512);
        assert_eq!(st.storage_bytes(), 3 * 1024);
    }
}
