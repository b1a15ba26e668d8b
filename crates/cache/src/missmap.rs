//! The MissMap: an SRAM structure that tracks which blocks are present in
//! a tags-in-DRAM block cache, at 4 KB-region granularity (Loh & Hill
//! [24], described in Section 5.2).
//!
//! Each entry covers a 4 KB region with a 64-bit presence vector. A lookup
//! answers "is this block cached?" without touching DRAM, so misses skip
//! the in-DRAM tag access entirely. The catch the paper highlights: when a
//! MissMap entry is evicted, every still-cached block of its region must
//! be evicted from the DRAM cache — and those blocks live in *different*
//! cache sets, hence different DRAM rows, causing bursts of row
//! activations that interfere with demand traffic (the 512 MB pathology
//! that made the authors grow the MissMap by 50%).

use serde::{Deserialize, Serialize};

use fc_types::{BlockAddr, Footprint};

use crate::design::sram_latency_cycles;
use crate::setassoc::SetAssoc;

/// Blocks per tracked region (4 KB / 64 B).
pub const REGION_BLOCKS: u64 = 64;

/// A region evicted from the MissMap: the cache must evict all its
/// still-present blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedRegion {
    /// First block of the region.
    pub base: BlockAddr,
    /// Which of the 64 blocks were present.
    pub present: Footprint,
}

/// Where [`MissMap::lookup`] found a block: its presence bit and the way
/// of its region entry, for a later [`MissMap::set_present_at`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegionLookup {
    /// Whether the block is marked present.
    pub present: bool,
    set: usize,
    tag: u64,
    offset: usize,
    way: Option<usize>,
}

/// The block-presence tracker of the block-based design.
///
/// # Examples
///
/// ```
/// use fc_cache::MissMap;
/// use fc_types::BlockAddr;
///
/// let mut mm = MissMap::new(1024, 16);
/// let b = BlockAddr::new(12345);
/// assert!(!mm.contains(b));
/// mm.set_present(b);
/// assert!(mm.contains(b));
/// mm.clear_present(b);
/// assert!(!mm.contains(b));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MissMap {
    regions: SetAssoc<u64>,
    latency: u32,
}

impl MissMap {
    /// Bits per entry: region tag (~26 bits at 40-bit addressing) + 64-bit
    /// presence vector (Table 4's storage numbers imply ~85 bits with LRU).
    const ENTRY_BITS: u64 = 85;

    /// Creates a MissMap with `entries` entries of associativity `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            entries > 0 && entries.is_multiple_of(ways),
            "entries must be a positive multiple of ways"
        );
        let bytes = entries as u64 * Self::ENTRY_BITS / 8;
        Self {
            regions: SetAssoc::new(entries / ways, ways),
            latency: sram_latency_cycles(bytes),
        }
    }

    /// The paper's sizing (Table 4): 192K entries, 24-way for caches up to
    /// 256 MB; 288K entries, 36-way at 512 MB (grown 50% to tame the
    /// forced-eviction pathology).
    pub fn for_cache_capacity(capacity_bytes: u64) -> Self {
        if capacity_bytes >= 512 << 20 {
            Self::new(288 * 1024, 36)
        } else {
            Self::new(192 * 1024, 24)
        }
    }

    /// Lookup latency in core cycles (on the critical path of every
    /// request to the block cache).
    pub fn latency_cycles(&self) -> u32 {
        self.latency
    }

    /// SRAM size in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.regions.capacity() as u64 * Self::ENTRY_BITS / 8
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.regions.capacity()
    }

    /// Heap memory held by the simulator's model of the array, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.regions.heap_bytes()
    }

    fn decompose(&self, block: BlockAddr) -> (usize, u64, usize) {
        let region = block.raw() / REGION_BLOCKS;
        let offset = (block.raw() % REGION_BLOCKS) as usize;
        let sets = self.regions.sets() as u64;
        ((region % sets) as usize, region / sets, offset)
    }

    /// Whether `block` is marked present.
    pub fn contains(&mut self, block: BlockAddr) -> bool {
        self.lookup(block).present
    }

    /// [`contains`](Self::contains), remembering where the block's region
    /// entry is.
    pub(crate) fn lookup(&mut self, block: BlockAddr) -> RegionLookup {
        let (set, tag, offset) = self.decompose(block);
        let (present, way) = match self.regions.get_way(set, tag) {
            Some((way, bits)) => ((*bits >> offset) & 1 == 1, Some(way)),
            None => (false, None),
        };
        RegionLookup {
            present,
            set,
            tag,
            offset,
            way,
        }
    }

    /// Marks `block` present, allocating its region entry if needed.
    /// Returns the evicted region (with its presence vector) if the
    /// allocation displaced one.
    pub fn set_present(&mut self, block: BlockAddr) -> Option<EvictedRegion> {
        // One scan: a found region is touched again, which leaves the
        // most recent region most recent.
        let found = self.lookup(block);
        self.set_present_at(found)
    }

    /// [`set_present`](Self::set_present) for the block `found` looked
    /// up, reusing its way instead of scanning the set again. Between the
    /// two calls the MissMap may be probed and its bits changed, but no
    /// region may be inserted or removed, so the region still sits where
    /// it was found (or is still absent).
    pub(crate) fn set_present_at(&mut self, found: RegionLookup) -> Option<EvictedRegion> {
        let RegionLookup {
            set,
            tag,
            offset,
            way,
            ..
        } = found;
        match way {
            Some(way) => {
                *self.regions.touch(set, way) |= 1 << offset;
                None
            }
            None => self
                .regions
                .fill(set, tag, 1 << offset)
                .map(|(vtag, bits)| {
                    let region = vtag * self.regions.sets() as u64 + set as u64;
                    EvictedRegion {
                        base: BlockAddr::new(region * REGION_BLOCKS),
                        present: Footprint::from_bits(bits),
                    }
                }),
        }
    }

    /// Clears `block`'s presence bit (the cache evicted it). Empty region
    /// entries are retained (they age out via LRU, as in hardware).
    pub fn clear_present(&mut self, block: BlockAddr) {
        let (set, tag, offset) = self.decompose(block);
        if let Some(bits) = self.regions.get(set, tag) {
            *bits &= !(1 << offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presence_round_trip() {
        let mut mm = MissMap::new(64, 4);
        let b = BlockAddr::new(999);
        assert!(!mm.contains(b));
        assert!(mm.set_present(b).is_none());
        assert!(mm.contains(b));
        mm.clear_present(b);
        assert!(!mm.contains(b));
    }

    #[test]
    fn blocks_of_one_region_share_an_entry() {
        let mut mm = MissMap::new(64, 4);
        let region_base = BlockAddr::new(128); // region 2
        mm.set_present(region_base);
        mm.set_present(BlockAddr::new(128 + 63));
        assert!(mm.contains(region_base));
        assert!(mm.contains(BlockAddr::new(128 + 63)));
        assert!(!mm.contains(BlockAddr::new(128 + 1)));
    }

    #[test]
    fn eviction_returns_region_contents() {
        // 1 set, 2 ways: the third distinct region evicts the LRU one.
        let mut mm = MissMap::new(2, 2);
        mm.set_present(BlockAddr::new(0)); // region 0, offset 0
        mm.set_present(BlockAddr::new(3)); // region 0, offset 3
        mm.set_present(BlockAddr::new(64)); // region 1
        let evicted = mm
            .set_present(BlockAddr::new(128))
            .expect("evicts region 0");
        assert_eq!(evicted.base, BlockAddr::new(0));
        assert_eq!(evicted.present, Footprint::from_offsets([0, 3]));
        // Evicted blocks are gone.
        assert!(!mm.contains(BlockAddr::new(0)));
    }

    /// The Block-based miss path: `lookup`, then a probe of another
    /// region, then `set_present_at`. The second touch makes the looked-up
    /// region most recent again, so the next allocation evicts the other.
    #[test]
    fn set_present_at_touches_the_found_region_again() {
        // 1 set, 2 ways; regions 0 and 1 resident, region 1 most recent.
        let mut mm = MissMap::new(2, 2);
        mm.set_present(BlockAddr::new(0));
        mm.set_present(BlockAddr::new(64));
        let found = mm.lookup(BlockAddr::new(1)); // region 0, bit clear
        assert!(!found.present);
        mm.clear_present(BlockAddr::new(64)); // touches region 1
        assert!(mm.set_present_at(found).is_none());
        let evicted = mm.set_present(BlockAddr::new(128)).expect("set is full");
        assert_eq!(evicted.base, BlockAddr::new(64));
        assert!(mm.contains(BlockAddr::new(1)));
    }

    #[test]
    fn paper_sizings() {
        let small = MissMap::for_cache_capacity(256 << 20);
        assert_eq!(small.entries(), 192 * 1024);
        assert_eq!(small.latency_cycles(), 9); // Table 4
        let large = MissMap::for_cache_capacity(512 << 20);
        assert_eq!(large.entries(), 288 * 1024);
        assert_eq!(large.latency_cycles(), 11); // Table 4
                                                // Storage close to the paper's 1.95 / 2.92 MB.
        let mb = small.storage_bytes() as f64 / (1 << 20) as f64;
        assert!((mb - 1.95).abs() < 0.2, "{mb}");
        let mb = large.storage_bytes() as f64 / (1 << 20) as f64;
        assert!((mb - 2.92).abs() < 0.3, "{mb}");
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_geometry_rejected() {
        MissMap::new(10, 3);
    }
}
