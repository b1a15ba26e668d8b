//! The block-based DRAM cache: the paper's state-of-the-art baseline
//! (Loh & Hill [24], modeled per Section 5.2).
//!
//! Data is cached in 64-byte blocks. Tags live *in* the stacked DRAM,
//! co-located with their set: one 2 KB DRAM row holds one set — 30 data
//! blocks plus two tag blocks (the paper's improved packing after dropping
//! coherence bits). Every cache access is a compound DRAM access (ACT,
//! CAS for tags, 1-cycle lookup, CAS for data, plus an off-critical-path
//! tag-update CAS). A [`MissMap`] in SRAM answers presence queries so
//! misses go straight to memory; its entry evictions force-evict every
//! still-cached block of a 4 KB region, each living in a different DRAM
//! row.

use fc_types::{BlockAddr, MemAccess, PhysAddr};

use crate::design::{DramCacheModel, DramCacheStats, StorageItem};
use crate::missmap::MissMap;
use crate::plan::{AccessPlan, BlockCounts, MemOp, MemTarget, OpSink};
use crate::setassoc::SetAssoc;

/// Data blocks per 2 KB DRAM row (set): 30 data + 2 tag blocks.
const WAYS: usize = 30;
/// Stacked-DRAM row size in bytes.
const ROW_BYTES: u64 = 2048;

/// The Loh & Hill-style block-based DRAM cache.
///
/// # Examples
///
/// ```
/// use fc_cache::{BlockBasedCache, DramCacheModel};
/// use fc_types::{MemAccess, PhysAddr, Pc};
///
/// let mut cache = BlockBasedCache::new(64 << 20);
/// let a = MemAccess::read(Pc::new(0x400), PhysAddr::new(0x10000), 0);
/// let miss = cache.access(a);
/// assert!(!miss.hit);
/// let hit = cache.access(a);
/// assert!(hit.hit); // the fill made it resident
/// ```
#[derive(Clone, Debug)]
pub struct BlockBasedCache {
    /// Per-set block tags; value = dirty bit. Mirrors the in-DRAM tags.
    tags: SetAssoc<bool>,
    missmap: MissMap,
    stats: DramCacheStats,
}

impl BlockBasedCache {
    /// Creates a block-based cache of `capacity_bytes` of stacked DRAM
    /// (total DRAM, including the in-row tag overhead), with the paper's
    /// MissMap sizing for that capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one 2 KB row.
    pub fn new(capacity_bytes: u64) -> Self {
        let rows = (capacity_bytes / ROW_BYTES) as usize;
        assert!(rows > 0, "capacity must be at least one 2 KB row");
        Self {
            tags: SetAssoc::new(rows, WAYS),
            missmap: MissMap::for_cache_capacity(capacity_bytes),
            stats: DramCacheStats::default(),
        }
    }

    fn decompose(&self, block: BlockAddr) -> (usize, u64) {
        let sets = self.tags.sets() as u64;
        ((block.raw() % sets) as usize, block.raw() / sets)
    }

    /// Stacked-DRAM address of a set's row.
    fn row_addr(&self, set: usize) -> PhysAddr {
        PhysAddr::new(set as u64 * ROW_BYTES)
    }

    fn block_of(&self, set: usize, tag: u64) -> BlockAddr {
        BlockAddr::new(tag * self.tags.sets() as u64 + set as u64)
    }

    /// Evicts `block` from the tag array (if present), emitting the
    /// required DRAM ops as background ops.
    fn evict_block(&mut self, block: BlockAddr, sink: &mut impl OpSink) {
        let (set, tag) = self.decompose(block);
        if let Some(dirty) = self.tags.remove(set, tag) {
            self.stats.evictions += 1;
            if dirty {
                self.stats.dirty_evictions += 1;
                sink.background(MemOp::read(MemTarget::Stacked, self.row_addr(set), 1));
                sink.background(MemOp::write(MemTarget::OffChip, block.base(), 1));
            }
            self.missmap.clear_present(block);
        }
    }

    /// The demand-access transition, for either sink.
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        let block = req.addr.block();
        let (set, tag) = self.decompose(block);
        sink.lookup(self.missmap.latency_cycles());

        let found = self.missmap.lookup(block);
        if found.present && self.tags.get(set, tag).is_some() {
            // Hit: compound in-DRAM tag + data access. Demand accesses
            // always *read* the block into the L2 (write-allocate);
            // dirtying happens later through writebacks.
            self.stats.hits += 1;
            sink.mark_hit();
            sink.critical(MemOp::compound(
                MemTarget::Stacked,
                self.row_addr(set),
                fc_types::AccessKind::Read,
            ));
            return;
        }

        // Miss: demand block straight from memory (the MissMap's purpose).
        self.stats.misses += 1;
        sink.critical(MemOp::read(MemTarget::OffChip, block.base(), 1));

        // Fill the block into its set (write-allocate), evicting the LRU
        // victim of the set if full. The MissMap marks every block in the
        // tag array present, so a block it does not mark is absent there.
        if let Some((victim_tag, dirty)) = self.tags.fill(set, tag, false) {
            self.stats.evictions += 1;
            let victim = self.block_of(set, victim_tag);
            if dirty {
                self.stats.dirty_evictions += 1;
                sink.background(MemOp::read(MemTarget::Stacked, self.row_addr(set), 1));
                sink.background(MemOp::write(MemTarget::OffChip, victim.base(), 1));
            }
            self.missmap.clear_present(victim);
        }
        self.stats.fill_blocks += 1;
        sink.background(MemOp::compound(
            MemTarget::Stacked,
            self.row_addr(set),
            fc_types::AccessKind::Write,
        ));

        // Update the MissMap; a displaced region forces eviction of all
        // its cached blocks — each in a different set, hence row. Since
        // the lookup, the victim's `clear_present` may have touched the
        // MissMap but inserted or removed nothing, so the lookup's way
        // still holds (or still lacks) this block's region.
        if let Some(region) = self.missmap.set_present_at(found) {
            for offset in region.present.iter() {
                let b = BlockAddr::new(region.base.raw() + offset as u64);
                self.evict_block(b, sink);
            }
        }
    }

    /// The L2-writeback transition, for either sink.
    fn writeback_into(&mut self, addr: PhysAddr, sink: &mut impl OpSink) {
        let block = addr.block();
        let (set, tag) = self.decompose(block);
        sink.lookup(self.missmap.latency_cycles());
        if self.missmap.contains(block) {
            if let Some(dirty) = self.tags.get(set, tag) {
                *dirty = true;
                sink.mark_hit();
                sink.background(MemOp::compound(
                    MemTarget::Stacked,
                    self.row_addr(set),
                    fc_types::AccessKind::Write,
                ));
                return;
            }
        }
        // Not cached: write through to memory without allocating.
        sink.background(MemOp::write(MemTarget::OffChip, block.base(), 1));
    }
}

impl DramCacheModel for BlockBasedCache {
    fn access(&mut self, req: MemAccess) -> AccessPlan {
        AccessPlan::build(|plan| self.access_into(req, plan)).tally(&mut self.stats)
    }

    fn writeback(&mut self, addr: PhysAddr) -> AccessPlan {
        AccessPlan::build(|plan| self.writeback_into(addr, plan)).tally(&mut self.stats)
    }

    fn warm_access(&mut self, req: MemAccess) {
        BlockCounts::build(|counts| self.access_into(req, counts)).tally(&mut self.stats);
    }

    fn warm_writeback(&mut self, addr: PhysAddr) {
        BlockCounts::build(|counts| self.writeback_into(addr, counts)).tally(&mut self.stats);
    }

    fn stats(&self) -> &DramCacheStats {
        &self.stats
    }

    fn storage(&self) -> Vec<StorageItem> {
        vec![StorageItem {
            name: "MissMap",
            bytes: self.missmap.storage_bytes(),
            latency_cycles: self.missmap.latency_cycles(),
        }]
    }

    fn name(&self) -> &'static str {
        "Block-based"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::Pc;

    fn read(addr: u64) -> MemAccess {
        MemAccess::read(Pc::new(0x400), PhysAddr::new(addr), 0)
    }

    fn small() -> BlockBasedCache {
        BlockBasedCache::new(1 << 20) // 512 rows
    }

    /// At 64 MB the tag array (32,768 sets x 30 ways) and the MissMap
    /// (192K entries) stay compact: one tag word and one rank byte per
    /// way, plus the value. With 24-32 byte `Option` slots per way they
    /// took 29.9 MB, and building one dominated a tiny fresh point.
    #[test]
    fn tag_array_and_missmap_stay_compact_at_64mb() {
        let c = BlockBasedCache::new(64 << 20);
        let bytes = c.tags.heap_bytes() + c.missmap.heap_bytes();
        assert!(bytes < 14 << 20, "{bytes} bytes");
    }

    #[test]
    fn miss_fetches_one_block_off_chip() {
        let mut c = small();
        let plan = c.access(read(0x10000));
        assert!(!plan.hit);
        assert_eq!(plan.offchip_read_blocks(), 1);
        // Fill writes the block (plus tag bursts at the DRAM model).
        assert_eq!(plan.stacked_write_blocks(), 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn second_access_hits_in_stacked_dram() {
        let mut c = small();
        c.access(read(0x10000));
        let plan = c.access(read(0x10000));
        assert!(plan.hit);
        assert_eq!(plan.offchip_read_blocks(), 0);
        assert_eq!(plan.stacked_read_blocks(), 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn writeback_to_cached_block_dirties_it() {
        let mut c = small();
        c.access(read(0x10000));
        let wb = c.writeback(PhysAddr::new(0x10000));
        assert!(wb.hit);
        assert_eq!(wb.stacked_write_blocks(), 1);
        assert_eq!(wb.offchip_write_blocks(), 0);
    }

    #[test]
    fn writeback_to_absent_block_goes_off_chip() {
        let mut c = small();
        let wb = c.writeback(PhysAddr::new(0x77000));
        assert!(!wb.hit);
        assert_eq!(wb.offchip_write_blocks(), 1);
        assert_eq!(wb.stacked_write_blocks(), 0);
    }

    #[test]
    fn dirty_victim_written_back_on_conflict() {
        let mut c = small();
        let sets = c.tags.sets() as u64;
        // Fill one set beyond capacity with dirty blocks.
        for i in 0..=WAYS as u64 {
            let addr = i * sets * 64; // same set, distinct tags
            c.access(read(addr));
            c.writeback(PhysAddr::new(addr));
        }
        assert!(c.stats().dirty_evictions >= 1);
        assert!(c.stats().offchip_write_blocks >= 1);
    }

    #[test]
    fn missmap_region_eviction_purges_cached_blocks() {
        // Tiny MissMap to force region evictions quickly.
        let mut c = BlockBasedCache {
            tags: SetAssoc::new(4096, WAYS),
            missmap: MissMap::new(2, 2),
            stats: DramCacheStats::default(),
        };
        c.access(read(0)); // region 0
        c.access(read(4096)); // region 1
        assert!(c.stats().evictions == 0);
        c.access(read(8192)); // region 2 displaces region 0
                              // Block 0 must be gone from the cache now.
        let plan = c.access(read(0));
        assert!(!plan.hit, "region eviction must purge block");
    }

    #[test]
    fn forced_region_eviction_writes_back_dirty_blocks_in_footprint_order() {
        // One 2-way MissMap set: the third region displaces the first.
        let mut c = BlockBasedCache {
            tags: SetAssoc::new(4096, WAYS),
            missmap: MissMap::new(2, 2),
            stats: DramCacheStats::default(),
        };
        // Region 0 holds blocks 0..6, all but block 3 dirty: five dirty
        // blocks emit ten ops, past `OpList`'s inline capacity.
        for b in 0..6u64 {
            c.access(read(b * 64));
        }
        for b in [5u64, 0, 2, 4, 1] {
            assert!(c.writeback(PhysAddr::new(b * 64)).hit);
        }
        c.access(read(4096)); // region 1
        assert_eq!(c.stats().evictions, 0);

        let plan = c.access(read(8192)); // region 2 displaces region 0
        assert!(!plan.hit);
        let read_row = |addr| MemOp::read(MemTarget::Stacked, PhysAddr::new(addr), 1);
        let write_back = |addr| MemOp::write(MemTarget::OffChip, PhysAddr::new(addr), 1);
        // The fill of block 128 (set 128), then per dirty block of region
        // 0 in footprint order: read it out of its row, write it off-chip.
        let expected = [
            MemOp::compound(
                MemTarget::Stacked,
                PhysAddr::new(128 * ROW_BYTES),
                fc_types::AccessKind::Write,
            ),
            read_row(0),
            write_back(0),
            read_row(ROW_BYTES),
            write_back(64),
            read_row(2 * ROW_BYTES),
            write_back(128),
            read_row(4 * ROW_BYTES),
            write_back(256),
            read_row(5 * ROW_BYTES),
            write_back(320),
        ];
        assert_eq!(plan.background.as_slice(), &expected);
        assert_eq!(
            plan.critical.as_slice(),
            &[MemOp::read(MemTarget::OffChip, PhysAddr::new(8192), 1)]
        );
        assert_eq!(c.stats().evictions, 6);
        assert_eq!(c.stats().dirty_evictions, 5);
        for b in 0..6u64 {
            assert!(!c.access(read(b * 64)).hit, "block {b} was purged");
        }
    }

    #[test]
    fn storage_reports_missmap() {
        let c = BlockBasedCache::new(256 << 20);
        let items = c.storage();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "MissMap");
        assert_eq!(items[0].latency_cycles, 9);
    }
}
