//! An Alloy-style direct-mapped DRAM cache (Qureshi & Loh, MICRO 2012;
//! see PAPERS.md): tags and data fused into one *TAD* (tag-and-data)
//! unit streamed out of the stacked DRAM in a single compound burst.
//!
//! Where the Loh & Hill block cache pays a MissMap lookup plus a
//! tag-then-data CAS pair, Alloy collapses the tag probe and the data
//! transfer into one access to a direct-mapped TAD: hits take one
//! compound stacked access and nothing else, misses pay the same probe
//! and then go off-chip. The model here is the predictor-less
//! serial-access variant (cache probe, then memory), which bounds
//! Alloy's latency benefit from below while keeping it deterministic.

use fc_types::{BlockAddr, MemAccess, PhysAddr};

use crate::design::{DramCacheStats, StorageItem};
use crate::plan::{MemOp, MemTarget, OpSink};

/// Bytes per TAD unit: a 64-byte data block plus an 8-byte tag.
const TAD_BYTES: u64 = 72;
/// TADs per 2 KB stacked row (Alloy packs 28, wasting 32 bytes).
const TADS_PER_ROW: u64 = 28;

/// A TAD slot word's dirty bit. A slot is one `u64`: zero when empty,
/// otherwise `(tag + 1) << 1 | dirty`, so a new cache is one zeroed
/// allocation.
const DIRTY: u64 = 1;

/// The slot word of a clean TAD holding `tag`.
fn clean_tad(tag: u64) -> u64 {
    (tag + 1) << 1
}

/// The Alloy-style direct-mapped tags-in-DRAM cache.
///
/// # Examples
///
/// ```
/// use fc_cache::{AlloyCache, DramCacheModel};
/// use fc_types::{MemAccess, PhysAddr, Pc};
///
/// let mut cache = AlloyCache::new(64 << 20);
/// let a = MemAccess::read(Pc::new(0x400), PhysAddr::new(0x10000), 0);
/// let miss = cache.access(a);
/// assert!(!miss.hit); // cold miss probes the TAD, then goes off-chip
/// let hit = cache.access(a);
/// assert!(hit.hit); // one compound stacked access, nothing else
/// assert_eq!(hit.offchip_read_blocks(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct AlloyCache {
    /// One word per TAD (see [`DIRTY`]).
    slots: Vec<u64>,
    stats: DramCacheStats,
}

impl AlloyCache {
    /// Creates an Alloy cache over `capacity_bytes` of stacked DRAM
    /// (total DRAM, including the in-row tag overhead).
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no TAD.
    pub fn new(capacity_bytes: u64) -> Self {
        let tads = capacity_bytes / TAD_BYTES;
        assert!(tads > 0, "capacity must hold at least one 72-byte TAD");
        Self {
            slots: vec![0; tads as usize],
            stats: DramCacheStats::default(),
        }
    }

    fn decompose(&self, block: BlockAddr) -> (usize, u64) {
        let tads = self.slots.len() as u64;
        ((block.raw() % tads) as usize, block.raw() / tads)
    }

    /// Stacked-DRAM address of a TAD slot, packed 28 per 2 KB row.
    fn slot_addr(&self, index: usize) -> PhysAddr {
        let index = index as u64;
        PhysAddr::new((index / TADS_PER_ROW) * 2048 + (index % TADS_PER_ROW) * TAD_BYTES)
    }

    fn block_of(&self, index: usize, tag: u64) -> BlockAddr {
        BlockAddr::new(tag * self.slots.len() as u64 + index as u64)
    }
}

impl crate::CacheDesign for AlloyCache {
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        let block = req.addr.block();
        let (index, tag) = self.decompose(block);
        // No SRAM structure on the lookup path: the tag rides with the
        // data in the TAD burst.
        sink.critical(MemOp::compound(
            MemTarget::Stacked,
            self.slot_addr(index),
            fc_types::AccessKind::Read,
        ));

        let resident = self.slots[index];
        if resident & !DIRTY == clean_tad(tag) {
            self.stats.hits += 1;
            sink.mark_hit();
            return;
        }

        // Miss: the probe already happened; fetch the block serially
        // from off-chip memory and fill the slot.
        self.stats.misses += 1;
        sink.critical(MemOp::read(MemTarget::OffChip, block.base(), 1));
        self.slots[index] = clean_tad(tag);
        if resident != 0 {
            self.stats.evictions += 1;
            if resident & DIRTY != 0 {
                self.stats.dirty_evictions += 1;
                sink.background(MemOp::write(
                    MemTarget::OffChip,
                    self.block_of(index, (resident >> 1) - 1).base(),
                    1,
                ));
            }
        }
        self.stats.fill_blocks += 1;
        sink.background(MemOp::compound(
            MemTarget::Stacked,
            self.slot_addr(index),
            fc_types::AccessKind::Write,
        ));
    }

    fn writeback_into(&mut self, addr: PhysAddr, sink: &mut impl OpSink) {
        let block = addr.block();
        let (index, tag) = self.decompose(block);
        let slot = &mut self.slots[index];
        if *slot & !DIRTY == clean_tad(tag) {
            *slot |= DIRTY;
            sink.mark_hit();
            sink.background(MemOp::compound(
                MemTarget::Stacked,
                self.slot_addr(index),
                fc_types::AccessKind::Write,
            ));
        } else {
            // Not cached: write through without allocating.
            sink.background(MemOp::write(MemTarget::OffChip, block.base(), 1));
        }
    }

    fn stats(&self) -> &DramCacheStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut DramCacheStats {
        &mut self.stats
    }

    fn storage(&self) -> Vec<StorageItem> {
        // Tags live in the stacked DRAM: no logic-die SRAM at all.
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::OpFlavor;
    use crate::DramCacheModel;
    use fc_types::Pc;

    fn read(addr: u64) -> MemAccess {
        MemAccess::read(Pc::new(0x400), PhysAddr::new(addr), 0)
    }

    fn small() -> AlloyCache {
        AlloyCache::new(1 << 20)
    }

    #[test]
    fn every_access_is_a_compound_stacked_probe() {
        let mut c = small();
        let miss = c.access(read(0x10000));
        assert!(!miss.hit);
        assert_eq!(miss.critical[0].flavor, OpFlavor::CompoundTags);
        assert_eq!(miss.critical[0].target, MemTarget::Stacked);
        assert_eq!(miss.offchip_read_blocks(), 1);

        let hit = c.access(read(0x10000));
        assert!(hit.hit);
        assert_eq!(hit.critical.len(), 1);
        assert_eq!(hit.critical[0].flavor, OpFlavor::CompoundTags);
        assert_eq!(hit.offchip_read_blocks(), 0);
    }

    #[test]
    fn conflicting_block_evicts_direct_mapped_victim() {
        let mut c = small();
        let tads = c.slots.len() as u64;
        c.access(read(0));
        c.writeback(PhysAddr::new(0)); // dirty the resident block
        let plan = c.access(read(tads * 64)); // same slot, different tag
        assert!(!plan.hit);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(plan.offchip_write_blocks(), 1);
        // The original block is gone.
        assert!(!c.access(read(0)).hit);
    }

    #[test]
    fn dirty_victim_writes_back_its_own_block() {
        let mut c = small();
        let tads = c.slots.len() as u64;
        // Tag 0 (block 0) must read as resident, not as an empty slot.
        assert!(!c.access(read(0)).hit);
        assert!(c.access(read(0)).hit);
        // A clean victim leaves without an off-chip write.
        let clean = c.access(read(5 * tads * 64));
        assert!(!clean.hit);
        assert_eq!(clean.offchip_write_blocks(), 0);
        // Dirty the tag-5 block; its eviction writes back that block
        // and no other, and the newcomer arrives clean.
        assert!(c.writeback(PhysAddr::new(5 * tads * 64)).hit);
        let plan = c.access(read(9 * tads * 64));
        let writes: Vec<_> = plan
            .background
            .iter()
            .filter(|op| op.target == MemTarget::OffChip)
            .map(|op| op.addr.raw())
            .collect();
        assert_eq!(writes, [5 * tads * 64]);
        let plan = c.access(read(5 * tads * 64));
        assert_eq!(plan.offchip_write_blocks(), 0, "tag 9 was filled clean");
        assert_eq!(c.stats().evictions, 3);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn writeback_to_absent_block_goes_off_chip() {
        let mut c = small();
        let wb = c.writeback(PhysAddr::new(0x9000));
        assert!(!wb.hit);
        assert_eq!(wb.offchip_write_blocks(), 1);
        assert_eq!(wb.stacked_write_blocks(), 0);
    }

    #[test]
    fn slots_pack_28_tads_per_row() {
        let c = small();
        assert_eq!(c.slot_addr(0).raw(), 0);
        assert_eq!(c.slot_addr(27).raw(), 27 * 72);
        assert_eq!(c.slot_addr(28).raw(), 2048);
    }

    #[test]
    fn no_sram_storage() {
        assert!(small().storage().is_empty());
    }
}
