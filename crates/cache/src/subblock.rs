//! The sub-blocked (sectored) cache: allocates page-granularity tags but
//! fetches every block on demand. Section 3.1 uses it as the
//! zero-overprediction / maximum-underprediction extreme: every demanded
//! block of a page costs one miss.

use fc_types::{BlockStateVec, MemAccess, PageAddr, PageGeometry, PhysAddr};

use crate::design::{sram_latency_cycles, DramCacheStats, StorageItem};
use crate::page::PAGE_WAYS;
use crate::plan::{MemOp, MemTarget, OpSink};
use crate::setassoc::{Probe, SetAssoc};

/// Bits per entry: page tag + valid/dirty bit vectors (32+32) + LRU.
const TAG_ENTRY_BITS: u64 = 120;

/// A sectored page cache: page tags, demand-fetched blocks.
///
/// # Examples
///
/// ```
/// use fc_cache::{DramCacheModel, SubBlockCache};
/// use fc_types::{MemAccess, PageGeometry, PhysAddr, Pc};
///
/// let mut cache = SubBlockCache::new(64 << 20, PageGeometry::new(2048));
/// let a = MemAccess::read(Pc::new(1), PhysAddr::new(0x4000), 0);
/// assert!(!cache.access(a).hit);  // page miss
/// // A different block of the now-allocated page still misses
/// // (sub-miss): that is the underprediction cost.
/// let b = MemAccess::read(Pc::new(1), PhysAddr::new(0x4040), 0);
/// assert!(!cache.access(b).hit);
/// // But the first block is now resident.
/// assert!(cache.access(a).hit);
/// ```
#[derive(Clone, Debug)]
pub struct SubBlockCache {
    tags: SetAssoc<BlockStateVec>,
    geom: PageGeometry,
    tag_latency: u32,
    stats: DramCacheStats,
}

impl SubBlockCache {
    /// Creates a sub-blocked cache of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer than 16 pages.
    pub fn new(capacity_bytes: u64, geom: PageGeometry) -> Self {
        let pages = (capacity_bytes / geom.page_size() as u64) as usize;
        assert!(pages >= PAGE_WAYS, "capacity must hold at least 16 pages");
        let tag_latency = sram_latency_cycles(pages as u64 * TAG_ENTRY_BITS / 8);
        Self {
            tags: SetAssoc::new(pages / PAGE_WAYS, PAGE_WAYS),
            geom,
            tag_latency,
            stats: DramCacheStats::default(),
        }
    }

    fn decompose(&self, page: PageAddr) -> (usize, u64) {
        let sets = self.tags.sets() as u64;
        ((page.raw() % sets) as usize, page.raw() / sets)
    }

    fn slot_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let slot = set as u64 * PAGE_WAYS as u64 + tag % PAGE_WAYS as u64;
        PhysAddr::new(slot * self.geom.page_size() as u64)
    }

    fn evict(
        &mut self,
        set: usize,
        victim_tag: u64,
        states: BlockStateVec,
        sink: &mut impl OpSink,
    ) {
        self.stats.evictions += 1;
        self.stats.density.record(states.demanded().len());
        let dirty = states.dirty();
        if dirty.is_empty() {
            return;
        }
        self.stats.dirty_evictions += 1;
        let sets = self.tags.sets() as u64;
        let victim_page = PageAddr::new(victim_tag * sets + set as u64);
        sink.background(MemOp::read(
            MemTarget::Stacked,
            self.slot_addr(set, victim_tag),
            dirty.len() as u32,
        ));
        sink.background(MemOp::write(
            MemTarget::OffChip,
            self.geom.page_base(victim_page),
            dirty.len() as u32,
        ));
    }
}

impl crate::CacheDesign for SubBlockCache {
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        let page = self.geom.page_of(req.addr);
        let offset = self.geom.block_offset(req.addr);
        let (set, tag) = self.decompose(page);
        sink.lookup(self.tag_latency);

        // A page miss allocates the tag, so one probe looks up and fills.
        let mut fill = BlockStateVec::new();
        fill.demand_read(offset);
        let evicted = match self.tags.probe(set, tag, fill) {
            Probe::Hit(states) => {
                if states.state(offset).is_present() {
                    states.demand_read(offset);
                    self.stats.hits += 1;
                    sink.mark_hit();
                    sink.critical(MemOp::read(MemTarget::Stacked, self.slot_addr(set, tag), 1));
                    return;
                }
                // Sub-miss: page allocated, block absent.
                states.demand_read(offset);
                self.stats.misses += 1;
                sink.critical(MemOp::read(MemTarget::OffChip, req.addr.block().base(), 1));
                self.stats.fill_blocks += 1;
                sink.background(MemOp::write(
                    MemTarget::Stacked,
                    self.slot_addr(set, tag),
                    1,
                ));
                return;
            }
            Probe::Miss(evicted) => evicted,
        };

        // Page miss: the tag is allocated, fetch only the demanded block.
        self.stats.misses += 1;
        sink.critical(MemOp::read(MemTarget::OffChip, req.addr.block().base(), 1));
        if let Some((victim_tag, victim)) = evicted {
            self.evict(set, victim_tag, victim, sink);
        }
        self.stats.fill_blocks += 1;
        sink.background(MemOp::write(
            MemTarget::Stacked,
            self.slot_addr(set, tag),
            1,
        ));
    }

    fn writeback_into(&mut self, addr: PhysAddr, sink: &mut impl OpSink) {
        let page = self.geom.page_of(addr);
        let offset = self.geom.block_offset(addr);
        let (set, tag) = self.decompose(page);
        sink.lookup(self.tag_latency);
        match self.tags.get(set, tag) {
            Some(states) if states.state(offset).is_present() => {
                states.demand_write(offset);
                sink.mark_hit();
                sink.background(MemOp::write(
                    MemTarget::Stacked,
                    self.slot_addr(set, tag),
                    1,
                ));
            }
            _ => {
                sink.background(MemOp::write(MemTarget::OffChip, addr.block().base(), 1));
            }
        }
    }

    fn stats(&self) -> &DramCacheStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut DramCacheStats {
        &mut self.stats
    }

    fn storage(&self) -> Vec<StorageItem> {
        let bytes = self.tags.capacity() as u64 * TAG_ENTRY_BITS / 8;
        vec![StorageItem {
            name: "sub-blocked tags",
            bytes,
            latency_cycles: self.tag_latency,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramCacheModel;
    use fc_types::Pc;

    fn read(addr: u64) -> MemAccess {
        MemAccess::read(Pc::new(0x400), PhysAddr::new(addr), 0)
    }

    fn cache() -> SubBlockCache {
        SubBlockCache::new(1 << 20, PageGeometry::new(2048))
    }

    #[test]
    fn every_new_block_misses_once() {
        let mut c = cache();
        for b in 0..8u64 {
            let plan = c.access(read(b * 64));
            assert!(!plan.hit, "block {b} must sub-miss");
            assert_eq!(plan.offchip_read_blocks(), 1);
        }
        for b in 0..8u64 {
            assert!(c.access(read(b * 64)).hit);
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 8);
    }

    #[test]
    fn fetches_exactly_demanded_blocks() {
        let mut c = cache();
        c.access(read(0));
        c.access(read(64));
        // Only 2 blocks moved off-chip: zero overprediction by definition.
        assert_eq!(c.stats().offchip_read_blocks, 2);
        assert_eq!(c.stats().fill_blocks, 2);
    }

    #[test]
    fn eviction_writes_only_dirty_blocks() {
        let mut c = cache();
        let sets = c.tags.sets() as u64;
        c.access(read(0));
        c.access(read(64));
        c.writeback(PhysAddr::new(0)); // one dirty block
        for i in 1..=PAGE_WAYS as u64 {
            c.access(read(i * sets * 2048));
        }
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().offchip_write_blocks, 1);
    }

    #[test]
    fn warm_path_matches_detailed_path() {
        // The warmup-only update path must leave the cache — tags,
        // replacement order, block states, and every statistic —
        // exactly where the plan-building path would.
        let mut detailed = cache();
        let mut warm = cache();
        // A mixed stream with reuse, sub-misses, conflict evictions
        // and dirty pages (addresses stride the set index).
        let mut addr = 0x40u64;
        for i in 0..4_000u64 {
            addr = addr
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (addr >> 16) % (64 << 20);
            if i % 3 == 0 {
                let _ = detailed.writeback(PhysAddr::new(a));
                warm.warm_writeback(PhysAddr::new(a));
            } else {
                let req = MemAccess::read(Pc::new(0x400), PhysAddr::new(a), 0);
                let _ = detailed.access(req);
                warm.warm_access(req);
            }
        }
        assert_eq!(detailed.stats(), warm.stats());
        // Replacement state must agree too: the same probe stream
        // produces identical plans afterwards.
        for probe in (0..64u64).map(|i| i * 0x10040) {
            let req = MemAccess::read(Pc::new(0x400), PhysAddr::new(probe), 0);
            assert_eq!(detailed.access(req), warm.access(req));
        }
    }

    #[test]
    fn density_counts_demanded_blocks() {
        let mut c = cache();
        let sets = c.tags.sets() as u64;
        c.access(read(0));
        c.access(read(64));
        c.access(read(128));
        for i in 1..=PAGE_WAYS as u64 {
            c.access(read(i * sets * 2048));
        }
        assert_eq!(c.stats().density.bins()[1], 1); // 3 blocks -> 2-3 bin
    }
}
