//! A CHOP-style hot-page filter cache (Jiang et al. [13], evaluated in
//! Section 6.7): only pages predicted *hot* — those whose off-chip access
//! count reaches a threshold — are allocated and fetched at page
//! granularity; cold pages bypass the cache block by block.
//!
//! The paper finds this approach ineffective for scale-out workloads:
//! their vast, uniformly accessed datasets mean even an ideal replacement
//! policy needs >1 GB to cover 80% of accesses (Figure 12). The
//! implementation here lets the reproduction make the same measurement.

use fc_types::{Footprint, MemAccess, PageAddr, PageGeometry, PhysAddr};

use crate::design::{sram_latency_cycles, DramCacheModel, DramCacheStats, StorageItem};
use crate::page::PAGE_WAYS;
use crate::plan::{AccessPlan, BlockCounts, MemOp, MemTarget, OpSink};
use crate::setassoc::{Probe, SetAssoc};

/// Bits per filter-table entry (page tag + saturating counter).
const FILTER_ENTRY_BITS: u64 = 32;
/// Bits per page tag entry.
const TAG_ENTRY_BITS: u64 = 56;

#[derive(Clone, Copy, Debug, Default)]
struct PageInfo {
    touched: Footprint,
    dirty: Footprint,
}

/// A hot-page filter DRAM cache.
///
/// # Examples
///
/// ```
/// use fc_cache::{DramCacheModel, HotPageCache};
/// use fc_types::{MemAccess, PageGeometry, PhysAddr, Pc};
///
/// let mut cache = HotPageCache::new(64 << 20, PageGeometry::new(4096), 2);
/// let a = MemAccess::read(Pc::new(1), PhysAddr::new(0x8000), 0);
/// // The first access bypasses (the page is not yet hot)...
/// assert!(cache.access(a).bypass);
/// // ...the second reaches the threshold, allocating the page.
/// assert!(!cache.access(a).bypass);
/// assert!(cache.access(a).hit);
/// ```
#[derive(Clone, Debug)]
pub struct HotPageCache {
    tags: SetAssoc<PageInfo>,
    filter: SetAssoc<u32>,
    threshold: u32,
    geom: PageGeometry,
    tag_latency: u32,
    stats: DramCacheStats,
}

impl HotPageCache {
    /// Number of filter-table entries (page access counters).
    const FILTER_ENTRIES: usize = 64 * 1024;

    /// Creates a hot-page cache of `capacity_bytes`. A page is declared
    /// hot — and allocated — once `threshold` off-chip accesses have been
    /// observed for it. The paper's CHOP evaluation uses 4 KB pages.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer than 16 pages or
    /// `threshold == 0`.
    pub fn new(capacity_bytes: u64, geom: PageGeometry, threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        let pages = (capacity_bytes / geom.page_size() as u64) as usize;
        assert!(pages >= PAGE_WAYS, "capacity must hold at least 16 pages");
        let tag_latency = sram_latency_cycles(pages as u64 * TAG_ENTRY_BITS / 8);
        Self {
            tags: SetAssoc::new(pages / PAGE_WAYS, PAGE_WAYS),
            filter: SetAssoc::new(Self::FILTER_ENTRIES / 16, 16),
            threshold,
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

    /// Bumps the page's access counter; returns true once hot.
    fn observe(&mut self, page: PageAddr) -> bool {
        let fsets = self.filter.sets() as u64;
        let (fset, ftag) = ((page.raw() % fsets) as usize, page.raw() / fsets);
        match self.filter.probe(fset, ftag, 1) {
            Probe::Hit(count) => {
                *count += 1;
                *count >= self.threshold
            }
            Probe::Miss(_) => self.threshold <= 1,
        }
    }

    /// The demand-access transition, for either sink.
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        let page = self.geom.page_of(req.addr);
        let offset = self.geom.block_offset(req.addr);
        let (set, tag) = self.decompose(page);
        sink.lookup(self.tag_latency);

        if let Some(info) = self.tags.get(set, tag) {
            info.touched.insert(offset);
            self.stats.hits += 1;
            sink.mark_hit();
            sink.critical(MemOp::read(MemTarget::Stacked, self.slot_addr(set, tag), 1));
            return;
        }

        self.stats.misses += 1;
        if !self.observe(page) {
            // Cold page: bypass block by block, no allocation.
            self.stats.bypasses += 1;
            sink.mark_bypass();
            sink.critical(MemOp::read(MemTarget::OffChip, req.addr.block().base(), 1));
            return;
        }

        // Hot page: allocate and fetch whole page.
        let blocks = self.geom.blocks_per_page() as u32;
        sink.critical(MemOp::read(
            MemTarget::OffChip,
            self.geom.page_base(page),
            blocks,
        ));
        let mut info = PageInfo::default();
        info.touched.insert(offset);
        if let Some((victim_tag, victim)) = self.tags.fill(set, tag, info) {
            self.stats.evictions += 1;
            self.stats.density.record(victim.touched.len());
            if !victim.dirty.is_empty() {
                self.stats.dirty_evictions += 1;
                let sets = self.tags.sets() as u64;
                let victim_page = PageAddr::new(victim_tag * sets + set as u64);
                sink.background(MemOp::read(
                    MemTarget::Stacked,
                    self.slot_addr(set, victim_tag),
                    blocks,
                ));
                sink.background(MemOp::write(
                    MemTarget::OffChip,
                    self.geom.page_base(victim_page),
                    blocks,
                ));
            }
        }
        self.stats.fill_blocks += blocks as u64;
        sink.background(MemOp::write(
            MemTarget::Stacked,
            self.slot_addr(set, tag),
            blocks,
        ));
    }

    /// The L2-writeback transition, for either sink.
    fn writeback_into(&mut self, addr: PhysAddr, sink: &mut impl OpSink) {
        let page = self.geom.page_of(addr);
        let offset = self.geom.block_offset(addr);
        let (set, tag) = self.decompose(page);
        sink.lookup(self.tag_latency);
        if let Some(info) = self.tags.get(set, tag) {
            info.dirty.insert(offset);
            sink.mark_hit();
            sink.background(MemOp::write(
                MemTarget::Stacked,
                self.slot_addr(set, tag),
                1,
            ));
        } else {
            sink.background(MemOp::write(MemTarget::OffChip, addr.block().base(), 1));
        }
    }
}

impl DramCacheModel for HotPageCache {
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
        vec![
            StorageItem {
                name: "page tags",
                bytes: self.tags.capacity() as u64 * TAG_ENTRY_BITS / 8,
                latency_cycles: self.tag_latency,
            },
            StorageItem {
                name: "hot-page filter",
                bytes: Self::FILTER_ENTRIES as u64 * FILTER_ENTRY_BITS / 8,
                latency_cycles: sram_latency_cycles(
                    Self::FILTER_ENTRIES as u64 * FILTER_ENTRY_BITS / 8,
                ),
            },
        ]
    }

    fn name(&self) -> &'static str {
        "Hot-page (CHOP)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::Pc;

    fn read(addr: u64) -> MemAccess {
        MemAccess::read(Pc::new(0x400), PhysAddr::new(addr), 0)
    }

    #[test]
    fn cold_pages_bypass_without_allocation() {
        let mut c = HotPageCache::new(1 << 20, PageGeometry::new(4096), 3);
        for _ in 0..2 {
            let plan = c.access(read(0x10000));
            assert!(plan.bypass);
            assert_eq!(plan.offchip_read_blocks(), 1);
        }
        assert_eq!(c.stats().bypasses, 2);
        assert_eq!(c.stats().fill_blocks, 0);
    }

    #[test]
    fn hot_page_allocates_whole_page() {
        let mut c = HotPageCache::new(1 << 20, PageGeometry::new(4096), 2);
        c.access(read(0x10000));
        let plan = c.access(read(0x10040)); // second access: hot
        assert!(!plan.bypass);
        assert_eq!(plan.offchip_read_blocks(), 64);
        assert!(c.access(read(0x10000)).hit);
    }

    #[test]
    fn threshold_one_allocates_immediately() {
        let mut c = HotPageCache::new(1 << 20, PageGeometry::new(4096), 1);
        let plan = c.access(read(0x20000));
        assert!(!plan.bypass);
        assert!(c.access(read(0x20000)).hit);
    }

    #[test]
    fn storage_includes_filter() {
        let c = HotPageCache::new(64 << 20, PageGeometry::new(4096), 2);
        let items = c.storage();
        assert_eq!(items.len(), 2);
        assert!(items.iter().any(|i| i.name == "hot-page filter"));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        HotPageCache::new(1 << 20, PageGeometry::new(4096), 0);
    }
}
