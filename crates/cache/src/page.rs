//! The page-based DRAM cache (Section 2.3, evaluated per Section 5.2):
//! SRAM tags, whole-page fills, open-page-friendly row locality — and an
//! off-chip traffic bill of up to an order of magnitude over the baseline.

use serde::{Deserialize, Serialize};

use fc_types::{Footprint, MemAccess, PageAddr, PageGeometry, PhysAddr};

use crate::design::{sram_latency_cycles, DramCacheStats, StorageItem};
use crate::plan::{MemOp, MemTarget, OpSink};
use crate::setassoc::{Probe, SetAssoc};

/// Associativity of the page tag array (also used by Footprint Cache).
pub(crate) const PAGE_WAYS: usize = 16;

/// Bits per page tag entry (tag + valid + LRU): Table 4's page-based
/// storage numbers imply ~56 bits (0.22 MB for 32 K entries).
const TAG_ENTRY_BITS: u64 = 56;

/// Dirty-eviction write-back granularity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritebackGranularity {
    /// Transfer the whole page (the classic page-cache design the paper
    /// charges with excessive traffic).
    #[default]
    Page,
    /// Transfer only dirty blocks (per-block dirty bits; ablation
    /// `abl-wb`).
    DirtyBlocks,
}

#[derive(Clone, Copy, Debug, Default)]
struct PageInfo {
    /// Blocks demanded by cores (density accounting, Figure 4).
    touched: Footprint,
    /// Blocks dirtied by L2 writebacks.
    dirty: Footprint,
}

/// A page-based DRAM cache with SRAM tags.
///
/// # Examples
///
/// ```
/// use fc_cache::{DramCacheModel, PageBasedCache};
/// use fc_types::{MemAccess, PageGeometry, PhysAddr, Pc};
///
/// let mut cache = PageBasedCache::new(64 << 20, PageGeometry::new(2048));
/// let a = MemAccess::read(Pc::new(1), PhysAddr::new(0x4000), 0);
/// assert!(!cache.access(a).hit);
/// // Any block of the fetched page now hits.
/// let b = MemAccess::read(Pc::new(1), PhysAddr::new(0x4000 + 31 * 64), 0);
/// assert!(cache.access(b).hit);
/// ```
#[derive(Clone, Debug)]
pub struct PageBasedCache {
    tags: SetAssoc<PageInfo>,
    geom: PageGeometry,
    granularity: WritebackGranularity,
    tag_latency: u32,
    stats: DramCacheStats,
}

impl PageBasedCache {
    /// Creates a page-based cache of `capacity_bytes` with the given page
    /// geometry and whole-page writeback granularity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer than 16 pages (the set
    /// associativity).
    pub fn new(capacity_bytes: u64, geom: PageGeometry) -> Self {
        Self::with_granularity(capacity_bytes, geom, WritebackGranularity::Page)
    }

    /// Creates a page-based cache with an explicit writeback granularity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer than 16 pages (the set
    /// associativity).
    pub fn with_granularity(
        capacity_bytes: u64,
        geom: PageGeometry,
        granularity: WritebackGranularity,
    ) -> Self {
        let pages = (capacity_bytes / geom.page_size() as u64) as usize;
        assert!(
            pages >= PAGE_WAYS,
            "capacity must hold at least {PAGE_WAYS} pages"
        );
        let entries = pages as u64;
        let tag_latency = sram_latency_cycles(entries * TAG_ENTRY_BITS / 8);
        Self {
            tags: SetAssoc::new(pages / PAGE_WAYS, PAGE_WAYS),
            geom,
            granularity,
            tag_latency,
            stats: DramCacheStats::default(),
        }
    }

    /// The page geometry in use.
    pub fn geometry(&self) -> PageGeometry {
        self.geom
    }

    fn decompose(&self, page: PageAddr) -> (usize, u64) {
        let sets = self.tags.sets() as u64;
        ((page.raw() % sets) as usize, page.raw() / sets)
    }

    /// Stacked-DRAM address of a page slot (its row).
    fn slot_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let slot = set as u64 * PAGE_WAYS as u64 + tag % PAGE_WAYS as u64;
        PhysAddr::new(slot * self.geom.page_size() as u64)
    }

    /// Emits eviction traffic for a victim page and records its density.
    fn evict(&mut self, set: usize, victim_tag: u64, info: PageInfo, sink: &mut impl OpSink) {
        self.stats.evictions += 1;
        self.stats.density.record(info.touched.len());
        if info.dirty.is_empty() {
            return;
        }
        self.stats.dirty_evictions += 1;
        let sets = self.tags.sets() as u64;
        let victim_page = PageAddr::new(victim_tag * sets + set as u64);
        let blocks = match self.granularity {
            WritebackGranularity::Page => self.geom.blocks_per_page() as u32,
            WritebackGranularity::DirtyBlocks => info.dirty.len() as u32,
        };
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

impl crate::CacheDesign for PageBasedCache {
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        let page = self.geom.page_of(req.addr);
        let offset = self.geom.block_offset(req.addr);
        let (set, tag) = self.decompose(page);
        sink.lookup(self.tag_latency);

        // A miss allocates the page, so one probe looks up and fills.
        let mut fill = PageInfo::default();
        fill.touched.insert(offset);
        let evicted = match self.tags.probe(set, tag, fill) {
            Probe::Hit(info) => {
                info.touched.insert(offset);
                self.stats.hits += 1;
                sink.mark_hit();
                sink.critical(MemOp::read(MemTarget::Stacked, self.slot_addr(set, tag), 1));
                return;
            }
            Probe::Miss(evicted) => evicted,
        };

        // Page miss: fetch the whole page (critical-block-first), fill the
        // stacked DRAM, evict the victim page.
        self.stats.misses += 1;
        let blocks = self.geom.blocks_per_page() as u32;
        sink.critical(MemOp::read(
            MemTarget::OffChip,
            self.geom.page_base(page),
            blocks,
        ));
        if let Some((victim_tag, victim)) = evicted {
            self.evict(set, victim_tag, victim, sink);
        }
        self.stats.fill_blocks += blocks as u64;
        sink.background(MemOp::write(
            MemTarget::Stacked,
            self.slot_addr(set, tag),
            blocks,
        ));
    }

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

    fn stats(&self) -> &DramCacheStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut DramCacheStats {
        &mut self.stats
    }

    fn storage(&self) -> Vec<StorageItem> {
        let bytes = self.tags.capacity() as u64 * TAG_ENTRY_BITS / 8;
        vec![StorageItem {
            name: "page tags",
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

    fn cache() -> PageBasedCache {
        PageBasedCache::new(1 << 20, PageGeometry::new(2048)) // 512 pages
    }

    #[test]
    fn miss_fetches_whole_page() {
        let mut c = cache();
        let plan = c.access(read(0x12345));
        assert!(!plan.hit);
        assert_eq!(plan.offchip_read_blocks(), 32);
        assert_eq!(plan.stacked_write_blocks(), 32);
    }

    #[test]
    fn any_block_of_resident_page_hits() {
        let mut c = cache();
        c.access(read(0x4000));
        for block in 0..32u64 {
            let plan = c.access(read(0x4000 + block * 64));
            assert!(plan.hit);
        }
        assert_eq!(c.stats().hits, 32);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn dirty_page_evicts_at_page_granularity() {
        let mut c = cache();
        let sets = c.tags.sets() as u64;
        let page_bytes = 2048;
        let first = 0u64;
        c.access(read(first));
        c.writeback(PhysAddr::new(first)); // dirty it
                                           // Conflict-fill the same set.
        for i in 1..=PAGE_WAYS as u64 {
            c.access(read(first + i * sets * page_bytes));
        }
        assert_eq!(c.stats().dirty_evictions, 1);
        // Whole page read from stacked + written off-chip.
        assert!(c.stats().offchip_write_blocks >= 32);
    }

    #[test]
    fn dirty_block_granularity_writes_less() {
        let mut c = PageBasedCache::with_granularity(
            1 << 20,
            PageGeometry::new(2048),
            WritebackGranularity::DirtyBlocks,
        );
        let sets = c.tags.sets() as u64;
        c.access(read(0));
        c.writeback(PhysAddr::new(0));
        for i in 1..=PAGE_WAYS as u64 {
            c.access(read(i * sets * 2048));
        }
        assert_eq!(c.stats().dirty_evictions, 1);
        // Exactly one dirty block written back.
        let wb = c.stats().offchip_write_blocks;
        assert_eq!(
            wb, 1,
            "dirty-block granularity must write 1 block, got {wb}"
        );
    }

    #[test]
    fn density_recorded_at_eviction() {
        let mut c = cache();
        let sets = c.tags.sets() as u64;
        // Touch 5 blocks of page 0.
        for b in 0..5u64 {
            c.access(read(b * 64));
        }
        for i in 1..=PAGE_WAYS as u64 {
            c.access(read(i * sets * 2048));
        }
        let bins = c.stats().density.bins();
        assert_eq!(bins[2], 1, "a 5-block page lands in the 4-7 bin: {bins:?}");
    }

    #[test]
    fn clean_eviction_writes_nothing() {
        let mut c = cache();
        let sets = c.tags.sets() as u64;
        c.access(read(0));
        for i in 1..=PAGE_WAYS as u64 {
            c.access(read(i * sets * 2048));
        }
        assert!(c.stats().evictions >= 1);
        assert_eq!(c.stats().dirty_evictions, 0);
        assert_eq!(c.stats().offchip_write_blocks, 0);
    }

    #[test]
    fn writeback_to_absent_page_bypasses() {
        let mut c = cache();
        let plan = c.writeback(PhysAddr::new(0x9999));
        assert_eq!(plan.offchip_write_blocks(), 1);
        assert_eq!(plan.stacked_write_blocks(), 0);
    }

    #[test]
    fn warm_path_matches_detailed_path() {
        // The warmup-only update path must leave the cache — tags,
        // replacement order, and every statistic — exactly where the
        // plan-building path would, for both writeback granularities.
        for granularity in [
            WritebackGranularity::Page,
            WritebackGranularity::DirtyBlocks,
        ] {
            let mut detailed =
                PageBasedCache::with_granularity(1 << 20, PageGeometry::new(2048), granularity);
            let mut warm =
                PageBasedCache::with_granularity(1 << 20, PageGeometry::new(2048), granularity);
            // A mixed stream with reuse, conflict evictions and dirty
            // pages (addresses stride the set index so evictions fire).
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
            assert_eq!(detailed.stats(), warm.stats(), "{granularity:?}");
            // Replacement state must agree too: the same probe stream
            // produces identical plans afterwards.
            for probe in (0..64u64).map(|i| i * 0x10040) {
                let req = MemAccess::read(Pc::new(0x400), PhysAddr::new(probe), 0);
                assert_eq!(detailed.access(req), warm.access(req));
            }
        }
    }

    #[test]
    fn storage_matches_table4_scale() {
        // 64 MB / 2 KB pages = 32 K entries -> ~0.22 MB (Table 4).
        let c = PageBasedCache::new(64 << 20, PageGeometry::new(2048));
        let s = &c.storage()[0];
        let mb = s.bytes as f64 / (1 << 20) as f64;
        assert!((mb - 0.22).abs() < 0.02, "got {mb} MB");
        assert_eq!(s.latency_cycles, 4);
    }
}
