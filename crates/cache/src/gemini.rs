//! A Gemini-style hybrid-mapped page cache (Chi et al.; see PAPERS.md):
//! hot pages live in a small *direct-mapped* region probed with a tiny,
//! fast tag array, cold pages in a conventional set-associative region
//! that preserves hit ratio.
//!
//! The idea: direct mapping minimizes lookup latency but conflicts
//! ruin the hit ratio; associativity fixes the hit ratio but pays a
//! bigger, slower tag structure. Gemini splits the capacity — pages are
//! installed set-associatively, and pages that prove hot (repeated
//! hits) are *promoted* into the direct-mapped region, displacing (and
//! demoting) whatever hashed there before. Migration moves data inside
//! the stacked DRAM only; off-chip traffic is untouched.

use fc_types::{Footprint, MemAccess, PageAddr, PageGeometry, PhysAddr};

use crate::design::{sram_latency_cycles, DramCacheModel, DramCacheStats, StorageItem};
use crate::page::PAGE_WAYS;
use crate::plan::{AccessPlan, BlockCounts, MemOp, MemTarget, OpSink};
use crate::setassoc::{Probe, SetAssoc};

/// Bits per page tag entry (tag + valid + LRU + hit counter).
const TAG_ENTRY_BITS: u64 = 64;
/// Fraction of capacity devoted to the direct-mapped hot region (1/N).
const HOT_CAPACITY_DIV: u64 = 4;

#[derive(Clone, Copy, Debug, Default)]
struct PageInfo {
    touched: Footprint,
    dirty: Footprint,
    /// Hits while resident in the cold region (promotion trigger).
    hits: u32,
}

#[derive(Clone, Copy, Debug)]
struct HotEntry {
    tag: u64,
    info: PageInfo,
}

/// A Gemini-style hybrid-mapped DRAM cache.
///
/// # Examples
///
/// ```
/// use fc_cache::{DramCacheModel, GeminiCache};
/// use fc_types::{MemAccess, PageGeometry, PhysAddr, Pc};
///
/// let mut cache = GeminiCache::new(64 << 20, PageGeometry::new(2048), 4);
/// let a = MemAccess::read(Pc::new(1), PhysAddr::new(0x8000), 0);
/// assert!(!cache.access(a).hit); // installs set-associatively
/// assert!(cache.access(a).hit);
/// ```
#[derive(Clone, Debug)]
pub struct GeminiCache {
    /// Direct-mapped hot region.
    hot: Vec<Option<HotEntry>>,
    /// Set-associative cold region.
    cold: SetAssoc<PageInfo>,
    geom: PageGeometry,
    /// Cold-region hits after which a page is promoted.
    promote_hits: u32,
    hot_latency: u32,
    cold_latency: u32,
    stats: DramCacheStats,
}

impl GeminiCache {
    /// Creates a hybrid-mapped cache of `capacity_bytes`: 1/4 of the
    /// capacity direct-mapped for hot pages, the rest set-associative.
    /// A cold page is promoted after `promote_hits` hits.
    ///
    /// # Panics
    ///
    /// Panics if the cold region would hold fewer than 16 pages (the
    /// set associativity) or `promote_hits == 0`.
    pub fn new(capacity_bytes: u64, geom: PageGeometry, promote_hits: u32) -> Self {
        assert!(promote_hits > 0, "promote_hits must be positive");
        let page = geom.page_size() as u64;
        let hot_pages = ((capacity_bytes / HOT_CAPACITY_DIV) / page).max(1) as usize;
        let cold_pages = ((capacity_bytes / page) as usize).saturating_sub(hot_pages);
        assert!(
            cold_pages >= PAGE_WAYS,
            "cold region must hold at least {PAGE_WAYS} pages"
        );
        Self {
            hot: vec![None; hot_pages],
            cold: SetAssoc::new(cold_pages / PAGE_WAYS, PAGE_WAYS),
            geom,
            promote_hits,
            hot_latency: sram_latency_cycles(hot_pages as u64 * TAG_ENTRY_BITS / 8),
            cold_latency: sram_latency_cycles(cold_pages as u64 * TAG_ENTRY_BITS / 8),
            stats: DramCacheStats::default(),
        }
    }

    fn hot_slot(&self, page: PageAddr) -> (usize, u64) {
        let slots = self.hot.len() as u64;
        ((page.raw() % slots) as usize, page.raw() / slots)
    }

    fn cold_slot(&self, page: PageAddr) -> (usize, u64) {
        let sets = self.cold.sets() as u64;
        ((page.raw() % sets) as usize, page.raw() / sets)
    }

    /// Stacked address of a hot-region slot.
    fn hot_addr(&self, index: usize) -> PhysAddr {
        PhysAddr::new(index as u64 * self.geom.page_size() as u64)
    }

    /// Stacked address of a cold-region slot (offset past the hot region).
    fn cold_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let base = self.hot.len() as u64 * self.geom.page_size() as u64;
        let slot = set as u64 * PAGE_WAYS as u64 + tag % PAGE_WAYS as u64;
        PhysAddr::new(base + slot * self.geom.page_size() as u64)
    }

    /// Emits eviction traffic for a cold-region victim (dirty blocks
    /// only) and records its density.
    fn evict_cold(&mut self, set: usize, victim_tag: u64, info: PageInfo, sink: &mut impl OpSink) {
        self.stats.evictions += 1;
        self.stats.density.record(info.touched.len());
        if info.dirty.is_empty() {
            return;
        }
        self.stats.dirty_evictions += 1;
        let sets = self.cold.sets() as u64;
        let victim_page = PageAddr::new(victim_tag * sets + set as u64);
        let blocks = info.dirty.len() as u32;
        sink.background(MemOp::read(
            MemTarget::Stacked,
            self.cold_addr(set, victim_tag),
            blocks,
        ));
        sink.background(MemOp::write(
            MemTarget::OffChip,
            self.geom.page_base(victim_page),
            blocks,
        ));
    }

    /// Promotes `page` (just removed from the cold region) into its
    /// direct-mapped slot, demoting any displaced page back into the
    /// cold region. All migration traffic stays inside the stack.
    fn promote(&mut self, page: PageAddr, mut info: PageInfo, sink: &mut impl OpSink) {
        info.hits = 0;
        let (index, tag) = self.hot_slot(page);
        let blocks = self.geom.blocks_per_page() as u32;
        let (cset, ctag) = self.cold_slot(page);
        sink.background(MemOp::read(
            MemTarget::Stacked,
            self.cold_addr(cset, ctag),
            blocks,
        ));
        sink.background(MemOp::write(
            MemTarget::Stacked,
            self.hot_addr(index),
            blocks,
        ));
        let displaced = self.hot[index].replace(HotEntry { tag, info });
        if let Some(old) = displaced {
            // Demote the displaced hot page set-associatively.
            let old_page = PageAddr::new(old.tag * self.hot.len() as u64 + index as u64);
            let (dset, dtag) = self.cold_slot(old_page);
            sink.background(MemOp::read(
                MemTarget::Stacked,
                self.hot_addr(index),
                blocks,
            ));
            sink.background(MemOp::write(
                MemTarget::Stacked,
                self.cold_addr(dset, dtag),
                blocks,
            ));
            let mut demoted = old.info;
            demoted.hits = 0;
            if let Some((victim_tag, victim)) = self.cold.insert(dset, dtag, demoted) {
                self.evict_cold(dset, victim_tag, victim, sink);
            }
        }
    }

    /// The demand-access transition, for either sink.
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        let page = self.geom.page_of(req.addr);
        let offset = self.geom.block_offset(req.addr);

        // Hot region first: the small direct-mapped tag array answers
        // fastest.
        let (index, htag) = self.hot_slot(page);
        if matches!(&self.hot[index], Some(e) if e.tag == htag) {
            let entry = self.hot[index].as_mut().expect("matched above");
            entry.info.touched.insert(offset);
            self.stats.hits += 1;
            sink.lookup(self.hot_latency);
            sink.mark_hit();
            sink.critical(MemOp::read(MemTarget::Stacked, self.hot_addr(index), 1));
            return;
        }

        let (set, tag) = self.cold_slot(page);
        sink.lookup(self.cold_latency);
        // A miss in both regions installs the page set-associatively, so
        // one probe looks up and fills.
        let mut fill = PageInfo::default();
        fill.touched.insert(offset);
        let evicted = match self.cold.probe(set, tag, fill) {
            Probe::Hit(info) => {
                info.touched.insert(offset);
                info.hits += 1;
                let promote = info.hits >= self.promote_hits;
                self.stats.hits += 1;
                sink.mark_hit();
                sink.critical(MemOp::read(MemTarget::Stacked, self.cold_addr(set, tag), 1));
                if promote {
                    let info = self.cold.remove(set, tag).expect("entry just hit");
                    self.promote(page, info, sink);
                }
                return;
            }
            Probe::Miss(evicted) => evicted,
        };

        self.stats.misses += 1;
        let blocks = self.geom.blocks_per_page() as u32;
        sink.critical(MemOp::read(
            MemTarget::OffChip,
            self.geom.page_base(page),
            blocks,
        ));
        if let Some((victim_tag, victim)) = evicted {
            self.evict_cold(set, victim_tag, victim, sink);
        }
        self.stats.fill_blocks += blocks as u64;
        sink.background(MemOp::write(
            MemTarget::Stacked,
            self.cold_addr(set, tag),
            blocks,
        ));
    }

    /// The L2-writeback transition, for either sink.
    fn writeback_into(&mut self, addr: PhysAddr, sink: &mut impl OpSink) {
        let page = self.geom.page_of(addr);
        let offset = self.geom.block_offset(addr);
        let (index, htag) = self.hot_slot(page);
        if matches!(&self.hot[index], Some(e) if e.tag == htag) {
            let entry = self.hot[index].as_mut().expect("matched above");
            entry.info.dirty.insert(offset);
            sink.lookup(self.hot_latency);
            sink.mark_hit();
            sink.background(MemOp::write(MemTarget::Stacked, self.hot_addr(index), 1));
            return;
        }
        let (set, tag) = self.cold_slot(page);
        sink.lookup(self.cold_latency);
        if let Some(info) = self.cold.get(set, tag) {
            info.dirty.insert(offset);
            sink.mark_hit();
            sink.background(MemOp::write(
                MemTarget::Stacked,
                self.cold_addr(set, tag),
                1,
            ));
        } else {
            sink.background(MemOp::write(MemTarget::OffChip, addr.block().base(), 1));
        }
    }
}

impl DramCacheModel for GeminiCache {
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
                name: "hot-region tags (direct)",
                bytes: self.hot.len() as u64 * TAG_ENTRY_BITS / 8,
                latency_cycles: self.hot_latency,
            },
            StorageItem {
                name: "cold-region tags (assoc)",
                bytes: self.cold.capacity() as u64 * TAG_ENTRY_BITS / 8,
                latency_cycles: self.cold_latency,
            },
        ]
    }

    fn name(&self) -> &'static str {
        "Gemini"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::Pc;

    fn read(addr: u64) -> MemAccess {
        MemAccess::read(Pc::new(0x400), PhysAddr::new(addr), 0)
    }

    fn cache() -> GeminiCache {
        GeminiCache::new(1 << 20, PageGeometry::new(2048), 3)
    }

    #[test]
    fn misses_install_in_the_cold_region() {
        let mut c = cache();
        let plan = c.access(read(0x4000));
        assert!(!plan.hit);
        assert_eq!(plan.offchip_read_blocks(), 32);
        assert!(c.access(read(0x4000)).hit);
        assert!(c.hot.iter().all(|e| e.is_none()), "not yet promoted");
    }

    #[test]
    fn repeated_hits_promote_to_the_hot_region() {
        let mut c = cache();
        c.access(read(0x4000)); // install
        for _ in 0..3 {
            assert!(c.access(read(0x4000)).hit);
        }
        assert_eq!(c.hot.iter().flatten().count(), 1, "page promoted");
        // Subsequent accesses hit the direct-mapped region at the
        // smaller tag latency.
        let plan = c.access(read(0x4000));
        assert!(plan.hit);
        assert!(plan.tag_latency <= c.cold_latency);
    }

    #[test]
    fn promotion_migrates_inside_the_stack_only() {
        let mut c = cache();
        c.access(read(0x4000));
        let before = c.stats().offchip_read_blocks + c.stats().offchip_write_blocks;
        for _ in 0..3 {
            c.access(read(0x4000));
        }
        let after = c.stats().offchip_read_blocks + c.stats().offchip_write_blocks;
        assert_eq!(before, after, "migration must not touch off-chip DRAM");
        assert!(c.stats().stacked_read_blocks > 0);
    }

    #[test]
    fn displaced_hot_page_is_demoted_not_lost() {
        let mut c = cache();
        let hot_slots = c.hot.len() as u64;
        let a = 0x4000u64;
        let b = a + hot_slots * 2048; // same hot slot as `a`
        for addr in [a, b] {
            c.access(read(addr));
            for _ in 0..3 {
                c.access(read(addr));
            }
        }
        // `b` displaced `a` from the hot region; both must still hit.
        assert!(c.access(read(a)).hit, "demoted page still resident");
        assert!(c.access(read(b)).hit);
    }

    #[test]
    fn hot_region_is_a_quarter_of_capacity() {
        let c = GeminiCache::new(64 << 20, PageGeometry::new(2048), 4);
        assert_eq!(c.hot.len(), (64 << 20) / 4 / 2048);
        assert_eq!(c.cold.capacity(), (64 << 20) * 3 / 4 / 2048);
    }

    #[test]
    #[should_panic(expected = "promote_hits")]
    fn zero_promote_threshold_rejected() {
        GeminiCache::new(1 << 20, PageGeometry::new(2048), 0);
    }
}
