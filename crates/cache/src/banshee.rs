//! A Banshee-style bandwidth-efficient page cache (Yu et al., MICRO
//! 2017; see PAPERS.md): page-granularity allocation with
//! *frequency-based replacement* that refuses to fill pages unlikely to
//! out-live the page they would displace.
//!
//! The classic page cache fills every missing page, so low-reuse pages
//! churn the cache and burn off-chip bandwidth twice (fill + eviction).
//! Banshee tracks an access-frequency counter per candidate page and
//! only replaces a resident victim when the candidate has proven more
//! popular; until then the miss bypasses block-by-block. Dirty
//! evictions write back only dirty blocks — the design's
//! bandwidth-efficiency theme applied to the outbound path too.

use fc_types::{Footprint, MemAccess, PageAddr, PageGeometry, PhysAddr};

use crate::design::{sram_latency_cycles, DramCacheStats, StorageItem};
use crate::page::PAGE_WAYS;
use crate::plan::{MemOp, MemTarget, OpSink};
use crate::setassoc::{Probe, SetAssoc};

/// Bits per page tag entry (tag + valid + LRU + 8-bit frequency).
const TAG_ENTRY_BITS: u64 = 64;
/// Bits per candidate-table entry (page tag + 8-bit counter).
const CANDIDATE_ENTRY_BITS: u64 = 32;
/// Frequency counters saturate here.
const FREQ_MAX: u32 = 255;

#[derive(Clone, Copy, Debug, Default)]
struct PageInfo {
    touched: Footprint,
    dirty: Footprint,
    /// Accesses observed for this page (while candidate and resident).
    freq: u32,
}

/// A Banshee-style page cache with frequency-based replacement.
///
/// # Examples
///
/// ```
/// use fc_cache::{BansheeCache, DramCacheModel};
/// use fc_types::{MemAccess, PageGeometry, PhysAddr, Pc};
///
/// let mut cache = BansheeCache::new(64 << 20, PageGeometry::new(2048));
/// let a = MemAccess::read(Pc::new(1), PhysAddr::new(0x8000), 0);
/// // An empty set always allocates...
/// assert!(!cache.access(a).bypass);
/// // ...and the filled page hits.
/// assert!(cache.access(a).hit);
/// ```
#[derive(Clone, Debug)]
pub struct BansheeCache {
    tags: SetAssoc<PageInfo>,
    /// Frequency counters for *non-resident* candidate pages.
    candidates: SetAssoc<u32>,
    geom: PageGeometry,
    tag_latency: u32,
    stats: DramCacheStats,
}

impl BansheeCache {
    /// Candidate-counter entries (sized like the hot-page filter).
    const CANDIDATE_ENTRIES: usize = 64 * 1024;

    /// Creates a Banshee-style cache of `capacity_bytes` with the given
    /// page geometry.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer than 16 pages (the set
    /// associativity).
    pub fn new(capacity_bytes: u64, geom: PageGeometry) -> Self {
        let pages = (capacity_bytes / geom.page_size() as u64) as usize;
        assert!(
            pages >= PAGE_WAYS,
            "capacity must hold at least {PAGE_WAYS} pages"
        );
        let tag_latency = sram_latency_cycles(pages as u64 * TAG_ENTRY_BITS / 8);
        Self {
            tags: SetAssoc::new(pages / PAGE_WAYS, PAGE_WAYS),
            candidates: SetAssoc::new(Self::CANDIDATE_ENTRIES / 16, 16),
            geom,
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

    fn candidate_slot(&self, page: PageAddr) -> (usize, u64) {
        let sets = self.candidates.sets() as u64;
        ((page.raw() % sets) as usize, page.raw() / sets)
    }

    /// Stacked-DRAM address of a page slot (its row).
    fn slot_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let slot = set as u64 * PAGE_WAYS as u64 + tag % PAGE_WAYS as u64;
        PhysAddr::new(slot * self.geom.page_size() as u64)
    }

    /// Bumps the candidate counter for a missing page, returning its
    /// new frequency.
    fn observe_candidate(&mut self, page: PageAddr) -> u32 {
        let (cset, ctag) = self.candidate_slot(page);
        match self.candidates.probe(cset, ctag, 1) {
            Probe::Hit(count) => {
                *count = (*count + 1).min(FREQ_MAX);
                *count
            }
            Probe::Miss(_) => 1,
        }
    }

    /// Emits eviction traffic for a victim page (dirty blocks only) and
    /// records its density.
    fn evict(&mut self, set: usize, victim_tag: u64, info: PageInfo, sink: &mut impl OpSink) {
        self.stats.evictions += 1;
        self.stats.density.record(info.touched.len());
        if info.dirty.is_empty() {
            return;
        }
        self.stats.dirty_evictions += 1;
        let sets = self.tags.sets() as u64;
        let victim_page = PageAddr::new(victim_tag * sets + set as u64);
        let blocks = info.dirty.len() as u32;
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

    /// Fills `page` into `(set, tag)`, which a tag lookup just missed, with
    /// starting frequency `freq`, evicting the LRU victim if the set is
    /// full.
    fn fill(
        &mut self,
        page: PageAddr,
        set: usize,
        tag: u64,
        offset: usize,
        freq: u32,
        sink: &mut impl OpSink,
    ) {
        let blocks = self.geom.blocks_per_page() as u32;
        sink.critical(MemOp::read(
            MemTarget::OffChip,
            self.geom.page_base(page),
            blocks,
        ));
        let mut info = PageInfo {
            freq,
            ..PageInfo::default()
        };
        info.touched.insert(offset);
        if let Some((victim_tag, victim)) = self.tags.fill(set, tag, info) {
            self.evict(set, victim_tag, victim, sink);
        }
        // The candidate counter's job is done: the page is resident.
        let (cset, ctag) = self.candidate_slot(page);
        self.candidates.remove(cset, ctag);
        self.stats.fill_blocks += blocks as u64;
        sink.background(MemOp::write(
            MemTarget::Stacked,
            self.slot_addr(set, tag),
            blocks,
        ));
    }
}

impl crate::CacheDesign for BansheeCache {
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        let page = self.geom.page_of(req.addr);
        let offset = self.geom.block_offset(req.addr);
        let (set, tag) = self.decompose(page);
        sink.lookup(self.tag_latency);

        if let Some(info) = self.tags.get(set, tag) {
            info.touched.insert(offset);
            info.freq = (info.freq + 1).min(FREQ_MAX);
            self.stats.hits += 1;
            sink.mark_hit();
            sink.critical(MemOp::read(MemTarget::Stacked, self.slot_addr(set, tag), 1));
            return;
        }

        self.stats.misses += 1;
        let freq = self.observe_candidate(page);
        match self.tags.victim(set) {
            // Room in the set: fill unconditionally.
            None => self.fill(page, set, tag, offset, freq, sink),
            // Full set: replace only a less-popular victim.
            Some((victim_tag, victim)) if freq > victim.freq => {
                let _ = victim_tag;
                self.fill(page, set, tag, offset, freq, sink);
            }
            Some((victim_tag, _)) => {
                // Bypass block-by-block; age the victim so a dead page
                // cannot hold its slot forever.
                if let Some(victim) = self.tags.peek_mut(set, victim_tag) {
                    victim.freq = victim.freq.saturating_sub(1);
                }
                self.stats.bypasses += 1;
                sink.mark_bypass();
                sink.critical(MemOp::read(MemTarget::OffChip, req.addr.block().base(), 1));
            }
        }
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
        let tag_bytes = self.tags.capacity() as u64 * TAG_ENTRY_BITS / 8;
        let candidate_bytes = Self::CANDIDATE_ENTRIES as u64 * CANDIDATE_ENTRY_BITS / 8;
        vec![
            StorageItem {
                name: "page tags + frequency",
                bytes: tag_bytes,
                latency_cycles: self.tag_latency,
            },
            StorageItem {
                name: "candidate counters",
                bytes: candidate_bytes,
                latency_cycles: sram_latency_cycles(candidate_bytes),
            },
        ]
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

    fn cache() -> BansheeCache {
        BansheeCache::new(1 << 20, PageGeometry::new(2048)) // 512 pages
    }

    /// Address of the i-th page that lands in set 0.
    fn set0_page(c: &BansheeCache, i: u64) -> u64 {
        i * c.tags.sets() as u64 * 2048
    }

    #[test]
    fn empty_set_fills_unconditionally() {
        let mut c = cache();
        let plan = c.access(read(0x4000));
        assert!(!plan.hit && !plan.bypass);
        assert_eq!(plan.offchip_read_blocks(), 32);
        assert!(c.access(read(0x4000)).hit);
    }

    #[test]
    fn unpopular_candidate_bypasses_a_full_set() {
        let mut c = cache();
        // Fill set 0 and give each resident page a second access so
        // every resident frequency is >= 2.
        for i in 0..PAGE_WAYS as u64 {
            c.access(read(set0_page(&c, i)));
            c.access(read(set0_page(&c, i)));
        }
        // A fresh candidate (freq 1) must not displace anyone.
        let plan = c.access(read(set0_page(&c, PAGE_WAYS as u64)));
        assert!(plan.bypass);
        assert_eq!(plan.offchip_read_blocks(), 1, "bypass is block-granular");
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn popular_candidate_displaces_the_victim() {
        let mut c = cache();
        for i in 0..PAGE_WAYS as u64 {
            c.access(read(set0_page(&c, i)));
        }
        // Hammer the candidate until its counter beats the victim's.
        let newcomer = set0_page(&c, PAGE_WAYS as u64);
        let mut filled = false;
        for _ in 0..8 {
            let plan = c.access(read(newcomer));
            if !plan.bypass {
                filled = true;
                break;
            }
        }
        assert!(filled, "a repeatedly demanded page must eventually fill");
        assert!(c.access(read(newcomer)).hit);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_evictions_write_only_dirty_blocks() {
        let mut c = cache();
        for i in 0..PAGE_WAYS as u64 {
            c.access(read(set0_page(&c, i)));
        }
        c.writeback(PhysAddr::new(set0_page(&c, 0))); // dirty one block (now MRU)
                                                      // Re-touch the others so the dirty page is the LRU victim again.
        for i in 1..PAGE_WAYS as u64 {
            c.access(read(set0_page(&c, i)));
        }
        let newcomer = set0_page(&c, PAGE_WAYS as u64);
        for _ in 0..8 {
            if !c.access(read(newcomer)).bypass {
                break;
            }
        }
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().offchip_write_blocks, 1, "one dirty block");
    }

    #[test]
    fn bypasses_age_the_victim() {
        let mut c = cache();
        for i in 0..PAGE_WAYS as u64 {
            c.access(read(set0_page(&c, i)));
            c.access(read(set0_page(&c, i)));
            c.access(read(set0_page(&c, i)));
        }
        // Two different cold candidates alternate; victim frequency
        // decays by one per failed replacement, so a persistent
        // candidate eventually wins even against freq-3 residents.
        let newcomer = set0_page(&c, PAGE_WAYS as u64);
        let mut bypasses = 0;
        for _ in 0..16 {
            let plan = c.access(read(newcomer));
            if !plan.bypass {
                break;
            }
            bypasses += 1;
        }
        assert!(bypasses >= 1);
        assert!(c.access(read(newcomer)).hit, "aging must unstick the set");
    }

    #[test]
    fn storage_reports_both_structures() {
        let c = BansheeCache::new(64 << 20, PageGeometry::new(2048));
        let items = c.storage();
        assert_eq!(items.len(), 2);
        assert!(items.iter().any(|i| i.name == "candidate counters"));
    }
}
