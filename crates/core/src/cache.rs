//! The Footprint Cache proper (Section 4).
//!
//! Allocation unit: a page (2 KB default). Fetch unit: the page's
//! *predicted footprint* of 64-byte blocks. On a page miss (the
//! *triggering miss*), the FHT is queried with the PC & offset key:
//!
//! * **singleton prediction** → the page is not allocated at all; the
//!   demanded block bypasses the cache and the decision is noted in the
//!   Singleton Table (capacity optimization, Section 4.4);
//! * **footprint prediction** → the page is allocated and the predicted
//!   blocks are fetched *at once* from off-chip memory — one DRAM row
//!   activation, streaming bursts — and written to the stacked DRAM the
//!   same way (the DRAM-locality property of Section 3);
//! * **no history** → the page is allocated with just the demanded block;
//!   eviction feedback will teach the FHT.
//!
//! Demanded blocks are distinguished from prefetched ones with the
//! (dirty, valid) encoding of Table 2 ([`BlockStateVec`]); at eviction the
//! demanded vector trains the FHT and the prediction quality metrics.

use fc_cache::{
    sram_latency_cycles, AccessPlan, BlockCounts, DramCacheModel, DramCacheStats, MemOp, MemTarget,
    OpSink, PredictionCounters, SetAssoc, StorageItem,
};
use fc_types::{BlockStateVec, Footprint, MemAccess, PageAddr, PhysAddr};

use crate::config::FootprintCacheConfig;
use crate::fht::Fht;
use crate::singleton::SingletonTable;

/// Bits per tag entry: page tag, page-valid, LRU, the two 32-bit
/// dirty/valid block vectors, and the FHT pointer (Table 4's 0.40 MB for
/// 32 K entries imply ~102 bits).
const TAG_ENTRY_BITS: u64 = 102;

#[derive(Clone, Copy, Debug, Default)]
struct PageEntry {
    states: BlockStateVec,
    /// The footprint fetched at allocation (for metrics).
    predicted: Footprint,
    /// Prediction key to train at eviction (the paper stores a pointer to
    /// the FHT entry; the key is functionally equivalent).
    fht_key: u64,
}

/// The Footprint Cache.
///
/// See the [crate-level documentation](crate) for an overview and
/// [`FootprintCacheConfig`] for the knobs.
///
/// # Examples
///
/// Footprint learning in action: after one page teaches the FHT its
/// footprint, the next page touched by the same code is fetched whole.
///
/// ```
/// use footprint_cache::{FootprintCache, FootprintCacheConfig};
/// use fc_cache::DramCacheModel;
/// use fc_types::{MemAccess, PageGeometry, PhysAddr, Pc};
///
/// let config = FootprintCacheConfig::new(1 << 20); // small for the demo
/// let mut cache = FootprintCache::new(config);
/// let pc = Pc::new(0x400);
///
/// // Page A: the code touches blocks {0, 3, 5}.
/// for block in [0u64, 3, 5] {
///     cache.access(MemAccess::read(pc, PhysAddr::new(0x10_0000 + block * 64), 0));
/// }
/// cache.flush(); // evict everything -> trains the FHT
///
/// // Page B, same code, same starting offset: the whole footprint is
/// // fetched on the triggering miss...
/// let miss = cache.access(MemAccess::read(pc, PhysAddr::new(0x20_0000), 0));
/// assert_eq!(miss.offchip_read_blocks(), 3);
/// // ...so the other two blocks now hit.
/// assert!(cache.access(MemAccess::read(pc, PhysAddr::new(0x20_0000 + 3 * 64), 0)).hit);
/// assert!(cache.access(MemAccess::read(pc, PhysAddr::new(0x20_0000 + 5 * 64), 0)).hit);
/// ```
#[derive(Clone, Debug)]
pub struct FootprintCache {
    config: FootprintCacheConfig,
    tags: SetAssoc<PageEntry>,
    fht: Fht,
    st: SingletonTable,
    tag_latency: u32,
    stats: DramCacheStats,
    predictions: PredictionCounters,
}

impl FootprintCache {
    /// Builds a Footprint Cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer pages than the associativity.
    pub fn new(config: FootprintCacheConfig) -> Self {
        let pages = config.pages();
        assert!(
            pages >= config.ways,
            "capacity must hold at least {} pages",
            config.ways
        );
        let tag_bytes = pages as u64 * TAG_ENTRY_BITS / 8;
        Self {
            tags: SetAssoc::new(pages / config.ways, config.ways),
            fht: Fht::new(config.fht_entries, config.fht_ways),
            st: SingletonTable::new(config.st_entries),
            tag_latency: sram_latency_cycles(tag_bytes),
            stats: DramCacheStats::default(),
            predictions: PredictionCounters::default(),
            config,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &FootprintCacheConfig {
        &self.config
    }

    /// Predictor quality counters (Figure 8); the same counters
    /// [`prediction_counters`](DramCacheModel::prediction_counters)
    /// reports.
    pub fn metrics(&self) -> &PredictionCounters {
        &self.predictions
    }

    /// Read access to the FHT (diagnostics and examples).
    pub fn fht(&self) -> &Fht {
        &self.fht
    }

    fn decompose(&self, page: PageAddr) -> (usize, u64) {
        let sets = self.tags.sets() as u64;
        ((page.raw() % sets) as usize, page.raw() / sets)
    }

    /// Stacked-DRAM address of a page slot (its 2 KB row).
    fn slot_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let ways = self.config.ways as u64;
        let slot = set as u64 * ways + tag % ways;
        PhysAddr::new(slot * self.config.geom.page_size() as u64)
    }

    /// Processes a victim page: density accounting, FHT feedback,
    /// prediction metrics, dirty writeback traffic.
    fn evict(&mut self, set: usize, victim_tag: u64, entry: PageEntry, sink: &mut impl OpSink) {
        self.stats.evictions += 1;
        let demanded = entry.states.demanded();
        self.stats.density.record(demanded.len());

        // Feedback: the demanded vector is the page's generated footprint.
        self.fht.train(entry.fht_key, demanded);
        let p = &mut self.predictions;
        p.covered += entry.predicted.intersection(demanded).len() as u64;
        p.overpredicted += entry.predicted.difference(demanded).len() as u64;
        p.underpredicted += demanded.difference(entry.predicted).len() as u64;

        let dirty = entry.states.dirty();
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
            self.config.geom.page_base(victim_page),
            dirty.len() as u32,
        ));
    }

    /// Allocates `page`, which a tag lookup at `(set, tag)` just missed,
    /// fetching `predicted`, with `offset` as the demanded block, and
    /// emits the fetch/fill/evict ops.
    fn allocate(
        &mut self,
        page: PageAddr,
        (set, tag): (usize, u64),
        offset: usize,
        predicted: Footprint,
        fht_key: u64,
        sink: &mut impl OpSink,
    ) {
        let blocks = predicted.len() as u32;

        // One off-chip row activation streams the whole footprint,
        // demanded block first (critical-block-first).
        sink.critical(MemOp::read(
            MemTarget::OffChip,
            self.config.geom.page_base(page),
            blocks,
        ));
        sink.background(MemOp::write(
            MemTarget::Stacked,
            self.slot_addr(set, tag),
            blocks,
        ));
        self.stats.fill_blocks += blocks as u64;

        let mut states = BlockStateVec::new();
        for b in predicted.iter() {
            states.fill_prefetched(b);
        }
        states.demand_read(offset);
        let entry = PageEntry {
            states,
            predicted,
            fht_key,
        };
        if let Some((victim_tag, victim)) = self.tags.fill(set, tag, entry) {
            self.evict(set, victim_tag, victim, sink);
        }
    }

    /// Evicts every cached page, emitting FHT feedback (useful for tests
    /// and for phase-boundary experiments; not a hardware operation).
    /// Flush traffic is counted like any other eviction traffic.
    pub fn flush(&mut self) {
        let sets = self.tags.sets();
        let mut victims = Vec::new();
        for set in 0..sets {
            for (tag, _) in self.tags.iter_set(set) {
                victims.push((set, tag));
            }
        }
        BlockCounts::build(|counts| {
            for (set, tag) in victims {
                if let Some(entry) = self.tags.remove(set, tag) {
                    self.evict(set, tag, entry, counts);
                }
            }
        })
        .tally(&mut self.stats);
    }

    /// The demand-access transition, for either sink.
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        let geom = self.config.geom;
        let page = geom.page_of(req.addr);
        let offset = geom.block_offset(req.addr);
        let (set, tag) = self.decompose(page);
        sink.lookup(self.tag_latency);

        if let Some(entry) = self.tags.get(set, tag) {
            if entry.states.state(offset).is_present() {
                // Block hit in the stacked DRAM.
                entry.states.demand_read(offset);
                self.stats.hits += 1;
                sink.mark_hit();
                sink.critical(MemOp::read(MemTarget::Stacked, self.slot_addr(set, tag), 1));
                return;
            }
            // Underprediction: page resident, block not fetched — a miss
            // at full off-chip latency (Section 3.1).
            entry.states.demand_read(offset);
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

        // Page miss (triggering miss).
        self.stats.misses += 1;
        let key = self.config.key_kind.key(req.pc.raw(), offset);

        // Second access to a page previously classified singleton?
        if let Some(st_entry) = self.st.take(page) {
            // Promote: allocate with both known blocks and correct the
            // FHT entry created by the original classification.
            self.predictions.singleton_promotions += 1;
            let mut predicted = Footprint::singleton(st_entry.offset as usize);
            predicted.insert(offset);
            self.fht.train(st_entry.key, predicted);
            self.allocate(page, (set, tag), offset, predicted, st_entry.key, sink);
            return;
        }

        match self.fht.predict(key) {
            Some(fp) if self.config.singleton_optimization && fp.is_singleton() => {
                // Singleton page: forward the block, allocate nothing.
                self.predictions.singleton_bypasses += 1;
                self.stats.bypasses += 1;
                sink.mark_bypass();
                sink.critical(MemOp::read(MemTarget::OffChip, req.addr.block().base(), 1));
                self.st.record(page, key, offset as u8);
            }
            Some(fp) => {
                // Fetch the predicted footprint (always including the
                // demanded block).
                let mut predicted = fp;
                predicted.insert(offset);
                self.allocate(page, (set, tag), offset, predicted, key, sink);
            }
            None => {
                // No history: fetch the demanded block only; the eviction
                // feedback will create the FHT entry.
                self.allocate(
                    page,
                    (set, tag),
                    offset,
                    Footprint::singleton(offset),
                    key,
                    sink,
                );
            }
        }
    }

    /// The L2-writeback transition, for either sink.
    fn writeback_into(&mut self, addr: PhysAddr, sink: &mut impl OpSink) {
        let geom = self.config.geom;
        let page = geom.page_of(addr);
        let offset = geom.block_offset(addr);
        let (set, tag) = self.decompose(page);
        sink.lookup(self.tag_latency);
        match self.tags.get(set, tag) {
            Some(entry) if entry.states.state(offset).is_present() => {
                entry.states.demand_write(offset);
                sink.mark_hit();
                sink.background(MemOp::write(
                    MemTarget::Stacked,
                    self.slot_addr(set, tag),
                    1,
                ));
            }
            _ => {
                // Not resident: write through to memory; evictions from
                // the upper hierarchy are not tracked (Section 7).
                sink.background(MemOp::write(MemTarget::OffChip, addr.block().base(), 1));
            }
        }
    }
}

impl DramCacheModel for FootprintCache {
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
        let tag_bytes = self.config.pages() as u64 * TAG_ENTRY_BITS / 8;
        vec![
            StorageItem {
                name: "tag array",
                bytes: tag_bytes,
                latency_cycles: self.tag_latency,
            },
            StorageItem {
                name: "FHT",
                bytes: self.fht.storage_bytes(),
                latency_cycles: 2, // negligible and off the critical path
            },
            StorageItem {
                name: "Singleton Table",
                bytes: self.st.storage_bytes(),
                latency_cycles: 1,
            },
        ]
    }

    fn name(&self) -> &'static str {
        "Footprint"
    }

    fn prediction_counters(&self) -> Option<PredictionCounters> {
        Some(self.predictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::{PageGeometry, Pc};

    fn read(pc: u64, addr: u64) -> MemAccess {
        MemAccess::read(Pc::new(pc), PhysAddr::new(addr), 0)
    }

    fn small() -> FootprintCache {
        FootprintCache::new(FootprintCacheConfig::new(1 << 20))
    }

    const PAGE: u64 = 2048;

    #[test]
    fn cold_miss_fetches_only_demanded_block() {
        let mut c = small();
        let plan = c.access(read(0x400, 5 * PAGE + 7 * 64));
        assert!(!plan.hit && !plan.bypass);
        assert_eq!(plan.offchip_read_blocks(), 1);
        assert_eq!(plan.stacked_write_blocks(), 1);
    }

    #[test]
    fn footprint_learned_and_prefetched() {
        let mut c = small();
        let pc = 0x400;
        // Teach: page 100, offsets {2, 6, 9}, triggered at offset 2.
        for off in [2u64, 6, 9] {
            c.access(read(pc, 100 * PAGE + off * 64));
        }
        c.flush();
        // Apply: page 200, same code, same trigger offset.
        let miss = c.access(read(pc, 200 * PAGE + 2 * 64));
        assert!(!miss.hit);
        assert_eq!(miss.offchip_read_blocks(), 3, "whole footprint fetched");
        assert!(c.access(read(pc, 200 * PAGE + 6 * 64)).hit);
        assert!(c.access(read(pc, 200 * PAGE + 9 * 64)).hit);
    }

    #[test]
    fn underprediction_is_a_block_miss() {
        let mut c = small();
        let pc = 0x400;
        c.access(read(pc, 100 * PAGE)); // allocates with {0}
        let plan = c.access(read(pc, 100 * PAGE + 64)); // same page, new block
        assert!(!plan.hit);
        assert_eq!(plan.offchip_read_blocks(), 1);
        // After eviction, the metrics record one underprediction.
        c.flush();
        assert_eq!(c.metrics().underpredicted, 1);
        assert_eq!(c.metrics().covered, 1);
    }

    #[test]
    fn overpredictions_counted_at_eviction() {
        let mut c = small();
        let pc = 0x500;
        // Teach a 3-block footprint.
        for off in [0u64, 1, 2] {
            c.access(read(pc, 100 * PAGE + off * 64));
        }
        c.flush();
        // New page: footprint {0,1,2} fetched but only block 0 demanded.
        c.access(read(pc, 200 * PAGE));
        c.flush();
        assert_eq!(c.metrics().overpredicted, 2);
    }

    #[test]
    fn singleton_page_bypasses_allocation() {
        let mut c = small();
        let pc = 0x600;
        // Teach singleton: page with a single demanded block.
        c.access(read(pc, 100 * PAGE + 3 * 64));
        c.flush();
        // Same key on a fresh page: bypass, no allocation.
        let plan = c.access(read(pc, 200 * PAGE + 3 * 64));
        assert!(plan.bypass);
        assert_eq!(plan.offchip_read_blocks(), 1);
        assert_eq!(plan.stacked_write_blocks(), 0, "no fill on bypass");
        // The page is *not* resident.
        let again = c.access(read(pc, 200 * PAGE + 3 * 64));
        assert!(again.bypass || !again.hit);
        assert!(c.metrics().singleton_bypasses >= 1);
    }

    #[test]
    fn second_access_promotes_singleton_page() {
        let mut c = small();
        let pc = 0x600;
        c.access(read(pc, 100 * PAGE + 3 * 64));
        c.flush();
        let bypass = c.access(read(pc, 200 * PAGE + 3 * 64));
        assert!(bypass.bypass);
        // Second access, *different* offset: promotion.
        let promo = c.access(read(0x999, 200 * PAGE + 7 * 64));
        assert!(!promo.bypass);
        assert_eq!(promo.offchip_read_blocks(), 2, "fetches both known blocks");
        assert_eq!(c.metrics().singleton_promotions, 1);
        // Both blocks now resident.
        assert!(c.access(read(pc, 200 * PAGE + 3 * 64)).hit);
        assert!(c.access(read(pc, 200 * PAGE + 7 * 64)).hit);
        // And the FHT prediction is no longer singleton: a third page
        // allocates both blocks.
        let third = c.access(read(pc, 300 * PAGE + 3 * 64));
        assert!(!third.bypass);
        assert_eq!(third.offchip_read_blocks(), 2);
    }

    #[test]
    fn singleton_optimization_can_be_disabled() {
        let mut c = FootprintCache::new(
            FootprintCacheConfig::new(1 << 20).with_singleton_optimization(false),
        );
        let pc = 0x600;
        c.access(read(pc, 100 * PAGE + 3 * 64));
        c.flush();
        let plan = c.access(read(pc, 200 * PAGE + 3 * 64));
        assert!(!plan.bypass, "bypass disabled");
        assert_eq!(plan.stacked_write_blocks(), 1, "page allocated");
    }

    #[test]
    fn writeback_dirties_resident_block() {
        let mut c = small();
        c.access(read(0x400, 100 * PAGE));
        let wb = c.writeback(PhysAddr::new(100 * PAGE));
        assert!(wb.hit);
        assert_eq!(wb.stacked_write_blocks(), 1);
        // Eviction writes the dirty block off-chip.
        c.flush();
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().offchip_write_blocks, 1);
    }

    #[test]
    fn writeback_to_absent_page_goes_off_chip() {
        let mut c = small();
        let wb = c.writeback(PhysAddr::new(0x123456));
        assert!(!wb.hit);
        assert_eq!(wb.offchip_write_blocks(), 1);
    }

    #[test]
    fn density_histogram_tracks_demanded() {
        let mut c = small();
        for off in 0..5u64 {
            c.access(read(0x400, 100 * PAGE + off * 64));
        }
        c.flush();
        assert_eq!(c.stats().density.bins()[2], 1); // 5 blocks -> 4-7 bin
    }

    #[test]
    fn warm_path_matches_detailed_path() {
        // The warmup-only update path must leave the cache — tags,
        // replacement order, FHT, Singleton Table, and every
        // statistic — exactly where the plan-building path would.
        let mut detailed = small();
        let mut warm = small();
        // A mixed stream with reuse, a few hot PCs (so the FHT learns
        // and predicts), conflict evictions and dirty pages.
        let mut addr = 0x40u64;
        for i in 0..4_000u64 {
            addr = addr
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (addr >> 16) % (64 << 20);
            let pc = 0x400 + (addr % 7) * 4;
            if i % 3 == 0 {
                let _ = detailed.writeback(PhysAddr::new(a));
                warm.warm_writeback(PhysAddr::new(a));
            } else {
                let req = read(pc, a);
                let _ = detailed.access(req);
                warm.warm_access(req);
            }
        }
        assert_eq!(detailed.stats(), warm.stats());
        assert_eq!(detailed.metrics(), warm.metrics());
        // Replacement and predictor state must agree too: the same
        // probe stream produces identical plans afterwards.
        for probe in (0..64u64).map(|i| i * 0x10040) {
            let req = read(0x400, probe);
            assert_eq!(detailed.access(req), warm.access(req));
        }
    }

    #[test]
    fn storage_matches_table4() {
        // 64 MB: 0.40 MB tags, 4-cycle latency (Table 4).
        let c = FootprintCache::new(FootprintCacheConfig::new(64 << 20));
        let items = c.storage();
        let tags = &items[0];
        let mb = tags.bytes as f64 / (1 << 20) as f64;
        assert!((mb - 0.40).abs() < 0.01, "{mb} MB");
        assert_eq!(tags.latency_cycles, 4);
        // 512 MB: ~3.1 MB tags, 11 cycles.
        let c = FootprintCache::new(FootprintCacheConfig::new(512 << 20));
        let tags = &c.storage()[0];
        let mb = tags.bytes as f64 / (1 << 20) as f64;
        assert!((mb - 3.19).abs() < 0.1, "{mb} MB");
        assert_eq!(tags.latency_cycles, 11);
        // FHT 144 KB, ST 3 KB.
        assert_eq!(c.storage()[1].bytes, 144 * 1024);
        assert_eq!(c.storage()[2].bytes, 3 * 1024);
    }

    #[test]
    fn pc_only_key_still_learns() {
        let mut c = FootprintCache::new(
            FootprintCacheConfig::new(1 << 20).with_key_kind(crate::KeyKind::PcOnly),
        );
        let pc = 0x700;
        for off in [1u64, 4] {
            c.access(read(pc, 100 * PAGE + off * 64));
        }
        c.flush();
        let miss = c.access(read(pc, 200 * PAGE + 64));
        assert_eq!(miss.offchip_read_blocks(), 2);
    }

    #[test]
    fn four_kb_pages_supported() {
        let mut c = FootprintCache::new(
            FootprintCacheConfig::new(1 << 20).with_geometry(PageGeometry::new(4096)),
        );
        let plan = c.access(read(0x400, 4096 * 10 + 63 * 64));
        assert!(!plan.hit);
        assert!(c.access(read(0x400, 4096 * 10 + 63 * 64)).hit);
    }
}
