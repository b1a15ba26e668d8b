//! A paper-literal Footprint Cache (Jevdjic et al., ISCA 2013, Section 4)
//! written independently of `footprint_cache::FootprintCache`, and checked
//! against it op for op and counter for counter.
//!
//! The reference keeps the paper's structures in their plainest form:
//!
//! * the page tag array as one most-recently-used-first list of resident
//!   pages per set (positional LRU: the victim is the last entry), each
//!   page carrying its present, demanded and dirty block sets, the
//!   footprint fetched for it and the FHT key that allocated it;
//! * the Footprint History Table as one positional-LRU list of
//!   (PC & offset key, footprint) pairs;
//! * the Singleton Table as one positional-LRU list of
//!   (page, key, offset) entries.
//!
//! On the triggering miss of a page the FHT is looked up with the
//! (PC, offset) key: a singleton prediction bypasses the page and notes it
//! in the Singleton Table, a footprint prediction fetches the footprint,
//! and no history fetches the demanded block. A second access to a
//! bypassed page promotes it. Evicting a page trains the FHT with the
//! blocks the cores demanded and writes its dirty blocks back.
//!
//! Replacement is mirrored positionally rather than avoided. The checked
//! configuration makes the FHT and the Singleton Table single-set (64 and
//! 8 ways), so neither needs the model's set hash and both do evict on
//! the generated streams: 8 PCs x 32 offsets give 256 keys for 64 FHT
//! entries. The tag array's set index, tag and stacked-DRAM slot address
//! follow the model's page mapping (set = page mod sets, slot = set x
//! ways + tag mod ways), which the paper leaves to the implementation.

use proptest::prelude::*;

use fc_cache::{AccessPlan, DramCacheModel, DramCacheStats, MemOp, MemTarget, PredictionCounters};
use fc_types::{AccessKind, Footprint, MemAccess, Pc, PhysAddr};
use footprint_cache::{FootprintCache, FootprintCacheConfig};

const PAGE_BYTES: u64 = 2048;
const BLOCK_BYTES: u64 = 64;

/// 32 pages of 2 KB in 8 sets of 4 ways.
const CACHE_BYTES: u64 = 64 << 10;
const WAYS: usize = 4;
const FHT_ENTRIES: usize = 64;
const ST_ENTRIES: usize = 8;

/// The checked configuration: single-set FHT and Singleton Table.
fn config(singleton_optimization: bool) -> FootprintCacheConfig {
    FootprintCacheConfig {
        ways: WAYS,
        fht_ways: FHT_ENTRIES,
        st_entries: ST_ENTRIES,
        ..FootprintCacheConfig::new(CACHE_BYTES)
            .with_fht_entries(FHT_ENTRIES)
            .with_singleton_optimization(singleton_optimization)
    }
}

/// One resident page of the reference tag array.
struct Page {
    tag: u64,
    present: Footprint,
    demanded: Footprint,
    dirty: Footprint,
    fetched: Footprint,
    key: u64,
}

/// Moves the entry at `i` of a positional-LRU list to the front.
fn touch<T>(list: &mut Vec<T>, i: usize) {
    let entry = list.remove(i);
    list.insert(0, entry);
}

/// Puts `entry` at the front of a positional-LRU list of `capacity`,
/// dropping the last entry if the list is full.
fn push_mru<T>(list: &mut Vec<T>, capacity: usize, entry: T) -> Option<T> {
    let victim = (list.len() == capacity).then(|| list.pop()).flatten();
    list.insert(0, entry);
    victim
}

struct Reference {
    sets: Vec<Vec<Page>>,
    fht: Vec<(u64, Footprint)>,
    st: Vec<(u64, u64, usize)>,
    singleton_optimization: bool,
    tag_latency: u32,
    stats: DramCacheStats,
    counters: PredictionCounters,
    /// FHT and Singleton Table entries dropped by replacement.
    fht_replaced: u64,
    st_replaced: u64,
}

impl Reference {
    fn new(singleton_optimization: bool, tag_latency: u32) -> Self {
        let pages = (CACHE_BYTES / PAGE_BYTES) as usize;
        Self {
            sets: (0..pages / WAYS).map(|_| Vec::new()).collect(),
            fht: Vec::new(),
            st: Vec::new(),
            singleton_optimization,
            tag_latency,
            stats: DramCacheStats::default(),
            counters: PredictionCounters::default(),
            fht_replaced: 0,
            st_replaced: 0,
        }
    }

    fn locate(&self, addr: PhysAddr) -> (u64, usize, u64, usize) {
        let page = addr.raw() / PAGE_BYTES;
        let offset = ((addr.raw() % PAGE_BYTES) / BLOCK_BYTES) as usize;
        let sets = self.sets.len() as u64;
        (page, (page % sets) as usize, page / sets, offset)
    }

    fn slot(&self, set: usize, tag: u64) -> PhysAddr {
        PhysAddr::new((set as u64 * WAYS as u64 + tag % WAYS as u64) * PAGE_BYTES)
    }

    /// Finds a resident page and makes it most recently used.
    fn lookup(&mut self, set: usize, tag: u64) -> Option<&mut Page> {
        let i = self.sets[set].iter().position(|p| p.tag == tag)?;
        touch(&mut self.sets[set], i);
        Some(&mut self.sets[set][0])
    }

    fn fht_lookup(&mut self, key: u64) -> Option<Footprint> {
        let i = self.fht.iter().position(|e| e.0 == key)?;
        touch(&mut self.fht, i);
        Some(self.fht[0].1)
    }

    fn fht_train(&mut self, key: u64, footprint: Footprint) {
        if let Some(i) = self.fht.iter().position(|e| e.0 == key) {
            self.fht.remove(i);
        }
        if push_mru(&mut self.fht, FHT_ENTRIES, (key, footprint)).is_some() {
            self.fht_replaced += 1;
        }
    }

    fn access(&mut self, req: MemAccess) -> AccessPlan {
        let (page, set, tag, offset) = self.locate(req.addr);
        let slot = self.slot(set, tag);
        let block = PhysAddr::new(req.addr.raw() / BLOCK_BYTES * BLOCK_BYTES);
        let mut plan = AccessPlan::tag_only(false, self.tag_latency);
        self.stats.accesses += 1;
        if let Some(p) = self.lookup(set, tag) {
            let hit = p.present.contains(offset);
            p.present.insert(offset);
            p.demanded.insert(offset);
            if hit {
                plan.hit = true;
                plan.critical.push(MemOp::read(MemTarget::Stacked, slot, 1));
                self.stats.hits += 1;
            } else {
                // Underprediction: a block miss in a resident page.
                plan.critical
                    .push(MemOp::read(MemTarget::OffChip, block, 1));
                plan.background
                    .push(MemOp::write(MemTarget::Stacked, slot, 1));
                self.stats.misses += 1;
                self.stats.fill_blocks += 1;
            }
            return self.counted(plan);
        }

        // Triggering miss.
        self.stats.misses += 1;
        let key = (req.pc.raw() << 6) ^ offset as u64;
        if let Some(i) = self.st.iter().position(|e| e.0 == page) {
            let (_, st_key, st_offset) = self.st.remove(i);
            let fetched = Footprint::from_offsets([st_offset, offset]);
            self.counters.singleton_promotions += 1;
            self.fht_train(st_key, fetched);
            self.allocate(page, set, tag, offset, fetched, st_key, &mut plan);
            return self.counted(plan);
        }
        let fetched = match self.fht_lookup(key) {
            Some(fp) if self.singleton_optimization && fp.is_singleton() => {
                plan.bypass = true;
                plan.critical
                    .push(MemOp::read(MemTarget::OffChip, block, 1));
                self.stats.bypasses += 1;
                self.counters.singleton_bypasses += 1;
                // Not in the table: a listed page was promoted above.
                if push_mru(&mut self.st, ST_ENTRIES, (page, key, offset)).is_some() {
                    self.st_replaced += 1;
                }
                return self.counted(plan);
            }
            Some(fp) => fp.union(Footprint::singleton(offset)),
            None => Footprint::singleton(offset),
        };
        self.allocate(page, set, tag, offset, fetched, key, &mut plan);
        self.counted(plan)
    }

    #[allow(clippy::too_many_arguments)]
    fn allocate(
        &mut self,
        page: u64,
        set: usize,
        tag: u64,
        offset: usize,
        fetched: Footprint,
        key: u64,
        plan: &mut AccessPlan,
    ) {
        let blocks = fetched.len() as u32;
        let base = PhysAddr::new(page * PAGE_BYTES);
        plan.critical
            .push(MemOp::read(MemTarget::OffChip, base, blocks));
        plan.background.push(MemOp::write(
            MemTarget::Stacked,
            self.slot(set, tag),
            blocks,
        ));
        self.stats.fill_blocks += blocks as u64;
        let entry = Page {
            tag,
            present: fetched,
            demanded: Footprint::singleton(offset),
            dirty: Footprint::empty(),
            fetched,
            key,
        };
        if let Some(victim) = push_mru(&mut self.sets[set], WAYS, entry) {
            self.evict(set, victim, plan);
        }
    }

    fn evict(&mut self, set: usize, victim: Page, plan: &mut AccessPlan) {
        self.stats.evictions += 1;
        self.stats.density.record(victim.demanded.len());
        self.fht_train(victim.key, victim.demanded);
        let c = &mut self.counters;
        c.covered += victim.fetched.intersection(victim.demanded).len() as u64;
        c.overpredicted += victim.fetched.difference(victim.demanded).len() as u64;
        c.underpredicted += victim.demanded.difference(victim.fetched).len() as u64;
        if victim.dirty.is_empty() {
            return;
        }
        self.stats.dirty_evictions += 1;
        let blocks = victim.dirty.len() as u32;
        let page = victim.tag * self.sets.len() as u64 + set as u64;
        plan.background.push(MemOp::read(
            MemTarget::Stacked,
            self.slot(set, victim.tag),
            blocks,
        ));
        plan.background.push(MemOp::write(
            MemTarget::OffChip,
            PhysAddr::new(page * PAGE_BYTES),
            blocks,
        ));
    }

    fn writeback(&mut self, addr: PhysAddr) -> AccessPlan {
        let (_, set, tag, offset) = self.locate(addr);
        let slot = self.slot(set, tag);
        let mut plan = AccessPlan::tag_only(false, self.tag_latency);
        match self.lookup(set, tag) {
            Some(p) if p.present.contains(offset) => {
                p.demanded.insert(offset);
                p.dirty.insert(offset);
                plan.hit = true;
                plan.background
                    .push(MemOp::write(MemTarget::Stacked, slot, 1));
            }
            _ => {
                let block = PhysAddr::new(addr.raw() / BLOCK_BYTES * BLOCK_BYTES);
                plan.background
                    .push(MemOp::write(MemTarget::OffChip, block, 1));
            }
        }
        self.counted(plan)
    }

    /// Evicts every resident page (the model's `flush`).
    fn flush(&mut self) {
        let mut plan = AccessPlan::default();
        for set in 0..self.sets.len() {
            for victim in std::mem::take(&mut self.sets[set]) {
                self.evict(set, victim, &mut plan);
            }
        }
        self.counted(plan);
    }

    /// Adds a plan's blocks to the traffic counters.
    fn counted(&mut self, plan: AccessPlan) -> AccessPlan {
        for op in plan.critical.iter().chain(plan.background.iter()) {
            let blocks = op.blocks as u64;
            match (op.target, op.kind) {
                (MemTarget::OffChip, AccessKind::Read) => self.stats.offchip_read_blocks += blocks,
                (MemTarget::OffChip, AccessKind::Write) => {
                    self.stats.offchip_write_blocks += blocks
                }
                (MemTarget::Stacked, AccessKind::Read) => self.stats.stacked_read_blocks += blocks,
                (MemTarget::Stacked, AccessKind::Write) => {
                    self.stats.stacked_write_blocks += blocks
                }
            }
        }
        plan
    }
}

/// (page, offset, pc-id, is_writeback).
type Op = (u64, u8, u8, bool);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..96, 0u8..32, 0u8..8, proptest::bool::ANY), 1..600)
}

/// Drives the model and the reference through `ops`, comparing every
/// plan, then the counters, then the counters after a flush.
fn check(ops: &[Op], singleton_optimization: bool) -> Reference {
    let mut model = FootprintCache::new(config(singleton_optimization));
    let tag_latency = model.storage()[0].latency_cycles;
    let mut reference = Reference::new(singleton_optimization, tag_latency);
    for (i, &(page, offset, pc, is_wb)) in ops.iter().enumerate() {
        let addr = PhysAddr::new(page * PAGE_BYTES + offset as u64 * BLOCK_BYTES);
        if is_wb {
            assert_eq!(
                model.writeback(addr),
                reference.writeback(addr),
                "op {i}: writeback {addr:?}"
            );
        } else {
            let req = MemAccess::read(Pc::new(0x400 + pc as u64 * 4), addr, 0);
            assert_eq!(
                model.access(req),
                reference.access(req),
                "op {i}: access {req:?}"
            );
        }
    }
    assert_eq!(model.stats(), &reference.stats);
    assert_eq!(model.prediction_counters(), Some(reference.counters));
    model.flush();
    reference.flush();
    assert_eq!(model.stats(), &reference.stats, "after flush");
    assert_eq!(
        model.prediction_counters(),
        Some(reference.counters),
        "after flush"
    );
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn footprint_cache_matches_the_paper_literal_reference(ops in ops_strategy()) {
        check(&ops, true);
        check(&ops, false);
    }
}

/// The generated streams reach every mechanism the reference models:
/// over the property's cases, pages are covered, over- and
/// underpredicted, bypassed as singletons and promoted, and dirty pages
/// are written back; the FHT and the Singleton Table both replace.
#[test]
fn reference_cases_reach_every_mechanism() {
    let mut total = PredictionCounters::default();
    let (mut dirty, mut fht_replaced, mut st_replaced) = (0, 0, 0);
    for case in 0..64 {
        let ops = ops_strategy().generate(&mut proptest::TestRng::for_case(case));
        let r = check(&ops, true);
        total.covered += r.counters.covered;
        total.overpredicted += r.counters.overpredicted;
        total.underpredicted += r.counters.underpredicted;
        total.singleton_bypasses += r.counters.singleton_bypasses;
        total.singleton_promotions += r.counters.singleton_promotions;
        dirty += r.stats.dirty_evictions;
        fht_replaced += r.fht_replaced;
        st_replaced += r.st_replaced;
    }
    let t = total;
    assert!(
        t.covered > 0
            && t.overpredicted > 0
            && t.underpredicted > 0
            && t.singleton_bypasses > 0
            && t.singleton_promotions > 0,
        "{t:?}"
    );
    assert!(dirty > 0, "no dirty page was evicted");
    assert!(
        fht_replaced > 0 && st_replaced > 0,
        "FHT replacements: {fht_replaced}, ST replacements: {st_replaced}"
    );
}
