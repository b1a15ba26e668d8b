//! Cross-crate property tests: conservation laws that must hold for any
//! access stream, on every DRAM cache design and on the full simulator.

use proptest::prelude::*;

use fc_cache::{
    AlloyCache, BansheeCache, BlockBasedCache, BoxedModel, DramCacheModel, GeminiCache,
    HotPageCache, IdealCache, NoCache, PageBasedCache, SubBlockCache, WritebackGranularity,
};
use fc_types::{AccessKind, MemAccess, PageGeometry, Pc, PhysAddr};
use footprint_cache::{FootprintCache, FootprintCacheConfig};

/// A compact encoding of a random access: (page, offset, pc-id, is_write,
/// is_writeback).
type Op = (u64, u8, u8, bool, bool);

fn ops_strategy(max_pages: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0..max_pages,
            0u8..32,
            0u8..8,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        1..300,
    )
}

/// The demand access an op encodes (its address is also the writeback
/// address when the op is a writeback).
fn access_of(&(page, offset, pc, write, _): &Op) -> MemAccess {
    MemAccess {
        pc: Pc::new(0x400 + pc as u64 * 4),
        addr: PhysAddr::new(page * 2048 + offset as u64 * 64),
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        core: 0,
    }
}

/// Drives `ops` through `access`/`writeback` and returns the plans'
/// total blocks: off-chip read, off-chip write, stacked read, stacked
/// write.
fn apply(design: &mut dyn DramCacheModel, ops: &[Op]) -> [u64; 4] {
    let mut traffic = [0; 4];
    for op in ops {
        let req = access_of(op);
        let plan = if op.4 {
            design.writeback(req.addr)
        } else {
            design.access(req)
        };
        let blocks = [
            plan.offchip_read_blocks(),
            plan.offchip_write_blocks(),
            plan.stacked_read_blocks(),
            plan.stacked_write_blocks(),
        ];
        for (total, n) in traffic.iter_mut().zip(blocks) {
            *total += n;
        }
    }
    traffic
}

/// [`apply`] through the functional-warm-up entry points.
fn warm(design: &mut dyn DramCacheModel, ops: &[Op]) {
    for op in ops {
        let req = access_of(op);
        if op.4 {
            design.warm_writeback(req.addr);
        } else {
            design.warm_access(req);
        }
    }
}

/// Stacked capacity of every design under test: 32 pages of 2 KB, so
/// streams over 256 pages overflow it and the designs evict.
const CACHE_BYTES: u64 = 64 << 10;

/// Pages the accounting and traffic properties draw from.
const PAGES: u64 = 256;

/// Every design family's model, labelled for failure messages, at
/// [`CACHE_BYTES`].
fn designs() -> Vec<(&'static str, BoxedModel)> {
    let geom = PageGeometry::default();
    vec![
        ("Baseline", Box::new(NoCache::new())),
        ("Ideal", Box::new(IdealCache::new())),
        ("Block-based", Box::new(BlockBasedCache::new(CACHE_BYTES))),
        (
            "Page-based",
            Box::new(PageBasedCache::new(CACHE_BYTES, geom)),
        ),
        (
            "PageDirty",
            Box::new(PageBasedCache::with_granularity(
                CACHE_BYTES,
                geom,
                WritebackGranularity::DirtyBlocks,
            )),
        ),
        (
            "Sub-blocked",
            Box::new(SubBlockCache::new(CACHE_BYTES, geom)),
        ),
        (
            "Hot-page",
            Box::new(HotPageCache::new(CACHE_BYTES, PageGeometry::new(4096), 2)),
        ),
        (
            "Footprint",
            Box::new(FootprintCache::new(FootprintCacheConfig::new(CACHE_BYTES))),
        ),
        ("Alloy", Box::new(AlloyCache::new(CACHE_BYTES))),
        ("Banshee", Box::new(BansheeCache::new(CACHE_BYTES, geom))),
        ("Gemini", Box::new(GeminiCache::new(CACHE_BYTES, geom, 4))),
    ]
}

/// The properties below only mean something if the caches turn over:
/// on one fixed pseudo-random stream as long as the longest generated
/// case, every design that keeps pages evicts. Block-based (960 blocks
/// in 30-way sets) fills no set from so few accesses; Baseline and
/// Ideal hold nothing to evict.
#[test]
fn designs_evict_on_a_stream_larger_than_the_cache() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let ops: Vec<Op> = (0..299)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let b = state.to_le_bytes();
            (
                state % PAGES,
                b[1] % 32,
                b[2] % 8,
                b[3] & 1 == 1,
                b[4] & 1 == 1,
            )
        })
        .collect();
    for (name, mut design) in designs() {
        if matches!(name, "Baseline" | "Ideal" | "Block-based") {
            continue;
        }
        apply(design.as_mut(), &ops);
        assert!(
            design.stats().evictions > 0,
            "{name}: no evictions on a 256-page stream"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every design: hits + misses == accesses, bypasses <= misses,
    /// dirty evictions <= evictions, and every plan's traffic is
    /// reflected in the counters.
    #[test]
    fn accounting_invariants(ops in ops_strategy(PAGES)) {
        for (name, mut design) in designs() {
            apply(design.as_mut(), &ops);
            let s = design.stats().clone();
            prop_assert_eq!(
                s.hits + s.misses, s.accesses,
                "{}: hits+misses != accesses", name
            );
            prop_assert!(s.bypasses <= s.misses,
                "{}: bypasses exceed misses", name);
            prop_assert!(s.dirty_evictions <= s.evictions,
                "{}: dirty evictions exceed evictions", name);
        }
    }

    /// Designs that fill the stacked DRAM never read more blocks from
    /// off-chip than they fill plus demand-read (no traffic out of thin
    /// air), and the ideal cache never touches off-chip at all.
    #[test]
    fn traffic_conservation(ops in ops_strategy(PAGES)) {
        for (name, mut design) in designs() {
            apply(design.as_mut(), &ops);
            let s = design.stats().clone();
            if name == "Ideal" {
                prop_assert_eq!(s.offchip_read_blocks, 0);
                prop_assert_eq!(s.offchip_write_blocks, 0);
            }
            // Demand misses each read at least one off-chip block unless
            // the design fills larger units; in all cases fills are part
            // of the off-chip reads.
            if name != "Ideal" {
                prop_assert!(
                    s.offchip_read_blocks >= s.misses.min(s.fill_blocks),
                    "{}: off-chip reads lost", name
                );
            }
        }
    }

    /// Functional warm-up is the detailed transition without the plan:
    /// for every design, a clone driven through `warm_access` /
    /// `warm_writeback` ends with the same counters and prediction
    /// counters as one driven through `access` / `writeback`, and the
    /// same tag, replacement and predictor state (equal plans for a
    /// fixed probe stream afterwards). The shared traffic counters equal
    /// the detailed plans' blocks. Page at both writeback granularities,
    /// Sub-blocked and Footprint evict dirty pages here, and Footprint
    /// trains, bypasses and promotes.
    #[test]
    fn warm_path_matches_detailed_path(ops in ops_strategy(PAGES)) {
        let probes: Vec<Op> = (0..64u64)
            .map(|i| (i * 37 % PAGES, (i * 5 % 32) as u8, (i % 8) as u8, false, i % 4 == 3))
            .collect();
        for (name, mut detailed) in designs() {
            let mut warmed = detailed.clone();
            let traffic = apply(detailed.as_mut(), &ops);
            warm(warmed.as_mut(), &ops);
            let s = detailed.stats();
            prop_assert_eq!(
                traffic,
                [s.offchip_read_blocks, s.offchip_write_blocks, s.stacked_read_blocks, s.stacked_write_blocks],
                "{}: traffic counters differ from the plans", name
            );
            prop_assert_eq!(detailed.stats(), warmed.stats(), "{}: stats differ", name);
            prop_assert_eq!(
                detailed.prediction_counters(),
                warmed.prediction_counters(),
                "{}: prediction counters differ", name
            );
            for probe in &probes {
                let req = access_of(probe);
                if probe.4 {
                    prop_assert_eq!(detailed.writeback(req.addr), warmed.writeback(req.addr),
                        "{}: writeback probe {:?}", name, probe);
                } else {
                    prop_assert_eq!(detailed.access(req), warmed.access(req),
                        "{}: access probe {:?}", name, probe);
                }
            }
        }
    }

    /// Footprint Cache specifics: demanded blocks at eviction partition
    /// into covered + underpredicted; a re-run of the same stream is
    /// deterministic.
    #[test]
    fn footprint_metrics_partition(ops in ops_strategy(32)) {
        let mut a = FootprintCache::new(FootprintCacheConfig::new(1 << 20));
        apply(&mut a, &ops);
        a.flush();
        let m = *a.metrics();
        // Every eviction's demanded vector splits exactly.
        prop_assert_eq!(m.demanded_blocks(), m.covered + m.underpredicted);

        let mut b = FootprintCache::new(FootprintCacheConfig::new(1 << 20));
        apply(&mut b, &ops);
        b.flush();
        prop_assert_eq!(&m, b.metrics());
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// The singleton optimization can only reduce fills (it never fetches
    /// more than the unoptimized cache for the same stream).
    #[test]
    fn singleton_optimization_never_fetches_more(ops in ops_strategy(48)) {
        let mut with = FootprintCache::new(FootprintCacheConfig::new(1 << 20));
        let mut without = FootprintCache::new(
            FootprintCacheConfig::new(1 << 20).with_singleton_optimization(false),
        );
        apply(&mut with, &ops);
        apply(&mut without, &ops);
        prop_assert!(
            with.stats().fill_blocks <= without.stats().fill_blocks,
            "ST must not increase fills: {} vs {}",
            with.stats().fill_blocks,
            without.stats().fill_blocks
        );
    }

    /// Block-state encoding under the cache: a block reported hit must
    /// have been filled or demanded earlier (no hits on never-seen
    /// blocks).
    #[test]
    fn no_spurious_hits(ops in ops_strategy(1 << 30)) {
        // With an enormous page space and no repetition, almost every
        // access is unique: the only hits possible come from footprint
        // prefetches within pages previously touched by the same PC.
        let mut cache = FootprintCache::new(FootprintCacheConfig::new(1 << 20));
        // Only demand accesses can create first-touch misses; writebacks
        // are not accesses.
        let unique_pages = ops
            .iter()
            .filter(|o| !o.4)
            .map(|o| o.0)
            .collect::<std::collections::HashSet<_>>();
        apply(&mut cache, &ops);
        let s = cache.stats();
        // Hits can never exceed accesses minus one access per unique page
        // (the first touch of a page can never hit).
        prop_assert!(s.hits + unique_pages.len() as u64 <= s.accesses + s.bypasses,
            "more hits than repeat accesses: hits={} uniques={} accesses={}",
            s.hits, unique_pages.len(), s.accesses);
    }
}

/// The generated cases of `warm_path_matches_detailed_path` reach the
/// transitions it claims to check: summed over its 48 cases, Page (both
/// granularities), Sub-blocked and Footprint write back dirty victims,
/// and Footprint covers, overpredicts, underpredicts, bypasses
/// singletons and promotes them.
#[test]
fn lockstep_cases_reach_every_transition() {
    let mut dirty = std::collections::BTreeMap::new();
    let mut footprint = fc_cache::PredictionCounters::default();
    for case in 0..48 {
        let ops = ops_strategy(PAGES).generate(&mut proptest::TestRng::for_case(case));
        for (name, mut design) in designs() {
            apply(design.as_mut(), &ops);
            *dirty.entry(name).or_insert(0) += design.stats().dirty_evictions;
            if let Some(p) = design.prediction_counters() {
                footprint.covered += p.covered;
                footprint.overpredicted += p.overpredicted;
                footprint.underpredicted += p.underpredicted;
                footprint.singleton_bypasses += p.singleton_bypasses;
                footprint.singleton_promotions += p.singleton_promotions;
            }
        }
    }
    for (name, n) in &dirty {
        if matches!(
            *name,
            "Page-based" | "PageDirty" | "Sub-blocked" | "Footprint"
        ) {
            assert!(*n > 0, "{name}: no dirty eviction in the lockstep cases");
        }
    }
    let p = footprint;
    assert!(
        p.covered > 0
            && p.overpredicted > 0
            && p.underpredicted > 0
            && p.singleton_bypasses > 0
            && p.singleton_promotions > 0,
        "Footprint transitions missing from the lockstep cases: {p:?}"
    );
}
