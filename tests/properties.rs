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

fn apply(design: &mut dyn DramCacheModel, ops: &[Op]) {
    for &(page, offset, pc, write, is_wb) in ops {
        let addr = PhysAddr::new(page * 2048 + offset as u64 * 64);
        if is_wb {
            design.writeback(addr);
        } else {
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            design.access(MemAccess {
                pc: Pc::new(0x400 + pc as u64 * 4),
                addr,
                kind,
                core: 0,
            });
        }
    }
}

/// Stacked capacity of every design under test: 32 pages of 2 KB, so
/// streams over 256 pages overflow it and the designs evict.
const CACHE_BYTES: u64 = 64 << 10;

/// Pages the accounting and traffic properties draw from.
const PAGES: u64 = 256;

/// Every design family's model (PageDirty is the dirty-block
/// `PageBasedCache`), at [`CACHE_BYTES`].
fn designs() -> Vec<BoxedModel> {
    let geom = PageGeometry::default();
    vec![
        Box::new(NoCache::new()),
        Box::new(IdealCache::new()),
        Box::new(BlockBasedCache::new(CACHE_BYTES)),
        Box::new(PageBasedCache::new(CACHE_BYTES, geom)),
        Box::new(PageBasedCache::with_granularity(
            CACHE_BYTES,
            geom,
            WritebackGranularity::DirtyBlocks,
        )),
        Box::new(SubBlockCache::new(CACHE_BYTES, geom)),
        Box::new(HotPageCache::new(CACHE_BYTES, PageGeometry::new(4096), 2)),
        Box::new(FootprintCache::new(FootprintCacheConfig::new(CACHE_BYTES))),
        Box::new(AlloyCache::new(CACHE_BYTES)),
        Box::new(BansheeCache::new(CACHE_BYTES, geom)),
        Box::new(GeminiCache::new(CACHE_BYTES, geom, 4)),
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
    for mut design in designs() {
        if matches!(design.name(), "Baseline" | "Ideal" | "Block-based") {
            continue;
        }
        apply(design.as_mut(), &ops);
        assert!(
            design.stats().evictions > 0,
            "{}: no evictions on a 256-page stream",
            design.name()
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
        for mut design in designs() {
            apply(design.as_mut(), &ops);
            let s = design.stats().clone();
            prop_assert_eq!(
                s.hits + s.misses, s.accesses,
                "{}: hits+misses != accesses", design.name()
            );
            prop_assert!(s.bypasses <= s.misses,
                "{}: bypasses exceed misses", design.name());
            prop_assert!(s.dirty_evictions <= s.evictions,
                "{}: dirty evictions exceed evictions", design.name());
        }
    }

    /// Designs that fill the stacked DRAM never read more blocks from
    /// off-chip than they fill plus demand-read (no traffic out of thin
    /// air), and the ideal cache never touches off-chip at all.
    #[test]
    fn traffic_conservation(ops in ops_strategy(PAGES)) {
        for mut design in designs() {
            apply(design.as_mut(), &ops);
            let s = design.stats().clone();
            if design.name() == "Ideal" {
                prop_assert_eq!(s.offchip_read_blocks, 0);
                prop_assert_eq!(s.offchip_write_blocks, 0);
            }
            // Demand misses each read at least one off-chip block unless
            // the design fills larger units; in all cases fills are part
            // of the off-chip reads.
            if design.name() != "Ideal" {
                prop_assert!(
                    s.offchip_read_blocks >= s.misses.min(s.fill_blocks),
                    "{}: off-chip reads lost", design.name()
                );
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
        prop_assert_eq!(m.demanded_blocks(), m.covered_blocks + m.underpredicted_blocks);

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
