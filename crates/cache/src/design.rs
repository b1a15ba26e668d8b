//! The [`DramCacheModel`] trait and shared statistics.

use serde::{Deserialize, Serialize};

use fc_types::{MemAccess, PhysAddr};

use crate::metrics::PredictionCounters;
use crate::plan::AccessPlan;

/// Latency in core cycles of an SRAM structure of the given size.
///
/// Piecewise model fitted to the paper's Table 4 (tag latencies 4–11
/// cycles for 0.22–3.12 MB structures at 3 GHz):
///
/// ```
/// use fc_cache::sram_latency_cycles;
/// assert_eq!(sram_latency_cycles(410_000), 4);    // 0.40 MB FC tags @64MB
/// assert_eq!(sram_latency_cycles(1_660_000), 9);  // 1.58 MB FC tags @256MB
/// assert_eq!(sram_latency_cycles(3_280_000), 11); // 3.12 MB FC tags @512MB
/// ```
pub fn sram_latency_cycles(bytes: u64) -> u32 {
    const MB: u64 = 1 << 20;
    match bytes {
        b if b <= MB * 42 / 100 => 4,
        b if b <= MB / 2 => 5,
        b if b <= MB => 6,
        b if b <= 2 * MB => 9,
        b if b <= 4 * MB => 11,
        _ => 13,
    }
}

/// One SRAM structure a design needs on the logic die (Table 4 reports
/// these per design and capacity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageItem {
    /// Structure name ("tag array", "MissMap", "FHT", …).
    pub name: &'static str,
    /// Size in bytes.
    pub bytes: u64,
    /// Lookup latency in core cycles.
    pub latency_cycles: u32,
}

/// Histogram of page densities observed at eviction, using Figure 4's
/// bins: 1, 2–3, 4–7, 8–15, 16–31, 32 blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DensityHistogram {
    bins: [u64; 6],
}

impl DensityHistogram {
    /// Figure 4's bin labels.
    pub const LABELS: [&'static str; 6] = [
        "1 Block",
        "2-3 Blocks",
        "4-7 Blocks",
        "8-15 Blocks",
        "16-31 Blocks",
        "32 Blocks",
    ];

    /// Records a page evicted with `density` demanded blocks (densities
    /// over 32 land in the top bin; zero-density pages are ignored).
    pub fn record(&mut self, density: usize) {
        let bin = match density {
            0 => return,
            1 => 0,
            2..=3 => 1,
            4..=7 => 2,
            8..=15 => 3,
            16..=31 => 4,
            _ => 5,
        };
        self.bins[bin] += 1;
    }

    /// Raw bin counts.
    pub fn bins(&self) -> [u64; 6] {
        self.bins
    }

    /// Rebuilds a histogram from raw bin counts (the inverse of
    /// [`bins`](Self::bins); used when loading persisted reports).
    pub fn from_bins(bins: [u64; 6]) -> Self {
        Self { bins }
    }

    /// Bin fractions summing to 1 (all zeros if nothing recorded).
    pub fn fractions(&self) -> [f64; 6] {
        let total: u64 = self.bins.iter().sum();
        if total == 0 {
            return [0.0; 6];
        }
        let mut out = [0.0; 6];
        for (o, b) in out.iter_mut().zip(self.bins.iter()) {
            *o = *b as f64 / total as f64;
        }
        out
    }

    /// Total pages recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// Counters shared by every DRAM cache design.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DramCacheStats {
    /// Demand accesses seen (reads + writes from the L2's miss stream).
    pub accesses: u64,
    /// Accesses serviced from the stacked DRAM.
    pub hits: u64,
    /// Accesses serviced from off-chip memory.
    pub misses: u64,
    /// Misses serviced off-chip without allocating (singleton bypass,
    /// filter-cache bypass).
    pub bypasses: u64,
    /// Allocation-unit evictions (pages or blocks, per design).
    pub evictions: u64,
    /// Evictions that wrote data back off-chip.
    pub dirty_evictions: u64,
    /// Blocks fetched from off-chip into the cache (fills).
    pub fill_blocks: u64,
    /// Total blocks read from off-chip (demand + fills).
    pub offchip_read_blocks: u64,
    /// Total blocks written to off-chip (writebacks).
    pub offchip_write_blocks: u64,
    /// Total blocks read from the stacked DRAM.
    pub stacked_read_blocks: u64,
    /// Total blocks written to the stacked DRAM.
    pub stacked_write_blocks: u64,
    /// Page densities at eviction (page-organized designs; Figure 4).
    pub density: DensityHistogram,
}

impl DramCacheStats {
    /// Miss ratio over demand accesses (Figure 5a).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit ratio over demand accesses (Figure 9).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// The boxed design model: the one way every layer stores, calls and
/// clones a design. `fc_sim::DesignSpec::build` boxes each registry
/// model into this alias, and `fc_sim::MemorySystem` dispatches every
/// access through its vtable. The `Send + Sync` auto-trait bounds are
/// part of the engine contract (the parallel executor and the
/// parallel-in-time sampler move models across threads), so a bare
/// `Box<dyn DramCacheModel>` is almost always a mistake: it cannot
/// enter a `MemorySystem`.
pub type BoxedModel = Box<dyn DramCacheModel + Send + Sync>;

/// Object-safe cloning for boxed design models.
///
/// Checkpointable simulation (the parallel-in-time sampler) clones a
/// [`BoxedModel`] without knowing the concrete type; `BoxedModel`'s
/// `Clone` impl calls this trait. Every `Clone + Send + Sync` model
/// gets it for free via the blanket impl; design authors never
/// implement it by hand: they `#[derive(Clone)]` and the supertrait
/// bound is satisfied.
pub trait CloneModel {
    /// Clones the model behind a fresh box.
    fn clone_model(&self) -> BoxedModel;
}

impl<T: DramCacheModel + Clone + Send + Sync + 'static> CloneModel for T {
    fn clone_model(&self) -> BoxedModel {
        Box::new(self.clone())
    }
}

impl Clone for BoxedModel {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// A die-stacked DRAM cache design.
///
/// Implementations are purely functional models: they maintain their own
/// tag/metadata state and translate each request into an [`AccessPlan`];
/// timing and energy fall out of executing plans against the DRAM models.
/// Models must also be cheaply cloneable ([`CloneModel`], free with
/// `#[derive(Clone)]`) so engine state can be checkpointed at interval
/// boundaries.
///
/// A design writes its demand and writeback transitions once, as
/// inherent fns generic over an [`OpSink`](crate::OpSink), and the four
/// transition methods are wrappers that pick the sink:
/// `access`/`writeback` run the body over an [`AccessPlan`],
/// `warm_access`/`warm_writeback` over [`BlockCounts`](crate::BlockCounts).
/// Both then [`tally`](crate::OpSink::tally) the traffic into
/// the design's stats, so the two paths leave identical state and
/// counters by construction.
pub trait DramCacheModel: CloneModel {
    /// Handles a demand access (a read or write that missed in the L2).
    fn access(&mut self, req: MemAccess) -> AccessPlan;

    /// Handles a dirty-block writeback evicted from the L2. Writebacks
    /// carry no PC (Section 7: evictions from upper levels are not
    /// tracked) and never stall the core.
    fn writeback(&mut self, addr: PhysAddr) -> AccessPlan;

    /// Functional-warm-up counterpart of [`access`](Self::access): the
    /// same state transitions (tags, replacement, MissMap, predictor,
    /// statistics) with no plan built, for records whose DRAM timing is
    /// not simulated.
    fn warm_access(&mut self, req: MemAccess);

    /// Functional-warm-up counterpart of [`writeback`](Self::writeback).
    fn warm_writeback(&mut self, addr: PhysAddr);

    /// Accumulated statistics.
    fn stats(&self) -> &DramCacheStats;

    /// The SRAM structures this design requires (Table 4).
    fn storage(&self) -> Vec<StorageItem>;

    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Footprint-prediction counters, for designs that predict (only
    /// Footprint Cache). Defaults to `None`.
    fn prediction_counters(&self) -> Option<PredictionCounters> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_matches_table4_points() {
        const MB: u64 = 1 << 20;
        // Footprint Cache row of Table 4.
        assert_eq!(sram_latency_cycles((0.40 * MB as f64) as u64), 4);
        assert_eq!(sram_latency_cycles((0.80 * MB as f64) as u64), 6);
        assert_eq!(sram_latency_cycles((1.58 * MB as f64) as u64), 9);
        assert_eq!(sram_latency_cycles((3.12 * MB as f64) as u64), 11);
        // Page-based row.
        assert_eq!(sram_latency_cycles((0.22 * MB as f64) as u64), 4);
        assert_eq!(sram_latency_cycles((0.44 * MB as f64) as u64), 5);
        assert_eq!(sram_latency_cycles((0.86 * MB as f64) as u64), 6);
        assert_eq!(sram_latency_cycles((1.69 * MB as f64) as u64), 9);
        // MissMap row.
        assert_eq!(sram_latency_cycles((1.95 * MB as f64) as u64), 9);
        assert_eq!(sram_latency_cycles((2.92 * MB as f64) as u64), 11);
    }

    #[test]
    fn density_histogram_bins() {
        let mut h = DensityHistogram::default();
        for d in [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 40, 0] {
            h.record(d);
        }
        assert_eq!(h.bins(), [1, 2, 2, 2, 2, 2]);
        assert_eq!(h.total(), 11);
        let f = h.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boxed_model_clone_preserves_state() {
        use crate::SubBlockCache;
        use fc_types::{PageGeometry, Pc};

        let read = |addr: u64| MemAccess::read(Pc::new(0x400), PhysAddr::new(addr), 0);
        let mut model: BoxedModel = Box::new(SubBlockCache::new(1 << 20, PageGeometry::new(2048)));
        for i in 0..50u64 {
            model.access(read(i * 0x1000));
        }
        let snapshot = model.clone();
        assert_eq!(snapshot.stats(), model.stats());
        model.access(read(0x990000));
        assert_ne!(snapshot.stats().accesses, model.stats().accesses);
    }

    #[test]
    fn ratios_guard_division_by_zero() {
        let s = DramCacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
    }
}
