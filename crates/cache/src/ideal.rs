//! The two ends of the design space: the *Ideal* cache (never misses, no
//! tag overhead — effectively die-stacked main memory, the upper bound in
//! Figures 6 and 7) and *NoCache* (the baseline system without a
//! die-stacked cache, the normalization point of every figure).

use fc_types::{MemAccess, PhysAddr};

use crate::design::{DramCacheModel, DramCacheStats, StorageItem};
use crate::plan::{AccessPlan, BlockCounts, MemOp, MemTarget, OpSink};

/// A cache that always hits with zero tag latency: the "Ideal" series of
/// Figures 6/7 (a die-stacked main memory).
///
/// # Examples
///
/// ```
/// use fc_cache::{DramCacheModel, IdealCache};
/// use fc_types::{MemAccess, PhysAddr, Pc};
///
/// let mut ideal = IdealCache::new();
/// let plan = ideal.access(MemAccess::read(Pc::new(1), PhysAddr::new(0x1000), 0));
/// assert!(plan.hit);
/// assert_eq!(plan.offchip_read_blocks(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IdealCache {
    stats: DramCacheStats,
}

impl IdealCache {
    /// Creates an ideal cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The demand-access transition, for either sink.
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        self.stats.hits += 1;
        sink.mark_hit();
        sink.critical(MemOp::read(MemTarget::Stacked, req.addr.block().base(), 1));
    }

    /// The L2-writeback transition, for either sink.
    fn writeback_into(&mut self, addr: PhysAddr, sink: &mut impl OpSink) {
        sink.mark_hit();
        sink.background(MemOp::write(MemTarget::Stacked, addr.block().base(), 1));
    }
}

impl DramCacheModel for IdealCache {
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
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Ideal"
    }
}

/// The baseline system: no die-stacked cache, every L2 miss goes off-chip.
///
/// # Examples
///
/// ```
/// use fc_cache::{DramCacheModel, NoCache};
/// use fc_types::{MemAccess, PhysAddr, Pc};
///
/// let mut base = NoCache::new();
/// let plan = base.access(MemAccess::read(Pc::new(1), PhysAddr::new(0x1000), 0));
/// assert!(!plan.hit);
/// assert_eq!(plan.offchip_read_blocks(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NoCache {
    stats: DramCacheStats,
}

impl NoCache {
    /// Creates the baseline memory path.
    pub fn new() -> Self {
        Self::default()
    }

    /// The demand-access transition, for either sink.
    fn access_into(&mut self, req: MemAccess, sink: &mut impl OpSink) {
        self.stats.accesses += 1;
        self.stats.misses += 1;
        sink.critical(MemOp::read(MemTarget::OffChip, req.addr.block().base(), 1));
    }

    /// The L2-writeback transition, for either sink.
    fn writeback_into(&mut self, addr: PhysAddr, sink: &mut impl OpSink) {
        sink.background(MemOp::write(MemTarget::OffChip, addr.block().base(), 1));
    }
}

impl DramCacheModel for NoCache {
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
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::Pc;

    #[test]
    fn ideal_never_misses() {
        let mut c = IdealCache::new();
        for i in 0..100u64 {
            let plan = c.access(MemAccess::read(Pc::new(1), PhysAddr::new(i * 64), 0));
            assert!(plan.hit);
        }
        assert_eq!(c.stats().miss_ratio(), 0.0);
        assert_eq!(c.stats().offchip_read_blocks, 0);
        assert!(c.storage().is_empty());
    }

    #[test]
    fn baseline_never_hits() {
        let mut c = NoCache::new();
        for i in 0..100u64 {
            let plan = c.access(MemAccess::read(Pc::new(1), PhysAddr::new(i * 64), 0));
            assert!(!plan.hit);
        }
        assert_eq!(c.stats().miss_ratio(), 1.0);
        assert_eq!(c.stats().offchip_read_blocks, 100);
    }

    #[test]
    fn baseline_writebacks_go_off_chip() {
        let mut c = NoCache::new();
        c.writeback(PhysAddr::new(0x40));
        assert_eq!(c.stats().offchip_write_blocks, 1);
    }

    #[test]
    fn ideal_writebacks_stay_on_chip() {
        let mut c = IdealCache::new();
        c.writeback(PhysAddr::new(0x40));
        assert_eq!(c.stats().offchip_write_blocks, 0);
        assert_eq!(c.stats().stacked_write_blocks, 1);
    }
}
