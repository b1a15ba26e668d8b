//! Run sizing: how much simulated work each sweep point performs.

use serde::{Deserialize, Serialize};

/// How much simulated work each run performs. Warmup and measurement
/// budgets grow with the design's stacked capacity, mirroring the
/// paper's use of half of each trace for warm-up (Section 5.4) — larger
/// caches need longer residency before evictions reach steady state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RunScale {
    /// Warmup records per run for a 64 MB-class design (scaled up with
    /// capacity; the paper uses half of each trace for warmup).
    pub warmup_base: u64,
    /// Extra warmup records per MB of cache capacity.
    pub warmup_per_mb: u64,
    /// Measured records base.
    pub measured_base: u64,
    /// Extra measured records per MB.
    pub measured_per_mb: u64,
}

impl RunScale {
    /// Run-sizing capacity (in MB) for capacity-independent designs
    /// (baseline, ideal): the smallest capacity the paper evaluates, so
    /// sweeps give those designs run lengths comparable with the
    /// smallest cached configuration instead of an arbitrary budget.
    /// This is a *sizing* default only — it never reaches the designs
    /// themselves (they have no capacity to configure).
    pub const COMPARABLE_CAPACITY_MB: u64 = 64;

    /// The capacity used for run sizing: the design's own capacity, or
    /// [`COMPARABLE_CAPACITY_MB`](Self::COMPARABLE_CAPACITY_MB) for
    /// capacity-independent designs.
    pub fn sizing_capacity(capacity_mb: Option<u64>) -> u64 {
        capacity_mb.unwrap_or(Self::COMPARABLE_CAPACITY_MB)
    }

    /// The scale called `name` (`quick`, `full`, `tiny` or `long`).
    pub fn named(name: &str) -> Result<Self, String> {
        match name {
            "quick" => Ok(Self::quick()),
            "full" => Ok(Self::full()),
            "tiny" => Ok(Self::tiny()),
            "long" => Ok(Self::long()),
            other => Err(format!("unknown scale `{other}`")),
        }
    }

    /// The scale used for the checked-in experiment outputs.
    pub fn full() -> Self {
        Self {
            warmup_base: 1_500_000,
            warmup_per_mb: 15_000,
            measured_base: 1_000_000,
            measured_per_mb: 6_000,
        }
    }

    /// A fast scale for smoke tests (about 20x cheaper).
    pub fn quick() -> Self {
        Self {
            warmup_base: 100_000,
            warmup_per_mb: 600,
            measured_base: 80_000,
            measured_per_mb: 300,
        }
    }

    /// The long-trace scale sampled simulation exists for: traces many
    /// times longer than the capacity-scaled warm windows, so the
    /// sampled executor's fixed warming cost amortizes and full
    /// detailed replay is what actually hurts. `fc_sweep --grid
    /// sampled` defaults to this scale; running it *unsampled* is the
    /// honest speedup baseline.
    pub fn long() -> Self {
        Self {
            warmup_base: 200_000,
            warmup_per_mb: 25_000,
            measured_base: 2_000_000,
            measured_per_mb: 250_000,
        }
    }

    /// A minimal scale for unit tests: fixed-size runs, no capacity
    /// scaling — large enough to exercise every pipeline stage, small
    /// enough to run whole grids in milliseconds.
    pub fn tiny() -> Self {
        Self {
            warmup_base: 2_000,
            warmup_per_mb: 0,
            measured_base: 2_000,
            measured_per_mb: 0,
        }
    }

    /// Warmup records for a design of `capacity_mb`.
    pub fn warmup(&self, capacity_mb: u64) -> u64 {
        self.warmup_base + self.warmup_per_mb * capacity_mb
    }

    /// Measured records for a design of `capacity_mb`.
    pub fn measured(&self, capacity_mb: u64) -> u64 {
        self.measured_base + self.measured_per_mb * capacity_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_grow_with_capacity() {
        let s = RunScale::full();
        assert!(s.warmup(512) > s.warmup(64));
        assert!(s.measured(512) > s.measured(64));
    }

    #[test]
    fn tiny_is_capacity_independent() {
        let s = RunScale::tiny();
        assert_eq!(s.warmup(64), s.warmup(512));
        assert_eq!(s.measured(64), s.measured(512));
    }

    #[test]
    fn sizing_defaults_capacity_less_designs_to_the_smallest_evaluated() {
        assert_eq!(RunScale::sizing_capacity(None), 64);
        assert_eq!(RunScale::sizing_capacity(Some(256)), 256);
    }
}
