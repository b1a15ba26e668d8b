//! Run sizing: how much simulated work each sweep point performs.

use fc_sim::DesignSpec;
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
    /// (baseline, ideal) that share a grid with no cached design — a
    /// lone [`SweepSpec::point`](crate::SweepSpec::point), a `Lab::run`
    /// read, a capacity-less grid: the smallest capacity the paper
    /// evaluates. In a grid with cached designs they are sized by the
    /// smallest of those instead ([`comparable_capacity`](Self::comparable_capacity)),
    /// so they replay the same records as the cached configurations
    /// they are compared with. This is a *sizing* capacity only — it
    /// never reaches the designs themselves (they have no capacity to
    /// configure).
    pub const COMPARABLE_CAPACITY_MB: u64 = 64;

    /// The capacity a grid of `designs` sizes its capacity-independent
    /// designs by: the smallest capacity among `designs`, or
    /// [`COMPARABLE_CAPACITY_MB`](Self::COMPARABLE_CAPACITY_MB) when
    /// none has one.
    pub fn comparable_capacity(designs: &[DesignSpec]) -> u64 {
        designs
            .iter()
            .filter_map(DesignSpec::capacity_mb)
            .min()
            .unwrap_or(Self::COMPARABLE_CAPACITY_MB)
    }

    /// The capacity `design`'s run is sized by in a grid whose
    /// [`comparable_capacity`](Self::comparable_capacity) is
    /// `comparable`: the design's own capacity, or `comparable` for a
    /// capacity-independent design.
    pub fn sizing_capacity(design: &DesignSpec, comparable: u64) -> u64 {
        design.capacity_mb().unwrap_or(comparable)
    }

    /// What a point key appends for a run of `design` sized at
    /// `sizing_mb`: nothing where that sizing gives the warm-up and
    /// measured record counts sizing the design alone would (the
    /// design's own spec carries everything else, so such keys stay
    /// as they always were), `|sized {sizing_mb}MB` otherwise.
    pub fn sizing_key(&self, design: &DesignSpec, sizing_mb: u64) -> String {
        let alone = Self::sizing_capacity(design, Self::COMPARABLE_CAPACITY_MB);
        if (self.warmup(sizing_mb), self.measured(sizing_mb))
            == (self.warmup(alone), self.measured(alone))
        {
            String::new()
        } else {
            format!("|sized {sizing_mb}MB")
        }
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
        let grid = [
            DesignSpec::baseline(),
            DesignSpec::page(256),
            DesignSpec::footprint(8),
        ];
        let comparable = RunScale::comparable_capacity(&grid);
        assert_eq!(comparable, 8);
        assert_eq!(RunScale::sizing_capacity(&grid[0], comparable), 8);
        assert_eq!(RunScale::sizing_capacity(&grid[1], comparable), 256);
        let alone = RunScale::comparable_capacity(&[DesignSpec::ideal()]);
        assert_eq!(alone, RunScale::COMPARABLE_CAPACITY_MB);
    }

    #[test]
    fn only_a_sizing_that_moves_the_counts_enters_the_key() {
        let baseline = DesignSpec::baseline();
        assert_eq!(RunScale::tiny().sizing_key(&baseline, 8), "");
        assert_eq!(RunScale::long().sizing_key(&baseline, 64), "");
        assert_eq!(RunScale::long().sizing_key(&baseline, 8), "|sized 8MB");
        // A cached design is sized by its own capacity, which its spec
        // already carries.
        assert_eq!(RunScale::long().sizing_key(&DesignSpec::page(8), 8), "");
    }
}
