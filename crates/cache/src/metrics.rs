//! Predictor quality metrics (Section 3.1 / Figure 8).
//!
//! At every page eviction the cache compares the footprint it *fetched*
//! (the prediction) with the footprint the cores *demanded*:
//!
//! * **covered** — predicted and demanded: useful prefetches;
//! * **overpredictions** — fetched but never demanded: wasted off-chip
//!   and TSV bandwidth and energy;
//! * **underpredictions** — demanded but not fetched: each cost an extra
//!   miss at full off-chip latency.

use serde::{Deserialize, Serialize};

/// Raw footprint-prediction counters, exposed through the design trait
/// so the simulator can report Figure 8 without depending on the
/// concrete Footprint Cache type. The field names are the report and
/// store JSON names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictionCounters {
    /// Blocks predicted and demanded.
    pub covered: u64,
    /// Blocks fetched but never demanded before eviction.
    pub overpredicted: u64,
    /// Blocks demanded but not in the prediction (each produced a miss).
    pub underpredicted: u64,
    /// Pages bypassed by the singleton optimization.
    pub singleton_bypasses: u64,
    /// Singleton pages promoted to full allocations by a second access.
    pub singleton_promotions: u64,
}

impl PredictionCounters {
    /// Total demanded blocks among evicted pages.
    pub fn demanded_blocks(&self) -> u64 {
        self.covered + self.underpredicted
    }

    /// Fraction of demanded blocks successfully predicted (Figure 8's
    /// "Covered" component).
    pub fn coverage(&self) -> f64 {
        let d = self.demanded_blocks();
        if d == 0 {
            0.0
        } else {
            self.covered as f64 / d as f64
        }
    }

    /// Underpredicted fraction of demanded blocks.
    pub fn underprediction_rate(&self) -> f64 {
        let d = self.demanded_blocks();
        if d == 0 {
            0.0
        } else {
            self.underpredicted as f64 / d as f64
        }
    }

    /// Overpredicted blocks relative to demanded blocks (can exceed 1.0;
    /// Figure 8 stacks it above 100%).
    pub fn overprediction_rate(&self) -> f64 {
        let d = self.demanded_blocks();
        if d == 0 {
            0.0
        } else {
            self.overpredicted as f64 / d as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_sum_sensibly() {
        let m = PredictionCounters {
            covered: 80,
            overpredicted: 10,
            underpredicted: 20,
            singleton_bypasses: 0,
            singleton_promotions: 0,
        };
        assert_eq!(m.demanded_blocks(), 100);
        assert!((m.coverage() - 0.8).abs() < 1e-12);
        assert!((m.underprediction_rate() - 0.2).abs() < 1e-12);
        assert!((m.overprediction_rate() - 0.1).abs() < 1e-12);
        assert!((m.coverage() + m.underprediction_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = PredictionCounters::default();
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.overprediction_rate(), 0.0);
    }
}
