//! Ready-made DRAM system configurations matching Table 3.

use serde::{Deserialize, Serialize};

use crate::energy::EnergyParams;
use crate::mapping::AddressMapping;
use crate::timing::{DramTimings, RowPolicy};

/// Complete configuration of one [`DramSystem`](crate::DramSystem).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Device timing parameters.
    pub timings: DramTimings,
    /// Address interleaving scheme (also fixes channel/bank counts).
    pub mapping: AddressMapping,
    /// Row-buffer management policy.
    pub policy: RowPolicy,
    /// Per-channel request-queue depth: outstanding requests a channel
    /// accepts before admission stalls (the memory controller's
    /// per-channel queue). Deep enough to expose bank parallelism,
    /// shallow enough that loaded channels exhibit queueing delay.
    pub queue_depth: u32,
    /// Per-operation energy constants.
    pub energy: EnergyParams,
}

impl DramConfig {
    /// Off-chip memory of one pod (Table 3): a single DDR3-1600 channel,
    /// 8 banks, 2 KB row buffer. Default scheme is the block-design choice
    /// (Section 5.2): closed-page with 64-byte interleaving across banks.
    pub fn off_chip_ddr3_1600() -> Self {
        Self {
            timings: DramTimings::ddr3_1600(),
            mapping: AddressMapping::BlockInterleave {
                channel_bits: 0,
                bank_bits: 3,
            },
            policy: RowPolicy::Closed,
            queue_depth: 8,
            energy: EnergyParams::off_chip_ddr3(),
        }
    }

    /// Off-chip memory configured the way the page-based and Footprint
    /// designs use it (Section 5.2): open-page policy, 2 KB interleaving,
    /// so one page's footprint is fetched with a single row activation.
    pub fn off_chip_open_row() -> Self {
        Self {
            timings: DramTimings::ddr3_1600(),
            mapping: AddressMapping::RowInterleave {
                channel_bits: 0,
                bank_bits: 3,
                row_shift: 11,
            },
            policy: RowPolicy::Open,
            queue_depth: 8,
            energy: EnergyParams::off_chip_ddr3(),
        }
    }

    /// Die-stacked DRAM of one pod (Table 3): four DDR3-3200 channels,
    /// 8 banks per rank, 2 KB row buffer, 128-bit bus, open-page policy
    /// with 2 KB channel interleaving (page/Footprint designs).
    pub fn stacked_ddr3_3200() -> Self {
        Self {
            timings: DramTimings::ddr3_3200_stacked(),
            mapping: AddressMapping::RowInterleave {
                channel_bits: 2,
                bank_bits: 3,
                row_shift: 11,
            },
            policy: RowPolicy::Open,
            queue_depth: 16,
            energy: EnergyParams::stacked_ddr3(),
        }
    }

    /// Die-stacked DRAM configured for the block-based design
    /// (Section 5.2): closed-page policy. The cache addresses the stack by
    /// set-row (one 2 KB row per set), so row interleaving of those
    /// addresses spreads consecutive physical blocks — which land in
    /// consecutive sets — across channels, realizing the paper's 64-byte
    /// channel interleave.
    pub fn stacked_for_block_design() -> Self {
        Self {
            timings: DramTimings::ddr3_3200_stacked(),
            mapping: AddressMapping::RowInterleave {
                channel_bits: 2,
                bank_bits: 3,
                row_shift: 11,
            },
            policy: RowPolicy::Closed,
            queue_depth: 16,
            energy: EnergyParams::stacked_ddr3(),
        }
    }

    /// Bytes of consecutive address space per DRAM row under this
    /// configuration's mapping (see [`AddressMapping::row_bytes`]).
    pub fn row_bytes(&self) -> u64 {
        self.mapping.row_bytes()
    }

    /// Replaces the timing parameters (builder-style).
    pub fn with_timings(mut self, timings: DramTimings) -> Self {
        self.timings = timings;
        self
    }

    /// Replaces the row policy (builder-style).
    pub fn with_policy(mut self, policy: RowPolicy) -> Self {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_geometry() {
        let off = DramConfig::off_chip_ddr3_1600();
        assert_eq!(off.mapping.channels(), 1);
        assert_eq!(off.mapping.banks(), 8);

        let stk = DramConfig::stacked_ddr3_3200();
        assert_eq!(stk.mapping.channels(), 4);
        assert_eq!(stk.mapping.banks(), 8);
        assert_eq!(stk.policy, RowPolicy::Open);
    }

    #[test]
    fn builders_replace_fields() {
        let c = DramConfig::stacked_ddr3_3200()
            .with_policy(RowPolicy::Closed)
            .with_timings(DramTimings::ddr3_3200_stacked().halved_latency());
        assert_eq!(c.policy, RowPolicy::Closed);
        assert_eq!(c.timings.t_cas, 6);
    }
}
