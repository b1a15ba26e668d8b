//! DDR3 timing parameters and their conversion to core cycles.

use serde::{Deserialize, Serialize};

/// Core clock frequency in GHz (Table 3: 3 GHz).
pub const CORE_GHZ: f64 = 3.0;

/// Row-buffer management policy (Section 5.2).
///
/// The paper selects the policy per design: open-page for page-based and
/// Footprint Cache (near-optimal fill/eviction locality), closed-page for
/// the block-based design (no exploitable locality).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowPolicy {
    /// Leave the row open after an access; the next access to the same row
    /// is a row-buffer hit (CAS only).
    Open,
    /// Auto-precharge after every access; every access pays ACT + CAS.
    Closed,
}

/// DDR3 device timing parameters, expressed in *device clock* cycles at
/// `clock_ghz` (the paper's Table 3 convention: the stacked DDR3-3200 parts
/// are specified at a 1.6 GHz bus clock).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DramTimings {
    /// Device (bus) clock in GHz. DDR transfers two beats per clock.
    pub clock_ghz: f64,
    /// CAS latency: column command to first data.
    pub t_cas: u32,
    /// RAS-to-CAS delay: activate to column command.
    pub t_rcd: u32,
    /// Row precharge time.
    pub t_rp: u32,
    /// Activate to precharge minimum.
    pub t_ras: u32,
    /// Activate to activate on the same bank (row cycle).
    pub t_rc: u32,
    /// Write recovery time after the last write data beat.
    pub t_wr: u32,
    /// Write-to-read turnaround.
    pub t_wtr: u32,
    /// Read-to-precharge delay.
    pub t_rtp: u32,
    /// Activate-to-activate across banks of one rank.
    pub t_rrd: u32,
    /// Four-activate window per rank.
    pub t_faw: u32,
    /// Data bus cycles to transfer one 64-byte block on this bus width.
    pub t_burst: u32,
}

impl DramTimings {
    /// Off-chip DDR3-1600 (Table 3): 0.8 GHz bus clock, 11-11-11-28 primary
    /// timings, 64-bit bus (a 64-byte block takes 8 beats = 4 bus cycles).
    pub fn ddr3_1600() -> Self {
        Self {
            clock_ghz: 0.8,
            t_cas: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rc: 39,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_rrd: 5,
            t_faw: 24,
            t_burst: 4,
        }
    }

    /// Die-stacked DDR3-3200 (Table 3): 1.6 GHz bus clock, timings
    /// 11-11-11-28 / 39-12-6-6 / 5-24, 128-bit bus (a 64-byte block takes
    /// 4 beats = 2 bus cycles).
    pub fn ddr3_3200_stacked() -> Self {
        Self {
            clock_ghz: 1.6,
            t_cas: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rc: 39,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_rrd: 5,
            t_faw: 24,
            t_burst: 2,
        }
    }

    /// A variant with halved access latencies, used for the Figure 1
    /// "High-BW & Low-Latency" opportunity study ("halved DRAM latency
    /// \[24\]").
    pub fn halved_latency(mut self) -> Self {
        self.t_cas = self.t_cas.div_ceil(2);
        self.t_rcd = self.t_rcd.div_ceil(2);
        self.t_rp = self.t_rp.div_ceil(2);
        self.t_ras = self.t_ras.div_ceil(2);
        self.t_rc = self.t_rc.div_ceil(2);
        self
    }

    /// Converts all parameters into integer **core cycles** at
    /// [`CORE_GHZ`].
    pub fn to_core_cycles(&self) -> CoreCycleTimings {
        let scale = CORE_GHZ / self.clock_ghz;
        let c = |device_cycles: u32| -> u64 { (device_cycles as f64 * scale).round() as u64 };
        CoreCycleTimings {
            t_cas: c(self.t_cas),
            t_rcd: c(self.t_rcd),
            t_rp: c(self.t_rp),
            t_ras: c(self.t_ras),
            t_rc: c(self.t_rc),
            t_wr: c(self.t_wr),
            t_wtr: c(self.t_wtr),
            t_rtp: c(self.t_rtp),
            t_rrd: c(self.t_rrd),
            t_faw: c(self.t_faw),
            t_burst: c(self.t_burst),
        }
    }

    /// Peak data bandwidth of one channel in GB/s (sanity aid: DDR3-1600
    /// x64 is 12.8 GB/s; the stacked DDR3-3200 x128 channel is 51.2 GB/s).
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        // One block of 64 bytes every t_burst device cycles.
        64.0 * self.clock_ghz / self.t_burst as f64
    }
}

/// [`DramTimings`] converted to integer core cycles at 3 GHz.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreCycleTimings {
    /// CAS latency.
    pub t_cas: u64,
    /// Activate-to-CAS delay.
    pub t_rcd: u64,
    /// Precharge time.
    pub t_rp: u64,
    /// Activate-to-precharge minimum.
    pub t_ras: u64,
    /// Row cycle time.
    pub t_rc: u64,
    /// Write recovery.
    pub t_wr: u64,
    /// Write-to-read turnaround.
    pub t_wtr: u64,
    /// Read-to-precharge delay.
    pub t_rtp: u64,
    /// Activate-to-activate, different banks.
    pub t_rrd: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Data-bus time per 64-byte block.
    pub t_burst: u64,
}

impl CoreCycleTimings {
    /// Latency of a row-buffer hit read: CAS + burst.
    pub fn hit_read(&self) -> u64 {
        self.t_cas + self.t_burst
    }

    /// Latency of a row-buffer miss read on an idle, precharged bank:
    /// ACT + CAS + burst.
    pub fn miss_read(&self) -> u64 {
        self.t_rcd + self.t_cas + self.t_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offchip_peak_bandwidth_is_12_8() {
        let t = DramTimings::ddr3_1600();
        assert!((t.peak_bandwidth_gbs() - 12.8).abs() < 1e-9);
    }

    #[test]
    fn stacked_peak_bandwidth_is_51_2() {
        let t = DramTimings::ddr3_3200_stacked();
        assert!((t.peak_bandwidth_gbs() - 51.2).abs() < 1e-9);
    }

    #[test]
    fn core_cycle_conversion_scales() {
        // Off-chip: 0.8 GHz device clock -> 3.75 core cycles per device cycle.
        let t = DramTimings::ddr3_1600().to_core_cycles();
        assert_eq!(t.t_cas, 41); // 11 * 3.75 = 41.25 -> 41
        assert_eq!(t.t_burst, 15); // 4 * 3.75

        // Stacked: 1.6 GHz -> 1.875x.
        let s = DramTimings::ddr3_3200_stacked().to_core_cycles();
        assert_eq!(s.t_cas, 21); // 11 * 1.875 = 20.625 -> 21
        assert_eq!(s.t_burst, 4); // 2 * 1.875 = 3.75 -> 4
    }

    #[test]
    fn stacked_latency_lower_than_offchip() {
        let off = DramTimings::ddr3_1600().to_core_cycles();
        let stk = DramTimings::ddr3_3200_stacked().to_core_cycles();
        assert!(stk.miss_read() < off.miss_read());
        assert!(stk.hit_read() < off.hit_read());
    }

    #[test]
    fn halved_latency_halves_primary_timings() {
        let h = DramTimings::ddr3_3200_stacked().halved_latency();
        assert_eq!(h.t_cas, 6);
        assert_eq!(h.t_rcd, 6);
        assert_eq!(h.t_rc, 20);
        // Bandwidth unchanged.
        assert_eq!(h.t_burst, 2);
    }
}
