//! A multi-channel DRAM system: mapping + channels + energy.

use fc_types::{AccessKind, PhysAddr};
use serde::{Deserialize, Serialize};

use crate::channel::{Channel, ChannelStats, Completion, QueueDelayHist};
use crate::config::DramConfig;
use crate::energy::EnergyBreakdown;

/// Aggregate counters for a whole DRAM system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Accesses served (row hits + row misses).
    pub accesses: u64,
    /// Row activations.
    pub activates: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses.
    pub row_misses: u64,
    /// 64-byte blocks read.
    pub read_blocks: u64,
    /// 64-byte blocks written.
    pub write_blocks: u64,
    /// Compound (tags-in-DRAM) accesses: tag CAS + data CAS pairs, as
    /// issued by the block-based and Alloy designs.
    pub compound_accesses: u64,
    /// Data-bus transfer cycles summed over all channels (aggregate bus
    /// occupancy; see [`bus_utilization`](DramStats::bus_utilization)).
    pub busy_cycles: u64,
    /// Cycles accesses spent queued before bank service, summed.
    pub queue_delay_cycles: u64,
    /// Distribution of per-access queueing delays, merged over channels.
    pub queue_hist: QueueDelayHist,
}

impl DramStats {
    /// Total bytes moved over the data pins.
    pub fn bytes(&self) -> u64 {
        (self.read_blocks + self.write_blocks) * fc_types::BLOCK_SIZE as u64
    }

    /// Row-buffer hit ratio over all accesses (0 if no accesses).
    pub fn row_hit_ratio(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean queueing delay per access in cycles (0 if no accesses).
    pub fn avg_queue_delay(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.queue_delay_cycles as f64 / self.accesses as f64
        }
    }

    /// Mean data-bus utilization over `elapsed` cycles and `channels`
    /// channels: the fraction of channel-cycles spent transferring.
    pub fn bus_utilization(&self, elapsed: u64, channels: usize) -> f64 {
        if elapsed == 0 || channels == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (elapsed as f64 * channels as f64)
        }
    }

    /// Adds these counters into the global `fc_obs` metrics registry
    /// under `dram.stacked.*` or `dram.offchip.*`. Called once per
    /// simulated point (not per access), so the registry lock is off
    /// every hot path.
    pub fn publish_metrics(&self, stacked: bool) {
        let names: [(&'static str, u64); 7] = if stacked {
            [
                ("dram.stacked.accesses", self.accesses),
                ("dram.stacked.activates", self.activates),
                ("dram.stacked.row_hits", self.row_hits),
                ("dram.stacked.row_misses", self.row_misses),
                ("dram.stacked.read_blocks", self.read_blocks),
                ("dram.stacked.write_blocks", self.write_blocks),
                ("dram.stacked.queue_delay_cycles", self.queue_delay_cycles),
            ]
        } else {
            [
                ("dram.offchip.accesses", self.accesses),
                ("dram.offchip.activates", self.activates),
                ("dram.offchip.row_hits", self.row_hits),
                ("dram.offchip.row_misses", self.row_misses),
                ("dram.offchip.read_blocks", self.read_blocks),
                ("dram.offchip.write_blocks", self.write_blocks),
                ("dram.offchip.queue_delay_cycles", self.queue_delay_cycles),
            ]
        };
        for (name, value) in names {
            fc_obs::metrics::counter(name).add(value);
        }
    }

    /// Counter deltas since an earlier snapshot of the same system
    /// (every counter is monotone, so field-wise subtraction is exact).
    /// The single diffing implementation behind `SimReport` snapshots
    /// and the loaded-latency driver.
    pub fn delta_since(&self, since: &DramStats) -> DramStats {
        let mut bins = self.queue_hist.bins();
        for (a, b) in bins.iter_mut().zip(since.queue_hist.bins()) {
            *a -= b;
        }
        DramStats {
            accesses: self.accesses - since.accesses,
            activates: self.activates - since.activates,
            row_hits: self.row_hits - since.row_hits,
            row_misses: self.row_misses - since.row_misses,
            read_blocks: self.read_blocks - since.read_blocks,
            write_blocks: self.write_blocks - since.write_blocks,
            compound_accesses: self.compound_accesses - since.compound_accesses,
            busy_cycles: self.busy_cycles - since.busy_cycles,
            queue_delay_cycles: self.queue_delay_cycles - since.queue_delay_cycles,
            queue_hist: QueueDelayHist::from_bins(bins),
        }
    }
}

impl std::ops::AddAssign for DramStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accesses += rhs.accesses;
        self.activates += rhs.activates;
        self.row_hits += rhs.row_hits;
        self.row_misses += rhs.row_misses;
        self.read_blocks += rhs.read_blocks;
        self.write_blocks += rhs.write_blocks;
        self.compound_accesses += rhs.compound_accesses;
        self.busy_cycles += rhs.busy_cycles;
        self.queue_delay_cycles += rhs.queue_delay_cycles;
        self.queue_hist += rhs.queue_hist;
    }
}

impl From<ChannelStats> for DramStats {
    fn from(c: ChannelStats) -> Self {
        Self {
            accesses: c.accesses,
            activates: c.activates,
            row_hits: c.row_hits,
            row_misses: c.row_misses,
            read_blocks: c.read_blocks,
            write_blocks: c.write_blocks,
            compound_accesses: c.compound_accesses,
            busy_cycles: c.busy_cycles,
            queue_delay_cycles: c.queue_delay_cycles,
            queue_hist: c.queue_hist,
        }
    }
}

/// A complete DRAM system (one pod's off-chip memory, or its die-stacked
/// cache array), composed of channels selected by the configured address
/// mapping.
///
/// # Examples
///
/// ```
/// use fc_dram::{DramConfig, DramSystem};
/// use fc_types::{AccessKind, PhysAddr};
///
/// let mut stacked = DramSystem::new(DramConfig::stacked_ddr3_3200());
/// // Fill a whole 2 KB page: one activation, 32 streamed bursts.
/// let c = stacked.access(PhysAddr::new(0x10000), AccessKind::Write, 32, 0);
/// assert!(c.done > c.data_ready);
/// assert_eq!(stacked.stats().activates, 1);
/// ```
#[derive(Clone, Debug)]
pub struct DramSystem {
    config: DramConfig,
    channels: Vec<Channel>,
}

impl DramSystem {
    /// Builds the system described by `config`.
    pub fn new(config: DramConfig) -> Self {
        let t = config.timings.to_core_cycles();
        let channels = (0..config.mapping.channels())
            .map(|_| {
                Channel::new(
                    t,
                    config.policy,
                    config.mapping.banks(),
                    config.queue_depth as usize,
                )
            })
            .collect();
        Self { config, channels }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Quiesces every channel's timing state (open rows, bank/bus
    /// reservations, activation windows, request queues) while keeping
    /// all counters. See [`Channel::quiesce`].
    pub fn quiesce(&mut self) {
        for channel in &mut self.channels {
            channel.quiesce();
        }
    }

    /// Accesses `blocks` consecutive 64-byte blocks starting at `addr`,
    /// arriving at cycle `at`. All blocks must fall within one DRAM row;
    /// this holds by construction for row-interleaved mappings when the
    /// caller transfers at most one page (= one row), and for single-block
    /// transfers always.
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind, blocks: u32, at: u64) -> Completion {
        let loc = self.config.mapping.map(addr);
        self.channels[loc.channel].access(loc.bank, loc.row, kind, blocks, at)
    }

    /// Tags-in-DRAM compound access (Loh & Hill \[24\]): like [`access`], but
    /// a tag-read CAS precedes the data CAS on the critical path and a tag
    /// update burst follows off it. Used by the block-based design for its
    /// stacked-DRAM hits and fills.
    ///
    /// [`access`]: DramSystem::access
    pub fn access_compound(
        &mut self,
        addr: PhysAddr,
        kind: AccessKind,
        blocks: u32,
        at: u64,
    ) -> Completion {
        let loc = self.config.mapping.map(addr);
        self.channels[loc.channel].access_compound(loc.bank, loc.row, kind, blocks, at)
    }

    /// Aggregate counters over all channels.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for ch in &self.channels {
            s += DramStats::from(ch.stats());
        }
        s
    }

    /// Per-channel counters, in channel order (utilization-imbalance
    /// inspection, conservation tests).
    pub fn per_channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats()).collect()
    }

    /// Dynamic energy consumed so far, split as in Figures 10/11.
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy_of(&self.stats())
    }

    /// Dynamic energy of the operations counted in `stats`, such as one
    /// measurement window's [delta](DramStats::delta_since). Computed
    /// from the counts, so a window's energy does not depend on what
    /// ran before it.
    pub fn energy_of(&self, stats: &DramStats) -> EnergyBreakdown {
        EnergyBreakdown::from_counts(
            &self.config.energy,
            stats.activates,
            stats.read_blocks,
            stats.write_blocks,
        )
    }

    /// Publishes each channel's `detailed-stats` timeline under
    /// `{prefix}.ch{i}.*` (a no-op in default builds, where the
    /// timelines are empty).
    pub fn publish_timelines(&self, prefix: &str) {
        for (i, ch) in self.channels.iter().enumerate() {
            ch.timeline().publish(&format!("{prefix}.ch{i}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::BLOCK_SIZE;

    #[test]
    fn stats_aggregate_across_channels() {
        let mut sys = DramSystem::new(DramConfig::stacked_ddr3_3200());
        // Two pages that map to different channels (2 KB interleave).
        sys.access(PhysAddr::new(0), AccessKind::Read, 1, 0);
        sys.access(PhysAddr::new(2048), AccessKind::Write, 2, 0);
        let s = sys.stats();
        assert_eq!(s.read_blocks, 1);
        assert_eq!(s.write_blocks, 2);
        assert_eq!(s.bytes(), 3 * BLOCK_SIZE as u64);
        assert_eq!(s.activates, 2);
    }

    #[test]
    fn energy_tracks_counts() {
        let mut sys = DramSystem::new(DramConfig::off_chip_ddr3_1600());
        sys.access(PhysAddr::new(0x8000), AccessKind::Read, 1, 0);
        let e = sys.energy();
        let p = sys.config().energy;
        assert_eq!(e.act_pre_nj, p.act_pre_nj);
        assert_eq!(e.burst_nj, p.read_block_nj);
    }

    #[test]
    fn page_fill_uses_one_activation_under_row_interleave() {
        let mut sys = DramSystem::new(DramConfig::off_chip_open_row());
        // Fetch a 12-block footprint out of one 2 KB page.
        sys.access(PhysAddr::new(0x4000), AccessKind::Read, 12, 0);
        assert_eq!(sys.stats().activates, 1);
        assert_eq!(sys.stats().read_blocks, 12);
    }

    #[test]
    fn merged_channel_stats_conserve_traffic() {
        // Merging per-channel stats with AddAssign must equal the
        // system aggregate, and blocks transferred must partition into
        // read_blocks + write_blocks exactly.
        let mut sys = DramSystem::new(DramConfig::stacked_ddr3_3200());
        for i in 0..64u64 {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            sys.access(PhysAddr::new(i * 2048), kind, (i % 7 + 1) as u32, i * 10);
        }
        let mut merged = DramStats::default();
        for c in sys.per_channel_stats() {
            merged += DramStats::from(c);
        }
        let total = sys.stats();
        assert_eq!(merged, total);
        assert_eq!(
            merged.bytes(),
            (merged.read_blocks + merged.write_blocks) * BLOCK_SIZE as u64,
            "transferred bytes must equal read + write blocks"
        );
        assert_eq!(merged.accesses, merged.row_hits + merged.row_misses);
        assert_eq!(merged.queue_hist.samples(), merged.accesses);
    }

    #[test]
    fn independent_channels_overlap_in_time() {
        let mut sys = DramSystem::new(DramConfig::stacked_ddr3_3200());
        let c0 = sys.access(PhysAddr::new(0), AccessKind::Read, 32, 0);
        let c1 = sys.access(PhysAddr::new(2048), AccessKind::Read, 32, 0);
        // Same arrival, different channels: both start immediately, so the
        // second is not serialized behind the first's 32-block burst.
        assert!(c1.data_ready < c0.done);
    }
}
