//! The memory system: a DRAM cache design plus the stacked and off-chip
//! DRAM timing models, glued together by the plan executor behind an
//! MSHR-style outstanding-request window.

use fc_cache::{AccessPlan, BoxedModel, DramCacheModel, MemOp, MemTarget, OpFlavor};
use fc_dram::{BoundedQueue, DramConfig, DramStats, DramSystem, EnergyBreakdown};
use fc_types::{MemAccess, PhysAddr, BLOCK_SIZE};

/// The MSHR-style outstanding-request window shared by every requester
/// below the L2: demand accesses, fills, and writebacks each occupy one
/// entry from acceptance until their last DRAM operation completes.
/// Admission rides on [`BoundedQueue`] — the same max-plus FIFO-release
/// recurrence the channel request queues use — with stall accounting on
/// top, so completion times stay exactly monotone in arrival times.
#[derive(Clone, Debug)]
struct RequestWindow {
    queue: BoundedQueue,
    stall_cycles: u64,
    admissions: u64,
}

impl RequestWindow {
    fn new(capacity: usize) -> Self {
        Self {
            queue: BoundedQueue::new(capacity),
            stall_cycles: 0,
            admissions: 0,
        }
    }

    /// Admits a request arriving at `at`; returns when it may start.
    fn admit(&mut self, at: u64) -> u64 {
        self.admissions += 1;
        let start = self.queue.admit(at);
        self.stall_cycles += start - at;
        start
    }

    /// Records the admitted request's final completion time.
    fn retire(&mut self, done: u64) {
        self.queue.push(done);
    }

    /// Forgets in-flight completions (checkpoint quiescing); the
    /// stall/admission counters are kept.
    fn quiesce(&mut self) {
        self.queue.reset();
    }
}

/// Per-interval memory-system time series, compiled in only with
/// `detailed-stats`: the DRAM-cache hit ratio and the
/// outstanding-window occupancy, sampled every
/// [`MemsysTimeline::WINDOW`] demand accesses. A zero-cost no-op in
/// default builds.
#[derive(Clone, Debug, Default)]
pub struct MemsysTimeline {
    #[cfg(feature = "detailed-stats")]
    inner: MemsysTimelineInner,
}

#[cfg(feature = "detailed-stats")]
#[derive(Clone, Debug, Default)]
struct MemsysTimelineInner {
    total: u64,
    last_hits: u64,
    last_accesses: u64,
    hit_ratio: fc_obs::TimeSeries,
    occupancy: fc_obs::TimeSeries,
}

impl MemsysTimeline {
    /// Demand accesses per sampling window.
    pub const WINDOW: u64 = 1024;

    /// Records one demand access issued at cycle `at`; `stats` are the
    /// design's cumulative counters and `window` the outstanding-request
    /// window after the access retired into it. The occupancy scan runs
    /// only at a sampling boundary, and only in `detailed-stats` builds.
    #[inline]
    fn tick(&mut self, stats: &fc_cache::DramCacheStats, window: &BoundedQueue, at: u64) {
        #[cfg(feature = "detailed-stats")]
        {
            let inner = &mut self.inner;
            inner.total += 1;
            if inner.total.is_multiple_of(Self::WINDOW) {
                let accesses = stats.accesses - inner.last_accesses;
                let hits = stats.hits - inner.last_hits;
                if accesses > 0 {
                    inner
                        .hit_ratio
                        .push(inner.total, hits as f64 / accesses as f64);
                }
                inner
                    .occupancy
                    .push(inner.total, window.outstanding_at(at) as f64);
                inner.last_accesses = stats.accesses;
                inner.last_hits = stats.hits;
            }
        }
        #[cfg(not(feature = "detailed-stats"))]
        {
            let _ = (stats, window, at);
        }
    }

    /// Publishes the accumulated series under `{prefix}.hit_ratio`
    /// and `{prefix}.window_occupancy` (nothing in default builds).
    pub fn publish(&self, prefix: &str) {
        #[cfg(feature = "detailed-stats")]
        {
            fc_obs::series::publish(format!("{prefix}.hit_ratio"), &self.inner.hit_ratio);
            fc_obs::series::publish(format!("{prefix}.window_occupancy"), &self.inner.occupancy);
        }
        #[cfg(not(feature = "detailed-stats"))]
        {
            let _ = prefix;
        }
    }
}

/// A complete pod memory system below the L2.
#[derive(Clone)]
pub struct MemorySystem {
    /// The design model, dyn-dispatched (one vtable call per access).
    cache: BoxedModel,
    stacked: Option<DramSystem>,
    offchip: DramSystem,
    window: RequestWindow,
    timeline: MemsysTimeline,
}

impl MemorySystem {
    /// Default outstanding-request window capacity: enough for every
    /// core's MSHRs to overlap under light load, small enough that a
    /// saturated pod queues (Table 3's 16 cores x 8 MSHRs halved).
    pub const DEFAULT_WINDOW: usize = 64;

    /// Assembles a memory system. `stacked` is `None` for the baseline
    /// (no die-stacked DRAM). Registry designs arrive boxed from
    /// [`DesignSpec::build`](crate::DesignSpec::build); any other
    /// [`DramCacheModel`] plugs in the same way, as `Box::new(model)`.
    pub fn new(cache: BoxedModel, stacked: Option<DramConfig>, offchip: DramConfig) -> Self {
        Self {
            cache,
            stacked: stacked.map(DramSystem::new),
            offchip: DramSystem::new(offchip),
            window: RequestWindow::new(Self::DEFAULT_WINDOW),
            timeline: MemsysTimeline::default(),
        }
    }

    /// Resizes the outstanding-request window (builder-style).
    pub fn with_window(mut self, capacity: usize) -> Self {
        self.window = RequestWindow::new(capacity);
        self
    }

    /// Cycles requests spent stalled on a full outstanding window.
    pub fn window_stall_cycles(&self) -> u64 {
        self.window.stall_cycles
    }

    /// Requests admitted through the outstanding window.
    pub fn window_admissions(&self) -> u64 {
        self.window.admissions
    }

    /// The cache design.
    pub fn cache(&self) -> &(dyn DramCacheModel + Send + Sync) {
        self.cache.as_ref()
    }

    /// Off-chip DRAM counters.
    pub fn offchip_stats(&self) -> DramStats {
        self.offchip.stats()
    }

    /// Off-chip DRAM dynamic energy of the operations counted in
    /// `stats` (cumulative or one window's delta).
    pub fn offchip_energy(&self, stats: &DramStats) -> EnergyBreakdown {
        self.offchip.energy_of(stats)
    }

    /// Stacked DRAM counters (zeros for the baseline).
    pub fn stacked_stats(&self) -> DramStats {
        self.stacked.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Stacked DRAM dynamic energy of the operations counted in `stats`
    /// (zeros for the baseline).
    pub fn stacked_energy(&self, stats: &DramStats) -> EnergyBreakdown {
        self.stacked
            .as_ref()
            .map(|s| s.energy_of(stats))
            .unwrap_or_default()
    }

    /// A demand access arriving at cycle `at`; returns the cycle the
    /// requested block is available to the L2. The request first claims
    /// an outstanding-window entry (stalling when the window is full),
    /// which it holds until its last DRAM operation — demand, fill, or
    /// eviction traffic — completes.
    pub fn demand_access(&mut self, req: MemAccess, at: u64) -> u64 {
        let plan = self.cache.access(req);
        let start = self.window.admit(at);
        let (ready, done) = self.execute(&plan, start);
        self.window.retire(done);
        self.timeline
            .tick(self.cache.stats(), &self.window.queue, at);
        ready
    }

    /// Functional-warmup demand access: the cache design applies its
    /// full state transition (tags, replacement, predictor, counters)
    /// but no DRAM operation is timed — channels, queues and energy are
    /// untouched. Used by sampled simulation to fast-forward between
    /// detailed intervals while keeping every capacity structure warm.
    pub fn warm_access(&mut self, req: MemAccess) {
        self.cache.warm_access(req);
    }

    /// Functional-warmup counterpart of [`writeback`](Self::writeback):
    /// dirty state moves, no DRAM timing happens.
    pub fn warm_writeback(&mut self, addr: PhysAddr) {
        self.cache.warm_writeback(addr);
    }

    /// Quiesces all timing state below the L2: the outstanding-request
    /// window and every DRAM channel's bank/bus/queue reservations
    /// reset to their freshly built values. Capacity state (the cache
    /// design's tags, metadata, predictors) and every monotone counter
    /// are untouched. Part of the checkpoint contract: a memory system
    /// driven only through the `warm_*` paths is already quiesced, so
    /// quiescing there is a no-op.
    pub fn quiesce(&mut self) {
        self.window.quiesce();
        if let Some(stacked) = &mut self.stacked {
            stacked.quiesce();
        }
        self.offchip.quiesce();
    }

    /// An L2 dirty-victim writeback arriving at cycle `at` (never stalls
    /// the core; charged to banks/energy only — but it does occupy an
    /// outstanding-window entry, so writeback bursts apply backpressure
    /// to concurrent demand traffic).
    pub fn writeback(&mut self, addr: PhysAddr, at: u64) {
        let plan = self.cache.writeback(addr);
        let start = self.window.admit(at);
        let (_, done) = self.execute(&plan, start);
        self.window.retire(done);
    }

    /// Publishes every `detailed-stats` timeline this memory system
    /// accumulated — its own hit-ratio/occupancy series plus each DRAM
    /// channel's — under `{prefix}.*`. A no-op in default builds.
    pub fn publish_timelines(&self, prefix: &str) {
        if !fc_obs::series::enabled() {
            return;
        }
        self.timeline.publish(&format!("{prefix}.memsys"));
        if let Some(stacked) = &self.stacked {
            stacked.publish_timelines(&format!("{prefix}.stacked"));
        }
        self.offchip.publish_timelines(&format!("{prefix}.offchip"));
    }

    /// Executes a plan: critical ops serialize starting after the tag
    /// lookup and determine the returned critical completion; background
    /// ops start concurrently at the same point. Returns `(critical,
    /// last)`: the critical-path data-ready cycle and the cycle the last
    /// op (background traffic included) finishes transferring.
    fn execute(&mut self, plan: &AccessPlan, at: u64) -> (u64, u64) {
        let start = at + plan.tag_latency as u64;
        let mut t = start;
        let mut last = start;
        for op in &plan.critical {
            let (ready, done) = self.run_op(op, t);
            t = ready;
            last = last.max(done);
        }
        for op in &plan.background {
            let (_, done) = self.run_op(op, start);
            last = last.max(done);
        }
        (t, last)
    }

    /// Runs one op, splitting multi-row transfers at row boundaries.
    /// The row size comes from the target DRAM's configuration, so
    /// designs with non-2 KB row geometries split correctly. Returns
    /// when the *first* block's data is available (critical-block-first
    /// for demand fetches) and when the op's last block has moved.
    fn run_op(&mut self, op: &MemOp, at: u64) -> (u64, u64) {
        let sys = match op.target {
            MemTarget::Stacked => self
                .stacked
                .as_mut()
                .expect("design issued a stacked op but no stacked DRAM is configured"),
            MemTarget::OffChip => &mut self.offchip,
        };
        let row_bytes = sys.config().row_bytes();
        let row_blocks = (row_bytes / BLOCK_SIZE as u64) as u32;
        // First chunk: up to the end of the addressed row.
        let offset_blocks = ((op.addr.raw() % row_bytes) / BLOCK_SIZE as u64) as u32;
        let first_chunk = op
            .blocks
            .min(row_blocks - offset_blocks.min(row_blocks - 1));
        let completion = match op.flavor {
            OpFlavor::CompoundTags => sys.access_compound(op.addr, op.kind, first_chunk, at),
            OpFlavor::Simple => sys.access(op.addr, op.kind, first_chunk, at),
        };
        // Remaining rows (e.g., a 4 KB page spans two 2 KB rows):
        // streamed after the first chunk, off the critical path of the
        // demanded block. Each tail chunk issues when the previous
        // chunk's transfer completes — issuing them all at the op's
        // arrival would claim channel-queue slots and bank timing the
        // data cannot actually use yet.
        let mut last_done = completion.done;
        let mut remaining = op.blocks - first_chunk;
        let mut addr = op.addr.raw() + first_chunk as u64 * BLOCK_SIZE as u64;
        while remaining > 0 {
            let chunk = remaining.min(row_blocks);
            let c = sys.access(PhysAddr::new(addr), op.kind, chunk, last_done);
            debug_assert!(c.done > last_done, "chained chunk must finish later");
            last_done = c.done;
            addr += chunk as u64 * BLOCK_SIZE as u64;
            remaining -= chunk;
        }
        (completion.data_ready, last_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_cache::{NoCache, PageBasedCache};
    use fc_types::{PageGeometry, Pc};

    fn read(addr: u64) -> MemAccess {
        MemAccess::read(Pc::new(0x400), PhysAddr::new(addr), 0)
    }

    #[test]
    fn baseline_access_pays_offchip_latency() {
        let mut m = MemorySystem::new(
            Box::new(NoCache::new()),
            None,
            DramConfig::off_chip_ddr3_1600(),
        );
        let done = m.demand_access(read(0x8000), 1000);
        // At least ACT + CAS + burst beyond arrival.
        let t = DramConfig::off_chip_ddr3_1600().timings.to_core_cycles();
        assert!(done >= 1000 + t.miss_read());
        assert_eq!(m.offchip_stats().read_blocks, 1);
        assert_eq!(m.stacked_stats().read_blocks, 0);
    }

    #[test]
    fn page_hit_is_faster_than_page_miss() {
        let mut m = MemorySystem::new(
            Box::new(PageBasedCache::new(1 << 20, PageGeometry::new(2048))),
            Some(DramConfig::stacked_ddr3_3200()),
            DramConfig::off_chip_open_row(),
        );
        let miss_done = m.demand_access(read(0x8000), 0);
        let miss_latency = miss_done;
        let hit_start = miss_done + 10_000; // let fills drain
        let hit_done = m.demand_access(read(0x8040), hit_start);
        let hit_latency = hit_done - hit_start;
        assert!(
            hit_latency < miss_latency,
            "hit {hit_latency} vs miss {miss_latency}"
        );
        // The page fill moved 32 blocks off-chip and into the stack.
        assert_eq!(m.offchip_stats().read_blocks, 32);
        assert_eq!(m.stacked_stats().write_blocks, 32);
    }

    #[test]
    fn writebacks_do_not_return_latency_but_consume_banks() {
        let mut m = MemorySystem::new(
            Box::new(NoCache::new()),
            None,
            DramConfig::off_chip_ddr3_1600(),
        );
        m.writeback(PhysAddr::new(0x9000), 0);
        assert_eq!(m.offchip_stats().write_blocks, 1);
    }

    #[test]
    fn multi_row_transfer_splits() {
        // A 64-block (4 KB) op must become two row accesses.
        let mut m = MemorySystem::new(
            Box::new(PageBasedCache::new(1 << 20, PageGeometry::new(4096))),
            Some(DramConfig::stacked_ddr3_3200()),
            DramConfig::off_chip_open_row(),
        );
        m.demand_access(read(0x10000), 0);
        assert_eq!(m.offchip_stats().read_blocks, 64);
        // Two activations for the two off-chip rows of the 4 KB page.
        assert_eq!(m.offchip_stats().activates, 2);
    }

    #[test]
    fn tail_row_chunks_stream_after_the_previous_chunk() {
        // Regression: tail chunks of a multi-row transfer used to be
        // issued at the op's arrival cycle, despite the "streamed after
        // the first chunk" contract. Chained issue means the chunks
        // arrive one at a time and never wait in the channel queue
        // behind each other.
        let mut m = MemorySystem::new(
            Box::new(PageBasedCache::new(1 << 20, PageGeometry::new(4096))),
            Some(DramConfig::stacked_ddr3_3200()),
            DramConfig::off_chip_open_row(),
        );
        m.demand_access(read(0x10000), 0);
        // The 4 KB page fill moved 64 blocks in two 2 KB row chunks.
        assert_eq!(m.offchip_stats().read_blocks, 64);
        assert_eq!(m.offchip_stats().activates, 2);
        // Chained issue: each chunk arrives only once its predecessor
        // is done, so the otherwise-idle off-chip queue never delays.
        assert_eq!(
            m.offchip_stats().queue_delay_cycles,
            0,
            "tail chunks issued at arrival queue behind each other"
        );
    }

    #[test]
    fn tail_chunk_chain_orders_completions() {
        // Directly assert the ordering contract on run_op: the op's
        // last chunk completes after the first chunk's data is ready,
        // by at least the tail chunks' transfer time.
        use fc_cache::{MemOp, MemTarget, OpFlavor};
        let mut m = MemorySystem::new(
            Box::new(NoCache::new()),
            None,
            DramConfig::off_chip_open_row(),
        );
        let op = MemOp {
            target: MemTarget::OffChip,
            addr: PhysAddr::new(0x20000),
            kind: fc_types::AccessKind::Read,
            blocks: 96, // three 2 KB rows
            flavor: OpFlavor::Simple,
        };
        let (ready, last) = m.run_op(&op, 1000);
        let t = DramConfig::off_chip_open_row().timings.to_core_cycles();
        // Two tail rows, each chained strictly after its predecessor:
        // each contributes at least a 32-block burst.
        assert!(
            last >= ready + 2 * 32 * t.t_burst,
            "last {last} vs ready {ready}"
        );
    }

    #[test]
    fn row_size_derives_from_the_target_config() {
        // Off-chip DRAM with 4 KB rows: a whole 4 KB page transfer is a
        // single activation, not the two a hardcoded 2 KB split would
        // produce.
        use fc_dram::AddressMapping;
        let wide_rows = DramConfig {
            mapping: AddressMapping::RowInterleave {
                channel_bits: 0,
                bank_bits: 3,
                row_shift: 12,
            },
            ..DramConfig::off_chip_open_row()
        };
        assert_eq!(wide_rows.row_bytes(), 4096);
        let mut m = MemorySystem::new(
            Box::new(PageBasedCache::new(1 << 20, PageGeometry::new(4096))),
            Some(DramConfig::stacked_ddr3_3200()),
            wide_rows,
        );
        m.demand_access(read(0x10000), 0);
        assert_eq!(m.offchip_stats().read_blocks, 64);
        assert_eq!(m.offchip_stats().activates, 1, "one 4 KB row, one ACT");
    }

    #[test]
    fn full_window_applies_backpressure() {
        let build = |window| {
            MemorySystem::new(
                Box::new(NoCache::new()),
                None,
                DramConfig::off_chip_ddr3_1600(),
            )
            .with_window(window)
        };
        // Many same-cycle independent misses: with a one-entry window
        // they serialize; with a wide window they overlap across banks.
        let mut narrow = build(1);
        let mut wide = build(64);
        let mut narrow_done = 0;
        let mut wide_done = 0;
        for i in 0..8u64 {
            narrow_done = narrow.demand_access(read(0x10000 + i * 64), 0);
            wide_done = wide.demand_access(read(0x10000 + i * 64), 0);
        }
        assert!(
            narrow_done > wide_done,
            "narrow {narrow_done} must trail wide {wide_done}"
        );
        assert!(narrow.window_stall_cycles() > 0);
        assert_eq!(narrow.window_admissions(), 8);
        assert_eq!(wide.window_stall_cycles(), 0);
    }

    #[test]
    fn writebacks_occupy_window_entries() {
        let mut m = MemorySystem::new(
            Box::new(NoCache::new()),
            None,
            DramConfig::off_chip_ddr3_1600(),
        )
        .with_window(1);
        m.writeback(PhysAddr::new(0x9000), 0);
        // The demand access behind the writeback stalls on the window.
        m.demand_access(read(0x8000), 0);
        assert!(m.window_stall_cycles() > 0);
        assert_eq!(m.window_admissions(), 2);
    }

    #[test]
    #[should_panic(expected = "no stacked DRAM")]
    fn stacked_op_without_stacked_dram_panics() {
        let mut m = MemorySystem::new(
            Box::new(PageBasedCache::new(1 << 20, PageGeometry::new(2048))),
            None,
            DramConfig::off_chip_open_row(),
        );
        m.demand_access(read(0x8000), 0);
    }
}
