//! The multicore trace-replay engine.
//!
//! Each record first gets its shared-L2 outcome, then runs one post-L2
//! body: L2 misses reserve an MSHR and become demand accesses to the
//! memory system, dirty L2 victims become writebacks. The outcome comes
//! from a live L2 array ([`Simulation::new`]) or, for a pod replaying
//! a trace whose L2 outcomes were precomputed once for every design
//! ([`Simulation::filtered`]), from an [`L2Outcomes`] stream. Nothing
//! below the L2 writes into it, so both sources yield the same
//! outcomes and the same reports.
//!
//! Every driver warms a pod through [`Simulation::warm_up`]: all but the
//! last [`DETAILED_TAIL`] warm-up records replay functionally, the tail
//! replays detailed, and outstanding misses drain before measurement.
//! Design state (L2 and DRAM-cache tags, predictors, replacement and
//! promotion state) is a function of the record stream alone, so the
//! functional prefix leaves it exactly as a detailed replay would. Only
//! the timing plane (core clocks, MSHRs, DRAM bank, bus and queue
//! reservations) differs, and it forgets its starting point within the
//! tail: reports equal an all-detailed warm-up's, field for field.

use std::collections::VecDeque;
use std::sync::Arc;

use fc_cache::{SramCache, SramOutcome};
use fc_trace::{ScenarioGenerator, ScenarioSpec, TraceGenerator, TraceRecord, WorkloadKind};

use crate::config::SimConfig;
use crate::design::DesignSpec;
use crate::l2filter::{L2Outcomes, L2Source};
use crate::memsys::MemorySystem;
use crate::report::{CorePerf, ReportSnapshot, SimReport};

/// Warm-up records replayed through the detailed engine at the end of
/// every [`warm_up`](Simulation::warm_up); the records before them
/// replay functionally. Long enough for the timing plane to converge
/// from a quiesced start, so warm-ups no longer than this run all
/// detailed and longer ones measure exactly as if they had.
pub const DETAILED_TAIL: u64 = 65_536;

/// One outstanding DRAM-level miss held in a core's MSHRs.
#[derive(Clone, Copy, Debug)]
struct OutstandingMiss {
    /// Cycle the fill completes (the MSHR frees then).
    done: u64,
    /// Instruction index at issue (reorder-window bookkeeping).
    at_inst: u64,
    /// Fetch-for-write: occupies an MSHR but never blocks retirement.
    write: bool,
}

#[derive(Clone, Debug, Default)]
struct CoreState {
    /// Local clock in cycles (fixed IPC 1.0: instructions advance it).
    time: u64,
    /// Instructions committed.
    insts: u64,
    /// Demand L2 accesses issued by this core.
    l2_accesses: u64,
    /// Demand L2 misses (DRAM-level accesses) issued by this core.
    l2_misses: u64,
    /// Outstanding DRAM-level misses, FIFO by issue (the MSHRs).
    outstanding: VecDeque<OutstandingMiss>,
}

impl CoreState {
    /// Frees MSHRs whose fills have already returned, stalls on reads
    /// the reorder window can no longer slide past, and — when every
    /// MSHR is busy — waits for the oldest fill. Both reads and
    /// fetch-for-writes occupy entries (bounding store-miss
    /// parallelism), but a write entry never stalls retirement on its
    /// own: it only costs time through the MSHR bound. Pending writes
    /// are skipped, not barriers — a long store fill ahead of a read
    /// must not exempt the read from its reorder-window stall.
    fn reserve_mshr(&mut self, rob_window: u64, mshrs: usize) {
        let (insts, now) = (self.insts, self.time);
        let mut stall_until = now;
        self.outstanding.retain(|m| {
            if m.done <= now {
                return false; // fill returned: the MSHR is free
            }
            if !m.write && insts > m.at_inst + rob_window {
                stall_until = stall_until.max(m.done);
                return false; // the ROB can no longer slide past it
            }
            true
        });
        self.time = stall_until;
        // The stall may have outlived more fills; free those too.
        while matches!(self.outstanding.front(), Some(m) if m.done <= self.time) {
            self.outstanding.pop_front();
        }
        if self.outstanding.len() >= mshrs {
            if let Some(OutstandingMiss { done, .. }) = self.outstanding.pop_front() {
                self.time = self.time.max(done);
            }
        }
    }

    /// This core's monotone performance counters.
    fn perf(&self) -> CorePerf {
        CorePerf {
            insts: self.insts,
            cycles: self.time,
            l2_accesses: self.l2_accesses,
            l2_misses: self.l2_misses,
        }
    }
}

/// A checkpoint of a whole pod simulation, captured at a *quiesced*
/// point: all capacity state (L2, DRAM-cache design metadata) and every
/// monotone counter, with the timing plane (core clocks, MSHRs, DRAM
/// bank/bus/queue reservations) realigned to the functional reference
/// clock (`time == insts`, nothing in flight).
///
/// **Bit-equality guarantee:** a simulation that has only ever been
/// driven through the functional path is already quiesced, so capturing
/// it and [`restoring`](Simulation::restore) elsewhere reproduces its
/// exact state — subsequent identical replays yield identical
/// [`SimReport`](crate::SimReport) deltas. This is what lets the
/// parallel-in-time sampler (`fc-sample`) dispatch measured intervals
/// to workers and still merge bit-identical results at any worker
/// count. Capturing mid-detailed-run is also deterministic, but the
/// quiescing discards in-flight timing, so deltas then match a
/// quiesced re-run, not the uninterrupted one.
#[derive(Clone)]
pub struct Checkpoint {
    state: Simulation,
}

impl Checkpoint {
    /// Captures `sim` (clone + [`quiesce`](Simulation::quiesce)).
    pub fn capture(sim: &Simulation) -> Self {
        let mut state = sim.clone();
        state.quiesce();
        Self { state }
    }

    /// Materializes an independent simulation resuming from this
    /// checkpoint.
    pub fn to_sim(&self) -> Simulation {
        self.state.clone()
    }
}

/// A configured pod simulation: cores + L2 + memory system.
///
/// Drive it with [`run_workload`](Simulation::run_workload) (synthesizes
/// the trace internally) or [`run_records`](Simulation::run_records).
#[derive(Clone)]
pub struct Simulation {
    config: SimConfig,
    design: DesignSpec,
    cores: Vec<CoreState>,
    l2: L2Source,
    memsys: MemorySystem,
}

impl Simulation {
    /// Builds the pod for `design`.
    pub fn new(config: SimConfig, design: DesignSpec) -> Self {
        let l2 = SramCache::new(config.l2_bytes, config.l2_ways);
        Self::with_l2(config, design, L2Source::Live(l2))
    }

    /// Builds the pod for `design` over precomputed L2 `outcomes`
    /// instead of an L2 array of its own. The pod must replay the very
    /// records `outcomes` was [filtered](L2Outcomes::filter) from, in
    /// order from the first; stepping past the filtered prefix panics.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` was filtered for another L2 geometry.
    pub fn filtered(config: SimConfig, design: DesignSpec, outcomes: Arc<L2Outcomes>) -> Self {
        assert_eq!(
            outcomes.geometry(),
            (config.l2_bytes, config.l2_ways),
            "L2 outcomes filtered for another geometry"
        );
        let l2 = L2Source::Filtered {
            outcomes,
            next: 0,
            victim: 0,
        };
        Self::with_l2(config, design, l2)
    }

    fn with_l2(config: SimConfig, design: DesignSpec, l2: L2Source) -> Self {
        let memsys = design.build().with_window(config.memsys_window);
        Self {
            config,
            design,
            cores: vec![CoreState::default(); config.cores as usize],
            l2,
            memsys,
        }
    }

    /// The memory system (stats inspection).
    pub fn memsys(&self) -> &MemorySystem {
        &self.memsys
    }

    /// The design under simulation.
    pub fn design(&self) -> DesignSpec {
        self.design
    }

    /// Replays one trace record through the hierarchy.
    #[inline]
    pub fn step(&mut self, r: &TraceRecord) {
        let core = &mut self.cores[r.core as usize];
        core.insts += r.inst_gap as u64;
        core.time += r.inst_gap as u64; // fixed IPC 1.0 for non-memory work
        core.l2_accesses += 1;

        // The trace is post-L1: probe the shared L2.
        let l2_latency = self.config.l2_latency as u64;
        match self.l2.access(r) {
            SramOutcome::Hit => {
                // Loads and stores both occupy the L2 port for a hit:
                // the write buffer hides *miss* latency, not hit port
                // occupancy.
                core.time += l2_latency;
            }
            SramOutcome::Miss { writeback } => {
                core.l2_misses += 1;
                if let Some(victim) = writeback {
                    self.memsys.writeback(victim.base(), core.time);
                }
                // Lean-OoO overlap model: free/retire outstanding
                // misses and respect the MSHR bound (reads and
                // fetch-for-writes share the MSHRs).
                core.reserve_mshr(self.config.rob_window, self.config.mshrs);
                let issue = core.time + l2_latency;
                let done = self.memsys.demand_access(r.access(), issue);
                core.time = issue;
                core.outstanding.push_back(OutstandingMiss {
                    done,
                    at_inst: core.insts,
                    // Stores retire through the write buffer: the
                    // fetch-for-write holds an MSHR until the fill
                    // returns but never stalls retirement itself.
                    write: r.kind.is_write(),
                });
            }
        }
    }

    /// Replays a record slice through the hierarchy, one [`step`]
    /// (Simulation::step) per record.
    pub fn step_slice(&mut self, records: &[TraceRecord]) {
        for r in records {
            self.step(r);
        }
    }

    /// Replays one trace record in **functional-warmup** mode: the L2
    /// and the DRAM-cache design apply their full state transitions
    /// (tags, replacement, MissMap, predictor, statistics), but no DRAM
    /// or queue timing is simulated and no MSHR is occupied. Core
    /// clocks advance by the instruction gap only (fixed IPC 1.0), so
    /// time stays monotone across mode switches. Sampled simulation
    /// fast-forwards through functional regions and measures only
    /// detailed intervals (see the `fc-sample` crate).
    #[inline]
    pub fn step_functional(&mut self, r: &TraceRecord) {
        let core = &mut self.cores[r.core as usize];
        core.insts += r.inst_gap as u64;
        core.time += r.inst_gap as u64;
        core.l2_accesses += 1;

        match self.l2.access(r) {
            SramOutcome::Hit => {}
            SramOutcome::Miss { writeback } => {
                core.l2_misses += 1;
                if let Some(victim) = writeback {
                    self.memsys.warm_writeback(victim.base());
                }
                self.memsys.warm_access(r.access());
            }
        }
    }

    /// Drains outstanding misses into core clocks (call at measurement
    /// boundaries). Write fills only free their MSHRs — the write
    /// buffer already decoupled them from retirement.
    pub fn drain(&mut self) {
        for core in &mut self.cores {
            while let Some(OutstandingMiss { done, write, .. }) = core.outstanding.pop_front() {
                if !write {
                    core.time = core.time.max(done);
                }
            }
        }
    }

    /// Quiesces the timing plane: each core's clock realigns to the
    /// functional reference (`time = insts` — both advance by exactly
    /// the instruction gap under functional replay), MSHRs empty
    /// without folding their latency into the clock, and the memory
    /// system's window/channel reservations reset. All capacity state
    /// and every monotone counter are untouched.
    ///
    /// A simulation driven only through
    /// [`step_functional`](Simulation::step_functional) is already in
    /// this state, so quiescing at functional boundaries is a no-op —
    /// the property the checkpointed sampling path builds on.
    pub fn quiesce(&mut self) {
        for core in &mut self.cores {
            core.time = core.insts;
            core.outstanding.clear();
        }
        self.memsys.quiesce();
    }

    /// Captures a [`Checkpoint`] of this simulation (quiesced).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(self)
    }

    /// Replaces this simulation's entire state with `checkpoint`'s.
    pub fn restore(&mut self, checkpoint: &Checkpoint) {
        *self = checkpoint.to_sim();
    }

    /// Aggregate committed instructions across cores.
    pub fn total_insts(&self) -> u64 {
        self.cores.iter().map(|c| c.insts).sum()
    }

    /// Total cycles: the slowest core's clock (cores run concurrently).
    pub fn total_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.time).max().unwrap_or(0)
    }

    /// Per-core monotone counters (instructions, cycles, L2 traffic),
    /// indexed by core id.
    pub fn per_core(&self) -> Vec<CorePerf> {
        self.cores.iter().map(CoreState::perf).collect()
    }

    /// Snapshot of all counters (for warmup-relative measurement).
    pub fn snapshot(&self) -> ReportSnapshot {
        ReportSnapshot::capture(self)
    }

    /// Replays `records`, then builds a report relative to `since`.
    pub fn run_records<I: IntoIterator<Item = TraceRecord>>(
        &mut self,
        records: I,
        since: &ReportSnapshot,
    ) -> SimReport {
        let _span = fc_obs::trace::span("detailed-sim", "sim");
        let mut replayed = 0u64;
        for r in records {
            self.step(&r);
            replayed += 1;
        }
        self.drain();
        // One registry touch per replay, not per record.
        fc_obs::metrics::counter("sim.records.detailed").add(replayed);
        SimReport::since(self, since)
    }

    /// Warms the pod on the next `warmup` records of `records`: all but
    /// the last [`DETAILED_TAIL`] replay functionally, the tail replays
    /// detailed, then outstanding misses drain. Measure from a
    /// [`snapshot`](Simulation::snapshot) taken next; the report equals
    /// the one an all-detailed warm-up (`step_slice`, then `drain`)
    /// yields.
    pub fn warm_up(&mut self, records: &mut impl Iterator<Item = TraceRecord>, warmup: u64) {
        let functional = warmup.saturating_sub(DETAILED_TAIL);
        if functional > 0 {
            let _span = fc_obs::trace::span("functional-warmup", "sim");
            for r in records.by_ref().take(functional as usize) {
                self.step_functional(&r);
            }
            fc_obs::metrics::counter("sim.records.warmup.functional").add(functional);
        }
        let _span = fc_obs::trace::span("detailed-warmup", "sim");
        for r in records.take((warmup - functional) as usize) {
            self.step(&r);
        }
        self.drain();
        fc_obs::metrics::counter("sim.records.warmup.detailed").add(warmup - functional);
    }

    /// Replays a trace: [warms](Simulation::warm_up) the pod on its
    /// first `warmup` records, then measures over the next `measured`.
    pub fn run_trace(
        &mut self,
        records: impl IntoIterator<Item = TraceRecord>,
        warmup: u64,
        measured: u64,
    ) -> SimReport {
        let mut records = records.into_iter();
        self.warm_up(&mut records, warmup);
        let snap = self.snapshot();
        self.run_records(records.take(measured as usize), &snap)
    }

    /// Convenience driver: synthesizes `workload` with `seed`, then
    /// [replays](Simulation::run_trace) `warmup` warm-up and `measured`
    /// measured records.
    pub fn run_workload(
        &mut self,
        workload: WorkloadKind,
        seed: u64,
        warmup: u64,
        measured: u64,
    ) -> SimReport {
        let generator = TraceGenerator::new(workload, self.config.cores, seed);
        self.run_trace(generator, warmup, measured)
    }

    /// Scenario-mix driver: interleaves each core's assigned workload
    /// with `seed`, then [replays](Simulation::run_trace) `warmup`
    /// warm-up and `measured` measured records.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's core count differs from the pod's.
    pub fn run_scenario(
        &mut self,
        scenario: &ScenarioSpec,
        seed: u64,
        warmup: u64,
        measured: u64,
    ) -> SimReport {
        assert_eq!(
            scenario.cores(),
            self.config.cores,
            "scenario `{}` assigns {} cores but the pod has {}",
            scenario.name,
            scenario.cores(),
            self.config.cores
        );
        self.run_trace(ScenarioGenerator::new(scenario, seed), warmup, measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::{AccessKind, Pc, PhysAddr};

    fn record(core: u8, addr: u64, gap: u32) -> TraceRecord {
        TraceRecord {
            pc: Pc::new(0x400),
            addr: PhysAddr::new(addr),
            kind: AccessKind::Read,
            core,
            inst_gap: gap,
        }
    }

    fn store(core: u8, addr: u64, gap: u32) -> TraceRecord {
        TraceRecord {
            kind: AccessKind::Write,
            ..record(core, addr, gap)
        }
    }

    #[test]
    fn instructions_advance_core_clock() {
        let mut sim = Simulation::new(SimConfig::small(), DesignSpec::baseline());
        sim.step(&record(0, 0x1000, 100));
        sim.drain();
        assert!(sim.total_cycles() >= 100);
        assert_eq!(sim.total_insts(), 100);
    }

    #[test]
    fn l2_hit_avoids_dram() {
        let mut sim = Simulation::new(SimConfig::small(), DesignSpec::baseline());
        sim.step(&record(0, 0x1000, 10));
        sim.step(&record(0, 0x1000, 10));
        assert_eq!(sim.memsys().offchip_stats().read_blocks, 1);
    }

    #[test]
    fn misses_overlap_within_window() {
        // Two independent misses (different DRAM banks) issued back to
        // back overlap: total time is far less than twice the miss
        // latency.
        let mut sim = Simulation::new(SimConfig::small(), DesignSpec::baseline());
        sim.step(&record(0, 0x10000, 1));
        sim.step(&record(0, 0x10040, 1)); // adjacent block -> next bank
        sim.drain();
        let t2 = sim.total_cycles();

        let mut solo = Simulation::new(SimConfig::small(), DesignSpec::baseline());
        solo.step(&record(0, 0x10000, 1));
        solo.drain();
        let t1 = solo.total_cycles();
        assert!(
            t2 < 2 * t1 - 20,
            "overlapped pair {t2} should beat serial {t1}x2"
        );
    }

    #[test]
    fn distant_misses_serialize() {
        // A miss more than a ROB window of instructions later cannot
        // overlap with its predecessor.
        let cfg = SimConfig::small();
        let mut sim = Simulation::new(cfg, DesignSpec::baseline());
        sim.step(&record(0, 0x10000, 1));
        sim.step(&record(0, 0x10040, (cfg.rob_window + 10) as u32));
        sim.drain();
        let serial = sim.total_cycles();

        let mut overlapped = Simulation::new(cfg, DesignSpec::baseline());
        overlapped.step(&record(0, 0x10000, 1));
        overlapped.step(&record(0, 0x10040, 1));
        overlapped.drain();
        assert!(serial > overlapped.total_cycles());
    }

    #[test]
    fn cores_progress_independently() {
        let mut sim = Simulation::new(SimConfig::small(), DesignSpec::baseline());
        sim.step(&record(0, 0x1000, 50));
        sim.step(&record(1, 0x2000, 10));
        assert_eq!(sim.total_insts(), 60);
    }

    #[test]
    fn store_hits_pay_the_l2_hit_latency() {
        // Regression: store hits used to advance the core clock by
        // nothing at all — the write buffer hides miss latency, not
        // hit port occupancy. A store-hit-heavy stream must accumulate
        // the L2 hit latency per store on top of its instructions.
        let cfg = SimConfig::small();
        let mut sim = Simulation::new(cfg, DesignSpec::baseline());
        sim.step(&record(0, 0x1000, 1)); // install the block
        sim.drain();
        let before = sim.total_cycles();
        let hits = 100u64;
        for _ in 0..hits {
            sim.step(&store(0, 0x1000, 1));
        }
        sim.drain();
        let elapsed = sim.total_cycles() - before;
        assert!(
            elapsed >= hits * (1 + cfg.l2_latency as u64),
            "store hits advanced the clock only {elapsed} cycles \
             (expected at least {})",
            hits * (1 + cfg.l2_latency as u64)
        );
    }

    #[test]
    fn store_misses_respect_the_mshr_bound() {
        // Regression: store misses used to bypass `core.outstanding`
        // entirely, granting unbounded fetch-for-write parallelism. A
        // burst of independent store misses must serialize behind a
        // single MSHR, and overlap with many.
        let narrow_cfg = SimConfig {
            mshrs: 1,
            ..SimConfig::small()
        };
        let wide_cfg = SimConfig {
            mshrs: 64,
            ..SimConfig::small()
        };
        let run = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg, DesignSpec::baseline());
            for i in 0..16u64 {
                sim.step(&store(0, 0x100000 + i * 0x1000, 1));
            }
            sim.drain();
            sim.total_cycles()
        };
        let narrow = run(narrow_cfg);
        let wide = run(wide_cfg);
        assert!(
            narrow > wide + 100,
            "one MSHR ({narrow} cycles) must serialize store misses \
             that 64 MSHRs overlap ({wide} cycles)"
        );
    }

    #[test]
    fn pending_write_does_not_shield_reads_from_rob_stalls() {
        // A long store fill at the MSHR head must not exempt a younger
        // read miss from its reorder-window stall: prefixing the
        // distant read pair with a store may only add the store's own
        // issue cost, never remove the read's stall (the pre-drain
        // clock makes the stall visible).
        let cfg = SimConfig::small();
        let run = |with_store: bool| {
            let mut sim = Simulation::new(cfg, DesignSpec::baseline());
            if with_store {
                sim.step(&store(0, 0x700000, 1));
            }
            sim.step(&record(0, 0x10000, 1));
            sim.step(&record(0, 0x10040, (cfg.rob_window + 10) as u32));
            sim.total_cycles()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with >= without + 1 + cfg.l2_latency as u64,
            "the pending store erased the read's ROB stall: \
             {with} cycles with the store vs {without} without"
        );
    }

    #[test]
    fn store_misses_do_not_block_retirement() {
        // A single store miss retires through the write buffer: the
        // core clock advances by the instruction and the L2 lookup,
        // not by the DRAM fill latency.
        let cfg = SimConfig::small();
        let mut sim = Simulation::new(cfg, DesignSpec::baseline());
        sim.step(&store(0, 0x100000, 1));
        assert_eq!(sim.total_cycles(), 1 + cfg.l2_latency as u64);
    }

    #[test]
    fn per_core_counters_sum_to_totals() {
        let mut sim = Simulation::new(SimConfig::small(), DesignSpec::baseline());
        sim.step(&record(0, 0x10000, 5));
        sim.step(&record(1, 0x20000, 7));
        sim.step(&store(1, 0x20000, 3));
        sim.drain();
        let per_core = sim.per_core();
        assert_eq!(per_core.len(), 4);
        assert_eq!(
            per_core.iter().map(|c| c.insts).sum::<u64>(),
            sim.total_insts()
        );
        assert_eq!(per_core.iter().map(|c| c.l2_accesses).sum::<u64>(), 3);
        assert_eq!(per_core[1].l2_accesses, 2);
        assert_eq!(per_core[1].l2_misses, 1, "the store hit is not a miss");
    }

    #[test]
    fn functional_mode_preserves_all_capacity_state() {
        // A stream replayed functionally must leave the L2 and the
        // DRAM-cache design in exactly the state a detailed replay
        // would: same cache statistics (hits, misses, evictions,
        // traffic) and the same outcomes for subsequent accesses.
        use fc_trace::{TraceGenerator, WorkloadKind};
        for design in [
            DesignSpec::footprint(64),
            DesignSpec::page(64),
            DesignSpec::baseline(),
        ] {
            let records: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 4, 7)
                .take(5_000)
                .collect();
            let mut detailed = Simulation::new(SimConfig::small(), design);
            let mut functional = Simulation::new(SimConfig::small(), design);
            for r in &records {
                detailed.step(r);
                functional.step_functional(r);
            }
            detailed.drain();
            assert_eq!(
                detailed.memsys().cache().stats(),
                functional.memsys().cache().stats(),
                "{}: functional warmup diverged from detailed state",
                design.label()
            );
            assert_eq!(detailed.total_insts(), functional.total_insts());
            // After switching back to detailed mode, both pods see the
            // same hierarchy state: identical hit/miss outcomes.
            let probe: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 4, 9)
                .take(500)
                .collect();
            for r in &probe {
                detailed.step(r);
                functional.step(r);
            }
            assert_eq!(
                detailed.memsys().cache().stats(),
                functional.memsys().cache().stats(),
                "{}: post-warmup detailed replay diverged",
                design.label()
            );
        }
    }

    #[test]
    fn filtered_pod_matches_live_pod() {
        // Precomputed L2 outcomes drive the same post-L2 body: detailed
        // and functional replay over them reproduce a live L2 exactly,
        // dirty victims included.
        use fc_trace::{TraceGenerator, WorkloadKind};
        let config = SimConfig::small();
        let records: Vec<_> = TraceGenerator::new(WorkloadKind::DataServing, 4, 5)
            .take(30_000)
            .collect();
        let outcomes = Arc::new(L2Outcomes::filter(&config, &records));
        for design in [DesignSpec::footprint(64), DesignSpec::page(64)] {
            let mut live = Simulation::new(config, design);
            let mut filtered = Simulation::filtered(config, design, Arc::clone(&outcomes));
            let (functional, detailed) = records.split_at(10_000);
            for r in functional {
                live.step_functional(r);
                filtered.step_functional(r);
            }
            let since = live.snapshot();
            live.step_slice(detailed);
            filtered.step_slice(detailed);
            live.drain();
            filtered.drain();
            assert_eq!(
                SimReport::since(&live, &since),
                SimReport::since(&filtered, &since),
                "{}",
                design.label()
            );
        }
    }

    #[test]
    #[should_panic(expected = "another geometry")]
    fn filtered_pod_rejects_another_geometry() {
        let outcomes = Arc::new(L2Outcomes::filter(&SimConfig::small(), &[]));
        Simulation::filtered(SimConfig::default(), DesignSpec::baseline(), outcomes);
    }

    #[test]
    fn functional_mode_advances_no_memory_time() {
        // Functional steps advance core clocks by instruction gaps
        // only — no L2 port, DRAM, or queue latency.
        let mut sim = Simulation::new(SimConfig::small(), DesignSpec::footprint(64));
        sim.step_functional(&record(0, 0x10000, 25));
        sim.step_functional(&record(0, 0x20000, 17));
        assert_eq!(sim.total_cycles(), 42);
        assert_eq!(sim.total_insts(), 42);
        // And no DRAM traffic was timed (counters stay zero) even
        // though the design absorbed the accesses.
        assert_eq!(sim.memsys().offchip_stats().accesses, 0);
        assert_eq!(sim.memsys().cache().stats().accesses, 2);
    }

    #[test]
    fn heterogeneous_scenario_runs_deterministically() {
        use fc_trace::ScenarioSpec;
        let spec = ScenarioSpec::split(
            fc_trace::WorkloadKind::DataServing,
            fc_trace::WorkloadKind::MapReduce,
            4,
        );
        let run = || {
            Simulation::new(SimConfig::small(), DesignSpec::footprint(64))
                .run_scenario(&spec, 42, 500, 500)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.per_core.len(), 4);
        assert!(a.per_core.iter().all(|c| c.insts > 0));
    }

    #[test]
    #[should_panic(expected = "assigns 8 cores but the pod has 4")]
    fn scenario_core_count_must_match_pod() {
        use fc_trace::ScenarioSpec;
        let spec = ScenarioSpec::all_different(8);
        Simulation::new(SimConfig::small(), DesignSpec::baseline()).run_scenario(&spec, 1, 10, 10);
    }
}
