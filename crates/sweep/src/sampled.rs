//! The sampled sweep: SMARTS-style interval sampling for every point
//! of a trace-replay grid.
//!
//! A [`SampledPoint`] is an ordinary [`SweepPoint`] plus a
//! [`SamplePlan`]; [`run_sampled_grid`] executes a grid of them on the
//! engine's worker pool with the detailed executor's discipline —
//! per-point seeds that are pure functions of the point, the shared
//! [`TraceCache`](crate::TraceCache), and memoization in the engine's
//! sampled [`ResultStore`](crate::ResultStore) (the plan is folded
//! into the FNV key, so a point sampled under two plans never
//! aliases). Dispatch is
//! parallel-in-time: a point whose plan skips fans its measured
//! periods out as independent tasks, each restoring the point's base
//! checkpoint. Results are bit-identical for any worker-thread count,
//! and to the sequential driver [`fc_sample::run_sampled`].
//!
//! Auto plans ([`SampledGrid::auto`]) derive each point's plan from
//! its run sizing and its design's state memory
//! (`DesignSpec::warm_scale`): capacity-scaled functional windows,
//! skipping only in the long-trace regime, exhaustive warming when
//! the trace is too short to skip safely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use fc_sample::{
    assemble_report, build_base, run_interval, run_sampled, run_sampled_stream, Checkpoint,
    IntervalSample, SamplePlan, SampledReport,
};
use fc_sim::Simulation;
use fc_trace::{TraceGenerator, TraceRecord, WorkloadKind};

use crate::executor::SweepEngine;
use crate::pool::{self, TaskQueue};
use crate::spec::{SweepPoint, SweepSpec};
use crate::store::PointKey;
use crate::trace_cache::generator_records;

/// One experiment in a sampled sweep: a sweep point and its plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledPoint {
    /// The underlying trace-replay point (workload, design, config,
    /// scale, seed) — warmup/measured sizing and seeding are exactly
    /// the full run's, so estimates are comparable point-for-point.
    pub point: SweepPoint,
    /// The sampling plan driving the two-mode execution.
    pub plan: SamplePlan,
}

impl SampledPoint {
    /// Pairs `point` with the auto-derived plan for its run sizing,
    /// capacity, and design state memory.
    pub fn auto(point: SweepPoint) -> Self {
        let plan = SamplePlan::for_run_scaled(
            point.warmup(),
            point.measured(),
            point.sizing_mb,
            point.design.warm_scale(),
        );
        Self { point, plan }
    }

    /// Human-readable label (progress lines, result emitters).
    pub fn label(&self) -> String {
        format!("{} [sampled]", self.point.label())
    }

    /// The canonical text encoding: the underlying point's encoding
    /// with the plan folded in. Distinct plans never alias.
    pub fn canonical(&self) -> String {
        format!("sampled|{}|{:?}", self.point.canonical(), self.plan)
    }

    /// Stable memoization key for this point (sampled store).
    pub fn key(&self) -> PointKey {
        PointKey::from_canonical(self.canonical())
    }
}

/// A declarative sampled grid.
#[derive(Clone, Debug)]
pub struct SampledGrid {
    points: Vec<SampledPoint>,
}

impl SampledGrid {
    /// Samples every point of `spec` under its auto-derived plan.
    pub fn auto(spec: &SweepSpec) -> Self {
        Self {
            points: spec
                .points()
                .iter()
                .copied()
                .map(SampledPoint::auto)
                .collect(),
        }
    }

    /// Samples every point of `spec` under one explicit plan.
    pub fn with_plan(spec: &SweepSpec, plan: SamplePlan) -> Self {
        Self {
            points: spec
                .points()
                .iter()
                .map(|&point| SampledPoint { point, plan })
                .collect(),
        }
    }

    /// Applies a strata count to every point's plan (builder-style).
    pub fn with_strata(mut self, strata: u32) -> Self {
        for p in &mut self.points {
            p.plan = p.plan.with_strata(strata);
        }
        self
    }

    /// The points, in spec order.
    pub fn points(&self) -> &[SampledPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The largest per-entry trace budget
    /// [`trace_budgets`](Self::trace_budgets) asks for, so a huge grid
    /// cannot ask for unbounded memory.
    const MAX_TRACE_RECORDS: u64 = 20_000_000;

    /// The longest run (warmup + measured records) in the grid — what
    /// the trace-cache budget must hold for the fast slice path.
    pub fn max_records(&self) -> u64 {
        self.points
            .iter()
            .map(|p| p.point.warmup() + p.point.measured())
            .max()
            .unwrap_or(0)
    }

    /// The trace-cache budgets, in records, that keep every trace of
    /// the grid resident for the fast slice path: per entry, the
    /// grid's longest run (at most 20M records — longer runs stream);
    /// in aggregate, every distinct trace that fits an entry at
    /// its longest run, plus an eighth for the L2 outcomes a full
    /// detailed twin attaches, plus its generator. With these,
    /// [`prefetch_traces`](Self::prefetch_traces) synthesizes each
    /// trace once and no later run evicts one.
    pub fn trace_budgets(&self) -> (usize, usize) {
        let entry = self.max_records().min(Self::MAX_TRACE_RECORDS) as usize;
        let mut longest: HashMap<(WorkloadKind, u8, u64), usize> = HashMap::new();
        for sp in &self.points {
            let p = &sp.point;
            let len = longest
                .entry((p.workload, p.config.cores, p.seed()))
                .or_default();
            *len = (*len).max((p.warmup() + p.measured()) as usize);
        }
        let aggregate = longest
            .into_iter()
            .filter(|&(_, len)| len <= entry)
            .map(|((workload, cores, seed), len)| {
                len + len / 8 + generator_records(workload, cores, seed)
            })
            .sum();
        (entry, aggregate)
    }

    /// Synthesizes every point's shared trace into `engine`'s cache up
    /// front. Call before timing a sampled run (or its full detailed
    /// twin) so neither measurement is charged for the synthesis both
    /// paths share; runs beyond the cache budget are skipped (they
    /// stream instead).
    pub fn prefetch_traces(&self, engine: &SweepEngine) {
        for sp in &self.points {
            let p = &sp.point;
            let _ = engine.trace_cache().records(
                p.workload,
                p.config.cores,
                p.seed(),
                p.warmup() + p.measured(),
            );
        }
    }
}

/// One finished sampled point.
#[derive(Clone, Debug)]
pub struct SampledResult {
    /// The point that was run.
    pub point: SampledPoint,
    /// Its (possibly memoized) sampled report.
    pub report: Arc<SampledReport>,
    /// Seconds spent obtaining the report (near zero for memoized
    /// points): one worker's wall clock for a point run whole, the
    /// summed per-worker busy time for a point split into interval
    /// tasks (its wall span would mostly measure *other* points
    /// interleaved in the shared pool). Timing only — never part of
    /// the deterministic result.
    pub sim_secs: f64,
    /// Whether the report came from the sampled memo store.
    pub memoized: bool,
}

/// One unit of work in the sampled grid's nested pool: either a whole
/// grid point (which may expand into interval tasks) or one measured
/// period of an already-expanded point.
enum Task {
    Point(usize),
    Interval { point: usize, k: u64 },
}

/// Shared state of a point that expanded into interval tasks: the base
/// checkpoint every period restores, the point's trace slice (one
/// synthesis, shared by every worker via `Arc`), the per-period result
/// slots, and the countdown that elects the aggregating worker.
struct PointWork {
    base: Checkpoint,
    records: Arc<Vec<TraceRecord>>,
    slots: Vec<OnceLock<IntervalSample>>,
    remaining: AtomicUsize,
    /// CPU time spent on this point across all workers (base build +
    /// every interval), in nanoseconds. This — not wall time from
    /// expansion to completion — becomes the point's `sim_secs`:
    /// interval tasks of *different* points interleave in one pool, so
    /// a point's wall span mostly measures other points' work. Busy
    /// time keeps per-point costs comparable across worker counts
    /// (equal to the wall time on one worker, a work measure on many).
    busy_nanos: AtomicU64,
}

/// Runs every point of `grid` through `engine` on its worker threads,
/// returning results in grid order.
///
/// Dispatch is **parallel-in-time**: points *and* their measured
/// periods drain from one shared pool, so a single long point keeps
/// every worker busy instead of one. Points are queued first; a
/// splittable point builds its base checkpoint and appends its periods
/// at the back of the queue. Points whose plan cannot be split
/// (exhaustive plans carry state through the whole region) and points
/// beyond the trace-cache budget (workers need random access into the
/// slice) run whole on one worker through [`run_sampled`] /
/// [`run_sampled_stream`].
///
/// Reports are **bit-identical** for every thread count, and to
/// [`run_sampled`] on the same records: interval samples merge in plan
/// order through the same aggregation, and each period is the same
/// pure function of the same base checkpoint. Sampled reports memoize
/// in the engine's sampled store under keys carrying the plan.
pub fn run_sampled_grid(grid: &SampledGrid, engine: &SweepEngine) -> Vec<SampledResult> {
    let points = grid.points();
    let progress = engine.progress_for(points.len());
    let finished: Vec<OnceLock<(Arc<SampledReport>, f64, bool)>> =
        points.iter().map(|_| OnceLock::new()).collect();
    let works: Vec<OnceLock<PointWork>> = points.iter().map(|_| OnceLock::new()).collect();

    let finish = |index: usize, report: Arc<SampledReport>, secs: f64, memoized: bool| {
        finished[index]
            .set((report, secs, memoized))
            .expect("point finished once");
        progress.finish_point(&points[index].label(), memoized);
    };

    let run_point = |index: usize, queue: &TaskQueue<Task>| {
        let sp = &points[index];
        let _point_span = fc_obs::trace::span_with("sampled-point", "sweep", || sp.label());
        let key = sp.key();
        let started = std::time::Instant::now();
        if let Some(report) = engine.sampled_store().get(&key) {
            finish(index, report, started.elapsed().as_secs_f64(), true);
            return;
        }
        let p = &sp.point;
        let (warmup, measured) = (p.warmup(), p.measured());
        let records =
            engine
                .trace_cache()
                .records(p.workload, p.config.cores, p.seed(), warmup + measured);
        let periods = sp.plan.intervals_in(measured);
        match records {
            // Splittable: build the base checkpoint, then fan the
            // periods out as interval tasks for any worker to claim.
            Some(records) if sp.plan.skip() > 0 && periods > 0 => {
                let mut sim = Simulation::new(p.config, p.design);
                let base = build_base(&mut sim, &records, warmup, measured, &sp.plan);
                fc_obs::metrics::counter("pit.intervals_dispatched").add(periods);
                let work = PointWork {
                    base,
                    records,
                    slots: (0..periods).map(|_| OnceLock::new()).collect(),
                    remaining: AtomicUsize::new(periods as usize),
                    busy_nanos: AtomicU64::new(started.elapsed().as_nanos() as u64),
                };
                assert!(works[index].set(work).is_ok(), "point expanded once");
                queue.extend((0..periods).map(|k| Task::Interval { point: index, k }));
            }
            // Unsplittable (continuous plan, streaming fallback, or a
            // degenerate region): run the whole point on this worker.
            records => {
                let report = engine.sampled_store().get_or_compute(&key, || {
                    let mut sim = Simulation::new(p.config, p.design);
                    match records {
                        Some(records) => {
                            run_sampled(&mut sim, &records, warmup, measured, &sp.plan)
                        }
                        None => run_sampled_stream(
                            &mut sim,
                            TraceGenerator::new(p.workload, p.config.cores, p.seed()),
                            warmup,
                            measured,
                            &sp.plan,
                        ),
                    }
                });
                finish(index, report, started.elapsed().as_secs_f64(), false);
            }
        }
    };

    let run_interval_task = |index: usize, k: u64| {
        let sp = &points[index];
        let work = works[index].get().expect("point expanded before intervals");
        let started = std::time::Instant::now();
        let sample = run_interval(
            &work.base,
            &work.records,
            sp.point.warmup(),
            sp.point.measured(),
            &sp.plan,
            k,
        );
        work.slots[k as usize]
            .set(sample)
            .expect("slot written once");
        work.busy_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // The countdown elects the worker that finishes the point: the
        // last decrement observes every other slot write and busy-time
        // contribution (AcqRel).
        if work.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let intervals: Vec<IntervalSample> = work
                .slots
                .iter()
                .map(|slot| *slot.get().expect("every interval ran"))
                .collect();
            let report = engine.sampled_store().get_or_compute(&sp.key(), || {
                assemble_report(&sp.plan, sp.point.warmup(), sp.point.measured(), intervals)
            });
            let secs = work.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
            finish(index, report, secs, false);
        }
    };

    // No clamp against the point count: one point can fan out into
    // many interval tasks, so more workers than points is useful.
    pool::run_nested(
        engine.threads(),
        (0..points.len()).map(Task::Point),
        |task, queue| match task {
            Task::Point(index) => run_point(index, queue),
            Task::Interval { point, k } => run_interval_task(point, k),
        },
    );
    progress.finish_run();
    fc_obs::metrics::counter("sweep.sampled_points").add(points.len() as u64);

    points
        .iter()
        .zip(finished)
        .map(|(point, slot)| {
            let (report, sim_secs, memoized) = slot.into_inner().expect("every point ran");
            SampledResult {
                point: *point,
                report,
                sim_secs,
                memoized,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::RunScale;
    use crate::DesignSpec;
    use fc_trace::WorkloadKind;

    fn tiny_grid() -> SampledGrid {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
            &[DesignSpec::baseline(), DesignSpec::footprint(64)],
        );
        SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100))
    }

    #[test]
    fn sampled_grid_covers_spec_in_order() {
        let grid = tiny_grid();
        let results = run_sampled_grid(&grid, &SweepEngine::new().with_threads(2).quiet());
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.report.intervals.len(), 4, "2000 measured / 500 period");
            assert!(r.report.insts > 0);
            assert!(r.report.ipc.mean > 0.0);
        }
    }

    #[test]
    fn sampled_grid_is_thread_count_independent() {
        let grid = tiny_grid();
        let seq = run_sampled_grid(&grid, &SweepEngine::new().with_threads(1).quiet());
        let par = run_sampled_grid(&grid, &SweepEngine::new().with_threads(4).quiet());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.point, b.point);
            assert_eq!(*a.report, *b.report, "{} diverged", a.point.label());
        }
    }

    #[test]
    fn sampled_points_are_memoized_separately_per_plan() {
        let spec =
            SweepSpec::new(RunScale::tiny()).point(WorkloadKind::WebSearch, DesignSpec::baseline());
        let a = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100));
        let b = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(1_000, 100, 100));
        let engine = SweepEngine::new().with_threads(1).quiet();
        let ra = run_sampled_grid(&a, &engine);
        assert_eq!(engine.sampled_store().computed(), 1);
        let ra2 = run_sampled_grid(&a, &engine);
        assert_eq!(engine.sampled_store().computed(), 1, "same plan memoizes");
        assert!(Arc::ptr_eq(&ra[0].report, &ra2[0].report));
        assert!(ra2[0].memoized);
        let rb = run_sampled_grid(&b, &engine);
        assert_eq!(engine.sampled_store().computed(), 2, "new plan, new key");
        assert_ne!(ra[0].report.plan, rb[0].report.plan);
    }

    #[test]
    fn streaming_fallback_is_bit_identical() {
        let grid = tiny_grid();
        let cached = run_sampled_grid(&grid, &SweepEngine::new().with_threads(2).quiet());
        let streamed = run_sampled_grid(
            &grid,
            &SweepEngine::new()
                .with_threads(2)
                .with_trace_budget(0)
                .quiet(),
        );
        for (a, b) in cached.iter().zip(&streamed) {
            assert_eq!(*a.report, *b.report, "{}", a.point.label());
        }
    }

    // A grid whose plans actually skip (period 1000, fw 200, dw 100,
    // interval 100 → skip 600), so points expand into interval tasks
    // instead of running whole.
    fn skipping_grid() -> SampledGrid {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
            &[DesignSpec::baseline(), DesignSpec::footprint(64)],
        );
        SampledGrid::with_plan(
            &spec,
            SamplePlan::new(1_000, 200, 100, 100).with_warmup_window(1_000),
        )
    }

    /// Each point through the sequential driver, one fresh simulation
    /// per point: the reference every pool schedule must reproduce.
    fn sequential_reference(grid: &SampledGrid) -> Vec<SampledReport> {
        grid.points()
            .iter()
            .map(|sp| {
                let p = &sp.point;
                let records: Vec<TraceRecord> =
                    TraceGenerator::new(p.workload, p.config.cores, p.seed())
                        .take((p.warmup() + p.measured()) as usize)
                        .collect();
                let mut sim = Simulation::new(p.config, p.design);
                run_sampled(&mut sim, &records, p.warmup(), p.measured(), &sp.plan)
            })
            .collect()
    }

    fn assert_matches(results: &[SampledResult], reference: &[SampledReport], what: &str) {
        assert_eq!(results.len(), reference.len());
        for (r, want) in results.iter().zip(reference) {
            assert_eq!(*r.report, *want, "{}: {what}", r.point.label());
        }
    }

    #[test]
    fn pit_grid_is_bit_identical_to_sequential_at_any_worker_count() {
        let grid = skipping_grid();
        let reference = sequential_reference(&grid);
        for threads in [1, 2, 5, 9] {
            let results =
                run_sampled_grid(&grid, &SweepEngine::new().with_threads(threads).quiet());
            assert_matches(&results, &reference, &format!("{threads} threads"));
        }
    }

    #[test]
    fn pit_grid_handles_unsplittable_points_in_pool() {
        // Exhaustive plans can't split in time; the pool must run them
        // whole and still match the sequential driver.
        let grid = tiny_grid();
        let results = run_sampled_grid(&grid, &SweepEngine::new().with_threads(4).quiet());
        assert_matches(&results, &sequential_reference(&grid), "exhaustive plan");
    }

    #[test]
    fn pit_grid_shares_one_synthesis_per_workload() {
        let grid = skipping_grid();
        // Interval tasks must reuse the point's Arc'd slice, never
        // re-synthesize: fanning out across workers synthesizes
        // exactly as many records as a lone worker.
        let one = SweepEngine::new().with_threads(1).quiet();
        run_sampled_grid(&grid, &one);
        let many = SweepEngine::new().with_threads(6).quiet();
        run_sampled_grid(&grid, &many);
        assert_eq!(
            many.trace_cache().records_synthesized(),
            one.trace_cache().records_synthesized(),
            "interval workers re-synthesized trace records"
        );
    }

    #[test]
    fn trace_budgets_hold_every_trace_of_a_wide_grid() {
        // More workloads than the three entries a per-entry budget's
        // default aggregate holds: each trace is still synthesized
        // once, by the prefetch, and never again by the run.
        let workloads = [
            WorkloadKind::WebSearch,
            WorkloadKind::DataServing,
            WorkloadKind::MapReduce,
            WorkloadKind::SatSolver,
            WorkloadKind::WebFrontend,
        ];
        let spec = SweepSpec::new(RunScale::tiny())
            .grid(&workloads, &[DesignSpec::baseline(), DesignSpec::page(64)]);
        let grid = SampledGrid::auto(&spec);
        let (entry, aggregate) = grid.trace_budgets();
        assert_eq!(entry, 4_000);
        let engine = SweepEngine::new()
            .with_trace_budgets(entry, aggregate)
            .with_threads(2)
            .quiet();
        grid.prefetch_traces(&engine);
        run_sampled_grid(&grid, &engine);
        assert_eq!(
            engine.trace_cache().records_synthesized(),
            workloads.len() as u64 * 4_000,
            "a trace was evicted and synthesized again"
        );
    }

    #[test]
    fn pit_grid_memoizes_into_the_shared_store() {
        let grid = skipping_grid();
        let engine = SweepEngine::new().with_threads(4).quiet();
        let first = run_sampled_grid(&grid, &engine);
        assert_eq!(engine.sampled_store().computed(), 4);
        assert!(first.iter().all(|r| !r.memoized));
        // Second run: every point short-circuits on the memo.
        let again = run_sampled_grid(&grid, &engine);
        assert_eq!(engine.sampled_store().computed(), 4);
        for (a, b) in first.iter().zip(&again) {
            assert!(b.memoized);
            assert!(Arc::ptr_eq(&a.report, &b.report));
        }
    }

    #[test]
    fn pit_grid_streaming_fallback_covers_the_grid() {
        let grid = skipping_grid();
        let engine = SweepEngine::new()
            .with_threads(4)
            .with_trace_budget(0)
            .quiet();
        let results = run_sampled_grid(&grid, &engine);
        assert_matches(&results, &sequential_reference(&grid), "streaming fallback");
    }

    #[test]
    fn auto_grid_derives_plans_per_point() {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch],
            &[DesignSpec::baseline(), DesignSpec::banshee(64)],
        );
        let grid = SampledGrid::auto(&spec);
        assert_eq!(grid.len(), 2);
        for sp in grid.points() {
            assert!(sp.plan.validate().is_ok());
            // Tiny runs are far below the warm windows: every auto plan
            // must have fallen back to exhaustive warming.
            assert_eq!(sp.plan.skip(), 0);
        }
        assert_eq!(grid.max_records(), 4_000);
    }
}
