//! The parallel sweep executor.
//!
//! Every fresh point warms up through [`Simulation::warm_up`]: the
//! warm-up replays functionally up to its last
//! [`DETAILED_TAIL`](fc_sim::DETAILED_TAIL) records, which replay
//! detailed before the measured window. Reports equal an all-detailed
//! warm-up's, so the point key does not encode the warm-up mode.

use std::sync::Arc;

use fc_obs::{metrics, trace};
use fc_sim::{SimReport, Simulation};

use crate::pool;
use crate::progress::{Progress, ProgressSink};
use crate::spec::{SweepPoint, SweepSpec};
use crate::store::ResultStore;
use crate::trace_cache::TraceCache;

/// One finished sweep point.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The point that was run.
    pub point: SweepPoint,
    /// Its (possibly memoized) report.
    pub report: Arc<SimReport>,
    /// Wall-clock seconds this worker spent obtaining the report
    /// (near zero for memoized points). Timing only — never part of
    /// the deterministic result.
    pub sim_secs: f64,
    /// Whether the report came from the memo store.
    pub memoized: bool,
}

/// The self-balancing parallel executor. Points run on the crate's
/// shared worker pool: an idle worker claims the next unclaimed point,
/// so heterogeneous grids (64 MB next to 512 MB runs) stay
/// load-balanced without any up-front partitioning.
///
/// **Determinism:** each point is simulated by a fresh
/// [`Simulation`] seeded purely from the point
/// ([`SweepPoint::seed`]), so the report for a point is bit-identical
/// whatever the thread count or claim order; only scheduling varies.
/// Results are additionally memoized in a [`ResultStore`] keyed by the
/// point's stable configuration hash, so resubmitting a point — within
/// one spec or across specs — never re-simulates it.
pub struct SweepEngine {
    store: Arc<ResultStore>,
    sampled: Arc<ResultStore<fc_sample::SampledReport>>,
    traces: Arc<TraceCache>,
    threads: usize,
    verbose: bool,
    jsonl: Option<ProgressSink>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine using every available core, a fresh result store and
    /// the default trace-cache budget.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            store: Arc::new(ResultStore::new()),
            sampled: Arc::new(ResultStore::new()),
            traces: Arc::new(TraceCache::default()),
            threads,
            verbose: true,
            jsonl: None,
        }
    }

    /// Sets the worker-thread count (1 = fully sequential), trace
    /// synthesis included.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.traces.set_workers(self.threads);
        self
    }

    /// Backs the engine's result store with the durable shard
    /// directory at `dir`: results computed by this engine persist,
    /// and previously persisted points are recalled instead of
    /// re-simulated. The sampled store stays in-memory (sampled grids
    /// are cheap to recompute by design).
    pub fn with_durable_store(mut self, dir: &std::path::Path) -> Result<Self, String> {
        self.store = Arc::new(ResultStore::durable(dir)?);
        Ok(self)
    }

    /// Caps the per-workload trace cache at `budget_records` records.
    pub fn with_trace_budget(self, budget_records: usize) -> Self {
        self.with_trace_budgets(budget_records, budget_records.saturating_mul(3))
    }

    /// Caps the trace cache at `budget_records` records per workload
    /// and `aggregate_records` across workloads
    /// ([`TraceCache::with_aggregate_budget`]).
    pub fn with_trace_budgets(mut self, budget_records: usize, aggregate_records: usize) -> Self {
        self.traces = Arc::new(TraceCache::with_aggregate_budget(
            budget_records,
            aggregate_records,
        ));
        self.traces.set_workers(self.threads);
        self
    }

    /// Silences per-point progress lines.
    pub fn quiet(mut self) -> Self {
        self.verbose = false;
        self
    }

    /// Streams structured progress events (one JSON object per point,
    /// plus a final summary) into `sink` — the `--progress-jsonl`
    /// plumbing.
    pub fn with_progress_jsonl(mut self, sink: ProgressSink) -> Self {
        self.jsonl = Some(sink);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The memoized result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// The memoized sampled-result store (keys carry the sample plan;
    /// see [`run_sampled_grid`](crate::run_sampled_grid)).
    pub fn sampled_store(&self) -> &ResultStore<fc_sample::SampledReport> {
        &self.sampled
    }

    /// The shared trace cache.
    pub fn trace_cache(&self) -> &TraceCache {
        &self.traces
    }

    /// A progress tracker for `total` points wired to this engine's
    /// verbosity and `--progress-jsonl` sink (shared with the sampled
    /// runner, which finishes points from inside its own task queue).
    pub(crate) fn progress_for(&self, total: usize) -> Progress {
        Progress::new(total, self.verbose).with_jsonl(self.jsonl.clone())
    }

    /// Runs every point of `spec` (in parallel when the engine has >1
    /// thread), returning results in spec order.
    pub fn run_spec(&self, spec: &SweepSpec) -> Vec<SweepResult> {
        let points = spec.points();
        let progress = self.progress_for(points.len());
        let outcomes = pool::par_map(self.threads, points, |point| {
            self.run_point_tracked(point, &progress)
        });
        progress.finish_run();
        metrics::counter("sweep.points").add(points.len() as u64);
        metrics::counter("sweep.memo_hits").add(progress.memo_hits() as u64);

        points
            .iter()
            .zip(outcomes)
            .map(|(&point, (report, sim_secs, memoized))| SweepResult {
                point,
                report,
                sim_secs,
                memoized,
            })
            .collect()
    }

    /// Runs (or recalls) a single point.
    pub fn run_point(&self, point: &SweepPoint) -> Arc<SimReport> {
        self.store
            .get_or_compute(&point.key(), || self.simulate(point))
    }

    fn run_point_tracked(
        &self,
        point: &SweepPoint,
        progress: &Progress,
    ) -> (Arc<SimReport>, f64, bool) {
        let _point_span = trace::span_with("point", "sweep", || point.label());
        let key = point.key();
        let memoized = {
            let _span = trace::span("memo-lookup", "sweep");
            self.store.get(&key).is_some()
        };
        if memoized {
            trace::instant("memo-hit", "sweep", || point.label());
        }
        let started = std::time::Instant::now();
        let report = self.store.get_or_compute(&key, || self.simulate(point));
        let sim_secs = started.elapsed().as_secs_f64();
        if !memoized {
            // Fresh simulations (not memo recalls) feed the registry,
            // so counters reflect work actually performed. The
            // per-design counter is what the serve watchdog compares
            // against `bench_floor.json` (same label on both sides).
            report.publish_metrics();
            metrics::counter_named(&format!(
                "{}{}",
                fc_obs::watchdog::FRESH_COUNTER_PREFIX,
                point.design.label()
            ))
            .inc();
        }
        progress.finish_point(&point.label(), memoized);
        (report, sim_secs, memoized)
    }

    /// Simulates one point from scratch. When the run fits the
    /// trace-cache budget, it replays the shared cached trace over the
    /// trace's shared L2 outcomes ([`TraceCache::filtered`]); otherwise
    /// it streams records from a fresh generator through a live L2.
    /// Both paths replay the identical record sequence through
    /// [`Simulation::run_trace`] and yield the identical report.
    fn simulate(&self, point: &SweepPoint) -> SimReport {
        let warmup = point.warmup();
        let measured = point.measured();
        let mut sim;
        let report = match self.traces.filtered(
            point.workload,
            &point.config,
            point.seed(),
            warmup + measured,
        ) {
            Some((records, outcomes)) => {
                sim = Simulation::filtered(point.config, point.design, outcomes);
                sim.run_trace(records.iter().copied(), warmup, measured)
            }
            None => {
                sim = Simulation::new(point.config, point.design);
                sim.run_workload(point.workload, point.seed(), warmup, measured)
            }
        };
        metrics::counter("sweep.simulations").inc();
        if fc_obs::series::enabled() {
            sim.memsys().publish_timelines(&point.label());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::RunScale;
    use fc_sim::DesignSpec;
    use fc_trace::WorkloadKind;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
            &[DesignSpec::baseline(), DesignSpec::footprint(64)],
        )
    }

    #[test]
    fn parallel_equals_sequential() {
        let spec = tiny_spec();
        let seq = SweepEngine::new().with_threads(1).quiet().run_spec(&spec);
        let par = SweepEngine::new().with_threads(4).quiet().run_spec(&spec);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.point, b.point);
            assert_eq!(*a.report, *b.report, "{} diverged", a.point.label());
        }
    }

    #[test]
    fn resubmission_is_memoized() {
        let spec = tiny_spec();
        let engine = SweepEngine::new().with_threads(2).quiet();
        let first = engine.run_spec(&spec);
        let computed = engine.store().computed();
        assert_eq!(computed, spec.len() as u64);
        let second = engine.run_spec(&spec);
        assert_eq!(engine.store().computed(), computed, "no new simulations");
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&a.report, &b.report), "cached Arc reused");
        }
    }

    #[test]
    fn cached_trace_path_equals_streaming_path() {
        // Every registry family at two capacities on one engine: the
        // larger capacity extends the cached prefix and refilters it.
        // A second L2 geometry then shares the same cache entry.
        use fc_sim::{SimConfig, DESIGN_FAMILIES};
        let workload = WorkloadKind::WebSearch;
        let designs: Vec<DesignSpec> = [8, 64]
            .into_iter()
            .flat_map(|mb| {
                DESIGN_FAMILIES
                    .iter()
                    .filter(move |f| f.scales_with_capacity || mb == 64)
                    .map(move |f| f.build(mb))
            })
            .collect();
        let other_l2 = SimConfig {
            l2_bytes: 2 << 20,
            l2_ways: 8,
            ..SimConfig::default()
        };
        let specs = [
            SweepSpec::new(RunScale::quick()).grid(&[workload], &designs),
            SweepSpec::new(RunScale::quick())
                .with_config(other_l2)
                .grid(
                    &[workload],
                    &designs[designs.len() - DESIGN_FAMILIES.len()..],
                ),
        ];
        // Budget of zero forces the streaming fallback.
        let streaming = SweepEngine::new()
            .with_threads(2)
            .with_trace_budget(0)
            .quiet();
        let cached = SweepEngine::new().with_threads(2).quiet();
        for spec in &specs {
            for (a, b) in streaming.run_spec(spec).iter().zip(cached.run_spec(spec)) {
                assert_eq!(a.point, b.point);
                assert_eq!(*a.report, *b.report, "{} diverged", a.point.label());
            }
        }
        let len = |mb| RunScale::quick().warmup(mb) + RunScale::quick().measured(mb);
        assert_eq!(cached.trace_cache().records_synthesized(), len(64));
        // One filter per (length, geometry), not one L2 per point.
        assert_eq!(
            cached.trace_cache().records_filtered(),
            len(8) + 2 * len(64)
        );
        assert_eq!(streaming.trace_cache().records_filtered(), 0);
    }

    #[test]
    fn trace_synthesis_is_shared_across_designs() {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch],
            &[
                DesignSpec::baseline(),
                DesignSpec::page(64),
                DesignSpec::footprint(64),
            ],
        );
        let engine = SweepEngine::new().with_threads(1).quiet();
        engine.run_spec(&spec);
        let per_run = RunScale::tiny().warmup(64) + RunScale::tiny().measured(64);
        // One synthesis for three designs, not three.
        assert_eq!(engine.trace_cache().records_synthesized(), per_run);
    }
}
