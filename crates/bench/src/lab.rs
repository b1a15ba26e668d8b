//! Memoized simulation runs shared across experiments — now a thin
//! wrapper over the parallel [`fc_sweep`] engine.
//!
//! Experiments declare their grids up front ([`Lab::prefetch`] builds a
//! [`SweepSpec`] and fans it out across worker threads), then read
//! individual results with [`Lab::run`], which resolves from the
//! engine's memoized [`ResultStore`](fc_sweep::ResultStore). Single
//! `run` calls for points never prefetched still work — they simulate
//! on the calling thread, exactly like the old sequential lab.

use fc_sim::{DesignSpec, SimConfig, SimReport};
use fc_sweep::{RunScale, SweepEngine, SweepPoint, SweepSpec};
use fc_trace::WorkloadKind;

/// A memoizing runner: one `(workload, design)` pair is simulated at
/// most once per lab, and prefetched grids run in parallel.
pub struct Lab {
    engine: SweepEngine,
    scale: RunScale,
    config: SimConfig,
    base_seed: u64,
    verbose: bool,
}

impl Lab {
    /// Creates a lab at the given scale, using every available core
    /// for prefetched grids.
    pub fn new(scale: RunScale) -> Self {
        Self {
            engine: SweepEngine::new(),
            scale,
            config: SimConfig::default(),
            base_seed: SweepSpec::DEFAULT_SEED,
            verbose: true,
        }
    }

    /// Changes the base seed used by both [`spec`](Lab::spec) and
    /// [`run`](Lab::run), so prefetched grids and reads always agree.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Silences per-run progress lines.
    pub fn quiet(mut self) -> Self {
        self.engine = self.engine.quiet();
        self.verbose = false;
        self
    }

    /// Sets the worker-thread count for prefetched grids (1 restores
    /// the old fully sequential behavior).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine = self.engine.with_threads(threads);
        self
    }

    /// The lab's worker-thread count (shared by prefetched grids and
    /// the loaded-latency experiment's parallel runner).
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The lab's run scale.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// The lab's sweep engine (shared memo store), for experiments
    /// that drive grids directly — e.g. the scenario-mix experiment's
    /// [`fc_sweep::run_mix`], whose solo baselines then come from the
    /// same store the figure experiments warmed.
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// The lab's base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Number of distinct simulations executed.
    pub fn runs_executed(&self) -> u64 {
        self.engine.store().computed()
    }

    /// Requests served from the memoized store.
    pub fn memo_hits(&self) -> u64 {
        self.engine.store().memo_hits()
    }

    /// An empty [`SweepSpec`] carrying this lab's scale and pod config;
    /// experiments extend it with their grids.
    pub fn spec(&self) -> SweepSpec {
        SweepSpec::new(self.scale)
            .with_config(self.config)
            .with_seed(self.base_seed)
    }

    /// The fully specified sweep point for `(workload, design)`, sized
    /// as [`SweepSpec::point`] sizes a lone point.
    fn point(&self, workload: WorkloadKind, design: DesignSpec) -> SweepPoint {
        self.spec().point(workload, design).points()[0]
    }

    /// Runs the `workloads × designs` grid in parallel, warming the
    /// memo store so subsequent [`run`](Lab::run) calls are lookups:
    /// every point is added alone, so a capacity-independent design is
    /// sized exactly as `run` reads it back.
    pub fn prefetch(&mut self, workloads: &[WorkloadKind], designs: &[DesignSpec]) {
        let mut spec = self.spec();
        for &workload in workloads {
            for &design in designs {
                spec = spec.point(workload, design);
            }
        }
        self.prefetch_spec(&spec.dedup());
    }

    /// Runs an explicit spec through the engine (parallel, memoized).
    pub fn prefetch_spec(&mut self, spec: &SweepSpec) {
        self.engine.run_spec(spec);
    }

    /// Runs (or reuses) the simulation of `design` on `workload`.
    pub fn run(&mut self, workload: WorkloadKind, design: DesignSpec) -> SimReport {
        let point = self.point(workload, design);
        if self.verbose && self.engine.store().get(&point.key()).is_none() {
            eprintln!(
                "[lab] {} (warmup {}, measured {})",
                point.label(),
                point.warmup(),
                point.measured()
            );
        }
        (*self.engine.run_point(&point)).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_scale() -> RunScale {
        RunScale {
            warmup_base: 500,
            warmup_per_mb: 0,
            measured_base: 500,
            measured_per_mb: 0,
        }
    }

    #[test]
    fn runs_are_memoized() {
        let mut lab = Lab::new(test_scale()).quiet();
        let a = lab.run(WorkloadKind::WebSearch, DesignSpec::baseline());
        let b = lab.run(WorkloadKind::WebSearch, DesignSpec::baseline());
        assert_eq!(lab.runs_executed(), 1);
        assert_eq!(a.insts, b.insts);
    }

    #[test]
    fn prefetch_makes_runs_lookups() {
        let mut lab = Lab::new(test_scale()).quiet().with_threads(2);
        let workloads = [WorkloadKind::WebSearch, WorkloadKind::MapReduce];
        let designs = [DesignSpec::baseline(), DesignSpec::footprint(64)];
        lab.prefetch(&workloads, &designs);
        assert_eq!(lab.runs_executed(), 4);
        for w in workloads {
            for d in designs {
                lab.run(w, d);
            }
        }
        assert_eq!(lab.runs_executed(), 4, "reads resolved from the store");
        assert!(lab.memo_hits() >= 4);
    }

    #[test]
    fn prefetched_capacity_less_designs_are_read_back_from_the_store() {
        // At a capacity-scaled sizing, a grid sizes its baseline by its
        // smallest cached capacity; the lab sizes both sides alone.
        let mut lab = Lab::new(RunScale {
            warmup_base: 500,
            warmup_per_mb: 10,
            measured_base: 500,
            measured_per_mb: 10,
        })
        .quiet();
        lab.prefetch(
            &[WorkloadKind::WebSearch],
            &[DesignSpec::baseline(), DesignSpec::footprint(8)],
        );
        assert_eq!(lab.runs_executed(), 2);
        lab.run(WorkloadKind::WebSearch, DesignSpec::baseline());
        lab.run(WorkloadKind::WebSearch, DesignSpec::footprint(8));
        assert_eq!(lab.runs_executed(), 2, "reads resolved from the store");
    }

    #[test]
    fn custom_seed_flows_through_prefetch_and_run() {
        let mut lab = Lab::new(test_scale()).quiet().with_seed(7);
        lab.prefetch(&[WorkloadKind::WebSearch], &[DesignSpec::baseline()]);
        assert_eq!(lab.runs_executed(), 1);
        lab.run(WorkloadKind::WebSearch, DesignSpec::baseline());
        assert_eq!(lab.runs_executed(), 1, "run() must hit the seed-7 grid");

        let mut default_seed = Lab::new(test_scale()).quiet();
        let a = lab.run(WorkloadKind::WebSearch, DesignSpec::baseline());
        let b = default_seed.run(WorkloadKind::WebSearch, DesignSpec::baseline());
        assert_ne!(a.cycles, b.cycles, "different seeds, different replay");
    }

    #[test]
    fn prefetched_grid_matches_direct_runs() {
        let mut parallel = Lab::new(test_scale()).quiet().with_threads(4);
        parallel.prefetch(&[WorkloadKind::DataServing], &[DesignSpec::page(64)]);
        let from_grid = parallel.run(WorkloadKind::DataServing, DesignSpec::page(64));

        let mut sequential = Lab::new(test_scale()).quiet().with_threads(1);
        let direct = sequential.run(WorkloadKind::DataServing, DesignSpec::page(64));
        assert_eq!(from_grid, direct);
    }
}
