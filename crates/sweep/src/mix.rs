//! The scenario-mix sweep: consolidation scenarios × designs, in
//! parallel, with solo-run baselines and consolidation metrics.
//!
//! A mix point replays a [`ScenarioSpec`] — a (possibly different)
//! workload per core — through a design and measures per-core IPC and
//! MPKI. To turn those into consolidation metrics (weighted speedup,
//! fairness), every distinct workload of the grid also runs **solo**
//! (the ordinary homogeneous sweep point on the same design), and each
//! core's mix IPC is normalized by its workload's solo IPC on that
//! core. Solo runs go through the shared [`SweepEngine`], so they are
//! memoized across scenarios, across designs, and with any other grid
//! the engine has run.
//!
//! For scenarios with a phase schedule, the baseline (and the
//! `core_workload` label in the emitters) uses each core's **phase-0**
//! assignment — a documented approximation: a core that rotates
//! through several workloads is normalized by the one it started
//! with, so phased weighted speedups compare against a fixed-
//! assignment counterfactual rather than a per-phase blend.
//!
//! Determinism matches the rest of the sweep subsystem: a mix point's
//! seed is a pure function of the point (scenario canonical JSON +
//! base seed), every point simulates on a fresh
//! [`Simulation`], and per-scenario record streams
//! are synthesized once and shared read-only — results are
//! bit-identical for any worker-thread count.

use std::sync::{Arc, OnceLock};

use fc_sim::{consolidation, ConsolidationReport, ScenarioSpec, SimConfig, SimReport, Simulation};
use fc_trace::{ScenarioGenerator, TraceRecord};

use crate::executor::SweepEngine;
use crate::pool;
use crate::scale::RunScale;
use crate::spec::{SweepPoint, SweepSpec};
use crate::store::PointKey;
use crate::{DesignSpec, WorkloadKind};

/// One experiment in a mix sweep: a scenario replayed through a design.
#[derive(Clone, Debug, PartialEq)]
pub struct MixPoint {
    /// The consolidation scenario (one workload per core).
    pub scenario: ScenarioSpec,
    /// Memory-system design under evaluation.
    pub design: DesignSpec,
    /// Pod configuration (cores must match the scenario).
    pub config: SimConfig,
    /// Run sizing.
    pub scale: RunScale,
    /// Base seed the per-point seed is derived from.
    pub base_seed: u64,
}

impl MixPoint {
    /// The trace seed: a pure function of `(base seed, scenario)` —
    /// never of the design, so every design evaluated on a scenario
    /// replays the same record stream and the per-scenario trace cache
    /// can share it. Mirrors [`SweepPoint::seed`]'s discipline on the
    /// scenario axis.
    pub fn seed(&self) -> u64 {
        self.base_seed ^ PointKey::from_canonical(self.scenario.to_json()).hash64()
    }

    /// Stacked capacity in MB used for run sizing.
    pub fn capacity_mb(&self) -> u64 {
        RunScale::sizing_capacity(self.design.capacity_mb())
    }

    /// Warmup records for this point.
    pub fn warmup(&self) -> u64 {
        self.scale.warmup(self.capacity_mb())
    }

    /// Measured records for this point.
    pub fn measured(&self) -> u64 {
        self.scale.measured(self.capacity_mb())
    }

    /// Human-readable label (progress lines, result emitters).
    pub fn label(&self) -> String {
        format!("{} / {}", self.scenario.name, self.design.label())
    }

    /// The canonical text encoding of everything that influences this
    /// point's result (scenario JSON + design JSON + pod config + scale
    /// + seed). Distinct configurations never alias.
    pub fn canonical(&self) -> String {
        format!(
            "mix|{}|{}|{:?}|{:?}|{}",
            self.scenario.to_json(),
            self.design.to_json(),
            self.config,
            self.scale,
            self.base_seed
        )
    }

    /// Stable memoization key for this point.
    pub fn key(&self) -> PointKey {
        PointKey::from_canonical(self.canonical())
    }

    /// The homogeneous solo point for `workload` on this point's
    /// design — the baseline the consolidation metrics normalize by.
    pub fn solo_point(&self, workload: WorkloadKind) -> SweepPoint {
        SweepPoint {
            workload,
            design: self.design,
            config: self.config,
            scale: self.scale,
            base_seed: self.base_seed,
        }
    }
}

/// A declarative mix grid: the cross product `scenarios × designs`.
#[derive(Clone, Debug)]
pub struct MixGrid {
    /// Consolidation scenarios (each must assign `config.cores` cores).
    pub scenarios: Vec<ScenarioSpec>,
    /// Designs under evaluation.
    pub designs: Vec<DesignSpec>,
    /// Pod configuration shared by every point.
    pub config: SimConfig,
    /// Run sizing shared by every point.
    pub scale: RunScale,
    /// Base seed.
    pub base_seed: u64,
}

impl MixGrid {
    /// A grid at `scale` with the default pod config and seed.
    pub fn new(scenarios: Vec<ScenarioSpec>, designs: Vec<DesignSpec>, scale: RunScale) -> Self {
        Self {
            scenarios,
            designs,
            config: SimConfig::default(),
            scale,
            base_seed: SweepSpec::DEFAULT_SEED,
        }
    }

    /// Sets the pod configuration (builder-style).
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the base seed (builder-style).
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// The fully specified points, scenario-major in grid order.
    pub fn points(&self) -> Vec<MixPoint> {
        self.scenarios
            .iter()
            .flat_map(|scenario| {
                self.designs.iter().map(move |design| MixPoint {
                    scenario: scenario.clone(),
                    design: *design,
                    config: self.config,
                    scale: self.scale,
                    base_seed: self.base_seed,
                })
            })
            .collect()
    }

    /// Number of mix points (scenarios × designs).
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.designs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The solo-baseline spec: every distinct workload of every
    /// scenario crossed with every design.
    pub fn solo_spec(&self) -> SweepSpec {
        let mut workloads: Vec<WorkloadKind> = Vec::new();
        for scenario in &self.scenarios {
            for w in scenario.workloads() {
                if !workloads.contains(&w) {
                    workloads.push(w);
                }
            }
        }
        SweepSpec::new(self.scale)
            .with_config(self.config)
            .with_seed(self.base_seed)
            .grid(&workloads, &self.designs)
            .dedup()
    }
}

/// One finished mix point.
#[derive(Clone, Debug)]
pub struct MixResult {
    /// The point that was run.
    pub point: MixPoint,
    /// The mix run's (possibly memoized) report, per-core counters
    /// included.
    pub report: Arc<SimReport>,
    /// Per-core solo-IPC baselines (core `i`'s phase-0 workload run
    /// homogeneously on the same design, read at core `i`).
    pub solo_ipc: Vec<f64>,
    /// Consolidation metrics derived from `report` and `solo_ipc`.
    pub consolidation: ConsolidationReport,
    /// Wall-clock seconds spent obtaining the mix report (near zero
    /// for memoized points). Timing only — never part of the result.
    pub sim_secs: f64,
    /// Whether the mix report came from the memo store.
    pub memoized: bool,
}

/// Runs a mix grid through `engine`: solo baselines first (parallel,
/// memoized), then every mix point (parallel, memoized under its own
/// key), returning results in grid order. Bit-identical for any
/// engine thread count.
///
/// # Panics
///
/// Panics if a scenario's core count differs from the grid's pod
/// configuration.
pub fn run_mix(grid: &MixGrid, engine: &SweepEngine) -> Vec<MixResult> {
    for scenario in &grid.scenarios {
        assert_eq!(
            scenario.cores(),
            grid.config.cores,
            "scenario `{}` assigns {} cores but the grid's pod has {}",
            scenario.name,
            scenario.cores(),
            grid.config.cores
        );
    }

    // Solo baselines through the shared engine (memoized across
    // scenarios, designs, and earlier grids).
    let solo_results = engine.run_spec(&grid.solo_spec());
    let solo_ipc = |point: &MixPoint, core: usize| -> f64 {
        let workload = point.scenario.workload_at(core as u8, 0);
        let solo = point.solo_point(workload);
        solo_results
            .iter()
            .find(|r| r.point == solo)
            .map(|r| r.report.per_core[core].ipc())
            .expect("solo spec covers every (workload, design) of the grid")
    };

    // One shared record stream per scenario: synthesized lazily by the
    // first worker that needs it, sized for the grid's longest run.
    let max_records: u64 = grid
        .points()
        .iter()
        .map(|p| p.warmup() + p.measured())
        .max()
        .unwrap_or(0);
    let traces: Vec<OnceLock<Arc<Vec<TraceRecord>>>> =
        grid.scenarios.iter().map(|_| OnceLock::new()).collect();

    let points = grid.points();
    let indexed: Vec<(usize, &MixPoint)> = points.iter().enumerate().collect();
    let outcomes = pool::par_map(engine.threads(), &indexed, |&(index, point)| {
        let key = point.key();
        let memoized = engine.store().get(&key).is_some();
        let started = std::time::Instant::now();
        let report = engine.store().get_or_compute(&key, || {
            let scenario_index = index / grid.designs.len();
            let records = traces[scenario_index].get_or_init(|| {
                Arc::new(
                    ScenarioGenerator::new(&point.scenario, point.seed())
                        .take(max_records as usize)
                        .collect(),
                )
            });
            Simulation::new(point.config, point.design).run_trace(
                records.iter().copied(),
                point.warmup(),
                point.measured(),
            )
        });
        (report, started.elapsed().as_secs_f64(), memoized)
    });

    points
        .into_iter()
        .zip(outcomes)
        .map(|(point, (report, sim_secs, memoized))| {
            let solo: Vec<f64> = (0..point.config.cores as usize)
                .map(|core| solo_ipc(&point, core))
                .collect();
            let consolidation = consolidation(&report, &solo);
            MixResult {
                point,
                report,
                solo_ipc: solo,
                consolidation,
                sim_secs,
                memoized,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_sim::resolve_scenarios;

    fn tiny_grid() -> MixGrid {
        MixGrid::new(
            vec![
                ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, 4),
                ScenarioSpec::homogeneous(WorkloadKind::WebSearch, 4),
            ],
            vec![DesignSpec::baseline(), DesignSpec::footprint(64)],
            RunScale::tiny(),
        )
        .with_config(SimConfig::small())
    }

    #[test]
    fn mix_results_cover_the_grid_in_order() {
        let grid = tiny_grid();
        let results = run_mix(&grid, &SweepEngine::new().with_threads(2).quiet());
        assert_eq!(results.len(), grid.len());
        assert_eq!(results[0].point.scenario.name, "Data Serving+MapReduce");
        assert_eq!(results[0].point.design.label(), "Baseline");
        assert_eq!(results[3].point.design.label(), "Footprint 64MB");
        for r in &results {
            assert_eq!(r.report.per_core.len(), 4);
            assert!(r.report.per_core.iter().all(|c| c.insts > 0));
            assert_eq!(r.solo_ipc.len(), 4);
            assert!(r.consolidation.weighted_speedup > 0.0);
            assert!(r.consolidation.fairness > 0.0 && r.consolidation.fairness <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn mix_grid_is_thread_count_independent() {
        let grid = tiny_grid();
        let seq = run_mix(&grid, &SweepEngine::new().with_threads(1).quiet());
        let par = run_mix(&grid, &SweepEngine::new().with_threads(4).quiet());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.point, b.point);
            assert_eq!(*a.report, *b.report, "{} diverged", a.point.label());
            assert_eq!(a.solo_ipc, b.solo_ipc);
            assert_eq!(a.consolidation, b.consolidation);
        }
    }

    #[test]
    fn mix_points_are_memoized() {
        let grid = tiny_grid();
        let engine = SweepEngine::new().with_threads(2).quiet();
        let first = run_mix(&grid, &engine);
        let computed = engine.store().computed();
        let second = run_mix(&grid, &engine);
        assert_eq!(engine.store().computed(), computed, "no new simulations");
        assert!(second.iter().all(|r| r.memoized));
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&a.report, &b.report));
        }
    }

    #[test]
    fn homogeneous_mix_speedup_is_near_unity() {
        // A homogeneous scenario through the mix path is its own solo
        // baseline (modulo address salting), so consolidation should
        // be roughly free and fair.
        let grid = MixGrid::new(
            vec![ScenarioSpec::homogeneous(WorkloadKind::WebSearch, 4)],
            vec![DesignSpec::footprint(64)],
            RunScale::tiny(),
        )
        .with_config(SimConfig::small());
        let results = run_mix(&grid, &SweepEngine::new().quiet());
        let c = &results[0].consolidation;
        assert!(
            (0.7..=1.3).contains(&c.weighted_speedup),
            "homogeneous weighted speedup {}",
            c.weighted_speedup
        );
        assert!(c.fairness > 0.9, "homogeneous fairness {}", c.fairness);
    }

    #[test]
    fn scenario_seed_is_design_independent() {
        let grid = tiny_grid();
        let points = grid.points();
        assert_eq!(points[0].seed(), points[1].seed(), "same scenario");
        assert_ne!(points[0].seed(), points[2].seed(), "different scenario");
    }

    #[test]
    fn registry_scenarios_run_through_the_grid() {
        let scenarios = resolve_scenarios("dsmr", 4).unwrap();
        let grid = MixGrid::new(scenarios, vec![DesignSpec::page(64)], RunScale::tiny())
            .with_config(SimConfig::small());
        let results = run_mix(&grid, &SweepEngine::new().quiet());
        assert_eq!(results.len(), 1);
    }

    #[test]
    #[should_panic(expected = "assigns 8 cores")]
    fn mismatched_scenario_cores_rejected() {
        let grid = MixGrid::new(
            vec![ScenarioSpec::all_different(8)],
            vec![DesignSpec::baseline()],
            RunScale::tiny(),
        )
        .with_config(SimConfig::small());
        run_mix(&grid, &SweepEngine::new().quiet());
    }
}
