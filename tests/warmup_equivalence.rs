//! Functional warm-up with a detailed tail measures exactly like an
//! all-detailed warm-up.
//!
//! Every detailed point warms up through `Simulation::warm_up`: all but
//! the last `DETAILED_TAIL` warm-up records replay functionally. The
//! reference here replays the whole warm-up through the detailed engine
//! (`step_slice`, then `drain`), as every point once did, and the two
//! reports must be equal field for field — no tolerance.
//!
//! The metrics registry is process-global, so the tests that read its
//! warm-up counters serialize on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use fc_obs::metrics;
use fc_sim::{
    resolve_scenarios, DesignSpec, SimConfig, SimReport, Simulation, DESIGN_FAMILIES, DETAILED_TAIL,
};
use fc_sweep::{run_mix, MixGrid, RunScale, SweepEngine, SweepSpec};
use fc_trace::{ScenarioGenerator, TraceRecord, WorkloadKind};

/// Serializes the tests that read the warm-up counters. The gate guards
/// no data, so a test that failed while holding it leaves nothing to
/// recover: the others still run and report their own result.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The all-detailed reference: detailed warm-up, drain, measure.
fn all_detailed(
    config: SimConfig,
    design: DesignSpec,
    records: &[TraceRecord],
    warmup: u64,
    measured: u64,
) -> SimReport {
    let mut sim = Simulation::new(config, design);
    let (warm, meas) = records[..(warmup + measured) as usize].split_at(warmup as usize);
    sim.step_slice(warm);
    sim.drain();
    let snapshot = sim.snapshot();
    sim.run_records(meas.iter().copied(), &snapshot)
}

/// Runs `spec` through a fresh engine and checks every point against
/// the all-detailed reference over the engine's own cached trace.
/// Returns the engine's functional and detailed warm-up record counts.
fn check_spec(spec: &SweepSpec) -> (u64, u64) {
    let before = metrics::snapshot();
    let engine = SweepEngine::new().with_threads(2).quiet();
    let results = engine.run_spec(spec);
    let delta = metrics::snapshot().delta(&before);
    std::thread::scope(|s| {
        for half in results.chunks(results.len().div_ceil(2)) {
            let engine = &engine;
            s.spawn(move || {
                for result in half {
                    let p = &result.point;
                    let (warmup, measured) = (p.warmup(), p.measured());
                    let records = engine
                        .trace_cache()
                        .records(p.workload, p.config.cores, p.seed(), warmup + measured)
                        .expect("the trace fits the trace cache");
                    let reference = all_detailed(p.config, p.design, &records, warmup, measured);
                    assert_eq!(*result.report, reference, "{} diverged", p.label());
                }
            });
        }
    });
    let count = |name| delta.counter(name).unwrap_or(0);
    (
        count("sim.records.warmup.functional"),
        count("sim.records.warmup.detailed"),
    )
}

#[test]
fn detailed_points_match_all_detailed_warmup() {
    let _gate = gate();
    let every_family: Vec<DesignSpec> = DESIGN_FAMILIES.iter().map(|f| f.build(64)).collect();
    let large = [
        DesignSpec::page(256),
        DesignSpec::footprint(256),
        DesignSpec::banshee(256),
    ];
    let spec = SweepSpec::new(RunScale::quick())
        .grid(
            &[
                WorkloadKind::WebSearch,
                WorkloadKind::DataServing,
                WorkloadKind::MapReduce,
            ],
            &every_family,
        )
        .grid(&[WorkloadKind::WebSearch], &large);
    let (functional, detailed) = check_spec(&spec);
    let points = spec.points();
    let warmup: u64 = points.iter().map(|p| p.warmup()).sum();
    assert!(points.iter().all(|p| p.warmup() > DETAILED_TAIL));
    assert_eq!(detailed, points.len() as u64 * DETAILED_TAIL);
    assert_eq!(functional + detailed, warmup);
}

#[test]
fn tiny_points_warm_up_all_detailed() {
    let _gate = gate();
    let spec = SweepSpec::new(RunScale::tiny())
        .grid(&[WorkloadKind::WebSearch], &[DesignSpec::footprint(64)]);
    let (functional, detailed) = check_spec(&spec);
    assert_eq!(functional, 0);
    assert_eq!(detailed, spec.points()[0].warmup());
}

#[test]
fn mix_points_match_all_detailed_warmup() {
    let _gate = gate();
    let config = SimConfig::default();
    let scenario = resolve_scenarios("dsmr", config.cores).unwrap().remove(0);
    let grid = MixGrid::new(
        vec![scenario.clone()],
        vec![DesignSpec::footprint(64)],
        RunScale::quick(),
    );
    let engine = SweepEngine::new().with_threads(2).quiet();
    let result = run_mix(&grid, &engine).remove(0);
    let p = &result.point;
    let (warmup, measured) = (p.warmup(), p.measured());
    assert!(warmup > DETAILED_TAIL);
    let records: Vec<TraceRecord> = ScenarioGenerator::new(&scenario, p.seed())
        .take((warmup + measured) as usize)
        .collect();
    let reference = all_detailed(config, p.design, &records, warmup, measured);
    assert_eq!(*result.report, reference, "{} diverged", p.label());
    // The streaming scenario driver warms up the same way.
    let streamed =
        Simulation::new(config, p.design).run_scenario(&scenario, p.seed(), warmup, measured);
    assert_eq!(streamed, reference, "{} streamed", p.label());
}
