//! Acceptance tests for the scenario-mix subsystem: a heterogeneous
//! Data Serving + MapReduce scenario runs deterministically through
//! the mix grid with 1-vs-N-thread bit-equality, per-core IPC/MPKI in
//! the emitted JSON, and weighted speedup computed against
//! solo-run baselines.

use fc_sweep::{
    emit, run_mix, DesignSpec, MixGrid, RunScale, ScenarioSpec, SimConfig, SweepEngine,
    WorkloadKind,
};

fn acceptance_grid() -> MixGrid {
    MixGrid::new(
        vec![ScenarioSpec::split(
            WorkloadKind::DataServing,
            WorkloadKind::MapReduce,
            16,
        )],
        vec![
            DesignSpec::baseline(),
            DesignSpec::page(64),
            DesignSpec::footprint(64),
        ],
        RunScale::tiny(),
    )
}

#[test]
fn heterogeneous_scenario_is_thread_count_independent() {
    let grid = acceptance_grid();
    let seq = run_mix(&grid, &SweepEngine::new().with_threads(1).quiet());
    let par = run_mix(&grid, &SweepEngine::new().with_threads(4).quiet());
    assert_eq!(seq.len(), grid.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.point, b.point, "result order must match grid order");
        assert_eq!(
            *a.report,
            *b.report,
            "{}: parallel mix run diverged (per-core counters included)",
            a.point.label()
        );
        assert_eq!(a.solo_ipc, b.solo_ipc);
        assert_eq!(a.consolidation, b.consolidation);
    }
}

#[test]
fn mix_reports_carry_meaningful_per_core_stats() {
    let grid = acceptance_grid();
    let results = run_mix(&grid, &SweepEngine::new().quiet());
    for r in &results {
        assert_eq!(r.report.per_core.len(), 16);
        let per_core_insts: u64 = r.report.per_core.iter().map(|c| c.insts).sum();
        assert_eq!(per_core_insts, r.report.insts, "{}", r.point.label());
        let per_core_misses: u64 = r.report.per_core.iter().map(|c| c.l2_misses).sum();
        assert_eq!(
            per_core_misses,
            r.report.cache.accesses,
            "{}: every DRAM-level access is some core's L2 miss",
            r.point.label()
        );
        for (core, c) in r.report.per_core.iter().enumerate() {
            assert!(
                c.insts > 0,
                "{} core {core} committed nothing",
                r.point.label()
            );
            assert!(c.ipc() > 0.0);
            assert!(c.mpki() >= 0.0);
        }
        // Every core's clock advanced over the interval.
        assert!(r.report.per_core.iter().all(|c| c.cycles > 0));
    }
}

#[test]
fn weighted_speedup_uses_solo_baselines() {
    let grid = acceptance_grid();
    let engine = SweepEngine::new().quiet();
    let results = run_mix(&grid, &engine);
    for r in &results {
        assert_eq!(r.solo_ipc.len(), 16);
        assert!(r.solo_ipc.iter().all(|&ipc| ipc > 0.0));
        // The consolidation metrics recompute from report + baselines.
        let expect = fc_sim::consolidation(&r.report, &r.solo_ipc);
        assert_eq!(r.consolidation, expect);
        assert!(r.consolidation.weighted_speedup > 0.0);
        assert!(r.consolidation.fairness > 0.0 && r.consolidation.fairness <= 1.0 + 1e-12);
    }
    // The solo baselines were served by the shared engine: the store
    // holds the homogeneous DataServing/MapReduce points per design.
    assert!(engine.store().computed() >= (grid.len() + 2 * grid.designs.len()) as u64);
}

#[test]
fn emitters_carry_per_core_ipc_and_mpki() {
    let grid = MixGrid::new(
        vec![ScenarioSpec::split(
            WorkloadKind::DataServing,
            WorkloadKind::MapReduce,
            16,
        )],
        vec![DesignSpec::footprint(64)],
        RunScale::tiny(),
    );
    let results = run_mix(&grid, &SweepEngine::new().quiet());

    let json = emit::to_json(&results);
    assert_eq!(json.matches("\"core\":").count(), 16);
    assert_eq!(json.matches("\"ipc\":").count(), 16);
    assert_eq!(json.matches("\"mpki\":").count(), 16);
    assert_eq!(
        json.matches("\"core_workload\": \"Data Serving\"").count(),
        8
    );
    assert_eq!(json.matches("\"core_workload\": \"MapReduce\"").count(), 8);
    assert_eq!(json.matches("\"solo_ipc\":").count(), 16);
    assert_eq!(json.matches("\"speedup\":").count(), 16);
    assert!(json.contains("\"weighted_speedup\""));
    assert!(json.contains("\"fairness\""));

    // The CSV is the records' scalar projection: one row per point,
    // per-core figures JSON-only.
    let csv = emit::to_csv(&results);
    let lines: Vec<_> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + results.len(), "header + one row per point");
    let header: Vec<_> = lines[0].split(',').collect();
    for column in ["scenario", "design", "weighted_speedup", "fairness"] {
        assert!(header.contains(&column), "missing column {column}");
    }
    for column in ["core", "core_workload", "solo_ipc", "speedup"] {
        assert!(!header.contains(&column), "per-core column {column} in CSV");
    }

    // The regular sweep JSON also grew per-core counters.
    let spec = fc_sweep::SweepSpec::new(RunScale::tiny())
        .grid(&[WorkloadKind::WebSearch], &[DesignSpec::footprint(64)]);
    let sweep_results = SweepEngine::new().quiet().run_spec(&spec);
    let sweep_json = emit::to_json(&sweep_results);
    assert!(sweep_json.contains("\"per_core\""));
    assert_eq!(sweep_json.matches("\"core\":").count(), 16);
}

#[test]
fn homogeneous_control_scenario_consolidates_for_free() {
    // n-copies-of-Multiprogrammed through the mix path: the solo
    // baseline runs the same workload, so the weighted speedup must sit
    // near 1 and fairness near its homogeneous bound.
    let grid = MixGrid::new(
        vec![ScenarioSpec::homogeneous(WorkloadKind::Multiprogrammed, 16)],
        vec![DesignSpec::footprint(64)],
        RunScale::tiny(),
    );
    let results = run_mix(&grid, &SweepEngine::new().quiet());
    let c = &results[0].consolidation;
    assert!(
        (0.7..=1.3).contains(&c.weighted_speedup),
        "homogeneous weighted speedup {}",
        c.weighted_speedup
    );
    assert!(c.fairness > 0.8, "homogeneous fairness {}", c.fairness);
}

#[test]
fn scenario_registry_round_trips_through_config() {
    // The registry scenarios a 16-core pod sweeps all run and
    // round-trip through canonical JSON with stable keys.
    let config = SimConfig::default();
    for family in fc_sim::SCENARIO_FAMILIES {
        let spec = family.build(config.cores);
        assert_eq!(spec.cores(), config.cores);
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back, "{}", family.name);
    }
}
