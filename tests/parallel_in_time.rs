//! Acceptance tests of the parallel-in-time sampled-simulation layer
//! (the sweep layer's `run_sampled_grid`, which splits each skipping
//! point into measured periods dispatched across worker threads):
//!
//! * **Bit-equality** — for every design family in the registry, on
//!   two workloads, the sampled grid at 1, 2 and 6 engine threads is
//!   bit-identical to the sequential driver `fc_sample::run_sampled`
//!   run point by point on the same cached records, for a skipping
//!   plan and for an exhaustive one (whose points run unsplit).
//! * **Checkpoint transparency** — a checkpoint capture/restore
//!   round-trip at a functional-replay boundary is invisible: the
//!   continued run matches an uninterrupted one bit for bit
//!   (property-tested over boundary positions and seeds).
//! * **Accuracy unchanged** — parallel-in-time estimates satisfy the
//!   same 3%-of-full-run accuracy bounds the sequential sampler is
//!   held to (they are the same numbers, but this asserts it against
//!   the detailed run, not against the sequential sampler).
//! * **Observability** — interval dispatch advances the
//!   `pit.intervals_dispatched` / `pit.checkpoints_restored` pair.
//!
//! Everything here is deterministic: fixed seeds, fixed plans, no
//! wall-clock assertions.

use fc_sample::{run_sampled, SampledReport};
use fc_sim::registry::DESIGN_FAMILIES;
use fc_sim::{ReportSnapshot, SimReport, Simulation};
use fc_sweep::{
    run_sampled_grid, DesignSpec, RunScale, SamplePlan, SampledGrid, SimConfig, SweepEngine,
    SweepSpec, WorkloadKind,
};
use fc_trace::{TraceGenerator, TraceRecord};
use proptest::prelude::*;

/// Every design family of the registry at a small capacity
/// (capacity-independent families resolve as themselves).
fn all_families() -> Vec<DesignSpec> {
    let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
    fc_sim::resolve_designs(&names.join(","), &[8]).expect("registry resolves")
}

/// A plan that actually skips (period 1000 = skip 600, functional 200,
/// detailed 100, measured 100), so points split into interval tasks
/// rather than running whole.
fn skipping_plan() -> SamplePlan {
    SamplePlan::new(1_000, 200, 100, 100).with_warmup_window(1_000)
}

/// Every family on Web Search and Data Serving under `plan`.
fn family_grid(plan: SamplePlan) -> SampledGrid {
    let spec = SweepSpec::new(RunScale::tiny())
        .grid(
            &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
            &all_families(),
        )
        .dedup();
    SampledGrid::with_plan(&spec, plan)
}

/// Each point through the sequential driver, on the records the
/// engine's trace cache holds for it.
fn sequential_reference(grid: &SampledGrid, engine: &SweepEngine) -> Vec<SampledReport> {
    grid.points()
        .iter()
        .map(|sp| {
            let p = &sp.point;
            let (warmup, measured) = (p.warmup(), p.measured());
            let records = engine
                .trace_cache()
                .records(p.workload, p.config.cores, p.seed(), warmup + measured)
                .expect("tiny runs fit the trace cache");
            let mut sim = Simulation::new(p.config, p.design);
            run_sampled(&mut sim, &records, warmup, measured, &sp.plan)
        })
        .collect()
}

#[test]
fn pit_grids_are_bit_identical_for_every_design_family() {
    // The skipping plan splits every point into interval tasks; the
    // exhaustive plan carries state through the whole region, so every
    // point runs unsplit and replays every record.
    for plan in [skipping_plan(), SamplePlan::exhaustive(500, 100, 100)] {
        let grid = family_grid(plan);
        let reference = sequential_reference(&grid, &SweepEngine::new().with_threads(1).quiet());
        for (sp, want) in grid.points().iter().zip(&reference) {
            let total = sp.point.warmup() + sp.point.measured();
            assert_eq!(plan.skip() == 0, want.replayed_records == total, "{plan:?}");
        }
        for threads in [1, 2, 6] {
            let results =
                run_sampled_grid(&grid, &SweepEngine::new().with_threads(threads).quiet());
            assert_eq!(results.len(), grid.len());
            for ((r, sp), want) in results.iter().zip(grid.points()).zip(&reference) {
                assert_eq!(r.point, *sp, "result order must match grid order");
                assert_eq!(
                    *r.report,
                    *want,
                    "{}: {threads}-thread grid diverged from the sequential driver ({plan:?})",
                    r.point.label()
                );
            }
        }
    }
}

#[test]
fn pit_dispatch_advances_the_checkpoint_metric_pair() {
    let spec =
        SweepSpec::new(RunScale::tiny()).point(WorkloadKind::MapReduce, DesignSpec::footprint(8));
    let grid = SampledGrid::with_plan(&spec, skipping_plan());
    let periods: u64 = grid
        .points()
        .iter()
        .map(|sp| sp.point.measured() / sp.plan.period)
        .sum();
    assert!(periods > 0);
    let before = fc_obs::metrics::snapshot();
    run_sampled_grid(&grid, &SweepEngine::new().with_threads(3).quiet());
    let delta = fc_obs::metrics::snapshot().delta(&before);
    // Lower bounds, not equality: the metrics registry is
    // process-wide and other tests in this binary dispatch too.
    assert!(delta.counter("pit.intervals_dispatched").unwrap_or(0) >= periods);
    assert!(delta.counter("pit.checkpoints_restored").unwrap_or(0) >= periods);
}

#[test]
fn pit_estimates_meet_the_sequential_accuracy_bounds() {
    // The same 3% IPC / CI-containment bounds tests/sampled_accuracy.rs
    // holds the sequential sampler to, asserted directly against the
    // full detailed run for a parallel-in-time grid.
    let scale = RunScale {
        warmup_base: 400_000,
        warmup_per_mb: 0,
        measured_base: 2_000_000,
        measured_per_mb: 0,
    };
    let spec = SweepSpec::new(scale).grid(
        &[WorkloadKind::WebSearch],
        &[DesignSpec::footprint(8), DesignSpec::page(8)],
    );
    let grid = SampledGrid::auto(&spec);
    let engine = SweepEngine::new()
        .with_threads(4)
        .with_trace_budget(2_500_000)
        .quiet();
    let sampled = run_sampled_grid(&grid, &engine);
    let full = engine.run_spec(&spec);
    for (s, f) in sampled.iter().zip(&full) {
        let label = s.point.label();
        let full_ipc = f.report.throughput();
        let est = &s.report.ipc;
        let rel_err = (est.mean - full_ipc).abs() / full_ipc;
        assert!(
            rel_err <= 0.03,
            "{label}: parallel-in-time IPC {:.4} vs full {full_ipc:.4} — {:.2}% error (limit 3%)",
            est.mean,
            rel_err * 100.0
        );
        assert!(
            est.contains(full_ipc) || rel_err <= 0.01,
            "{label}: full IPC {full_ipc:.4} outside the 95% CI {:.4}±{:.4} \
             and beyond the 1% resolution floor",
            est.mean,
            est.ci_half
        );
    }
}

fn footprint_sim() -> Simulation {
    Simulation::new(SimConfig::small(), DesignSpec::footprint(8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Functional replay leaves the engine quiescent, so capturing a
    /// checkpoint there and continuing from the restored copy must be
    /// indistinguishable from never having checkpointed — for any
    /// boundary position, suffix length, and trace seed. This is the
    /// invariant the whole parallel-in-time layer rests on.
    #[test]
    fn checkpoint_round_trip_is_invisible(
        prefix in 200usize..1_500,
        suffix in 100usize..800,
        seed in 0u64..64,
    ) {
        let records: Vec<TraceRecord> = TraceGenerator::new(WorkloadKind::WebSearch, 4, seed)
            .take(prefix + suffix)
            .collect();

        // Uninterrupted: functional prefix, then detailed suffix.
        let mut plain = footprint_sim();
        for r in &records[..prefix] {
            plain.step_functional(r);
        }
        for r in &records[prefix..] {
            plain.step(r);
        }

        // Round-tripped at the same boundary, both ways a worker can
        // come back from a checkpoint: `to_sim` (fresh engine) and
        // `restore` (onto an existing engine).
        let mut src = footprint_sim();
        for r in &records[..prefix] {
            src.step_functional(r);
        }
        let ckpt = src.checkpoint();
        let mut cloned = ckpt.to_sim();
        let mut restored = footprint_sim();
        restored.restore(&ckpt);
        for r in &records[prefix..] {
            cloned.step(r);
            restored.step(r);
        }

        let zero = ReportSnapshot::zero();
        let want = SimReport::since(&plain, &zero);
        prop_assert_eq!(&want, &SimReport::since(&cloned, &zero));
        prop_assert_eq!(&want, &SimReport::since(&restored, &zero));
    }
}
