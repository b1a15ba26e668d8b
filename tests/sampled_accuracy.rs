//! Acceptance tests of the sampled-simulation subsystem (`fc-sample`
//! + the sweep layer's sampled grid):
//!
//! * **Accuracy** — for every design family in the registry, on the
//!   standard workloads, the sampled IPC estimate lands within 3%
//!   relative error of the full detailed run AND within its reported
//!   95% confidence interval (up to a 1% systematic-resolution floor:
//!   the sampler measures a deterministic interval frame, so for
//!   near-noiseless metrics the Student-t CI can be narrower than the
//!   frame's irreducible offset). Hit-ratio estimates land within
//!   `max(CI, 0.02)` of the full run.
//! * **Work bound** — at the long-trace scale each auto plan replays at
//!   most a fifth of its records (35% for Footprint, whose predictor
//!   doubles the warm windows; Banshee warms exhaustively), the
//!   deterministic bound behind the end-to-end speedup
//!   `BENCH_sample.json` reports.
//! * **Determinism** — sampled grids are bit-identical for any worker
//!   thread count, and the streaming trace path matches the cached
//!   slice path bit for bit.
//!
//! Everything here is deterministic: fixed seeds, fixed plans, no
//! wall-clock assertions.

use fc_sim::registry::DESIGN_FAMILIES;
use fc_sweep::{
    run_sampled_grid, DesignSpec, RunScale, SamplePlan, SampledGrid, SweepEngine, SweepSpec,
    WorkloadKind,
};

/// The sizing accuracy runs use: traces long enough that the auto
/// plans actually skip (the regime sampling exists for), short enough
/// for a debug-profile test run.
fn accuracy_scale() -> RunScale {
    RunScale {
        warmup_base: 400_000,
        warmup_per_mb: 0,
        measured_base: 2_000_000,
        measured_per_mb: 0,
    }
}

/// The capacity accuracy runs use: small, so the capacity-scaled warm
/// windows cover a minor fraction of the trace.
const CAPACITY_MB: u64 = 8;

fn check_accuracy(spec: &SweepSpec) {
    let grid = SampledGrid::auto(spec);
    let engine = SweepEngine::new().with_trace_budget(2_500_000).quiet();
    let sampled = run_sampled_grid(&grid, &engine);
    let full = engine.run_spec(spec);

    for (s, f) in sampled.iter().zip(&full) {
        let label = s.point.label();
        let full_ipc = f.report.throughput();
        let est = &s.report.ipc;
        let rel_err = (est.mean - full_ipc).abs() / full_ipc;
        assert!(
            rel_err <= 0.03,
            "{label}: sampled IPC {:.4} vs full {full_ipc:.4} — {:.2}% error (limit 3%)",
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

        let full_hit = f.report.cache.hit_ratio();
        let hit = &s.report.hit_ratio;
        let tolerance = hit.ci_half.max(0.02);
        assert!(
            (hit.mean - full_hit).abs() <= tolerance,
            "{label}: sampled hit ratio {:.4} vs full {full_hit:.4} \
             (tolerance {tolerance:.4})",
            hit.mean
        );

        // The estimates really are interval statistics, not a single
        // degenerate measurement (exhaustive-fallback plans widen the
        // intervals, but still measure a small slice of the run).
        assert!(est.n >= 4, "{label}: only {} intervals", est.n);
        assert!(s.report.measured_fraction() < 0.15, "{label}");
    }
}

/// Every design family of the registry, resolved at the accuracy
/// capacity (capacity-independent families resolve as themselves).
fn all_families() -> Vec<DesignSpec> {
    let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
    fc_sim::resolve_designs(&names.join(","), &[CAPACITY_MB]).expect("registry resolves")
}

#[test]
fn sampled_estimates_match_full_runs_for_every_family() {
    let spec = SweepSpec::new(accuracy_scale())
        .grid(&[WorkloadKind::WebSearch], &all_families())
        .dedup();
    check_accuracy(&spec);
}

#[test]
fn sampled_estimates_hold_on_a_second_workload() {
    // The paper's second server workload, on the families whose state
    // memory spans the spectrum: page-organized, predictor-driven
    // (Footprint), and frequency-counted (Banshee, which the auto
    // planner refuses to skip).
    let designs = vec![
        DesignSpec::page(CAPACITY_MB),
        DesignSpec::footprint(CAPACITY_MB),
        DesignSpec::banshee(CAPACITY_MB),
    ];
    let spec = SweepSpec::new(accuracy_scale()).grid(&[WorkloadKind::DataServing], &designs);
    check_accuracy(&spec);
}

#[test]
fn auto_plans_bound_each_points_replay_at_long_scale() {
    // The deterministic bound behind the wall-clock speedup, per plan:
    // at the long-trace scale a design with a page cache's state
    // memory (warm scale 1) or none (sized by the grid's smallest
    // capacity) replays at most a fifth of its records, Footprint's
    // doubled warm windows at most 35%, and Banshee, whose frequency
    // counters out-live any skippable window, replays everything.
    let spec = SweepSpec::new(RunScale::long())
        .grid(&[WorkloadKind::WebSearch], &all_families())
        .dedup();
    for sp in SampledGrid::auto(&spec).points() {
        let design = sp.point.design;
        let fraction = sp
            .plan
            .replayed_fraction(sp.point.warmup(), sp.point.measured());
        let label = design.label();
        match design.warm_scale() {
            0 | 1 => assert!(
                fraction <= 0.20,
                "{label} replays {:.1}% of its records (bound: 20%)",
                100.0 * fraction
            ),
            2 => assert!(
                fraction <= 0.35,
                "{label} replays {:.1}% of its records (bound: 35%)",
                100.0 * fraction
            ),
            _ => assert_eq!(sp.plan.skip(), 0, "{label} must warm exhaustively"),
        }
    }
}

#[test]
fn sampled_grid_is_bit_identical_for_any_thread_count() {
    let spec = SweepSpec::new(RunScale::tiny()).grid(
        &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
        &[
            DesignSpec::baseline(),
            DesignSpec::footprint(64),
            DesignSpec::page(64),
        ],
    );
    let grid = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100));
    let seq = run_sampled_grid(&grid, &SweepEngine::new().with_threads(1).quiet());
    let par = run_sampled_grid(&grid, &SweepEngine::new().with_threads(4).quiet());
    assert_eq!(seq.len(), grid.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.point, b.point, "result order must match grid order");
        assert_eq!(
            *a.report,
            *b.report,
            "{}: parallel sampled run diverged from sequential",
            a.point.label()
        );
        assert!(a.report.ipc.mean > 0.0);
    }
}

#[test]
fn streaming_and_cached_trace_paths_agree_bit_for_bit() {
    // The slice path skips by index arithmetic, the streaming path by
    // synthesizing and discarding; both must land on identical
    // reports (skip-heavy plan so the skips actually exercise both).
    let spec =
        SweepSpec::new(RunScale::tiny()).point(WorkloadKind::MapReduce, DesignSpec::footprint(64));
    let plan = SamplePlan::new(1_000, 200, 100, 100).with_warmup_window(500);
    let grid = SampledGrid::with_plan(&spec, plan);
    let cached = run_sampled_grid(&grid, &SweepEngine::new().with_threads(2).quiet());
    let streamed = run_sampled_grid(
        &grid,
        &SweepEngine::new()
            .with_threads(2)
            .with_trace_budget(0)
            .quiet(),
    );
    assert_eq!(*cached[0].report, *streamed[0].report);
    assert!(cached[0].report.plan.skip() > 0, "plan must actually skip");
}
