//! Parallel-in-time sampling: the interval-dispatch speedup table.
//!
//! Runs the sampling design catalogue through the sampled grid twice —
//! on one thread and on the lab's thread count (parallel-in-time: every
//! measured period an independent work item restoring a shared base
//! checkpoint) — and reports each design's interval count, both times,
//! the speedup, and the bit-equality verdict.

use fc_sweep::{run_sampled_grid, RunScale, SampledGrid, SweepEngine, SweepSpec, WorkloadKind};

use crate::experiments::Table;
use crate::Lab;

/// The same families and long-trace sizing as the sampling table:
/// parallel-in-time dispatch targets exactly the regime where sampling
/// already pays (skipping plans over long traces).
fn designs() -> Vec<fc_sweep::DesignSpec> {
    fc_sim::resolve_designs("baseline,page,footprint,block,alloy,banshee,gemini", &[8])
        .expect("registry families resolve")
}

fn pit_scale() -> RunScale {
    RunScale {
        warmup_base: 400_000,
        warmup_per_mb: 0,
        measured_base: 2_500_000,
        measured_per_mb: 0,
    }
}

/// Regenerates the parallel-in-time interval-dispatch table.
pub fn pit(lab: &mut Lab) -> String {
    let workers = lab.threads();
    let spec = SweepSpec::new(pit_scale())
        .with_seed(lab.base_seed())
        .grid(&[WorkloadKind::WebSearch], &designs());
    let grid = SampledGrid::auto(&spec);

    // Two fresh engines (fresh memo stores) so each side actually
    // simulates; both share pre-synthesized traces, so neither
    // timing pays for synthesis.
    let (entry, aggregate) = grid.trace_budgets();
    let seq_engine = SweepEngine::new()
        .with_trace_budgets(entry, aggregate)
        .with_threads(1)
        .quiet();
    grid.prefetch_traces(&seq_engine);
    let started = std::time::Instant::now();
    let seq = run_sampled_grid(&grid, &seq_engine);
    let seq_secs = started.elapsed().as_secs_f64();

    let pit_engine = SweepEngine::new()
        .with_trace_budgets(entry, aggregate)
        .with_threads(workers)
        .quiet();
    grid.prefetch_traces(&pit_engine);
    let started = std::time::Instant::now();
    let par = run_sampled_grid(&grid, &pit_engine);
    let pit_secs = started.elapsed().as_secs_f64();

    let mut table = Table::new(&[
        "design",
        "intervals",
        "splittable",
        "seq secs",
        "pit secs",
        "speedup",
        "identical",
    ]);
    let mut all_identical = true;
    for (s, p) in seq.iter().zip(&par) {
        let identical = *s.report == *p.report;
        all_identical &= identical;
        let speedup = if p.sim_secs > 0.0 {
            s.sim_secs / p.sim_secs
        } else {
            0.0
        };
        table.row(vec![
            s.point.point.design.label(),
            s.report.intervals.len().to_string(),
            if s.report.plan.skip() > 0 {
                "yes"
            } else {
                "no"
            }
            .into(),
            format!("{:.2}", s.sim_secs),
            format!("{:.2}", p.sim_secs),
            format!("{speedup:.1}x"),
            if identical { "yes" } else { "NO (BUG)" }.into(),
        ]);
    }
    assert!(
        all_identical,
        "parallel-in-time reports diverged from sequential"
    );
    format!(
        "## Parallel-in-time sampling — interval dispatch on {workers} workers\n\n\
         The same sampled grid run on one thread and on {workers}, every\n\
         measured period dispatched as an independent work item (each\n\
         restores the shared base checkpoint, replays its own warmup,\n\
         measures its interval). Reports are bit-identical by construction\n\
         — the table asserts it. Wall-clock speedup tracks the *physical core count*\n\
         of the host, not the worker count; designs whose auto plans fall\n\
         back to exhaustive warming (continuous state, e.g. Banshee) are\n\
         unsplittable in time and run whole on one worker. Per-point `pit secs`\n\
         are CPU-busy seconds summed across workers (the work, which\n\
         parallelism does not change); the grid *wall* totals carry the\n\
         speedup: one thread {seq_secs:.2}s vs {workers} threads\n\
         {pit_secs:.2}s ({:.2}x).\n\n{}",
        seq_secs / pit_secs.max(1e-9),
        table.to_markdown()
    )
}
