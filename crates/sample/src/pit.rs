//! The building blocks of parallel-in-time sampled runs.
//!
//! A skipping [`SamplePlan`] makes every measured period a pure
//! function of (base checkpoint, that period's records): the
//! sequential driver restores the base checkpoint before each period's
//! functional warmup, so no period observes another's state. These
//! functions expose that split — [`build_base`] replays the initial
//! functional-warmup window once, [`run_interval`] replays one period
//! from a clone of the base, and [`assemble_report`] merges the
//! interval samples in plan order — so a scheduler can run the periods
//! on any workers in any order and still produce a report
//! **bit-identical** to [`run_sampled`](crate::run_sampled)'s. The
//! sweep layer's `run_sampled_grid` is that scheduler.
//!
//! Continuous (exhaustive) plans carry state through the whole region
//! and cannot be split in time; callers run them through the
//! sequential driver.

use fc_sim::{Checkpoint, SimReport, Simulation};
use fc_trace::TraceRecord;

use crate::plan::SamplePlan;
use crate::report::{IntervalSample, SampledReport};
use crate::runner::PlanLayout;

/// Replays the initial functional-warmup window on `sim` and captures
/// the base checkpoint every period of a skipping plan restores.
/// Functional replay never touches timing state, so the engine is
/// already quiescent when the checkpoint is captured — capture changes
/// nothing, which is what makes sequential and parallel runs agree
/// bit-for-bit.
pub fn build_base(
    sim: &mut Simulation,
    records: &[TraceRecord],
    warmup: u64,
    measured: u64,
    plan: &SamplePlan,
) -> Checkpoint {
    if let Err(e) = plan.validate() {
        panic!("invalid sample plan: {e}");
    }
    let layout = PlanLayout::of(plan, warmup, measured);
    let _span = fc_obs::trace::span("functional-warmup", "sample");
    let start = (warmup - layout.window) as usize;
    for r in &records[start..warmup as usize] {
        sim.step_functional(r);
    }
    sim.checkpoint()
}

/// One period's work: clone the base, replay the period's own
/// functional warmup, then detailed warmup, then the measured
/// interval — returning the interval's counter deltas. This is the
/// same pure function the sequential checkpointed driver computes,
/// so dispatching periods across workers cannot change the report.
/// `records` must be the same full slice `build_base` saw (absolute
/// indexing).
pub fn run_interval(
    base: &Checkpoint,
    records: &[TraceRecord],
    warmup: u64,
    measured: u64,
    plan: &SamplePlan,
    k: u64,
) -> IntervalSample {
    let layout = PlanLayout::of(plan, warmup, measured);
    let mut sim = base.to_sim();
    fc_obs::metrics::counter("pit.checkpoints_restored").inc();
    let warm_start = layout.warm_start(plan, warmup, k) as usize;
    let fw_end = warm_start + plan.functional_warmup as usize;
    let dw_end = fw_end + plan.detail_warmup as usize;
    let iv_end = dw_end + plan.interval as usize;
    {
        let _span = fc_obs::trace::span("functional-warmup", "sample");
        for r in &records[warm_start..fw_end] {
            sim.step_functional(r);
        }
    }
    {
        let _span = fc_obs::trace::span("detailed-warmup", "sample");
        sim.step_slice(&records[fw_end..dw_end]);
    }
    let snapshot = sim.snapshot();
    let delta = {
        let _span = fc_obs::trace::span("measured", "sample");
        sim.step_slice(&records[dw_end..iv_end]);
        SimReport::since(&sim, &snapshot)
    };
    IntervalSample::from_report(k, layout.interval_start(plan, warmup, k), &delta)
}

/// Merges per-period interval samples (in plan order) into the final
/// [`SampledReport`], with work accounting identical to the
/// sequential driver's — the report is a pure function of the plan,
/// the run sizing, and the samples, regardless of who computed them.
pub fn assemble_report(
    plan: &SamplePlan,
    warmup: u64,
    measured: u64,
    intervals: Vec<IntervalSample>,
) -> SampledReport {
    let layout = PlanLayout::of(plan, warmup, measured);
    let per_period = plan.functional_warmup + plan.detail_warmup + plan.interval;
    let replayed = layout.window + layout.periods * per_period;
    let detailed = layout.periods * (plan.detail_warmup + plan.interval);
    fc_obs::metrics::counter("sample.runs").inc();
    fc_obs::metrics::counter("sample.intervals").add(layout.periods);
    fc_obs::metrics::counter("sample.records.replayed").add(replayed);
    fc_obs::metrics::counter("sample.records.detailed").add(detailed);
    fc_obs::metrics::counter("sample.records.skipped").add(warmup + measured - replayed);
    SampledReport::aggregate(*plan, warmup + measured, replayed, detailed, intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_sim::{DesignSpec, SimConfig};
    use fc_trace::{TraceGenerator, WorkloadKind};

    fn records(n: usize) -> Vec<TraceRecord> {
        TraceGenerator::new(WorkloadKind::WebSearch, 4, 7)
            .take(n)
            .collect()
    }

    fn sim() -> Simulation {
        Simulation::new(SimConfig::small(), DesignSpec::footprint(64))
    }

    // A skipping plan: period 4000, fw 600, dw 200, interval 200 →
    // skip() = 3000 > 0, so the run splits into independent periods.
    fn skipping_plan() -> SamplePlan {
        SamplePlan::new(4_000, 600, 200, 200).with_warmup_window(2_000)
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        // Periods computed from one base in reverse order — as any
        // worker schedule may — assemble into the sequential report.
        let rs = records(30_000);
        let plan = skipping_plan();
        let seq = crate::run_sampled(&mut sim(), &rs, 6_000, 24_000, &plan);
        let base = build_base(&mut sim(), &rs, 6_000, 24_000, &plan);
        let periods = plan.intervals_in(24_000);
        let mut samples: Vec<IntervalSample> = (0..periods)
            .rev()
            .map(|k| run_interval(&base, &rs, 6_000, 24_000, &plan, k))
            .collect();
        samples.reverse();
        assert_eq!(seq, assemble_report(&plan, 6_000, 24_000, samples));
    }
}
