//! The sampled-run driver: walks a record stream through skip /
//! functional / detailed segments and measures interval deltas.

use fc_sim::{SimReport, Simulation};
use fc_trace::TraceRecord;

use crate::plan::SamplePlan;
use crate::report::{IntervalSample, SampledReport};

/// A record source the driver can skip within. The slice source skips
/// by index arithmetic (free); the streaming source must synthesize
/// skipped records but never replays them. Both walk the identical
/// record sequence, so the two paths produce bit-identical reports.
trait Source {
    fn skip(&mut self, n: u64);
    fn replay(&mut self, n: u64, step: &mut dyn FnMut(&TraceRecord));
}

/// Per-period record layout of a plan over a run, shared by the
/// sequential driver and the parallel-in-time building blocks
/// (`build_base` / `run_interval`) so both walk byte-identical record
/// positions.
///
/// Each period is `[lead skip | functional warmup | detailed warmup |
/// measured interval | trail skip]`, with the interval *centered* in
/// its period as far as the warmup segments allow.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlanLayout {
    /// Functional records replayed at the end of the initial warmup.
    pub window: u64,
    /// Skipped records at the start of each period.
    pub lead: u64,
    /// Skipped records at the end of each period.
    pub trail: u64,
    /// Measured intervals (periods) in the run.
    pub periods: u64,
}

impl PlanLayout {
    pub fn of(plan: &SamplePlan, warmup: u64, measured: u64) -> Self {
        let warm = plan.functional_warmup + plan.detail_warmup;
        let lead = ((plan.period - plan.interval) / 2).saturating_sub(warm);
        Self {
            window: plan.warmup_window.min(warmup),
            lead,
            trail: plan.period - lead - warm - plan.interval,
            periods: plan.intervals_in(measured),
        }
    }

    /// Absolute record index where period `k`'s functional warmup
    /// starts (= where a checkpointed period resumes replaying).
    pub fn warm_start(&self, plan: &SamplePlan, warmup: u64, k: u64) -> u64 {
        warmup + k * plan.period + self.lead
    }

    /// Absolute record index of period `k`'s first *measured* record.
    pub fn interval_start(&self, plan: &SamplePlan, warmup: u64, k: u64) -> u64 {
        self.warm_start(plan, warmup, k) + plan.functional_warmup + plan.detail_warmup
    }
}

struct SliceSource<'a> {
    records: &'a [TraceRecord],
    pos: usize,
}

impl Source for SliceSource<'_> {
    fn skip(&mut self, n: u64) {
        self.pos += n as usize;
    }

    fn replay(&mut self, n: u64, step: &mut dyn FnMut(&TraceRecord)) {
        let end = self.pos + n as usize;
        for r in &self.records[self.pos..end] {
            step(r);
        }
        self.pos = end;
    }
}

struct IterSource<I> {
    records: I,
}

impl<I: Iterator<Item = TraceRecord>> Source for IterSource<I> {
    fn skip(&mut self, n: u64) {
        for _ in 0..n {
            self.records.next().expect("record stream ended early");
        }
    }

    fn replay(&mut self, n: u64, step: &mut dyn FnMut(&TraceRecord)) {
        for _ in 0..n {
            let r = self.records.next().expect("record stream ended early");
            step(&r);
        }
    }
}

/// Runs a sampled simulation over a materialized record slice
/// (covering at least `warmup + measured` records). Skipped records
/// cost nothing — the slice is jumped over — so this is the fast path
/// the sweep layer uses whenever the trace cache holds the run.
///
/// # Panics
///
/// Panics if the plan is invalid, the slice is shorter than
/// `warmup + measured`, or the measured region yields no interval.
pub fn run_sampled(
    sim: &mut Simulation,
    records: &[TraceRecord],
    warmup: u64,
    measured: u64,
    plan: &SamplePlan,
) -> SampledReport {
    assert!(
        records.len() as u64 >= warmup + measured,
        "slice holds {} records but the run needs {}",
        records.len(),
        warmup + measured
    );
    let mut source = SliceSource { records, pos: 0 };
    drive(sim, &mut source, warmup, measured, plan)
}

/// Streaming counterpart of [`run_sampled`] for runs too long to
/// materialize: skipped records are synthesized and discarded (the
/// generator must advance), so the speedup is smaller but the report
/// is bit-identical to the slice path's.
pub fn run_sampled_stream<I>(
    sim: &mut Simulation,
    records: I,
    warmup: u64,
    measured: u64,
    plan: &SamplePlan,
) -> SampledReport
where
    I: IntoIterator<Item = TraceRecord>,
{
    let mut source = IterSource {
        records: records.into_iter(),
    };
    drive(sim, &mut source, warmup, measured, plan)
}

fn drive(
    sim: &mut Simulation,
    source: &mut dyn Source,
    warmup: u64,
    measured: u64,
    plan: &SamplePlan,
) -> SampledReport {
    if let Err(e) = plan.validate() {
        panic!("invalid sample plan: {e}");
    }
    let mut replayed = 0u64;
    let mut detailed = 0u64;

    // Initial warmup region: skip everything except the trailing
    // functional window.
    let layout = PlanLayout::of(plan, warmup, measured);
    source.skip(warmup - layout.window);
    {
        let _span = fc_obs::trace::span("functional-warmup", "sample");
        source.replay(layout.window, &mut |r| sim.step_functional(r));
    }
    replayed += layout.window;

    // Measured region: one interval per period, *centered* in its
    // period (as far as the warmup segments allow). Centering makes the
    // interval midpoints' mean coincide with the region midpoint, so a
    // linear trend across the region (a cache still converging) cannot
    // bias the estimates — end-of-period placement would sample half a
    // period late on average.
    //
    // Two execution modes, chosen by the plan:
    //
    // * **Continuous** (`plan.skip() == 0`, exhaustive plans): state is
    //   carried straight through — every record runs detailed, so the
    //   measured intervals tile the region with zero staleness.
    // * **Checkpointed** (skipping plans): a base checkpoint is captured
    //   right after the warmup window — while the engine is still
    //   quiescent from functional replay, so capture changes nothing —
    //   and every period restores it before replaying its own
    //   functional warmup. Each period is thus a pure function of
    //   (base, period records): it no longer sees the detailed/warmed
    //   state of earlier periods, which is exactly what lets the
    //   sweep layer's parallel-in-time pool run periods on different workers
    //   and still produce bit-identical reports. The per-period
    //   functional warmup was always sized (to the design's turnover)
    //   to repair staleness across the skipped gap; restoring the base
    //   makes that the *only* warmth source, identically in sequential
    //   and parallel runs.
    let periods = layout.periods;
    let mut intervals = Vec::with_capacity(periods as usize);
    let base = if plan.skip() > 0 {
        Some(sim.checkpoint())
    } else {
        None
    };
    for k in 0..periods {
        source.skip(layout.lead);
        if let Some(base) = &base {
            sim.restore(base);
            fc_obs::metrics::counter("sample.checkpoints_restored").inc();
        }
        {
            let _span = fc_obs::trace::span("functional-warmup", "sample");
            source.replay(plan.functional_warmup, &mut |r| sim.step_functional(r));
        }
        {
            let _span = fc_obs::trace::span("detailed-warmup", "sample");
            source.replay(plan.detail_warmup, &mut |r| sim.step(r));
        }
        // Snapshots bound the interval *without* draining: forcing the
        // MSHRs empty at the boundaries would start every interval from
        // an artificial contention-free state (inflating IPC for
        // bandwidth-bound designs); with free-running boundaries the
        // in-flight work entering and leaving the interval cancels in
        // expectation.
        let snapshot = sim.snapshot();
        let delta = {
            let _span = fc_obs::trace::span("measured", "sample");
            source.replay(plan.interval, &mut |r| sim.step(r));
            SimReport::since(sim, &snapshot)
        };
        let start_record = layout.interval_start(plan, warmup, k);
        intervals.push(IntervalSample::from_report(k, start_record, &delta));
        replayed += plan.functional_warmup + plan.detail_warmup + plan.interval;
        detailed += plan.detail_warmup + plan.interval;
        source.skip(layout.trail);
    }
    // The measured tail shorter than one period is not replayed; the
    // systematic frame covers `periods * period` records.

    // One registry touch per run, after the hot loops.
    fc_obs::metrics::counter("sample.runs").inc();
    fc_obs::metrics::counter("sample.intervals").add(periods);
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
        TraceGenerator::new(WorkloadKind::WebSearch, 4, 42)
            .take(n)
            .collect()
    }

    fn sim() -> Simulation {
        Simulation::new(SimConfig::small(), DesignSpec::footprint(64))
    }

    #[test]
    fn slice_and_stream_paths_are_bit_identical() {
        let rs = records(30_000);
        let plan = SamplePlan::new(4_000, 1_000, 300, 300).with_warmup_window(2_000);
        let a = run_sampled(&mut sim(), &rs, 6_000, 24_000, &plan);
        let b = run_sampled_stream(&mut sim(), rs.iter().cloned(), 6_000, 24_000, &plan);
        assert_eq!(a, b);
        assert_eq!(a.intervals.len(), 6);
    }

    #[test]
    fn work_accounting_matches_the_plan() {
        let rs = records(30_000);
        let plan = SamplePlan::new(4_000, 1_000, 300, 300).with_warmup_window(2_000);
        let rep = run_sampled(&mut sim(), &rs, 6_000, 24_000, &plan);
        assert_eq!(rep.total_records, 30_000);
        assert_eq!(rep.replayed_records, 2_000 + 6 * 1_600);
        assert_eq!(rep.detailed_records, 6 * 600);
        assert_eq!(rep.measured_records, 6 * 300);
        assert!((rep.replayed_fraction() - 11_600.0 / 30_000.0).abs() < 1e-12);
        assert!(rep.insts > 0 && rep.cycles > 0);
        assert!(rep.ipc.mean > 0.0);
    }

    #[test]
    fn exhaustive_plans_replay_every_record() {
        let rs = records(12_000);
        let plan = SamplePlan::exhaustive(2_000, 200, 200);
        let rep = run_sampled(&mut sim(), &rs, 2_000, 10_000, &plan);
        assert_eq!(rep.replayed_records, 12_000);
        assert_eq!(rep.intervals.len(), 5);
        assert_eq!(rep.replayed_fraction(), 1.0);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let rs = records(20_000);
        let plan = SamplePlan::for_run(4_000, 16_000, 64);
        let a = run_sampled(&mut sim(), &rs, 4_000, 16_000, &plan);
        let b = run_sampled(&mut sim(), &rs, 4_000, 16_000, &plan);
        assert_eq!(a, b);
    }

    #[test]
    fn interval_positions_are_systematic() {
        let rs = records(14_000);
        let plan = SamplePlan::new(3_000, 500, 200, 300);
        let rep = run_sampled(&mut sim(), &rs, 2_000, 12_000, &plan);
        let starts: Vec<u64> = rep.intervals.iter().map(|s| s.start_record).collect();
        // Centered placement: lead skip (3000-300)/2 - 700 = 650, so the
        // interval starts 650 + 700 = 1350 records into each period.
        assert_eq!(starts, vec![3_350, 6_350, 9_350, 12_350]);
    }

    #[test]
    #[should_panic(expected = "slice holds")]
    fn short_slices_are_rejected() {
        let rs = records(100);
        let plan = SamplePlan::exhaustive(1_000, 100, 100);
        run_sampled(&mut sim(), &rs, 1_000, 1_000, &plan);
    }
}
