//! Slice replay must be bit-identical to the per-record path: for
//! every registered design family the `SimReport` after
//! `Simulation::step_slice` must equal the one after stepping the same
//! records one at a time — and the equality must hold for *any*
//! placement of slice boundaries, including mid row-burst.

use proptest::prelude::*;

use fc_sim::{ReportSnapshot, SimConfig, SimReport, Simulation, DESIGN_FAMILIES};
use fc_trace::{TraceGenerator, TraceRecord, WorkloadKind};

const WARMUP: usize = 4_000;
const MEASURED: usize = 8_000;

fn records(workload: WorkloadKind, n: usize) -> Vec<TraceRecord> {
    TraceGenerator::new(workload, 16, 42).take(n).collect()
}

fn report_after(sim: &Simulation) -> SimReport {
    SimReport::since(sim, &ReportSnapshot::zero())
}

/// Per-record reference replay: warmup, drain, then measured records
/// stepped one at a time.
fn run_per_record(design: &fc_sim::DesignSpec, rs: &[TraceRecord]) -> SimReport {
    let mut sim = Simulation::new(SimConfig::default(), *design);
    for r in &rs[..WARMUP] {
        sim.step(r);
    }
    sim.drain();
    for r in &rs[WARMUP..] {
        sim.step(r);
    }
    sim.drain();
    report_after(&sim)
}

/// Batched replay of the same records through `step_slice`.
fn run_batched(design: &fc_sim::DesignSpec, rs: &[TraceRecord]) -> SimReport {
    let mut sim = Simulation::new(SimConfig::default(), *design);
    sim.step_slice(&rs[..WARMUP]);
    sim.drain();
    sim.step_slice(&rs[WARMUP..]);
    sim.drain();
    report_after(&sim)
}

#[test]
fn batched_replay_is_bit_identical_for_every_design() {
    for workload in [WorkloadKind::WebSearch, WorkloadKind::DataServing] {
        let rs = records(workload, WARMUP + MEASURED);
        for family in DESIGN_FAMILIES {
            let design = family.build(64);
            let per_record = run_per_record(&design, &rs);
            let batched = run_batched(&design, &rs);
            assert_eq!(
                per_record, batched,
                "{} diverged under batching on {workload:?}",
                family.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary batch boundaries — including splits inside a page's
    /// access run or a row burst — must not move a single counter.
    #[test]
    fn batch_boundaries_never_change_the_report(
        cuts in proptest::collection::vec(1usize..6_000, 1..8),
        footprint in proptest::bool::ANY,
    ) {
        let rs = records(WorkloadKind::WebSearch, 6_000);
        let design = if footprint {
            fc_sim::DesignSpec::footprint(64)
        } else {
            fc_sim::DesignSpec::block(64)
        };

        let mut reference = Simulation::new(SimConfig::default(), design);
        for r in &rs {
            reference.step(r);
        }
        reference.drain();

        let mut chunked = Simulation::new(SimConfig::default(), design);
        let mut bounds: Vec<usize> = cuts;
        bounds.push(0);
        bounds.push(rs.len());
        bounds.sort_unstable();
        bounds.dedup();
        for w in bounds.windows(2) {
            chunked.step_slice(&rs[w[0]..w[1]]);
        }
        chunked.drain();

        prop_assert_eq!(report_after(&reference), report_after(&chunked));
    }
}
