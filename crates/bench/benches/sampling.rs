//! Full vs sampled end-to-end point cost at matched trace length.
//!
//! The benchmark replays one (workload, design) point twice over the
//! same pre-synthesized record stream: once as a full detailed point
//! (`Simulation::run_trace`) and once through the `fc-sample` interval
//! sampler with its auto plan. The ratio of the two throughputs is the
//! sampled subsystem's end-to-end speedup at this trace length (it
//! grows with trace length: the sampler's warm windows are a fixed
//! cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fc_sample::{run_sampled, SamplePlan};
use fc_sim::{DesignSpec, SimConfig, Simulation};
use fc_sweep::RunScale;
use fc_trace::{TraceGenerator, WorkloadKind};

const WARMUP: u64 = 400_000;
const MEASURED: u64 = 2_000_000;

fn bench_sampling(c: &mut Criterion) {
    let records: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 16, 42)
        .take((WARMUP + MEASURED) as usize)
        .collect();
    let mut group = c.benchmark_group("sampling");
    group.throughput(Throughput::Elements(WARMUP + MEASURED));
    group.sample_size(10);

    let designs = [DesignSpec::page(8), DesignSpec::footprint(8)];
    let comparable = RunScale::comparable_capacity(&designs);
    for design in designs {
        group.bench_with_input(
            BenchmarkId::new("full", design.label()),
            &design,
            |b, &design| {
                b.iter(|| {
                    Simulation::new(SimConfig::default(), design).run_trace(
                        records.iter().copied(),
                        WARMUP,
                        MEASURED,
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sampled", design.label()),
            &design,
            |b, &design| {
                let plan = SamplePlan::for_run_scaled(
                    WARMUP,
                    MEASURED,
                    RunScale::sizing_capacity(&design, comparable),
                    design.warm_scale(),
                );
                b.iter(|| {
                    let mut sim = Simulation::new(SimConfig::default(), design);
                    run_sampled(&mut sim, &records, WARMUP, MEASURED, &plan)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
