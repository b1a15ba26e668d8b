//! End-to-end simulation throughput: trace records per second through
//! the full pod (cores + L2 + design + both DRAM models), per design.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fc_sim::{DesignSpec, SimConfig, Simulation};
use fc_trace::{TraceGenerator, WorkloadKind};

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    const BATCH: u64 = 20_000;
    group.throughput(Throughput::Elements(BATCH));
    group.sample_size(10);

    for design in [
        DesignSpec::baseline(),
        DesignSpec::block(64),
        DesignSpec::page(64),
        DesignSpec::footprint(64),
    ] {
        group.bench_with_input(
            BenchmarkId::new("replay", design.label()),
            &design,
            |b, &design| {
                let mut sim = Simulation::new(SimConfig::default(), design);
                let mut generator = TraceGenerator::new(WorkloadKind::WebSearch, 16, 42);
                b.iter(|| {
                    for _ in 0..BATCH {
                        let r = generator.next().expect("infinite");
                        sim.step(&r);
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
