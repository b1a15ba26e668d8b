//! Per-family replay cost on one filtered trace, on the public API: for
//! every registry design family at 64 MB, functional and detailed
//! ns/record, the median build+drop time of the family's pod and a
//! digest of its report, plus the shared L2 filter's ns/record. Before
//! that, trace synthesis: ns/record of the sequential `next` path and of
//! the windowed `fill` at 2 workers, for Web Search, Data Serving and
//! MapReduce at 16 cores, each with the digest of its records. Run two
//! builds on the same host, alternating, and compare: the timings show
//! which layer or family got faster or slower, and equal digests show
//! that no record or report changed.
//!
//! Run with (defaults: 3,844,000 Web Search records, best of 3):
//!
//! ```sh
//! cargo run --release -p fc-repro --example family_cost
//! cargo run --release -p fc-repro --example family_cost -- --records 100000 --reps 1
//! ```
//!
//! The default trace is one `full`-scale 64 MB sweep point's: 2,460,000
//! warm-up plus 1,384,000 measured records. Like a sweep point, each
//! family steps the warm-up minus its last 65,536 records
//! (`fc_sim::DETAILED_TAIL`) functionally and the rest detailed, over
//! L2 outcomes filtered once for all families. A shorter `--records`
//! keeps the same functional share. Timings are the best of `--reps`
//! replays; every replay must reproduce the first one's digest. Each
//! workload synthesizes `--records` records per path, best of `--reps`;
//! the two paths must produce equal records.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fc_sim::{L2Outcomes, SimConfig, SimReport, Simulation, DESIGN_FAMILIES, DETAILED_TAIL};
use fc_trace::synth::Workers;
use fc_trace::{records_digest, TraceGenerator, TraceRecord, WorkloadKind};

/// Records of a `full`-scale 64 MB point: warm-up, then measured.
const FULL_WARMUP: usize = 2_460_000;
const FULL_MEASURED: usize = 1_384_000;
/// Trace seed.
const SEED: u64 = 1;
/// Capacity of every capacity-scaled family.
const CAPACITY_MB: u64 = 64;
/// Pods built and dropped per family for the build+drop median.
const BUILDS: usize = 40;
/// Workloads whose synthesis is timed: the `sampled` preset's.
const SYNTH_WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::WebSearch,
    WorkloadKind::DataServing,
    WorkloadKind::MapReduce,
];
/// Workers of the timed windowed fill.
const FILL_WORKERS: usize = 2;

/// Scoped threads, the calling one included, claiming fill jobs from a
/// shared cursor.
struct Lanes(usize);

impl Workers for Lanes {
    fn count(&self) -> usize {
        self.0
    }

    fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        let cursor = AtomicUsize::new(0);
        let lane = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            job(i);
        };
        std::thread::scope(|scope| {
            for _ in 1..self.0.min(jobs) {
                scope.spawn(lane);
            }
            lane();
        });
    }
}

fn usage() -> ! {
    eprintln!("usage: family_cost [--records N] [--reps N]");
    std::process::exit(2);
}

fn main() {
    let mut records = FULL_WARMUP + FULL_MEASURED;
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        let value = value.parse::<usize>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--records" => records = value,
            "--reps" => reps = value,
            _ => usage(),
        }
    }
    if records == 0 || reps == 0 {
        usage();
    }

    let config = SimConfig::default();
    println!(
        "Synthesis, {} cores, seed {SEED}: {records} records per workload, best of {reps}",
        config.cores
    );
    println!(
        "{:<14} {:>11} {:>11}  {:<16}",
        "workload",
        "next ns",
        format!("fill x{FILL_WORKERS} ns"),
        "record digest"
    );
    let mut trace = Vec::new();
    for kind in SYNTH_WORKLOADS {
        let (next_ns, records_next) = synthesize(kind, config.cores, records, reps, 1);
        let (fill_ns, records_fill) = synthesize(kind, config.cores, records, reps, FILL_WORKERS);
        let digest = records_digest(records_next.iter().copied());
        assert!(
            records_next == records_fill,
            "{kind}: fill differs from next"
        );
        println!(
            "{:<14} {next_ns:>11.1} {fill_ns:>11.1}  {digest:016x}",
            kind.name()
        );
        if kind == WorkloadKind::WebSearch {
            trace = records_next;
        }
    }
    println!();

    let functional = (records as u128 * (FULL_WARMUP - DETAILED_TAIL as usize) as u128
        / (FULL_WARMUP + FULL_MEASURED) as u128) as usize;
    let detailed = records - functional;
    println!(
        "Web Search, seed {SEED}: {records} records ({functional} functional + {detailed} \
         detailed), best of {reps}"
    );

    let (filter_ns, outcomes) = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let outcomes = L2Outcomes::filter(&config, &trace);
            (ns_per_record(start, records), outcomes)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one rep");
    let outcomes = Arc::new(outcomes);
    println!("L2 filter: {filter_ns:.1} ns/record");
    println!();
    println!(
        "{:<10} {:>14} {:>15} {:>15}  {:<16}",
        "family", "build+drop ms", "functional ns", "detailed ns", "report digest"
    );

    let (mut functional_sum, mut detailed_sum) = (0.0, 0.0);
    for family in DESIGN_FAMILIES {
        let design = family.build(CAPACITY_MB);

        let mut builds: Vec<f64> = (0..BUILDS)
            .map(|_| {
                let start = Instant::now();
                drop(std::hint::black_box(Simulation::filtered(
                    config,
                    design,
                    outcomes.clone(),
                )));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        builds.sort_by(f64::total_cmp);
        let build_ms = builds[BUILDS / 2];

        let (mut best_functional, mut best_detailed) = (f64::INFINITY, f64::INFINITY);
        let mut digest = None;
        for _ in 0..reps {
            let mut sim = Simulation::filtered(config, design, outcomes.clone());
            let since = sim.snapshot();
            let start = Instant::now();
            for r in &trace[..functional] {
                sim.step_functional(r);
            }
            best_functional = best_functional.min(ns_per_record(start, functional));
            let start = Instant::now();
            sim.step_slice(&trace[functional..]);
            sim.drain();
            best_detailed = best_detailed.min(ns_per_record(start, detailed));

            let report = SimReport::since(&sim, &since);
            let rep_digest = fc_types::fnv1a(format!("{report:?}").as_bytes());
            assert_eq!(
                *digest.get_or_insert(rep_digest),
                rep_digest,
                "{}: replays disagree",
                family.name
            );
        }
        functional_sum += best_functional;
        detailed_sum += best_detailed;
        println!(
            "{:<10} {build_ms:>14.3} {best_functional:>15.1} {best_detailed:>15.1}  {:016x}",
            family.name,
            digest.expect("at least one rep"),
        );
    }
    println!(
        "{:<10} {:>14} {functional_sum:>15.1} {detailed_sum:>15.1}",
        "sum", ""
    );
}

/// Synthesizes `records` records of `kind` with `fill` on `workers`
/// workers (one is the sequential `next` loop), `reps` times; returns
/// the best ns/record and the records, checking that every rep made the
/// same ones.
fn synthesize(
    kind: WorkloadKind,
    cores: u8,
    records: usize,
    reps: usize,
    workers: usize,
) -> (f64, Vec<TraceRecord>) {
    let mut best = f64::INFINITY;
    let mut first: Option<Vec<TraceRecord>> = None;
    for _ in 0..reps {
        let mut generator = TraceGenerator::new(kind, cores, SEED);
        let mut out = Vec::new();
        let start = Instant::now();
        generator.fill(&mut out, records, &Lanes(workers));
        best = best.min(ns_per_record(start, records));
        match &first {
            Some(want) => assert!(*want == out, "{kind}: synthesis reps disagree"),
            None => first = Some(out),
        }
    }
    (best, first.expect("at least one rep"))
}

/// Nanoseconds per record since `start` over `records` records (0 when
/// nothing was replayed).
fn ns_per_record(start: Instant, records: usize) -> f64 {
    let ns = start.elapsed().as_secs_f64() * 1e9;
    if records == 0 {
        0.0
    } else {
        ns / records as f64
    }
}
