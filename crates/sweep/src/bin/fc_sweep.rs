//! `fc_sweep` — run experiment grids from the command line, in parallel.
//!
//! ```sh
//! fc_sweep --grid fig4                      # Figure 4 grid, quick scale, all cores
//! fc_sweep --grid designspace --threads 8   # the whole design registry x capacity x workload
//! fc_sweep --grid fig4 --speedup            # parallel run + sequential rerun, verified identical
//! fc_sweep --list-designs                   # print the design-family catalogue
//! fc_sweep --designs page,footprint,alloy --capacities 64,256 --workloads "web search" \
//!          --csv out.csv --json out.json --bench BENCH.json
//! ```

use std::io::Write;
use std::time::Instant;

use fc_sim::loaded::LoadedConfig;
use fc_sim::registry::{resolve_designs, DESIGN_FAMILIES};
use fc_sim::{resolve_scenarios, ScenarioSpec, SimConfig, SCENARIO_FAMILIES};
use fc_sweep::{
    emit, run_sampled_grid, DesignSpec, LoadedGrid, MixGrid, RunScale, SamplePlan, SampledGrid,
    SweepEngine, SweepResult, SweepSpec, WorkloadKind,
};

const USAGE: &str = "\
usage: fc_sweep [serve|status] [options]

serve mode (long-running, no network):
  serve              read grid requests as JSONL from stdin (or a spool
                     directory with --spool), diff each against the
                     result store, simulate only what's missing, and
                     stream point + summary responses as JSONL on stdout
  --spool DIR        serve requests from DIR/*.json instead of stdin;
                     responses land atomically in DIR/done/<name>.jsonl
  --serve-once       with --spool: answer the requests currently in the
                     spool, then exit (instead of polling forever)
  --metrics-dir DIR  maintain a live status surface in DIR: metrics.prom
                     (Prometheus text exposition), health.json
                     (starting/serving/degraded/draining heartbeat) and
                     events.jsonl (health transitions, watchdog
                     breaches), rewritten atomically on a cadence
  --metrics-cadence-ms N  milliseconds between metrics-dir rewrites
                     (default 2000)
  --floor PATH       arm the serve watchdog with the per-design
                     points/sec floors in PATH (bench_floor.json shape):
                     sustained below-floor fresh throughput flips
                     health.json to `degraded`
  --slow-ms N        capture requests slower than N ms as standalone
                     Chrome traces under DIR/slow/ (ring-buffered;
                     requires --metrics-dir)

status mode:
  status             render a one-screen summary of a serve process's
                     --metrics-dir (health, error taxonomy, latency
                     quantiles, watchdog state) and exit; pass the same
                     --metrics-dir DIR the serve process uses

options:
  --store DIR        back the result store with durable shard files in
                     DIR (consistent-hash ring; results persist across
                     runs, and previously computed points are recalled
                     instead of re-simulated)
  --grid NAME        preset grid (see --list-grids): fig4 | fig5 | fig67
                     | designspace | loaded | mix | sampled (default
                     fig4; `sampled` is the designspace grid run through
                     the interval sampler at the long-trace scale)
  --designs LIST     comma list of design families from the registry
                     (see --list-designs); overrides the preset's designs
  --capacities LIST  comma list of MB values (default 64,128,256,512)
  --workloads LIST   comma list of workload names (default: all six)
  --scenarios LIST   comma list of scenario families for --grid mix
                     (see --list-scenarios; default: all of them)
  --scale NAME       quick | full | tiny | long (default quick; `long`
                     is the long-trace scale sampling exists for)
  --threads N        worker threads (default: all cores)
  --seed N           base seed (default 42)
  --sampled          run the trace-replay grid through the fc-sample
                     interval sampler (auto per-point plans: functional
                     warmup windows scaled to each design's capacity and
                     state memory) instead of full detailed replay.
                     Points whose plan skips run parallel-in-time: their
                     measured periods spread across the --threads
                     workers, each restoring a shared base checkpoint;
                     results are bit-identical at any thread count
  --sample-period N  override the sampling period (records per measured
                     interval); implies --sampled. The other plan knobs
                     derive from the period (interval = period/8, detail
                     warmup = interval/2, rest functional, no skip)
  --sample-strata N  round-robin strata for the estimates (default 1)
  --speedup          rerun the grid on one thread, report speedup, verify
                     the parallel and sequential results are identical
                     (exit 1 on any difference)
  --json PATH        write results as JSON
  --csv PATH         write results as CSV
  --bench PATH       write a benchmark summary as JSON, e.g.
                     BENCH_designspace.json (with --sampled: also runs
                     the full grid and writes the speedup-vs-error
                     report, e.g. BENCH_sample.json)
  --trace-out PATH   write a Chrome trace-event JSON timeline of the run
                     (open in Perfetto / chrome://tracing): synthesis,
                     warmup, detailed simulation and memo activity on
                     per-worker lanes
  --metrics-out PATH write this run's metrics-registry delta (plus any
                     detailed-stats time series) as provenance-stamped
                     JSON
  --progress-jsonl PATH  stream one JSON object per finished point plus
                     a final summary (machine-readable progress)
  --list             print the grid points and exit
  --list-grids       print the grid catalogue and exit
  --list-designs     print the design-family catalogue and exit
  --list-scenarios   print the scenario-family catalogue and exit
  --quiet            suppress per-point progress lines
  --help             this text";

/// The grid catalogue (`--list-grids`): every preset the CLI knows.
const GRIDS: [(&str, &str); 7] = [
    (
        "fig4",
        "page access density across capacities (page-based cache)",
    ),
    (
        "fig5",
        "miss ratio + off-chip traffic: baseline/page/footprint/block",
    ),
    ("fig67", "performance improvement incl. the ideal bound"),
    ("designspace", "every design family in the registry"),
    (
        "loaded",
        "latency vs injected bandwidth per design (queued engine)",
    ),
    ("mix", "consolidation scenarios with per-core workloads"),
    (
        "sampled",
        "designspace through the interval sampler (long-trace scale)",
    ),
];

fn print_grid_catalogue() {
    println!("{:<12} summary", "grid");
    for (name, summary) in GRIDS {
        println!("{name:<12} {summary}");
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("fc_sweep: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_workloads(list: &str) -> Vec<WorkloadKind> {
    list.split(',')
        .map(|name| {
            let name = name.trim();
            WorkloadKind::ALL
                .into_iter()
                .find(|w| w.name().eq_ignore_ascii_case(name))
                .unwrap_or_else(|| {
                    fail(&format!(
                        "unknown workload `{name}`; pick from: {}",
                        WorkloadKind::ALL.map(|w| w.name()).join(", ")
                    ))
                })
        })
        .collect()
}

/// Expands design family names against the capacity list, through the
/// design registry.
fn parse_designs(list: &str, capacities: &[u64]) -> Vec<DesignSpec> {
    resolve_designs(list, capacities).unwrap_or_else(|e| fail(&e))
}

fn preset_designs(grid: &str, capacities: &[u64]) -> Vec<DesignSpec> {
    match grid {
        // Figure 4 measures page access density on the page-based cache
        // across capacities.
        "fig4" => parse_designs("page", capacities),
        // Figure 5: miss ratio + off-chip traffic for page, footprint,
        // block, against the baseline.
        "fig5" => parse_designs("baseline,page,footprint,block", capacities),
        // Figures 6/7: performance improvement incl. the ideal bound.
        "fig67" => parse_designs("baseline,ideal,block,page,footprint", capacities),
        // The whole registry: every family the reproduction knows.
        "designspace" | "sampled" => {
            let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
            parse_designs(&names.join(","), capacities)
        }
        other => fail(&format!(
            "unknown grid `{other}` (run --list-grids for the catalogue)"
        )),
    }
}

fn print_design_catalogue() {
    println!("{:<12} {:<9} summary", "family", "capacity");
    for f in DESIGN_FAMILIES {
        println!(
            "{:<12} {:<9} {}",
            f.name,
            if f.scales_with_capacity {
                "scaled"
            } else {
                "fixed"
            },
            f.summary
        );
    }
}

fn print_scenario_catalogue() {
    println!("{:<12} summary", "scenario");
    for f in SCENARIO_FAMILIES {
        println!("{:<12} {}", f.name, f.summary);
    }
}

fn write_file(path: &str, contents: &str) {
    // Atomic (temp + rename): a kill mid-write never leaves a
    // truncated artifact where a previous good one stood.
    fc_types::atomic_write(std::path::Path::new(path), contents.as_bytes())
        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    eprintln!("[fc_sweep] wrote {path}");
}

/// `--trace-out` / `--metrics-out` state for the whole run. The
/// metrics baseline is snapshotted before the grid starts, so the
/// emitted artifact is this run's delta, not process-lifetime totals;
/// tracing is switched on only when a trace is requested (otherwise
/// every span is a single relaxed atomic load).
struct ObsOut {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics_base: fc_obs::metrics::MetricsSnapshot,
}

impl ObsOut {
    fn new(trace_out: Option<String>, metrics_out: Option<String>) -> Self {
        if trace_out.is_some() {
            fc_obs::trace::enable();
        }
        Self {
            trace_out,
            metrics_out,
            metrics_base: fc_obs::metrics::snapshot(),
        }
    }

    /// Writes the trace and metrics artifacts (a no-op without flags).
    fn finish(&self, prov: &fc_obs::Provenance) {
        if let Some(path) = &self.trace_out {
            fc_obs::trace::flush_thread();
            write_file(path, &fc_obs::trace::chrome_trace_json());
        }
        if let Some(path) = &self.metrics_out {
            let delta = fc_obs::metrics::snapshot().delta(&self.metrics_base);
            write_file(path, &emit::to_metrics_json(&delta, prov));
        }
    }
}

/// The run-provenance stamp every artifact of this invocation carries.
#[allow(clippy::too_many_arguments)]
fn provenance(
    grid: &str,
    scale_name: &str,
    seed: u64,
    threads: usize,
    points: usize,
    workloads: Vec<String>,
    designs: Vec<String>,
    wall_secs: f64,
) -> fc_obs::Provenance {
    let mut p = fc_obs::Provenance::for_tool("fc_sweep");
    p.grid = Some(grid.to_string());
    p.scale = Some(scale_name.to_string());
    p.seed = Some(seed);
    p.threads = Some(threads);
    p.points = Some(points);
    p.workloads = workloads;
    p.designs = designs;
    p.wall_secs = Some(wall_secs);
    p
}

/// Opens the `--progress-jsonl` sink (buffered; flushed by the
/// engine's final summary event).
fn progress_sink(path: &Option<String>) -> Option<fc_sweep::ProgressSink> {
    path.as_ref().map(|p| {
        let f =
            std::fs::File::create(p).unwrap_or_else(|e| fail(&format!("cannot create {p}: {e}")));
        let w: Box<dyn Write + Send> = Box::new(std::io::BufWriter::new(f));
        std::sync::Arc::new(std::sync::Mutex::new(w)) as fc_sweep::ProgressSink
    })
}

/// De-duplicated design labels, in first-seen order.
fn design_labels(designs: &[DesignSpec]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for d in designs {
        let label = d.label();
        if !out.contains(&label) {
            out.push(label);
        }
    }
    out
}

fn print_summary(results: &[SweepResult]) {
    println!(
        "{:<16} {:<28} {:>8} {:>10} {:>12} {:>12}",
        "workload", "design", "miss %", "IPC/pod", "offchip B/i", "stacked B/i"
    );
    for r in results {
        let stacked_bpi = if r.report.insts > 0 {
            r.report.stacked.bytes() as f64 / r.report.insts as f64
        } else {
            0.0
        };
        println!(
            "{:<16} {:<28} {:>7.1}% {:>10.2} {:>12.3} {:>12.3}",
            r.point.workload.to_string(),
            r.point.design.label(),
            r.report.cache.miss_ratio() * 100.0,
            r.report.throughput(),
            r.report.offchip_bytes_per_inst(),
            stacked_bpi,
        );
    }
}

/// Default design families of the loaded-latency curve: every family
/// with a bandwidth story, including the related-work designs.
const LOADED_DESIGNS: &str = "block,page,footprint,alloy,banshee,gemini";

/// Runs `--grid loaded`: latency-vs-injected-bandwidth curves per
/// design, emitted with the loaded emitters (`BENCH_bandwidth.json`).
#[allow(clippy::too_many_arguments)]
fn run_loaded_grid(
    designs_arg: &Option<String>,
    capacities: &[u64],
    workloads: &[WorkloadKind],
    scale: RunScale,
    scale_name: &str,
    threads: Option<usize>,
    seed: u64,
    speedup: bool,
    json_path: &Option<String>,
    csv_path: &Option<String>,
    bench_path: &Option<String>,
    obs: &ObsOut,
    list_only: bool,
) {
    let designs = parse_designs(designs_arg.as_deref().unwrap_or(LOADED_DESIGNS), capacities);
    if speedup {
        eprintln!(
            "[fc_sweep] note: --speedup applies to trace-replay grids only; \
             the loaded grid's 1-vs-N-thread bit-equality is covered by \
             tests/sweep_determinism.rs"
        );
    }
    if workloads.len() > 1 {
        eprintln!(
            "[fc_sweep] note: the loaded grid injects one workload per run; \
             using `{}` and ignoring the other {} (pass --workloads NAME to pick)",
            workloads[0],
            workloads.len() - 1
        );
    }
    let config = LoadedConfig {
        workload: workloads[0],
        seed,
        ..fc_sweep::loaded::config_for_scale(scale)
    };
    let grid = LoadedGrid::standard(designs, config);

    if list_only {
        for d in &grid.designs {
            for &interval in &grid.intervals {
                println!(
                    "{} @ {:.1} GB/s (interval {interval})",
                    d.label(),
                    fc_sim::loaded::interval_to_gbs(interval)
                );
            }
        }
        eprintln!("[fc_sweep] {} points", grid.len());
        return;
    }

    let workers = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    eprintln!(
        "[fc_sweep] grid loaded: {} points ({} designs x {} rates) on {} thread(s), workload {}",
        grid.len(),
        grid.designs.len(),
        grid.intervals.len(),
        workers,
        config.workload,
    );
    let started = Instant::now();
    let results = fc_sweep::run_loaded(&grid, workers);
    let wall_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[fc_sweep] {} loaded points in {wall_secs:.2}s",
        results.len()
    );

    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "design", "inject", "achieve", "avg latency", "stack util", "off util"
    );
    for r in &results {
        let p = &r.point;
        println!(
            "{:<28} {:>9.1}G {:>9.1}G {:>12.1} {:>9.1}% {:>9.1}%",
            r.design.label(),
            p.injected_gbs,
            p.achieved_gbs,
            p.avg_latency,
            p.stacked_util() * 100.0,
            p.offchip_util() * 100.0,
        );
    }

    let workload = config.workload.to_string();
    let prov = provenance(
        "loaded",
        scale_name,
        seed,
        workers,
        grid.len(),
        vec![workload.clone()],
        design_labels(&grid.designs),
        wall_secs,
    );
    if let Some(path) = json_path {
        write_file(
            path,
            &emit::with_provenance(&emit::to_loaded_json(&results, &workload), &prov),
        );
    }
    if let Some(path) = csv_path {
        write_file(
            path,
            &emit::csv_with_provenance(&emit::to_loaded_csv(&results, &workload), &prov),
        );
    }
    if let Some(path) = bench_path {
        write_file(
            path,
            &emit::with_provenance(
                &emit::to_bandwidth_bench_json(&results, &workload, wall_secs),
                &prov,
            ),
        );
    }
    obs.finish(&prov);
}

/// Default design families of the mix grid: the paper's design plus
/// the granularity extremes it competes against.
const MIX_DESIGNS: &str = "baseline,page,footprint,banshee";

/// Runs `--grid mix`: consolidation scenarios × designs with per-core
/// accounting, weighted speedup vs solo runs, and a fairness index
/// (`BENCH_mix.json`).
#[allow(clippy::too_many_arguments)]
fn run_mix_grid(
    designs_arg: &Option<String>,
    scenarios_arg: &Option<String>,
    capacities: &[u64],
    scale: RunScale,
    scale_name: &str,
    threads: Option<usize>,
    seed: u64,
    speedup: bool,
    json_path: &Option<String>,
    csv_path: &Option<String>,
    bench_path: &Option<String>,
    jsonl: Option<fc_sweep::ProgressSink>,
    obs: &ObsOut,
    list_only: bool,
    quiet: bool,
) {
    let config = SimConfig::default();
    let designs = parse_designs(designs_arg.as_deref().unwrap_or(MIX_DESIGNS), capacities);
    let scenarios: Vec<ScenarioSpec> = match scenarios_arg {
        Some(list) => resolve_scenarios(list, config.cores).unwrap_or_else(|e| fail(&e)),
        None => SCENARIO_FAMILIES
            .iter()
            .map(|f| f.build(config.cores))
            .collect(),
    };
    let grid = MixGrid::new(scenarios, designs, scale)
        .with_config(config)
        .with_seed(seed);

    if list_only {
        for p in grid.points() {
            println!(
                "{}  (warmup {}, measured {})",
                p.label(),
                p.warmup(),
                p.measured()
            );
        }
        eprintln!("[fc_sweep] {} mix points", grid.len());
        return;
    }

    let mut engine = SweepEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }
    if quiet {
        engine = engine.quiet();
    }
    if let Some(sink) = jsonl {
        engine = engine.with_progress_jsonl(sink);
    }
    let workers = engine.threads();
    eprintln!(
        "[fc_sweep] grid mix: {} points ({} scenarios x {} designs) + solo \
         baselines on {} thread(s)",
        grid.len(),
        grid.scenarios.len(),
        grid.designs.len(),
        workers,
    );
    let started = Instant::now();
    let results = fc_sweep::run_mix(&grid, &engine);
    let parallel_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[fc_sweep] {} simulations in {parallel_secs:.2}s ({} memo hits)",
        engine.store().computed(),
        engine.store().memo_hits()
    );

    println!(
        "{:<26} {:<22} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "scenario", "design", "IPC/pod", "wtd spdup", "fairness", "min core", "max core"
    );
    for r in &results {
        let min = r
            .consolidation
            .per_core_speedup
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = r
            .consolidation
            .per_core_speedup
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        println!(
            "{:<26} {:<22} {:>10.2} {:>10.3} {:>9.3} {:>9.3} {:>9.3}",
            r.point.scenario.name,
            r.point.design.label(),
            r.report.throughput(),
            r.consolidation.weighted_speedup,
            r.consolidation.fairness,
            min,
            max,
        );
    }

    if speedup {
        // Fresh engine, fresh store: a true sequential baseline.
        let started = Instant::now();
        let seq = fc_sweep::run_mix(&grid, &SweepEngine::new().with_threads(1).quiet());
        let seq_secs = started.elapsed().as_secs_f64();
        let identical = results
            .iter()
            .zip(&seq)
            .all(|(a, b)| *a.report == *b.report && a.consolidation == b.consolidation);
        println!();
        println!(
            "speedup: sequential {seq_secs:.2}s / parallel {parallel_secs:.2}s = {:.2}x on {} threads; results identical: {}",
            seq_secs / parallel_secs.max(1e-9),
            workers,
            if identical { "yes" } else { "NO (BUG)" }
        );
        if !identical {
            std::process::exit(1);
        }
    }

    let prov = provenance(
        "mix",
        scale_name,
        seed,
        workers,
        grid.len(),
        grid.scenarios.iter().map(|s| s.name.clone()).collect(),
        design_labels(&grid.designs),
        parallel_secs,
    );
    if let Some(path) = json_path {
        write_file(
            path,
            &emit::with_provenance(&emit::to_mix_json(&results), &prov),
        );
    }
    if let Some(path) = csv_path {
        write_file(
            path,
            &emit::csv_with_provenance(&emit::to_mix_csv(&results), &prov),
        );
    }
    if let Some(path) = bench_path {
        write_file(
            path,
            &emit::with_provenance(&emit::to_mix_bench_json(&results, parallel_secs), &prov),
        );
    }
    obs.finish(&prov);
}

/// Runs a trace-replay spec through the interval sampler
/// (`--sampled` / `--grid sampled`): auto or period-derived plans,
/// estimate table with confidence intervals, sampled emitters, and —
/// with `--bench` — the full-grid twin run and the speedup-vs-error
/// report (`BENCH_sample.json`).
#[allow(clippy::too_many_arguments)]
fn run_sampled_mode(
    spec: &SweepSpec,
    grid_name: &str,
    scale_name: &str,
    seed: u64,
    sample_period: Option<u64>,
    sample_strata: u32,
    threads: Option<usize>,
    speedup: bool,
    json_path: &Option<String>,
    csv_path: &Option<String>,
    bench_path: &Option<String>,
    jsonl: Option<fc_sweep::ProgressSink>,
    obs: &ObsOut,
    list_only: bool,
    quiet: bool,
) {
    let grid = match sample_period {
        Some(period) => {
            if period == 0 {
                fail("--sample-period must be at least 1 record");
            }
            if let Some(short) = spec.points().iter().find(|p| p.measured() < period) {
                fail(&format!(
                    "--sample-period {period} exceeds the measured region \
                     ({} records) of {}; no interval would be measured",
                    short.measured(),
                    short.label()
                ));
            }
            let interval = (period / 8).max(1);
            let detail_warmup = (interval / 2).min(period - interval);
            SampledGrid::with_plan(
                spec,
                SamplePlan::exhaustive(period, detail_warmup, interval),
            )
        }
        None => SampledGrid::auto(spec),
    }
    .with_strata(sample_strata);

    if list_only {
        for sp in grid.points() {
            println!(
                "{}  (plan: period {} = skip {} + functional {} + detailed {} + measured {}, \
                 warmup window {})",
                sp.label(),
                sp.plan.period,
                sp.plan.skip(),
                sp.plan.functional_warmup,
                sp.plan.detail_warmup,
                sp.plan.interval,
                if sp.plan.warmup_window == u64::MAX {
                    "all".to_string()
                } else {
                    sp.plan.warmup_window.to_string()
                },
            );
        }
        eprintln!("[fc_sweep] {} sampled points", grid.len());
        return;
    }

    // The fast path skips by slice arithmetic: make sure the shared
    // trace cache can hold the grid's longest run (capped so a huge
    // grid cannot ask for unbounded memory — longer runs stream).
    let budget = grid
        .max_records()
        .min(20_000_000)
        .max(fc_sweep::TraceCache::DEFAULT_BUDGET as u64) as usize;
    let mut engine = SweepEngine::new().with_trace_budget(budget);
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }
    if quiet {
        engine = engine.quiet();
    }
    if let Some(sink) = jsonl {
        engine = engine.with_progress_jsonl(sink);
    }
    let workers = engine.threads();
    eprintln!(
        "[fc_sweep] grid {grid_name} [sampled]: {} points on {} thread(s)",
        grid.len(),
        workers
    );
    // Synthesize the shared traces up front: both the sampled grid and
    // its full detailed twin replay the same cached streams, so
    // neither timing should be charged for the synthesis they share.
    let started = Instant::now();
    grid.prefetch_traces(&engine);
    let synth_secs = started.elapsed().as_secs_f64();
    if synth_secs > 0.01 {
        let synthesized = engine.trace_cache().records_synthesized();
        eprintln!(
            "[fc_sweep] synthesized {synthesized} shared trace records in {synth_secs:.2}s \
             ({:.0} ns/record, {} worker(s))",
            synth_secs * 1e9 / synthesized.max(1) as f64,
            engine.trace_cache().workers()
        );
    }
    let started = Instant::now();
    let results = run_sampled_grid(&grid, &engine);
    let sampled_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[fc_sweep] {} sampled simulations in {sampled_secs:.2}s",
        engine.sampled_store().computed(),
    );

    println!(
        "{:<16} {:<28} {:>16} {:>18} {:>5} {:>9} {:>9}",
        "workload", "design", "IPC (95% CI)", "hit ratio (CI)", "n", "meas %", "replay %"
    );
    for r in &results {
        let rep = &r.report;
        println!(
            "{:<16} {:<28} {:>9.3}±{:<6.3} {:>11.4}±{:<6.4} {:>5} {:>8.2}% {:>8.1}%",
            r.point.point.workload.to_string(),
            r.point.point.design.label(),
            rep.ipc.mean,
            rep.ipc.ci_half,
            rep.hit_ratio.mean,
            rep.hit_ratio.ci_half,
            rep.intervals.len(),
            rep.measured_fraction() * 100.0,
            rep.replayed_fraction() * 100.0,
        );
    }

    if speedup {
        // Fresh engine, fresh stores: a true sequential baseline.
        let seq_engine = SweepEngine::new()
            .with_trace_budget(budget)
            .with_threads(1)
            .quiet();
        // Same shared-synthesis discipline as the parallel run, so the
        // reported factor measures thread scaling, not trace synthesis.
        grid.prefetch_traces(&seq_engine);
        let started = Instant::now();
        let seq = run_sampled_grid(&grid, &seq_engine);
        let seq_secs = started.elapsed().as_secs_f64();
        let identical = results
            .iter()
            .zip(&seq)
            .all(|(a, b)| *a.report == *b.report);
        println!();
        println!(
            "speedup: sequential {seq_secs:.2}s / parallel {sampled_secs:.2}s = {:.2}x on {} threads; results identical: {}",
            seq_secs / sampled_secs.max(1e-9),
            workers,
            if identical { "yes" } else { "NO (BUG)" }
        );
        if !identical {
            std::process::exit(1);
        }
    }

    let grid_label = if grid_name == "sampled" {
        grid_name.to_string()
    } else {
        format!("{grid_name}[sampled]")
    };
    let prov = provenance(
        &grid_label,
        scale_name,
        seed,
        workers,
        grid.len(),
        spec.points()
            .iter()
            .map(|p| p.workload.to_string())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect(),
        design_labels(&spec.points().iter().map(|p| p.design).collect::<Vec<_>>()),
        sampled_secs,
    );
    if let Some(path) = json_path {
        write_file(
            path,
            &emit::with_provenance(&emit::to_sampled_json(&results), &prov),
        );
    }
    if let Some(path) = csv_path {
        write_file(
            path,
            &emit::csv_with_provenance(&emit::to_sampled_csv(&results), &prov),
        );
    }
    if let Some(path) = bench_path {
        // The speedup-vs-error report needs the full detailed twin of
        // every point, run through the same engine (same trace cache).
        eprintln!(
            "[fc_sweep] running the full detailed twin grid for {path} \
             ({} points)",
            spec.len()
        );
        let started = Instant::now();
        let full = engine.run_spec(spec);
        let full_secs = started.elapsed().as_secs_f64();
        let report = emit::to_sample_bench_json(&results, &full, sampled_secs, full_secs);
        write_file(path, &emit::with_provenance(&report, &prov));
        eprintln!(
            "[fc_sweep] full twin in {full_secs:.2}s vs sampled {sampled_secs:.2}s \
             ({:.1}x wall)",
            full_secs / sampled_secs.max(1e-9)
        );
    }
    obs.finish(&prov);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut serve_mode = false;
    let mut status_mode = false;
    let mut store_dir: Option<String> = None;
    let mut spool_dir: Option<String> = None;
    let mut serve_once = false;
    let mut metrics_dir: Option<String> = None;
    let mut metrics_cadence_ms: u64 = 2_000;
    let mut floor_path: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut grid = "fig4".to_string();
    let mut designs_arg: Option<String> = None;
    let mut scenarios_arg: Option<String> = None;
    let mut capacities: Option<Vec<u64>> = None;
    let mut workloads: Vec<WorkloadKind> = WorkloadKind::ALL.to_vec();
    let mut scale: Option<RunScale> = None;
    let mut threads: Option<usize> = None;
    let mut seed: u64 = SweepSpec::DEFAULT_SEED;
    let mut sampled = false;
    let mut sample_period: Option<u64> = None;
    let mut sample_strata: u32 = 1;
    let mut speedup = false;
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut progress_jsonl: Option<String> = None;
    let mut scale_name: Option<String> = None;
    let mut list_only = false;
    let mut list_grids = false;
    let mut list_designs = false;
    let mut list_scenarios = false;
    let mut quiet = false;

    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    };

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "serve" | "--serve" => serve_mode = true,
            "status" | "--status" => status_mode = true,
            "--store" => store_dir = Some(value(&mut args, "--store")),
            "--spool" => spool_dir = Some(value(&mut args, "--spool")),
            "--serve-once" => serve_once = true,
            "--metrics-dir" => metrics_dir = Some(value(&mut args, "--metrics-dir")),
            "--metrics-cadence-ms" => {
                metrics_cadence_ms = value(&mut args, "--metrics-cadence-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --metrics-cadence-ms value"));
                if metrics_cadence_ms == 0 {
                    fail("--metrics-cadence-ms must be at least 1");
                }
            }
            "--floor" => floor_path = Some(value(&mut args, "--floor")),
            "--slow-ms" => {
                slow_ms = Some(
                    value(&mut args, "--slow-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --slow-ms value")),
                )
            }
            "--grid" => grid = value(&mut args, "--grid"),
            "--designs" => designs_arg = Some(value(&mut args, "--designs")),
            "--capacities" => {
                capacities = Some(
                    value(&mut args, "--capacities")
                        .split(',')
                        .map(|s| {
                            let mb: u64 = s
                                .trim()
                                .parse()
                                .unwrap_or_else(|_| fail(&format!("bad capacity `{s}`")));
                            if mb == 0 {
                                fail("capacities must be at least 1 MB");
                            }
                            mb
                        })
                        .collect(),
                );
            }
            "--workloads" => workloads = parse_workloads(&value(&mut args, "--workloads")),
            "--scenarios" => scenarios_arg = Some(value(&mut args, "--scenarios")),
            "--scale" => {
                let name = value(&mut args, "--scale");
                scale = Some(match name.as_str() {
                    "quick" => RunScale::quick(),
                    "full" => RunScale::full(),
                    "tiny" => RunScale::tiny(),
                    "long" => RunScale::long(),
                    other => fail(&format!("unknown scale `{other}`")),
                });
                scale_name = Some(name);
            }
            "--sampled" => sampled = true,
            "--sample-period" => {
                sampled = true;
                sample_period = Some(
                    value(&mut args, "--sample-period")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --sample-period value")),
                );
            }
            "--sample-strata" => {
                sample_strata = value(&mut args, "--sample-strata")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --sample-strata value"));
                if sample_strata == 0 {
                    fail("--sample-strata must be at least 1");
                }
            }
            "--threads" => {
                threads = Some(
                    value(&mut args, "--threads")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --threads value")),
                )
            }
            "--seed" => {
                seed = value(&mut args, "--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seed value"))
            }
            "--speedup" => speedup = true,
            "--json" => json_path = Some(value(&mut args, "--json")),
            "--csv" => csv_path = Some(value(&mut args, "--csv")),
            "--bench" => bench_path = Some(value(&mut args, "--bench")),
            "--trace-out" => trace_out = Some(value(&mut args, "--trace-out")),
            "--metrics-out" => metrics_out = Some(value(&mut args, "--metrics-out")),
            "--progress-jsonl" => progress_jsonl = Some(value(&mut args, "--progress-jsonl")),
            "--list" => list_only = true,
            "--list-grids" => list_grids = true,
            "--list-designs" => list_designs = true,
            "--list-scenarios" => list_scenarios = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }

    if status_mode {
        let dir =
            metrics_dir.unwrap_or_else(|| fail("status needs --metrics-dir DIR to read from"));
        print!(
            "{}",
            fc_sweep::status::status_from_dir(std::path::Path::new(&dir))
        );
        return;
    }

    if list_grids {
        print_grid_catalogue();
        return;
    }
    if list_designs {
        print_design_catalogue();
        return;
    }
    if list_scenarios {
        print_scenario_catalogue();
        return;
    }

    // `--grid sampled` is the designspace grid through the sampler at
    // the long-trace scale, on a small capacity by default (sampling
    // warms proportionally to capacity, so the speedup story needs
    // trace length >> warm windows; pass --capacities to override).
    if grid == "sampled" {
        sampled = true;
    }
    let sampled_preset = grid == "sampled";
    let scale = scale.unwrap_or_else(|| {
        if sampled_preset {
            RunScale::long()
        } else {
            RunScale::quick()
        }
    });
    let capacities = capacities.unwrap_or_else(|| {
        if sampled_preset {
            vec![8]
        } else {
            vec![64, 128, 256, 512]
        }
    });
    let scale_name =
        scale_name.unwrap_or_else(|| if sampled_preset { "long" } else { "quick" }.to_string());
    let obs = ObsOut::new(trace_out, metrics_out);
    let jsonl = progress_sink(&progress_jsonl);

    if serve_mode {
        if serve_once && spool_dir.is_none() {
            fail("--serve-once requires --spool");
        }
        if slow_ms.is_some() && metrics_dir.is_none() {
            fail("--slow-ms requires --metrics-dir (slow traces land under DIR/slow/)");
        }
        if floor_path.is_some() && metrics_dir.is_none() {
            fail("--floor requires --metrics-dir (the watchdog reports through health.json)");
        }
        // The monitor goes up before the engine: a scraper sees
        // `starting` while the durable store loads.
        let monitor = metrics_dir.as_ref().map(|dir| {
            let clock: std::sync::Arc<dyn fc_types::Clock> =
                std::sync::Arc::new(fc_types::WallClock::default());
            let mut m = fc_sweep::ServiceMonitor::new(std::path::Path::new(dir), clock)
                .unwrap_or_else(|e| fail(&format!("cannot create metrics dir `{dir}`: {e}")));
            if let Some(path) = &floor_path {
                let floor = fc_obs::FloorSpec::from_file(std::path::Path::new(path))
                    .unwrap_or_else(|e| fail(&e));
                m = m.with_watchdog(fc_obs::Watchdog::new(floor));
            }
            if let Some(ms) = slow_ms {
                m = m.with_slow_capture(ms, fc_sweep::monitor::DEFAULT_SLOW_KEEP);
            }
            std::sync::Arc::new(m)
        });
        // Responses stream on stdout, so the engine must not print
        // per-point progress there.
        let mut engine = SweepEngine::new().quiet();
        if let Some(n) = threads {
            engine = engine.with_threads(n);
        }
        if let Some(dir) = &store_dir {
            engine = engine
                .with_durable_store(std::path::Path::new(dir))
                .unwrap_or_else(|e| fail(&format!("cannot open store `{dir}`: {e}")));
        }
        let watcher = monitor.as_ref().map(|m| {
            m.set_generation(engine.store().generation());
            m.mark_serving();
            fc_sweep::spawn_watcher(std::sync::Arc::clone(m), metrics_cadence_ms)
        });
        let started = Instant::now();
        let observed = monitor.as_deref();
        let totals = match &spool_dir {
            Some(dir) => fc_sweep::serve_spool_observed(
                &engine,
                std::path::Path::new(dir),
                &fc_sweep::ServeOptions {
                    once: serve_once,
                    ..Default::default()
                },
                observed,
            ),
            None => {
                let stdin = std::io::stdin();
                let stdout = std::io::stdout();
                fc_sweep::serve_jsonl_observed(&engine, stdin.lock(), stdout.lock(), observed)
            }
        }
        .unwrap_or_else(|e| fail(&format!("serve loop failed: {e}")));
        if let Some(w) = watcher {
            w.stop();
        }
        if let Some(m) = &monitor {
            m.set_generation(engine.store().generation());
            m.mark_draining();
            m.tick();
        }
        eprintln!(
            "[fc_sweep] serve: {} request(s), {} point(s) ({} fresh), {} error(s)",
            totals.requests, totals.points, totals.fresh, totals.errors
        );
        let mut prov = provenance(
            "serve",
            &scale_name,
            seed,
            engine.threads(),
            totals.points as usize,
            Vec::new(),
            Vec::new(),
            started.elapsed().as_secs_f64(),
        );
        prov.store_generation = engine.store().generation();
        obs.finish(&prov);
        return;
    }

    if metrics_dir.is_some() || floor_path.is_some() || slow_ms.is_some() {
        eprintln!(
            "[fc_sweep] note: --metrics-dir/--floor/--slow-ms apply to serve and \
             status modes; batch runs export via --metrics-out / --trace-out"
        );
    }
    if sampled && (grid == "mix" || grid == "loaded") {
        fail("--sampled applies to trace-replay grids (fig4/fig5/fig67/designspace/sampled)");
    }
    if store_dir.is_some() && (sampled || grid == "mix" || grid == "loaded") {
        eprintln!(
            "[fc_sweep] note: --store backs the detailed trace-replay store; \
             sampled/mix/loaded grids run in-memory"
        );
    }

    if grid == "mix" {
        run_mix_grid(
            &designs_arg,
            &scenarios_arg,
            &capacities,
            scale,
            &scale_name,
            threads,
            seed,
            speedup,
            &json_path,
            &csv_path,
            &bench_path,
            jsonl,
            &obs,
            list_only,
            quiet,
        );
        return;
    }

    if grid == "loaded" {
        if jsonl.is_some() {
            eprintln!(
                "[fc_sweep] note: --progress-jsonl applies to engine-driven \
                 grids; the loaded grid reports on stderr only"
            );
        }
        run_loaded_grid(
            &designs_arg,
            &capacities,
            &workloads,
            scale,
            &scale_name,
            threads,
            seed,
            speedup,
            &json_path,
            &csv_path,
            &bench_path,
            &obs,
            list_only,
        );
        return;
    }

    let designs = match &designs_arg {
        Some(list) => {
            grid = format!("custom({list})");
            parse_designs(list, &capacities)
        }
        None => preset_designs(&grid, &capacities),
    };
    let spec = SweepSpec::new(scale)
        .with_seed(seed)
        .grid(&workloads, &designs)
        .dedup();

    if sampled {
        run_sampled_mode(
            &spec,
            &grid,
            &scale_name,
            seed,
            sample_period,
            sample_strata,
            threads,
            speedup,
            &json_path,
            &csv_path,
            &bench_path,
            jsonl,
            &obs,
            list_only,
            quiet,
        );
        return;
    }

    if list_only {
        for p in spec.points() {
            println!(
                "{}  (warmup {}, measured {})",
                p.label(),
                p.warmup(),
                p.measured()
            );
        }
        eprintln!("[fc_sweep] {} points", spec.len());
        return;
    }

    let mut engine = SweepEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }
    if let Some(dir) = &store_dir {
        engine = engine
            .with_durable_store(std::path::Path::new(dir))
            .unwrap_or_else(|e| fail(&format!("cannot open store `{dir}`: {e}")));
    }
    if quiet {
        engine = engine.quiet();
    }
    if let Some(sink) = jsonl {
        engine = engine.with_progress_jsonl(sink);
    }
    let workers = engine.threads();

    eprintln!(
        "[fc_sweep] grid {}: {} points on {} thread(s)",
        grid,
        spec.len(),
        workers
    );
    let started = Instant::now();
    let results = engine.run_spec(&spec);
    let parallel_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[fc_sweep] {} simulations in {parallel_secs:.2}s ({} memo hits)",
        engine.store().computed(),
        engine.store().memo_hits()
    );

    print_summary(&results);

    let mut speedup_summary: Option<emit::SpeedupSummary> = None;
    if speedup {
        // Fresh engine, fresh store: a true sequential baseline.
        let seq_engine = SweepEngine::new().with_threads(1).quiet();
        let started = Instant::now();
        let seq_results = seq_engine.run_spec(&spec);
        let seq_secs = started.elapsed().as_secs_f64();
        let identical = results
            .iter()
            .zip(&seq_results)
            .all(|(a, b)| *a.report == *b.report);
        println!();
        println!(
            "speedup: sequential {seq_secs:.2}s / parallel {parallel_secs:.2}s = {:.2}x on {} threads; results identical: {}",
            seq_secs / parallel_secs.max(1e-9),
            workers,
            if identical { "yes" } else { "NO (BUG)" }
        );
        if !identical {
            std::process::exit(1);
        }
        speedup_summary = Some(emit::SpeedupSummary {
            sequential_secs: seq_secs,
            parallel_secs,
            threads: workers,
        });
    }

    let mut prov = provenance(
        &grid,
        &scale_name,
        seed,
        workers,
        spec.len(),
        workloads.iter().map(|w| w.to_string()).collect(),
        design_labels(&designs),
        parallel_secs,
    );
    prov.store_generation = engine.store().generation();
    if let Some(path) = &json_path {
        write_file(
            path,
            &emit::with_provenance(&emit::to_json(&results), &prov),
        );
    }
    if let Some(path) = &csv_path {
        write_file(
            path,
            &emit::csv_with_provenance(&emit::to_csv(&results), &prov),
        );
    }
    if let Some(path) = &bench_path {
        write_file(
            path,
            &emit::with_provenance(
                &emit::to_bench_json(&grid, &results, parallel_secs, speedup_summary),
                &prov,
            ),
        );
    }
    obs.finish(&prov);
}
