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
    emit, run_sampled_grid, DesignSpec, LoadedGrid, LoadedResult, MixGrid, MixResult, RunScale,
    SamplePlan, SampledGrid, SampledResult, SweepEngine, SweepResult, SweepSpec, WorkloadKind,
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
  --csv PATH         write results as CSV: each JSON record's scalar
                     fields, nested objects flattened to dotted columns
                     (plan.period, ipc.ci_half); per-core arrays, queue
                     histograms and prediction counters stay JSON-only
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
const GRIDS: &str = "\
grid         summary
fig4         page access density across capacities (page-based cache)
fig5         miss ratio + off-chip traffic: baseline/page/footprint/block
fig67        performance improvement incl. the ideal bound
designspace  every design family in the registry
loaded       latency vs injected bandwidth per design (queued engine)
mix          consolidation scenarios with per-core workloads
sampled      designspace through the interval sampler (long-trace scale)";

fn fail(msg: &str) -> ! {
    eprintln!("fc_sweep: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_workloads(list: &str) -> Vec<WorkloadKind> {
    list.split(',')
        .map(|name| fc_sweep::parse_workload(name.trim()).unwrap_or_else(|e| fail(&e)))
        .collect()
}

/// Expands design family names against the capacity list, through the
/// design registry.
fn parse_designs(list: &str, capacities: &[u64]) -> Vec<DesignSpec> {
    resolve_designs(list, capacities).unwrap_or_else(|e| fail(&e))
}

fn print_design_catalogue() {
    println!("{:<12} {:<9} summary", "family", "capacity");
    for f in DESIGN_FAMILIES {
        let capacity = if f.scales_with_capacity {
            "scaled"
        } else {
            "fixed"
        };
        println!("{:<12} {capacity:<9} {}", f.name, f.summary);
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

/// Opens the `--progress-jsonl` sink (buffered; flushed by the
/// engine's final summary event).
fn progress_sink(path: &str) -> fc_sweep::ProgressSink {
    let f =
        std::fs::File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
    let w: Box<dyn Write + Send> = Box::new(std::io::BufWriter::new(f));
    std::sync::Arc::new(std::sync::Mutex::new(w))
}

/// Every option on the command line, parsed once.
#[derive(Default)]
struct Args {
    serve: bool,
    status: bool,
    store: Option<String>,
    spool: Option<String>,
    serve_once: bool,
    metrics_dir: Option<String>,
    metrics_cadence_ms: u64,
    floor: Option<String>,
    slow_ms: Option<u64>,
    grid: String,
    designs: Option<String>,
    scenarios: Option<String>,
    capacities: Vec<u64>,
    workloads: Vec<WorkloadKind>,
    scale_name: String,
    threads: Option<usize>,
    seed: u64,
    sampled: bool,
    sample_period: Option<u64>,
    sample_strata: u32,
    speedup: bool,
    json: Option<String>,
    csv: Option<String>,
    bench: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    progress_jsonl: Option<String>,
    list: bool,
    list_grids: bool,
    list_designs: bool,
    list_scenarios: bool,
    quiet: bool,
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("bad {flag} value")))
}

fn parse_capacities(list: &str) -> Vec<u64> {
    list.split(',')
        .map(|s| match s.trim().parse() {
            Ok(0) => fail("capacities must be at least 1 MB"),
            Ok(mb) => mb,
            Err(_) => fail(&format!("bad capacity `{s}`")),
        })
        .collect()
}

fn run_scale(name: &str) -> RunScale {
    RunScale::named(name).unwrap_or_else(|e| fail(&e))
}

impl Args {
    /// Parses argv; `None` after `--help`.
    fn parse() -> Option<Self> {
        let mut a = Args {
            metrics_cadence_ms: 2_000,
            grid: "fig4".to_string(),
            workloads: WorkloadKind::ALL.to_vec(),
            seed: SweepSpec::DEFAULT_SEED,
            sample_strata: 1,
            ..Args::default()
        };
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            let mut value = || {
                argv.next()
                    .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
            };
            match arg.as_str() {
                "serve" | "--serve" => a.serve = true,
                "status" | "--status" => a.status = true,
                "--store" => a.store = Some(value()),
                "--spool" => a.spool = Some(value()),
                "--serve-once" => a.serve_once = true,
                "--metrics-dir" => a.metrics_dir = Some(value()),
                "--metrics-cadence-ms" => {
                    a.metrics_cadence_ms = parse_num(&value(), &arg);
                    if a.metrics_cadence_ms == 0 {
                        fail("--metrics-cadence-ms must be at least 1");
                    }
                }
                "--floor" => a.floor = Some(value()),
                "--slow-ms" => a.slow_ms = Some(parse_num(&value(), &arg)),
                "--grid" => a.grid = value(),
                "--designs" => a.designs = Some(value()),
                "--capacities" => a.capacities = parse_capacities(&value()),
                "--workloads" => a.workloads = parse_workloads(&value()),
                "--scenarios" => a.scenarios = Some(value()),
                "--scale" => {
                    a.scale_name = value();
                    run_scale(&a.scale_name);
                }
                "--sampled" => a.sampled = true,
                "--sample-period" => {
                    a.sampled = true;
                    a.sample_period = Some(parse_num(&value(), &arg));
                }
                "--sample-strata" => {
                    a.sample_strata = parse_num(&value(), &arg);
                    if a.sample_strata == 0 {
                        fail("--sample-strata must be at least 1");
                    }
                }
                "--threads" => a.threads = Some(parse_num(&value(), &arg)),
                "--seed" => a.seed = parse_num(&value(), &arg),
                "--speedup" => a.speedup = true,
                "--json" => a.json = Some(value()),
                "--csv" => a.csv = Some(value()),
                "--bench" => a.bench = Some(value()),
                "--trace-out" => a.trace_out = Some(value()),
                "--metrics-out" => a.metrics_out = Some(value()),
                "--progress-jsonl" => a.progress_jsonl = Some(value()),
                "--list" => a.list = true,
                "--list-grids" => a.list_grids = true,
                "--list-designs" => a.list_designs = true,
                "--list-scenarios" => a.list_scenarios = true,
                "--quiet" => a.quiet = true,
                "--help" | "-h" => {
                    println!("{USAGE}");
                    return None;
                }
                other => fail(&format!("unknown argument `{other}`")),
            }
        }

        // `--grid sampled` is the designspace grid through the sampler
        // at the long-trace scale, on a small capacity by default
        // (sampling warms proportionally to capacity, so the speedup
        // story needs trace length >> warm windows; pass --capacities
        // to override).
        let preset = a.grid == "sampled";
        a.sampled |= preset;
        if a.scale_name.is_empty() {
            a.scale_name = if preset { "long" } else { "quick" }.to_string();
        }
        if a.capacities.is_empty() {
            a.capacities = if preset {
                vec![8]
            } else {
                vec![64, 128, 256, 512]
            };
        }
        Some(a)
    }

    fn scale(&self) -> RunScale {
        run_scale(&self.scale_name)
    }

    /// The engine every grid kind and serve run on: worker count
    /// (0 clamps to 1), progress output, `--store` (when `durable`) and
    /// the trace budget, resolved in one place.
    fn engine(&self, trace_budgets: Option<(usize, usize)>, durable: bool) -> SweepEngine {
        let mut engine = SweepEngine::new();
        if let Some((entry, aggregate)) = trace_budgets {
            engine = engine.with_trace_budgets(entry, aggregate);
        }
        if let Some(n) = self.threads {
            engine = engine.with_threads(n);
        }
        if self.quiet {
            engine = engine.quiet();
        }
        if let Some(path) = &self.progress_jsonl {
            engine = engine.with_progress_jsonl(progress_sink(path));
        }
        match &self.store {
            Some(dir) if durable => engine
                .with_durable_store(std::path::Path::new(dir))
                .unwrap_or_else(|e| fail(&format!("cannot open store `{dir}`: {e}"))),
            _ => engine,
        }
    }

    /// The run-provenance stamp every artifact of this invocation
    /// carries; grid kinds add their grid, points, workloads and
    /// designs.
    fn provenance(&self, engine: &SweepEngine, wall_secs: f64) -> fc_obs::Provenance {
        let mut p = fc_obs::Provenance::for_tool("fc_sweep");
        p.scale = Some(self.scale_name.clone());
        p.seed = Some(self.seed);
        p.threads = Some(engine.threads());
        p.wall_secs = Some(wall_secs);
        p.store_generation = engine.store().generation();
        p
    }
}

/// A finished timed run of one grid kind.
struct Run<'a, R> {
    engine: &'a SweepEngine,
    results: Vec<R>,
    secs: f64,
    speedup: Option<emit::SpeedupSummary>,
}

/// What differs between grid kinds. [`drive`] runs everything else —
/// engine set-up, the timed run, the `--speedup` rerun and identity
/// check, provenance, the artifact writes — once for all of them.
trait GridKind {
    type Result: emit::Record;

    /// Prints the grid's points (`--list`).
    fn list(&self);
    /// Trace-cache records (per entry, aggregate) the grid needs
    /// beyond the default budgets.
    fn trace_budgets(&self) -> Option<(usize, usize)> {
        None
    }
    /// Whether `--store` backs this grid's results.
    const DURABLE: bool = false;
    /// The stderr line right before the timed run.
    fn start_line(&self, workers: usize) -> String;
    /// Untimed set-up before each run (`announce`: the reported run).
    fn prepare(&self, _engine: &SweepEngine, _announce: bool) {}
    fn run(&self, engine: &SweepEngine) -> Vec<Self::Result>;
    /// The stderr line right after the timed run.
    fn done_line(&self, run: &Run<Self::Result>) -> String {
        let store = run.engine.store();
        format!(
            "{} simulations in {:.2}s ({} memo hits)",
            store.computed(),
            run.secs,
            store.memo_hits()
        )
    }
    fn print_table(&self, results: &[Self::Result]);
    /// Whether a parallel and a sequential result agree bit for bit.
    fn same(a: &Self::Result, b: &Self::Result) -> bool;
    /// Adds the grid label, point count, workloads and designs.
    fn stamp(&self, prov: &mut fc_obs::Provenance);
    /// The `--bench` summary.
    fn bench(&self, run: &Run<Self::Result>) -> String;
}

fn drive<G: GridKind>(args: &Args, obs: &ObsOut, kind: G) {
    if args.list {
        kind.list();
        return;
    }
    let engine = args.engine(kind.trace_budgets(), G::DURABLE);
    let workers = engine.threads();
    eprintln!("[fc_sweep] {}", kind.start_line(workers));
    kind.prepare(&engine, true);
    let started = Instant::now();
    let results = kind.run(&engine);
    let secs = started.elapsed().as_secs_f64();
    let mut run = Run {
        engine: &engine,
        results,
        secs,
        speedup: None,
    };
    eprintln!("[fc_sweep] {}", kind.done_line(&run));
    kind.print_table(&run.results);

    if args.speedup {
        // Fresh engine, fresh stores: a true sequential baseline.
        let mut seq_engine = SweepEngine::new();
        if let Some((entry, aggregate)) = kind.trace_budgets() {
            seq_engine = seq_engine.with_trace_budgets(entry, aggregate);
        }
        let seq_engine = seq_engine.with_threads(1).quiet();
        kind.prepare(&seq_engine, false);
        let started = Instant::now();
        let seq = kind.run(&seq_engine);
        let seq_secs = started.elapsed().as_secs_f64();
        let identical = run.results.len() == seq.len()
            && run.results.iter().zip(&seq).all(|(a, b)| G::same(a, b));
        println!();
        println!(
            "speedup: sequential {seq_secs:.2}s / parallel {secs:.2}s = {:.2}x on {} threads; results identical: {}",
            seq_secs / secs.max(1e-9),
            workers,
            if identical { "yes" } else { "NO (BUG)" }
        );
        if !identical {
            std::process::exit(1);
        }
        run.speedup = Some(emit::SpeedupSummary {
            sequential_secs: seq_secs,
            parallel_secs: secs,
            threads: workers,
        });
    }

    let mut prov = args.provenance(&engine, secs);
    kind.stamp(&mut prov);
    if let Some(path) = &args.json {
        write_file(
            path,
            &emit::with_provenance(&emit::to_json(&run.results), &prov),
        );
    }
    if let Some(path) = &args.csv {
        write_file(
            path,
            &emit::csv_with_provenance(&emit::to_csv(&run.results), &prov),
        );
    }
    if let Some(path) = &args.bench {
        write_file(path, &emit::with_provenance(&kind.bench(&run), &prov));
    }
    obs.finish(&prov);
}

/// Detailed trace replay (`fig4`, `fig5`, `fig67`, `designspace`,
/// `--designs`).
struct TraceGrid {
    name: String,
    spec: SweepSpec,
    workloads: Vec<WorkloadKind>,
}

impl TraceGrid {
    fn new(args: &Args) -> Self {
        let (name, families) = match &args.designs {
            Some(list) => (format!("custom({list})"), list.clone()),
            None => {
                // `sampled` is the designspace grid through the sampler.
                let preset = if args.grid == "sampled" {
                    "designspace"
                } else {
                    &args.grid
                };
                let families = fc_sweep::preset_families(preset).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown grid `{}` (run --list-grids for the catalogue)",
                        args.grid
                    ))
                });
                (args.grid.clone(), families)
            }
        };
        let designs = parse_designs(&families, &args.capacities);
        let spec = SweepSpec::new(args.scale())
            .with_seed(args.seed)
            .grid(&args.workloads, &designs)
            .dedup();
        let workloads = args.workloads.clone();
        Self {
            name,
            spec,
            workloads,
        }
    }
}

impl GridKind for TraceGrid {
    type Result = SweepResult;

    fn list(&self) {
        for p in self.spec.points() {
            println!(
                "{}  (warmup {}, measured {})",
                p.label(),
                p.warmup(),
                p.measured()
            );
        }
        eprintln!("[fc_sweep] {} points", self.spec.len());
    }

    const DURABLE: bool = true;

    fn start_line(&self, workers: usize) -> String {
        format!(
            "grid {}: {} points on {workers} thread(s)",
            self.name,
            self.spec.len()
        )
    }

    fn run(&self, engine: &SweepEngine) -> Vec<SweepResult> {
        engine.run_spec(&self.spec)
    }

    fn print_table(&self, results: &[SweepResult]) {
        println!(
            "{:<16} {:<28} {:>8} {:>10} {:>12} {:>12}",
            "workload", "design", "miss %", "IPC/pod", "offchip B/i", "stacked B/i"
        );
        for r in results {
            println!(
                "{:<16} {:<28} {:>7.1}% {:>10.2} {:>12.3} {:>12.3}",
                r.point.workload.to_string(),
                r.point.design.label(),
                r.report.cache.miss_ratio() * 100.0,
                r.report.throughput(),
                r.report.offchip_bytes_per_inst(),
                r.report.stacked_bytes_per_inst(),
            );
        }
    }

    fn same(a: &SweepResult, b: &SweepResult) -> bool {
        *a.report == *b.report
    }

    fn stamp(&self, prov: &mut fc_obs::Provenance) {
        prov.grid = Some(self.name.clone());
        prov.points = Some(self.spec.len());
        prov.workloads = self.workloads.iter().map(|w| w.to_string()).collect();
        prov.designs = emit::design_labels(self.spec.points().iter().map(|p| &p.design));
    }

    fn bench(&self, run: &Run<SweepResult>) -> String {
        emit::to_bench_json(&self.name, &run.results, run.secs, run.speedup)
    }
}

/// A trace-replay spec through the interval sampler (`--sampled` /
/// `--grid sampled`): auto or period-derived plans, and — with
/// `--bench` — the full-grid twin run and the speedup-vs-error report
/// (`BENCH_sample.json`).
struct SampledRun {
    trace: TraceGrid,
    grid: SampledGrid,
}

impl SampledRun {
    fn new(args: &Args) -> Self {
        let trace = TraceGrid::new(args);
        let spec = &trace.spec;
        let grid = match args.sample_period {
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
        .with_strata(args.sample_strata);
        Self { trace, grid }
    }
}

impl GridKind for SampledRun {
    type Result = SampledResult;

    fn list(&self) {
        for sp in self.grid.points() {
            println!(
                "{}  (plan: period {} = skip {} + functional {} + detailed {} + measured {}, \
                 warmup window {})",
                sp.label(),
                sp.plan.period,
                sp.plan.skip(),
                sp.plan.functional_warmup,
                sp.plan.detail_warmup,
                sp.plan.interval,
                match sp.plan.warmup_window {
                    u64::MAX => "all".to_string(),
                    window => window.to_string(),
                },
            );
        }
        eprintln!("[fc_sweep] {} sampled points", self.grid.len());
    }

    /// The fast path skips by slice arithmetic: the shared trace cache
    /// must hold every trace of the grid at its longest run
    /// ([`SampledGrid::trace_budgets`]).
    fn trace_budgets(&self) -> Option<(usize, usize)> {
        Some(self.grid.trace_budgets())
    }

    fn start_line(&self, workers: usize) -> String {
        format!(
            "grid {} [sampled]: {} points on {workers} thread(s)",
            self.trace.name,
            self.grid.len()
        )
    }

    /// Synthesizes the shared traces up front: the sampled grid, its
    /// sequential rerun and its full detailed twin replay the same
    /// cached streams, so no timing is charged for that synthesis.
    fn prepare(&self, engine: &SweepEngine, announce: bool) {
        let started = Instant::now();
        self.grid.prefetch_traces(engine);
        let synth_secs = started.elapsed().as_secs_f64();
        if announce && synth_secs > 0.01 {
            let synthesized = engine.trace_cache().records_synthesized();
            eprintln!(
                "[fc_sweep] synthesized {synthesized} shared trace records in {synth_secs:.2}s \
                 ({:.0} ns/record, {} worker(s))",
                synth_secs * 1e9 / synthesized.max(1) as f64,
                engine.trace_cache().workers()
            );
        }
    }

    fn run(&self, engine: &SweepEngine) -> Vec<SampledResult> {
        run_sampled_grid(&self.grid, engine)
    }

    fn done_line(&self, run: &Run<SampledResult>) -> String {
        format!(
            "{} sampled simulations in {:.2}s",
            run.engine.sampled_store().computed(),
            run.secs
        )
    }

    fn print_table(&self, results: &[SampledResult]) {
        println!(
            "{:<16} {:<28} {:>16} {:>18} {:>5} {:>9} {:>9}",
            "workload", "design", "IPC (95% CI)", "hit ratio (CI)", "n", "meas %", "replay %"
        );
        for r in results {
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
    }

    fn same(a: &SampledResult, b: &SampledResult) -> bool {
        *a.report == *b.report
    }

    fn stamp(&self, prov: &mut fc_obs::Provenance) {
        self.trace.stamp(prov);
        if self.trace.name != "sampled" {
            prov.grid = Some(format!("{}[sampled]", self.trace.name));
        }
        prov.points = Some(self.grid.len());
        prov.workloads.sort();
        prov.workloads.dedup();
    }

    /// The speedup-vs-error report needs the full detailed twin of
    /// every point, run through the same engine (same trace cache).
    fn bench(&self, run: &Run<SampledResult>) -> String {
        eprintln!(
            "[fc_sweep] running the full detailed twin grid ({} points)",
            self.trace.spec.len()
        );
        let started = Instant::now();
        let full = run.engine.run_spec(&self.trace.spec);
        let full_secs = started.elapsed().as_secs_f64();
        eprintln!(
            "[fc_sweep] full twin in {full_secs:.2}s vs sampled {:.2}s ({:.1}x wall)",
            run.secs,
            full_secs / run.secs.max(1e-9)
        );
        emit::to_sample_bench_json(&run.results, &full, run.secs, full_secs)
    }
}

/// Default design families of the mix grid: the paper's design plus
/// the granularity extremes it competes against.
const MIX_DESIGNS: &str = "baseline,page,footprint,banshee";

/// `--grid mix`: consolidation scenarios × designs with per-core
/// accounting, weighted speedup vs solo runs, and a fairness index
/// (`BENCH_mix.json`).
struct MixRun {
    grid: MixGrid,
}

impl MixRun {
    fn new(args: &Args) -> Self {
        let config = SimConfig::default();
        let designs = parse_designs(
            args.designs.as_deref().unwrap_or(MIX_DESIGNS),
            &args.capacities,
        );
        let scenarios: Vec<ScenarioSpec> = match &args.scenarios {
            Some(list) => resolve_scenarios(list, config.cores).unwrap_or_else(|e| fail(&e)),
            None => SCENARIO_FAMILIES
                .iter()
                .map(|f| f.build(config.cores))
                .collect(),
        };
        let grid = MixGrid::new(scenarios, designs, args.scale())
            .with_config(config)
            .with_seed(args.seed);
        Self { grid }
    }
}

impl GridKind for MixRun {
    type Result = MixResult;

    fn list(&self) {
        for p in self.grid.points() {
            println!(
                "{}  (warmup {}, measured {})",
                p.label(),
                p.warmup(),
                p.measured()
            );
        }
        eprintln!("[fc_sweep] {} mix points", self.grid.len());
    }

    fn start_line(&self, workers: usize) -> String {
        format!(
            "grid mix: {} points ({} scenarios x {} designs) + solo \
             baselines on {workers} thread(s)",
            self.grid.len(),
            self.grid.scenarios.len(),
            self.grid.designs.len(),
        )
    }

    fn run(&self, engine: &SweepEngine) -> Vec<MixResult> {
        fc_sweep::run_mix(&self.grid, engine)
    }

    fn print_table(&self, results: &[MixResult]) {
        println!(
            "{:<26} {:<22} {:>10} {:>10} {:>9} {:>9} {:>9}",
            "scenario", "design", "IPC/pod", "wtd spdup", "fairness", "min core", "max core"
        );
        for r in results {
            let speedups = &r.consolidation.per_core_speedup;
            println!(
                "{:<26} {:<22} {:>10.2} {:>10.3} {:>9.3} {:>9.3} {:>9.3}",
                r.point.scenario.name,
                r.point.design.label(),
                r.report.throughput(),
                r.consolidation.weighted_speedup,
                r.consolidation.fairness,
                speedups.iter().cloned().fold(f64::INFINITY, f64::min),
                speedups.iter().cloned().fold(0.0, f64::max),
            );
        }
    }

    fn same(a: &MixResult, b: &MixResult) -> bool {
        *a.report == *b.report && a.consolidation == b.consolidation
    }

    fn stamp(&self, prov: &mut fc_obs::Provenance) {
        prov.grid = Some("mix".to_string());
        prov.points = Some(self.grid.len());
        prov.workloads = self.grid.scenarios.iter().map(|s| s.name.clone()).collect();
        prov.designs = emit::design_labels(&self.grid.designs);
    }

    fn bench(&self, run: &Run<MixResult>) -> String {
        emit::to_mix_bench_json(&run.results, run.secs)
    }
}

/// Default design families of the loaded-latency curve: every family
/// with a bandwidth story, including the related-work designs.
const LOADED_DESIGNS: &str = "block,page,footprint,alloy,banshee,gemini";

/// `--grid loaded`: latency-vs-injected-bandwidth curves per design
/// (`BENCH_bandwidth.json`).
struct LoadedRun {
    grid: LoadedGrid,
}

impl LoadedRun {
    fn new(args: &Args) -> Self {
        if args.progress_jsonl.is_some() {
            eprintln!(
                "[fc_sweep] note: --progress-jsonl applies to engine-driven \
                 grids; the loaded grid reports on stderr only"
            );
        }
        let designs = parse_designs(
            args.designs.as_deref().unwrap_or(LOADED_DESIGNS),
            &args.capacities,
        );
        if args.workloads.len() > 1 {
            eprintln!(
                "[fc_sweep] note: the loaded grid injects one workload per run; \
                 using `{}` and ignoring the other {} (pass --workloads NAME to pick)",
                args.workloads[0],
                args.workloads.len() - 1
            );
        }
        let config = LoadedConfig {
            workload: args.workloads[0],
            seed: args.seed,
            ..fc_sweep::loaded::config_for_scale(args.scale())
        };
        Self {
            grid: LoadedGrid::standard(designs, config),
        }
    }
}

impl GridKind for LoadedRun {
    type Result = LoadedResult;

    fn list(&self) {
        for d in &self.grid.designs {
            for &interval in &self.grid.intervals {
                println!(
                    "{} @ {:.1} GB/s (interval {interval})",
                    d.label(),
                    fc_sim::loaded::interval_to_gbs(interval)
                );
            }
        }
        eprintln!("[fc_sweep] {} points", self.grid.len());
    }

    fn start_line(&self, workers: usize) -> String {
        format!(
            "grid loaded: {} points ({} designs x {} rates) on {workers} thread(s), workload {}",
            self.grid.len(),
            self.grid.designs.len(),
            self.grid.intervals.len(),
            self.grid.config.workload,
        )
    }

    fn run(&self, engine: &SweepEngine) -> Vec<LoadedResult> {
        fc_sweep::run_loaded(&self.grid, engine.threads())
    }

    fn done_line(&self, run: &Run<LoadedResult>) -> String {
        format!("{} loaded points in {:.2}s", run.results.len(), run.secs)
    }

    fn print_table(&self, results: &[LoadedResult]) {
        println!(
            "{:<28} {:>10} {:>10} {:>12} {:>10} {:>10}",
            "design", "inject", "achieve", "avg latency", "stack util", "off util"
        );
        for r in results {
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
    }

    fn same(a: &LoadedResult, b: &LoadedResult) -> bool {
        a == b
    }

    fn stamp(&self, prov: &mut fc_obs::Provenance) {
        prov.grid = Some("loaded".to_string());
        prov.points = Some(self.grid.len());
        prov.workloads = vec![self.grid.config.workload.to_string()];
        prov.designs = emit::design_labels(&self.grid.designs);
    }

    fn bench(&self, run: &Run<LoadedResult>) -> String {
        emit::to_bandwidth_bench_json(
            &run.results,
            &self.grid.config.workload.to_string(),
            run.secs,
        )
    }
}

/// `fc_sweep serve`: grid requests in, point + summary records out.
fn serve(args: &Args, obs: &ObsOut) {
    if args.serve_once && args.spool.is_none() {
        fail("--serve-once requires --spool");
    }
    if args.slow_ms.is_some() && args.metrics_dir.is_none() {
        fail("--slow-ms requires --metrics-dir (slow traces land under DIR/slow/)");
    }
    if args.floor.is_some() && args.metrics_dir.is_none() {
        fail("--floor requires --metrics-dir (the watchdog reports through health.json)");
    }
    // The monitor goes up before the engine: a scraper sees
    // `starting` while the durable store loads.
    let monitor = args.metrics_dir.as_ref().map(|dir| {
        let clock: std::sync::Arc<dyn fc_types::Clock> =
            std::sync::Arc::new(fc_types::WallClock::default());
        let mut m = fc_sweep::ServiceMonitor::new(std::path::Path::new(dir), clock)
            .unwrap_or_else(|e| fail(&format!("cannot create metrics dir `{dir}`: {e}")));
        if let Some(path) = &args.floor {
            let floor = fc_obs::FloorSpec::from_file(std::path::Path::new(path))
                .unwrap_or_else(|e| fail(&e));
            m = m.with_watchdog(fc_obs::Watchdog::new(floor));
        }
        if let Some(ms) = args.slow_ms {
            m = m.with_slow_capture(ms, fc_sweep::monitor::DEFAULT_SLOW_KEEP);
        }
        std::sync::Arc::new(m)
    });
    // Responses stream on stdout, so the engine must not print
    // per-point progress there.
    let engine = args.engine(None, true).quiet();
    let watcher = monitor.as_ref().map(|m| {
        m.set_generation(engine.store().generation());
        m.mark_serving();
        fc_sweep::spawn_watcher(std::sync::Arc::clone(m), args.metrics_cadence_ms)
    });
    let started = Instant::now();
    let observed = monitor.as_deref();
    let totals = match &args.spool {
        Some(dir) => fc_sweep::serve_spool_observed(
            &engine,
            std::path::Path::new(dir),
            &fc_sweep::ServeOptions {
                once: args.serve_once,
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
    let mut prov = args.provenance(&engine, started.elapsed().as_secs_f64());
    prov.grid = Some("serve".to_string());
    prov.points = Some(totals.points as usize);
    obs.finish(&prov);
}

fn main() {
    let Some(args) = Args::parse() else {
        return;
    };
    if args.status {
        let dir = args
            .metrics_dir
            .as_deref()
            .unwrap_or_else(|| fail("status needs --metrics-dir DIR to read from"));
        print!(
            "{}",
            fc_sweep::status::status_from_dir(std::path::Path::new(dir))
        );
        return;
    }
    if args.list_grids {
        println!("{GRIDS}");
        return;
    }
    if args.list_designs {
        print_design_catalogue();
        return;
    }
    if args.list_scenarios {
        print_scenario_catalogue();
        return;
    }

    let obs = ObsOut::new(args.trace_out.clone(), args.metrics_out.clone());
    if args.serve {
        serve(&args, &obs);
        return;
    }
    if args.metrics_dir.is_some() || args.floor.is_some() || args.slow_ms.is_some() {
        eprintln!(
            "[fc_sweep] note: --metrics-dir/--floor/--slow-ms apply to serve and \
             status modes; batch runs export via --metrics-out / --trace-out"
        );
    }
    let engine_grid = args.grid == "mix" || args.grid == "loaded";
    if args.sampled && engine_grid {
        fail("--sampled applies to trace-replay grids (fig4/fig5/fig67/designspace/sampled)");
    }
    if args.store.is_some() && (args.sampled || engine_grid) {
        eprintln!(
            "[fc_sweep] note: --store backs the detailed trace-replay store; \
             sampled/mix/loaded grids run in-memory"
        );
    }

    match args.grid.as_str() {
        "mix" => drive(&args, &obs, MixRun::new(&args)),
        "loaded" => drive(&args, &obs, LoadedRun::new(&args)),
        _ if args.sampled => drive(&args, &obs, SampledRun::new(&args)),
        _ => drive(&args, &obs, TraceGrid::new(&args)),
    }
}
