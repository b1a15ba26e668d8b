//! `perfbench-tracer` — the traced half of the benchmark.
//!
//! The end-to-end runs drive the shipped entry points (`fc_sweep` and
//! `fc_sweep serve`) with tracing off. This binary repeats a workload's
//! work by calling each layer's public functions itself, wrapping every
//! call in a span (name, layer, start, end, parent span, workload or
//! request tag). Spans stay in memory and are written once at the end;
//! `perfbench/run.py` derives each layer's self time and the per-layer
//! metrics from them.
//!
//! ```sh
//! perfbench-tracer sweep   --out DIR --threads 2 --seeds 11 \
//!     --workloads "web search,data serving" \
//!     --probe-requests PROBE.jsonl --memo-request PROBE_MEMO.json
//! perfbench-tracer sampled --out DIR --threads 2 --seeds 11 \
//!     --workloads "web search,data serving,mapreduce" \
//!     --probe-requests PROBE.jsonl --memo-request PROBE_MEMO.json
//! perfbench-tracer serve   --out DIR --threads 1 --seeds 11 \
//!     --workloads "web search" --requests REQS.jsonl --memo-request MEMO.json
//! ```
//!
//! Every mode first measures the cost of `fc_obs` tracing: a subset of
//! its main pass (the first workload, or the first sixth of the request
//! lines) runs untraced, then with `fc_obs::trace` on, then untraced
//! again, with the recorder off throughout. The overhead is the traced
//! wall over the mean of the two untraced walls, so a warm-up effect
//! does not bias it in one direction. Then the whole main pass runs with
//! the recorder on, for the layer breakdown and the digest. Probes that
//! measure layers the main pass cannot isolate (functional replay,
//! checkpoints, `DramSystem::access`, the sampler, the store and the
//! emitter) run afterwards, outside every measured wall.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use fc_dram::DramSystem;
use fc_sample::run_sampled;
use fc_sim::json::{escape, JsonValue};
use fc_sim::registry::{resolve_designs, DESIGN_FAMILIES};
use fc_sim::{DesignSpec, SimConfig, SimReport, Simulation};
use fc_sweep::{
    emit, serve_jsonl, Durable, ResultStore, RunScale, SampledGrid, SampledPoint, SampledResult,
    StoreValue, SweepEngine, SweepSpec, TraceCache, WorkloadKind, DEFAULT_DISK_SHARDS,
};
use fc_trace::{TraceGenerator, TraceRecord};

/// Records replayed per `step_slice` / `step_functional` span: large
/// enough that span bookkeeping is noise, small enough that a point
/// yields a dozen spans.
const CHUNK: usize = 1 << 18;

/// Stacked capacity of the sweep-full grid and of the serve workload's
/// fresh requests (and so of their probes), in MB.
const CAPACITY_MB: u64 = 64;
/// Stacked capacity of the sampled preset, in MB.
const SAMPLED_CAPACITY_MB: u64 = 8;
/// Records each family probe replays.
const PROBE_RECORDS: usize = 500_000;

// ---------------------------------------------------------------------------
// Span recorder

/// One recorded call.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    layer: &'static str,
    /// Workload point label or request index.
    tag: String,
    /// Design family (or DRAM tier, or request index) the call served.
    family: String,
    /// Work units the call processed (records, accesses, points).
    n: u64,
    start_ns: u64,
    end_ns: u64,
    thread: usize,
}

/// In-memory span recorder. Disabled, [`Tracer::span`] is a plain call.
struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// The open-span stack of this thread (parents of new spans).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's lane number in the span file.
    static LANE: RefCell<usize> = const { RefCell::new(0) };
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is this thread's innermost
    /// open span.
    fn span<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        tag: &str,
        family: &str,
        n: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        self.push(id, parent, name, layer, tag, family, n, start_ns);
        out
    }

    /// Records a call that started at `start_ns` and ends now, for calls
    /// whose kind is only known once they return.
    fn record(&self, name: &'static str, layer: &'static str, tag: &str, n: u64, start_ns: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, self.current(), name, layer, tag, "", n, start_ns);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        layer: &'static str,
        tag: &str,
        family: &str,
        n: u64,
        start_ns: u64,
    ) {
        let span = Span {
            id,
            parent,
            name,
            layer,
            tag: tag.to_string(),
            family: family.to_string(),
            n,
            start_ns,
            end_ns: self.now_ns(),
            thread: LANE.with(|l| *l.borrow()),
        };
        self.spans.lock().expect("span sink").push(span);
    }

    /// The id of this thread's innermost open span (0 outside any).
    fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Adopts `parent` as the root of this (worker) thread's stack.
    fn adopt(&self, parent: u64, lane: usize) {
        STACK.with(|s| *s.borrow_mut() = vec![parent]);
        LANE.with(|l| *l.borrow_mut() = lane);
    }

    fn write(&self, path: &Path) {
        let spans = self.spans.lock().expect("span sink");
        let mut out = String::new();
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"tag\":\"{}\",\
                 \"family\":\"{}\",\"n\":{},\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}\n",
                s.id,
                s.parent,
                s.name,
                s.layer,
                escape(&s.tag),
                escape(&s.family),
                s.n,
                s.start_ns,
                s.end_ns,
                s.thread
            ));
        }
        write_file(path, &out);
    }
}

/// Runs `work(index)` for every index in `0..len` on `threads` scoped
/// workers claiming indices from a shared cursor — the same scheduling
/// as the sweep executor. Each worker's spans hang under the caller's
/// current span.
fn par_for(tr: &Tracer, threads: usize, len: usize, work: impl Fn(usize) + Sync) {
    let cursor = AtomicUsize::new(0);
    let parent = tr.current();
    let workers = threads.min(len).max(1);
    std::thread::scope(|scope| {
        for lane in 0..workers {
            let (cursor, work) = (&cursor, &work);
            scope.spawn(move || {
                tr.adopt(parent, lane);
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= len {
                        break;
                    }
                    work(index);
                }
                // Hands this lane's fc-obs events to the sink before the
                // scope joins (a no-op while fc-obs tracing is off).
                fc_obs::trace::flush_thread();
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Output helpers

fn write_file(path: &Path, contents: &str) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-tracer: {msg}");
    std::process::exit(2);
}

/// Simulated counters of one simulation, as the stats file records
/// them. `source` says which pass produced it (`main`, `detailed`,
/// `functional`, `sample`).
fn stats_json(
    source: &str,
    family: &str,
    workload: &str,
    records: u64,
    sim: &Simulation,
) -> String {
    let cache = sim.memsys().cache();
    let stats = cache.stats();
    let (covered, over, under, bypasses) = match cache.prediction_counters() {
        Some(p) => (
            p.covered,
            p.overpredicted,
            p.underpredicted,
            p.singleton_bypasses,
        ),
        None => (0, 0, 0, 0),
    };
    format!(
        "{{\"source\":\"{source}\",\"family\":\"{family}\",\"workload\":\"{}\",\
         \"records\":{records},\"accesses\":{},\"hits\":{},\"evictions\":{},\
         \"covered\":{covered},\"overpredicted\":{over},\"underpredicted\":{under},\
         \"singleton_bypasses\":{bypasses},\"offchip_accesses\":{},\"stacked_accesses\":{}}}",
        escape(workload),
        stats.accesses,
        stats.hits,
        stats.evictions,
        sim.memsys().offchip_stats().accesses,
        sim.memsys().stacked_stats().accesses,
    )
}

/// Everything a mode hands back to `run.py` besides the spans.
#[derive(Default)]
struct Outcome {
    /// Stats lines (one JSON object each).
    stats: Mutex<Vec<String>>,
    /// Named counts.
    counts: Mutex<Vec<(String, f64)>>,
}

impl Outcome {
    fn stat(&self, line: String) {
        self.stats.lock().expect("stats").push(line);
    }

    /// Adds `value` to the named count (grids of several seeds add up).
    fn count(&self, name: &str, value: f64) {
        let mut counts = self.counts.lock().expect("counts");
        match counts.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += value,
            None => counts.push((name.to_string(), value)),
        }
    }

    fn write(&self, dir: &Path, walls: &Walls) {
        let mut stats = self.stats.lock().expect("stats").join("\n");
        stats.push('\n');
        write_file(&dir.join("stats.jsonl"), &stats);
        let mut counts = format!(
            "{{\"untraced_first_s\": {}, \"obs_traced_s\": {}, \"untraced_last_s\": {}, \
             \"obs_events\": {}, \"recorded_s\": {}",
            walls.untraced_first,
            walls.obs_traced,
            walls.untraced_last,
            walls.obs_events,
            walls.recorded
        );
        for (name, value) in self.counts.lock().expect("counts").iter() {
            counts.push_str(&format!(", \"{name}\": {value}"));
        }
        counts.push_str("}\n");
        write_file(&dir.join("counts.json"), &counts);
    }
}

/// The measured walls of the main passes, in seconds.
struct Walls {
    /// The overhead subset, untraced, before the fc-obs traced pass.
    untraced_first: f64,
    /// The overhead subset with `fc_obs::trace` on.
    obs_traced: f64,
    /// The overhead subset, untraced, after the fc-obs traced pass.
    untraced_last: f64,
    /// Events fc-obs recorded in its traced pass.
    obs_events: usize,
    /// The whole main pass with the recorder on.
    recorded: f64,
}

// ---------------------------------------------------------------------------
// Arguments

#[derive(Clone)]
struct Args {
    mode: String,
    out: PathBuf,
    threads: usize,
    seeds: Vec<u64>,
    workloads: Vec<WorkloadKind>,
    requests: Option<PathBuf>,
    probe_requests: Option<PathBuf>,
    memo_request: Option<PathBuf>,
}

fn parse_workloads(list: &str) -> Vec<WorkloadKind> {
    list.split(',')
        .map(|name| {
            WorkloadKind::ALL
                .into_iter()
                .find(|w| w.name().eq_ignore_ascii_case(name.trim()))
                .unwrap_or_else(|| fail(&format!("unknown workload `{name}`")))
        })
        .collect()
}

fn parse_scale(name: &str) -> RunScale {
    match name {
        "quick" => RunScale::quick(),
        "full" => RunScale::full(),
        "tiny" => RunScale::tiny(),
        "long" => RunScale::long(),
        other => fail(&format!("unknown scale `{other}`")),
    }
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mode = argv
        .next()
        .unwrap_or_else(|| fail("usage: perfbench-tracer <sweep|sampled|serve> --out DIR ..."));
    let mut args = Args {
        mode,
        out: PathBuf::new(),
        threads: 1,
        seeds: Vec::new(),
        workloads: vec![WorkloadKind::WebSearch],
        requests: None,
        probe_requests: None,
        memo_request: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("bad {flag} value `{v}`")))
        };
        match flag.as_str() {
            "--out" => args.out = PathBuf::from(value),
            "--threads" => args.threads = number(&value).max(1) as usize,
            "--seeds" => args.seeds = value.split(',').map(number).collect(),
            "--workloads" => args.workloads = parse_workloads(&value),
            "--requests" => args.requests = Some(PathBuf::from(value)),
            "--probe-requests" => args.probe_requests = Some(PathBuf::from(value)),
            "--memo-request" => args.memo_request = Some(PathBuf::from(value)),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    if args.out.as_os_str().is_empty() {
        fail("--out DIR is required");
    }
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", args.out.display())));
    args
}

/// The registry family name of each design, by position in
/// `resolve_designs` over a single capacity (one spec per family).
fn family_designs(capacity: u64) -> Vec<(&'static str, DesignSpec)> {
    let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
    let designs = resolve_designs(&names.join(","), &[capacity]).unwrap_or_else(|e| fail(&e));
    names.into_iter().zip(designs).collect()
}

fn family_of(design: &DesignSpec, capacity: u64) -> &'static str {
    family_designs(capacity)
        .into_iter()
        .find(|(_, d)| d == design)
        .map(|(name, _)| name)
        .unwrap_or("unknown")
}

// ---------------------------------------------------------------------------
// sweep: the detailed designspace grid, point by point

/// One detailed grid pass at full scale; returns its wall seconds. With
/// `out`, the points' store encodings (the digest input) and stats are
/// recorded.
fn sweep_pass(tr: &Tracer, args: &Args, out: Option<&Outcome>, digest: &mut Vec<String>) -> f64 {
    let started = Instant::now();
    let keep: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    for &seed in &args.seeds {
        let designs = family_designs(CAPACITY_MB);
        let spec = SweepSpec::new(RunScale::full())
            .with_seed(seed)
            .grid(
                &args.workloads,
                &designs.iter().map(|(_, d)| *d).collect::<Vec<_>>(),
            )
            .dedup();
        let points = spec.points();
        let cache = TraceCache::default();
        let synthesized: Vec<OnceLock<()>> =
            args.workloads.iter().map(|_| OnceLock::new()).collect();
        tr.span(
            "grid",
            "fc-sweep.executor",
            &format!("seed {seed}"),
            "",
            points.len() as u64,
            || {
                par_for(tr, args.threads, points.len(), |index| {
                    let point = &points[index];
                    let family = family_of(&point.design, CAPACITY_MB);
                    let label = point.label();
                    let (warmup, measured) = (point.warmup(), point.measured());
                    let len = warmup + measured;
                    tr.span("point", "fc-sweep.executor", &label, family, len, || {
                        let slot = args
                            .workloads
                            .iter()
                            .position(|w| *w == point.workload)
                            .expect("point workload is in the grid");
                        // The first point of a workload synthesizes its trace
                        // (later ones wait, as in the executor).
                        synthesized[slot].get_or_init(|| {
                            tr.span("trace.synth", "fc-trace", &label, family, len, || {
                                cache.records(point.workload, point.config.cores, point.seed(), len)
                            });
                        });
                        let records = tr
                            .span(
                                "trace_cache.hit",
                                "fc-sweep.trace_cache",
                                &label,
                                family,
                                0,
                                || {
                                    cache.records(
                                        point.workload,
                                        point.config.cores,
                                        point.seed(),
                                        len,
                                    )
                                },
                            )
                            .unwrap_or_else(|| fail("trace exceeds the trace-cache budget"));
                        let mut sim = tr.span("sim.build", "fc-cache", &label, family, 0, || {
                            Simulation::new(point.config, point.design)
                        });
                        let (warm, meas) = records[..len as usize].split_at(warmup as usize);
                        for chunk in warm.chunks(CHUNK) {
                            tr.span(
                                "sim.detailed",
                                "fc-sim",
                                &label,
                                family,
                                chunk.len() as u64,
                                || sim.step_slice(chunk),
                            );
                        }
                        sim.drain();
                        let snapshot = sim.snapshot();
                        for chunk in meas.chunks(CHUNK) {
                            tr.span(
                                "sim.detailed",
                                "fc-sim",
                                &label,
                                family,
                                chunk.len() as u64,
                                || sim.step_slice(chunk),
                            );
                        }
                        let report = tr.span("sim.report", "fc-sim", &label, family, 0, || {
                            sim.drain();
                            SimReport::since(&sim, &snapshot)
                        });
                        if let Some(out) = out {
                            let mut stats =
                                stats_json("main", family, &point.workload.to_string(), len, &sim);
                            // The measured window's counters, as the report has them.
                            stats.pop();
                            stats.push_str(&format!(
                                ",\"window\":{{\"accesses\":{},\"hits\":{},\"evictions\":{},\
                             \"insts\":{},\"measured\":{measured},\"offchip_accesses\":{},\
                             \"stacked_accesses\":{}}}}}",
                                report.cache.accesses,
                                report.cache.hits,
                                report.cache.evictions,
                                report.insts,
                                report.offchip.accesses,
                                report.stacked.accesses
                            ));
                            out.stat(stats);
                            keep.lock().expect("digest rows").push((
                                index,
                                format!(
                                    "{{\"k\":\"{}\",\"v\":{}}}",
                                    escape(point.key().canonical()),
                                    report.to_store_json()
                                ),
                            ));
                        }
                    });
                });
            },
        );
        if let Some(out) = out {
            out.count(
                "trace_cache.records_synthesized",
                cache.records_synthesized() as f64,
            );
            let replayed: u64 = points.iter().map(|p| p.warmup() + p.measured()).sum();
            out.count("trace_cache.records_replayed", replayed as f64);
        }
        let mut rows = keep.lock().expect("digest rows");
        rows.sort();
        digest.extend(rows.drain(..).map(|(_, row)| row));
    }
    started.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// sampled: the sampled preset, one fc_sample::run_sampled call per point

fn sampled_pass(tr: &Tracer, args: &Args, out: Option<&Outcome>, digest: &mut Vec<String>) -> f64 {
    let started = Instant::now();
    for &seed in &args.seeds {
        let designs = family_designs(SAMPLED_CAPACITY_MB);
        let spec = SweepSpec::new(RunScale::long())
            .with_seed(seed)
            .grid(
                &args.workloads,
                &designs.iter().map(|(_, d)| *d).collect::<Vec<_>>(),
            )
            .dedup();
        let grid = SampledGrid::auto(&spec);
        // The CLI's trace budget for a sampled grid.
        let budget = grid
            .max_records()
            .min(20_000_000)
            .max(TraceCache::DEFAULT_BUDGET as u64) as usize;
        let cache = TraceCache::new(budget);
        let points = grid.points();
        let slots: Vec<OnceLock<SampledResult>> = points.iter().map(|_| OnceLock::new()).collect();
        tr.span(
            "grid",
            "fc-sweep.executor",
            &format!("seed {seed}"),
            "",
            points.len() as u64,
            || {
                // Shared traces first, as the CLI prefetches them.
                for sp in points {
                    let p = &sp.point;
                    let len = p.warmup() + p.measured();
                    let before = cache.records_synthesized();
                    let start_ns = tr.now_ns();
                    let _ = cache.records(p.workload, p.config.cores, p.seed(), len);
                    let grew = cache.records_synthesized() - before;
                    // Only a call that synthesized is a synthesis span.
                    if grew > 0 {
                        tr.record("trace.synth", "fc-trace", &p.label(), grew, start_ns);
                    }
                }
                par_for(tr, args.threads, points.len(), |index| {
                    let sp = &points[index];
                    let p = &sp.point;
                    let family = family_of(&p.design, SAMPLED_CAPACITY_MB);
                    let label = sp.label();
                    let (warmup, measured) = (p.warmup(), p.measured());
                    tr.span(
                        "point",
                        "fc-sweep.executor",
                        &label,
                        family,
                        warmup + measured,
                        || {
                            let records = cache
                                .records(p.workload, p.config.cores, p.seed(), warmup + measured)
                                .unwrap_or_else(|| fail("trace exceeds the trace-cache budget"));
                            let mut sim =
                                tr.span("sim.build", "fc-cache", &label, family, 0, || {
                                    Simulation::new(p.config, p.design)
                                });
                            let started = Instant::now();
                            let report = tr.span(
                                "sample.run_sampled",
                                "fc-sample",
                                &label,
                                family,
                                warmup + measured,
                                || run_sampled(&mut sim, &records, warmup, measured, &sp.plan),
                            );
                            if let Some(out) = out {
                                out.stat(stats_json(
                                    "main",
                                    family,
                                    &p.workload.to_string(),
                                    warmup + measured,
                                    &sim,
                                ));
                            }
                            slots[index]
                                .set(SampledResult {
                                    point: *sp,
                                    report: Arc::new(report),
                                    sim_secs: started.elapsed().as_secs_f64(),
                                    memoized: false,
                                })
                                .unwrap_or_else(|_| fail("point ran twice"));
                        },
                    );
                });
            },
        );
        let results: Vec<SampledResult> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every point ran"))
            .collect();
        if let Some(out) = out {
            out.count(
                "trace_cache.records_synthesized",
                cache.records_synthesized() as f64,
            );
            let replayed: u64 = results.iter().map(|r| r.report.replayed_records).sum();
            out.count("trace_cache.records_replayed", replayed as f64);
            for r in &results {
                let rep = &r.report;
                out.stat(format!(
                    "{{\"source\":\"sample\",\"family\":\"{}\",\"total_records\":{},\
                     \"replayed_records\":{},\"measured_records\":{},\"intervals\":{},\
                     \"sim_secs\":{}}}",
                    family_of(&r.point.point.design, SAMPLED_CAPACITY_MB),
                    rep.total_records,
                    rep.replayed_records,
                    rep.measured_records,
                    rep.intervals.len(),
                    r.sim_secs
                ));
            }
        }
        digest.push(emit::to_sampled_json(&results));
    }
    started.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// serve: the request session through serve_jsonl, one line per call

fn read_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

/// The sweep spec of the benchmark's memo request (a designspace grid:
/// `capacities`, `workloads`, `scale`, `seed`), as `fc_sweep serve`
/// would expand it.
fn memo_spec(path: &Path) -> SweepSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let v = JsonValue::parse(text.trim()).unwrap_or_else(|e| fail(&e));
    let field = |k: &str| v.field(k).unwrap_or_else(|e| fail(&e));
    let capacities: Vec<u64> = match field("capacities") {
        JsonValue::Arr(items) => items
            .iter()
            .map(|c| c.as_u64().unwrap_or_else(|e| fail(&e)))
            .collect(),
        _ => fail("memo request capacities must be an array"),
    };
    let workloads: Vec<WorkloadKind> = match field("workloads") {
        JsonValue::Arr(items) => items
            .iter()
            .flat_map(|w| parse_workloads(w.as_str().unwrap_or_else(|e| fail(&e))))
            .collect(),
        _ => fail("memo request workloads must be an array"),
    };
    let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
    let designs = resolve_designs(&names.join(","), &capacities).unwrap_or_else(|e| fail(&e));
    SweepSpec::new(parse_scale(
        field("scale").as_str().unwrap_or_else(|e| fail(&e)),
    ))
    .with_seed(field("seed").as_u64().unwrap_or_else(|e| fail(&e)))
    .grid(&workloads, &designs)
    .dedup()
}

/// Replays `lines` through `serve_jsonl` over a fresh durable store in
/// `store_dir`; returns the wall seconds and the response text of each
/// line. With `out`, also records the store, emit and trace-cache
/// figures of the session.
fn serve_pass(
    tr: &Tracer,
    threads: usize,
    lines: &[String],
    store_dir: &Path,
    memo: &SweepSpec,
    out: Option<&Outcome>,
) -> (f64, Vec<String>) {
    let _ = std::fs::remove_dir_all(store_dir);
    let started = Instant::now();
    let mut responses = Vec::with_capacity(lines.len());
    let engine = tr.span(
        "session",
        "fc-sweep.serve",
        "",
        "",
        lines.len() as u64,
        || {
            let engine = tr.span("engine.open", "fc-sweep.store", "", "", 0, || {
                SweepEngine::new()
                    .with_threads(threads)
                    .quiet()
                    .with_durable_store(store_dir)
                    .unwrap_or_else(|e| fail(&e))
            });
            for (index, line) in lines.iter().enumerate() {
                let tag = index.to_string();
                let parsed = tr.span("json.parse", "fc-types.json", &tag, "", 0, || {
                    JsonValue::parse(line)
                });
                let _ = black_box(parsed);
                let mut response: Vec<u8> = Vec::new();
                tr.span("serve.request", "fc-sweep.serve", &tag, "", 0, || {
                    serve_jsonl(
                        &engine,
                        std::io::Cursor::new(line.as_bytes()),
                        &mut response,
                    )
                })
                .unwrap_or_else(|e| fail(&format!("serve_jsonl: {e}")));
                responses
                    .push(String::from_utf8(response).unwrap_or_else(|e| fail(&e.to_string())));
            }
            engine
        },
    );
    let wall = started.elapsed().as_secs_f64();
    if let Some(out) = out {
        out.count(
            "trace_cache.records_synthesized",
            engine.trace_cache().records_synthesized() as f64,
        );
        store_probe(tr, &engine, store_dir, memo, out);
    }
    (wall, responses)
}

/// Times the store and emit layers on the session's memo keys: a cold
/// open that loads every shard, warm `ResultStore::get`s,
/// `Durable::append`s into a scratch store, and `point_record_json`.
fn store_probe(
    tr: &Tracer,
    engine: &SweepEngine,
    store_dir: &Path,
    memo: &SweepSpec,
    out: &Outcome,
) {
    let keys: Vec<_> = memo.points().iter().map(|p| p.key()).collect();
    let store = tr.span(
        "store.open",
        "fc-sweep.store",
        "",
        "",
        keys.len() as u64,
        || {
            let store = ResultStore::<SimReport>::durable(store_dir).unwrap_or_else(|e| fail(&e));
            // Shards load on first touch; touching every key loads them all.
            for key in &keys {
                let _ = store.get(key);
            }
            store
        },
    );
    let mut reports = Vec::with_capacity(keys.len());
    for key in &keys {
        let report = tr.span("store.get", "fc-sweep.store", "", "", 1, || store.get(key));
        reports.push(report.unwrap_or_else(|| fail("memo key missing from the store")));
    }
    let scratch = store_dir.with_extension("append");
    let _ = std::fs::remove_dir_all(&scratch);
    let durable =
        Durable::<SimReport>::open(&scratch, DEFAULT_DISK_SHARDS).unwrap_or_else(|e| fail(&e));
    for (key, report) in keys.iter().zip(&reports) {
        tr.span("durable.append", "fc-sweep.durable", "", "", 1, || {
            durable.append(key, report)
        });
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&scratch);
    let results = engine.run_spec(memo);
    let mut bytes = 0usize;
    for r in &results {
        bytes += tr.span("emit.point_record_json", "fc-sweep.emit", "", "", 1, || {
            emit::point_record_json(r).len()
        });
    }
    out.count("emit.bytes", bytes as f64);
}

// ---------------------------------------------------------------------------
// Probes: the layers a main pass does not isolate

/// Replays the first `n` records of each workload through every family,
/// detailed (`step_slice`) and/or functional (`step_functional`, then a
/// checkpoint), at `capacity` MB.
#[allow(clippy::too_many_arguments)]
fn family_probe(
    tr: &Tracer,
    workloads: &[WorkloadKind],
    capacity: u64,
    seed: u64,
    n: usize,
    detailed: bool,
    out: &Outcome,
) -> Vec<Arc<Vec<TraceRecord>>> {
    let config = SimConfig::default();
    let mut traces = Vec::new();
    for &workload in workloads {
        let wname = workload.to_string();
        // The sweep's per-workload seed derivation.
        let trace_seed = seed ^ (workload as u64) << 8;
        let records: Arc<Vec<TraceRecord>> =
            Arc::new(
                tr.span("trace.synth", "fc-trace", &wname, "", n as u64, || {
                    TraceGenerator::new(workload, config.cores, trace_seed)
                        .take(n)
                        .collect()
                }),
            );
        for (family, design) in family_designs(capacity) {
            let tag = format!("{wname} / {family}");
            if detailed {
                let mut sim = tr.span("sim.build", "fc-cache", &tag, family, 0, || {
                    Simulation::new(config, design)
                });
                for chunk in records.chunks(CHUNK) {
                    tr.span(
                        "sim.detailed",
                        "fc-sim",
                        &tag,
                        family,
                        chunk.len() as u64,
                        || sim.step_slice(chunk),
                    );
                }
                sim.drain();
                out.stat(stats_json("detailed", family, &wname, n as u64, &sim));
            }
            let mut sim = tr.span("sim.build", "fc-cache", &tag, family, 0, || {
                Simulation::new(config, design)
            });
            for chunk in records.chunks(CHUNK) {
                tr.span(
                    "sim.functional",
                    "fc-sim",
                    &tag,
                    family,
                    chunk.len() as u64,
                    || {
                        for r in chunk {
                            sim.step_functional(r);
                        }
                    },
                );
            }
            let checkpoint = tr.span("sim.checkpoint", "fc-sim", &tag, family, 0, || {
                sim.checkpoint()
            });
            black_box(checkpoint);
            out.stat(stats_json("functional", family, &wname, n as u64, &sim));
        }
        traces.push(records);
    }
    traces
}

/// Host cost of `DramSystem::access` on the off-chip and stacked
/// configurations, replaying the block addresses of `records`.
fn dram_probe(tr: &Tracer, records: &[TraceRecord]) {
    let design = DesignSpec::footprint(64);
    let tiers = [
        ("offchip", design.offchip.resolve()),
        (
            "stacked",
            design.stacked.expect("footprint has a stack").resolve(),
        ),
    ];
    for (tier, config) in tiers {
        let mut dram = DramSystem::new(config);
        let mut at = 0u64;
        for chunk in records.chunks(1 << 16) {
            tr.span(
                "dram.access",
                "fc-dram",
                tier,
                tier,
                chunk.len() as u64,
                || {
                    for r in chunk {
                        at += r.inst_gap as u64;
                        black_box(dram.access(r.addr.block().base(), r.kind, 1, at));
                    }
                },
            );
        }
    }
}

/// One sampled point of the sampled preset (Footprint, 8 MB, long
/// scale) for workloads whose main pass does not sample.
fn sample_probe(tr: &Tracer, workload: WorkloadKind, seed: u64, out: &Outcome) {
    let spec = SweepSpec::new(RunScale::long())
        .with_seed(seed)
        .point(workload, DesignSpec::footprint(8));
    let sp = SampledPoint::auto(spec.points()[0]);
    let p = &sp.point;
    let (warmup, measured) = (p.warmup(), p.measured());
    let label = sp.label();
    let records: Vec<TraceRecord> = tr.span(
        "trace.synth",
        "fc-trace",
        &label,
        "",
        warmup + measured,
        || {
            TraceGenerator::new(p.workload, p.config.cores, p.seed())
                .take((warmup + measured) as usize)
                .collect()
        },
    );
    let mut sim = tr.span("sim.build", "fc-cache", &label, "footprint", 0, || {
        Simulation::new(p.config, p.design)
    });
    let started = Instant::now();
    let report = tr.span(
        "sample.run_sampled",
        "fc-sample",
        &label,
        "footprint",
        warmup + measured,
        || run_sampled(&mut sim, &records, warmup, measured, &sp.plan),
    );
    out.stat(format!(
        "{{\"source\":\"sample\",\"family\":\"footprint\",\"total_records\":{},\
         \"replayed_records\":{},\"measured_records\":{},\"intervals\":{},\"sim_secs\":{}}}",
        report.total_records,
        report.replayed_records,
        report.measured_records,
        report.intervals.len(),
        started.elapsed().as_secs_f64()
    ));
}

// ---------------------------------------------------------------------------

/// One main pass of the mode over `args` (serve: over the request
/// `lines`, into a fresh store named after the pass). Returns its wall
/// seconds and, with `out`, the digest rows.
fn main_pass(
    tr: &Tracer,
    args: &Args,
    lines: &[String],
    memo: Option<&SweepSpec>,
    name: &str,
    out: Option<&Outcome>,
) -> (f64, Vec<String>) {
    let mut digest = Vec::new();
    let wall = match args.mode.as_str() {
        "sweep" => sweep_pass(tr, args, out, &mut digest),
        "sampled" => sampled_pass(tr, args, out, &mut digest),
        _ => {
            let memo = memo.unwrap_or_else(|| fail("serve needs --memo-request"));
            let store = args.out.join(format!("store-{name}"));
            let (wall, responses) = serve_pass(tr, args.threads, lines, &store, memo, out);
            digest = responses;
            wall
        }
    };
    (wall, digest)
}

fn main() {
    let args = parse_args();
    let tr = Tracer::new();
    let out = Outcome::default();

    let lines = match args.mode.as_str() {
        "serve" => read_lines(
            args.requests
                .as_deref()
                .unwrap_or_else(|| fail("serve needs --requests")),
        ),
        "sweep" | "sampled" => Vec::new(),
        other => fail(&format!("unknown mode `{other}`")),
    };
    let memo = args.memo_request.as_deref().map(memo_spec);

    // The fc-obs overhead, on a subset of the main pass: untraced,
    // fc-obs traced, untraced again.
    let mut subset = args.clone();
    subset.workloads.truncate(1);
    subset.seeds.truncate(1);
    let subset_lines = &lines[..lines.len().div_ceil(6)];
    let pass = |args: &Args, lines: &[String], name: &str| {
        main_pass(&tr, args, lines, memo.as_ref(), name, None).0
    };
    let untraced_first = pass(&subset, subset_lines, "untraced-first");
    let _ = fc_obs::trace::take_events();
    fc_obs::trace::enable();
    let obs_traced = pass(&subset, subset_lines, "obs-traced");
    fc_obs::trace::disable();
    let obs_events = fc_obs::trace::take_events().0.len();
    let untraced_last = pass(&subset, subset_lines, "untraced-last");

    // The whole main pass, recorded.
    tr.set_enabled(true);
    let (recorded, digest) = main_pass(&tr, &args, &lines, memo.as_ref(), "recorded", Some(&out));
    let walls = Walls {
        untraced_first,
        obs_traced,
        untraced_last,
        obs_events,
        recorded,
    };

    let seed = args
        .seeds
        .first()
        .copied()
        .unwrap_or(SweepSpec::DEFAULT_SEED);

    // Probes (recorded, outside every measured wall).
    let (capacity, detailed) = match args.mode.as_str() {
        "sweep" => (CAPACITY_MB, false),
        "sampled" => (SAMPLED_CAPACITY_MB, true),
        _ => (CAPACITY_MB, true),
    };
    // The probes replay the workload's first trace only.
    let traces = family_probe(
        &tr,
        &args.workloads[..1],
        capacity,
        seed,
        PROBE_RECORDS,
        detailed,
        &out,
    );
    dram_probe(&tr, &traces[0]);
    if args.mode != "sampled" {
        sample_probe(&tr, args.workloads[0], seed, &out);
    }
    if args.mode != "serve" {
        let path = args
            .probe_requests
            .as_deref()
            .unwrap_or_else(|| fail("batch modes need --probe-requests"));
        let lines = read_lines(path);
        let memo = memo
            .as_ref()
            .unwrap_or_else(|| fail("batch modes need --memo-request"));
        let probe = Outcome::default();
        let (_, responses) = serve_pass(
            &tr,
            args.threads,
            &lines,
            &args.out.join("store-probe"),
            memo,
            Some(&probe),
        );
        // The probe's trace-cache figures belong to the probe, not the
        // workload; keep only its store and emit counts.
        for (name, value) in probe.counts.into_inner().expect("counts") {
            if !name.starts_with("trace_cache.") {
                out.count(&name, value);
            }
        }
        write_file(&args.out.join("probe_responses.jsonl"), &responses.concat());
    }

    tr.write(&args.out.join("spans.jsonl"));
    out.write(&args.out, &walls);
    let mut text = String::new();
    for row in &digest {
        text.push_str(row);
        if !row.ends_with('\n') {
            text.push('\n');
        }
    }
    write_file(&args.out.join("digest.txt"), &text);
    let _ = std::io::stdout().flush();
}
