//! Tier-1 guarantees of the observability layer (fc-obs):
//!
//! 1. **Zero interference** — enabling tracing changes no simulation
//!    result, bit for bit, detailed and sampled alike; with the
//!    `detailed-stats` feature off, the per-interval time-series type
//!    compiles to a zero-sized no-op.
//! 2. **Valid, structured traces** — the Chrome trace-event export
//!    parses with the workspace JSON parser, spans nest properly
//!    within each worker lane, and parallel runs use distinct lanes.
//! 3. **Metrics coverage** — one sweep touches counters in every
//!    instrumented layer (sweep, sim, cache, dram, sample), and the
//!    counters agree with the reports they mirror.
//! 4. **Provenance** — artifacts wrapped by the emitters carry a
//!    parseable provenance stamp without disturbing their payload.
//!
//! The trace buffer and metrics registry are process-global, so every
//! test that touches them serializes on one mutex.

use std::sync::{Mutex, OnceLock};

use fc_obs::{metrics, trace};
use fc_sim::json::JsonValue;
use fc_sim::{DesignSpec, ScenarioSpec, SimConfig};
use fc_sweep::{
    emit, run_mix, run_sampled_grid, MixGrid, RunScale, SamplePlan, SampledGrid, SweepEngine,
    SweepSpec,
};
use fc_trace::WorkloadKind;

/// Serializes tests that enable/drain the global trace buffer.
fn gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

fn spec() -> SweepSpec {
    SweepSpec::new(RunScale::tiny()).grid(
        &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
        &[DesignSpec::baseline(), DesignSpec::footprint(64)],
    )
}

#[test]
fn tracing_never_changes_results() {
    let _gate = gate().lock().unwrap();
    let spec = spec();

    let plain = SweepEngine::new().with_threads(2).quiet().run_spec(&spec);
    trace::enable();
    let traced = SweepEngine::new().with_threads(2).quiet().run_spec(&spec);
    trace::disable();
    let _ = trace::take_events();

    for (a, b) in plain.iter().zip(&traced) {
        assert_eq!(
            *a.report,
            *b.report,
            "{}: tracing perturbed the detailed report",
            a.point.label()
        );
    }

    // The sampled twin: same guarantee through the interval sampler.
    let grid = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100));
    let plain = run_sampled_grid(&grid, &SweepEngine::new().with_threads(2).quiet());
    trace::enable();
    let traced = run_sampled_grid(&grid, &SweepEngine::new().with_threads(2).quiet());
    trace::disable();
    let _ = trace::take_events();
    for (a, b) in plain.iter().zip(&traced) {
        assert_eq!(
            *a.report,
            *b.report,
            "{}: tracing perturbed the sampled report",
            a.point.label()
        );
    }
}

/// One parsed trace event, pulled out of the Chrome JSON.
struct Event {
    name: String,
    ph: String,
    tid: u64,
    ts: u64,
    dur: u64,
    label: Option<String>,
}

fn parse_events(chrome_json: &str) -> Vec<Event> {
    let parsed = JsonValue::parse(chrome_json).expect("trace JSON parses");
    let JsonValue::Arr(events) = parsed.field("traceEvents").unwrap() else {
        panic!("traceEvents must be an array");
    };
    events
        .iter()
        .map(|e| Event {
            name: e.field("name").unwrap().as_str().unwrap().to_string(),
            ph: e.field("ph").unwrap().as_str().unwrap().to_string(),
            tid: e.field("tid").unwrap().as_u64().unwrap(),
            ts: e.get("ts").map(|v| v.as_u64().unwrap()).unwrap_or(0),
            dur: e.get("dur").map(|v| v.as_u64().unwrap()).unwrap_or(0),
            label: e
                .get("args")
                .and_then(|a| a.get("label"))
                .map(|v| v.as_str().unwrap().to_string()),
        })
        .collect()
}

/// The `thread_name` metadata of a Chrome trace: lane id → name.
fn lane_names(chrome_json: &str) -> std::collections::BTreeMap<u64, String> {
    let parsed = JsonValue::parse(chrome_json).expect("trace JSON parses");
    let JsonValue::Arr(events) = parsed.field("traceEvents").unwrap() else {
        panic!("traceEvents must be an array");
    };
    events
        .iter()
        .filter(|e| e.field("ph").unwrap().as_str().unwrap() == "M")
        .map(|e| {
            let name = e.field("args").unwrap().field("name").unwrap();
            (
                e.field("tid").unwrap().as_u64().unwrap(),
                name.as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn chrome_trace_is_valid_and_structured() {
    let _gate = gate().lock().unwrap();
    let _ = trace::take_events(); // drop stale events from other tests

    trace::enable();
    let engine = SweepEngine::new().with_threads(4).quiet();
    let spec = spec();
    engine.run_spec(&spec);
    engine.run_spec(&spec); // second pass: every point is a memo hit
    trace::disable();
    trace::flush_thread();

    let events = parse_events(&trace::chrome_trace_json());
    assert!(!events.is_empty());

    // Every phase the sweep stack is instrumented for shows up.
    for expected in [
        "point",
        "memo-lookup",
        "synthesis",
        "detailed-sim",
        "memo-hit",
    ] {
        assert!(
            events.iter().any(|e| e.name == expected),
            "no `{expected}` event in the trace"
        );
    }
    // A 4-worker run uses at least two distinct named lanes (workers
    // race on the cursor, so demanding all four would be flaky).
    let lanes: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.ph == "X")
        .map(|e| e.tid)
        .collect();
    assert!(lanes.len() >= 2, "spans landed on {lanes:?} only");
    let names: Vec<&Event> = events.iter().filter(|e| e.ph == "M").collect();
    assert!(
        names.iter().any(|e| e.name == "thread_name"),
        "lane-name metadata missing"
    );

    // The single-capacity grid filters the shared L2 once per workload
    // trace, whatever the number of designs replaying it.
    let mut filtered: Vec<&str> = events
        .iter()
        .filter(|e| e.ph == "X" && e.name == "l2-filter")
        .map(|e| e.label.as_deref().expect("l2-filter span is labelled"))
        .collect();
    filtered.sort_unstable();
    let records = spec.points()[0].warmup() + spec.points()[0].measured();
    assert_eq!(
        filtered,
        [
            format!("DataServing {records} records"),
            format!("WebSearch {records} records")
        ]
    );

    // Tiny warm-ups are no longer than the detailed tail: each fresh
    // point warms up in one detailed span and none replays functionally.
    assert!(!events.iter().any(|e| e.name == "functional-warmup"));
    assert_eq!(
        events
            .iter()
            .filter(|e| e.ph == "X" && e.name == "detailed-warmup")
            .count(),
        spec.len()
    );

    // Per lane: point spans are disjoint (each worker runs points
    // sequentially), and every memo-lookup nests inside a point span.
    for &lane in &lanes {
        let mut points: Vec<&Event> = events
            .iter()
            .filter(|e| e.ph == "X" && e.tid == lane && e.name == "point")
            .collect();
        points.sort_by_key(|e| e.ts);
        for pair in points.windows(2) {
            assert!(
                pair[0].ts + pair[0].dur <= pair[1].ts,
                "point spans overlap on lane {lane}"
            );
        }
        for lookup in events
            .iter()
            .filter(|e| e.ph == "X" && e.tid == lane && e.name == "memo-lookup")
        {
            assert!(
                points
                    .iter()
                    .any(|p| p.ts <= lookup.ts && lookup.ts + lookup.dur <= p.ts + p.dur),
                "memo-lookup at ts {} escapes every point span on lane {lane}",
                lookup.ts
            );
        }
    }

    // Sampled replay keeps its live L2: a sampled grid filters nothing.
    let _ = trace::take_events();
    trace::enable();
    let grid = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100));
    run_sampled_grid(&grid, &SweepEngine::new().with_threads(2).quiet());
    trace::disable();
    let events = parse_events(&trace::chrome_trace_json());
    assert!(events.iter().any(|e| e.name == "synthesis"));
    assert!(!events.iter().any(|e| e.name == "l2-filter"));

    // The mix grid runs on the same pool: a 2-worker run records one
    // `detailed-sim` span per fresh point (solo baselines and mix
    // points alike), each on a lane named `worker-N` and flushed
    // before the pool returns.
    let grid = MixGrid::new(
        vec![ScenarioSpec::split(
            WorkloadKind::DataServing,
            WorkloadKind::MapReduce,
            4,
        )],
        vec![DesignSpec::baseline(), DesignSpec::footprint(64)],
        RunScale::tiny(),
    )
    .with_config(SimConfig::small());
    let engine = SweepEngine::new().with_threads(2).quiet();
    let _ = trace::take_events();
    trace::enable();
    run_mix(&grid, &engine);
    trace::disable();

    let json = trace::chrome_trace_json();
    let lanes = lane_names(&json);
    let sims: Vec<u64> = parse_events(&json)
        .iter()
        .filter(|e| e.ph == "X" && e.name == "detailed-sim")
        .map(|e| e.tid)
        .collect();
    assert_eq!(sims.len() as u64, engine.store().computed());
    for tid in sims {
        let name = lanes
            .get(&tid)
            .unwrap_or_else(|| panic!("lane {tid} is unnamed"));
        assert!(is_lane(name, "worker"), "mix detailed-sim on lane `{name}`");
    }

    // A quick-scale trace spans several synthesis windows, so a worker
    // synthesizing it on demand runs the fill on the pool itself plus
    // `synth-N` helpers. The worker's own lane keeps its name: every
    // `detailed-sim` and `synthesis` span stays on a `worker-N` lane.
    let spec = SweepSpec::new(RunScale::quick()).grid(
        &[WorkloadKind::WebSearch],
        &[DesignSpec::baseline(), DesignSpec::footprint(64)],
    );
    assert!(spec.points()[1].warmup() > 2 * fc_trace::synth::WINDOW as u64);
    let engine = SweepEngine::new().with_threads(2).quiet();
    let _ = trace::take_events();
    trace::enable();
    engine.run_spec(&spec);
    trace::disable();

    let json = trace::chrome_trace_json();
    let lanes = lane_names(&json);
    let events = parse_events(&json);
    let on_lane = |span: &str| -> Vec<&String> {
        events
            .iter()
            .filter(|e| e.ph == "X" && e.name == span)
            .map(|e| {
                lanes
                    .get(&e.tid)
                    .unwrap_or_else(|| panic!("lane {} is unnamed", e.tid))
            })
            .collect()
    };
    assert_eq!(on_lane("detailed-sim").len(), 2);
    assert!(!on_lane("synthesis").is_empty());
    for name in on_lane("detailed-sim")
        .into_iter()
        .chain(on_lane("synthesis"))
    {
        assert!(is_lane(name, "worker"), "span on lane `{name}`");
    }
    assert!(
        lanes.values().any(|name| is_lane(name, "synth")),
        "no synth-N helper lane in {lanes:?}"
    );

    // A quick warm-up outlasts the detailed tail: inside each point
    // span, one functional-warmup span ends before its one
    // detailed-warmup span starts.
    let inside = |point: &Event, span: &str| -> Vec<(u64, u64)> {
        events
            .iter()
            .filter(|e| e.ph == "X" && e.tid == point.tid && e.name == span)
            .filter(|e| point.ts <= e.ts && e.ts + e.dur <= point.ts + point.dur)
            .map(|e| (e.ts, e.dur))
            .collect()
    };
    let points: Vec<&Event> = events
        .iter()
        .filter(|e| e.ph == "X" && e.name == "point")
        .collect();
    assert_eq!(points.len(), 2);
    for point in points {
        let functional = inside(point, "functional-warmup");
        let detailed = inside(point, "detailed-warmup");
        assert_eq!((functional.len(), detailed.len()), (1, 1));
        assert!(functional[0].0 + functional[0].1 <= detailed[0].0);
    }
}

/// Whether `name` is `{prefix}-N`.
fn is_lane(name: &str, prefix: &str) -> bool {
    name.strip_prefix(prefix)
        .and_then(|rest| rest.strip_prefix('-'))
        .is_some_and(|n| n.parse::<usize>().is_ok())
}

#[test]
fn metrics_cover_every_instrumented_layer() {
    let _gate = gate().lock().unwrap();
    let before = metrics::snapshot();

    let spec = spec();
    let engine = SweepEngine::new().with_threads(2).quiet();
    let results = engine.run_spec(&spec);
    let grid = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100));
    run_sampled_grid(&grid, &engine);

    let delta = metrics::snapshot().delta(&before);
    let expect = |name: &str| {
        delta
            .counter(name)
            .unwrap_or_else(|| panic!("counter `{name}` never published"))
    };

    // Sweep layer.
    assert_eq!(expect("sweep.points"), spec.len() as u64);
    assert_eq!(expect("sweep.simulations"), spec.len() as u64);
    assert_eq!(expect("sweep.sampled_points"), spec.len() as u64);
    // Sim + cache layers: counters mirror the reports exactly.
    let insts: u64 = results.iter().map(|r| r.report.insts).sum();
    assert_eq!(expect("sim.insts"), insts);
    assert_eq!(expect("sim.reports"), spec.len() as u64);
    // Tiny warm-ups are no longer than the detailed tail.
    let warmup: u64 = results.iter().map(|r| r.point.warmup()).sum();
    assert_eq!(expect("sim.records.warmup.detailed"), warmup);
    let functional = delta.counter("sim.records.warmup.functional");
    assert_eq!(functional.unwrap_or(0), 0);
    assert_eq!(
        expect("cache.accesses"),
        expect("cache.hits") + expect("cache.misses")
    );
    // DRAM layer, both channels' worth of names.
    assert!(expect("dram.offchip.accesses") > 0);
    assert!(expect("dram.stacked.accesses") > 0);
    // Sample layer (driven through the sampled grid above).
    assert_eq!(expect("sample.runs"), spec.len() as u64);
    assert!(expect("sample.records.replayed") > 0);
}

#[test]
fn provenance_stamp_survives_round_trip() {
    // Runs an engine, which publishes metrics: hold the gate so the
    // coverage test's snapshot delta stays clean.
    let _gate = gate().lock().unwrap();
    let spec = SweepSpec::new(RunScale::tiny())
        .grid(&[WorkloadKind::WebSearch], &[DesignSpec::baseline()]);
    let results = SweepEngine::new().with_threads(1).quiet().run_spec(&spec);

    let mut prov = fc_obs::Provenance::for_tool("fc_sweep");
    prov.grid = Some("tier1".to_string());
    prov.seed = Some(7);
    prov.points = Some(results.len());

    let wrapped = emit::with_provenance(&emit::to_json(&results), &prov);
    let parsed = JsonValue::parse(&wrapped).expect("wrapped JSON parses");
    let stamp = parsed.field("provenance").unwrap();
    assert_eq!(stamp.field("tool").unwrap().as_str().unwrap(), "fc_sweep");
    assert_eq!(stamp.field("seed").unwrap().as_u64().unwrap(), 7);
    let JsonValue::Arr(rows) = parsed.field("results").unwrap() else {
        panic!("payload must stay an array");
    };
    assert_eq!(rows.len(), results.len());
    // The payload row is untouched by the wrapper.
    assert!(rows[0].get("throughput").is_some());

    let csv = emit::csv_with_provenance(&emit::to_csv(&results), &prov);
    let mut lines = csv.lines();
    let stamp_line = lines.next().unwrap();
    let stamp = JsonValue::parse(stamp_line.trim_start_matches("# provenance: "))
        .expect("CSV stamp parses");
    assert_eq!(stamp.field("grid").unwrap().as_str().unwrap(), "tier1");
    assert!(lines.next().unwrap().starts_with("workload,"));
}

/// With the feature off, the per-interval time series must cost
/// nothing: a zero-sized type whose push is a no-op.
#[cfg(not(feature = "detailed-stats"))]
#[test]
fn detailed_stats_off_means_zero_sized_series() {
    assert!(!fc_obs::series::enabled());
    assert_eq!(std::mem::size_of::<fc_obs::TimeSeries>(), 0);
    let mut ts = fc_obs::TimeSeries::new();
    ts.push(1, 2.0);
    assert!(ts.is_empty());
}

/// With the feature on, a sweep publishes per-point time series
/// (hit-ratio-over-time, row-buffer locality, queue occupancy) into
/// the global registry.
#[cfg(feature = "detailed-stats")]
#[test]
fn detailed_stats_on_publishes_timeseries() {
    let _gate = gate().lock().unwrap();
    assert!(fc_obs::series::enabled());
    let _ = fc_obs::series::take_published();

    let spec = SweepSpec::new(RunScale::tiny())
        .grid(&[WorkloadKind::WebSearch], &[DesignSpec::footprint(64)]);
    SweepEngine::new().with_threads(1).quiet().run_spec(&spec);

    let published = fc_obs::series::take_published();
    assert!(
        published
            .iter()
            .any(|(name, _)| name.ends_with(".hit_ratio")),
        "no hit-ratio series in {:?}",
        published.keys().collect::<Vec<_>>()
    );
    // The outstanding-window occupancy, sampled every
    // `MemsysTimeline::WINDOW` demand accesses. Pinned to the values the
    // eager per-access computation produced, so moving where it is
    // computed cannot move what it reports.
    let occupancy = published
        .get("Web Search / Footprint 64MB.memsys.window_occupancy")
        .unwrap_or_else(|| {
            panic!(
                "no window-occupancy series in {:?}",
                published.keys().collect::<Vec<_>>()
            )
        });
    assert_eq!(
        occupancy.samples(),
        &[(1024, 15.0), (2048, 32.0), (3072, 6.0)]
    );
    let json = format!(
        "{{{}}}",
        published
            .iter()
            .map(|(name, s)| format!("\"{}\": {}", fc_obs::json_escape(name), s.to_json()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    JsonValue::parse(&json).expect("published series serialize to valid JSON");
}
