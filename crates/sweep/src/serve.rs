//! `fc_sweep serve` — sweep-as-a-service over JSONL, no network needed.
//!
//! A serve loop accepts *grid requests* (one JSON object per line, on
//! stdin or as files dropped into a spool directory), diffs each
//! request against the engine's result store — durable, when the CLI
//! passed `--store` — and schedules only the missing points on the
//! deterministic executor. Results stream back as JSONL: one `point`
//! record per sweep point (the same record text as one
//! [`emit::to_json`](crate::emit::to_json) element) followed by one `summary`
//! record per request.
//!
//! # Request shape
//!
//! ```json
//! {"id": "nightly-1", "grid": "designspace", "capacities": [64, 128],
//!  "workloads": ["web search"], "scale": "tiny", "seed": 42}
//! ```
//!
//! Every field is optional: `designs` (comma list of registry
//! families) overrides `grid` (a preset name), `capacities` defaults
//! to the CLI's 64/128/256/512, `workloads` to all six, `scale` to
//! `quick`, `seed` to the default sweep seed, `id` to `""`.
//!
//! # Response shape
//!
//! ```json
//! {"type": "point", "id": "nightly-1", "fresh": false, "point": {…}}
//! {"type": "summary", "id": "nightly-1", "points": 12, "fresh": 0,
//!  "wall_secs": 0.01, "store_generation": 0}
//! {"type": "error", "id": "nightly-1", "error": "unknown scale `big`"}
//! ```

use std::io::{BufRead, Write};
use std::path::Path;

use fc_obs::{metrics, trace};
use fc_sim::json::{escape, JsonValue};
use fc_sim::registry::resolve_designs;
use fc_sim::DesignSpec;
use fc_trace::WorkloadKind;

use crate::emit;
use crate::executor::SweepEngine;
use crate::monitor::ServiceMonitor;
use crate::scale::RunScale;
use crate::spec::{parse_workload, preset_families, SweepSpec};

/// Bounds (milliseconds) of the request-latency histograms. Serve
/// requests span four orders of magnitude — memoized answers in
/// single-digit ms, cold full-scale grids in the tens of seconds — so
/// the buckets follow a 1-2-5 decade ladder.
const LATENCY_BOUNDS_MS: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 30_000,
];

/// Spool-mode knobs for [`serve_spool`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Milliseconds between spool-directory scans.
    pub poll_ms: u64,
    /// Process the requests currently in the spool, then return
    /// (instead of polling forever) — the CI-friendly mode.
    pub once: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            poll_ms: 200,
            once: false,
        }
    }
}

/// What a serve loop did, summed over every request it handled.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeTotals {
    /// Requests handled (including ones answered with an error).
    pub requests: u64,
    /// Requests that failed to parse or validate.
    pub errors: u64,
    /// Sweep points returned across all requests.
    pub points: u64,
    /// Points that required a fresh simulation.
    pub fresh: u64,
}

/// One parsed grid request.
struct ServeRequest {
    id: String,
    spec: SweepSpec,
}

/// The request `id`, recovered on a best-effort basis so even a
/// malformed request gets an addressable error response.
fn request_id(v: &JsonValue) -> String {
    v.get("id")
        .and_then(|x| x.as_str().ok())
        .unwrap_or_default()
        .to_string()
}

fn parse_request(v: &JsonValue) -> Result<ServeRequest, String> {
    let id = request_id(v);

    let capacities: Vec<u64> = match v.get("capacities") {
        None => vec![64, 128, 256, 512],
        Some(JsonValue::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let mb = item.as_u64()?;
                if mb == 0 {
                    return Err("capacities must be at least 1 MB".to_string());
                }
                out.push(mb);
            }
            out
        }
        Some(other) => return Err(format!("expected capacities array, got {other:?}")),
    };

    let workloads: Vec<WorkloadKind> = match v.get("workloads") {
        None => WorkloadKind::ALL.to_vec(),
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|item| parse_workload(item.as_str()?))
            .collect::<Result<_, String>>()?,
        Some(other) => return Err(format!("expected workloads array, got {other:?}")),
    };

    let design_list = match (v.get("designs"), v.get("grid")) {
        (Some(list), _) => list.as_str()?.to_string(),
        (None, Some(grid)) => {
            let grid = grid.as_str()?;
            preset_families(grid).ok_or_else(|| {
                format!("unknown grid `{grid}` (serve knows fig4 | fig5 | fig67 | designspace)")
            })?
        }
        (None, None) => preset_families("designspace").expect("designspace is a preset"),
    };
    let designs: Vec<DesignSpec> = resolve_designs(&design_list, &capacities)?;

    let scale = match v.get("scale") {
        None => RunScale::quick(),
        Some(s) => RunScale::named(s.as_str()?)?,
    };
    let seed = match v.get("seed") {
        None => SweepSpec::DEFAULT_SEED,
        Some(s) => s.as_u64()?,
    };

    let spec = SweepSpec::new(scale)
        .with_seed(seed)
        .grid(&workloads, &designs)
        .dedup();
    Ok(ServeRequest { id, spec })
}

/// The error taxonomy: what kind of failure a request line produced.
/// Each kind has its own counter (`serve.errors.<kind>`) next to the
/// undifferentiated `serve.errors` total, so a scrape distinguishes
/// garbage input (`parse`) from well-formed-but-invalid grids (`spec`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ErrorKind {
    /// The line was not valid JSON at all.
    Parse,
    /// The JSON parsed but the request failed validation.
    Spec,
}

impl ErrorKind {
    fn counter(self) -> &'static str {
        match self {
            ErrorKind::Parse => "serve.errors.parse",
            ErrorKind::Spec => "serve.errors.spec",
        }
    }
}

fn write_error(
    out: &mut impl Write,
    id: &str,
    kind: ErrorKind,
    error: &str,
    totals: &mut ServeTotals,
) -> std::io::Result<()> {
    metrics::counter("serve.errors").add(1);
    metrics::counter(kind.counter()).add(1);
    totals.errors += 1;
    writeln!(
        out,
        "{{\"type\": \"error\", \"id\": \"{}\", \"error\": \"{}\"}}",
        escape(id),
        escape(error)
    )
}

/// Handles one request line: parse, run the diffed grid, stream the
/// per-point records and the summary. With a [`ServiceMonitor`], also
/// feeds the heartbeat and (when armed) the slow-request capture.
fn handle_line(
    engine: &SweepEngine,
    line: &str,
    out: &mut impl Write,
    totals: &mut ServeTotals,
    obs: Option<&ServiceMonitor>,
) -> std::io::Result<()> {
    metrics::counter("serve.requests").add(1);
    totals.requests += 1;
    if let Some(m) = obs {
        m.note_request();
    }
    let mark = obs.and_then(|m| m.request_mark());
    let started = std::time::Instant::now();
    let result = answer_line(engine, line, out, totals);
    let elapsed_ms = started.elapsed().as_millis() as u64;
    // The request tag must not leak onto spans recorded between
    // requests (watcher ticks, spool scans).
    trace::set_request(None);
    if let Some(m) = obs {
        let id = result.as_ref().map(|id| id.as_str()).unwrap_or("");
        m.finish_request(id, elapsed_ms, mark);
    }
    result.map(|_| ())
}

/// The request-scoped body of [`handle_line`]; returns the request id
/// (best-effort, empty for unparseable lines).
fn answer_line(
    engine: &SweepEngine,
    line: &str,
    out: &mut impl Write,
    totals: &mut ServeTotals,
) -> std::io::Result<String> {
    let parsed = match JsonValue::parse(line) {
        Ok(v) => v,
        Err(e) => {
            write_error(
                out,
                "",
                ErrorKind::Parse,
                &format!("bad request JSON: {e}"),
                totals,
            )?;
            return Ok(String::new());
        }
    };
    let id = request_id(&parsed);
    let request = match parse_request(&parsed) {
        Ok(r) => r,
        Err(e) => {
            write_error(out, &id, ErrorKind::Spec, &e, totals)?;
            return Ok(id);
        }
    };

    // Tag every span the request produces — including executor and
    // store spans on worker threads — with the request id.
    trace::set_request(Some(&request.id));
    let _span = trace::span_with("serve-request", "serve", || {
        format!("{} ({} points)", request.id, request.spec.len())
    });
    let started = std::time::Instant::now();
    let results = engine.run_spec(&request.spec);
    let wall_secs = started.elapsed().as_secs_f64();

    let fresh = results.iter().filter(|r| !r.memoized).count();
    metrics::counter("serve.points").add(results.len() as u64);
    metrics::counter("serve.fresh_points").add(fresh as u64);
    // Fresh and fully-memoized requests live in different latency
    // regimes (simulation vs store lookups); mixing them in one
    // histogram would bury regressions in either.
    let latency = if fresh > 0 {
        metrics::histogram("serve.request_latency_ms.fresh", LATENCY_BOUNDS_MS)
    } else {
        metrics::histogram("serve.request_latency_ms.memoized", LATENCY_BOUNDS_MS)
    };
    latency.record((wall_secs * 1000.0) as u64);
    totals.points += results.len() as u64;
    totals.fresh += fresh as u64;

    for r in &results {
        writeln!(
            out,
            "{{\"type\": \"point\", \"id\": \"{}\", \"fresh\": {}, \"point\": {}}}",
            escape(&request.id),
            !r.memoized,
            emit::point_record_json(r)
        )?;
    }
    let generation = match engine.store().generation() {
        Some(g) => g.to_string(),
        None => "null".to_string(),
    };
    writeln!(
        out,
        "{{\"type\": \"summary\", \"id\": \"{}\", \"points\": {}, \"fresh\": {}, \
         \"wall_secs\": {}, \"store_generation\": {}}}",
        escape(&request.id),
        results.len(),
        fresh,
        wall_secs,
        generation
    )?;
    Ok(request.id)
}

/// Serves grid requests from `input` (one JSON object per line) until
/// EOF, streaming responses to `out`. This is `fc_sweep serve` reading
/// stdin; it is also directly testable with in-memory readers.
pub fn serve_jsonl<R: BufRead, W: Write>(
    engine: &SweepEngine,
    input: R,
    out: W,
) -> std::io::Result<ServeTotals> {
    serve_jsonl_observed(engine, input, out, None)
}

/// [`serve_jsonl`] with an optional [`ServiceMonitor`]: each request
/// feeds the heartbeat's liveness numbers and, when slow capture is
/// armed, its span buffer.
pub fn serve_jsonl_observed<R: BufRead, W: Write>(
    engine: &SweepEngine,
    input: R,
    mut out: W,
    obs: Option<&ServiceMonitor>,
) -> std::io::Result<ServeTotals> {
    let mut totals = ServeTotals::default();
    for line in input.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        handle_line(engine, trimmed, &mut out, &mut totals, obs)?;
        out.flush()?;
    }
    Ok(totals)
}

/// Serves grid requests from a spool directory: each `*.json` file in
/// `dir` holds one or more request lines; responses land atomically in
/// `dir/done/<name>.jsonl` and the request file is removed once
/// answered. With [`ServeOptions::once`] the current spool contents
/// are processed and the function returns; otherwise it polls forever.
pub fn serve_spool(
    engine: &SweepEngine,
    dir: &Path,
    opts: &ServeOptions,
) -> std::io::Result<ServeTotals> {
    serve_spool_observed(engine, dir, opts, None)
}

/// [`serve_spool`] with an optional [`ServiceMonitor`] (see
/// [`serve_jsonl_observed`]).
pub fn serve_spool_observed(
    engine: &SweepEngine,
    dir: &Path,
    opts: &ServeOptions,
    obs: Option<&ServiceMonitor>,
) -> std::io::Result<ServeTotals> {
    std::fs::create_dir_all(dir)?;
    let done = dir.join("done");
    std::fs::create_dir_all(&done)?;
    let mut totals = ServeTotals::default();
    loop {
        let mut pending: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
            .collect();
        // Deterministic service order regardless of directory order.
        pending.sort();
        for path in pending {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "request".to_string());
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("[fc_sweep serve] cannot read {}: {e}", path.display());
                    continue;
                }
            };
            let mut buf: Vec<u8> = Vec::new();
            for line in text.lines() {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                handle_line(engine, trimmed, &mut buf, &mut totals, obs)?;
            }
            // Atomic: a reader of done/ never sees a half-written
            // response file, even if this process is killed.
            fc_types::atomic_write(&done.join(format!("{stem}.jsonl")), &buf)?;
            std::fs::remove_file(&path)?;
        }
        if opts.once {
            return Ok(totals);
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.poll_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn engine() -> SweepEngine {
        SweepEngine::new().with_threads(2).quiet()
    }

    fn request(id: &str) -> String {
        format!(
            "{{\"id\": \"{id}\", \"designs\": \"baseline,footprint\", \
             \"capacities\": [64], \"workloads\": [\"web search\"], \
             \"scale\": \"tiny\"}}"
        )
    }

    #[test]
    fn serves_points_and_summary() {
        let engine = engine();
        let mut out = Vec::new();
        let totals = serve_jsonl(&engine, Cursor::new(request("r1")), &mut out).unwrap();
        assert_eq!(totals.requests, 1);
        assert_eq!(totals.errors, 0);
        assert_eq!(totals.points, 2);
        assert_eq!(totals.fresh, 2);

        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "2 points + 1 summary: {text}");
        for line in &lines {
            JsonValue::parse(line).expect("every response line is valid JSON");
        }
        let summary = JsonValue::parse(lines[2]).unwrap();
        assert_eq!(summary.field("type").unwrap().as_str().unwrap(), "summary");
        assert_eq!(summary.field("id").unwrap().as_str().unwrap(), "r1");
        assert_eq!(summary.field("points").unwrap().as_u64().unwrap(), 2);
        assert_eq!(summary.field("fresh").unwrap().as_u64().unwrap(), 2);
        // In-memory store: no generation.
        assert_eq!(*summary.field("store_generation").unwrap(), JsonValue::Null);
    }

    #[test]
    fn second_request_is_all_memoized() {
        let engine = engine();
        let input = format!("{}\n{}\n", request("cold"), request("warm"));
        let mut out = Vec::new();
        let totals = serve_jsonl(&engine, Cursor::new(input), &mut out).unwrap();
        assert_eq!(totals.requests, 2);
        assert_eq!(totals.points, 4);
        assert_eq!(totals.fresh, 2, "second request hits the memo store");

        let text = String::from_utf8(out).unwrap();
        let warm_points: Vec<JsonValue> = text
            .lines()
            .map(|l| JsonValue::parse(l).unwrap())
            .filter(|v| {
                v.field("id").unwrap().as_str().unwrap() == "warm"
                    && v.field("type").unwrap().as_str().unwrap() == "point"
            })
            .collect();
        assert_eq!(warm_points.len(), 2);
        assert!(warm_points
            .iter()
            .all(|p| !p.field("fresh").unwrap().as_bool().unwrap()));
    }

    #[test]
    fn bad_requests_get_error_responses_not_panics() {
        let engine = engine();
        let input = "not json at all\n\
                     {\"id\": \"x\", \"scale\": \"galactic\"}\n\
                     {\"id\": \"y\", \"workloads\": [\"no such workload\"]}\n\
                     {\"id\": \"z\", \"grid\": \"fig99\"}\n";
        let mut out = Vec::new();
        let totals = serve_jsonl(&engine, Cursor::new(input), &mut out).unwrap();
        assert_eq!(totals.requests, 4);
        assert_eq!(totals.errors, 4);
        assert_eq!(totals.points, 0);
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            let v = JsonValue::parse(line).unwrap();
            assert_eq!(v.field("type").unwrap().as_str().unwrap(), "error");
        }
        // Errors carry the request id when one was parseable.
        assert!(text.contains("\"id\": \"x\""));
    }

    #[test]
    fn error_taxonomy_splits_parse_from_spec() {
        let before = metrics::snapshot();
        let engine = engine();
        let input = "definitely not json\n{\"id\": \"s\", \"scale\": \"galactic\"}\n";
        let mut out = Vec::new();
        let totals = serve_jsonl(&engine, Cursor::new(input), &mut out).unwrap();
        assert_eq!(totals.errors, 2);
        // The registry is process-global and tests run in parallel, so
        // assert the delta floor, not an exact count.
        let delta = metrics::snapshot().delta(&before);
        assert!(delta.counter("serve.errors.parse").unwrap_or(0) >= 1);
        assert!(delta.counter("serve.errors.spec").unwrap_or(0) >= 1);
        assert!(delta.counter("serve.errors").unwrap_or(0) >= 2);
    }

    #[test]
    fn answered_requests_record_latency_observations() {
        let before = metrics::snapshot();
        let engine = engine();
        let input = format!("{}\n{}\n", request("lat-cold"), request("lat-warm"));
        let mut out = Vec::new();
        serve_jsonl(&engine, Cursor::new(input), &mut out).unwrap();
        let delta = metrics::snapshot().delta(&before);
        let fresh = delta
            .histograms
            .get("serve.request_latency_ms.fresh")
            .map(|h| h.count)
            .unwrap_or(0);
        let memoized = delta
            .histograms
            .get("serve.request_latency_ms.memoized")
            .map(|h| h.count)
            .unwrap_or(0);
        assert!(fresh >= 1, "cold request observes the fresh histogram");
        assert!(
            memoized >= 1,
            "warm request observes the memoized histogram"
        );
    }

    #[test]
    fn spool_mode_answers_and_clears_requests() {
        let dir = std::env::temp_dir().join(format!(
            "fc-serve-spool-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("req-a.json"), request("a")).unwrap();

        let engine = engine();
        let totals = serve_spool(
            &engine,
            &dir,
            &ServeOptions {
                once: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(totals.requests, 1);
        assert_eq!(totals.points, 2);
        assert!(!dir.join("req-a.json").exists(), "request consumed");
        let answered = std::fs::read_to_string(dir.join("done/req-a.jsonl")).unwrap();
        assert_eq!(answered.lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
