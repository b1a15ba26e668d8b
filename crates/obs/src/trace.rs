//! Scoped spans with Chrome trace-event export.
//!
//! Each thread that records spans owns a *lane*: a thread-local event
//! buffer plus a numeric `tid` and an optional human name
//! (`worker-3`). Recording a span touches only that buffer — no locks,
//! no cross-thread traffic — and the buffer drains into the global
//! sink when the thread exits (thread-local `Drop`) or when
//! [`flush_thread`] is called explicitly. The sweep executor's scoped
//! worker threads exit before results are collected, so a drain on the
//! main thread sees every worker event.
//!
//! Tracing is off by default. [`span`] starts with one relaxed atomic
//! load; when disabled it returns an inert guard and allocates
//! nothing, which is what keeps the instrumented hot paths within the
//! repo's 2% overhead budget.
//!
//! Timestamps are microseconds since a process-wide epoch, with both
//! endpoints floored (`dur = floor(end) - floor(start)`) so parent
//! spans never appear to end before their children after truncation —
//! the nesting-validity test in `tests/observability.rs` relies on
//! this.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use fc_types::record::write_object;

/// One completed span or instant, ready for Chrome-trace export.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (the span label, e.g. `detailed-sim`).
    pub name: &'static str,
    /// Category string (Chrome-trace `cat`), used to group phases.
    pub cat: &'static str,
    /// Optional argument rendered under `args.label`.
    pub arg: Option<String>,
    /// Request id in scope when the event was recorded (serve mode
    /// sets it per request; rendered under `args.req`).
    pub req: Option<String>,
    /// Lane (Chrome-trace `tid`) the event was recorded on.
    pub lane: u32,
    /// Start, in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds (zero for instants).
    pub dur_us: u64,
    /// `'X'` for complete spans, `'i'` for instant events.
    pub phase: char,
}

struct Sink {
    events: Vec<TraceEvent>,
    /// `(lane, name)` pairs for Perfetto thread-name metadata.
    lanes: Vec<(u32, String)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
/// The request id currently in scope (serve mode handles requests one
/// at a time, so a process-wide cell covers every worker thread the
/// executor fans the request out to).
static REQUEST: Mutex<Option<String>> = Mutex::new(None);

/// Sets (or clears) the request id tagged onto every span and instant
/// recorded until the next call. Worker threads spawned while a
/// request is in scope inherit the tag, which is how serve threads a
/// request id through executor and store spans.
pub fn set_request(id: Option<&str>) {
    let mut req = REQUEST.lock().expect("trace request cell poisoned");
    *req = id.map(str::to_string);
}

fn current_request() -> Option<String> {
    REQUEST.lock().expect("trace request cell poisoned").clone()
}

fn sink() -> &'static Mutex<Sink> {
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            events: Vec::new(),
            lanes: Vec::new(),
        })
    })
}

fn now_us() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

struct LaneBuf {
    lane: u32,
    events: Vec<TraceEvent>,
}

impl LaneBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut sink = sink().lock().expect("trace sink poisoned");
        sink.events.append(&mut self.events);
    }
}

impl Drop for LaneBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<Option<LaneBuf>> = const { RefCell::new(None) };
}

fn with_lane<R>(f: impl FnOnce(&mut LaneBuf) -> R) -> R {
    BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| LaneBuf {
            lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
        });
        f(buf)
    })
}

/// Turns span recording on (also pins the trace epoch).
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off; spans already buffered are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Names the calling thread's lane (Chrome-trace thread name, e.g.
/// `worker-3`). A no-op when tracing is disabled.
pub fn set_lane_name(name: &str) {
    if !enabled() {
        return;
    }
    let lane = with_lane(|buf| buf.lane);
    let mut sink = sink().lock().expect("trace sink poisoned");
    match sink.lanes.iter_mut().find(|(l, _)| *l == lane) {
        Some((_, n)) => *n = name.to_string(),
        None => sink.lanes.push((lane, name.to_string())),
    }
}

/// A live span guard; records a complete event when dropped.
///
/// Obtained from [`span`] / [`span_with`]. Inert (no allocation, no
/// event) when tracing was disabled at creation time.
#[must_use = "a span measures the scope it is bound to; bind it to `_span`, not `_`"]
pub struct Span {
    live: Option<SpanBody>,
}

struct SpanBody {
    name: &'static str,
    cat: &'static str,
    arg: Option<String>,
    req: Option<String>,
    start_us: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(SpanBody {
            name,
            cat,
            arg,
            req,
            start_us,
        }) = self.live.take()
        {
            let end_us = now_us();
            with_lane(|buf| {
                buf.events.push(TraceEvent {
                    name,
                    cat,
                    arg,
                    req,
                    lane: buf.lane,
                    start_us,
                    dur_us: end_us.saturating_sub(start_us),
                    phase: 'X',
                });
            });
        }
    }
}

/// Opens a scoped span. One atomic load and an inert guard when
/// tracing is disabled.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span {
        live: Some(SpanBody {
            name,
            cat,
            arg: None,
            req: current_request(),
            start_us: now_us(),
        }),
    }
}

/// Opens a scoped span carrying an argument string; the closure runs
/// only when tracing is enabled, so callers can format labels for
/// free on the disabled path.
#[inline]
pub fn span_with(name: &'static str, cat: &'static str, arg: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span {
        live: Some(SpanBody {
            name,
            cat,
            arg: Some(arg()),
            req: current_request(),
            start_us: now_us(),
        }),
    }
}

/// Records an instant event (e.g. a memoization hit). The argument
/// closure runs only when tracing is enabled.
#[inline]
pub fn instant(name: &'static str, cat: &'static str, arg: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let ts = now_us();
    let req = current_request();
    with_lane(|buf| {
        buf.events.push(TraceEvent {
            name,
            cat,
            arg: Some(arg()),
            req,
            lane: buf.lane,
            start_us: ts,
            dur_us: 0,
            phase: 'i',
        });
    });
}

/// Flushes the calling thread's buffered events into the global sink.
///
/// Worker threads should call this as their last act: the thread-local
/// `Drop` backstop also flushes, but `thread::scope` may observe the
/// join *before* TLS destructors run, so an explicit flush is the only
/// ordering a collector on the joining thread can rely on.
pub fn flush_thread() {
    BUF.with(|slot| {
        if let Some(buf) = slot.borrow_mut().as_mut() {
            buf.flush();
        }
    });
}

/// Drains every flushed event (sorted by start time) plus the lane
/// name table. Flushes the calling thread first.
pub fn take_events() -> (Vec<TraceEvent>, Vec<(u32, String)>) {
    flush_thread();
    let mut sink = sink().lock().expect("trace sink poisoned");
    let mut events = std::mem::take(&mut sink.events);
    let lanes = std::mem::take(&mut sink.lanes);
    events.sort_by_key(|e| (e.start_us, e.lane));
    (events, lanes)
}

/// A position in the event sink, for retroactive capture: everything
/// recorded (and flushed) after a [`mark`] can later be cut out with
/// [`take_since`]. Flushes the calling thread so the mark sits after
/// its own pending events.
pub fn mark() -> usize {
    flush_thread();
    sink().lock().expect("trace sink poisoned").events.len()
}

/// Removes and returns the events flushed since `mark` (sorted by
/// start time) plus a copy of the lane-name table. The slow-request
/// capture path uses this to dump one request's span buffer as a
/// standalone trace *and* keep the long-running sink bounded: consumed
/// events no longer accumulate. Flushes the calling thread first;
/// worker-thread events are included as long as the workers flushed
/// before the call (the executor flushes each worker at scope exit).
pub fn take_since(mark: usize) -> (Vec<TraceEvent>, Vec<(u32, String)>) {
    flush_thread();
    let mut sink = sink().lock().expect("trace sink poisoned");
    let at = mark.min(sink.events.len());
    let mut events = sink.events.split_off(at);
    let lanes = sink.lanes.clone();
    events.sort_by_key(|e| (e.start_us, e.lane));
    (events, lanes)
}

/// Drains the sink and renders Chrome trace-event JSON
/// (`{"traceEvents": [...]}`), loadable in Perfetto or
/// `chrome://tracing`. Lane names become `thread_name` metadata.
pub fn chrome_trace_json() -> String {
    let (events, lanes) = take_events();
    render_chrome_trace(&events, &lanes)
}

/// Renders an event list (plus lane-name metadata) as Chrome
/// trace-event JSON — the shared back half of [`chrome_trace_json`]
/// and the per-request slow-trace dumps.
pub fn render_chrome_trace(events: &[TraceEvent], lanes: &[(u32, String)]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\": [\n");
    // One event object per line, comma-separated.
    let mut sep = "  ";
    for (lane, name) in lanes {
        out.push_str(std::mem::replace(&mut sep, ",\n  "));
        write_object(&mut out, |w| {
            w.text("name", "thread_name");
            w.text("ph", "M");
            w.u64("pid", 0);
            w.u64("tid", (*lane).into());
            w.object("args", |w| w.text("name", name));
        });
    }
    for e in events {
        let instant = e.phase == 'i';
        out.push_str(std::mem::replace(&mut sep, ",\n  "));
        write_object(&mut out, |w| {
            w.text("name", e.name);
            w.text("cat", e.cat);
            w.text("ph", if instant { "i" } else { "X" });
            if instant {
                w.text("s", "t");
            }
            w.u64("ts", e.start_us);
            if !instant {
                w.u64("dur", e.dur_us);
            }
            w.u64("pid", 0);
            w.u64("tid", e.lane.into());
            w.object("args", |w| {
                if let Some(a) = &e.arg {
                    w.text("label", a);
                }
                if let Some(r) = &e.req {
                    w.text("req", r);
                }
            });
        });
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; serialize the tests that drain it.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        let _drain = take_events();
        {
            let _span = span("quiet", "test");
            instant("quiet-instant", "test", || "x".to_string());
        }
        let (events, _) = take_events();
        assert!(events.iter().all(|e| e.cat != "test"));
    }

    #[test]
    fn spans_nest_and_export() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let _drain = take_events();
        enable();
        set_lane_name("tester");
        {
            let _outer = span("outer", "test-nest");
            let _inner = span("inner", "test-nest");
            instant("hit", "test-nest", || "p0".to_string());
        }
        disable();
        let json = chrome_trace_json();
        assert!(json.contains("\"outer\""));
        assert!(json.contains("\"inner\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"tester\""));
        assert!(json.contains("\"ph\": \"i\""));
    }

    #[test]
    fn request_context_tags_spans_and_take_since_cuts_a_window() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let _drain = take_events();
        enable();
        {
            let _before = span("outside", "test-req");
        }
        let at = mark();
        set_request(Some("req-42"));
        {
            let _inside = span("inside", "test-req");
            instant("inside-hit", "test-req", || "x".to_string());
        }
        set_request(None);
        let (window, _lanes) = take_since(at);
        let inside: Vec<_> = window.iter().filter(|e| e.cat == "test-req").collect();
        assert_eq!(inside.len(), 2);
        assert!(inside.iter().all(|e| e.req.as_deref() == Some("req-42")));
        let json = render_chrome_trace(&window, &[]);
        assert!(json.contains("\"req\": \"req-42\""));

        // The window was consumed: the remaining sink holds only the
        // pre-mark event, untagged.
        disable();
        let (rest, _) = take_events();
        let rest: Vec<_> = rest.iter().filter(|e| e.cat == "test-req").collect();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].name, "outside");
        assert_eq!(rest[0].req, None);
    }

    #[test]
    fn cross_thread_lanes_are_distinct() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let _drain = take_events();
        enable();
        std::thread::scope(|scope| {
            for i in 0..2 {
                scope.spawn(move || {
                    set_lane_name(&format!("lane-test-{i}"));
                    drop(span("work", "test-lanes"));
                    flush_thread();
                });
            }
        });
        disable();
        let (events, lanes) = take_events();
        let work: Vec<_> = events.iter().filter(|e| e.cat == "test-lanes").collect();
        assert_eq!(work.len(), 2);
        assert_ne!(work[0].lane, work[1].lane);
        assert!(lanes.iter().any(|(_, n)| n == "lane-test-0"));
        assert!(lanes.iter().any(|(_, n)| n == "lane-test-1"));
    }
}
