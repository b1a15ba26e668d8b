//! Service-side observability for `fc_sweep serve`.
//!
//! A [`ServiceMonitor`] owns everything a long-running serve loop
//! publishes about itself under one `--metrics-dir`:
//!
//! * `metrics.prom` — the registry's cumulative totals in Prometheus
//!   text format ([`fc_obs::expo::prometheus_text`]), rewritten
//!   atomically on every [`tick`](ServiceMonitor::tick).
//! * `health.json` — the heartbeat ([`fc_obs::Health`]): coarse state
//!   (starting/serving/degraded/draining), store generation, uptime,
//!   last-request age and request count.
//! * `events.jsonl` — append-only structured events: every health
//!   transition, every watchdog breach, every slow-request capture.
//! * `slow/` — ring-buffered Chrome traces of requests that exceeded
//!   the slow threshold (see
//!   [`with_slow_capture`](ServiceMonitor::with_slow_capture)).
//!
//! Ticks are driven either by a watcher thread ([`spawn_watcher`]) on
//! a wall-clock cadence, or manually in tests with a
//! [`ManualClock`](fc_types::ManualClock) — the monitor takes an
//! explicit [`Clock`] and never reads wall time itself, so every state
//! transition is deterministic under test.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fc_obs::expo::{self, Health, HealthState, EXPOSITION_FILE, HEALTH_FILE};
use fc_obs::{json_escape, metrics, trace, MetricsWindow, Watchdog};
use fc_types::Clock;

/// The append-only structured-event log inside a metrics directory.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Subdirectory of the metrics directory holding slow-request traces.
pub const SLOW_DIR: &str = "slow";

/// Default rolling-window width the watchdog evaluates over.
pub const DEFAULT_WINDOW_MS: u64 = 60_000;

/// Default number of slow-request traces kept (oldest pruned first).
pub const DEFAULT_SLOW_KEEP: usize = 8;

/// The mutable half of the monitor, guarded by one lock: the rolling
/// window, the watchdog and the current health state always change
/// together (a tick reads the window, consults the watchdog, and may
/// flip the state).
struct MonitorInner {
    window: MetricsWindow,
    watchdog: Option<Watchdog>,
    state: HealthState,
    note: Option<String>,
}

/// The live status surface of one serve process. See the module docs
/// for the files it maintains.
pub struct ServiceMonitor {
    dir: PathBuf,
    clock: Arc<dyn Clock>,
    started_ms: u64,
    inner: Mutex<MonitorInner>,
    requests: AtomicU64,
    /// Clock reading of the last accepted request; `u64::MAX` = never.
    last_request_ms: AtomicU64,
    generation: Mutex<Option<u64>>,
    /// Requests slower than this dump their span buffer (None = off).
    slow_ms: Option<u64>,
    slow_keep: usize,
    slow_seq: AtomicU64,
}

impl ServiceMonitor {
    /// A monitor writing into `dir` (created if missing), timestamped
    /// by `clock`. The initial `health.json` (state `starting`) is
    /// written immediately, so a scraper sees the process the moment
    /// it is up — before the engine or store are ready.
    pub fn new(dir: &Path, clock: Arc<dyn Clock>) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let started_ms = clock.now_ms();
        let window = MetricsWindow::new(DEFAULT_WINDOW_MS, Arc::clone(&clock));
        let monitor = Self {
            dir: dir.to_path_buf(),
            clock,
            started_ms,
            inner: Mutex::new(MonitorInner {
                window,
                watchdog: None,
                state: HealthState::Starting,
                note: None,
            }),
            requests: AtomicU64::new(0),
            last_request_ms: AtomicU64::new(u64::MAX),
            generation: Mutex::new(None),
            slow_ms: None,
            slow_keep: DEFAULT_SLOW_KEEP,
            slow_seq: AtomicU64::new(0),
        };
        monitor.write_health()?;
        Ok(monitor)
    }

    /// Arms the throughput watchdog with `watchdog` (build one from a
    /// [`FloorSpec`](fc_obs::FloorSpec) parsed out of
    /// `bench_floor.json`). Sustained below-floor windows flip the
    /// health state to `degraded`.
    pub fn with_watchdog(self, watchdog: Watchdog) -> Self {
        self.inner.lock().expect("monitor poisoned").watchdog = Some(watchdog);
        self
    }

    /// Enables slow-request capture: tracing is switched on, and any
    /// request slower than `slow_ms` milliseconds retroactively dumps
    /// its span buffer as a standalone Chrome trace under
    /// `<dir>/slow/`, keeping at most `keep` traces (oldest pruned).
    ///
    /// Capture *consumes* the span stream per request (that is what
    /// keeps the trace sink bounded in a long-running serve), so it
    /// composes poorly with `--trace-out`'s whole-run timeline.
    pub fn with_slow_capture(mut self, slow_ms: u64, keep: usize) -> Self {
        trace::enable();
        self.slow_ms = Some(slow_ms);
        self.slow_keep = keep.max(1);
        self
    }

    /// Records the durable-store generation reported in `health.json`.
    pub fn set_generation(&self, generation: Option<u64>) {
        *self.generation.lock().expect("monitor poisoned") = generation;
    }

    /// Transitions `starting` → `serving` (engine and store are ready).
    pub fn mark_serving(&self) {
        self.transition(HealthState::Serving, None);
    }

    /// Transitions into `draining` (clean shutdown under way).
    pub fn mark_draining(&self) {
        self.transition(HealthState::Draining, None);
    }

    /// Notes one accepted request (heartbeat liveness numbers).
    pub fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.last_request_ms
            .store(self.clock.now_ms(), Ordering::Relaxed);
    }

    /// A trace-sink mark opening a request's capture window, when slow
    /// capture is armed. Pass it back to [`finish_request`](Self::finish_request).
    pub fn request_mark(&self) -> Option<usize> {
        if self.slow_ms.is_some() && trace::enabled() {
            Some(trace::mark())
        } else {
            None
        }
    }

    /// Closes a request's capture window: slower-than-threshold
    /// requests dump their span buffer under `slow/`; fast ones just
    /// drain it (the sink must not grow for the lifetime of the
    /// service). A no-op when `mark` is `None`.
    pub fn finish_request(&self, id: &str, elapsed_ms: u64, mark: Option<usize>) {
        let Some(mark) = mark else {
            return;
        };
        let (events, lanes) = trace::take_since(mark);
        let Some(slow_ms) = self.slow_ms else {
            return;
        };
        if elapsed_ms < slow_ms {
            return;
        }
        metrics::counter("serve.slow_requests").inc();
        let seq = self.slow_seq.fetch_add(1, Ordering::Relaxed);
        let slow_dir = self.dir.join(SLOW_DIR);
        if std::fs::create_dir_all(&slow_dir).is_err() {
            return;
        }
        let name = format!("slow-{seq:06}-{}.trace.json", sanitize_stem(id));
        let json = trace::render_chrome_trace(&events, &lanes);
        if fc_types::atomic_write(&slow_dir.join(&name), json.as_bytes()).is_ok() {
            self.append_event(&format!(
                "{{\"event\": \"slow-request\", \"id\": \"{}\", \
                 \"elapsed_ms\": {elapsed_ms}, \"trace\": \"{SLOW_DIR}/{name}\"}}",
                json_escape(id)
            ));
        }
        self.prune_slow(&slow_dir);
    }

    /// One monitoring beat: rotates the rolling window, runs the
    /// watchdog, applies `serving` ⇄ `degraded` transitions, and
    /// rewrites the exposition and heartbeat atomically.
    pub fn tick(&self) {
        let mut inner = self.inner.lock().expect("monitor poisoned");
        let MonitorInner {
            window, watchdog, ..
        } = &mut *inner;
        window.tick();
        if let Some(dog) = watchdog.as_mut() {
            let verdict = dog.evaluate(window);
            for b in &verdict.breaches {
                self.append_event(&format!(
                    "{{\"event\": \"watchdog-breach\", \"design\": \"{}\", \
                     \"observed_per_sec\": {:.3}, \"floor_per_sec\": {:.3}, \
                     \"consecutive\": {}}}",
                    json_escape(&b.design),
                    b.observed,
                    b.floor,
                    verdict.consecutive_breaches
                ));
            }
            match inner.state {
                HealthState::Serving if verdict.degraded => {
                    let worst = verdict
                        .breaches
                        .first()
                        .map(|b| {
                            format!(
                                "{}: {:.1} pts/s below floor {:.1} for {} windows",
                                b.design, b.observed, b.floor, verdict.consecutive_breaches
                            )
                        })
                        .unwrap_or_else(|| "below floor".to_string());
                    self.transition_locked(&mut inner, HealthState::Degraded, Some(worst));
                }
                HealthState::Degraded if !verdict.degraded => {
                    self.transition_locked(&mut inner, HealthState::Serving, None);
                }
                _ => {}
            }
        }
        let snap = metrics::snapshot();
        let _ = fc_types::atomic_write(
            &self.dir.join(EXPOSITION_FILE),
            expo::prometheus_text(&snap).as_bytes(),
        );
        let _ = self.write_health_locked(&inner);
    }

    /// The current heartbeat (what `health.json` holds).
    pub fn health(&self) -> Health {
        let inner = self.inner.lock().expect("monitor poisoned");
        self.health_locked(&inner)
    }

    /// The metrics directory this monitor writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn health_locked(&self, inner: &MonitorInner) -> Health {
        let now = self.clock.now_ms();
        let last = self.last_request_ms.load(Ordering::Relaxed);
        Health {
            state: inner.state,
            generation: *self.generation.lock().expect("monitor poisoned"),
            uptime_secs: now.saturating_sub(self.started_ms) as f64 / 1000.0,
            last_request_age_secs: (last != u64::MAX)
                .then(|| now.saturating_sub(last) as f64 / 1000.0),
            requests: self.requests.load(Ordering::Relaxed),
            note: inner.note.clone(),
        }
    }

    fn write_health(&self) -> std::io::Result<()> {
        let inner = self.inner.lock().expect("monitor poisoned");
        self.write_health_locked(&inner)
    }

    fn write_health_locked(&self, inner: &MonitorInner) -> std::io::Result<()> {
        fc_types::atomic_write(
            &self.dir.join(HEALTH_FILE),
            self.health_locked(inner).to_json().as_bytes(),
        )
    }

    fn transition(&self, to: HealthState, note: Option<String>) {
        let mut inner = self.inner.lock().expect("monitor poisoned");
        self.transition_locked(&mut inner, to, note);
    }

    fn transition_locked(&self, inner: &mut MonitorInner, to: HealthState, note: Option<String>) {
        if inner.state == to {
            return;
        }
        let from = inner.state;
        inner.state = to;
        inner.note = note;
        self.append_event(&format!(
            "{{\"event\": \"health\", \"from\": \"{from}\", \"to\": \"{to}\", \
             \"uptime_secs\": {:.3}}}",
            self.clock.now_ms().saturating_sub(self.started_ms) as f64 / 1000.0
        ));
        let _ = self.write_health_locked(inner);
    }

    /// Appends one JSON line to `events.jsonl` (best-effort: the event
    /// log must never take the serve loop down).
    fn append_event(&self, line: &str) {
        let path = self.dir.join(EVENTS_FILE);
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{line}");
        }
    }

    /// Keeps the newest `slow_keep` traces; the sequence number in the
    /// file name makes lexical order chronological.
    fn prune_slow(&self, slow_dir: &Path) {
        let Ok(entries) = std::fs::read_dir(slow_dir) else {
            return;
        };
        let mut names: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        names.sort();
        while names.len() > self.slow_keep {
            let _ = std::fs::remove_file(names.remove(0));
        }
    }
}

/// Maps a request id onto a file-name-safe stem.
fn sanitize_stem(id: &str) -> String {
    let mut out: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .take(48)
        .collect();
    if out.is_empty() {
        out.push_str("request");
    }
    out
}

/// Handle to the background watcher thread: call
/// [`stop`](MonitorWatcher::stop) for a clean join before marking the
/// service draining.
pub struct MonitorWatcher {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl MonitorWatcher {
    /// Signals the watcher to exit and joins it. The monitor ticks one
    /// final time on the way out, so the last window of activity is
    /// on disk.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// Spawns the watcher thread: every `cadence_ms` of wall time it ticks
/// `monitor` (window rotation, watchdog, exposition + heartbeat
/// rewrite) until [`MonitorWatcher::stop`] is called.
pub fn spawn_watcher(monitor: Arc<ServiceMonitor>, cadence_ms: u64) -> MonitorWatcher {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let cadence = std::time::Duration::from_millis(cadence_ms.max(10));
    let handle = std::thread::Builder::new()
        .name("fc-monitor".to_string())
        .spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(cadence);
                monitor.tick();
            }
            monitor.tick();
        })
        .expect("spawn monitor watcher");
    MonitorWatcher { stop, handle }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_types::ManualClock;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fc-monitor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_starting_health_immediately_and_transitions() {
        let dir = tmp_dir("health");
        let clock = Arc::new(ManualClock::at(0));
        let m = ServiceMonitor::new(&dir, Arc::clone(&clock) as Arc<dyn Clock>).unwrap();
        let text = std::fs::read_to_string(dir.join(HEALTH_FILE)).unwrap();
        assert!(text.contains("\"state\": \"starting\""), "{text}");

        clock.advance_ms(2_500);
        m.mark_serving();
        let text = std::fs::read_to_string(dir.join(HEALTH_FILE)).unwrap();
        assert!(text.contains("\"state\": \"serving\""), "{text}");
        assert!(text.contains("\"uptime_secs\": 2.500"), "{text}");

        m.mark_draining();
        assert_eq!(m.health().state, HealthState::Draining);
        let events = std::fs::read_to_string(dir.join(EVENTS_FILE)).unwrap();
        assert!(events.contains("\"from\": \"starting\", \"to\": \"serving\""));
        assert!(events.contains("\"from\": \"serving\", \"to\": \"draining\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tick_writes_exposition_matching_the_registry() {
        let dir = tmp_dir("expo");
        let clock = Arc::new(ManualClock::at(0));
        let m = ServiceMonitor::new(&dir, Arc::clone(&clock) as Arc<dyn Clock>).unwrap();
        metrics::counter("test.monitor.beat").add(3);
        clock.advance_ms(1_000);
        m.tick();
        let on_disk = std::fs::read_to_string(dir.join(EXPOSITION_FILE)).unwrap();
        assert!(on_disk.contains("test_monitor_beat"), "{on_disk}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_liveness_feeds_the_heartbeat() {
        let dir = tmp_dir("live");
        let clock = Arc::new(ManualClock::at(0));
        let m = ServiceMonitor::new(&dir, Arc::clone(&clock) as Arc<dyn Clock>).unwrap();
        assert_eq!(m.health().last_request_age_secs, None);
        clock.advance_ms(1_000);
        m.note_request();
        clock.advance_ms(500);
        let h = m.health();
        assert_eq!(h.requests, 1);
        assert_eq!(h.last_request_age_secs, Some(0.5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sanitize_stem_is_file_safe() {
        assert_eq!(sanitize_stem("nightly-1"), "nightly-1");
        assert_eq!(sanitize_stem("../../etc"), "______etc");
        assert_eq!(sanitize_stem(""), "request");
    }
}
