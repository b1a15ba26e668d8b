//! `fc-obs` — the observability layer of the reproduction.
//!
//! The sweep stack runs thousands of grid points through a parallel
//! executor, sampled replay, and a queued memory engine; this crate is
//! the shared measurement substrate all of them report into. The batch
//! pillars, all hand-rolled on `std` plus `fc-types` (the container
//! vendors no tracing or metrics crates):
//!
//! * [`trace`] — scoped spans collected in thread-local buffers (one
//!   lock-free lane per worker thread) and exported as Chrome
//!   trace-event JSON, loadable in Perfetto / `chrome://tracing`. The
//!   whole subsystem is gated on one relaxed atomic: when tracing is
//!   disabled (the default), entering a span is a single load and no
//!   allocation happens.
//! * [`metrics`] — a process-wide registry of named counters, gauges
//!   and histograms with snapshot/delta semantics, exported as JSON by
//!   `fc_sweep --metrics-out`.
//! * [`series`] — per-interval time series (hit-ratio-over-time,
//!   row-buffer locality, queue occupancy) behind the `detailed-stats`
//!   cargo feature. With the feature off, [`TimeSeries`] is a
//!   zero-sized type whose methods compile to nothing, so default
//!   builds carry the instrumentation points at zero cost.
//!
//! Long-running services get a runtime half on top of the registry:
//!
//! * [`window`] — rolling-window views (a ring of timestamped
//!   snapshot deltas) turning cumulative totals into rates-per-second
//!   and windowed histograms, driven by an explicit
//!   [`Clock`](fc_types::Clock) so tests are deterministic.
//! * [`expo`] — Prometheus-style text exposition of a snapshot plus
//!   the `health.json` heartbeat
//!   (starting/serving/degraded/draining), both written atomically.
//! * [`watchdog`] — compares windowed per-design fresh-points/sec
//!   against the committed `bench_floor.json` and flags sustained
//!   below-floor throughput as degradation.
//!
//! [`Provenance`] rounds the crate out: a run manifest (seed, scale,
//! thread count, design list, wall time, crate version, feature flags)
//! every emitted artifact embeds, so benchmark trajectories stay
//! attributable to an exact configuration.
//!
//! **Determinism contract:** nothing in this crate feeds back into
//! simulation state. Spans and metrics record wall time and counts;
//! enabling or disabling them never changes a `SimReport` bit
//! (enforced by the workspace's `tests/observability.rs`).
//!
//! # Examples
//!
//! ```
//! use fc_obs::{metrics, trace};
//!
//! let before = metrics::snapshot();
//! trace::enable();
//! {
//!     let _span = trace::span("demo-phase", "docs");
//!     metrics::counter("docs.examples").inc();
//! }
//! trace::disable();
//! let delta = metrics::snapshot().delta(&before);
//! assert_eq!(delta.counter("docs.examples"), Some(1));
//! let json = trace::chrome_trace_json();
//! assert!(json.contains("\"demo-phase\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod metrics;
mod provenance;
pub mod series;
pub mod trace;
pub mod watchdog;
pub mod window;

pub use expo::{Health, HealthState};
pub use provenance::Provenance;
pub use series::TimeSeries;
pub use watchdog::{FloorSpec, Watchdog, WatchdogVerdict};
pub use window::MetricsWindow;

/// Escapes a string for a JSON value position.
pub use fc_types::json::escape as json_escape;

/// Formats an f64 as a JSON-safe number literal (`null` for non-finite
/// values, which bare JSON cannot represent).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn json_num_guards_non_finite() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
