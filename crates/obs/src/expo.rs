//! Prometheus-style text exposition and the `health.json` heartbeat.
//!
//! [`prometheus_text`] renders a [`MetricsSnapshot`] in the Prometheus
//! text format (version 0.0.4): one `# TYPE` line per metric, counter
//! and gauge samples, and histograms as *cumulative* `_bucket` series
//! (`le="…"` labels, a final `le="+Inf"` equal to `_count`) plus
//! `_sum`/`_count`. The values are the snapshot's cumulative lifetime
//! totals bit-for-bit — a scrape and a `metrics::snapshot()` taken at
//! the same moment agree exactly, which is what
//! `tests/service_observability.rs` asserts.
//!
//! [`Health`] is the service heartbeat a long-running `fc_sweep serve`
//! writes next to the exposition: coarse state
//! (starting/serving/degraded/draining), store generation, uptime and
//! last-request age. Both artifacts are written atomically
//! ([`fc_types::atomic_write`]) so a scraper never reads a torn file.

use std::collections::BTreeMap;

use crate::json_escape;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// The file name the exposition is written under inside a metrics
/// directory.
pub const EXPOSITION_FILE: &str = "metrics.prom";

/// The file name of the health heartbeat inside a metrics directory.
pub const HEALTH_FILE: &str = "health.json";

/// Maps a registry metric name (dotted path, arbitrary bytes) onto the
/// Prometheus name charset `[a-zA-Z0-9_:]`; everything else becomes
/// `_`. A leading digit gets an underscore prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => out.push(c),
            _ => out.push('_'),
        }
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn histogram_text(out: &mut String, name: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    // Cumulative buckets: bucket{le=b} counts samples <= b, so each
    // line adds the preceding bins.
    let mut cumulative = 0u64;
    for (bound, bin) in h.bounds.iter().zip(&h.bins) {
        cumulative += bin;
        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Renders `snap` as Prometheus exposition text. Name collisions after
/// sanitization keep the first metric (names in the registry are
/// dotted static paths, so collisions do not occur in practice).
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    for (name, v) in &snap.counters {
        let name = sanitize_name(name);
        if seen.insert(name.clone(), ()).is_some() {
            continue;
        }
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let name = sanitize_name(name);
        if seen.insert(name.clone(), ()).is_some() {
            continue;
        }
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        let name = sanitize_name(name);
        if seen.insert(name.clone(), ()).is_some() {
            continue;
        }
        histogram_text(&mut out, &name, h);
    }
    out
}

/// The coarse service state reported in `health.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Process up, store/engine not yet ready to answer requests.
    Starting,
    /// Accepting and answering requests.
    Serving,
    /// Alive, but the watchdog found sustained below-floor throughput.
    Degraded,
    /// Shutting down cleanly; no further requests will be answered.
    Draining,
}

impl HealthState {
    /// The state's wire name (`starting` / `serving` / `degraded` /
    /// `draining`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Starting => "starting",
            HealthState::Serving => "serving",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }

    /// Parses a wire name back into a state.
    pub fn parse(name: &str) -> Result<HealthState, String> {
        match name {
            "starting" => Ok(HealthState::Starting),
            "serving" => Ok(HealthState::Serving),
            "degraded" => Ok(HealthState::Degraded),
            "draining" => Ok(HealthState::Draining),
            other => Err(format!("unknown health state `{other}`")),
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One heartbeat: the service's state plus the liveness numbers a
/// monitor needs to distinguish "idle" from "dead".
#[derive(Clone, Debug, PartialEq)]
pub struct Health {
    /// Coarse service state.
    pub state: HealthState,
    /// Durable-store generation (`None` for in-memory stores).
    pub generation: Option<u64>,
    /// Seconds since the service started.
    pub uptime_secs: f64,
    /// Seconds since the last request was accepted (`None` before the
    /// first request).
    pub last_request_age_secs: Option<f64>,
    /// Requests accepted since start.
    pub requests: u64,
    /// Why the service is degraded (empty otherwise).
    pub note: Option<String>,
}

impl Health {
    /// Renders the heartbeat as a small JSON object.
    pub fn to_json(&self) -> String {
        let generation = match self.generation {
            Some(g) => g.to_string(),
            None => "null".to_string(),
        };
        let age = match self.last_request_age_secs {
            Some(a) => format!("{a:.3}"),
            None => "null".to_string(),
        };
        let note = match &self.note {
            Some(n) => format!("\"{}\"", json_escape(n)),
            None => "null".to_string(),
        };
        format!(
            "{{\"state\": \"{}\", \"generation\": {generation}, \
             \"uptime_secs\": {:.3}, \"last_request_age_secs\": {age}, \
             \"requests\": {}, \"note\": {note}}}\n",
            self.state, self.uptime_secs, self.requests
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn sanitize_maps_to_prometheus_charset() {
        assert_eq!(sanitize_name("serve.requests"), "serve_requests");
        assert_eq!(
            sanitize_name("sweep.fresh.Footprint 64MB"),
            "sweep_fresh_Footprint_64MB"
        );
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn exposition_is_cumulative_and_typed() {
        metrics::counter("test.expo.counter").add(7);
        metrics::gauge("test.expo.gauge").set(-3);
        let h = metrics::histogram("test.expo.hist", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        let text = prometheus_text(&metrics::snapshot());
        assert!(text.contains("# TYPE test_expo_counter counter\n"));
        assert!(text.contains("test_expo_counter 7\n"));
        assert!(text.contains("# TYPE test_expo_gauge gauge\n"));
        assert!(text.contains("test_expo_gauge -3\n"));
        assert!(text.contains("# TYPE test_expo_hist histogram\n"));
        // Buckets are cumulative: 1, then 1+1, then +Inf == count.
        assert!(text.contains("test_expo_hist_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("test_expo_hist_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("test_expo_hist_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("test_expo_hist_sum 555\n"));
        assert!(text.contains("test_expo_hist_count 3\n"));
    }

    #[test]
    fn health_round_trips_states_and_serializes() {
        for state in [
            HealthState::Starting,
            HealthState::Serving,
            HealthState::Degraded,
            HealthState::Draining,
        ] {
            assert_eq!(HealthState::parse(state.as_str()), Ok(state));
        }
        assert!(HealthState::parse("zombie").is_err());

        let h = Health {
            state: HealthState::Serving,
            generation: Some(2),
            uptime_secs: 12.5,
            last_request_age_secs: None,
            requests: 9,
            note: None,
        };
        let json = h.to_json();
        assert!(json.contains("\"state\": \"serving\""));
        assert!(json.contains("\"generation\": 2"));
        assert!(json.contains("\"last_request_age_secs\": null"));
        assert!(json.contains("\"requests\": 9"));
    }
}
