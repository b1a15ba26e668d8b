//! A process-wide registry of named counters, gauges and histograms.
//!
//! Handles are `&'static` references obtained once per run or per
//! grid point — lookups take the registry lock, but the handles
//! themselves are plain atomics, so hot loops accumulate locally and
//! flush through a handle at segment boundaries (the discipline the
//! sim/dram call sites follow to stay inside the 2% overhead budget).
//!
//! [`snapshot`] captures the registry; [`MetricsSnapshot::delta`]
//! subtracts an earlier snapshot so concurrent tests and repeated
//! sweeps can reason about *their* contribution in isolation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use fc_types::record::write_object;

use crate::json_escape;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed level (queue depth, active workers).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, registration-time bucket bounds.
///
/// Bucket `i` counts samples `<= bounds[i]`; one implicit overflow
/// bucket counts the rest. Sum and count ride along for means.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    bins: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            bins: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, sample: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| sample <= b)
            .unwrap_or(self.bounds.len());
        self.bins[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sample, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, &'static Counter>,
    gauges: BTreeMap<&'static str, &'static Gauge>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Looks up (registering on first use) the counter named `name`.
/// Names are static, dot-separated paths like `sweep.memo_hits`.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    reg.counters
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::default())))
}

/// Looks up (registering on first use) the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    reg.gauges
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::default())))
}

/// Looks up (registering on first use) the histogram named `name`.
///
/// **First-wins contract:** the bucket bounds are fixed by the first
/// registration; later calls reuse the existing histogram and their
/// `bounds` argument is ignored. Passing different bounds for the same
/// name is a bug at the call site (the recorded distribution would
/// silently land in someone else's buckets) and trips a
/// `debug_assert`; call sites should share one bounds constant per
/// metric.
pub fn histogram(name: &'static str, bounds: &[u64]) -> &'static Histogram {
    let h: &'static Histogram = {
        let mut reg = registry().lock().expect("metrics registry poisoned");
        reg.histograms
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new(bounds))))
    };
    // Asserted outside the lock so a tripped assert cannot poison the
    // registry for unrelated threads.
    debug_assert_eq!(
        h.bounds, bounds,
        "histogram `{name}` re-registered with different bounds (first registration wins)"
    );
    h
}

/// Interned-name variants: the registry keys on `&'static str`, which
/// static call sites get for free; call sites with *runtime* names
/// (per-design counters like `sweep.fresh.<label>`) intern the name
/// once here. The leak is bounded by the number of distinct metric
/// names, which is bounded by the design registry.
static INTERNED: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();

/// Interns `name`, returning a `'static` copy (stable across calls).
pub fn intern_name(name: &str) -> &'static str {
    let mut map = INTERNED
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("metric name intern table poisoned");
    if let Some(s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

/// Looks up (registering on first use) a counter with a runtime name.
pub fn counter_named(name: &str) -> &'static Counter {
    counter(intern_name(name))
}

/// A histogram's state at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (inclusive); one overflow bucket follows.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts (`bounds.len() + 1` entries).
    pub bins: Vec<u64>,
    /// Sum of all samples.
    pub sum: u64,
    /// Number of samples.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean of the snapshotted samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counters/histograms accumulated since `earlier` (gauges
    /// keep their latest value — they are levels, not totals).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut h = h.clone();
                if let Some(before) = earlier.histograms.get(k) {
                    if before.bounds == h.bounds {
                        for (bin, prev) in h.bins.iter_mut().zip(&before.bins) {
                            *bin = bin.saturating_sub(*prev);
                        }
                        h.sum = h.sum.saturating_sub(before.sum);
                        h.count = h.count.saturating_sub(before.count);
                    }
                }
                (k.clone(), h)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Counter value by name (`None` if never registered).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": ", json_escape(name)));
            write_object(&mut out, |w| {
                w.u64s("bounds", h.bounds.iter().copied());
                w.u64s("bins", h.bins.iter().copied());
                w.u64("sum", h.sum);
                w.u64("count", h.count);
                w.f64("mean", h.mean());
            });
        }
        out.push_str(if first { "}\n}" } else { "\n  }\n}" });
        out
    }
}

/// Captures the current value of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().expect("metrics registry poisoned");
    MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|(k, c)| (k.to_string(), c.get()))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(k, g)| (k.to_string(), g.get()))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    HistogramSnapshot {
                        bounds: h.bounds.clone(),
                        bins: h.bins.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                    },
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let before = snapshot();
        let c = counter("test.metrics.counter");
        c.add(3);
        c.inc();
        let delta = snapshot().delta(&before);
        assert_eq!(delta.counter("test.metrics.counter"), Some(4));
        assert!(c.get() >= 4);
    }

    #[test]
    fn gauges_hold_levels() {
        let g = gauge("test.metrics.gauge");
        g.set(-7);
        assert_eq!(g.get(), -7);
        let snap = snapshot();
        assert_eq!(snap.gauges.get("test.metrics.gauge"), Some(&-7));
    }

    #[test]
    fn histograms_bucket_and_mean() {
        let before = snapshot();
        let h = histogram("test.metrics.hist", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        let delta = snapshot().delta(&before);
        let hs = &delta.histograms["test.metrics.hist"];
        assert_eq!(hs.bins, vec![1, 1, 1]);
        assert_eq!(hs.count, 3);
        assert!((hs.mean() - 185.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_json_parses_shape() {
        counter("test.metrics.json").inc();
        let json = snapshot().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"test.metrics.json\""));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"histograms\""));
    }

    #[test]
    fn same_name_returns_same_handle() {
        let a = counter("test.metrics.same") as *const Counter;
        let b = counter("test.metrics.same") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn interned_names_share_one_counter() {
        let label = format!("test.metrics.{}ed", "intern");
        let a = counter_named(&label) as *const Counter;
        let b = counter_named("test.metrics.interned") as *const Counter;
        assert_eq!(a, b, "runtime and static spellings hit the same handle");
        counter_named("test.metrics.interned").add(2);
        assert_eq!(
            snapshot().counter("test.metrics.interned"),
            Some(counter("test.metrics.interned").get())
        );
    }

    #[test]
    fn histogram_bounds_are_first_wins() {
        let h1 = histogram("test.metrics.firstwins", &[1, 2, 3]);
        let h2 = histogram("test.metrics.firstwins", &[1, 2, 3]);
        assert!(std::ptr::eq(h1, h2));
        assert_eq!(
            snapshot().histograms["test.metrics.firstwins"].bounds,
            vec![1, 2, 3]
        );
    }

    #[test]
    #[should_panic(expected = "re-registered with different bounds")]
    #[cfg(debug_assertions)]
    fn histogram_bounds_mismatch_trips_debug_assert() {
        histogram("test.metrics.mismatch", &[1, 2]);
        histogram("test.metrics.mismatch", &[5, 6]);
    }
}
