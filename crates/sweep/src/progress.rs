//! Sweep progress reporting.
//!
//! Small grids get the classic line per finished point. Grids larger
//! than [`Progress::SUMMARY_THRESHOLD`] points switch to a rate-limited
//! summary line (points/sec, memo-hit rate, ETA) at most once per
//! [`Progress::SUMMARY_INTERVAL_SECS`], so a long sweep no longer
//! drowns stderr in thousands of per-point lines. Either mode can
//! additionally stream one JSON object per event to a
//! `--progress-jsonl` file for tooling.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fc_sim::json::escape;

/// A shared handle to a `--progress-jsonl` event stream.
pub type ProgressSink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Thread-safe progress counter for one sweep: workers report
/// completions; stderr gets per-point lines (small grids) or
/// rate-limited summaries (large grids), and an optional JSONL sink
/// gets one structured event per point plus a final summary.
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    memo: AtomicUsize,
    started: Instant,
    verbose: bool,
    /// Last summary-line emission time (summary mode only).
    last_summary: Mutex<Instant>,
    jsonl: Option<ProgressSink>,
}

impl Progress {
    /// Grids with more points than this report via periodic summary
    /// lines instead of one line per point.
    pub const SUMMARY_THRESHOLD: usize = 200;

    /// Minimum seconds between summary lines.
    pub const SUMMARY_INTERVAL_SECS: f64 = 1.0;

    /// A tracker for `total` points.
    pub fn new(total: usize, verbose: bool) -> Self {
        Self {
            total,
            done: AtomicUsize::new(0),
            memo: AtomicUsize::new(0),
            started: Instant::now(),
            verbose,
            last_summary: Mutex::new(Instant::now()),
            jsonl: None,
        }
    }

    /// Attaches a JSONL event sink (builder-style).
    pub fn with_jsonl(mut self, sink: Option<ProgressSink>) -> Self {
        self.jsonl = sink;
        self
    }

    /// Whether this tracker reports via periodic summaries instead of
    /// per-point lines.
    pub fn summarizes(&self) -> bool {
        self.total > Self::SUMMARY_THRESHOLD
    }

    /// Records one finished point (labelled for the log line).
    pub fn finish_point(&self, label: &str, memoized: bool) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let memo = self.memo.fetch_add(memoized as usize, Ordering::Relaxed) + memoized as usize;
        let elapsed = self.started.elapsed().as_secs_f64();

        if let Some(sink) = &self.jsonl {
            let line = format!(
                "{{\"event\": \"point\", \"done\": {done}, \"total\": {}, \
                 \"label\": \"{}\", \"memoized\": {memoized}, \"secs\": {elapsed:.3}}}\n",
                self.total,
                escape(label)
            );
            if let Ok(mut w) = sink.lock() {
                let _ = w.write_all(line.as_bytes());
            }
        }

        if !self.verbose {
            return;
        }
        if !self.summarizes() {
            let eta = if done > 0 && done < self.total {
                let remaining = elapsed / done as f64 * (self.total - done) as f64;
                format!(", ~{remaining:.0}s left")
            } else {
                String::new()
            };
            let memo = if memoized { " [memo]" } else { "" };
            eprintln!(
                "[sweep] {done}/{} {label}{memo} ({elapsed:.1}s{eta})",
                self.total
            );
            return;
        }

        // Summary mode: the final point always reports; earlier points
        // report at most once per interval. try_lock keeps workers from
        // queueing on the rate-limit clock.
        if done == self.total {
            eprintln!("[sweep] {}", self.summary_line(done, memo, elapsed));
            return;
        }
        if let Ok(mut last) = self.last_summary.try_lock() {
            if last.elapsed().as_secs_f64() >= Self::SUMMARY_INTERVAL_SECS {
                *last = Instant::now();
                eprintln!("[sweep] {}", self.summary_line(done, memo, elapsed));
            }
        }
    }

    /// Writes the final JSONL summary event (a no-op without a sink).
    /// Called once by the executor after every point has finished.
    pub fn finish_run(&self) {
        let Some(sink) = &self.jsonl else {
            return;
        };
        let done = self.done();
        let memo = self.memo_hits();
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let line = format!(
            "{{\"event\": \"summary\", \"total\": {}, \"done\": {done}, \
             \"memo_hits\": {memo}, \"secs\": {elapsed:.3}, \
             \"points_per_sec\": {rate:.3}}}\n",
            self.total
        );
        if let Ok(mut w) = sink.lock() {
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
    }

    fn summary_line(&self, done: usize, memo: usize, elapsed: f64) -> String {
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let memo_pct = if done > 0 {
            memo as f64 * 100.0 / done as f64
        } else {
            0.0
        };
        let eta = if done > 0 && done < self.total {
            let remaining = elapsed / done as f64 * (self.total - done) as f64;
            format!(", ~{remaining:.0}s left")
        } else {
            String::new()
        };
        format!(
            "{done}/{} ({rate:.1} pts/s, {memo_pct:.0}% memo, {elapsed:.1}s{eta})",
            self.total
        )
    }

    /// Points finished so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Memoized completions so far.
    pub fn memo_hits(&self) -> usize {
        self.memo.load(Ordering::Relaxed)
    }

    /// Points in the sweep.
    pub fn total(&self) -> usize {
        self.total
    }
}

impl Drop for Progress {
    /// Flushes the JSONL sink: point events are written unflushed for
    /// throughput, and a run that ends without reaching `finish_run`
    /// (an early return, a panic unwinding the engine) must not lose
    /// the buffered tail of its event stream.
    fn drop(&mut self) {
        if let Some(sink) = &self.jsonl {
            if let Ok(mut w) = sink.lock() {
                let _ = w.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_completions() {
        let p = Progress::new(3, false);
        assert_eq!(p.done(), 0);
        p.finish_point("a", false);
        p.finish_point("b", true);
        assert_eq!(p.done(), 2);
        assert_eq!(p.memo_hits(), 1);
        assert_eq!(p.total(), 3);
    }

    #[test]
    fn summary_mode_kicks_in_above_threshold() {
        assert!(!Progress::new(Progress::SUMMARY_THRESHOLD, true).summarizes());
        assert!(Progress::new(Progress::SUMMARY_THRESHOLD + 1, true).summarizes());
    }

    #[test]
    fn summary_line_reports_rate_memo_and_eta() {
        let p = Progress::new(1000, true);
        let line = p.summary_line(500, 250, 10.0);
        assert!(line.contains("500/1000"), "{line}");
        assert!(line.contains("50.0 pts/s"), "{line}");
        assert!(line.contains("50% memo"), "{line}");
        assert!(line.contains("left"), "{line}");
        // The final point drops the ETA.
        assert!(!p.summary_line(1000, 0, 10.0).contains("left"));
    }

    #[test]
    fn jsonl_sink_receives_point_and_summary_events() {
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let sink: ProgressSink = Arc::new(Mutex::new(Box::new(buf.clone())));
        let p = Progress::new(2, false).with_jsonl(Some(sink));
        p.finish_point("ws/fc-3.0", false);
        p.finish_point("ws/page", true);
        p.finish_run();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\": \"point\""));
        assert!(lines[0].contains("\"label\": \"ws/fc-3.0\""));
        assert!(lines[1].contains("\"memoized\": true"));
        assert!(lines[2].contains("\"event\": \"summary\""));
        assert!(lines[2].contains("\"memo_hits\": 1"));
        // Every line parses as standalone JSON.
        for line in lines {
            fc_sim::json::JsonValue::parse(line).expect("valid JSONL");
        }
    }
}
