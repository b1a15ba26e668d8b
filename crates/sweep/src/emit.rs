//! Result emitters: one record description per result kind.
//!
//! Each result kind ([`SweepResult`], [`SampledResult`], [`MixResult`],
//! [`LoadedResult`]) implements [`Record`]: it writes its fields, in
//! order, once, into a [`RecordWriter`]. The JSON array ([`to_json`]),
//! the CSV ([`to_csv`]) and the per-point payload `fc_sweep serve`
//! streams ([`point_record_json`]) all render from that one
//! description.
//!
//! The CSV is the record's scalar projection: every top-level scalar,
//! plus the always-present nested objects flattened to dotted column
//! names (`plan.period`, `ipc.ci_half`). Arrays (`per_core`, the queue
//! histograms) and the optional `prediction` object are JSON-only.
//! Numbers render identically in both (non-finite floats as `null`).

use fc_sim::loaded::{usable_bandwidth, LoadedPoint};
use fc_sim::{CorePerf, DesignSpec};
use fc_types::record::{json_document, write_json};
pub use fc_types::record::{to_csv, to_json, Record, RecordWriter};

use crate::executor::SweepResult;
use crate::{Estimate, LoadedResult, MixResult, SampledResult};

/// Renders one sweep result as a single JSON object (no trailing
/// newline): the per-point record [`to_json`] arrays up, and the
/// payload `fc_sweep serve` streams per point.
pub fn point_record_json(r: &SweepResult) -> String {
    let mut out = String::with_capacity(2048);
    write_json(&mut out, r);
    out
}

/// [`to_json`] for sampled results.
pub fn to_sampled_json(results: &[SampledResult]) -> String {
    to_json(results)
}

/// The per-core counters every report-backed record carries.
fn core_counters(w: &mut RecordWriter<'_>, c: &CorePerf) {
    w.u64("insts", c.insts);
    w.u64("cycles", c.cycles);
    w.u64("l2_misses", c.l2_misses);
    w.f64("ipc", c.ipc());
    w.f64("mpki", c.mpki());
}

fn estimate(w: &mut RecordWriter<'_>, name: &'static str, e: &Estimate) {
    w.object(name, |w| {
        w.f64("mean", e.mean);
        w.f64("stddev", e.stddev);
        w.f64("ci_half", e.ci_half);
        w.u64("n", e.n);
    });
}

impl Record for SweepResult {
    fn write(&self, w: &mut RecordWriter<'_>) {
        let p = &self.point;
        let rep = &*self.report;
        w.text("workload", p.workload.name());
        w.text("design", &p.design.label());
        w.u64("capacity_mb", p.sizing_mb);
        w.u64("seed", p.seed());
        w.u64("warmup_records", p.warmup());
        w.u64("measured_records", p.measured());
        w.hex("key", p.key().hash64());
        w.u64("insts", rep.insts);
        w.u64("cycles", rep.cycles);
        w.f64("throughput", rep.throughput());
        w.f64("miss_ratio", rep.cache.miss_ratio());
        w.f64("hit_ratio", rep.cache.hit_ratio());
        w.f64("offchip_bytes_per_inst", rep.offchip_bytes_per_inst());
        w.f64("stacked_bytes_per_inst", rep.stacked_bytes_per_inst());
        w.f64("offchip_energy_nj", rep.offchip_energy.total_nj());
        w.f64("stacked_energy_nj", rep.stacked_energy.total_nj());
        w.f64("stacked_row_hit_ratio", rep.stacked.row_hit_ratio());
        w.u64("stacked_compound_accesses", rep.stacked.compound_accesses);
        w.u64("offchip_busy_cycles", rep.offchip.busy_cycles);
        w.u64("stacked_busy_cycles", rep.stacked.busy_cycles);
        w.f64("offchip_avg_queue_delay", rep.offchip.avg_queue_delay());
        w.f64("stacked_avg_queue_delay", rep.stacked.avg_queue_delay());
        w.u64s("offchip_queue_hist", rep.offchip.queue_hist.bins());
        w.u64s("stacked_queue_hist", rep.stacked.queue_hist.bins());
        w.objects(
            "per_core",
            rep.per_core.iter().enumerate(),
            |w, (core, c)| {
                w.u64("core", core as u64);
                core_counters(w, c);
            },
        );
        rep.write_prediction(w);
    }
}

/// Sampled points carry the plan, the per-metric estimates (mean,
/// stddev, 95% CI half-width, interval count) and the
/// measured/replayed fractions.
impl Record for SampledResult {
    fn write(&self, w: &mut RecordWriter<'_>) {
        let p = &self.point.point;
        let rep = &*self.report;
        let plan = &rep.plan;
        w.text("workload", p.workload.name());
        w.text("design", &p.design.label());
        w.u64("capacity_mb", p.sizing_mb);
        w.u64("seed", p.seed());
        w.u64("warmup_records", p.warmup());
        w.u64("measured_records_total", p.measured());
        w.hex("key", self.point.key().hash64());
        w.object("plan", |w| {
            w.u64("period", plan.period);
            w.u64("functional_warmup", plan.functional_warmup);
            w.u64("detail_warmup", plan.detail_warmup);
            w.u64("interval", plan.interval);
            // u64::MAX means "replay the whole warmup"; the sentinel
            // exceeds double precision, so standard JSON readers would
            // silently corrupt it — emit null instead.
            w.u64_or_null(
                "warmup_window",
                Some(plan.warmup_window).filter(|&n| n != u64::MAX),
            );
            w.u64("strata", u64::from(plan.strata));
        });
        w.u64("intervals", rep.intervals.len() as u64);
        w.u64("measured_records", rep.measured_records);
        w.u64("replayed_records", rep.replayed_records);
        w.u64("detailed_records", rep.detailed_records);
        w.f64("measured_fraction", rep.measured_fraction());
        w.f64("replayed_fraction", rep.replayed_fraction());
        w.u64("insts", rep.insts);
        w.u64("cycles", rep.cycles);
        estimate(w, "ipc", &rep.ipc);
        estimate(w, "mpki", &rep.mpki);
        estimate(w, "hit_ratio", &rep.hit_ratio);
        estimate(w, "offchip_bytes_per_inst", &rep.offchip_bytes_per_inst);
    }
}

/// Mix points carry the consolidation metrics and a per-core array
/// with each core's workload, IPC, MPKI, solo-IPC baseline and relative
/// speedup.
impl Record for MixResult {
    fn write(&self, w: &mut RecordWriter<'_>) {
        let p = &self.point;
        let rep = &*self.report;
        w.text("scenario", &p.scenario.name);
        w.text("design", &p.design.label());
        w.u64("capacity_mb", p.sizing_mb);
        w.u64("seed", p.seed());
        w.u64("warmup_records", p.warmup());
        w.u64("measured_records", p.measured());
        w.hex("key", p.key().hash64());
        w.u64("insts", rep.insts);
        w.u64("cycles", rep.cycles);
        w.f64("throughput", rep.throughput());
        w.f64("miss_ratio", rep.cache.miss_ratio());
        w.f64("offchip_bytes_per_inst", rep.offchip_bytes_per_inst());
        w.f64("weighted_speedup", self.consolidation.weighted_speedup);
        w.f64("fairness", self.consolidation.fairness);
        w.objects(
            "per_core",
            rep.per_core.iter().enumerate(),
            |w, (core, c)| {
                w.u64("core", core as u64);
                w.text(
                    "core_workload",
                    p.scenario.workload_at(core as u8, 0).name(),
                );
                core_counters(w, c);
                w.f64("solo_ipc", self.solo_ipc[core]);
                w.f64("speedup", self.consolidation.per_core_speedup[core]);
            },
        );
    }
}

/// Loaded-latency points: one per `(design, interval)`.
impl Record for LoadedResult {
    fn write(&self, w: &mut RecordWriter<'_>) {
        let p = &self.point;
        w.text("workload", self.workload.name());
        w.text("design", &self.design.label());
        w.u64("interval", p.interval);
        w.f64("injected_gbs", p.injected_gbs);
        w.f64("achieved_gbs", p.achieved_gbs);
        w.f64("avg_latency", p.avg_latency);
        w.u64("max_latency", p.max_latency);
        w.u64("requests", p.requests);
        w.u64("cycles", p.cycles);
        w.f64("stacked_util", p.stacked_util());
        w.f64("offchip_util", p.offchip_util());
        w.f64("stacked_avg_queue_delay", p.stacked.avg_queue_delay());
        w.f64("offchip_avg_queue_delay", p.offchip.avg_queue_delay());
        w.u64s("stacked_queue_hist", p.stacked.queue_hist.bins());
        w.u64s("offchip_queue_hist", p.offchip.queue_hist.bins());
    }
}

/// Wraps a JSON artifact with a run-provenance header. Arrays become
/// `{"provenance": ..., "results": [...]}`; objects get a
/// `"provenance"` key spliced in as their first member. Existing
/// artifact shapes are never mutated in place — callers opt in.
pub fn with_provenance(artifact: &str, prov: &fc_obs::Provenance) -> String {
    let trimmed = artifact.trim_start();
    if trimmed.starts_with('[') {
        format!(
            "{{\n\"provenance\": {},\n\"results\": {}}}\n",
            prov.to_json(),
            artifact.trim_end()
        )
    } else if let Some(rest) = trimmed.strip_prefix('{') {
        format!("{{\n\"provenance\": {},{rest}", prov.to_json())
    } else {
        // Not JSON we recognize; leave it untouched.
        artifact.to_string()
    }
}

/// Prepends a `# provenance: {...}` comment line to a CSV artifact, so
/// every emitted table records the run that produced it without
/// breaking header-row parsing (readers skip `#` lines).
pub fn csv_with_provenance(csv: &str, prov: &fc_obs::Provenance) -> String {
    format!("# provenance: {}\n{csv}", prov.to_json())
}

/// Renders a metrics snapshot plus any published detailed-stats time
/// series as one provenance-stamped JSON object — the `--metrics-out`
/// artifact.
pub fn to_metrics_json(
    snapshot: &fc_obs::metrics::MetricsSnapshot,
    prov: &fc_obs::Provenance,
) -> String {
    format!(
        "{{\n\"provenance\": {},\n\"metrics\": {},\n\"timeseries\": {}\n}}\n",
        prov.to_json(),
        snapshot.to_json(),
        fc_obs::series::published_json(),
    )
}

/// De-duplicated design labels, in first-seen order.
pub fn design_labels<'a>(designs: impl IntoIterator<Item = &'a DesignSpec>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for d in designs {
        let label = d.label();
        if !out.contains(&label) {
            out.push(label);
        }
    }
    out
}

/// Parallel-speedup numbers for [`to_bench_json`].
#[derive(Clone, Copy, Debug)]
pub struct SpeedupSummary {
    /// Wall seconds of the sequential rerun.
    pub sequential_secs: f64,
    /// Wall seconds of the parallel run.
    pub parallel_secs: f64,
    /// Worker threads of the parallel run.
    pub threads: usize,
}

/// Renders a benchmark summary for a finished grid: per-design
/// simulation throughput (points and simulated points/sec), each
/// design's geomean performance speedup over the grid's baseline
/// runs (when the grid includes the baseline), and the parallel-vs-
/// sequential engine speedup when one was measured. CI emits this as
/// `BENCH_designspace.json` so the perf trajectory of every design is
/// tracked per commit.
pub fn to_bench_json(
    grid: &str,
    results: &[SweepResult],
    wall_secs: f64,
    speedup: Option<SpeedupSummary>,
) -> String {
    // Baseline throughput per workload, for performance-speedup rows.
    let baseline: Vec<(crate::WorkloadKind, f64)> = results
        .iter()
        .filter(|r| r.point.design.label() == "Baseline")
        .map(|r| (r.point.workload, r.report.throughput()))
        .collect();
    let labels = design_labels(results.iter().map(|r| &r.point.design));
    json_document(|w| {
        w.text("grid", grid);
        w.u64("total_points", results.len() as u64);
        w.f64("wall_secs", wall_secs);
        w.f64("points_per_sec", ratio(results.len() as f64, wall_secs));
        w.opt_object("parallel_speedup", speedup, |w, s| {
            w.f64("sequential_secs", s.sequential_secs);
            w.f64("parallel_secs", s.parallel_secs);
            w.u64("threads", s.threads as u64);
            w.f64("factor", s.sequential_secs / s.parallel_secs.max(1e-9));
        });
        w.objects("designs", &labels, |w, label| {
            let group: Vec<&SweepResult> = results
                .iter()
                .filter(|r| r.point.design.label() == *label)
                .collect();
            let simulated: Vec<&&SweepResult> = group.iter().filter(|r| !r.memoized).collect();
            let sim_secs: f64 = simulated.iter().map(|r| r.sim_secs).sum();
            let ratios: Vec<f64> = group
                .iter()
                .filter_map(|r| {
                    baseline
                        .iter()
                        .find(|(w, _)| *w == r.point.workload)
                        .map(|(_, base)| r.report.throughput() / base)
                })
                .collect();
            w.text("design", label);
            w.u64("points", group.len() as u64);
            w.u64("simulated", simulated.len() as u64);
            w.f64("sim_secs", sim_secs);
            w.f64("points_per_sec", ratio(simulated.len() as f64, sim_secs));
            w.f64(
                "geomean_speedup_vs_baseline",
                if ratios.is_empty() {
                    f64::NAN
                } else {
                    fc_types::geomean(&ratios)
                },
            );
        });
    })
}

/// `num / den`, or 0 when `den` is not positive.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Renders the bandwidth benchmark summary for a loaded-latency grid:
/// per design, the unloaded latency (flat end of the curve), the usable
/// bandwidth (best achieved rate), and the latency at the heaviest
/// injected load. CI emits this as `BENCH_bandwidth.json`, so each
/// design's bandwidth trajectory is tracked per commit next to
/// `BENCH_designspace.json`'s throughput trajectory.
pub fn to_bandwidth_bench_json(results: &[LoadedResult], workload: &str, wall_secs: f64) -> String {
    json_document(|w| {
        w.text("grid", "loaded");
        w.text("workload", workload);
        w.u64("total_points", results.len() as u64);
        w.f64("wall_secs", wall_secs);
        w.objects(
            "designs",
            crate::loaded::curves(results),
            |w, (design, curve)| {
                // Unloaded: the flat end of the curve; loaded: the
                // heaviest injected rate.
                let latency = |p: Option<&LoadedPoint>| p.map_or(0.0, |p| p.avg_latency);
                w.text("design", &design.label());
                w.u64("points", curve.len() as u64);
                w.f64("unloaded_latency", latency(curve.first()));
                w.f64("loaded_latency", latency(curve.last()));
                w.f64("usable_gbs", usable_bandwidth(&curve));
            },
        );
    })
}

/// Renders the consolidation benchmark summary for a finished mix
/// grid: per `(scenario, design)`, the weighted speedup, fairness,
/// pod throughput and simulation cost, plus each design's geomean
/// weighted speedup across scenarios. CI emits this as
/// `BENCH_mix.json` next to `BENCH_designspace.json` and
/// `BENCH_bandwidth.json`.
pub fn to_mix_bench_json(results: &[MixResult], wall_secs: f64) -> String {
    let labels = design_labels(results.iter().map(|r| &r.point.design));
    json_document(|w| {
        w.text("grid", "mix");
        w.u64("total_points", results.len() as u64);
        w.f64("wall_secs", wall_secs);
        w.objects("points", results, |w, r| {
            w.text("scenario", &r.point.scenario.name);
            w.text("design", &r.point.design.label());
            w.f64("weighted_speedup", r.consolidation.weighted_speedup);
            w.f64("fairness", r.consolidation.fairness);
            w.f64("throughput", r.report.throughput());
            w.f64("sim_secs", r.sim_secs);
            w.bool("memoized", r.memoized);
        });
        // Per-design geomean weighted speedup across scenarios.
        w.objects("designs", &labels, |w, label| {
            let speedups: Vec<f64> = results
                .iter()
                .filter(|r| r.point.design.label() == *label)
                .map(|r| r.consolidation.weighted_speedup)
                .collect();
            w.text("design", label);
            w.u64("scenarios", speedups.len() as u64);
            w.f64("geomean_weighted_speedup", fc_types::geomean(&speedups));
        });
    })
}

/// Renders the speedup-vs-error benchmark for a sampled grid run next
/// to its full detailed twin: per point, the full-run IPC, the sampled
/// estimate with its CI, the relative error, whether the full value
/// fell inside the CI, and the wall-clock speedup; plus grid-level
/// aggregates (total/geomean speedup, worst error, CI coverage). CI
/// emits this as `BENCH_sample.json` next to the other bench
/// artifacts.
///
/// # Panics
///
/// Panics if `sampled` and `full` differ in length or point order —
/// they must come from the same spec.
pub fn to_sample_bench_json(
    sampled: &[SampledResult],
    full: &[SweepResult],
    sampled_wall_secs: f64,
    full_wall_secs: f64,
) -> String {
    assert_eq!(
        sampled.len(),
        full.len(),
        "sampled and full result sets must cover the same spec"
    );
    // (full IPC, relative error, within CI, wall speedup) per point.
    let rows: Vec<(f64, f64, bool, f64)> = sampled
        .iter()
        .zip(full)
        .map(|(s, f)| {
            assert_eq!(s.point.point, f.point, "point order mismatch");
            let full_ipc = f.report.throughput();
            let est = &s.report.ipc;
            let rel_err = ratio(est.mean - full_ipc, full_ipc);
            let speedup = ratio(f.sim_secs, s.sim_secs);
            (full_ipc, rel_err, est.contains(full_ipc), speedup)
        })
        .collect();
    let speedups: Vec<f64> = rows.iter().map(|r| r.3).filter(|&x| x > 0.0).collect();
    let full_secs: f64 = full.iter().map(|f| f.sim_secs).sum();
    let sampled_secs: f64 = sampled.iter().map(|s| s.sim_secs).sum();
    json_document(|w| {
        w.text("grid", "sampled");
        w.u64("points", sampled.len() as u64);
        w.f64("full_wall_secs", full_wall_secs);
        w.f64("sampled_wall_secs", sampled_wall_secs);
        w.f64("full_sim_secs", full_secs);
        w.f64("sampled_sim_secs", sampled_secs);
        w.f64("total_speedup", ratio(full_secs, sampled_secs));
        w.f64("geomean_speedup", fc_types::geomean(&speedups));
        w.f64(
            "max_abs_rel_err",
            rows.iter().map(|r| r.1.abs()).fold(0.0, f64::max),
        );
        w.u64("within_ci", rows.iter().filter(|r| r.2).count() as u64);
        w.objects(
            "rows",
            sampled.iter().zip(full).zip(&rows),
            |w, ((s, f), &(full_ipc, rel_err, within_ci, speedup))| {
                w.text("workload", f.point.workload.name());
                w.text("design", &f.point.design.label());
                w.f64("full_ipc", full_ipc);
                w.f64("sampled_ipc", s.report.ipc.mean);
                w.f64("ipc_ci_half", s.report.ipc.ci_half);
                w.f64("rel_err", rel_err);
                w.bool("within_ci", within_ci);
                w.f64("full_hit_ratio", f.report.cache.hit_ratio());
                w.f64("sampled_hit_ratio", s.report.hit_ratio.mean);
                w.f64("full_secs", f.sim_secs);
                w.f64("sampled_secs", s.sim_secs);
                w.f64("speedup", speedup);
                w.bool("exhaustive", s.report.plan.skip() == 0);
                w.f64("measured_fraction", s.report.measured_fraction());
                w.f64("replayed_fraction", s.report.replayed_fraction());
            },
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpec, RunScale, SweepEngine, SweepSpec, WorkloadKind};

    fn sample_results() -> Vec<SweepResult> {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch],
            &[DesignSpec::baseline(), DesignSpec::footprint(64)],
        );
        SweepEngine::new().with_threads(1).quiet().run_spec(&spec)
    }

    #[test]
    fn json_has_one_object_per_point() {
        let results = sample_results();
        let json = to_json(&results);
        assert_eq!(json.matches("\"workload\"").count(), 2);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"design\": \"Footprint 64MB\""));
        // The footprint design reports prediction counters.
        assert!(json.contains("\"covered\""));
    }

    #[test]
    fn csv_rows_match_points() {
        let results = sample_results();
        let csv = to_csv(&results);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 rows
        assert!(lines[0].starts_with("workload,design,"));
        assert!(lines[1].contains("Baseline"));
    }

    /// A one-string record, for exercising the writer's escaping.
    struct Text(&'static str);

    impl Record for Text {
        fn write(&self, w: &mut RecordWriter<'_>) {
            w.text("name", self.0);
        }
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let row = |s| to_csv(&[Text(s)]).lines().nth(1).unwrap().to_string();
        assert_eq!(row("a,b"), "\"a,b\"");
        assert_eq!(row("plain"), "plain");
        assert_eq!(row("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(fc_sim::json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut out = String::new();
        write_json(&mut out, &Text("a\"b\u{1}"));
        assert_eq!(out, "{\"name\": \"a\\\"b\\u0001\"}");
    }

    #[test]
    fn bench_json_summarizes_per_design() {
        let results = sample_results();
        let bench = to_bench_json(
            "test-grid",
            &results,
            1.0,
            Some(SpeedupSummary {
                sequential_secs: 2.0,
                parallel_secs: 1.0,
                threads: 2,
            }),
        );
        assert!(bench.contains("\"grid\": \"test-grid\""));
        assert!(bench.contains("\"design\": \"Baseline\""));
        assert!(bench.contains("\"design\": \"Footprint 64MB\""));
        assert!(bench.contains("\"points_per_sec\""));
        assert!(bench.contains("\"factor\": 2"));
        // The grid includes the baseline, so speedups are reported.
        assert!(!bench.contains("\"geomean_speedup_vs_baseline\": null"));
    }

    #[test]
    fn loaded_emitters_cover_every_point() {
        use fc_sim::loaded::LoadedConfig;
        let grid = crate::LoadedGrid {
            designs: vec![DesignSpec::baseline(), DesignSpec::page(64)],
            intervals: vec![96, 8],
            config: LoadedConfig {
                warmup: 300,
                requests: 300,
                ..LoadedConfig::tiny()
            },
        };
        let results = crate::run_loaded(&grid, 2);
        let json = to_json(&results);
        assert_eq!(json.matches("\"design\"").count(), 4);
        assert!(json.contains("\"injected_gbs\""));
        assert!(json.contains("\"stacked_queue_hist\""));
        assert!(json.contains("\"workload\": \"Web Search\""));
        let csv = to_csv(&results);
        assert_eq!(csv.lines().count(), 5); // header + 4 rows
        assert!(csv.starts_with("workload,design,"));
        let bench = to_bandwidth_bench_json(&results, "web search", 0.25);
        assert!(bench.contains("\"grid\": \"loaded\""));
        assert!(bench.contains("\"workload\": \"web search\""));
        assert!(bench.contains("\"usable_gbs\""));
        assert_eq!(bench.matches("\"unloaded_latency\"").count(), 2);
    }

    #[test]
    fn json_carries_per_core_counters() {
        let results = sample_results();
        let json = to_json(&results);
        // 16 cores per point: every point carries a per-core array.
        assert_eq!(json.matches("\"per_core\"").count(), 2);
        assert!(json.contains("\"core\": 15"));
        assert!(json.contains("\"ipc\""));
        assert!(json.contains("\"mpki\""));
    }

    #[test]
    fn mix_emitters_cover_scenarios_and_cores() {
        use fc_sim::{ScenarioSpec, SimConfig};
        let grid = crate::MixGrid::new(
            vec![ScenarioSpec::split(
                WorkloadKind::DataServing,
                WorkloadKind::MapReduce,
                4,
            )],
            vec![DesignSpec::baseline(), DesignSpec::footprint(64)],
            RunScale::tiny(),
        )
        .with_config(SimConfig::small());
        let results = crate::run_mix(&grid, &SweepEngine::new().with_threads(2).quiet());

        let json = to_json(&results);
        assert_eq!(json.matches("\"scenario\"").count(), 2);
        assert_eq!(json.matches("\"core_workload\"").count(), 8);
        assert!(json.contains("\"weighted_speedup\""));
        assert!(json.contains("\"fairness\""));
        assert!(json.contains("\"core_workload\": \"Data Serving\""));
        assert!(json.contains("\"core_workload\": \"MapReduce\""));

        let csv = to_csv(&results);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 2, "header + one row per point");
        assert!(lines[0].starts_with("scenario,design,"));
        assert!(lines[0].ends_with(",weighted_speedup,fairness"));
        // Per-core figures are JSON-only.
        assert!(!lines[0].contains("solo_ipc"));
        assert!(lines[1].starts_with("Data Serving+MapReduce,Baseline,"));

        let bench = to_mix_bench_json(&results, 0.5);
        assert!(bench.contains("\"grid\": \"mix\""));
        assert!(bench.contains("\"geomean_weighted_speedup\""));
        assert_eq!(bench.matches("\"weighted_speedup\"").count(), 2);
    }

    #[test]
    fn sampled_emitters_cover_every_point() {
        use crate::{run_sampled_grid, SamplePlan, SampledGrid};
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch],
            &[DesignSpec::baseline(), DesignSpec::footprint(64)],
        );
        let grid = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100));
        let engine = SweepEngine::new().with_threads(2).quiet();
        let sampled = run_sampled_grid(&grid, &engine);
        let full = engine.run_spec(&spec);

        let json = to_sampled_json(&sampled);
        assert_eq!(json.matches("\"workload\"").count(), 2);
        assert!(json.contains("\"plan\""));
        assert!(json.contains("\"ci_half\""));
        assert!(json.contains("\"replayed_fraction\""));
        assert!(json.contains("\"design\": \"Footprint 64MB\""));

        let csv = to_csv(&sampled);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(",plan.period,"));
        assert!(lines[0].contains(",ipc.mean,ipc.stddev,ipc.ci_half,ipc.n,"));
        assert!(lines[1].contains("Baseline"));

        let bench = to_sample_bench_json(&sampled, &full, 0.5, 2.0);
        assert!(bench.contains("\"grid\": \"sampled\""));
        assert!(bench.contains("\"total_speedup\""));
        assert!(bench.contains("\"geomean_speedup\""));
        assert!(bench.contains("\"max_abs_rel_err\""));
        assert_eq!(bench.matches("\"rel_err\"").count(), 2);
        assert!(bench.contains("\"exhaustive\": true"));
    }

    #[test]
    #[should_panic(expected = "same spec")]
    fn sample_bench_rejects_mismatched_sets() {
        use crate::{run_sampled_grid, SamplePlan, SampledGrid};
        let spec =
            SweepSpec::new(RunScale::tiny()).point(WorkloadKind::WebSearch, DesignSpec::baseline());
        let grid = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100));
        let engine = SweepEngine::new().with_threads(1).quiet();
        let sampled = run_sampled_grid(&grid, &engine);
        to_sample_bench_json(&sampled, &[], 0.1, 0.1);
    }

    #[test]
    fn provenance_wraps_arrays_and_objects() {
        let mut prov = fc_obs::Provenance::for_tool("fc_sweep");
        prov.grid = Some("designspace".to_string());
        prov.seed = Some(42);

        let results = sample_results();
        let wrapped = with_provenance(&to_json(&results), &prov);
        let parsed = fc_sim::json::JsonValue::parse(&wrapped).expect("valid JSON");
        assert!(parsed.get("provenance").is_some());
        let fc_sim::json::JsonValue::Arr(rows) = parsed.field("results").unwrap() else {
            panic!("results should stay an array");
        };
        assert_eq!(rows.len(), 2);

        let bench = with_provenance(&to_bench_json("g", &results, 1.0, None), &prov);
        let parsed = fc_sim::json::JsonValue::parse(&bench).expect("valid JSON");
        let fc_sim::json::JsonValue::Obj(fields) = &parsed else {
            panic!("bench stays an object");
        };
        assert_eq!(fields[0].0, "provenance", "provenance splices in first");
        assert!(parsed.get("grid").is_some());
        let tool = parsed.field("provenance").unwrap().field("tool").unwrap();
        assert_eq!(tool.as_str().unwrap(), "fc_sweep");

        // Non-JSON artifacts pass through untouched.
        assert_eq!(with_provenance("plain text", &prov), "plain text");
    }

    #[test]
    fn csv_provenance_is_a_comment_line() {
        let prov = fc_obs::Provenance::for_tool("fc_sweep");
        let results = sample_results();
        let csv = csv_with_provenance(&to_csv(&results), &prov);
        let mut lines = csv.lines();
        let first = lines.next().unwrap();
        assert!(first.starts_with("# provenance: {"));
        fc_sim::json::JsonValue::parse(first.trim_start_matches("# provenance: "))
            .expect("comment payload is valid JSON");
        assert!(lines.next().unwrap().starts_with("workload,design,"));
    }

    #[test]
    fn metrics_json_carries_snapshot_and_provenance() {
        fc_obs::metrics::counter("emit.test.counter").add(3);
        let snapshot = fc_obs::metrics::snapshot();
        let prov = fc_obs::Provenance::for_tool("fc_sweep");
        let out = to_metrics_json(&snapshot, &prov);
        let parsed = fc_sim::json::JsonValue::parse(&out).expect("valid JSON");
        for key in ["provenance", "metrics", "timeseries"] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
        let counters = parsed.field("metrics").unwrap().field("counters").unwrap();
        assert!(
            counters
                .field("emit.test.counter")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 3
        );
    }

    #[test]
    fn bench_json_without_speedup_or_baseline() {
        let spec = SweepSpec::new(RunScale::tiny())
            .grid(&[WorkloadKind::WebSearch], &[DesignSpec::alloy(64)]);
        let results = SweepEngine::new().with_threads(1).quiet().run_spec(&spec);
        let bench = to_bench_json("alloy-only", &results, 0.5, None);
        assert!(bench.contains("\"parallel_speedup\": null"));
        assert!(bench.contains("\"geomean_speedup_vs_baseline\": null"));
    }
}
