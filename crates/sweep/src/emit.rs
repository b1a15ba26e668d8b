//! Result emitters: JSON and CSV.
//!
//! Hand-rolled (the container has no serialization crates), emitting
//! the metrics every experiment in the harness derives its tables from.
//! One record per sweep point, in submission order.

use crate::executor::SweepResult;

// One escaper for the whole workspace: the spec layer's.
use fc_sim::json::escape as json_escape;

/// Formats an f64 as a JSON-safe number literal.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders a queueing-delay histogram as a JSON array of bin counts.
fn hist_json(h: &fc_dram::QueueDelayHist) -> String {
    h.to_json()
}

/// Renders a report's per-core counters as a JSON array (one object
/// per core, in core order).
fn per_core_json(rep: &fc_sim::SimReport) -> String {
    let entries: Vec<String> = rep
        .per_core
        .iter()
        .enumerate()
        .map(|(core, c)| {
            format!(
                "{{\"core\": {core}, \"insts\": {}, \"cycles\": {}, \
                 \"l2_misses\": {}, \"ipc\": {}, \"mpki\": {}}}",
                c.insts,
                c.cycles,
                c.l2_misses,
                json_num(c.ipc()),
                json_num(c.mpki()),
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

/// Renders one sweep result as a single JSON object (no trailing
/// newline) — the per-point record `to_json` arrays up, and the
/// payload `fc_sweep serve` streams per point.
pub fn point_record_json(r: &SweepResult) -> String {
    let p = &r.point;
    let rep = &r.report;
    let prediction = match &rep.prediction {
        Some(pred) => format!(
            "{{\"covered\": {}, \"overpredicted\": {}, \"underpredicted\": {}, \
             \"singleton_bypasses\": {}, \"singleton_promotions\": {}}}",
            pred.covered,
            pred.overpredicted,
            pred.underpredicted,
            pred.singleton_bypasses,
            pred.singleton_promotions
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"workload\": \"{workload}\", \"design\": \"{design}\", \
         \"capacity_mb\": {mb}, \"seed\": {seed}, \
         \"warmup_records\": {warmup}, \"measured_records\": {measured}, \
         \"key\": \"{key:016x}\", \
         \"insts\": {insts}, \"cycles\": {cycles}, \
         \"throughput\": {tput}, \
         \"miss_ratio\": {miss}, \"hit_ratio\": {hit}, \
         \"offchip_bytes_per_inst\": {obpi}, \
         \"stacked_bytes_per_inst\": {sbpi}, \
         \"offchip_energy_nj\": {oe}, \"stacked_energy_nj\": {se}, \
         \"stacked_row_hit_ratio\": {rh}, \
         \"stacked_compound_accesses\": {compound}, \
         \"offchip_busy_cycles\": {obusy}, \"stacked_busy_cycles\": {sbusy}, \
         \"offchip_avg_queue_delay\": {oqd}, \"stacked_avg_queue_delay\": {sqd}, \
         \"offchip_queue_hist\": {ohist}, \"stacked_queue_hist\": {shist}, \
         \"per_core\": {per_core}, \
         \"prediction\": {prediction}}}",
        workload = json_escape(&p.workload.to_string()),
        design = json_escape(&p.design.label()),
        mb = p.capacity_mb(),
        seed = p.seed(),
        warmup = p.warmup(),
        measured = p.measured(),
        key = p.key().hash64(),
        insts = rep.insts,
        cycles = rep.cycles,
        tput = json_num(rep.throughput()),
        miss = json_num(rep.cache.miss_ratio()),
        hit = json_num(rep.cache.hit_ratio()),
        obpi = json_num(rep.offchip_bytes_per_inst()),
        sbpi = json_num(stacked_bytes_per_inst(rep)),
        oe = json_num(rep.offchip_energy.total_nj()),
        se = json_num(rep.stacked_energy.total_nj()),
        rh = json_num(rep.stacked.row_hit_ratio()),
        compound = rep.stacked.compound_accesses,
        obusy = rep.offchip.busy_cycles,
        sbusy = rep.stacked.busy_cycles,
        oqd = json_num(rep.offchip.avg_queue_delay()),
        sqd = json_num(rep.stacked.avg_queue_delay()),
        ohist = hist_json(&rep.offchip.queue_hist),
        shist = hist_json(&rep.stacked.queue_hist),
        per_core = per_core_json(rep),
    )
}

/// Renders results as a JSON array (one object per point).
pub fn to_json(results: &[SweepResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&point_record_json(r));
        out.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// Escapes a CSV field (quotes fields containing separators/quotes).
fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders results as CSV with a header row.
pub fn to_csv(results: &[SweepResult]) -> String {
    let mut out = String::from(
        "workload,design,capacity_mb,seed,warmup_records,measured_records,\
         insts,cycles,throughput,miss_ratio,hit_ratio,\
         offchip_bytes_per_inst,stacked_bytes_per_inst,\
         offchip_energy_nj,stacked_energy_nj,stacked_row_hit_ratio,\
         offchip_busy_cycles,stacked_busy_cycles,\
         offchip_avg_queue_delay,stacked_avg_queue_delay\n",
    );
    for r in results {
        let p = &r.point;
        let rep = &r.report;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.3},{:.3},{:.6},{},{},{:.3},{:.3}\n",
            csv_escape(&p.workload.to_string()),
            csv_escape(&p.design.label()),
            p.capacity_mb(),
            p.seed(),
            p.warmup(),
            p.measured(),
            rep.insts,
            rep.cycles,
            rep.throughput(),
            rep.cache.miss_ratio(),
            rep.cache.hit_ratio(),
            rep.offchip_bytes_per_inst(),
            stacked_bytes_per_inst(rep),
            rep.offchip_energy.total_nj(),
            rep.stacked_energy.total_nj(),
            rep.stacked.row_hit_ratio(),
            rep.offchip.busy_cycles,
            rep.stacked.busy_cycles,
            rep.offchip.avg_queue_delay(),
            rep.stacked.avg_queue_delay(),
        ));
    }
    out
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

fn stacked_bytes_per_inst(rep: &fc_sim::SimReport) -> f64 {
    if rep.insts == 0 {
        0.0
    } else {
        rep.stacked.bytes() as f64 / rep.insts as f64
    }
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
    let baseline: Vec<(String, f64)> = results
        .iter()
        .filter(|r| r.point.design.label() == "Baseline")
        .map(|r| (r.point.workload.to_string(), r.report.throughput()))
        .collect();

    // Group by design label, preserving first-seen order.
    let mut order: Vec<String> = Vec::new();
    for r in results {
        let label = r.point.design.label();
        if !order.contains(&label) {
            order.push(label);
        }
    }

    let mut designs = String::new();
    for (i, label) in order.iter().enumerate() {
        let group: Vec<&SweepResult> = results
            .iter()
            .filter(|r| r.point.design.label() == *label)
            .collect();
        let simulated: Vec<&&SweepResult> = group.iter().filter(|r| !r.memoized).collect();
        let sim_secs: f64 = simulated.iter().map(|r| r.sim_secs).sum();
        let points_per_sec = if sim_secs > 0.0 {
            simulated.len() as f64 / sim_secs
        } else {
            0.0
        };
        let ratios: Vec<f64> = group
            .iter()
            .filter_map(|r| {
                let workload = r.point.workload.to_string();
                baseline
                    .iter()
                    .find(|(w, _)| *w == workload)
                    .map(|(_, base)| r.report.throughput() / base)
            })
            .collect();
        let speedup_vs_baseline = if ratios.is_empty() {
            "null".to_string()
        } else {
            json_num(fc_types::geomean(&ratios))
        };
        designs.push_str(&format!(
            "    {{\"design\": \"{}\", \"points\": {}, \"simulated\": {}, \
             \"sim_secs\": {}, \"points_per_sec\": {}, \
             \"geomean_speedup_vs_baseline\": {}}}{}\n",
            json_escape(label),
            group.len(),
            simulated.len(),
            json_num(sim_secs),
            json_num(points_per_sec),
            speedup_vs_baseline,
            if i + 1 == order.len() { "" } else { "," },
        ));
    }

    let speedup_json = match speedup {
        Some(s) => format!(
            "{{\"sequential_secs\": {}, \"parallel_secs\": {}, \"threads\": {}, \
             \"factor\": {}}}",
            json_num(s.sequential_secs),
            json_num(s.parallel_secs),
            s.threads,
            json_num(s.sequential_secs / s.parallel_secs.max(1e-9)),
        ),
        None => "null".to_string(),
    };
    let total_per_sec = if wall_secs > 0.0 {
        results.len() as f64 / wall_secs
    } else {
        0.0
    };
    format!(
        "{{\n  \"grid\": \"{}\",\n  \"total_points\": {},\n  \"wall_secs\": {},\n  \
         \"points_per_sec\": {},\n  \"parallel_speedup\": {},\n  \"designs\": [\n{}  ]\n}}\n",
        json_escape(grid),
        results.len(),
        json_num(wall_secs),
        json_num(total_per_sec),
        speedup_json,
        designs,
    )
}

/// Renders loaded-latency results as a JSON array (one object per
/// `(design, interval)` point, in grid order). `workload` names the
/// injected access stream (one per loaded grid).
pub fn to_loaded_json(results: &[crate::LoadedResult], workload: &str) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let p = &r.point;
        out.push_str(&format!(
            "  {{\"workload\": \"{workload}\", \"design\": \"{design}\", \"interval\": {interval}, \
             \"injected_gbs\": {inj}, \"achieved_gbs\": {ach}, \
             \"avg_latency\": {avg}, \"max_latency\": {max}, \
             \"requests\": {reqs}, \"cycles\": {cycles}, \
             \"stacked_util\": {sutil}, \"offchip_util\": {outil}, \
             \"stacked_avg_queue_delay\": {sqd}, \"offchip_avg_queue_delay\": {oqd}, \
             \"stacked_queue_hist\": {shist}, \"offchip_queue_hist\": {ohist}}}{comma}\n",
            workload = json_escape(workload),
            design = json_escape(&r.design.label()),
            interval = p.interval,
            inj = json_num(p.injected_gbs),
            ach = json_num(p.achieved_gbs),
            avg = json_num(p.avg_latency),
            max = p.max_latency,
            reqs = p.requests,
            cycles = p.cycles,
            sutil = json_num(p.stacked_util()),
            outil = json_num(p.offchip_util()),
            sqd = json_num(p.stacked.avg_queue_delay()),
            oqd = json_num(p.offchip.avg_queue_delay()),
            shist = hist_json(&p.stacked.queue_hist),
            ohist = hist_json(&p.offchip.queue_hist),
            comma = if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders loaded-latency results as CSV with a header row.
pub fn to_loaded_csv(results: &[crate::LoadedResult], workload: &str) -> String {
    let mut out = String::from(
        "workload,design,interval,injected_gbs,achieved_gbs,avg_latency,max_latency,\
         requests,cycles,stacked_util,offchip_util,\
         stacked_avg_queue_delay,offchip_avg_queue_delay\n",
    );
    for r in results {
        let p = &r.point;
        out.push_str(&format!(
            "{},{},{},{:.3},{:.3},{:.3},{},{},{},{:.6},{:.6},{:.3},{:.3}\n",
            csv_escape(workload),
            csv_escape(&r.design.label()),
            p.interval,
            p.injected_gbs,
            p.achieved_gbs,
            p.avg_latency,
            p.max_latency,
            p.requests,
            p.cycles,
            p.stacked_util(),
            p.offchip_util(),
            p.stacked.avg_queue_delay(),
            p.offchip.avg_queue_delay(),
        ));
    }
    out
}

/// Renders the bandwidth benchmark summary for a loaded-latency grid:
/// per design, the unloaded latency (flat end of the curve), the usable
/// bandwidth (best achieved rate), and the latency at the heaviest
/// injected load. CI emits this as `BENCH_bandwidth.json`, so each
/// design's bandwidth trajectory is tracked per commit next to
/// `BENCH_designspace.json`'s throughput trajectory.
pub fn to_bandwidth_bench_json(
    results: &[crate::LoadedResult],
    workload: &str,
    wall_secs: f64,
) -> String {
    let grouped = crate::loaded::curves(results);
    let mut designs = String::new();
    for (i, (design, curve)) in grouped.iter().enumerate() {
        let unloaded = curve.first().map(|p| p.avg_latency).unwrap_or(0.0);
        let loaded = curve.last().map(|p| p.avg_latency).unwrap_or(0.0);
        let usable: f64 = curve.iter().map(|p| p.achieved_gbs).fold(0.0, f64::max);
        designs.push_str(&format!(
            "    {{\"design\": \"{}\", \"points\": {}, \"unloaded_latency\": {}, \
             \"loaded_latency\": {}, \"usable_gbs\": {}}}{}\n",
            json_escape(&design.label()),
            curve.len(),
            json_num(unloaded),
            json_num(loaded),
            json_num(usable),
            if i + 1 == grouped.len() { "" } else { "," },
        ));
    }
    format!(
        "{{\n  \"grid\": \"loaded\",\n  \"workload\": \"{}\",\n  \"total_points\": {},\n  \
         \"wall_secs\": {},\n  \"designs\": [\n{}  ]\n}}\n",
        json_escape(workload),
        results.len(),
        json_num(wall_secs),
        designs,
    )
}

/// Renders mix results as a JSON array: one object per
/// `(scenario, design)` point with the consolidation metrics and a
/// per-core array carrying each core's workload, IPC, MPKI, solo-IPC
/// baseline and relative speedup.
pub fn to_mix_json(results: &[crate::MixResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let p = &r.point;
        let rep = &r.report;
        let per_core: Vec<String> = rep
            .per_core
            .iter()
            .enumerate()
            .map(|(core, c)| {
                format!(
                    "{{\"core\": {core}, \"core_workload\": \"{}\", \"insts\": {}, \
                     \"cycles\": {}, \"l2_misses\": {}, \"ipc\": {}, \"mpki\": {}, \
                     \"solo_ipc\": {}, \"speedup\": {}}}",
                    json_escape(p.scenario.workload_at(core as u8, 0).name()),
                    c.insts,
                    c.cycles,
                    c.l2_misses,
                    json_num(c.ipc()),
                    json_num(c.mpki()),
                    json_num(r.solo_ipc[core]),
                    json_num(r.consolidation.per_core_speedup[core]),
                )
            })
            .collect();
        out.push_str(&format!(
            "  {{\"scenario\": \"{scenario}\", \"design\": \"{design}\", \
             \"capacity_mb\": {mb}, \"seed\": {seed}, \
             \"warmup_records\": {warmup}, \"measured_records\": {measured}, \
             \"key\": \"{key:016x}\", \
             \"insts\": {insts}, \"cycles\": {cycles}, \"throughput\": {tput}, \
             \"miss_ratio\": {miss}, \"offchip_bytes_per_inst\": {obpi}, \
             \"weighted_speedup\": {ws}, \"fairness\": {fair}, \
             \"per_core\": [{per_core}]}}{comma}\n",
            scenario = json_escape(&p.scenario.name),
            design = json_escape(&p.design.label()),
            mb = p.capacity_mb(),
            seed = p.seed(),
            warmup = p.warmup(),
            measured = p.measured(),
            key = p.key().hash64(),
            insts = rep.insts,
            cycles = rep.cycles,
            tput = json_num(rep.throughput()),
            miss = json_num(rep.cache.miss_ratio()),
            obpi = json_num(rep.offchip_bytes_per_inst()),
            ws = json_num(r.consolidation.weighted_speedup),
            fair = json_num(r.consolidation.fairness),
            per_core = per_core.join(", "),
            comma = if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders mix results as long-format CSV: one row per
/// `(scenario, design, core)`, with the scenario-level consolidation
/// metrics repeated on every row so each row is self-contained.
pub fn to_mix_csv(results: &[crate::MixResult]) -> String {
    let mut out = String::from(
        "scenario,design,capacity_mb,core,core_workload,insts,cycles,l2_misses,\
         ipc,mpki,solo_ipc,speedup,weighted_speedup,fairness\n",
    );
    for r in results {
        let p = &r.point;
        for (core, c) in r.report.per_core.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                csv_escape(&p.scenario.name),
                csv_escape(&p.design.label()),
                p.capacity_mb(),
                core,
                csv_escape(p.scenario.workload_at(core as u8, 0).name()),
                c.insts,
                c.cycles,
                c.l2_misses,
                c.ipc(),
                c.mpki(),
                r.solo_ipc[core],
                r.consolidation.per_core_speedup[core],
                r.consolidation.weighted_speedup,
                r.consolidation.fairness,
            ));
        }
    }
    out
}

/// Renders the consolidation benchmark summary for a finished mix
/// grid: per `(scenario, design)`, the weighted speedup, fairness,
/// pod throughput and simulation cost, plus each design's geomean
/// weighted speedup across scenarios. CI emits this as
/// `BENCH_mix.json` next to `BENCH_designspace.json` and
/// `BENCH_bandwidth.json`.
pub fn to_mix_bench_json(results: &[crate::MixResult], wall_secs: f64) -> String {
    let mut rows = String::new();
    for (i, r) in results.iter().enumerate() {
        rows.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"design\": \"{}\", \
             \"weighted_speedup\": {}, \"fairness\": {}, \"throughput\": {}, \
             \"sim_secs\": {}, \"memoized\": {}}}{}\n",
            json_escape(&r.point.scenario.name),
            json_escape(&r.point.design.label()),
            json_num(r.consolidation.weighted_speedup),
            json_num(r.consolidation.fairness),
            json_num(r.report.throughput()),
            json_num(r.sim_secs),
            r.memoized,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }

    // Per-design geomean weighted speedup across scenarios.
    let mut order: Vec<String> = Vec::new();
    for r in results {
        let label = r.point.design.label();
        if !order.contains(&label) {
            order.push(label);
        }
    }
    let mut designs = String::new();
    for (i, label) in order.iter().enumerate() {
        let speedups: Vec<f64> = results
            .iter()
            .filter(|r| r.point.design.label() == *label)
            .map(|r| r.consolidation.weighted_speedup)
            .collect();
        designs.push_str(&format!(
            "    {{\"design\": \"{}\", \"scenarios\": {}, \
             \"geomean_weighted_speedup\": {}}}{}\n",
            json_escape(label),
            speedups.len(),
            json_num(fc_types::geomean(&speedups)),
            if i + 1 == order.len() { "" } else { "," },
        ));
    }

    format!(
        "{{\n  \"grid\": \"mix\",\n  \"total_points\": {},\n  \"wall_secs\": {},\n  \
         \"points\": [\n{}  ],\n  \"designs\": [\n{}  ]\n}}\n",
        results.len(),
        json_num(wall_secs),
        rows,
        designs,
    )
}

/// Renders an [`Estimate`](crate::Estimate) as a JSON object.
fn estimate_json(e: &crate::Estimate) -> String {
    format!(
        "{{\"mean\": {}, \"stddev\": {}, \"ci_half\": {}, \"n\": {}}}",
        json_num(e.mean),
        json_num(e.stddev),
        json_num(e.ci_half),
        e.n
    )
}

/// Renders sampled results as a JSON array: one object per point with
/// the plan, the per-metric estimates (mean, stddev, 95% CI
/// half-width, interval count), and the measured/replayed fractions.
pub fn to_sampled_json(results: &[crate::SampledResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let p = &r.point.point;
        let rep = &r.report;
        let plan = &rep.plan;
        out.push_str(&format!(
            "  {{\"workload\": \"{workload}\", \"design\": \"{design}\", \
             \"capacity_mb\": {mb}, \"seed\": {seed}, \
             \"warmup_records\": {warmup}, \"measured_records_total\": {measured}, \
             \"key\": \"{key:016x}\", \
             \"plan\": {{\"period\": {period}, \"functional_warmup\": {func}, \
             \"detail_warmup\": {dw}, \"interval\": {interval}, \
             \"warmup_window\": {window}, \"strata\": {strata}}}, \
             \"intervals\": {n}, \"measured_records\": {meas}, \
             \"replayed_records\": {replayed}, \"detailed_records\": {detailed}, \
             \"measured_fraction\": {mfrac}, \"replayed_fraction\": {rfrac}, \
             \"insts\": {insts}, \"cycles\": {cycles}, \
             \"ipc\": {ipc}, \"mpki\": {mpki}, \"hit_ratio\": {hit}, \
             \"offchip_bytes_per_inst\": {obpi}}}{comma}\n",
            workload = json_escape(&p.workload.to_string()),
            design = json_escape(&p.design.label()),
            mb = p.capacity_mb(),
            seed = p.seed(),
            warmup = p.warmup(),
            measured = p.measured(),
            key = r.point.key().hash64(),
            period = plan.period,
            func = plan.functional_warmup,
            dw = plan.detail_warmup,
            interval = plan.interval,
            // u64::MAX means "replay the whole warmup"; the sentinel
            // exceeds double precision, so standard JSON readers would
            // silently corrupt it — emit null instead.
            window = if plan.warmup_window == u64::MAX {
                "null".to_string()
            } else {
                plan.warmup_window.to_string()
            },
            strata = plan.strata,
            n = rep.intervals.len(),
            meas = rep.measured_records,
            replayed = rep.replayed_records,
            detailed = rep.detailed_records,
            mfrac = json_num(rep.measured_fraction()),
            rfrac = json_num(rep.replayed_fraction()),
            insts = rep.insts,
            cycles = rep.cycles,
            ipc = estimate_json(&rep.ipc),
            mpki = estimate_json(&rep.mpki),
            hit = estimate_json(&rep.hit_ratio),
            obpi = estimate_json(&rep.offchip_bytes_per_inst),
            comma = if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders sampled results as CSV with a header row (point estimates
/// and CI half-widths per metric, plus the work fractions).
pub fn to_sampled_csv(results: &[crate::SampledResult]) -> String {
    let mut out = String::from(
        "workload,design,capacity_mb,seed,intervals,period,interval_records,\
         measured_fraction,replayed_fraction,\
         ipc,ipc_ci,mpki,mpki_ci,hit_ratio,hit_ratio_ci,\
         offchip_bytes_per_inst,offchip_bytes_per_inst_ci\n",
    );
    for r in results {
        let p = &r.point.point;
        let rep = &r.report;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            csv_escape(&p.workload.to_string()),
            csv_escape(&p.design.label()),
            p.capacity_mb(),
            p.seed(),
            rep.intervals.len(),
            rep.plan.period,
            rep.plan.interval,
            rep.measured_fraction(),
            rep.replayed_fraction(),
            rep.ipc.mean,
            rep.ipc.ci_half,
            rep.mpki.mean,
            rep.mpki.ci_half,
            rep.hit_ratio.mean,
            rep.hit_ratio.ci_half,
            rep.offchip_bytes_per_inst.mean,
            rep.offchip_bytes_per_inst.ci_half,
        ));
    }
    out
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
    sampled: &[crate::SampledResult],
    full: &[SweepResult],
    sampled_wall_secs: f64,
    full_wall_secs: f64,
) -> String {
    assert_eq!(
        sampled.len(),
        full.len(),
        "sampled and full result sets must cover the same spec"
    );
    let mut rows = String::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut worst_err: f64 = 0.0;
    let mut covered = 0usize;
    let mut full_secs_total = 0.0;
    let mut sampled_secs_total = 0.0;
    for (i, (s, f)) in sampled.iter().zip(full).enumerate() {
        assert_eq!(s.point.point, f.point, "point order mismatch");
        let full_ipc = f.report.throughput();
        let est = &s.report.ipc;
        let rel_err = if full_ipc != 0.0 {
            (est.mean - full_ipc) / full_ipc
        } else {
            0.0
        };
        let within_ci = est.contains(full_ipc);
        let speedup = if s.sim_secs > 0.0 {
            f.sim_secs / s.sim_secs
        } else {
            0.0
        };
        if speedup > 0.0 {
            speedups.push(speedup);
        }
        worst_err = worst_err.max(rel_err.abs());
        covered += usize::from(within_ci);
        full_secs_total += f.sim_secs;
        sampled_secs_total += s.sim_secs;
        rows.push_str(&format!(
            "    {{\"workload\": \"{}\", \"design\": \"{}\", \
             \"full_ipc\": {}, \"sampled_ipc\": {}, \"ipc_ci_half\": {}, \
             \"rel_err\": {}, \"within_ci\": {}, \
             \"full_hit_ratio\": {}, \"sampled_hit_ratio\": {}, \
             \"full_secs\": {}, \"sampled_secs\": {}, \"speedup\": {}, \
             \"exhaustive\": {}, \"measured_fraction\": {}, \"replayed_fraction\": {}}}{}\n",
            json_escape(&f.point.workload.to_string()),
            json_escape(&f.point.design.label()),
            json_num(full_ipc),
            json_num(est.mean),
            json_num(est.ci_half),
            json_num(rel_err),
            within_ci,
            json_num(f.report.cache.hit_ratio()),
            json_num(s.report.hit_ratio.mean),
            json_num(f.sim_secs),
            json_num(s.sim_secs),
            json_num(speedup),
            s.report.plan.skip() == 0,
            json_num(s.report.measured_fraction()),
            json_num(s.report.replayed_fraction()),
            if i + 1 == sampled.len() { "" } else { "," },
        ));
    }
    let geomean = if speedups.is_empty() {
        0.0
    } else {
        fc_types::geomean(&speedups)
    };
    let total_speedup = if sampled_secs_total > 0.0 {
        full_secs_total / sampled_secs_total
    } else {
        0.0
    };
    format!(
        "{{\n  \"grid\": \"sampled\",\n  \"points\": {},\n  \
         \"full_wall_secs\": {},\n  \"sampled_wall_secs\": {},\n  \
         \"full_sim_secs\": {},\n  \"sampled_sim_secs\": {},\n  \
         \"total_speedup\": {},\n  \"geomean_speedup\": {},\n  \
         \"max_abs_rel_err\": {},\n  \"within_ci\": {},\n  \"rows\": [\n{}  ]\n}}\n",
        sampled.len(),
        json_num(full_wall_secs),
        json_num(sampled_wall_secs),
        json_num(full_secs_total),
        json_num(sampled_secs_total),
        json_num(total_speedup),
        json_num(geomean),
        json_num(worst_err),
        covered,
        rows,
    )
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

    #[test]
    fn csv_quotes_fields_with_commas() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
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
        let json = to_loaded_json(&results, "web search");
        assert_eq!(json.matches("\"design\"").count(), 4);
        assert!(json.contains("\"injected_gbs\""));
        assert!(json.contains("\"stacked_queue_hist\""));
        assert!(json.contains("\"workload\": \"web search\""));
        let csv = to_loaded_csv(&results, "web search");
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

        let json = to_mix_json(&results);
        assert_eq!(json.matches("\"scenario\"").count(), 2);
        assert_eq!(json.matches("\"core_workload\"").count(), 8);
        assert!(json.contains("\"weighted_speedup\""));
        assert!(json.contains("\"fairness\""));
        assert!(json.contains("\"core_workload\": \"Data Serving\""));
        assert!(json.contains("\"core_workload\": \"MapReduce\""));

        let csv = to_mix_csv(&results);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 2 * 4, "header + one row per core");
        assert!(lines[0].starts_with("scenario,design,"));
        assert!(lines[0].contains("solo_ipc"));
        assert!(lines[1].contains("Data Serving+MapReduce"));

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

        let csv = to_sampled_csv(&sampled);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("ipc_ci"));
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
