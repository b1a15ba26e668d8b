//! Ablations: the singleton capacity optimization (Section 6.5), the
//! prediction key (Section 3.1), page-cache writeback granularity, and
//! the sub-blocked extreme.

use fc_sim::{DesignSpec, SimConfig, Simulation};
use fc_trace::WorkloadKind;
use fc_types::mean;
use footprint_cache::KeyKind;

use crate::experiments::{pct, Table};
use crate::Lab;

/// Section 6.3's enhanced baseline: give the no-cache system extra L2
/// capacity equal to the DRAM cache's tag SRAM ("under 2 MB for the
/// 512 MB stacked cache"). The paper reports negligible benefit for
/// scale-out workloads — their working sets dwarf any SRAM.
pub fn ablation_enhanced_baseline() -> String {
    let mut table = Table::new(&["workload", "4 MB L2 IPC", "6 MB L2 IPC", "gain"]);
    for w in [
        WorkloadKind::DataServing,
        WorkloadKind::WebFrontend,
        WorkloadKind::WebSearch,
    ] {
        let run = |l2_bytes: usize| {
            let config = SimConfig {
                l2_bytes,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(config, DesignSpec::baseline());
            sim.run_workload(w, 42 ^ (w as u64) << 8, 1_200_000, 800_000)
                .throughput()
        };
        let normal = run(4 << 20);
        let enhanced = run(6 << 20);
        table.row(vec![
            w.name().into(),
            format!("{normal:.2}"),
            format!("{enhanced:.2}"),
            format!("{:+.1}%", (enhanced / normal - 1.0) * 100.0),
        ]);
    }
    format!(
        "## Section 6.3 — enhanced baseline (extra L2 = tag SRAM budget)\n\n\
         Paper: compensating the baseline with the DRAM cache's SRAM tag\n\
         budget as extra L2 capacity \"provides negligible benefit on\n\
         scale-out workloads\".\n\n{}",
        table.to_markdown()
    )
}

/// Section 6.5: miss-rate impact of the singleton-page optimization.
pub fn ablation_singleton(lab: &mut Lab) -> String {
    let mut designs = Vec::new();
    for mb in [64u64, 256] {
        designs.push(DesignSpec::footprint(mb));
        designs.push(DesignSpec::footprint_no_singleton(mb));
    }
    lab.prefetch(&WorkloadKind::ALL, &designs);

    let mut table = Table::new(&[
        "workload",
        "MB",
        "miss (no ST)",
        "miss (with ST)",
        "reduction",
    ]);
    let mut reductions = Vec::new();
    for w in WorkloadKind::ALL {
        for mb in [64u64, 256] {
            let with = lab.run(w, DesignSpec::footprint(mb)).cache.miss_ratio();
            let without = lab
                .run(w, DesignSpec::footprint_no_singleton(mb))
                .cache
                .miss_ratio();
            let reduction = if without > 0.0 {
                1.0 - with / without
            } else {
                0.0
            };
            reductions.push(reduction);
            table.row(vec![
                w.name().into(),
                format!("{mb}"),
                pct(without),
                pct(with),
                pct(reduction),
            ]);
        }
    }
    format!(
        "## Section 6.5 — singleton-page capacity optimization\n\n\
         Paper: not allocating singleton pages frees capacity for useful\n\
         pages, cutting the miss rate by ~10% on average (most at small\n\
         capacities).\n\n{}\nMean miss-rate reduction: {}\n",
        table.to_markdown(),
        pct(mean(&reductions))
    )
}

/// Prediction-key ablation: PC & offset vs PC-only vs offset-only.
pub fn ablation_key(lab: &mut Lab) -> String {
    let workloads = [
        WorkloadKind::DataServing,
        WorkloadKind::SatSolver,
        WorkloadKind::WebSearch,
    ];
    let keyed_designs = [
        ("PC & offset", KeyKind::PcOffset),
        ("PC only", KeyKind::PcOnly),
        ("offset only", KeyKind::OffsetOnly),
    ]
    .map(|(name, key)| (name, DesignSpec::footprint_with_key(256, key)));
    lab.prefetch(&workloads, &keyed_designs.map(|(_, d)| d));

    let mut table = Table::new(&["workload", "key", "miss ratio", "covered", "overpred"]);
    for w in workloads {
        for (name, design) in keyed_designs {
            let report = lab.run(w, design);
            let p = report.prediction.expect("footprint counters");
            table.row(vec![
                w.name().into(),
                name.into(),
                pct(report.cache.miss_ratio()),
                pct(p.coverage()),
                pct(p.overprediction_rate()),
            ]);
        }
    }
    format!(
        "## Ablation — prediction key (256 MB)\n\n\
         Paper (Section 3.1): PC & offset handles arbitrary structure\n\
         alignment; PC-only confuses differently aligned pages, raising\n\
         over- and underprediction.\n\n{}",
        table.to_markdown()
    )
}

/// Page-cache writeback granularity ablation.
pub fn ablation_writeback(lab: &mut Lab) -> String {
    lab.prefetch(
        &WorkloadKind::ALL,
        &[DesignSpec::page(256), DesignSpec::page_dirty_wb(256)],
    );

    let mut table = Table::new(&[
        "workload",
        "page WB (B/inst)",
        "dirty-block WB (B/inst)",
        "traffic saved",
    ]);
    for w in WorkloadKind::ALL {
        let page = lab.run(w, DesignSpec::page(256));
        let dirty = lab.run(w, DesignSpec::page_dirty_wb(256));
        let a = page.offchip_bytes_per_inst();
        let b = dirty.offchip_bytes_per_inst();
        table.row(vec![
            w.name().into(),
            format!("{a:.3}"),
            format!("{b:.3}"),
            pct(if a > 0.0 { 1.0 - b / a } else { 0.0 }),
        ]);
    }
    format!(
        "## Ablation — page-cache writeback granularity (256 MB)\n\n\
         Whole-page writebacks are a large share of the page-based\n\
         design's traffic; per-block dirty tracking recovers some of it\n\
         but leaves the fetch overfetch untouched.\n\n{}",
        table.to_markdown()
    )
}

/// Sub-blocked cache vs Footprint: the underprediction extreme.
pub fn ablation_subblock(lab: &mut Lab) -> String {
    lab.prefetch(
        &WorkloadKind::ALL,
        &[DesignSpec::subblock(256), DesignSpec::footprint(256)],
    );

    let mut table = Table::new(&[
        "workload",
        "Sub-blocked miss",
        "Footprint miss",
        "Sub-blocked B/inst",
        "Footprint B/inst",
    ]);
    for w in WorkloadKind::ALL {
        let sub = lab.run(w, DesignSpec::subblock(256));
        let fp = lab.run(w, DesignSpec::footprint(256));
        table.row(vec![
            w.name().into(),
            pct(sub.cache.miss_ratio()),
            pct(fp.cache.miss_ratio()),
            format!("{:.3}", sub.offchip_bytes_per_inst()),
            format!("{:.3}", fp.offchip_bytes_per_inst()),
        ]);
    }
    format!(
        "## Ablation — sub-blocked cache vs Footprint (256 MB)\n\n\
         Section 3.1's thought experiment: a sub-blocked cache has zero\n\
         overprediction but misses on *every* first touch of a block;\n\
         Footprint trades a little traffic for far fewer misses.\n\n{}",
        table.to_markdown()
    )
}
