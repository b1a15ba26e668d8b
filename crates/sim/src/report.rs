//! Measurement reports, computed as differences between counter
//! snapshots so warmup does not pollute results (the paper uses half of
//! each trace for warm-up, Section 5.4).

use serde::{Deserialize, Serialize};

use fc_cache::{DramCacheStats, PredictionCounters};
use fc_dram::{DramStats, EnergyBreakdown};
use fc_types::record::{json_document, RecordWriter};

use crate::engine::Simulation;

/// One core's monotone performance counters (also the per-core entry
/// of a [`SimReport`], where it holds interval deltas).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorePerf {
    /// Instructions committed by this core.
    pub insts: u64,
    /// This core's local clock in cycles.
    pub cycles: u64,
    /// Demand L2 accesses issued by this core.
    pub l2_accesses: u64,
    /// Demand L2 misses (DRAM-level accesses) issued by this core.
    pub l2_misses: u64,
}

impl CorePerf {
    /// Instructions per cycle on this core's clock.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// L2 (DRAM-level) misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.insts as f64
        }
    }

    fn delta_since(&self, since: &CorePerf) -> CorePerf {
        CorePerf {
            insts: self.insts - since.insts,
            cycles: self.cycles - since.cycles,
            l2_accesses: self.l2_accesses - since.l2_accesses,
            l2_misses: self.l2_misses - since.l2_misses,
        }
    }
}

/// A point-in-time capture of every monotone counter in the simulation.
#[derive(Clone, Debug)]
pub struct ReportSnapshot {
    insts: u64,
    cycles: u64,
    per_core: Vec<CorePerf>,
    cache: DramCacheStats,
    offchip: DramStats,
    stacked: DramStats,
    prediction: Option<PredictionCounters>,
}

impl ReportSnapshot {
    /// Captures the current counters of `sim`.
    pub fn capture(sim: &Simulation) -> Self {
        Self {
            insts: sim.total_insts(),
            cycles: sim.total_cycles(),
            per_core: sim.per_core(),
            cache: sim.memsys().cache().stats().clone(),
            offchip: sim.memsys().offchip_stats(),
            stacked: sim.memsys().stacked_stats(),
            prediction: sim.memsys().cache().prediction_counters(),
        }
    }

    /// A zero snapshot (measure from the beginning).
    pub fn zero() -> Self {
        Self {
            insts: 0,
            cycles: 0,
            per_core: Vec::new(),
            cache: DramCacheStats::default(),
            offchip: DramStats::default(),
            stacked: DramStats::default(),
            prediction: None,
        }
    }
}

/// Energy split of one DRAM over the measurement interval (Figures
/// 10/11's two stacked components).
pub type EnergyReport = EnergyBreakdown;

/// Everything one simulation run measures.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Instructions committed in the interval (all cores).
    pub insts: u64,
    /// Cycles elapsed in the interval.
    pub cycles: u64,
    /// Per-core interval counters (IPC/MPKI per core), indexed by core
    /// id. Heterogeneous scenario mixes read their consolidation
    /// metrics from these.
    pub per_core: Vec<CorePerf>,
    /// DRAM-cache counters over the interval.
    pub cache: DramCacheStats,
    /// Off-chip DRAM counters.
    pub offchip: DramStats,
    /// Stacked DRAM counters.
    pub stacked: DramStats,
    /// Off-chip dynamic energy.
    pub offchip_energy: EnergyReport,
    /// Stacked dynamic energy.
    pub stacked_energy: EnergyReport,
    /// Predictor counters (Footprint Cache only).
    pub prediction: Option<PredictionCounters>,
}

impl SimReport {
    /// Builds the report for everything that happened since `since`.
    /// Energies come from the window's operation counts, not from
    /// differences of cumulative floats, so they do not depend on how
    /// many operations preceded the window.
    pub fn since(sim: &Simulation, since: &ReportSnapshot) -> Self {
        let now = ReportSnapshot::capture(sim);
        let offchip = diff_dram(&now.offchip, &since.offchip);
        let stacked = diff_dram(&now.stacked, &since.stacked);
        Self {
            insts: now.insts - since.insts,
            cycles: now.cycles - since.cycles,
            per_core: now
                .per_core
                .iter()
                .enumerate()
                .map(|(i, c)| c.delta_since(since.per_core.get(i).unwrap_or(&CorePerf::default())))
                .collect(),
            cache: diff_cache(&now.cache, &since.cache),
            offchip_energy: sim.memsys().offchip_energy(&offchip),
            stacked_energy: sim.memsys().stacked_energy(&stacked),
            offchip,
            stacked,
            prediction: match (now.prediction, since.prediction) {
                (Some(n), Some(s)) => Some(PredictionCounters {
                    covered: n.covered - s.covered,
                    overpredicted: n.overpredicted - s.overpredicted,
                    underpredicted: n.underpredicted - s.underpredicted,
                    singleton_bypasses: n.singleton_bypasses - s.singleton_bypasses,
                    singleton_promotions: n.singleton_promotions - s.singleton_promotions,
                }),
                (p, _) => p,
            },
        }
    }

    /// Adds this report's counters into the global `fc_obs` metrics
    /// registry (`sim.*`, `cache.*`, `dram.*`). Purely additive: the
    /// report itself — and thus every golden/bit-equality check over
    /// it — is untouched. Called once per measured interval.
    pub fn publish_metrics(&self) {
        fc_obs::metrics::counter("sim.reports").inc();
        fc_obs::metrics::counter("sim.insts").add(self.insts);
        fc_obs::metrics::counter("sim.cycles").add(self.cycles);
        fc_obs::metrics::counter("cache.accesses").add(self.cache.accesses);
        fc_obs::metrics::counter("cache.hits").add(self.cache.hits);
        fc_obs::metrics::counter("cache.misses").add(self.cache.misses);
        fc_obs::metrics::counter("cache.fill_blocks").add(self.cache.fill_blocks);
        fc_obs::metrics::counter("cache.evictions").add(self.cache.evictions);
        self.offchip.publish_metrics(false);
        self.stacked.publish_metrics(true);
    }

    /// The paper's throughput metric: aggregate committed instructions
    /// over total cycles (Section 5.4).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Off-chip traffic in bytes over the interval (Figure 5b's
    /// numerator).
    pub fn offchip_bytes(&self) -> u64 {
        self.offchip.bytes()
    }

    /// Off-chip bytes per instruction — the bandwidth-demand measure that
    /// normalizes away timing differences between designs.
    pub fn offchip_bytes_per_inst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.offchip.bytes() as f64 / self.insts as f64
        }
    }

    /// Stacked-DRAM bytes per instruction — the die-stacked side of
    /// the same bandwidth-demand measure.
    pub fn stacked_bytes_per_inst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.stacked.bytes() as f64 / self.insts as f64
        }
    }

    /// Off-chip DRAM dynamic energy per instruction in nanojoules
    /// (Figure 10's y-axis before normalization).
    pub fn offchip_energy_per_inst_nj(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.offchip_energy.total_nj() / self.insts as f64
        }
    }

    /// Stacked DRAM dynamic energy per instruction in nanojoules
    /// (Figure 11).
    pub fn stacked_energy_per_inst_nj(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.stacked_energy.total_nj() / self.insts as f64
        }
    }

    /// Serializes every counter as canonical, pretty-printed JSON with
    /// a fixed field order. This is the golden-stats format: the
    /// `tests/golden_stats.rs` harness compares this string against the
    /// committed per-design goldens (regenerate with `UPDATE_GOLDEN=1`).
    pub fn to_canonical_json(&self) -> String {
        fn dram(w: &mut RecordWriter<'_>, name: &'static str, d: &DramStats) {
            w.object(name, |w| {
                w.u64("accesses", d.accesses);
                w.u64("activates", d.activates);
                w.u64("row_hits", d.row_hits);
                w.u64("row_misses", d.row_misses);
                w.u64("read_blocks", d.read_blocks);
                w.u64("write_blocks", d.write_blocks);
                w.u64("compound_accesses", d.compound_accesses);
                w.u64("busy_cycles", d.busy_cycles);
                w.u64("queue_delay_cycles", d.queue_delay_cycles);
                w.u64s("queue_hist", d.queue_hist.bins());
            });
        }
        fn energy(w: &mut RecordWriter<'_>, name: &'static str, e: &EnergyReport) {
            w.object(name, |w| {
                w.f64("act_pre_nj", e.act_pre_nj);
                w.f64("burst_nj", e.burst_nj);
            });
        }
        json_document(|w| {
            w.u64("insts", self.insts);
            w.u64("cycles", self.cycles);
            let c = &self.cache;
            w.object("cache", |w| {
                w.u64("accesses", c.accesses);
                w.u64("hits", c.hits);
                w.u64("misses", c.misses);
                w.u64("bypasses", c.bypasses);
                w.u64("evictions", c.evictions);
                w.u64("dirty_evictions", c.dirty_evictions);
                w.u64("fill_blocks", c.fill_blocks);
                w.u64("offchip_read_blocks", c.offchip_read_blocks);
                w.u64("offchip_write_blocks", c.offchip_write_blocks);
                w.u64("stacked_read_blocks", c.stacked_read_blocks);
                w.u64("stacked_write_blocks", c.stacked_write_blocks);
                w.u64s("density_bins", c.density.bins());
            });
            dram(w, "offchip", &self.offchip);
            dram(w, "stacked", &self.stacked);
            energy(w, "offchip_energy", &self.offchip_energy);
            energy(w, "stacked_energy", &self.stacked_energy);
            self.write_prediction(w);
        })
    }

    /// Writes the footprint-prediction counters as a `prediction`
    /// member: `null` for designs without a predictor.
    pub fn write_prediction(&self, w: &mut RecordWriter<'_>) {
        w.opt_object("prediction", self.prediction.as_ref(), |w, p| {
            w.u64("covered", p.covered);
            w.u64("overpredicted", p.overpredicted);
            w.u64("underpredicted", p.underpredicted);
            w.u64("singleton_bypasses", p.singleton_bypasses);
            w.u64("singleton_promotions", p.singleton_promotions);
        });
    }
}

/// Consolidation metrics of a scenario mix measured against solo-run
/// baselines (the multiprogramming literature's standard pair).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationReport {
    /// Per-core `IPC_mix / IPC_solo` (relative progress under
    /// co-location), indexed by core id.
    pub per_core_speedup: Vec<f64>,
    /// Weighted speedup, normalized by core count: the mean of the
    /// per-core relative IPCs. 1.0 means consolidation is free; below
    /// 1.0 quantifies the co-location penalty.
    pub weighted_speedup: f64,
    /// Jain's fairness index over the per-core relative IPCs, in
    /// `(0, 1]`: 1.0 when every core suffers equally, approaching
    /// `1/n` when one core starves the rest.
    pub fairness: f64,
}

/// Computes consolidation metrics for a mix report. `solo_ipc[i]` is
/// the solo-run IPC baseline for the workload core `i` runs in the mix
/// (from a homogeneous run of that workload on the same design).
///
/// # Panics
///
/// Panics if `solo_ipc` and the report's per-core vector disagree in
/// length.
pub fn consolidation(mix: &SimReport, solo_ipc: &[f64]) -> ConsolidationReport {
    assert_eq!(
        mix.per_core.len(),
        solo_ipc.len(),
        "solo baselines must cover every core"
    );
    let per_core_speedup: Vec<f64> = mix
        .per_core
        .iter()
        .zip(solo_ipc)
        .map(|(core, &solo)| if solo > 0.0 { core.ipc() / solo } else { 0.0 })
        .collect();
    let n = per_core_speedup.len() as f64;
    let sum: f64 = per_core_speedup.iter().sum();
    let sum_sq: f64 = per_core_speedup.iter().map(|x| x * x).sum();
    ConsolidationReport {
        weighted_speedup: if n > 0.0 { sum / n } else { 0.0 },
        fairness: if sum_sq > 0.0 {
            (sum * sum) / (n * sum_sq)
        } else {
            0.0
        },
        per_core_speedup,
    }
}

fn diff_cache(now: &DramCacheStats, since: &DramCacheStats) -> DramCacheStats {
    DramCacheStats {
        accesses: now.accesses - since.accesses,
        hits: now.hits - since.hits,
        misses: now.misses - since.misses,
        bypasses: now.bypasses - since.bypasses,
        evictions: now.evictions - since.evictions,
        dirty_evictions: now.dirty_evictions - since.dirty_evictions,
        fill_blocks: now.fill_blocks - since.fill_blocks,
        offchip_read_blocks: now.offchip_read_blocks - since.offchip_read_blocks,
        offchip_write_blocks: now.offchip_write_blocks - since.offchip_write_blocks,
        stacked_read_blocks: now.stacked_read_blocks - since.stacked_read_blocks,
        stacked_write_blocks: now.stacked_write_blocks - since.stacked_write_blocks,
        density: diff_density(now, since),
    }
}

fn diff_density(now: &DramCacheStats, since: &DramCacheStats) -> fc_cache::DensityHistogram {
    let mut h = fc_cache::DensityHistogram::default();
    let (n, s) = (now.density.bins(), since.density.bins());
    // Record representative densities per bin delta.
    let representative = [1usize, 2, 4, 8, 16, 32];
    for i in 0..6 {
        for _ in 0..(n[i] - s[i]) {
            h.record(representative[i]);
        }
    }
    h
}

fn diff_dram(now: &DramStats, since: &DramStats) -> DramStats {
    now.delta_since(since)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_report_totals() {
        let e = EnergyReport {
            act_pre_nj: 3.0,
            burst_nj: 4.0,
        };
        assert_eq!(e.total_nj(), 7.0);
    }

    #[test]
    fn core_perf_rates() {
        let c = CorePerf {
            insts: 2000,
            cycles: 4000,
            l2_accesses: 40,
            l2_misses: 10,
        };
        assert_eq!(c.ipc(), 0.5);
        assert_eq!(c.mpki(), 5.0);
        assert_eq!(CorePerf::default().ipc(), 0.0);
        assert_eq!(CorePerf::default().mpki(), 0.0);
    }

    #[test]
    fn consolidation_metrics() {
        let mut mix = SimReport {
            insts: 0,
            cycles: 0,
            per_core: vec![
                CorePerf {
                    insts: 1000,
                    cycles: 2000, // IPC 0.5 vs solo 1.0 -> speedup 0.5
                    ..Default::default()
                },
                CorePerf {
                    insts: 1000,
                    cycles: 1000, // IPC 1.0 vs solo 1.0 -> speedup 1.0
                    ..Default::default()
                },
            ],
            cache: Default::default(),
            offchip: Default::default(),
            stacked: Default::default(),
            offchip_energy: Default::default(),
            stacked_energy: Default::default(),
            prediction: None,
        };
        let report = consolidation(&mix, &[1.0, 1.0]);
        assert_eq!(report.per_core_speedup, vec![0.5, 1.0]);
        assert!((report.weighted_speedup - 0.75).abs() < 1e-12);
        // Jain: (1.5)^2 / (2 * 1.25) = 0.9
        assert!((report.fairness - 0.9).abs() < 1e-12);

        // Equal slowdowns are perfectly fair.
        mix.per_core[1].cycles = 2000;
        let equal = consolidation(&mix, &[1.0, 1.0]);
        assert!((equal.fairness - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "every core")]
    fn consolidation_requires_full_baselines() {
        let mix = SimReport {
            insts: 0,
            cycles: 0,
            per_core: vec![CorePerf::default(); 2],
            cache: Default::default(),
            offchip: Default::default(),
            stacked: Default::default(),
            offchip_energy: Default::default(),
            stacked_energy: Default::default(),
            prediction: None,
        };
        consolidation(&mix, &[1.0]);
    }

    #[test]
    fn throughput_guards_zero_cycles() {
        let r = SimReport {
            insts: 0,
            cycles: 0,
            per_core: Vec::new(),
            cache: Default::default(),
            offchip: Default::default(),
            stacked: Default::default(),
            offchip_energy: Default::default(),
            stacked_energy: Default::default(),
            prediction: None,
        };
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.offchip_bytes_per_inst(), 0.0);
    }
}
