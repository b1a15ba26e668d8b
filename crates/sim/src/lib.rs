//! Trace-driven simulator of one scale-out pod (Table 3): 16 cores, a
//! shared 4 MB L2, a die-stacked DRAM cache design, and the off-chip
//! DDR3-1600 channel.
//!
//! The simulation methodology follows the paper's trace-driven analyses
//! (Section 5.4): memory traces with fixed IPC 1.0 drive the hierarchy;
//! cores model limited memory-level parallelism with an outstanding-miss
//! window and a ROB lookahead (lean 3-way OoO cores cannot hide DRAM
//! misses, but adjacent independent misses overlap). Performance is the
//! paper's throughput metric — aggregate committed instructions divided
//! by total cycles.
//!
//! The flow per trace record: the record (already L1-filtered by the
//! trace model) probes the shared L2; an L2 miss becomes a demand access
//! to the DRAM cache design, which produces an
//! [`AccessPlan`](fc_cache::AccessPlan); the [`MemorySystem`] executes
//! the plan against the stacked and off-chip
//! [`DramSystem`](fc_dram::DramSystem)s, yielding the request latency
//! and all traffic/energy accounting. L2 dirty victims become writebacks, which
//! dirty DRAM-cache blocks or go straight off-chip.
//!
//! Designs are *data*: a [`DesignSpec`] (cache model + stacked and
//! off-chip DRAM specs + row policy) describes a memory system, the
//! [`registry`] resolves design names to specs, and
//! [`Simulation::new`] builds the pod from a spec. Specs serialize to
//! JSON and hash stably, which is what `fc_sweep` keys its memoized
//! result store on.
//!
//! # Examples
//!
//! ```no_run
//! use fc_sim::{DesignSpec, SimConfig, Simulation};
//! use fc_trace::WorkloadKind;
//!
//! let report = Simulation::new(SimConfig::default(), DesignSpec::footprint(256))
//!     .run_workload(WorkloadKind::WebSearch, 42, 200_000, 400_000);
//! println!("miss ratio {:.1}%", report.cache.miss_ratio() * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod config;
mod design;
mod engine;
mod l2filter;
pub mod loaded;
mod memsys;
pub mod registry;
mod report;

// The JSON layer moved down to `fc_types` so `fc_trace` scenario specs
// can round-trip through the same parser; re-exported here so
// `fc_sim::json` keeps working for existing callers.
pub use fc_types::json;

pub use config::SimConfig;
pub use design::{CacheSpec, DesignSpec, DramPreset, DramSpec};
pub use engine::{Checkpoint, Simulation, DETAILED_TAIL};
pub use l2filter::L2Outcomes;
pub use memsys::{MemorySystem, MemsysTimeline};
pub use registry::{design_family, resolve_designs, DesignFamily, DESIGN_FAMILIES};
pub use report::{
    consolidation, ConsolidationReport, CorePerf, EnergyReport, ReportSnapshot, SimReport,
};

// The stat types embedded in `SimReport`, re-exported so downstream
// crates (the sweep layer's durable store) can rebuild reports from
// persisted form without depending on fc-cache directly.
pub use fc_cache::{DensityHistogram, DramCacheStats, PredictionCounters};

// Scenario mixes are described in `fc_trace` (they are workload data);
// re-exported here because the registry/JSON layer is where sweep
// callers look for spec types.
pub use fc_trace::{
    resolve_scenarios, scenario_family, PhaseSchedule, ScenarioFamily, ScenarioSpec,
    SCENARIO_FAMILIES,
};
