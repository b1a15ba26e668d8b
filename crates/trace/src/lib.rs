//! Memory-access traces and synthetic scale-out workloads.
//!
//! The paper's trace-based analyses replay memory traces captured from
//! CloudSuite 1.0 and SPEC INT2006 workloads with in-order execution and a
//! fixed IPC of 1.0 (Section 5.4). Those traces are not redistributable, so
//! this crate provides two substitutes that together preserve the paper's
//! methodology:
//!
//! * a compact binary **trace format** ([`TraceRecord`], [`TraceWriter`],
//!   [`TraceReader`]) so externally captured traces can be replayed,
//! * **synthetic workload generators** ([`TraceGenerator`],
//!   [`WorkloadKind`]) that reproduce, per workload, the statistical
//!   properties the paper's mechanisms depend on: PC-correlated spatial
//!   footprints, page-density distributions that grow with residency
//!   (Figure 4), singleton-page populations, dataset sizes far beyond the
//!   largest cache, and the per-workload quirks the paper calls out
//!   (MapReduce's low density at small caches, SAT Solver's phase drift,
//!   the multiprogrammed mix's bimodal behavior), and
//! * **scenario mixes** ([`ScenarioSpec`], [`ScenarioGenerator`]) that
//!   assign a (possibly different) workload to each core — the
//!   consolidated-server regime the simulator's per-core accounting and
//!   `fc_sweep --grid mix` measure.
//!
//! # Examples
//!
//! ```
//! use fc_trace::{TraceGenerator, WorkloadKind};
//!
//! let mut generator = TraceGenerator::new(WorkloadKind::DataServing, 16, 42);
//! let record = generator.next().unwrap();
//! assert!(record.inst_gap >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod io;
mod record;
pub mod scenario;
pub mod synth;

pub use io::{TraceIoError, TraceReader, TraceWriter};
pub use record::{records_digest, TraceRecord};
pub use scenario::{
    resolve_scenarios, scenario_family, PhaseSchedule, ScenarioFamily, ScenarioGenerator,
    ScenarioSpec, SCENARIO_FAMILIES,
};
pub use synth::{ClassSpec, PatternFamily, TraceGenerator, WorkloadKind, WorkloadSpec};
