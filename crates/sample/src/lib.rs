//! `fc-sample` — sampled simulation with functional warmup and
//! statistical error bounds.
//!
//! Every grid point of the sweep layer used to replay its whole trace
//! in detailed timing mode, so sweep cost grew linearly with trace
//! length. This crate implements SMARTS-style systematic interval
//! sampling on top of the pod simulator's two execution modes:
//!
//! * **Functional warmup** ([`Simulation::step_functional`]) — the L2,
//!   the DRAM-cache tags, the MissMap, the footprint predictor and all
//!   replacement state are updated, but no DRAM or queue timing is
//!   simulated. A functional record costs a fraction of a detailed one.
//! * **Detailed intervals** — short windows replayed through the full
//!   timed path ([`Simulation::step`]); each interval's counters are
//!   captured as a [`SimReport`] delta between [`ReportSnapshot`]s.
//!
//! A [`SamplePlan`] drives the run: per sampling period, a *skip*
//! segment (records not replayed at all), a *functional warmup* window
//! that re-warms capacity state, a *detailed warmup* that re-warms
//! queues and MSHRs, and one *measured interval*. The per-interval
//! measurements aggregate into a [`SampledReport`]: point estimates
//! for IPC, MPKI, hit ratio and off-chip bandwidth with Student-t
//! confidence intervals, plus the measured/replayed record fractions
//! that quantify the speedup.
//!
//! # Examples
//!
//! ```
//! use fc_sample::{run_sampled, SamplePlan};
//! use fc_sim::{DesignSpec, SimConfig, Simulation};
//! use fc_trace::{TraceGenerator, WorkloadKind};
//!
//! let records: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 4, 42)
//!     .take(12_000)
//!     .collect();
//! let mut sim = Simulation::new(SimConfig::small(), DesignSpec::footprint(64));
//! let plan = SamplePlan::exhaustive(2_000, 200, 200);
//! let report = run_sampled(&mut sim, &records, 2_000, 10_000, &plan);
//! assert_eq!(report.intervals.len(), 5);
//! assert!(report.ipc.mean > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimate;
mod pit;
mod plan;
mod report;
mod runner;

pub use estimate::Estimate;
pub use pit::{assemble_report, build_base, run_interval};
pub use plan::SamplePlan;
pub use report::{IntervalSample, SampledReport};
pub use runner::{run_sampled, run_sampled_stream};

// Re-exported so sampling callers can build simulations without extra
// deps (mirrors `fc_sweep`'s re-export discipline).
pub use fc_sim::{Checkpoint, DesignSpec, ReportSnapshot, SimConfig, SimReport, Simulation};
