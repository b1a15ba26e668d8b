//! `fc-sweep` — a declarative, parallel experiment-orchestration engine.
//!
//! The paper's evaluation (Figures 1, 4–9, 12, the ablations and the
//! energy tables) is one large grid of *independent* (design × workload
//! × scale) simulations. This crate turns that observation into the
//! reproduction's scaling substrate:
//!
//! * [`SweepSpec`] — a declarative description of a grid of sweep
//!   points: cross products of [`DesignSpec`]s and [`WorkloadKind`]s at
//!   a [`RunScale`], with per-point [`SimConfig`] overrides.
//! * [`SweepEngine`] — a self-balancing parallel executor: worker
//!   threads claim points from a shared cursor and run each as an independent
//!   [`Simulation`](fc_sim::Simulation). Every point's seed is a pure
//!   function of the point itself, so results are **bit-identical
//!   regardless of thread count or completion order**. Detailed,
//!   mix, loaded and sampled grids all run on one worker pool.
//! * [`ResultStore`] — a sharded, concurrent, memoized result store
//!   keyed by a stable hash of the full point configuration; a point is
//!   simulated at most once per engine, and repeated submissions return
//!   the cached [`SimReport`](fc_sim::SimReport).
//! * [`TraceCache`] — synthesized traces are shared per (workload,
//!   cores, seed): every design replaying the same workload replays the
//!   *same* record stream without re-synthesizing it.
//! * [`durable`] — an on-disk backend for the result store: records
//!   are placed on a consistent-hash ring of shard files
//!   ([`HashRing`]), so results outlive the process and growing the
//!   shard count relocates only ~K/n keys.
//! * [`serve`] — `fc_sweep serve`: a long-running loop that accepts
//!   grid requests as JSONL (stdin or a spool directory), diffs them
//!   against the durable store, and simulates only what's missing.
//! * [`monitor`] / [`status`] — service-grade observability for the
//!   serve loop: Prometheus-style exposition and a `health.json`
//!   heartbeat under `--metrics-dir`, a throughput watchdog against
//!   `bench_floor.json`, slow-request trace capture, and the
//!   `fc_sweep status` one-screen renderer.
//! * [`emit`] — JSON and CSV emitters for result sets, plus the
//!   `fc_sweep` CLI binary that runs grids from the command line.
//!
//! `fc-bench`'s `Lab` and every `experiments::fig*` module build their
//! grids as `SweepSpec`s and submit them here; future scaling work
//! (sharding, multi-backend dispatch, trace services) plugs into the
//! same interfaces.
//!
//! # Examples
//!
//! ```
//! use fc_sim::DesignSpec;
//! use fc_sweep::{RunScale, SweepEngine, SweepSpec};
//! use fc_trace::WorkloadKind;
//!
//! let spec = SweepSpec::new(RunScale::tiny()).grid(
//!     &[WorkloadKind::WebSearch],
//!     &[DesignSpec::baseline(), DesignSpec::footprint(64)],
//! );
//! let engine = SweepEngine::new().with_threads(2).quiet();
//! let results = engine.run_spec(&spec);
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.report.insts > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod emit;
mod executor;
pub mod loaded;
pub mod mix;
pub mod monitor;
mod pool;
mod progress;
mod ring;
pub mod sampled;
mod scale;
pub mod serve;
mod spec;
pub mod status;
mod store;
mod trace_cache;

pub use durable::{Durable, StoreValue, DEFAULT_DISK_SHARDS};
pub use executor::{SweepEngine, SweepResult};
pub use loaded::{run_loaded, LoadedGrid, LoadedResult};
pub use mix::{run_mix, MixGrid, MixPoint, MixResult};
pub use monitor::{spawn_watcher, MonitorWatcher, ServiceMonitor};
pub use progress::{Progress, ProgressSink};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use sampled::{run_sampled_grid, SampledGrid, SampledPoint, SampledResult};
pub use scale::RunScale;
pub use serve::{
    serve_jsonl, serve_jsonl_observed, serve_spool, serve_spool_observed, ServeOptions,
};
pub use spec::{parse_workload, preset_families, SweepPoint, SweepSpec};
pub use store::{PointKey, ResultStore};
pub use trace_cache::TraceCache;

// Re-exported so sweep callers can describe grids without extra deps.
pub use fc_sample::{Estimate, SamplePlan, SampledReport};
pub use fc_sim::{DesignSpec, ScenarioSpec, SimConfig};
pub use fc_trace::WorkloadKind;
