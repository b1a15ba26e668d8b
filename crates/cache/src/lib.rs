//! SRAM cache hierarchy and baseline die-stacked DRAM cache designs.
//!
//! This crate provides every cache the paper compares Footprint Cache
//! against, plus the shared machinery they are built from:
//!
//! * [`SetAssoc`] — a generic set-associative container with true-LRU
//!   replacement, used by tag arrays, the L2 model, the MissMap and the
//!   FHT.
//! * [`SramCache`] — the pod's shared L2 (Table 3: 4 MB, 16-way, 64 B
//!   blocks, writeback/write-allocate).
//! * [`CacheDesign`] — the trait every DRAM cache design implements: its
//!   demand and writeback transitions, written once over an [`OpSink`].
//!   A design is purely functional: an access yields the DRAM operations
//!   to perform, split into critical-path ops (which determine the
//!   request's latency) and background ops (fills, evictions, tag
//!   updates — bank time and energy only).
//! * [`DramCacheModel`] — the object-safe face the simulator drives,
//!   boxed as [`BoxedModel`]; one blanket impl gives it to every
//!   [`CacheDesign`]. Detailed replay gets an [`AccessPlan`], which the
//!   simulator executes against the stacked and off-chip DRAM timing
//!   models; functional warm-up only counts blocks ([`BlockCounts`]).
//! * The baseline designs themselves:
//!   [`BlockBasedCache`] (Loh & Hill \[24\]: tags-in-DRAM, compound access
//!   scheduling, [`MissMap`]), [`PageBasedCache`], [`SubBlockCache`]
//!   (sectored; the "no overprediction" extreme of Section 3.1),
//!   [`HotPageCache`] (CHOP-style filter cache of Section 6.7 \[13\]),
//!   [`IdealCache`] (never misses — die-stacked main memory), and
//!   [`NoCache`] (the baseline system without a DRAM cache).
//! * Related-work contenders beyond the paper's own baselines (see
//!   PAPERS.md): [`AlloyCache`] (direct-mapped tags-in-DRAM TAD units),
//!   [`BansheeCache`] (frequency-based, bandwidth-aware page
//!   replacement), and [`GeminiCache`] (hybrid direct/set-associative
//!   mapping with hot-page promotion).
//!
//! # Examples
//!
//! ```
//! use fc_cache::{DramCacheModel, PageBasedCache};
//! use fc_types::{MemAccess, PageGeometry, PhysAddr, Pc};
//!
//! let mut cache = PageBasedCache::new(64 << 20, PageGeometry::new(2048));
//! let plan = cache.access(MemAccess::read(Pc::new(0x400), PhysAddr::new(0x8000), 0));
//! assert!(!plan.hit); // cold miss fetches the whole page
//! assert_eq!(plan.offchip_read_blocks(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloy;
mod arena;
mod banshee;
mod block;
mod design;
mod gemini;
mod hotpage;
mod ideal;
mod metrics;
mod missmap;
mod page;
mod plan;
mod setassoc;
mod sram;
mod subblock;

pub use alloy::AlloyCache;
pub use arena::{PageArena, PageHandle};
pub use banshee::BansheeCache;
pub use block::BlockBasedCache;
pub use design::{
    sram_latency_cycles, BoxedModel, CacheDesign, DensityHistogram, DramCacheModel, DramCacheStats,
    StorageItem,
};
pub use gemini::GeminiCache;
pub use hotpage::HotPageCache;
pub use ideal::{IdealCache, NoCache};
pub use metrics::PredictionCounters;
pub use missmap::MissMap;
pub use page::{PageBasedCache, WritebackGranularity};
pub use plan::{AccessPlan, BlockCounts, MemOp, MemTarget, OpFlavor, OpList, OpSink};
pub use setassoc::{Probe, SetAssoc};
pub use sram::{SramCache, SramOutcome};
pub use subblock::SubBlockCache;
