//! **Footprint Cache** — a die-stacked DRAM cache for servers that gets
//! hit ratio, latency *and* bandwidth (Jevdjic, Volos, Falsafi; ISCA
//! 2013).
//!
//! Footprint Cache allocates data at page granularity (1–4 KB) — giving
//! the small, fast SRAM tag array and high hit ratio of page-based
//! designs — but *fetches* only the 64-byte blocks predicted to be touched
//! during the page's residency: the page's **footprint**. That eliminates
//! the off-chip traffic blow-up of page-based caches while keeping their
//! hits.
//!
//! The three mechanisms, each its own module:
//!
//! * [`Fht`] — the **Footprint History Table** (Section 4.2): a small
//!   set-associative SRAM structure mapping a *PC & offset* key (the
//!   program counter that triggered a page miss, plus the missing block's
//!   offset within the page) to the footprint observed the last time a
//!   page was evicted under that key. Code that touches data structures
//!   the same way keeps touching them the same way — the spatial
//!   correlation insight the predictor inherits from spatial memory
//!   streaming \[34\].
//! * [`SingletonTable`] — the capacity optimization (Sections 3.2/4.4):
//!   pages predicted to contain a single useful block and show no reuse
//!   are *not allocated at all*; their block bypasses the cache. A small
//!   table remembers such decisions so a second access can promote the
//!   page and correct the prediction.
//! * [`FootprintCache`] — the cache proper (Section 4): a page tag array
//!   whose per-block (dirty, valid) encoding (Table 2) distinguishes
//!   demanded from merely-prefetched blocks with zero extra storage, so
//!   evictions can send exact footprint feedback to the FHT.
//!
//! # Quick start
//!
//! ```
//! use footprint_cache::{FootprintCache, FootprintCacheConfig};
//! use fc_cache::DramCacheModel;
//! use fc_types::{MemAccess, PhysAddr, Pc};
//!
//! let mut cache = FootprintCache::new(FootprintCacheConfig::new(256 << 20));
//!
//! // A page miss fetches only the predicted footprint (no history yet:
//! // just the demanded block).
//! let pc = Pc::new(0x400);
//! let miss = cache.access(MemAccess::read(pc, PhysAddr::new(0x10_0000), 0));
//! assert!(!miss.hit);
//! assert_eq!(miss.offchip_read_blocks(), 1);
//!
//! // The demanded block now hits in the stacked DRAM.
//! let hit = cache.access(MemAccess::read(pc, PhysAddr::new(0x10_0000), 0));
//! assert!(hit.hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod fht;
mod singleton;

pub use cache::FootprintCache;
pub use config::{FootprintCacheConfig, KeyKind};
pub use fht::Fht;
pub use singleton::{SingletonEntry, SingletonTable};

/// SplitMix64 finalizer used to spread prediction keys across table sets.
#[inline]
pub(crate) fn pattern_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}
