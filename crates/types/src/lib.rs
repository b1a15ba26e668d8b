//! Common types shared by every crate in the Footprint Cache reproduction.
//!
//! This crate defines the vocabulary of the simulated memory system:
//!
//! * [`PhysAddr`], [`BlockAddr`], [`PageAddr`] and [`Pc`] — newtypes that keep
//!   byte addresses, 64-byte block numbers, page numbers and program counters
//!   from being confused with one another (they are all `u64` underneath).
//! * [`PageGeometry`] — the page-size/block-size arithmetic used throughout
//!   the paper (2 KB pages of 64-byte blocks by default).
//! * [`Footprint`] — a bit vector over the blocks of one page; the set of
//!   blocks touched during a page's on-chip residency is the page's
//!   *footprint* (Section 3 of the paper).
//! * [`BlockStateVec`] — the paper's Table 2 per-block state encoding built
//!   from a *dirty* and a *valid* bit vector, where
//!   `present = d | v`, `demanded = d`, `dirty = d & v`.
//! * [`MemAccess`] / [`AccessKind`] — one core-issued memory reference.
//!
//! # Examples
//!
//! ```
//! use fc_types::{PageGeometry, PhysAddr, Footprint};
//!
//! let geom = PageGeometry::new(2048); // 2 KB pages, 64 B blocks
//! let addr = PhysAddr::new(0x1_2345_6780);
//! let page = geom.page_of(addr);
//! let offset = geom.block_offset(addr);
//! assert!(offset < geom.blocks_per_page());
//!
//! let mut fp = Footprint::empty();
//! fp.insert(offset);
//! assert_eq!(fp.len(), 1);
//! assert!(fp.contains(offset));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod addr;
mod blockstate;
mod clock;
mod fnv;
mod footprint;
mod geometry;
pub mod json;
pub mod record;
mod util;

pub use access::{AccessKind, CoreId, MemAccess};
pub use addr::{BlockAddr, PageAddr, Pc, PhysAddr};
pub use blockstate::{BlockState, BlockStateVec};
pub use clock::{Clock, ManualClock, WallClock};
pub use fnv::{fnv1a, mix64, FnvBuildHasher, FnvHasher, FNV_OFFSET, FNV_PRIME};
pub use footprint::Footprint;
pub use geometry::PageGeometry;
pub use util::{atomic_write, geomean, mean, percentile};

/// Size in bytes of a cache block (cache line). The paper uses 64-byte blocks
/// everywhere ("conventional blocks (e.g., 64B)").
pub const BLOCK_SIZE: usize = 64;

/// log2 of [`BLOCK_SIZE`]: shift that converts a byte address to a block
/// address.
pub const BLOCK_SHIFT: u32 = 6;
