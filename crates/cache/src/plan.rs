//! Access plans: the functional interface between cache designs and the
//! DRAM timing models.
//!
//! A design decides *what* DRAM work an access implies; the simulator's
//! plan executor decides *when* it happens by running the ops against the
//! stacked and off-chip [`DramSystem`](../fc_dram/struct.DramSystem.html)s.
//! Critical ops are serialized and determine the request's latency;
//! background ops (fills, evictions, tag updates) start concurrently and
//! only consume bank time, bus time and energy — exactly the paper's
//! treatment of off-critical-path traffic.
//!
//! A design emits that work through an [`OpSink`]: the same transition
//! body either records an [`AccessPlan`] or only counts its blocks
//! ([`BlockCounts`], for functional warm-up).

use serde::{Deserialize, Serialize};

use fc_types::{AccessKind, PhysAddr};

use crate::design::DramCacheStats;

/// Which DRAM a [`MemOp`] targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemTarget {
    /// The die-stacked DRAM (cache array).
    Stacked,
    /// The off-chip DRAM (main memory).
    OffChip,
}

/// How the op is scheduled at the DRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpFlavor {
    /// Ordinary ACT/CAS access.
    Simple,
    /// Loh & Hill compound access: tag-read CAS before the data CAS and a
    /// tag-update burst after it (tags-in-DRAM block caches).
    CompoundTags,
}

/// One DRAM operation: `blocks` consecutive 64-byte blocks starting at
/// `addr` (all within one DRAM row for row-interleaved mappings when
/// `blocks` ≤ blocks-per-row; the executor splits larger transfers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemOp {
    /// Target DRAM.
    pub target: MemTarget,
    /// Base byte address of the transfer.
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Number of consecutive 64-byte blocks.
    pub blocks: u32,
    /// Scheduling flavor.
    pub flavor: OpFlavor,
}

impl MemOp {
    /// A simple read.
    pub fn read(target: MemTarget, addr: PhysAddr, blocks: u32) -> Self {
        Self {
            target,
            addr,
            kind: AccessKind::Read,
            blocks,
            flavor: OpFlavor::Simple,
        }
    }

    /// A simple write.
    pub fn write(target: MemTarget, addr: PhysAddr, blocks: u32) -> Self {
        Self {
            target,
            addr,
            kind: AccessKind::Write,
            blocks,
            flavor: OpFlavor::Simple,
        }
    }

    /// A compound tags-in-DRAM access (block-based design).
    pub fn compound(target: MemTarget, addr: PhysAddr, kind: AccessKind) -> Self {
        Self {
            target,
            addr,
            kind,
            blocks: 1,
            flavor: OpFlavor::CompoundTags,
        }
    }
}

/// Inline capacity of an [`OpList`]. Plans almost never carry more ops
/// than this (a Footprint Cache miss is ≤1 critical + ≤3 background
/// ops), so the hot path performs no heap allocation at all.
const INLINE_OPS: usize = 4;

/// Filler for unused inline slots (never observable: `len` bounds every
/// read).
const NIL_OP: MemOp = MemOp {
    target: MemTarget::Stacked,
    addr: PhysAddr::new(0),
    kind: AccessKind::Read,
    blocks: 0,
    flavor: OpFlavor::Simple,
};

/// A small-vector of [`MemOp`]s: up to 4 ops live inline in the plan
/// itself; longer lists spill to the heap. This is the hot-path
/// container — per-access plans are built and dropped millions of times
/// per simulated interval, and the inline representation keeps that
/// malloc-free for every design in the registry.
///
/// Equality and ordering of ops are representation-independent: an
/// inline list equals a spilled list with the same ops.
#[derive(Clone, Serialize, Deserialize)]
pub struct OpList {
    /// Valid prefix length of `inline`; unused once spilled.
    len: u8,
    inline: [MemOp; INLINE_OPS],
    /// Empty until the list outgrows `inline`; then holds *all* ops.
    spill: Vec<MemOp>,
}

impl OpList {
    /// An empty list (no heap allocation).
    pub const fn new() -> Self {
        Self {
            len: 0,
            inline: [NIL_OP; INLINE_OPS],
            spill: Vec::new(),
        }
    }

    /// Appends one op.
    pub fn push(&mut self, op: MemOp) {
        if self.spill.is_empty() && (self.len as usize) < INLINE_OPS {
            self.inline[self.len as usize] = op;
            self.len += 1;
            return;
        }
        self.spill_out();
        self.spill.push(op);
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.len as usize
        } else {
            self.spill.len()
        }
    }

    /// Whether the list holds no ops.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.spill.is_empty()
    }

    /// The ops as a slice, in insertion order.
    pub fn as_slice(&self) -> &[MemOp] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Iterates the ops in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, MemOp> {
        self.as_slice().iter()
    }

    /// Moves the inline ops into `spill` so pushes can grow unbounded.
    fn spill_out(&mut self) {
        if self.spill.is_empty() {
            self.spill.reserve(2 * INLINE_OPS);
            self.spill
                .extend_from_slice(&self.inline[..self.len as usize]);
            self.len = 0;
        }
    }
}

impl Default for OpList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for OpList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for OpList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for OpList {}

impl std::ops::Index<usize> for OpList {
    type Output = MemOp;

    fn index(&self, index: usize) -> &MemOp {
        &self.as_slice()[index]
    }
}

impl From<Vec<MemOp>> for OpList {
    fn from(ops: Vec<MemOp>) -> Self {
        let mut list = Self::new();
        if ops.len() > INLINE_OPS {
            list.spill = ops;
        } else {
            for op in ops {
                list.push(op);
            }
        }
        list
    }
}

impl FromIterator<MemOp> for OpList {
    fn from_iter<I: IntoIterator<Item = MemOp>>(iter: I) -> Self {
        let mut list = Self::new();
        for op in iter {
            list.push(op);
        }
        list
    }
}

impl Extend<MemOp> for OpList {
    fn extend<I: IntoIterator<Item = MemOp>>(&mut self, iter: I) {
        for op in iter {
            self.push(op);
        }
    }
}

impl<'a> IntoIterator for &'a OpList {
    type Item = &'a MemOp;
    type IntoIter = std::slice::Iter<'a, MemOp>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The DRAM work one cache access implies.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessPlan {
    /// Whether the access hit in the DRAM cache.
    pub hit: bool,
    /// Whether the block bypassed the cache (fetched off-chip, forwarded
    /// to the requestor, not allocated — singleton pages, filter misses).
    pub bypass: bool,
    /// SRAM lookup cycles on the critical path (tag array, MissMap).
    pub tag_latency: u32,
    /// Serialized ops that determine the request's latency.
    pub critical: OpList,
    /// Concurrent ops charged to bank/bus/energy only.
    pub background: OpList,
}

impl AccessPlan {
    /// A plan with only a tag lookup (e.g., a write hit absorbed by SRAM
    /// state, or a design-internal no-op).
    pub fn tag_only(hit: bool, tag_latency: u32) -> Self {
        Self {
            hit,
            bypass: false,
            tag_latency,
            critical: OpList::new(),
            background: OpList::new(),
        }
    }

    /// Total off-chip blocks read by this plan (critical + background).
    pub fn offchip_read_blocks(&self) -> u64 {
        self.blocks_matching(MemTarget::OffChip, AccessKind::Read)
    }

    /// Total off-chip blocks written by this plan.
    pub fn offchip_write_blocks(&self) -> u64 {
        self.blocks_matching(MemTarget::OffChip, AccessKind::Write)
    }

    /// Total stacked-DRAM blocks read.
    pub fn stacked_read_blocks(&self) -> u64 {
        self.blocks_matching(MemTarget::Stacked, AccessKind::Read)
    }

    /// Total stacked-DRAM blocks written.
    pub fn stacked_write_blocks(&self) -> u64 {
        self.blocks_matching(MemTarget::Stacked, AccessKind::Write)
    }

    fn blocks_matching(&self, target: MemTarget, kind: AccessKind) -> u64 {
        self.critical
            .iter()
            .chain(self.background.iter())
            .filter(|op| op.target == target && op.kind == kind)
            .map(|op| op.blocks as u64)
            .sum()
    }
}

/// Where a design's demand or writeback transition sends its outcome
/// and its DRAM ops.
///
/// A design writes each transition once, in its
/// [`CacheDesign`](crate::CacheDesign) impl, generic over the sink, and
/// the [`DramCacheModel`](crate::DramCacheModel) blanket impl picks the
/// sink: [`AccessPlan`] records the ops for the DRAM timing models
/// (`access`, `writeback`), [`BlockCounts`] keeps only their block
/// totals (`warm_access`, `warm_writeback`). Either way
/// [`tally`](Self::tally) folds the traffic into the design's
/// [`DramCacheStats`] once per transition.
pub trait OpSink: Default {
    /// Sets the SRAM lookup cycles on the critical path (tag array,
    /// MissMap); 0 unless called.
    fn lookup(&mut self, _tag_latency: u32) {}

    /// Marks the access a DRAM-cache hit.
    fn mark_hit(&mut self) {}

    /// Marks the access a bypass: fetched off-chip, not allocated.
    fn mark_bypass(&mut self) {}

    /// Adds a serialized op that determines the request's latency.
    fn critical(&mut self, op: MemOp);

    /// Adds a concurrent op, charged to bank, bus and energy only.
    fn background(&mut self, op: MemOp);

    /// Adds the blocks of every op pushed so far to the per-(target,
    /// kind) traffic counters of `stats`, and hands the sink back.
    fn tally(self, stats: &mut DramCacheStats) -> Self;

    /// Runs one transition `body` over a fresh sink.
    fn build(body: impl FnOnce(&mut Self)) -> Self {
        let mut sink = Self::default();
        body(&mut sink);
        sink
    }
}

impl OpSink for AccessPlan {
    fn lookup(&mut self, tag_latency: u32) {
        self.tag_latency = tag_latency;
    }

    fn mark_hit(&mut self) {
        self.hit = true;
    }

    fn mark_bypass(&mut self) {
        self.bypass = true;
    }

    fn critical(&mut self, op: MemOp) {
        self.critical.push(op);
    }

    fn background(&mut self, op: MemOp) {
        self.background.push(op);
    }

    fn tally(self, stats: &mut DramCacheStats) -> Self {
        let mut counts = BlockCounts::default();
        for &op in self.critical.iter().chain(&self.background) {
            counts.count(op);
        }
        counts.tally(stats);
        self
    }
}

/// The counting sink: the blocks of the ops pushed, per (target, kind),
/// with no op stored. Functional warm-up runs a design's transitions
/// over it.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockCounts {
    offchip_read: u64,
    offchip_write: u64,
    stacked_read: u64,
    stacked_write: u64,
}

impl BlockCounts {
    fn count(&mut self, op: MemOp) {
        let counter = match (op.target, op.kind) {
            (MemTarget::OffChip, AccessKind::Read) => &mut self.offchip_read,
            (MemTarget::OffChip, AccessKind::Write) => &mut self.offchip_write,
            (MemTarget::Stacked, AccessKind::Read) => &mut self.stacked_read,
            (MemTarget::Stacked, AccessKind::Write) => &mut self.stacked_write,
        };
        *counter += op.blocks as u64;
    }
}

impl OpSink for BlockCounts {
    fn critical(&mut self, op: MemOp) {
        self.count(op);
    }

    fn background(&mut self, op: MemOp) {
        self.count(op);
    }

    fn tally(self, stats: &mut DramCacheStats) -> Self {
        stats.offchip_read_blocks += self.offchip_read;
        stats.offchip_write_blocks += self.offchip_write;
        stats.stacked_read_blocks += self.stacked_read;
        stats.stacked_write_blocks += self.stacked_write;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accounting_sums_both_lists() {
        let plan = AccessPlan {
            hit: false,
            bypass: false,
            tag_latency: 4,
            critical: vec![MemOp::read(MemTarget::OffChip, PhysAddr::new(0), 1)].into(),
            background: vec![
                MemOp::read(MemTarget::OffChip, PhysAddr::new(64), 11),
                MemOp::write(MemTarget::Stacked, PhysAddr::new(0), 12),
                MemOp::write(MemTarget::OffChip, PhysAddr::new(4096), 3),
            ]
            .into(),
        };
        assert_eq!(plan.offchip_read_blocks(), 12);
        assert_eq!(plan.offchip_write_blocks(), 3);
        assert_eq!(plan.stacked_write_blocks(), 12);
        assert_eq!(plan.stacked_read_blocks(), 0);
    }

    #[test]
    fn constructors_set_flavor() {
        let op = MemOp::compound(MemTarget::Stacked, PhysAddr::new(0), AccessKind::Read);
        assert_eq!(op.flavor, OpFlavor::CompoundTags);
        assert_eq!(op.blocks, 1);
        let r = MemOp::read(MemTarget::OffChip, PhysAddr::new(0), 5);
        assert_eq!(r.flavor, OpFlavor::Simple);
        assert_eq!(r.kind, AccessKind::Read);
    }

    #[test]
    fn tag_only_plan_is_empty() {
        let plan = AccessPlan::tag_only(true, 9);
        assert!(plan.hit && plan.critical.is_empty() && plan.background.is_empty());
        assert_eq!(plan.tag_latency, 9);
    }

    #[test]
    fn oplist_spills_past_inline_capacity() {
        let mut list = OpList::new();
        let ops: Vec<MemOp> = (0..9)
            .map(|i| MemOp::read(MemTarget::OffChip, PhysAddr::new(i * 64), 1))
            .collect();
        for (i, op) in ops.iter().enumerate() {
            list.push(*op);
            assert_eq!(list.len(), i + 1);
        }
        assert_eq!(list.as_slice(), &ops[..]);
        assert_eq!(list[7], ops[7]);
    }

    #[test]
    fn oplist_equality_and_debug_follow_content() {
        let ops: Vec<MemOp> = (0..3)
            .map(|i| MemOp::write(MemTarget::Stacked, PhysAddr::new(i * 64), 2))
            .collect();
        let a: OpList = ops.iter().copied().collect();
        let b: OpList = ops.clone().into();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c: OpList = ops[..2].iter().copied().collect();
        assert_ne!(a, c);
    }
}
