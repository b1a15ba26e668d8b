//! The pod's SRAM cache: a block-granularity, writeback, write-allocate
//! set-associative cache used as the shared L2 (Table 3: 4 MB, 16-way,
//! 64 B blocks). Its 13-cycle hit latency is the pod's timing
//! (`SimConfig::l2_latency` in fc-sim), not the array's.

use serde::{Deserialize, Serialize};

use fc_types::{BlockAddr, BLOCK_SIZE};

use crate::setassoc::{Probe, SetAssoc};

/// Result of an L2 access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SramOutcome {
    /// The block was present.
    Hit,
    /// The block was absent; it has been allocated, possibly evicting a
    /// dirty victim that must be written back to the next level.
    Miss {
        /// Dirty victim evicted by the fill, if any.
        writeback: Option<BlockAddr>,
    },
}

impl SramOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, SramOutcome::Hit)
    }
}

/// Counters for an [`SramCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty writebacks emitted.
    pub writebacks: u64,
}

/// A block-granularity writeback cache.
///
/// # Examples
///
/// ```
/// use fc_cache::{SramCache, SramOutcome};
/// use fc_types::BlockAddr;
///
/// let mut l2 = SramCache::new(4 << 20, 16);
/// let b = BlockAddr::new(100);
/// assert!(!l2.access(b, false).is_hit()); // cold miss allocates
/// assert!(l2.access(b, true).is_hit());   // store hit dirties the line
/// ```
#[derive(Clone, Debug)]
pub struct SramCache {
    lines: SetAssoc<bool>, // value = dirty
    stats: SramStats,
}

impl SramCache {
    /// Creates a cache of `capacity_bytes` with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * BLOCK_SIZE`.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        let blocks = capacity_bytes / BLOCK_SIZE;
        assert!(
            blocks > 0 && blocks.is_multiple_of(ways),
            "capacity must be a positive multiple of ways * 64B"
        );
        Self {
            lines: SetAssoc::new(blocks / ways, ways),
            stats: SramStats::default(),
        }
    }

    /// Accesses `block`; `is_write` dirties the line. Misses allocate
    /// (write-allocate) and may evict a dirty victim.
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> SramOutcome {
        self.stats.accesses += 1;
        let sets = self.lines.sets() as u64;
        let set = (block.raw() % sets) as usize;
        let tag = block.raw() / sets;

        match self.lines.probe(set, tag, is_write) {
            Probe::Hit(dirty) => {
                self.stats.hits += 1;
                *dirty |= is_write;
                SramOutcome::Hit
            }
            Probe::Miss(evicted) => {
                let writeback = match evicted {
                    Some((victim_tag, true)) => {
                        self.stats.writebacks += 1;
                        Some(BlockAddr::new(victim_tag * sets + set as u64))
                    }
                    _ => None,
                };
                SramOutcome::Miss { writeback }
            }
        }
    }

    /// Invalidates `block` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let sets = self.lines.sets() as u64;
        let set = (block.raw() % sets) as usize;
        let tag = block.raw() / sets;
        self.lines.remove(set, tag)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> SramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SramCache {
        // 2 sets x 2 ways.
        SramCache::new(4 * BLOCK_SIZE, 2)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let b = BlockAddr::new(4);
        assert!(matches!(
            c.access(b, false),
            SramOutcome::Miss { writeback: None }
        ));
        assert!(c.access(b, false).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn dirty_victim_produces_writeback() {
        let mut c = tiny();
        // Fill set 0 (blocks ≡ 0 mod 2) with writes.
        c.access(BlockAddr::new(0), true);
        c.access(BlockAddr::new(2), true);
        // Third distinct block in set 0 evicts LRU block 0, dirty.
        let out = c.access(BlockAddr::new(4), false);
        match out {
            SramOutcome::Miss { writeback: Some(b) } => assert_eq!(b, BlockAddr::new(0)),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_victim_no_writeback() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        assert!(matches!(
            c.access(BlockAddr::new(4), false),
            SramOutcome::Miss { writeback: None }
        ));
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(0), true); // now dirty
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false);
        assert!(matches!(out, SramOutcome::Miss { writeback: Some(_) }));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        assert_eq!(c.invalidate(BlockAddr::new(0)), Some(true));
        assert_eq!(c.invalidate(BlockAddr::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_geometry_rejected() {
        SramCache::new(3 * BLOCK_SIZE, 2);
    }
}
