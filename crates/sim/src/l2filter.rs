//! The shared L2, filtered once per trace.
//!
//! The pod's L2 is driven by trace records only: no DRAM-cache design
//! writes into it or back-invalidates it. Each record's L2 outcome — a
//! hit, a clean miss, or a miss that evicts a dirty victim — is
//! therefore a pure function of the record prefix and the L2 geometry
//! (`l2_bytes`, `l2_ways`). [`L2Outcomes::filter`] runs one
//! [`SramCache`] over a prefix and packs those outcomes, so every design
//! replaying the same trace can skip the L2 lookup
//! ([`Simulation::filtered`](crate::Simulation::filtered)) and still
//! produce bit-identical reports.

use fc_cache::{SramCache, SramOutcome};
use fc_trace::TraceRecord;
use fc_types::BlockAddr;

use crate::config::SimConfig;

/// The packed L2 outcome of every record of one trace prefix: a miss
/// bitset, a dirty-victim bitset and the victim blocks in record order.
#[derive(Debug, PartialEq, Eq)]
pub struct L2Outcomes {
    geometry: (usize, usize),
    len: usize,
    /// Bit `i`: record `i` missed the L2.
    miss: Vec<u64>,
    /// Bit `i`: record `i`'s fill evicted a dirty victim.
    dirty: Vec<u64>,
    /// The dirty victims, one per set `dirty` bit, in record order.
    victims: Vec<BlockAddr>,
}

impl L2Outcomes {
    /// Runs a cold L2 of `config`'s geometry over `records`.
    pub fn filter(config: &SimConfig, records: &[TraceRecord]) -> Self {
        let mut l2 = SramCache::new(config.l2_bytes, config.l2_ways);
        let words = records.len().div_ceil(64);
        let mut miss = vec![0u64; words];
        let mut dirty = vec![0u64; words];
        let mut victims = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if let SramOutcome::Miss { writeback } = l2.access(r.addr.block(), r.kind.is_write()) {
                miss[i / 64] |= 1 << (i % 64);
                if let Some(victim) = writeback {
                    dirty[i / 64] |= 1 << (i % 64);
                    victims.push(victim);
                }
            }
        }
        victims.shrink_to_fit();
        Self {
            geometry: (config.l2_bytes, config.l2_ways),
            len: records.len(),
            miss,
            dirty,
            victims,
        }
    }

    /// The L2 geometry these outcomes hold for: `(l2_bytes, l2_ways)`.
    pub fn geometry(&self) -> (usize, usize) {
        self.geometry
    }

    /// Records covered (the filtered prefix length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no record was filtered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Host bytes held by the outcome arrays.
    pub fn heap_bytes(&self) -> usize {
        (self.miss.capacity() + self.dirty.capacity()) * std::mem::size_of::<u64>()
            + self.victims.capacity() * std::mem::size_of::<BlockAddr>()
    }

    /// The outcome of record `i`; `victim` is the index of the next
    /// unread dirty victim and advances past the one returned.
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the filtered prefix.
    #[inline]
    fn outcome(&self, i: usize, victim: &mut usize) -> SramOutcome {
        assert!(
            i < self.len,
            "filtered replay ran past its {} filtered records",
            self.len
        );
        let (word, bit) = (i / 64, i % 64);
        if (self.miss[word] >> bit) & 1 == 0 {
            return SramOutcome::Hit;
        }
        let writeback = ((self.dirty[word] >> bit) & 1 == 1).then(|| {
            let block = self.victims[*victim];
            *victim += 1;
            block
        });
        SramOutcome::Miss { writeback }
    }
}

/// Where a pod's L2 outcomes come from.
#[derive(Clone)]
pub(crate) enum L2Source {
    /// A live L2 array, probed per record.
    Live(SramCache),
    /// Precomputed outcomes, consumed in record order.
    Filtered {
        outcomes: std::sync::Arc<L2Outcomes>,
        next: usize,
        victim: usize,
    },
}

impl L2Source {
    /// The L2 outcome of `r`, the next record of the pod's trace.
    #[inline]
    pub(crate) fn access(&mut self, r: &TraceRecord) -> SramOutcome {
        match self {
            L2Source::Live(l2) => l2.access(r.addr.block(), r.kind.is_write()),
            L2Source::Filtered {
                outcomes,
                next,
                victim,
            } => {
                let outcome = outcomes.outcome(*next, victim);
                *next += 1;
                outcome
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_trace::{TraceGenerator, WorkloadKind};

    #[test]
    fn decodes_what_a_live_l2_returns() {
        let config = SimConfig::small();
        let records: Vec<_> = TraceGenerator::new(WorkloadKind::DataServing, 4, 3)
            .take(20_000)
            .collect();
        let outcomes = L2Outcomes::filter(&config, &records);
        assert_eq!(outcomes.len(), records.len());
        assert_eq!(outcomes.geometry(), (config.l2_bytes, config.l2_ways));
        let mut live = SramCache::new(config.l2_bytes, config.l2_ways);
        let mut victim = 0;
        let mut writebacks = 0;
        for (i, r) in records.iter().enumerate() {
            let expected = live.access(r.addr.block(), r.kind.is_write());
            writebacks += matches!(expected, SramOutcome::Miss { writeback: Some(_) }) as usize;
            assert_eq!(outcomes.outcome(i, &mut victim), expected, "record {i}");
        }
        assert!(writebacks > 0, "the prefix must evict dirty victims");
        assert_eq!(victim, outcomes.victims.len());
    }

    #[test]
    #[should_panic(expected = "ran past its 10 filtered records")]
    fn replay_past_the_prefix_panics() {
        let records: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 4, 1)
            .take(10)
            .collect();
        let outcomes = L2Outcomes::filter(&SimConfig::small(), &records);
        outcomes.outcome(10, &mut 0);
    }
}
