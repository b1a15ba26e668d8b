//! Shared synthesized traces.
//!
//! Within a sweep, every design evaluated on a workload replays the
//! same record stream (the point seed is a function of the workload
//! only — see [`SweepPoint::seed`](crate::SweepPoint::seed)). The lab
//! used to re-synthesize that stream for every (workload, design) pair;
//! this cache synthesizes it once per (workload, cores, seed) and hands
//! out shared slices, falling back to streaming synthesis for runs
//! whose record budget would not fit in memory.
//!
//! Synthesis itself is parallel: a long fill advances the stream's
//! per-core generators on the crate's worker pool and merges them by
//! (time, core) ([`TraceGenerator::fill`]), which yields the very
//! records a sequential fill would, at any worker count.
//!
//! Memory is bounded twice: a per-entry budget (requests beyond it
//! stream instead of caching) and an aggregate budget across entries
//! (least-recently-used streams are evicted once the sweep moves on to
//! other workloads; in-flight readers keep their `Arc` until they
//! finish, so eviction never invalidates a running simulation).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fc_trace::synth::Workers;
use fc_trace::{TraceGenerator, TraceRecord, WorkloadKind};

use crate::pool;

type EntryKey = (WorkloadKind, u8, u64);

/// One workload's cached stream: the generator persists alongside the
/// records so extending the prefix never re-synthesizes it.
struct CachedTrace {
    generator: TraceGenerator,
    records: Arc<Vec<TraceRecord>>,
}

/// Map-level bookkeeping, all guarded by one lock: the entries plus the
/// per-entry sizes and recency stamps eviction decides by (sizes are
/// mirrored here so eviction never needs an entry's own lock).
#[derive(Default)]
struct Index {
    entries: HashMap<EntryKey, Arc<Mutex<CachedTrace>>>,
    sizes: HashMap<EntryKey, usize>,
    last_use: HashMap<EntryKey, u64>,
    clock: u64,
}

/// The crate's pool as the executor of a windowed fill: the calling
/// thread plus helper lanes `synth-N`.
struct SynthWorkers(usize);

impl Workers for SynthWorkers {
    fn count(&self) -> usize {
        self.0
    }

    fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        pool::synth_jobs(self.0, jobs, job);
    }
}

/// A concurrent per-(workload, cores, seed) trace prefix cache.
pub struct TraceCache {
    budget_records: usize,
    aggregate_budget_records: usize,
    index: Mutex<Index>,
    synthesized: AtomicU64,
    shared: AtomicU64,
    workers: AtomicUsize,
}

impl TraceCache {
    /// Default per-entry budget: ~4M records ≈ 100 MB — covers every
    /// quick-scale and test-scale run and the small-capacity full-scale
    /// runs; longer runs stream instead.
    pub const DEFAULT_BUDGET: usize = 4_000_000;

    /// Default aggregate budget across all entries (~3 workloads' worth
    /// of full entries); least-recently-used entries beyond it are
    /// evicted and re-synthesized if ever needed again.
    pub const DEFAULT_AGGREGATE_BUDGET: usize = 3 * Self::DEFAULT_BUDGET;

    /// A cache storing at most `budget_records` records per entry;
    /// longer requests return `None` (callers stream-synthesize).
    pub fn new(budget_records: usize) -> Self {
        Self::with_aggregate_budget(budget_records, budget_records.saturating_mul(3))
    }

    /// A cache with explicit per-entry and aggregate record budgets.
    /// Fills use every available core; a [`SweepEngine`]'s cache uses
    /// the engine's thread count instead.
    ///
    /// [`SweepEngine`]: crate::SweepEngine
    pub fn with_aggregate_budget(budget_records: usize, aggregate_budget_records: usize) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            budget_records,
            aggregate_budget_records: aggregate_budget_records.max(budget_records),
            index: Mutex::new(Index::default()),
            synthesized: AtomicU64::new(0),
            shared: AtomicU64::new(0),
            workers: AtomicUsize::new(workers),
        }
    }

    /// Sets how many workers a fill uses (1 = the calling thread only).
    /// The records are the same at any count.
    pub(crate) fn set_workers(&self, workers: usize) {
        self.workers.store(workers.max(1), Ordering::Relaxed);
    }

    /// How many workers a fill uses.
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::Relaxed)
    }

    /// The shared record prefix of length `len` for a workload stream,
    /// or `None` when `len` exceeds the cache budget.
    pub fn records(
        &self,
        workload: WorkloadKind,
        cores: u8,
        seed: u64,
        len: u64,
    ) -> Option<Arc<Vec<TraceRecord>>> {
        let len = usize::try_from(len).ok()?;
        if len > self.budget_records {
            return None;
        }
        let key: EntryKey = (workload, cores, seed);
        let entry = {
            let mut index = self.index.lock().expect("trace cache index");
            index.clock += 1;
            let stamp = index.clock;
            index.last_use.insert(key, stamp);
            Arc::clone(index.entries.entry(key).or_insert_with(|| {
                Arc::new(Mutex::new(CachedTrace {
                    generator: TraceGenerator::new(workload, cores, seed),
                    records: Arc::new(Vec::new()),
                }))
            }))
        };
        let mut cached = entry.lock().expect("trace cache entry");
        if cached.records.len() < len {
            let missing = len - cached.records.len();
            let _span = fc_obs::trace::span_with("synthesis", "sweep", || {
                format!("{workload:?} +{missing} records")
            });
            let CachedTrace { generator, records } = &mut *cached;
            // Readers holding earlier Arcs keep their (shorter) prefix;
            // `make_mut` clones only while such readers exist.
            let records = Arc::make_mut(records);
            generator.fill(records, missing, &SynthWorkers(self.workers()));
            self.synthesized
                .fetch_add(missing as u64, Ordering::Relaxed);
            let new_len = records.len();
            let shared = Arc::clone(&cached.records);
            drop(cached);
            self.note_size_and_evict(key, new_len);
            Some(shared)
        } else {
            self.shared.fetch_add(1, Ordering::Relaxed);
            Some(Arc::clone(&cached.records))
        }
    }

    /// Records `key`'s new size and evicts least-recently-used *other*
    /// entries while the aggregate exceeds the budget. Only the index
    /// lock is taken, so this cannot deadlock against entry locks; a
    /// removed entry's storage is freed when its last reader drops.
    fn note_size_and_evict(&self, key: EntryKey, new_len: usize) {
        let mut index = self.index.lock().expect("trace cache index");
        index.sizes.insert(key, new_len);
        let mut total: usize = index.sizes.values().sum();
        while total > self.aggregate_budget_records {
            let victim = index
                .entries
                .keys()
                .filter(|k| **k != key)
                .min_by_key(|k| index.last_use.get(*k).copied().unwrap_or(0))
                .copied();
            let Some(victim) = victim else {
                break; // only the in-use entry remains
            };
            index.entries.remove(&victim);
            index.last_use.remove(&victim);
            total -= index.sizes.remove(&victim).unwrap_or(0);
        }
    }

    /// Total records synthesized into the cache so far (re-synthesis
    /// after eviction counts again).
    pub fn records_synthesized(&self) -> u64 {
        self.synthesized.load(Ordering::Relaxed)
    }

    /// Requests fully served from already-synthesized records.
    pub fn shared_hits(&self) -> u64 {
        self.shared.load(Ordering::Relaxed)
    }

    /// Records currently resident across all entries.
    pub fn resident_records(&self) -> usize {
        self.index
            .lock()
            .expect("trace cache index")
            .sizes
            .values()
            .sum()
    }
}

impl Default for TraceCache {
    fn default() -> Self {
        Self::with_aggregate_budget(Self::DEFAULT_BUDGET, Self::DEFAULT_AGGREGATE_BUDGET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_is_stable_under_extension() {
        let cache = TraceCache::new(10_000);
        let short = cache
            .records(WorkloadKind::WebSearch, 4, 9, 100)
            .expect("within budget");
        let long = cache
            .records(WorkloadKind::WebSearch, 4, 9, 500)
            .expect("within budget");
        assert_eq!(&long[..100], &short[..]);
        assert_eq!(cache.records_synthesized(), 500);
    }

    #[test]
    fn windowed_fills_extend_the_prefix_exactly() {
        use fc_trace::synth::WINDOW;
        let lens = [100, 500, 3 * WINDOW + 7];
        let fresh: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 16, 9)
            .take(lens[2])
            .collect();
        for workers in [1, 4] {
            let cache = TraceCache::new(4 * WINDOW);
            cache.set_workers(workers);
            for len in lens {
                let records = cache
                    .records(WorkloadKind::WebSearch, 16, 9, len as u64)
                    .expect("within budget");
                assert_eq!(records.len(), len, "{workers} workers");
                assert!(
                    records[..] == fresh[..len],
                    "{workers} workers, {len} records"
                );
                // Window overshoot stays in the generator, uncounted.
                assert_eq!(cache.records_synthesized(), len as u64);
                assert_eq!(cache.resident_records(), len);
            }
        }
    }

    #[test]
    fn repeated_requests_share_synthesis() {
        let cache = TraceCache::new(10_000);
        let a = cache.records(WorkloadKind::MapReduce, 4, 1, 300).unwrap();
        let b = cache.records(WorkloadKind::MapReduce, 4, 1, 300).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.records_synthesized(), 300);
        assert_eq!(cache.shared_hits(), 1);
    }

    #[test]
    fn matches_fresh_generator_stream() {
        let cache = TraceCache::new(10_000);
        let cached = cache.records(WorkloadKind::DataServing, 4, 7, 200).unwrap();
        let fresh: Vec<_> = TraceGenerator::new(WorkloadKind::DataServing, 4, 7)
            .take(200)
            .collect();
        assert_eq!(&cached[..], &fresh[..]);
    }

    #[test]
    fn over_budget_streams() {
        let cache = TraceCache::new(100);
        assert!(cache.records(WorkloadKind::WebSearch, 4, 9, 101).is_none());
        assert!(cache.records(WorkloadKind::WebSearch, 4, 9, 100).is_some());
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let cache = TraceCache::new(10_000);
        let a = cache.records(WorkloadKind::WebSearch, 4, 1, 50).unwrap();
        let b = cache.records(WorkloadKind::WebSearch, 4, 2, 50).unwrap();
        assert_ne!(&a[..], &b[..]);
    }

    #[test]
    fn aggregate_budget_evicts_least_recently_used() {
        // Per-entry 100, aggregate 150: the second workload's entry
        // pushes the first out.
        let cache = TraceCache::with_aggregate_budget(100, 150);
        cache.records(WorkloadKind::WebSearch, 4, 1, 100).unwrap();
        assert_eq!(cache.resident_records(), 100);
        cache.records(WorkloadKind::MapReduce, 4, 1, 100).unwrap();
        assert_eq!(cache.resident_records(), 100, "WebSearch evicted");

        // The evicted stream re-synthesizes identically on demand.
        let again = cache.records(WorkloadKind::WebSearch, 4, 1, 50).unwrap();
        let fresh: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 4, 1)
            .take(50)
            .collect();
        assert_eq!(&again[..], &fresh[..]);
    }

    #[test]
    fn in_use_entry_is_never_evicted() {
        let cache = TraceCache::with_aggregate_budget(100, 100);
        let held = cache.records(WorkloadKind::WebSearch, 4, 1, 100).unwrap();
        // A second entry overflows the aggregate; the older entry is
        // evicted from the map, but our Arc stays valid.
        cache.records(WorkloadKind::MapReduce, 4, 1, 100).unwrap();
        assert_eq!(held.len(), 100);
        assert_eq!(cache.resident_records(), 100);
    }
}
