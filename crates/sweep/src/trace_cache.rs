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
//! Detailed replay also shares the shared-L2 pass. Nothing below the L2
//! writes into it, so each record's L2 outcome is a pure function of
//! the record prefix and the L2 geometry. [`TraceCache::filtered`]
//! attaches [`L2Outcomes`] to an entry on the first detailed request,
//! keyed by `(l2_bytes, l2_ways)`; every later design on that trace
//! replays them instead of its own L2. A longer prefix or another
//! geometry refilters from record 0, so entries never keep an L2
//! array. [`TraceCache::records`] does no filtering.
//!
//! Memory is bounded twice: a per-entry budget (requests beyond it
//! stream instead of caching) and an aggregate budget across entries,
//! counted in bytes of records, outcomes and generators
//! (least-recently-used streams are evicted once the sweep moves on to
//! other workloads; in-flight readers keep their `Arc` until they
//! finish, so eviction never invalidates a running simulation).

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fc_sim::{L2Outcomes, SimConfig};
use fc_trace::synth::{Workers, WINDOW};
use fc_trace::{TraceGenerator, TraceRecord, WorkloadKind};

use crate::pool;

type EntryKey = (WorkloadKind, u8, u64);

/// One workload's cached stream: the generator persists alongside the
/// records so extending the prefix never re-synthesizes it.
struct CachedTrace {
    generator: TraceGenerator,
    records: Arc<Vec<TraceRecord>>,
    /// At most one outcome stream per L2 geometry.
    outcomes: Vec<Arc<L2Outcomes>>,
}

impl CachedTrace {
    /// Host bytes the entry holds: its records, its outcomes and its
    /// generator.
    fn bytes(&self) -> usize {
        self.records.len() * size_of::<TraceRecord>()
            + self.outcomes.iter().map(|o| o.heap_bytes()).sum::<usize>()
            + self.generator.heap_bytes()
    }
}

/// Records' worth of bytes the generator of a cached `(workload, cores,
/// seed)` trace may hold: a fresh generator's heap plus one window of
/// spill. Budgets that must keep a trace resident add this to its
/// records.
pub(crate) fn generator_records(workload: WorkloadKind, cores: u8, seed: u64) -> usize {
    let bytes = TraceGenerator::new(workload, cores, seed).heap_bytes();
    bytes.div_ceil(size_of::<TraceRecord>()) + WINDOW
}

/// An entry's size as eviction sees it.
#[derive(Clone, Copy, Default)]
struct EntrySize {
    records: usize,
    bytes: usize,
}

/// Map-level bookkeeping, all guarded by one lock: the entries plus the
/// per-entry sizes and recency stamps eviction decides by (sizes are
/// mirrored here so eviction never needs an entry's own lock).
#[derive(Default)]
struct Index {
    entries: HashMap<EntryKey, Arc<Mutex<CachedTrace>>>,
    sizes: HashMap<EntryKey, EntrySize>,
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
    aggregate_budget_bytes: usize,
    index: Mutex<Index>,
    synthesized: AtomicU64,
    filtered: AtomicU64,
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
    /// The aggregate holds the bytes of that many records, outcomes
    /// and generators included. Fills use every available core; a
    /// [`SweepEngine`]'s cache uses the engine's thread count instead.
    ///
    /// [`SweepEngine`]: crate::SweepEngine
    pub fn with_aggregate_budget(budget_records: usize, aggregate_budget_records: usize) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            budget_records,
            aggregate_budget_bytes: aggregate_budget_records
                .max(budget_records)
                .saturating_mul(size_of::<TraceRecord>()),
            index: Mutex::new(Index::default()),
            synthesized: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
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
        self.with_entry((workload, cores, seed), len, |cached, _| {
            Arc::clone(&cached.records)
        })
    }

    /// The shared record prefix of length `len` for a workload stream
    /// on `config`'s pod, plus the L2 outcomes of at least its first
    /// `len` records under `config`'s L2 geometry (for
    /// [`Simulation::filtered`](fc_sim::Simulation::filtered)), or
    /// `None` when `len` exceeds the cache budget. The first request
    /// per geometry, and any longer one, filters from record 0.
    pub fn filtered(
        &self,
        workload: WorkloadKind,
        config: &SimConfig,
        seed: u64,
        len: u64,
    ) -> Option<(Arc<Vec<TraceRecord>>, Arc<L2Outcomes>)> {
        self.with_entry((workload, config.cores, seed), len, |cached, len| {
            let geometry = (config.l2_bytes, config.l2_ways);
            let reusable = cached
                .outcomes
                .iter()
                .find(|o| o.geometry() == geometry && o.len() >= len);
            let outcomes = match reusable {
                Some(outcomes) => Arc::clone(outcomes),
                None => {
                    let _span = fc_obs::trace::span_with("l2-filter", "sweep", || {
                        format!("{workload:?} {len} records")
                    });
                    let outcomes = Arc::new(L2Outcomes::filter(config, &cached.records[..len]));
                    fc_obs::metrics::counter("sweep.l2_filter.records").add(len as u64);
                    self.filtered.fetch_add(len as u64, Ordering::Relaxed);
                    cached.outcomes.retain(|o| o.geometry() != geometry);
                    cached.outcomes.push(Arc::clone(&outcomes));
                    outcomes
                }
            };
            (Arc::clone(&cached.records), outcomes)
        })
    }

    /// Runs `then` on `key`'s entry, extended to at least `len`
    /// records, under the entry's lock, then re-sizes the entry for
    /// eviction. `None` when `len` exceeds the per-entry budget.
    fn with_entry<T>(
        &self,
        key: EntryKey,
        len: u64,
        then: impl FnOnce(&mut CachedTrace, usize) -> T,
    ) -> Option<T> {
        let len = usize::try_from(len).ok()?;
        if len > self.budget_records {
            return None;
        }
        let entry = {
            let mut index = self.index.lock().expect("trace cache index");
            index.clock += 1;
            let stamp = index.clock;
            index.last_use.insert(key, stamp);
            Arc::clone(index.entries.entry(key).or_insert_with(|| {
                Arc::new(Mutex::new(CachedTrace {
                    generator: TraceGenerator::new(key.0, key.1, key.2),
                    records: Arc::new(Vec::new()),
                    outcomes: Vec::new(),
                }))
            }))
        };
        let mut cached = entry.lock().expect("trace cache entry");
        let before = cached.bytes();
        if cached.records.len() < len {
            let missing = len - cached.records.len();
            let _span = fc_obs::trace::span_with("synthesis", "sweep", || {
                format!("{:?} +{missing} records", key.0)
            });
            let CachedTrace {
                generator, records, ..
            } = &mut *cached;
            // Readers holding earlier Arcs keep their (shorter) prefix;
            // `make_mut` clones only while such readers exist.
            let records = Arc::make_mut(records);
            generator.fill(records, missing, &SynthWorkers(self.workers()));
            self.synthesized
                .fetch_add(missing as u64, Ordering::Relaxed);
        } else {
            self.shared.fetch_add(1, Ordering::Relaxed);
        }
        let out = then(&mut cached, len);
        let size = EntrySize {
            records: cached.records.len(),
            bytes: cached.bytes(),
        };
        drop(cached);
        if size.bytes != before {
            self.note_size_and_evict(key, size);
        }
        Some(out)
    }

    /// Records `key`'s new size and evicts least-recently-used *other*
    /// entries while the aggregate exceeds the budget. Only the index
    /// lock is taken, so this cannot deadlock against entry locks; a
    /// removed entry's storage is freed when its last reader drops.
    fn note_size_and_evict(&self, key: EntryKey, size: EntrySize) {
        let mut index = self.index.lock().expect("trace cache index");
        index.sizes.insert(key, size);
        let mut total: usize = index.sizes.values().map(|s| s.bytes).sum();
        while total > self.aggregate_budget_bytes {
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
            total -= index.sizes.remove(&victim).unwrap_or_default().bytes;
        }
    }

    /// Total records synthesized into the cache so far (re-synthesis
    /// after eviction counts again).
    pub fn records_synthesized(&self) -> u64 {
        self.synthesized.load(Ordering::Relaxed)
    }

    /// Total records run through an L2 filter so far (a refilter
    /// counts its whole prefix again).
    #[cfg(test)]
    pub(crate) fn records_filtered(&self) -> u64 {
        self.filtered.load(Ordering::Relaxed)
    }

    /// Requests fully served from already-synthesized records.
    pub fn shared_hits(&self) -> u64 {
        self.shared.load(Ordering::Relaxed)
    }

    /// Records currently resident across all entries.
    pub fn resident_records(&self) -> usize {
        let index = self.index.lock().expect("trace cache index");
        index.sizes.values().map(|s| s.records).sum()
    }

    /// Host bytes currently resident across all entries: records, L2
    /// outcomes and generators. Eviction keeps this within the aggregate
    /// budget whenever more than one entry is resident.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        let index = self.index.lock().expect("trace cache index");
        index.sizes.values().map(|s| s.bytes).sum()
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
                // Window overshoot waits in the generator's spill: it
                // counts in the entry's bytes, not as synthesized or
                // resident records.
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
    fn outcomes_are_keyed_by_geometry_and_refiltered_when_longer() {
        let cache = TraceCache::new(10_000);
        let small = SimConfig::small();
        let (_, first) = cache
            .filtered(WorkloadKind::WebSearch, &small, 1, 500)
            .unwrap();
        let (_, shorter) = cache
            .filtered(WorkloadKind::WebSearch, &small, 1, 300)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &shorter), "a shorter prefix reuses");
        let (records, longer) = cache
            .filtered(WorkloadKind::WebSearch, &small, 1, 800)
            .unwrap();
        assert_eq!(*longer, L2Outcomes::filter(&small, &records[..800]));
        let other = SimConfig {
            l2_ways: 8,
            ..small
        };
        let (_, other_outcomes) = cache
            .filtered(WorkloadKind::WebSearch, &other, 1, 800)
            .unwrap();
        assert_eq!(other_outcomes.geometry(), (small.l2_bytes, 8));
        let (_, again) = cache
            .filtered(WorkloadKind::WebSearch, &small, 1, 800)
            .unwrap();
        assert!(
            Arc::ptr_eq(&longer, &again),
            "another geometry kept this one"
        );
        assert_eq!(cache.records_filtered(), 500 + 800 + 800);
        assert_eq!(cache.records_synthesized(), 800);
        // Plain record requests never filter.
        cache.records(WorkloadKind::WebSearch, 4, 1, 900).unwrap();
        assert_eq!(cache.records_filtered(), 2_100);
    }

    #[test]
    fn distinct_seed_fills_stay_within_the_aggregate_budget() {
        // A serve loop caches every fresh seed it sees. Outcome bytes
        // count against the aggregate, and no L2 array stays behind.
        let tiny =
            (crate::RunScale::tiny().warmup(64) + crate::RunScale::tiny().measured(64)) as usize;
        let cache = TraceCache::with_aggregate_budget(tiny, 10 * tiny);
        let budget = 10 * tiny * size_of::<TraceRecord>();
        let config = SimConfig::default();
        for seed in 0..1_000 {
            cache
                .filtered(WorkloadKind::WebSearch, &config, seed, tiny as u64)
                .unwrap();
            assert!(
                cache.resident_bytes() <= budget,
                "{} resident bytes after {} fills, budget {budget}",
                cache.resident_bytes(),
                seed + 1
            );
        }
        assert!(cache.resident_bytes() > cache.resident_records() * size_of::<TraceRecord>());
        assert_eq!(cache.records_filtered(), 1_000 * tiny as u64);
        // Every resident entry's generator counts too: at least the
        // bytes a fresh generator holds, on top of its records.
        let entries = cache.index.lock().expect("trace cache index").entries.len();
        let generator = TraceGenerator::new(WorkloadKind::WebSearch, config.cores, 0).heap_bytes();
        assert!(generator > 0);
        assert!(
            cache.resident_bytes()
                >= cache.resident_records() * size_of::<TraceRecord>() + entries * generator,
            "generator bytes left out of the entries' sizes"
        );
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
