//! The generative engine behind [`TraceGenerator`].
//!
//! Each core runs an event-driven schedule of page *visits*. A visit is
//! one traversal of one 2 KB structure chunk by one access function: its
//! touches are spread over the class's `visit_duration` instructions, so
//! whether all of a page's blocks are touched before eviction depends on
//! how long the page stays cached — which is how the Figure 4
//! density-vs-capacity growth *emerges* from the model instead of being
//! baked in.
//!
//! **Merge rule.** The cores share nothing: each has its own RNG,
//! classes and visit heap, and its record times strictly increase. The
//! stream emits from the core with the earliest next time, ties going
//! to the lowest core index, so the stream is every core's records
//! sorted by (time, core). Any prefix is therefore "every core's records
//! below some horizon, sorted by (time, core)" — the property the
//! windowed parallel fill ([`TraceGenerator::fill`]) builds on.
//!
//! **Visit heap.** A core's live visits sit in a fixed set of slots, one
//! per visit it keeps alive, and a binary min-heap orders them by next
//! touch time as one packed `u64` key per visit, `time << slot_bits |
//! slot` ([`VisitKeys`]). A slot belongs to one live visit at a time, so
//! no two keys are equal and the heap pops by (time, slot) whatever its
//! internal layout. A visit that ends hands its slot straight to the
//! visit that replaces it, so emitting a record rewrites the top key in
//! place and sifts once, instead of a pop and a push. `slot_bits` is
//! sized from the slot count at construction; a time that would not fit
//! the remaining bits panics rather than reorder the stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fc_types::{AccessKind, Pc, PhysAddr};

use crate::record::TraceRecord;
use crate::synth::pattern::{splitmix, CHUNK_BLOCKS};
use crate::synth::{ClassSpec, PageSelect, WorkloadKind, WorkloadSpec, Zipf};

/// Bytes per structure chunk (the pattern granularity).
const CHUNK_BYTES: u64 = 2048;

#[derive(Clone, Copy, Debug)]
struct Visit {
    class: u16,
    func: u16,
    page: u64,
    start: u8,
    /// Delta mask of blocks still to touch.
    remaining: u32,
}

#[derive(Clone, Debug)]
struct RuntimeClass {
    spec: ClassSpec,
    /// Mean instructions between touches of one visit.
    interval: u64,
    /// Concurrent visits this core keeps alive for the class.
    concurrency: u32,
    region_base: u64,
    zipf: Option<Zipf>,
    seq_cursor: u64,
}

impl RuntimeClass {
    fn draw_interval(&self, rng: &mut SmallRng) -> u64 {
        let i = self.interval.max(2);
        rng.random_range(i / 2..=i + i / 2).max(1)
    }

    fn pick_page(&mut self, rng: &mut SmallRng) -> u64 {
        match self.spec.select {
            PageSelect::Zipf(_) => self
                .zipf
                .as_ref()
                .expect("zipf sampler present for Zipf select")
                .sample(rng),
            PageSelect::Uniform => rng.random_range(0..self.spec.pages),
            PageSelect::Sequential => {
                let p = self.seq_cursor;
                self.seq_cursor = (self.seq_cursor + 1) % self.spec.pages;
                p
            }
        }
    }
}

/// Packs a visit's next touch time and slot into one heap key, `time <<
/// slot_bits | slot`, so key order is (time, slot) order.
#[derive(Clone, Copy, Debug)]
struct VisitKeys {
    slot_bits: u32,
}

impl VisitKeys {
    /// Keys for slots `0..slots`.
    fn new(slots: usize) -> Self {
        Self {
            slot_bits: usize::BITS - slots.saturating_sub(1).leading_zeros(),
        }
    }

    /// Latest time a key can hold.
    fn max_time(self) -> u64 {
        u64::MAX >> self.slot_bits
    }

    /// # Panics
    ///
    /// Panics if `time` is past [`max_time`](Self::max_time): a
    /// truncated time would silently reorder the stream.
    fn pack(self, time: u64, slot: u32) -> u64 {
        assert!(
            time <= self.max_time(),
            "visit time {time} is past the key's {}-bit time budget",
            u64::BITS - self.slot_bits
        );
        time << self.slot_bits | u64::from(slot)
    }

    fn time(self, key: u64) -> u64 {
        key >> self.slot_bits
    }

    fn slot(self, key: u64) -> u32 {
        (key & !(u64::MAX << self.slot_bits)) as u32
    }
}

/// One core's event-driven visit schedule. Crate-visible so the
/// scenario generator (`crate::scenario`) can compose per-core engines
/// running *different* workloads into one interleaved stream.
///
/// Aligned to its own cache-line pair: a windowed fill advances
/// neighbouring cores on different threads.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct CoreEngine {
    core: u8,
    seed: u64,
    /// Stream salt: shifted into the high address bits and the PC so
    /// distinct workloads co-located in a scenario mix never alias
    /// regions or access functions. Zero for homogeneous streams.
    salt: u64,
    rng: SmallRng,
    classes: Vec<RuntimeClass>,
    /// Live visits; a slot's visit is replaced when it ends.
    slots: Vec<Visit>,
    keys: VisitKeys,
    /// Min-heap of packed (next touch time, slot) keys, one per slot.
    heap: BinaryHeap<Reverse<u64>>,
    last_inst: u64,
    phase_len: Option<u64>,
}

impl CoreEngine {
    pub(crate) fn new(spec: &WorkloadSpec, core: u8, seed: u64, salt: u64) -> Self {
        let rng = SmallRng::seed_from_u64(splitmix(seed ^ (core as u64) << 8));
        let mut engine = Self {
            core,
            seed,
            salt,
            rng,
            classes: Vec::new(),
            slots: Vec::new(),
            keys: VisitKeys::new(0),
            heap: BinaryHeap::new(),
            last_inst: 0,
            phase_len: spec.phase_len,
        };
        for (idx, class) in spec.classes.iter().enumerate() {
            if !class.cores.contains(core) {
                continue;
            }
            let interval =
                ((class.visit_duration as f64 / class.pattern.mean_len()).round() as u64).max(1);
            let concurrency = ((class.access_rate * interval as f64).round() as u32).max(1);
            let private = if class.private_region {
                (core as u64) << 36
            } else {
                0
            };
            let region_base = (engine.salt << 44) | ((idx as u64 + 1) << 40) | private;
            let zipf = match class.select {
                PageSelect::Zipf(theta) => Some(Zipf::new(class.pages, theta)),
                _ => None,
            };
            let seq_cursor = if matches!(class.select, PageSelect::Sequential) {
                // Spread scan cursors across cores.
                (class.pages / 16).saturating_mul(core as u64) % class.pages
            } else {
                0
            };
            engine.classes.push(RuntimeClass {
                spec: class.clone(),
                interval,
                concurrency,
                region_base,
                zipf,
                seq_cursor,
            });
        }
        // Populate the initial visit mix, first touches spread over one
        // interval so the schedule starts smooth.
        let visits: u32 = engine.classes.iter().map(|c| c.concurrency).sum();
        engine.keys = VisitKeys::new(visits as usize);
        engine.slots.reserve_exact(visits as usize);
        engine.heap.reserve_exact(visits as usize);
        for c in 0..engine.classes.len() {
            for _ in 0..engine.classes[c].concurrency {
                let when = engine
                    .rng
                    .random_range(0..engine.classes[c].interval.max(2));
                let visit = engine.fresh_visit(c as u16, when);
                let key = engine.keys.pack(when, engine.slots.len() as u32);
                engine.slots.push(visit);
                engine.heap.push(Reverse(key));
            }
        }
        engine
    }

    fn salt_at(&self, when: u64) -> u64 {
        self.phase_len.map_or(0, |p| when / p)
    }

    /// A visit of a newly picked page by a newly picked function of
    /// `class`, starting at `when`.
    fn fresh_visit(&mut self, class: u16, when: u64) -> Visit {
        let salt = self.salt_at(when);
        let rc = &mut self.classes[class as usize];
        let func = self.rng.random_range(0..rc.spec.functions);
        let page = rc.pick_page(&mut self.rng);
        let start = if rc.spec.aligned {
            (splitmix(self.seed ^ (class as u64) << 16 ^ func as u64) % CHUNK_BLOCKS as u64) as u8
        } else {
            self.rng.random_range(0..CHUNK_BLOCKS as u8)
        };
        let remaining = rc.spec.pattern.derive(self.seed, class, func, salt);
        Visit {
            class,
            func,
            page,
            start,
            remaining,
        }
    }

    /// `visit`'s page and function again, starting at `when`.
    fn revisit(&self, visit: Visit, when: u64) -> Visit {
        let salt = self.salt_at(when);
        let remaining = self.classes[visit.class as usize].spec.pattern.derive(
            self.seed,
            visit.class,
            visit.func,
            salt,
        );
        Visit { remaining, ..visit }
    }

    /// The earliest packed key.
    fn top(&self) -> u64 {
        let Reverse(key) = self.heap.peek().expect("core heap never empties");
        *key
    }

    /// Scheduled time of this core's next record.
    pub(crate) fn peek_time(&self) -> u64 {
        self.keys.time(self.top()).max(self.last_inst + 1)
    }

    /// Instruction time of the last emitted record (core-local clock).
    pub(crate) fn last_inst(&self) -> u64 {
        self.last_inst
    }

    /// Number of classes this core runs (zero means the spec's core
    /// sets exclude it).
    pub(crate) fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Expected records per instruction: each class keeps `concurrency`
    /// visits alive, each touching once per `interval`; a core emits at
    /// most one record per instruction.
    pub(crate) fn rate(&self) -> f64 {
        let rate: f64 = self
            .classes
            .iter()
            .map(|c| c.concurrency as f64 / c.interval as f64)
            .sum();
        rate.min(1.0)
    }

    /// Heap bytes of this core's classes, visit slots and visit heap.
    fn heap_bytes(&self) -> usize {
        self.classes.capacity() * size_of::<RuntimeClass>()
            + self.slots.capacity() * size_of::<Visit>()
            + self.heap.capacity() * size_of::<Reverse<u64>>()
    }

    /// Emits this core's next record.
    pub(crate) fn emit(&mut self) -> TraceRecord {
        let top = self.top();
        let slot = self.keys.slot(top);
        let now = self.keys.time(top).max(self.last_inst + 1);
        let gap = (now - self.last_inst).min(u32::MAX as u64) as u32;
        self.last_inst = now;

        let visit = &mut self.slots[slot as usize];
        let delta = visit.remaining.trailing_zeros();
        visit.remaining &= visit.remaining - 1;
        let visit = *visit;
        let offset = (visit.start as u32 + delta) % CHUNK_BLOCKS as u32;
        let class = visit.class;

        let rc = &self.classes[class as usize];
        let addr = rc.region_base + visit.page * CHUNK_BYTES + offset as u64 * 64;
        let pc_core = if rc.spec.private_region {
            (self.core as u64) << 24
        } else {
            0
        };
        let pc = (self.salt << 32)
            | 0x40_0000
            | pc_core
            | (class as u64) << 16
            | (visit.func as u64) << 2;
        let write_frac = rc.spec.write_frac;
        let reuse = rc.spec.reuse;
        let kind = if self.rng.random::<f64>() < write_frac {
            AccessKind::Write
        } else {
            AccessKind::Read
        };

        let next = now + self.classes[class as usize].draw_interval(&mut self.rng);
        if visit.remaining == 0 {
            // The slot passes to the visit that replaces this one.
            self.slots[slot as usize] = if self.rng.random::<f64>() < reuse {
                // Temporal reuse: revisit the same page with the same
                // function after roughly one inter-touch interval.
                self.revisit(visit, next)
            } else {
                self.fresh_visit(class, next)
            };
        }
        let key = self.keys.pack(next, slot);
        *self.heap.peek_mut().expect("core heap never empties") = Reverse(key);

        TraceRecord {
            pc: Pc::new(pc),
            addr: PhysAddr::new(addr),
            kind,
            core: self.core,
            inst_gap: gap.max(1),
        }
    }
}

/// An infinite, deterministic stream of [`TraceRecord`]s for one workload
/// on an `n`-core pod.
///
/// Records are merged across cores in per-core instruction order, which at
/// the paper's fixed trace IPC of 1.0 approximates global chronological
/// order. The stream is infinite — take as many records as the experiment
/// needs.
///
/// # Examples
///
/// ```
/// use fc_trace::{TraceGenerator, WorkloadKind};
///
/// let records: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 16, 7)
///     .take(1000)
///     .collect();
/// assert_eq!(records.len(), 1000);
/// // Deterministic: the same seed replays the same trace.
/// let again: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 16, 7)
///     .take(1000)
///     .collect();
/// assert_eq!(records, again);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    pub(super) cores: Vec<CoreEngine>,
    /// Window overshoot of the last [`fill`](Self::fill): records that
    /// precede, by (time, core), everything the cores will still emit.
    /// `spill[spill_at..]` is handed out before any core advances.
    pub(super) spill: Vec<TraceRecord>,
    pub(super) spill_at: usize,
    /// Records per instruction across all cores: sizes the next
    /// window's time span. Only speed depends on it, never the stream.
    pub(super) rate: f64,
}

impl TraceGenerator {
    /// Creates a generator for `kind` with `cores` cores and a seed.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(kind: WorkloadKind, cores: u8, seed: u64) -> Self {
        Self::from_spec(&kind.spec(), cores, seed)
    }

    /// Creates a generator from a custom [`WorkloadSpec`].
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or if some core ends up with no classes.
    pub fn from_spec(spec: &WorkloadSpec, cores: u8, seed: u64) -> Self {
        assert!(cores > 0, "need at least one core");
        let engines: Vec<CoreEngine> = (0..cores)
            .map(|c| CoreEngine::new(spec, c, seed, 0))
            .collect();
        for e in &engines {
            assert!(
                !e.classes.is_empty(),
                "core {} has no classes; check CoreSet coverage",
                e.core
            );
        }
        let rate = engines.iter().map(CoreEngine::rate).sum();
        Self {
            cores: engines,
            spill: Vec::new(),
            spill_at: 0,
            rate,
        }
    }

    /// Number of cores in the stream.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Heap bytes the generator holds: its per-core engines (classes,
    /// visit slots and visit heaps) and the window spill of the last
    /// [`fill`](Self::fill).
    pub fn heap_bytes(&self) -> usize {
        self.cores.capacity() * size_of::<CoreEngine>()
            + self.cores.iter().map(CoreEngine::heap_bytes).sum::<usize>()
            + self.spill.capacity() * size_of::<TraceRecord>()
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if let Some(&record) = self.spill.get(self.spill_at) {
            self.spill_at += 1;
            return Some(record);
        }
        // Emit from the core whose next touch is earliest.
        let idx = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.peek_time())
            .map(|(i, _)| i)
            .expect("at least one core");
        Some(self.cores[idx].emit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{CoreSet, PatternFamily};
    use std::collections::{HashMap, HashSet};

    fn single_class_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            phase_len: None,
            classes: vec![ClassSpec {
                name: "only",
                access_rate: 0.01,
                visit_duration: 10_000,
                pattern: PatternFamily::Dense { min: 4, max: 8 },
                select: PageSelect::Uniform,
                pages: 128,
                write_frac: 0.3,
                reuse: 0.5,
                functions: 1,
                aligned: true,
                cores: CoreSet::All,
                private_region: false,
            }],
        }
    }

    #[test]
    fn visit_keys_round_trip_at_their_limits() {
        for slots in [1, 2, 3, 300, 1 << 12, (1 << 12) + 1] {
            let keys = VisitKeys::new(slots);
            let last = slots as u32 - 1;
            assert!(u64::from(last) >> keys.slot_bits == 0, "{slots} slots fit");
            for (time, slot) in [(0, 0), (keys.max_time(), last), (keys.max_time(), 0)] {
                let key = keys.pack(time, slot);
                assert_eq!((keys.time(key), keys.slot(key)), (time, slot), "{slots}");
            }
            // Key order is (time, slot) order.
            assert!(keys.pack(1, 0) > keys.pack(0, last));
        }
    }

    #[test]
    #[should_panic(expected = "time budget")]
    fn visit_time_past_the_key_budget_panics() {
        let keys = VisitKeys::new(300);
        keys.pack(keys.max_time() + 1, 0);
    }

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<_> = TraceGenerator::new(WorkloadKind::DataServing, 16, 99)
            .take(5000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(WorkloadKind::DataServing, 16, 99)
            .take(5000)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_change_the_stream() {
        let a: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 4, 1)
            .take(500)
            .collect();
        let b: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 4, 2)
            .take(500)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn gaps_are_positive_and_mean_matches_rate() {
        let spec = WorkloadKind::WebSearch.spec();
        let expect_gap = 1.0 / spec.total_access_rate();
        let records: Vec<_> = TraceGenerator::from_spec(&spec, 16, 3)
            .take(100_000)
            .collect();
        let mut per_core_insts: HashMap<u8, u64> = HashMap::new();
        for r in &records {
            assert!(r.inst_gap >= 1);
            *per_core_insts.entry(r.core).or_default() += r.inst_gap as u64;
        }
        let total_insts: u64 = per_core_insts.values().sum();
        let mean_gap = total_insts as f64 / records.len() as f64;
        assert!(
            mean_gap > expect_gap * 0.5 && mean_gap < expect_gap * 2.0,
            "mean gap {mean_gap:.0} vs expected {expect_gap:.0}"
        );
    }

    #[test]
    fn all_cores_emit() {
        let records: Vec<_> = TraceGenerator::new(WorkloadKind::SatSolver, 16, 5)
            .take(50_000)
            .collect();
        let cores: HashSet<u8> = records.iter().map(|r| r.core).collect();
        assert_eq!(cores.len(), 16);
    }

    #[test]
    fn single_function_visits_repeat_footprints() {
        // One aligned function, stable phase: every visit of a page must
        // touch the same offsets — the predictability the FHT relies on.
        let records: Vec<_> = TraceGenerator::from_spec(&single_class_spec(), 1, 11)
            .take(20_000)
            .collect();
        let mut per_page: HashMap<u64, HashSet<u64>> = HashMap::new();
        for r in &records {
            let page = r.addr.raw() / 2048;
            let offset = (r.addr.raw() % 2048) / 64;
            per_page.entry(page).or_default().insert(offset);
        }
        // All pages visited by the single function must share one
        // footprint size (<= max pattern length 8).
        let sizes: HashSet<usize> = per_page.values().map(|s| s.len()).collect();
        assert!(sizes.len() <= 2, "footprints vary: {sizes:?}");
        assert!(sizes.iter().all(|&s| s <= 8));
    }

    #[test]
    fn singleton_class_touches_one_block_per_page() {
        let mut spec = single_class_spec();
        spec.classes[0].pattern = PatternFamily::Singleton;
        spec.classes[0].pages = 10_000_000;
        spec.classes[0].reuse = 0.0;
        spec.classes[0].aligned = false;
        let records: Vec<_> = TraceGenerator::from_spec(&spec, 1, 13)
            .take(5_000)
            .collect();
        let mut per_page: HashMap<u64, HashSet<u64>> = HashMap::new();
        for r in &records {
            per_page
                .entry(r.addr.raw() / 2048)
                .or_default()
                .insert(r.addr.raw() % 2048 / 64);
        }
        let multi = per_page.values().filter(|s| s.len() > 1).count();
        // Collisions are possible but must be rare.
        assert!(multi * 50 < per_page.len(), "{multi}/{}", per_page.len());
    }

    #[test]
    fn write_fraction_respected() {
        let records: Vec<_> = TraceGenerator::from_spec(&single_class_spec(), 2, 17)
            .take(50_000)
            .collect();
        let writes = records.iter().filter(|r| r.kind.is_write()).count();
        let frac = writes as f64 / records.len() as f64;
        assert!((frac - 0.3).abs() < 0.05, "write fraction {frac}");
    }

    #[test]
    fn multiprogrammed_cores_use_private_regions() {
        let records: Vec<_> = TraceGenerator::new(WorkloadKind::Multiprogrammed, 4, 23)
            .take(50_000)
            .collect();
        // Odd cores stream privately: same class, different cores, must not
        // share addresses.
        let mut by_core: HashMap<u8, HashSet<u64>> = HashMap::new();
        for r in records.iter().filter(|r| r.core % 2 == 1) {
            by_core.entry(r.core).or_default().insert(r.addr.raw());
        }
        let c1 = by_core.get(&1).cloned().unwrap_or_default();
        let c3 = by_core.get(&3).cloned().unwrap_or_default();
        assert!(!c1.is_empty() && !c3.is_empty());
        assert!(c1.is_disjoint(&c3));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        TraceGenerator::new(WorkloadKind::WebSearch, 0, 1);
    }

    #[test]
    fn addresses_fall_in_class_regions() {
        let records: Vec<_> = TraceGenerator::new(WorkloadKind::WebFrontend, 8, 31)
            .take(20_000)
            .collect();
        let nclasses = WorkloadKind::WebFrontend.spec().classes.len() as u64;
        for r in &records {
            let region = r.addr.raw() >> 40;
            assert!(region >= 1 && region <= nclasses, "address {region}");
        }
    }
}
