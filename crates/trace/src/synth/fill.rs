//! Windowed fills: [`TraceGenerator::fill`] synthesizes the stream in
//! parallel without changing a single record.
//!
//! The stream is every core's records sorted by (time, core) (see the
//! merge rule in the engine module), so a window is built in two
//! phases, each split into independent jobs:
//!
//! 1. *advance* — one job per core emits that core's records below a
//!    time horizon into its own run, each record with a merge key that
//!    sorts by (time, core). Job 0, claimed first, instead grows the
//!    destination by the expected window: first touch of fresh memory
//!    is slow, and started first it overlaps the cores' advance
//!    instead of trailing it.
//! 2. *merge* — the window's records are cut into equal rank ranges
//!    and each job merges its range of every core's run straight into
//!    its slice of the destination. A winner tree over the runs' head
//!    keys, padded to a power of two, picks each next record in
//!    log2(cores) compares.
//!
//! Records past the requested length stay in the generator's spill, so
//! `next` and later fills continue the identical stream. This crate
//! spawns no threads: the caller's [`Workers`] runs the jobs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fc_types::{AccessKind, Pc, PhysAddr};

use crate::record::TraceRecord;
use crate::synth::{CoreEngine, TraceGenerator};

/// Records one window aims for across all cores. Smaller fills run the
/// sequential `next` loop.
pub const WINDOW: usize = 1 << 16;

/// Longest window in instructions, so a record's merge key — its time
/// since the window start above an 8-bit core index — fits a `u64`.
const MAX_SPAN: u64 = 1 << 48;

/// Runs the independent jobs of a windowed fill.
pub trait Workers {
    /// Workers available; one means the fill runs sequentially.
    fn count(&self) -> usize;

    /// Calls `job(i)` exactly once for every `i` in `0..jobs`, in any
    /// order and on any threads, and returns once every call returned.
    fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync));
}

/// One core's records in the current window with their merge keys:
/// `(time - start) << 8 | core`, so key order is (time, core) order and
/// no two records of a window share a key. Aligned like the engines,
/// so threads filling neighbouring runs never share a cache line.
#[derive(Default)]
#[repr(align(128))]
struct CoreRun {
    keys: Vec<u64>,
    records: Vec<TraceRecord>,
}

impl CoreRun {
    /// Replaces the run with `engine`'s records below `horizon`.
    fn advance(&mut self, engine: &mut CoreEngine, core: usize, start: u64, horizon: u64) {
        self.keys.clear();
        self.records.clear();
        while engine.peek_time() < horizon {
            self.records.push(engine.emit());
            self.keys
                .push((engine.last_inst() - start) << 8 | core as u64);
        }
    }

    /// Records keyed below `key`.
    fn below(&self, key: u64) -> usize {
        self.keys.partition_point(|&k| k < key)
    }
}

/// A record to size buffers with before the merge overwrites it.
const BLANK: TraceRecord = TraceRecord {
    pc: Pc::new(0),
    addr: PhysAddr::new(0),
    kind: AccessKind::Read,
    core: 0,
    inst_gap: 1,
};

impl TraceGenerator {
    /// Appends the stream's next `n` records to `out`: exactly the
    /// records `n` calls of `next` would return, in the same order.
    ///
    /// With one worker, or fewer than [`WINDOW`] records still to make,
    /// this is the `next` loop on the calling thread. Otherwise the
    /// records are synthesized window by window, each window's advance
    /// and merge phases split into jobs for `workers`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fc_trace::synth::{Workers, WINDOW};
    /// use fc_trace::{TraceGenerator, WorkloadKind};
    ///
    /// /// Two "workers" that run every job in turn on this thread.
    /// struct InOrder;
    /// impl Workers for InOrder {
    ///     fn count(&self) -> usize {
    ///         2
    ///     }
    ///     fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
    ///         (0..jobs).for_each(job);
    ///     }
    /// }
    ///
    /// let mut windowed = TraceGenerator::new(WorkloadKind::WebSearch, 4, 7);
    /// let mut records = Vec::new();
    /// windowed.fill(&mut records, WINDOW + 5, &InOrder);
    /// let sequential: Vec<_> = TraceGenerator::new(WorkloadKind::WebSearch, 4, 7)
    ///     .take(WINDOW + 6)
    ///     .collect();
    /// assert_eq!(records[..], sequential[..WINDOW + 5]);
    /// // The overshoot stays buffered: the stream continues unchanged.
    /// assert_eq!(windowed.next(), Some(sequential[WINDOW + 5]));
    /// ```
    pub fn fill(&mut self, out: &mut Vec<TraceRecord>, n: usize, workers: &dyn Workers) {
        let buffered = (self.spill.len() - self.spill_at).min(n);
        out.extend_from_slice(&self.spill[self.spill_at..self.spill_at + buffered]);
        self.spill_at += buffered;
        let mut need = n - buffered;
        out.reserve(need);
        if workers.count() <= 1 || need < WINDOW {
            out.extend(self.by_ref().take(need));
            return;
        }
        let mut runs: Vec<CoreRun> = self.cores.iter().map(|_| CoreRun::default()).collect();
        while need > 0 {
            need -= self.window(&mut runs, out, need, workers);
        }
    }

    /// Synthesizes one window — every core's records below a horizon —
    /// and merges it by (time, core): the first `need` records onto
    /// `out`, the rest into the spill. Returns the records appended.
    fn window(
        &mut self,
        runs: &mut [CoreRun],
        out: &mut Vec<TraceRecord>,
        need: usize,
        workers: &dyn Workers,
    ) -> usize {
        debug_assert_eq!(self.spill_at, self.spill.len(), "spill drained first");
        let start = self
            .cores
            .iter()
            .map(CoreEngine::peek_time)
            .min()
            .expect("at least one core");
        // Saturating float-to-int cast; at least one record is emitted.
        let span = ((WINDOW as f64 / self.rate).ceil() as u64).clamp(1, MAX_SPAN);
        let horizon = start.saturating_add(span);

        // Job 0 grows `out` by the expected window, first so that its
        // slow first touch overlaps the cores' advance (see the module
        // doc); job `1 + c` advances core `c`.
        let base = out.len();
        let lanes: Vec<Mutex<(&mut CoreEngine, &mut CoreRun)>> = self
            .cores
            .iter_mut()
            .zip(runs.iter_mut())
            .map(Mutex::new)
            .collect();
        let grow = Mutex::new(&mut *out);
        run_each(workers, lanes.len() + 1, &|job| match job.checked_sub(1) {
            None => grow
                .lock()
                .expect("destination")
                .resize(base + need.min(WINDOW), BLANK),
            Some(core) => {
                let mut lane = lanes[core].lock().expect("core lane");
                let (engine, run) = &mut *lane;
                run.advance(engine, core, start, horizon);
            }
        });
        drop((lanes, grow));
        let total: usize = runs.iter().map(|run| run.records.len()).sum();
        self.rate = total as f64 / span as f64;

        // Cut the window into one equal rank range per worker, plus a
        // cut where the destination switches from `out` to the spill.
        let take = total.min(need);
        let parts = workers.count();
        let mut cuts: Vec<usize> = (0..=parts).map(|i| total * i / parts).collect();
        cuts.push(take);
        cuts.sort_unstable();
        cuts.dedup();
        let splits: Vec<Vec<usize>> = cuts.iter().map(|&rank| rank_split(runs, rank)).collect();

        out.resize(base + take, BLANK);
        self.spill.clear();
        self.spill.resize(total - take, BLANK);
        self.spill_at = 0;
        let (mut head, mut tail) = (&mut out[base..], &mut self.spill[..]);
        let segments: Vec<Mutex<&mut [TraceRecord]>> = cuts
            .windows(2)
            .map(|cut| {
                let rest = if cut[1] <= take { &mut head } else { &mut tail };
                let (segment, after) = std::mem::take(rest).split_at_mut(cut[1] - cut[0]);
                *rest = after;
                Mutex::new(segment)
            })
            .collect();
        let runs = &*runs;
        run_each(workers, segments.len(), &|s| {
            let mut dest = segments[s].lock().expect("merge segment");
            merge(runs, &splits[s], &splits[s + 1], &mut dest);
        });
        take
    }
}

/// Runs `jobs` jobs on `workers` and checks that each ran once: a
/// skipped job would leave blank records in the stream.
fn run_each(workers: &dyn Workers, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
    let ran = AtomicUsize::new(0);
    workers.run(jobs, &|i| {
        job(i);
        ran.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ran.into_inner(), jobs, "Workers::run ran every job once");
}

/// Per-core record counts of the window's first `rank` records in key
/// order.
fn rank_split(runs: &[CoreRun], rank: usize) -> Vec<usize> {
    // Keys are distinct, so the count of keys below `key` steps by one:
    // the largest key with at most `rank` below it has exactly `rank`.
    let below = |key: u64| runs.iter().map(|run| run.below(key)).sum::<usize>();
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if below(mid) <= rank {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    runs.iter().map(|run| run.below(lo)).collect()
}

/// Merges records `from[c]..to[c]` of every core `c`'s run into `dest`
/// in key order.
fn merge(runs: &[CoreRun], from: &[usize], to: &[usize], dest: &mut [TraceRecord]) {
    let mut at = from.to_vec();
    let head = |core: usize, at: usize| {
        if at < to[core] {
            runs[core].keys[at]
        } else {
            u64::MAX
        }
    };
    // Winner tree: leaf `leaves + c` holds core `c`'s head key (padding
    // leaves hold `u64::MAX`) and every inner node the smaller of its
    // children's, so the root is the next key, and taking a record
    // replays only the path above its core's leaf.
    let leaves = runs.len().next_power_of_two();
    let mut tree = vec![u64::MAX; 2 * leaves];
    for (core, &at) in at.iter().enumerate() {
        tree[leaves + core] = head(core, at);
    }
    for node in (1..leaves).rev() {
        tree[node] = tree[2 * node].min(tree[2 * node + 1]);
    }
    for slot in dest.iter_mut() {
        let core = (tree[1] & 0xff) as usize;
        *slot = runs[core].records[at[core]];
        at[core] += 1;
        let mut node = leaves + core;
        tree[node] = head(core, at[core]);
        while node > 1 {
            tree[node / 2] = tree[node].min(tree[node ^ 1]);
            node /= 2;
        }
    }
    debug_assert_eq!(at, to, "segment fully merged");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{ClassSpec, CoreSet, PageSelect, PatternFamily, WorkloadKind, WorkloadSpec};

    /// `count` workers on scoped threads claiming jobs from a cursor,
    /// so jobs finish in a different order on every run.
    struct Threads(usize);

    impl Workers for Threads {
        fn count(&self) -> usize {
            self.0
        }

        fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..self.0.min(jobs) {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        job(i);
                    });
                }
            });
        }
    }

    /// Steps `None` are one `next()`; `Some(n)` is a fill of `n`.
    /// Several fills end mid-window, so later steps start from a spill.
    const STEPS: [Option<usize>; 12] = [
        None,
        Some(0),
        Some(1),
        None,
        Some(WINDOW - 1),
        Some(WINDOW + 1),
        None,
        None,
        Some(WINDOW / 2 + 13),
        Some(1),
        Some(WINDOW + WINDOW / 3),
        None,
    ];

    fn interleaved(mut generator: TraceGenerator, workers: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for step in STEPS {
            match step {
                None => out.push(generator.next().expect("infinite")),
                Some(n) => {
                    let before = out.len();
                    generator.fill(&mut out, n, &Threads(workers));
                    assert_eq!(out.len(), before + n);
                }
            }
        }
        out
    }

    fn check_cores(cores: u8) {
        for kind in WorkloadKind::ALL {
            let want: Vec<_> = TraceGenerator::new(kind, cores, 7)
                .take(interleaved_len())
                .collect();
            for workers in [1, 2, 3, 8] {
                let got = interleaved(TraceGenerator::new(kind, cores, 7), workers);
                let first_diff = got.iter().zip(&want).position(|(g, w)| g != w);
                assert!(
                    first_diff.is_none() && got.len() == want.len(),
                    "{kind:?}, {cores} cores, {workers} workers: first difference at {first_diff:?}"
                );
            }
        }
    }

    fn interleaved_len() -> usize {
        STEPS.iter().map(|s| s.unwrap_or(1)).sum()
    }

    /// Records per pinned digest: about 15 windows of a 16-core stream
    /// and 6 SAT Solver pattern re-derivations.
    const PINNED_RECORDS: usize = 1_000_000;

    /// [`records_digest`](crate::records_digest) of the first
    /// [`PINNED_RECORDS`] records of each workload's 16-core stream at
    /// seed 1. Any change to the synthesized stream changes these.
    const PINNED: [(WorkloadKind, u64); 6] = [
        (WorkloadKind::DataServing, 0x6539_f2dd_00e4_1062),
        (WorkloadKind::MapReduce, 0xe23d_dc83_156e_2914),
        (WorkloadKind::Multiprogrammed, 0x9ce0_c404_a596_5127),
        (WorkloadKind::SatSolver, 0xb0fa_58e0_2e12_4851),
        (WorkloadKind::WebFrontend, 0x4567_9df6_d594_ab61),
        (WorkloadKind::WebSearch, 0x8c2d_f3d2_90cd_701f),
    ];

    #[test]
    fn pinned_digests_through_next() {
        for (kind, digest) in PINNED {
            let got = crate::records_digest(TraceGenerator::new(kind, 16, 1).take(PINNED_RECORDS));
            assert_eq!(got, digest, "{kind:?}: {got:#018x}");
        }
    }

    #[test]
    fn pinned_digests_through_fill() {
        for (kind, digest) in PINNED {
            for workers in [2, 3] {
                let mut out = Vec::new();
                TraceGenerator::new(kind, 16, 1).fill(&mut out, PINNED_RECORDS, &Threads(workers));
                let got = crate::records_digest(out);
                assert_eq!(got, digest, "{kind:?}, {workers} workers: {got:#018x}");
            }
        }
    }

    #[test]
    fn windowed_fill_matches_next_on_one_core() {
        check_cores(1);
    }

    #[test]
    fn windowed_fill_matches_next_on_three_cores() {
        check_cores(3);
    }

    #[test]
    fn windowed_fill_matches_next_on_four_cores() {
        check_cores(4);
    }

    #[test]
    fn windowed_fill_matches_next_on_five_cores() {
        check_cores(5);
    }

    #[test]
    fn windowed_fill_matches_next_on_sixteen_cores() {
        check_cores(16);
    }

    #[test]
    #[should_panic(expected = "ran every job once")]
    fn skipped_jobs_are_caught() {
        struct SkipsLast;
        impl Workers for SkipsLast {
            fn count(&self) -> usize {
                2
            }
            fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
                (1..jobs).for_each(job);
            }
        }
        let mut out = Vec::new();
        TraceGenerator::new(WorkloadKind::WebSearch, 4, 1).fill(&mut out, WINDOW, &SkipsLast);
    }

    #[test]
    fn equal_times_go_to_the_lowest_core_first() {
        // Twice the accesses a core can issue: every core emits at every
        // instruction, so both cores' times tie on every record.
        let spec = WorkloadSpec {
            name: "ties",
            phase_len: None,
            classes: vec![ClassSpec {
                name: "saturated",
                access_rate: 2.0,
                visit_duration: 1_000,
                pattern: PatternFamily::Dense { min: 4, max: 8 },
                select: PageSelect::Uniform,
                pages: 1 << 12,
                write_frac: 0.3,
                reuse: 0.5,
                functions: 4,
                aligned: false,
                cores: CoreSet::All,
                private_region: false,
            }],
        };
        let n = 2 * WINDOW + 3;
        let want: Vec<_> = TraceGenerator::from_spec(&spec, 2, 5).take(n).collect();
        for (i, record) in want.iter().enumerate() {
            assert_eq!(record.core as usize, i % 2, "record {i}");
            assert_eq!(record.inst_gap, 1, "record {i}");
        }
        for workers in [2, 3] {
            let mut got = Vec::new();
            TraceGenerator::from_spec(&spec, 2, 5).fill(&mut got, n, &Threads(workers));
            assert!(got == want, "{workers} workers");
        }
    }
}
