//! Synthetic scale-out workload generators.
//!
//! Each workload is a weighted mix of **data classes**. A class describes
//! one kind of data structure traversal: how often it is accessed
//! (`access_rate`), how long one page visit stretches in instructions
//! (`visit_duration` — the knob behind Figure 4's density-vs-capacity
//! growth), the footprint *pattern* its access functions produce, how pages
//! are selected (Zipf-skewed, uniform, or sequential scan), the write
//! fraction, and the revisit probability.
//!
//! Every class owns a set of synthetic *access functions* (PCs). A
//! function's footprint pattern is derived deterministically from
//! (workload seed, class, function, phase), which is exactly the
//! PC-correlation property the footprint predictor exploits (Section 3.1):
//! the same code touching the same structure touches the same offsets.
//! The SAT Solver workload periodically re-derives patterns ("phase
//! drift"), reproducing the prediction interference the paper reports for
//! its on-the-fly datasets.

mod engine;
mod fill;
mod pattern;
mod zipf;

pub use engine::TraceGenerator;
pub use fill::{Workers, WINDOW};
pub use pattern::PatternFamily;
pub use zipf::Zipf;

pub(crate) use engine::CoreEngine;
pub(crate) use pattern::splitmix;

use serde::{Deserialize, Serialize};

/// How a class picks the next page to visit.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PageSelect {
    /// Zipf-skewed random choice with the given theta (popularity skew).
    Zipf(f64),
    /// Uniform random choice over the region.
    Uniform,
    /// Sequential scan through the region (per-core cursor).
    Sequential,
}

/// Which cores run a class (the multiprogrammed mix gives different cores
/// different programs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreSet {
    /// Every core runs this class.
    All,
    /// Only even-numbered cores.
    Even,
    /// Only odd-numbered cores.
    Odd,
}

impl CoreSet {
    /// Whether `core` belongs to the set.
    pub fn contains(self, core: u8) -> bool {
        match self {
            CoreSet::All => true,
            CoreSet::Even => core.is_multiple_of(2),
            CoreSet::Odd => core % 2 == 1,
        }
    }
}

/// One data class of a synthetic workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassSpec {
    /// Human-readable label (appears nowhere in the trace; debugging aid).
    pub name: &'static str,
    /// Memory accesses per instruction per core contributed by this class
    /// (at the post-L1 filter level the traces model).
    pub access_rate: f64,
    /// Mean instructions over which one page visit spreads its touches.
    pub visit_duration: u64,
    /// Footprint pattern family of this class's access functions.
    pub pattern: PatternFamily,
    /// Page selection policy.
    pub select: PageSelect,
    /// Region size in 2 KB structure chunks.
    pub pages: u64,
    /// Fraction of touches that are stores.
    pub write_frac: f64,
    /// Probability that a completed visit is followed by a revisit of the
    /// same page (temporal reuse at the DRAM cache level).
    pub reuse: f64,
    /// Number of distinct access functions (PCs).
    pub functions: u16,
    /// Whether structures are aligned: `true` fixes each function's start
    /// offset, `false` draws it per visit (exercising the offset part of
    /// the PC & offset key).
    pub aligned: bool,
    /// Cores that run this class.
    pub cores: CoreSet,
    /// Whether each core gets a private copy of the region
    /// (multiprogrammed workloads).
    pub private_region: bool,
}

/// A complete synthetic workload description.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name as it appears in the paper's figures.
    pub name: &'static str,
    /// The data classes making up the workload.
    pub classes: Vec<ClassSpec>,
    /// Instructions between pattern re-derivations (SAT Solver phase
    /// drift), or `None` for stable patterns.
    pub phase_len: Option<u64>,
}

impl WorkloadSpec {
    /// Total access rate (accesses per instruction per core), summed over
    /// classes, averaged over the core sets.
    pub fn total_access_rate(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| {
                let share = match c.cores {
                    CoreSet::All => 1.0,
                    CoreSet::Even | CoreSet::Odd => 0.5,
                };
                c.access_rate * share
            })
            .sum()
    }

    /// Estimated off-chip bandwidth demand per core in GB/s for a baseline
    /// system without a DRAM cache at IPC 1 (64 bytes per access, 3 GHz).
    /// The paper's workloads land at 0.6–1.6 GB/s per core (Section 5.3).
    pub fn baseline_bandwidth_gbs_per_core(&self) -> f64 {
        self.total_access_rate() * 64.0 * 3.0
    }

    /// Scales every region size by `factor` (useful for fast tests; the
    /// experiments use the full datasets).
    pub fn scale_dataset(mut self, factor: f64) -> Self {
        for c in &mut self.classes {
            c.pages = ((c.pages as f64 * factor).round() as u64).max(64);
        }
        self
    }
}

/// The six evaluated workloads (Section 5.3): five scale-out workloads
/// from CloudSuite 1.0 plus a multiprogrammed SPEC INT2006 mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Data Serving (Cassandra-like key-value store): the most
    /// bandwidth-hungry workload (Figures 5 and 7).
    DataServing,
    /// MapReduce (text processing): wide scans whose pages show very low
    /// density at small caches, growing strongly with capacity.
    MapReduce,
    /// Multiprogrammed SPEC INT2006 mix: per-core private datasets, some
    /// resident at 512 MB (bimodal density, no regular trend).
    Multiprogrammed,
    /// SAT Solver (symbolic execution): builds its dataset on the fly;
    /// pattern drift interferes with prediction.
    SatSolver,
    /// Web Frontend (PHP serving): moderate density, session-state writes.
    WebFrontend,
    /// Web Search (index serving): dense posting-list scans.
    WebSearch,
}

impl WorkloadKind {
    /// All workloads in the paper's figure order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::DataServing,
        WorkloadKind::MapReduce,
        WorkloadKind::Multiprogrammed,
        WorkloadKind::SatSolver,
        WorkloadKind::WebFrontend,
        WorkloadKind::WebSearch,
    ];

    /// The workload's display name (matches the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::DataServing => "Data Serving",
            WorkloadKind::MapReduce => "MapReduce",
            WorkloadKind::Multiprogrammed => "Multiprogrammed",
            WorkloadKind::SatSolver => "SAT Solver",
            WorkloadKind::WebFrontend => "Web Frontend",
            WorkloadKind::WebSearch => "Web Search",
        }
    }

    /// The workload whose [`name`](Self::name) matches, ignoring ASCII
    /// case.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(name))
    }

    /// The generative model for this workload. Parameters are documented
    /// class by class; rates target the paper's 0.6–1.6 GB/s per-core
    /// baseline bandwidth band, and visit durations are sized against
    /// 64–512 MB cache residencies so density grows with capacity
    /// (Figure 4).
    pub fn spec(self) -> WorkloadSpec {
        match self {
            WorkloadKind::DataServing => WorkloadSpec {
                name: self.name(),
                phase_len: None,
                classes: vec![
                    ClassSpec {
                        name: "record-read",
                        access_rate: 0.0045,
                        visit_duration: 1_800_000,
                        pattern: PatternFamily::Dense { min: 6, max: 24 },
                        select: PageSelect::Zipf(0.85),
                        pages: 4_000_000, // 8 GB of records
                        write_frac: 0.05,
                        reuse: 0.15,
                        functions: 24,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "memtable-write",
                        access_rate: 0.0012,
                        visit_duration: 400_000,
                        pattern: PatternFamily::Dense { min: 3, max: 10 },
                        select: PageSelect::Zipf(0.7),
                        pages: 512_000, // 1 GB memtable/log
                        write_frac: 0.8,
                        reuse: 0.2,
                        functions: 8,
                        aligned: true,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "index-probe",
                        access_rate: 0.0004,
                        visit_duration: 10_000,
                        pattern: PatternFamily::Singleton,
                        select: PageSelect::Uniform,
                        pages: 4_000_000,
                        write_frac: 0.05,
                        reuse: 0.02,
                        functions: 6,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                ],
            },
            WorkloadKind::MapReduce => WorkloadSpec {
                name: self.name(),
                phase_len: None,
                classes: vec![
                    ClassSpec {
                        name: "input-scan",
                        access_rate: 0.0022,
                        visit_duration: 25_000_000,
                        pattern: PatternFamily::Full,
                        select: PageSelect::Sequential,
                        pages: 6_000_000, // 12 GB input
                        write_frac: 0.02,
                        reuse: 0.0,
                        functions: 6,
                        aligned: true,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "hash-lookup",
                        access_rate: 0.0005,
                        visit_duration: 10_000,
                        pattern: PatternFamily::Singleton,
                        select: PageSelect::Uniform,
                        pages: 2_000_000,
                        write_frac: 0.3,
                        reuse: 0.03,
                        functions: 4,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "intermediate-write",
                        access_rate: 0.001,
                        visit_duration: 640_000,
                        pattern: PatternFamily::Dense { min: 4, max: 12 },
                        select: PageSelect::Sequential,
                        pages: 1_000_000,
                        write_frac: 0.9,
                        reuse: 0.05,
                        functions: 8,
                        aligned: true,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                ],
            },
            WorkloadKind::Multiprogrammed => WorkloadSpec {
                name: self.name(),
                phase_len: None,
                classes: vec![
                    ClassSpec {
                        name: "resident-working-set",
                        access_rate: 0.004,
                        visit_duration: 540_000,
                        pattern: PatternFamily::Dense { min: 8, max: 28 },
                        select: PageSelect::Zipf(0.3),
                        pages: 12_000, // 24 MB per even core; 8 cores fit in 512 MB
                        write_frac: 0.25,
                        reuse: 0.5,
                        functions: 16,
                        aligned: true,
                        cores: CoreSet::Even,
                        private_region: true,
                    },
                    ClassSpec {
                        name: "streaming-scan",
                        access_rate: 0.003,
                        visit_duration: 1_600_000,
                        pattern: PatternFamily::Full,
                        select: PageSelect::Sequential,
                        pages: 1_500_000, // 3 GB per odd core
                        write_frac: 0.1,
                        reuse: 0.0,
                        functions: 4,
                        aligned: true,
                        cores: CoreSet::Odd,
                        private_region: true,
                    },
                    ClassSpec {
                        name: "pointer-chase",
                        access_rate: 0.0012,
                        visit_duration: 10_000,
                        pattern: PatternFamily::Singleton,
                        select: PageSelect::Uniform,
                        pages: 800_000,
                        write_frac: 0.15,
                        reuse: 0.05,
                        functions: 8,
                        aligned: false,
                        cores: CoreSet::Odd,
                        private_region: true,
                    },
                ],
            },
            WorkloadKind::SatSolver => WorkloadSpec {
                name: self.name(),
                // Patterns re-derive every 3M instructions: the on-the-fly
                // dataset interferes with the prediction mechanism
                // (Section 6.2).
                phase_len: Some(3_000_000),
                classes: vec![
                    ClassSpec {
                        name: "clause-walk",
                        access_rate: 0.0018,
                        visit_duration: 525_000,
                        pattern: PatternFamily::Sparse { min: 3, max: 12 },
                        select: PageSelect::Uniform,
                        pages: 2_500_000, // 5 GB clause database
                        write_frac: 0.2,
                        reuse: 0.1,
                        functions: 16,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "watch-list",
                        access_rate: 0.0006,
                        visit_duration: 8_000,
                        pattern: PatternFamily::Singleton,
                        select: PageSelect::Uniform,
                        pages: 2_500_000,
                        write_frac: 0.3,
                        reuse: 0.02,
                        functions: 6,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "learned-clauses",
                        access_rate: 0.0008,
                        visit_duration: 300_000,
                        pattern: PatternFamily::Dense { min: 2, max: 10 },
                        select: PageSelect::Sequential,
                        pages: 1_000_000,
                        write_frac: 0.75,
                        reuse: 0.05,
                        functions: 8,
                        aligned: true,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                ],
            },
            WorkloadKind::WebFrontend => WorkloadSpec {
                name: self.name(),
                phase_len: None,
                classes: vec![
                    ClassSpec {
                        name: "object-read",
                        access_rate: 0.002,
                        visit_duration: 1_000_000,
                        pattern: PatternFamily::Dense { min: 4, max: 16 },
                        select: PageSelect::Zipf(0.75),
                        pages: 2_000_000, // 4 GB of objects
                        write_frac: 0.1,
                        reuse: 0.2,
                        functions: 20,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "session-write",
                        access_rate: 0.001,
                        visit_duration: 250_000,
                        pattern: PatternFamily::Dense { min: 2, max: 8 },
                        select: PageSelect::Zipf(0.6),
                        pages: 500_000,
                        write_frac: 0.6,
                        reuse: 0.25,
                        functions: 10,
                        aligned: true,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "cache-miss-probe",
                        access_rate: 0.0004,
                        visit_duration: 10_000,
                        pattern: PatternFamily::Singleton,
                        select: PageSelect::Uniform,
                        pages: 2_000_000,
                        write_frac: 0.1,
                        reuse: 0.02,
                        functions: 6,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "hot-template",
                        access_rate: 0.0008,
                        visit_duration: 960_000,
                        pattern: PatternFamily::Dense { min: 8, max: 24 },
                        select: PageSelect::Zipf(0.9),
                        pages: 128_000, // 256 MB of templates/code-like data
                        write_frac: 0.02,
                        reuse: 0.3,
                        functions: 12,
                        aligned: true,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                ],
            },
            WorkloadKind::WebSearch => WorkloadSpec {
                name: self.name(),
                phase_len: None,
                classes: vec![
                    ClassSpec {
                        name: "posting-scan",
                        access_rate: 0.002,
                        visit_duration: 3_300_000,
                        pattern: PatternFamily::Dense { min: 12, max: 32 },
                        select: PageSelect::Zipf(0.6),
                        pages: 5_000_000, // 10 GB index
                        write_frac: 0.02,
                        reuse: 0.1,
                        functions: 10,
                        aligned: true,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "doc-fetch",
                        access_rate: 0.001,
                        visit_duration: 320_000,
                        pattern: PatternFamily::Dense { min: 4, max: 12 },
                        select: PageSelect::Zipf(0.8),
                        pages: 2_000_000,
                        write_frac: 0.05,
                        reuse: 0.15,
                        functions: 8,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "rare-probe",
                        access_rate: 0.00015,
                        visit_duration: 10_000,
                        pattern: PatternFamily::Singleton,
                        select: PageSelect::Uniform,
                        pages: 5_000_000,
                        write_frac: 0.05,
                        reuse: 0.01,
                        functions: 4,
                        aligned: false,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                    ClassSpec {
                        name: "score-accumulate",
                        access_rate: 0.0003,
                        visit_duration: 120_000,
                        pattern: PatternFamily::Dense { min: 2, max: 6 },
                        select: PageSelect::Sequential,
                        pages: 200_000,
                        write_frac: 0.85,
                        reuse: 0.1,
                        functions: 6,
                        aligned: true,
                        cores: CoreSet::All,
                        private_region: false,
                    },
                ],
            },
        }
    }
}

impl core::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_construct() {
        for kind in WorkloadKind::ALL {
            let spec = kind.spec();
            assert!(!spec.classes.is_empty(), "{kind} has no classes");
            assert_eq!(spec.name, kind.name());
        }
    }

    #[test]
    fn bandwidth_demand_in_paper_band() {
        // Section 5.3: 0.6–1.6 GB/s per core on the baseline chip.
        for kind in WorkloadKind::ALL {
            let bw = kind.spec().baseline_bandwidth_gbs_per_core();
            assert!(
                (0.5..=1.8).contains(&bw),
                "{kind}: baseline demand {bw:.2} GB/s/core outside band"
            );
        }
    }

    #[test]
    fn data_serving_is_most_bandwidth_hungry() {
        let ds = WorkloadKind::DataServing
            .spec()
            .baseline_bandwidth_gbs_per_core();
        for kind in WorkloadKind::ALL {
            if kind != WorkloadKind::DataServing {
                assert!(ds > kind.spec().baseline_bandwidth_gbs_per_core());
            }
        }
    }

    #[test]
    fn datasets_far_exceed_largest_cache() {
        // The combined region must dwarf 512 MB (Section 5.3: footprints
        // exceed the 16-32 GB available memory; we only need ≫ cache).
        for kind in WorkloadKind::ALL {
            let bytes: u64 = kind.spec().classes.iter().map(|c| c.pages * 2048).sum();
            assert!(
                bytes > 4 * 512 * 1024 * 1024,
                "{kind}: dataset only {} MB",
                bytes >> 20
            );
        }
    }

    #[test]
    fn scale_dataset_shrinks_regions() {
        let spec = WorkloadKind::WebSearch.spec().scale_dataset(0.01);
        for c in &spec.classes {
            assert!(c.pages >= 64);
        }
        assert!(spec.classes[0].pages <= 50_000);
    }

    #[test]
    fn core_sets_partition() {
        assert!(CoreSet::All.contains(0) && CoreSet::All.contains(7));
        assert!(CoreSet::Even.contains(2) && !CoreSet::Even.contains(3));
        assert!(CoreSet::Odd.contains(3) && !CoreSet::Odd.contains(2));
    }

    #[test]
    fn only_sat_solver_drifts() {
        for kind in WorkloadKind::ALL {
            let drift = kind.spec().phase_len.is_some();
            assert_eq!(drift, kind == WorkloadKind::SatSolver);
        }
    }
}
