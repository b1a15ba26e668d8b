//! Declarative sweep descriptions: points and grids.

use fc_sim::{DesignSpec, SimConfig, DESIGN_FAMILIES};
use fc_trace::WorkloadKind;

use crate::scale::RunScale;
use crate::store::PointKey;

/// The registry families a named figure grid sweeps (`fig4`, `fig5`,
/// `fig67`, `designspace`), as a comma list for
/// [`resolve_designs`](fc_sim::resolve_designs).
pub fn preset_families(grid: &str) -> Option<String> {
    Some(match grid {
        // Figure 4 measures page access density on the page-based cache
        // across capacities.
        "fig4" => "page".to_string(),
        // Figure 5: miss ratio + off-chip traffic for page, footprint,
        // block, against the baseline.
        "fig5" => "baseline,page,footprint,block".to_string(),
        // Figures 6/7: performance improvement incl. the ideal bound.
        "fig67" => "baseline,ideal,block,page,footprint".to_string(),
        // The whole registry: every family the reproduction knows.
        "designspace" => {
            let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
            names.join(",")
        }
        _ => return None,
    })
}

/// The workload called `name` (ASCII case and surrounding whitespace
/// ignored).
pub fn parse_workload(name: &str) -> Result<WorkloadKind, String> {
    WorkloadKind::from_name(name.trim()).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; pick from: {}",
            WorkloadKind::ALL.map(|w| w.name()).join(", ")
        )
    })
}

/// One experiment in a sweep: a fully specified, independently runnable
/// simulation. Two points with equal configuration have equal
/// [`keys`](SweepPoint::key) and always produce equal reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Workload replayed through the pod.
    pub workload: WorkloadKind,
    /// Memory-system design under evaluation.
    pub design: DesignSpec,
    /// Pod configuration (cores, L2, MLP model).
    pub config: SimConfig,
    /// Run sizing.
    pub scale: RunScale,
    /// Stacked capacity in MB the run is sized by: the design's own,
    /// or for a capacity-independent design its grid's
    /// [`comparable capacity`](RunScale::comparable_capacity).
    pub sizing_mb: u64,
    /// Base seed the per-point seed is derived from.
    pub base_seed: u64,
}

impl SweepPoint {
    /// The trace seed: a pure function of the point (never of thread
    /// count or submission order), and of the *workload* only within a
    /// sweep — so every design evaluated on a workload replays the same
    /// record stream and [`TraceCache`](crate::TraceCache) can share it.
    pub fn seed(&self) -> u64 {
        self.base_seed ^ (self.workload as u64) << 8
    }

    /// Warmup records for this point.
    pub fn warmup(&self) -> u64 {
        self.scale.warmup(self.sizing_mb)
    }

    /// Measured records for this point.
    pub fn measured(&self) -> u64 {
        self.scale.measured(self.sizing_mb)
    }

    /// Human-readable label (progress lines, result emitters).
    pub fn label(&self) -> String {
        format!("{} / {}", self.workload, self.design.label())
    }

    /// The canonical text encoding of everything that influences this
    /// point's result. The design contributes its canonical JSON spec
    /// (every cache parameter and DRAM override); the `Debug` forms
    /// cover the pod config and the scale. The sizing capacity is
    /// appended only where it moves the record counts
    /// ([`RunScale::sizing_key`]), so a point sized as it would be
    /// alone keeps its historical key. Distinct configurations never
    /// alias.
    pub fn canonical(&self) -> String {
        format!(
            "{:?}|{}|{:?}|{:?}|{}{}",
            self.workload,
            self.design.to_json(),
            self.config,
            self.scale,
            self.base_seed,
            self.scale.sizing_key(&self.design, self.sizing_mb)
        )
    }

    /// Stable memoization key for this point.
    pub fn key(&self) -> PointKey {
        PointKey::from_canonical(self.canonical())
    }
}

/// A declarative grid of sweep points.
///
/// Build one with the fluent methods, then hand it to
/// [`SweepEngine::run_spec`](crate::SweepEngine::run_spec):
///
/// ```
/// use fc_sim::DesignSpec;
/// use fc_sweep::{RunScale, SweepSpec};
/// use fc_trace::WorkloadKind;
///
/// let spec = SweepSpec::new(RunScale::quick())
///     .grid(
///         &WorkloadKind::ALL,
///         &[DesignSpec::page(64), DesignSpec::page(128)],
///     )
///     .point(WorkloadKind::WebSearch, DesignSpec::baseline());
/// assert_eq!(spec.len(), 13);
/// ```
#[derive(Clone, Debug)]
pub struct SweepSpec {
    scale: RunScale,
    config: SimConfig,
    base_seed: u64,
    points: Vec<SweepPoint>,
}

impl SweepSpec {
    /// Default base seed; matches the harness's historical seeding so
    /// sweep results are comparable with earlier sequential runs.
    pub const DEFAULT_SEED: u64 = 42;

    /// An empty spec at `scale` with the default pod config and seed.
    pub fn new(scale: RunScale) -> Self {
        Self {
            scale,
            config: SimConfig::default(),
            base_seed: Self::DEFAULT_SEED,
            points: Vec::new(),
        }
    }

    /// Sets the pod configuration for points added *after* this call.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the base seed for points added *after* this call.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Appends the full cross product `workloads × designs`. A
    /// capacity-independent design is sized by the smallest capacity
    /// among `designs` ([`RunScale::comparable_capacity`]), so it
    /// replays the records the cached designs it is compared with do.
    pub fn grid(mut self, workloads: &[WorkloadKind], designs: &[DesignSpec]) -> Self {
        let comparable = RunScale::comparable_capacity(designs);
        for &workload in workloads {
            for &design in designs {
                self.points.push(SweepPoint {
                    workload,
                    design,
                    config: self.config,
                    scale: self.scale,
                    sizing_mb: RunScale::sizing_capacity(&design, comparable),
                    base_seed: self.base_seed,
                });
            }
        }
        self
    }

    /// Appends a single point: a grid of one, so a
    /// capacity-independent design is sized at
    /// [`RunScale::COMPARABLE_CAPACITY_MB`].
    pub fn point(self, workload: WorkloadKind, design: DesignSpec) -> Self {
        self.grid(&[workload], &[design])
    }

    /// Removes duplicate points (same key), keeping first occurrences.
    /// Submitting duplicates is harmless — the result store memoizes —
    /// but deduping first gives accurate progress totals.
    pub fn dedup(mut self) -> Self {
        let mut seen = std::collections::HashSet::new();
        self.points.retain(|p| seen.insert(p.key()));
        self
    }

    /// The points, in insertion order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the spec has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_cross_product() {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch, WorkloadKind::MapReduce],
            &[
                DesignSpec::baseline(),
                DesignSpec::footprint(64),
                DesignSpec::footprint(128),
            ],
        );
        assert_eq!(spec.len(), 6);
    }

    #[test]
    fn equal_points_share_keys_distinct_points_do_not() {
        let spec = SweepSpec::new(RunScale::tiny())
            .point(WorkloadKind::WebSearch, DesignSpec::footprint(64))
            .point(WorkloadKind::WebSearch, DesignSpec::footprint(64))
            .point(WorkloadKind::WebSearch, DesignSpec::footprint(128));
        let keys: Vec<_> = spec.points().iter().map(|p| p.key()).collect();
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn dedup_preserves_order() {
        let spec = SweepSpec::new(RunScale::tiny())
            .point(WorkloadKind::WebSearch, DesignSpec::baseline())
            .point(WorkloadKind::MapReduce, DesignSpec::baseline())
            .point(WorkloadKind::WebSearch, DesignSpec::baseline())
            .dedup();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.points()[0].workload, WorkloadKind::WebSearch);
        assert_eq!(spec.points()[1].workload, WorkloadKind::MapReduce);
    }

    #[test]
    fn seed_matches_historical_lab_seeding() {
        let spec =
            SweepSpec::new(RunScale::tiny()).point(WorkloadKind::WebSearch, DesignSpec::baseline());
        let p = &spec.points()[0];
        assert_eq!(p.seed(), 42 ^ (WorkloadKind::WebSearch as u64) << 8);
    }

    /// The registry's families at `capacities`, as a designspace grid
    /// resolves them.
    fn designspace(capacities: &[u64]) -> Vec<DesignSpec> {
        let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
        fc_sim::resolve_designs(&names.join(","), capacities).expect("registry resolves")
    }

    /// The key of `label`'s Web Search point in a designspace grid.
    fn key_of(scale: RunScale, capacities: &[u64], label: &str) -> u64 {
        let spec = SweepSpec::new(scale).grid(&[WorkloadKind::WebSearch], &designspace(capacities));
        let point = spec.points().iter().find(|p| p.design.label() == label);
        point.expect("design in the grid").key().hash64()
    }

    #[test]
    fn keys_of_grids_sized_as_before_are_pinned() {
        // Computed before capacity-less designs took their grid's
        // smallest capacity: a 64 MB-floored grid (serve's memo grid,
        // the full-scale designspace) and a tiny grid, whose counts do
        // not scale with capacity, keep these keys.
        let pinned: [(RunScale, &[u64], &str, u64); 9] = [
            (
                RunScale::quick(),
                &[64, 128],
                "Baseline",
                0x5aec2dd92bc4dab4,
            ),
            (RunScale::quick(), &[64, 128], "Ideal", 0x52668b47fcd10607),
            (
                RunScale::quick(),
                &[64, 128],
                "Footprint 64MB",
                0x4d5934971c1939a6,
            ),
            (RunScale::full(), &[64], "Baseline", 0x0dc7b833610d8f43),
            (RunScale::full(), &[64], "Ideal", 0x2f7b6ad09d1b47bc),
            (
                RunScale::full(),
                &[64],
                "Footprint 64MB",
                0x4010d7f3695aed79,
            ),
            (RunScale::tiny(), &[8], "Baseline", 0xc2391c4bfbdfb088),
            (RunScale::tiny(), &[8], "Ideal", 0xaaf420ae5c734a1d),
            (RunScale::tiny(), &[8], "Footprint 8MB", 0x663a741ebda52b99),
        ];
        for (scale, capacities, label, key) in pinned {
            assert_eq!(
                key_of(scale, capacities, label),
                key,
                "{label} at {capacities:?} {scale:?}"
            );
        }
    }

    #[test]
    fn capacity_less_designs_are_sized_by_the_grids_smallest_capacity() {
        let spec = SweepSpec::new(RunScale::long())
            .grid(&[WorkloadKind::WebSearch], &designspace(&[8]))
            .point(WorkloadKind::WebSearch, DesignSpec::baseline());
        let baseline = spec.points()[0];
        assert_eq!(baseline.design, DesignSpec::baseline());
        assert_eq!(baseline.sizing_mb, 8);
        assert_eq!(
            (baseline.warmup(), baseline.measured()),
            (400_000, 4_000_000)
        );
        // A lone point keeps the historical sizing.
        let alone = spec.points().last().expect("the lone point");
        assert_eq!((alone.warmup(), alone.measured()), (1_800_000, 18_000_000));
        assert_ne!(baseline.key(), alone.key());
        assert_ne!(
            key_of(RunScale::long(), &[8], "Baseline"),
            key_of(RunScale::long(), &[64], "Baseline")
        );
    }

    #[test]
    fn custom_config_changes_key() {
        let small = SweepSpec::new(RunScale::tiny())
            .with_config(SimConfig::small())
            .point(WorkloadKind::WebSearch, DesignSpec::baseline());
        let default =
            SweepSpec::new(RunScale::tiny()).point(WorkloadKind::WebSearch, DesignSpec::baseline());
        assert_ne!(small.points()[0].key(), default.points()[0].key());
    }
}
