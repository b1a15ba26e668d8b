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

    /// Stacked capacity in MB used for run sizing. Capacity-independent
    /// designs (baseline, ideal) size their runs with
    /// [`RunScale::COMPARABLE_CAPACITY_MB`].
    pub fn capacity_mb(&self) -> u64 {
        RunScale::sizing_capacity(self.design.capacity_mb())
    }

    /// Warmup records for this point.
    pub fn warmup(&self) -> u64 {
        self.scale.warmup(self.capacity_mb())
    }

    /// Measured records for this point.
    pub fn measured(&self) -> u64 {
        self.scale.measured(self.capacity_mb())
    }

    /// Human-readable label (progress lines, result emitters).
    pub fn label(&self) -> String {
        format!("{} / {}", self.workload, self.design.label())
    }

    /// The canonical text encoding of everything that influences this
    /// point's result. The design contributes its canonical JSON spec
    /// (every cache parameter and DRAM override); the `Debug` forms
    /// cover the pod config and the scale. Distinct configurations
    /// never alias.
    pub fn canonical(&self) -> String {
        format!(
            "{:?}|{}|{:?}|{:?}|{}",
            self.workload,
            self.design.to_json(),
            self.config,
            self.scale,
            self.base_seed
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

    /// Appends the full cross product `workloads × designs`.
    pub fn grid(mut self, workloads: &[WorkloadKind], designs: &[DesignSpec]) -> Self {
        for &workload in workloads {
            for &design in designs {
                self = self.point(workload, design);
            }
        }
        self
    }

    /// Appends a single point.
    pub fn point(mut self, workload: WorkloadKind, design: DesignSpec) -> Self {
        self.points.push(SweepPoint {
            workload,
            design,
            config: self.config,
            scale: self.scale,
            base_seed: self.base_seed,
        });
        self
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
