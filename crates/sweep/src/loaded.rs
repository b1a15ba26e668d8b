//! The loaded-latency sweep: designs × injection rates, in parallel.
//!
//! Each `(design, interval)` point builds a fresh memory system from
//! the spec and injects the same fixed-seed request stream, so —
//! exactly like [`SweepEngine`](crate::SweepEngine) — results are
//! bit-identical for any worker-thread count; only scheduling varies.

use fc_sim::loaded::{self, LoadedConfig, LoadedPoint, STANDARD_INTERVALS};
use fc_sim::DesignSpec;
use fc_trace::WorkloadKind;

use crate::pool;

/// Maps a trace-replay [`RunScale`](crate::RunScale) onto the matching
/// loaded-run sizing — the single mapping shared by `fc_sweep --grid
/// loaded` and the bench harness's loaded-latency experiment.
pub fn config_for_scale(scale: crate::RunScale) -> LoadedConfig {
    if scale == crate::RunScale::tiny() {
        LoadedConfig::tiny()
    } else if scale == crate::RunScale::full() {
        LoadedConfig::full()
    } else {
        LoadedConfig::quick()
    }
}

/// A loaded-latency grid: every design measured at every interval.
#[derive(Clone, Debug)]
pub struct LoadedGrid {
    /// Designs under test.
    pub designs: Vec<DesignSpec>,
    /// Injection intervals in core cycles (descending = rising load).
    pub intervals: Vec<u64>,
    /// Shared run sizing (workload, seed, request counts).
    pub config: LoadedConfig,
}

impl LoadedGrid {
    /// The standard curve for `designs` at `config`'s sizing.
    pub fn standard(designs: Vec<DesignSpec>, config: LoadedConfig) -> Self {
        Self {
            designs,
            intervals: STANDARD_INTERVALS.to_vec(),
            config,
        }
    }

    /// Number of points (designs × intervals).
    pub fn len(&self) -> usize {
        self.designs.len() * self.intervals.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One finished loaded-latency point.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadedResult {
    /// The workload whose access stream was injected.
    pub workload: WorkloadKind,
    /// The design measured.
    pub design: DesignSpec,
    /// The measured point.
    pub point: LoadedPoint,
}

/// Runs the grid on `threads` workers; results come back grouped by
/// design in grid order (each design's curve ascending in load), and
/// are bit-identical for any thread count.
pub fn run_loaded(grid: &LoadedGrid, threads: usize) -> Vec<LoadedResult> {
    let points: Vec<(usize, u64)> = grid
        .designs
        .iter()
        .enumerate()
        .flat_map(|(d, _)| grid.intervals.iter().map(move |&i| (d, i)))
        .collect();
    let measured = pool::par_map(threads, &points, |&(d, interval)| {
        loaded::measure(&grid.designs[d], interval, &grid.config)
    });

    points
        .iter()
        .zip(measured)
        .map(|(&(d, _), point)| LoadedResult {
            workload: grid.config.workload,
            design: grid.designs[d],
            point,
        })
        .collect()
}

/// Groups results into per-design curves, preserving grid order.
pub fn curves(results: &[LoadedResult]) -> Vec<(DesignSpec, Vec<LoadedPoint>)> {
    let mut out: Vec<(DesignSpec, Vec<LoadedPoint>)> = Vec::new();
    for r in results {
        match out.last_mut() {
            Some((d, pts)) if *d == r.design => pts.push(r.point),
            _ => out.push((r.design, vec![r.point])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> LoadedGrid {
        LoadedGrid {
            designs: vec![DesignSpec::baseline(), DesignSpec::footprint(64)],
            intervals: vec![96, 8],
            config: LoadedConfig {
                warmup: 500,
                requests: 500,
                ..LoadedConfig::tiny()
            },
        }
    }

    #[test]
    fn parallel_loaded_equals_sequential() {
        let grid = tiny_grid();
        let seq = run_loaded(&grid, 1);
        let par = run_loaded(&grid, 4);
        assert_eq!(seq.len(), grid.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.design, b.design);
            assert_eq!(a.point, b.point, "{} diverged", a.design.label());
        }
    }

    #[test]
    fn curves_group_by_design_in_order() {
        let results = run_loaded(&tiny_grid(), 2);
        let grouped = curves(&results);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0.label(), "Baseline");
        assert_eq!(grouped[0].1.len(), 2);
        assert_eq!(grouped[1].1.len(), 2);
    }
}
