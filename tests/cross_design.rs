//! Cross-design ordering tests: the qualitative results the paper's
//! evaluation hinges on must hold in the reproduction at test scale.
//! These encode Figure 5's orderings, the singleton ablation direction
//! (Section 6.5), and the sub-blocked extreme (Section 3.1).

use fc_sim::{DesignSpec, SimConfig, SimReport, Simulation};
use fc_trace::WorkloadKind;

// Test scale: enough for FHT training (evictions at 64 MB start early).
const WARMUP: u64 = 900_000;
const MEASURED: u64 = 400_000;
const MB: u64 = 64;

fn run(design: DesignSpec, workload: WorkloadKind) -> SimReport {
    let mut sim = Simulation::new(SimConfig::default(), design);
    sim.run_workload(workload, 77, WARMUP, MEASURED)
}

#[test]
fn miss_ratio_ordering_page_footprint_block() {
    // Figure 5a: page <= footprint << block for a high-density workload.
    let w = WorkloadKind::WebSearch;
    let page = run(DesignSpec::page(MB), w).cache.miss_ratio();
    let fp = run(DesignSpec::footprint(MB), w).cache.miss_ratio();
    let block = run(DesignSpec::block(MB), w).cache.miss_ratio();
    assert!(
        page <= fp + 0.05,
        "page ({page:.3}) should be at or below footprint ({fp:.3})"
    );
    assert!(
        fp < block * 0.6,
        "footprint ({fp:.3}) must be far below block ({block:.3})"
    );
}

#[test]
fn offchip_traffic_ordering_block_footprint_page() {
    // Figure 5b: block <= footprint << page.
    let w = WorkloadKind::WebSearch;
    let page = run(DesignSpec::page(MB), w).offchip_bytes_per_inst();
    let fp = run(DesignSpec::footprint(MB), w).offchip_bytes_per_inst();
    let block = run(DesignSpec::block(MB), w).offchip_bytes_per_inst();
    assert!(
        fp < page * 0.5,
        "footprint traffic ({fp:.3}) must be far below page ({page:.3})"
    );
    assert!(
        fp < block * 1.8,
        "footprint traffic ({fp:.3}) must be near block ({block:.3})"
    );
}

#[test]
fn page_cache_inflates_traffic_over_baseline() {
    // Figure 5b's key indictment of page-based caching.
    let w = WorkloadKind::DataServing;
    let base = run(DesignSpec::baseline(), w).offchip_bytes_per_inst();
    let page = run(DesignSpec::page(MB), w).offchip_bytes_per_inst();
    assert!(
        page > base * 2.0,
        "page-based ({page:.3}) must inflate traffic well beyond baseline ({base:.3})"
    );
}

#[test]
fn footprint_outperforms_baseline_and_page_on_bandwidth_bound_workload() {
    // Figure 7: Data Serving.
    let w = WorkloadKind::DataServing;
    let base = run(DesignSpec::baseline(), w).throughput();
    let page = run(DesignSpec::page(MB), w).throughput();
    let fp = run(DesignSpec::footprint(MB), w).throughput();
    assert!(
        fp > base,
        "footprint ({fp:.3}) must beat baseline ({base:.3})"
    );
    assert!(fp > page, "footprint ({fp:.3}) must beat page ({page:.3})");
}

#[test]
fn ideal_is_an_upper_bound() {
    let w = WorkloadKind::WebFrontend;
    let ideal = run(DesignSpec::ideal(), w).throughput();
    for design in [
        DesignSpec::baseline(),
        DesignSpec::block(MB),
        DesignSpec::footprint(MB),
    ] {
        let t = run(design, w).throughput();
        assert!(
            t <= ideal * 1.02,
            "{} ({t:.3}) exceeded ideal ({ideal:.3})",
            design.label()
        );
    }
}

#[test]
fn singleton_optimization_does_not_hurt_miss_rate() {
    // Section 6.5: removing singleton pages frees capacity.
    let w = WorkloadKind::DataServing;
    let with = run(DesignSpec::footprint(MB), w).cache.miss_ratio();
    let without = run(DesignSpec::footprint_no_singleton(MB), w)
        .cache
        .miss_ratio();
    assert!(
        with <= without + 0.02,
        "singleton opt should not hurt: with={with:.3} without={without:.3}"
    );
}

#[test]
fn subblocked_misses_more_than_footprint() {
    // Section 3.1: the sub-blocked cache is the maximum-underprediction
    // extreme; a trained footprint predictor must beat it on misses.
    let w = WorkloadKind::WebSearch;
    let sub = run(DesignSpec::subblock(MB), w).cache.miss_ratio();
    let fp = run(DesignSpec::footprint(MB), w).cache.miss_ratio();
    assert!(
        fp < sub,
        "footprint ({fp:.3}) must miss less than sub-blocked ({sub:.3})"
    );
}

#[test]
fn footprint_spends_less_stacked_energy_per_instruction_than_block() {
    // Figure 11: Footprint cuts total stacked dynamic energy per
    // instruction vs the block-based design (whose every access moves
    // tag blocks and activates a closed row).
    let w = WorkloadKind::WebSearch;
    let block = run(DesignSpec::block(MB), w);
    let fp = run(DesignSpec::footprint(MB), w);
    let block_epi = block.stacked_energy_per_inst_nj();
    let fp_epi = fp.stacked_energy_per_inst_nj();
    assert!(
        fp_epi < block_epi,
        "footprint stacked energy/inst ({fp_epi:.4} nJ) must be below block ({block_epi:.4} nJ)"
    );
}

#[test]
fn footprint_predictor_accuracy_is_high() {
    // Figure 8: near-perfect coverage with small overprediction for
    // stable, structured workloads.
    let r = run(DesignSpec::footprint(MB), WorkloadKind::WebSearch);
    let p = r.prediction.expect("counters");
    let coverage = p.coverage();
    let over = p.overprediction_rate();
    assert!(coverage > 0.80, "coverage too low: {coverage:.3}");
    assert!(over < 0.30, "overprediction too high: {over:.3}");
}

#[test]
fn sat_solver_drift_degrades_prediction() {
    // Section 6.2: the drifting dataset interferes with the predictor;
    // coverage must be visibly worse than on the stable Web Search.
    let stable = run(DesignSpec::footprint(MB), WorkloadKind::WebSearch);
    let drift = run(DesignSpec::footprint(MB), WorkloadKind::SatSolver);
    let cov = |r: &SimReport| r.prediction.expect("counters").coverage();
    assert!(
        cov(&drift) < cov(&stable),
        "drift ({:.3}) should reduce coverage vs stable ({:.3})",
        cov(&drift),
        cov(&stable)
    );
}
