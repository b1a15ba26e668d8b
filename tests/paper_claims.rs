//! The paper's headline claims, asserted at `full` scale where the
//! 64 MB caches turn over (the tiny goldens never evict).
//!
//! One sweep runs Footprint, Page-based, Sub-blocked, Block-based and
//! Hot-page at 64 MB on Web Search and Data Serving, and checks on each
//! workload that Footprint Cache has it all (Sec. 6, Figs. 5-7): a
//! page-based design's hit ratio, a block-based design's off-chip
//! traffic, and a higher IPC than either. Hot-page filtering costs IPC
//! against plain Page (Sec. 6.7). Each claim carries an explicit
//! tolerance; the measured margins are in the comments.

use fc_sim::{DesignSpec, SimReport};
use fc_sweep::{RunScale, SweepEngine, SweepSpec};
use fc_trace::WorkloadKind;

/// The stacked capacity every design runs at.
const MB: u64 = 64;

/// Footprint's miss ratio may exceed Page's by at most this many
/// points (measured: 1.4 on Web Search, 3.1 on Data Serving).
const MISS_GAP_POINTS: f64 = 4.0;

/// Footprint's off-chip bytes per instruction may exceed Sub-blocked's
/// by at most this fraction (measured: +0.8% and +0.4%).
const OFFCHIP_TOLERANCE: f64 = 0.10;

#[test]
fn footprint_has_hit_ratio_bandwidth_and_ipc_at_full_scale() {
    let workloads = [WorkloadKind::WebSearch, WorkloadKind::DataServing];
    let designs = [
        DesignSpec::footprint(MB),
        DesignSpec::page(MB),
        DesignSpec::subblock(MB),
        DesignSpec::block(MB),
        DesignSpec::hotpage(MB),
    ];
    let spec = SweepSpec::new(RunScale::full()).grid(&workloads, &designs);
    let results = SweepEngine::new().quiet().run_spec(&spec);
    for workload in workloads {
        let report = |design: &DesignSpec| -> &SimReport {
            &results
                .iter()
                .find(|r| r.point.workload == workload && r.point.design == *design)
                .expect("every grid point has a result")
                .report
        };
        let [footprint, page, subblock, block, hotpage] = designs.each_ref().map(report);
        assert!(
            footprint.cache.evictions > 0 && page.cache.evictions > 0,
            "{workload}: the caches must turn over for the claims to mean anything"
        );

        let miss = |r: &SimReport| 100.0 * r.cache.miss_ratio();
        assert!(
            miss(footprint) - miss(page) <= MISS_GAP_POINTS,
            "{workload}: Footprint misses {:.1}%, Page {:.1}%",
            miss(footprint),
            miss(page)
        );

        let (fp_bytes, sb_bytes) = (
            footprint.offchip_bytes_per_inst(),
            subblock.offchip_bytes_per_inst(),
        );
        assert!(
            fp_bytes <= sb_bytes * (1.0 + OFFCHIP_TOLERANCE),
            "{workload}: Footprint moves {fp_bytes:.3} off-chip B/inst, Sub-blocked {sb_bytes:.3}"
        );

        for (name, other) in [
            ("Page-based", page),
            ("Sub-blocked", subblock),
            ("Block-based", block),
        ] {
            assert!(
                footprint.throughput() > other.throughput(),
                "{workload}: Footprint IPC {:.2} is not above {name}'s {:.2}",
                footprint.throughput(),
                other.throughput()
            );
        }
        assert!(
            hotpage.throughput() < page.throughput(),
            "{workload}: Hot-page IPC {:.2} is not below Page's {:.2}",
            hotpage.throughput(),
            page.throughput()
        );
    }
}
