//! Figure 8: footprint predictor accuracy (covered / underpredicted /
//! overpredicted blocks) as a function of the page size, at 256 MB.

use fc_sim::DesignSpec;
use fc_trace::WorkloadKind;
use fc_types::PageGeometry;
use footprint_cache::FootprintCacheConfig;

use crate::experiments::{pct, Table};
use crate::Lab;

/// The Figure 8 grid: 256 MB footprint caches at each page size. Both
/// the prefetch and the measurement loop iterate this one list, so the
/// parallel grid and the reads can never drift apart.
fn designs() -> [(usize, DesignSpec); 3] {
    [1024usize, 2048, 4096].map(|page_size| {
        (
            page_size,
            DesignSpec::footprint_custom(
                FootprintCacheConfig::new(256 << 20).with_geometry(PageGeometry::new(page_size)),
            ),
        )
    })
}

/// Regenerates Figure 8.
pub fn fig8(lab: &mut Lab) -> String {
    lab.prefetch(&WorkloadKind::ALL, &designs().map(|(_, d)| d));

    let mut table = Table::new(&["workload", "page B", "covered", "underpred", "overpred"]);
    for w in WorkloadKind::ALL {
        for (page_size, design) in designs() {
            let report = lab.run(w, design);
            let p = report
                .prediction
                .expect("footprint design reports prediction counters");
            table.row(vec![
                w.name().into(),
                format!("{page_size}"),
                pct(p.coverage()),
                pct(p.underprediction_rate()),
                pct(p.overprediction_rate()),
            ]);
        }
    }
    format!(
        "## Figure 8 — predictor accuracy vs page size (256 MB, 16 K FHT)\n\n\
         Covered + underpredicted = 100% of demanded blocks;\n\
         overpredictions stack on top (fetched but never used).\n\n\
         Paper: 1–2 KB pages predict best; larger pages raise\n\
         mispredictions (more PC-and-offset combinations per function);\n\
         2 KB is the sweet spot given tag-storage trade-offs.\n\n{}",
        table.to_markdown()
    )
}
