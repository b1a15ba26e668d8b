//! One module per regenerated table/figure (see DESIGN.md's experiment
//! index). Each experiment returns a markdown section; `run_all` strings
//! them into an `EXPERIMENTS.md` body.

mod ablations;
mod energy;
mod fig1;
mod fig12;
mod fig4;
mod fig5;
mod fig67;
mod fig8;
mod fig9;
mod loaded_latency;
mod mix;
mod observability;
mod pit;
mod sampling;
mod tables;

pub use ablations::{
    ablation_enhanced_baseline, ablation_key, ablation_singleton, ablation_subblock,
    ablation_writeback,
};
pub use energy::{fig10, fig11};
pub use fig1::fig1;
pub use fig12::fig12;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig67::{fig6, fig7};
pub use fig8::fig8;
pub use fig9::fig9;
pub use loaded_latency::loaded_latency;
pub use mix::mix;
pub use observability::observability;
pub use pit::pit;
pub use sampling::sampling;
pub use tables::{table1, table4};

use crate::Lab;

/// The cache capacities evaluated throughout Section 6.
pub const CAPACITIES_MB: [u64; 4] = [64, 128, 256, 512];

/// A minimal fixed-width markdown table builder.
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub(crate) fn new<S: AsRef<str>>(header: &[S]) -> Self {
        Self {
            header: header.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    pub(crate) fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:>w$} |", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a ratio as a percentage string.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a performance improvement over a baseline throughput.
pub(crate) fn improvement(design: f64, baseline: f64) -> String {
    format!("{:+.1}%", (design / baseline - 1.0) * 100.0)
}

/// Runs every experiment and returns the full EXPERIMENTS.md body.
pub fn run_all(lab: &mut Lab) -> String {
    let sections: Vec<String> = vec![
        table4(),
        fig1(lab),
        fig4(lab),
        fig5(lab),
        fig6(lab),
        fig7(lab),
        fig8(lab),
        fig9(lab),
        loaded_latency(lab),
        mix(lab),
        sampling(lab),
        pit(lab),
        observability(lab),
        fig10(lab),
        fig11(lab),
        fig12(),
        table1(lab),
        ablation_singleton(lab),
        ablation_key(lab),
        ablation_writeback(lab),
        ablation_subblock(lab),
        ablation_enhanced_baseline(),
    ];
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a | bb |"));
        assert!(md.contains("| 1 |  2 |"));
        assert!(md.contains("|---|"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(improvement(1.5, 1.0), "+50.0%");
        assert_eq!(improvement(0.8, 1.0), "-20.0%");
    }
}
