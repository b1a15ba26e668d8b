//! Run-provenance manifests.
//!
//! Every artifact the sweep stack emits (grid JSON/CSV, `BENCH_*`
//! summaries, traces, metrics) embeds one of these so a number in a
//! benchmark trajectory can always be traced back to the exact
//! configuration that produced it: seed, scale, thread count, design
//! list, wall time, crate version, and compiled feature flags.

use crate::{json_escape, json_num, series};

/// A run manifest, embedded in emitted artifacts.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// Emitting tool (e.g. `fc_sweep`).
    pub tool: String,
    /// Workspace crate version (compiled in).
    pub version: String,
    /// Compiled feature flags (e.g. `detailed-stats`).
    pub features: Vec<String>,
    /// Grid name, if the run came from a named grid.
    pub grid: Option<String>,
    /// Scale preset label (e.g. `smoke`, `full`).
    pub scale: Option<String>,
    /// Base RNG seed.
    pub seed: Option<u64>,
    /// Worker thread count.
    pub threads: Option<usize>,
    /// Workload labels covered by the run.
    pub workloads: Vec<String>,
    /// Design labels covered by the run.
    pub designs: Vec<String>,
    /// Number of grid points executed.
    pub points: Option<usize>,
    /// Wall-clock duration of the run, in seconds.
    pub wall_secs: Option<f64>,
    /// Generation of the durable result store the run read from
    /// (bumped on quarantine/resize), when one was attached.
    pub store_generation: Option<u64>,
}

impl Provenance {
    /// A manifest for `tool`, pre-filled with the compiled crate
    /// version and feature flags; everything else starts empty.
    pub fn for_tool(tool: &str) -> Provenance {
        let mut features = Vec::new();
        if series::enabled() {
            features.push("detailed-stats".to_string());
        }
        Provenance {
            tool: tool.to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            features,
            grid: None,
            scale: None,
            seed: None,
            threads: None,
            workloads: Vec::new(),
            designs: Vec::new(),
            points: None,
            wall_secs: None,
            store_generation: None,
        }
    }

    /// Renders the manifest as a single JSON object.
    pub fn to_json(&self) -> String {
        fn str_list(items: &[String]) -> String {
            let quoted: Vec<String> = items
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect();
            format!("[{}]", quoted.join(", "))
        }
        fn opt_str(v: &Option<String>) -> String {
            match v {
                Some(s) => format!("\"{}\"", json_escape(s)),
                None => "null".to_string(),
            }
        }
        let mut fields = vec![
            format!("\"tool\": \"{}\"", json_escape(&self.tool)),
            format!("\"version\": \"{}\"", json_escape(&self.version)),
            format!("\"features\": {}", str_list(&self.features)),
            format!("\"grid\": {}", opt_str(&self.grid)),
            format!("\"scale\": {}", opt_str(&self.scale)),
        ];
        fields.push(match self.seed {
            Some(s) => format!("\"seed\": {s}"),
            None => "\"seed\": null".to_string(),
        });
        fields.push(match self.threads {
            Some(t) => format!("\"threads\": {t}"),
            None => "\"threads\": null".to_string(),
        });
        fields.push(format!("\"workloads\": {}", str_list(&self.workloads)));
        fields.push(format!("\"designs\": {}", str_list(&self.designs)));
        fields.push(match self.points {
            Some(p) => format!("\"points\": {p}"),
            None => "\"points\": null".to_string(),
        });
        fields.push(match self.wall_secs {
            Some(w) => format!("\"wall_secs\": {}", json_num(w)),
            None => "\"wall_secs\": null".to_string(),
        });
        fields.push(match self.store_generation {
            Some(g) => format!("\"store_generation\": {g}"),
            None => "\"store_generation\": null".to_string(),
        });
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_tool_fills_compiled_facts() {
        let p = Provenance::for_tool("fc_sweep");
        assert_eq!(p.tool, "fc_sweep");
        assert!(!p.version.is_empty());
        assert_eq!(
            p.features.contains(&"detailed-stats".to_string()),
            series::enabled()
        );
    }

    #[test]
    fn json_covers_every_field() {
        let mut p = Provenance::for_tool("fc_sweep");
        p.grid = Some("designspace".to_string());
        p.scale = Some("smoke".to_string());
        p.seed = Some(42);
        p.threads = Some(4);
        p.workloads = vec!["astar-like".to_string()];
        p.designs = vec!["fc-3.0".to_string(), "ideal".to_string()];
        p.points = Some(12);
        p.wall_secs = Some(1.5);
        p.store_generation = Some(3);
        let json = p.to_json();
        for needle in [
            "\"tool\": \"fc_sweep\"",
            "\"grid\": \"designspace\"",
            "\"scale\": \"smoke\"",
            "\"seed\": 42",
            "\"threads\": 4",
            "\"workloads\": [\"astar-like\"]",
            "\"designs\": [\"fc-3.0\", \"ideal\"]",
            "\"points\": 12",
            "\"wall_secs\": 1.5",
            "\"store_generation\": 3",
            "\"version\": ",
            "\"features\": ",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn empty_fields_render_null() {
        let json = Provenance::for_tool("fc_experiments").to_json();
        assert!(json.contains("\"grid\": null"));
        assert!(json.contains("\"seed\": null"));
        assert!(json.contains("\"wall_secs\": null"));
        assert!(json.contains("\"store_generation\": null"));
    }
}
