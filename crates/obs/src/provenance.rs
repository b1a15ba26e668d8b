//! Run-provenance manifests.
//!
//! Every artifact the sweep stack emits (grid JSON/CSV, `BENCH_*`
//! summaries, traces, metrics) embeds one of these so a number in a
//! benchmark trajectory can always be traced back to the exact
//! configuration that produced it: seed, scale, thread count, design
//! list, wall time, crate version, and compiled feature flags.

use fc_types::record::json_object;

use crate::series;

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
        json_object(|w| {
            w.text("tool", &self.tool);
            w.text("version", &self.version);
            w.texts("features", &self.features);
            w.text_or_null("grid", self.grid.as_deref());
            w.text_or_null("scale", self.scale.as_deref());
            w.u64_or_null("seed", self.seed);
            w.u64_or_null("threads", self.threads.map(|t| t as u64));
            w.texts("workloads", &self.workloads);
            w.texts("designs", &self.designs);
            w.u64_or_null("points", self.points.map(|p| p as u64));
            w.f64("wall_secs", self.wall_secs.unwrap_or(f64::NAN));
            w.u64_or_null("store_generation", self.store_generation);
        })
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
