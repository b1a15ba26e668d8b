//! Scenario mixes: a (possibly different) workload per core.
//!
//! The paper evaluates 16-core scale-out pods, including a
//! multiprogrammed mix whose per-core private datasets produce the
//! bimodal density of Figure 4. A [`ScenarioSpec`] generalizes that to
//! arbitrary co-location: it assigns one [`WorkloadKind`] to each core
//! (plus an optional [`PhaseSchedule`] that rotates the assignments
//! over time), and [`ScenarioGenerator`] interleaves the per-core
//! streams by core clock into one deterministic trace.
//!
//! Three properties make mixes composable with the rest of the stack:
//!
//! * **Per-stream seeding** — each workload's stream seed is derived
//!   from `seed ^ (workload as u64) << 8` (the discipline
//!   `fc_sweep::SweepPoint::seed` uses for homogeneous sweeps) and
//!   splitmixed so co-located streams never correlate, making a
//!   workload's record stream in a mix a pure function of
//!   `(scenario seed, workload, core, phase)` and never of the other
//!   workloads present or of thread count.
//! * **Address/PC isolation** — every workload slot shifts its region
//!   base and synthetic PCs by a per-workload salt, so co-located
//!   workloads never alias data or access functions (cores running the
//!   *same* workload still share its regions, like the homogeneous
//!   generator).
//! * **Canonical JSON** — specs round-trip through
//!   [`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`] with a
//!   fixed field order, so sweep stores can hash them stably.

use serde::{Deserialize, Serialize};

use fc_types::json::JsonValue;
use fc_types::record::json_object;

use crate::record::TraceRecord;
use crate::synth::{CoreEngine, WorkloadKind};

/// A phase schedule: every `len_insts` core-local instructions, each
/// core's assignment rotates `rotate_by` positions through the
/// scenario's assignment vector (core `c` runs
/// `assignments[(c + phase * rotate_by) % cores]` in phase `phase`).
///
/// Phase switches restart the incoming workload's visit schedule
/// deterministically; its dataset addresses are unchanged, so caches
/// stay warm for data the core returns to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSchedule {
    /// Core-local instructions per phase.
    pub len_insts: u64,
    /// Assignment-vector rotation applied at each phase boundary.
    pub rotate_by: u32,
}

/// A consolidation scenario: one workload per core, with an optional
/// phase schedule.
///
/// # Examples
///
/// ```
/// use fc_trace::{ScenarioSpec, WorkloadKind};
///
/// let mix = ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, 16);
/// assert_eq!(mix.cores(), 16);
/// assert_eq!(mix.workloads().len(), 2);
/// let back = ScenarioSpec::from_json(&mix.to_json()).unwrap();
/// assert_eq!(mix, back);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (labels, emitters).
    pub name: String,
    /// The workload each core runs (index = core id; length = cores).
    pub assignments: Vec<WorkloadKind>,
    /// Optional phase rotation.
    pub phase: Option<PhaseSchedule>,
}

impl ScenarioSpec {
    /// Every core runs `kind` (the homogeneous case, useful as a mix-
    /// path control).
    pub fn homogeneous(kind: WorkloadKind, cores: u8) -> Self {
        Self {
            name: format!("{}x{}", kind, cores),
            assignments: vec![kind; cores as usize],
            phase: None,
        }
    }

    /// The first half of the pod runs `a`, the second half `b`.
    pub fn split(a: WorkloadKind, b: WorkloadKind, cores: u8) -> Self {
        assert!(cores >= 2, "a split scenario needs at least two cores");
        let half = cores as usize / 2;
        let mut assignments = vec![a; half];
        assignments.resize(cores as usize, b);
        Self {
            name: format!("{a}+{b}"),
            assignments,
            phase: None,
        }
    }

    /// Cores cycle through all six workloads (maximum heterogeneity).
    pub fn all_different(cores: u8) -> Self {
        Self {
            name: "all-different".to_string(),
            assignments: (0..cores)
                .map(|c| WorkloadKind::ALL[c as usize % WorkloadKind::ALL.len()])
                .collect(),
            phase: None,
        }
    }

    /// Attaches a phase schedule (builder-style).
    pub fn with_phase(mut self, phase: PhaseSchedule) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Number of cores the scenario describes.
    ///
    /// # Panics
    ///
    /// Panics if the scenario assigns more than 255 cores (the trace
    /// format's core-id width).
    pub fn cores(&self) -> u8 {
        u8::try_from(self.assignments.len()).expect("scenarios support at most 255 cores")
    }

    /// The distinct workloads of the scenario, in paper figure order.
    pub fn workloads(&self) -> Vec<WorkloadKind> {
        WorkloadKind::ALL
            .into_iter()
            .filter(|w| self.assignments.contains(w))
            .collect()
    }

    /// The workload core `core` runs in phase `phase`.
    pub fn workload_at(&self, core: u8, phase: u64) -> WorkloadKind {
        let n = self.assignments.len() as u64;
        let rotate = self.phase.map_or(0, |p| p.rotate_by as u64);
        self.assignments[((core as u64 + phase * rotate) % n) as usize]
    }

    /// Serializes the scenario as canonical JSON (fixed field order) —
    /// the stable encoding sweep stores hash.
    pub fn to_json(&self) -> String {
        json_object(|w| {
            w.text("name", &self.name);
            w.texts("assignments", self.assignments.iter().map(|a| a.name()));
            w.opt_object("phase", self.phase, |w, p| {
                w.u64("len_insts", p.len_insts);
                w.u64("rotate_by", p.rotate_by.into());
            });
        })
    }

    /// Parses a scenario from [`to_json`](ScenarioSpec::to_json)'s
    /// format.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text)?;
        let name = v.field("name")?.as_str()?.to_string();
        let assignments = match v.field("assignments")? {
            JsonValue::Arr(items) => items
                .iter()
                .map(|item| {
                    let name = item.as_str()?;
                    WorkloadKind::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            other => return Err(format!("expected assignments array, got {other:?}")),
        };
        if assignments.is_empty() {
            return Err("scenario assigns no cores".to_string());
        }
        if assignments.len() > u8::MAX as usize {
            return Err("scenario assigns more than 255 cores".to_string());
        }
        let phase = match v.field("phase")? {
            JsonValue::Null => None,
            p => Some(PhaseSchedule {
                len_insts: p.field("len_insts")?.as_u64()?,
                rotate_by: p.field("rotate_by")?.as_u32()?,
            }),
        };
        Ok(Self {
            name,
            assignments,
            phase,
        })
    }
}

/// One named scenario family: a constructor over the core-count axis,
/// mirroring `fc_sim`'s design registry.
#[derive(Clone, Copy)]
pub struct ScenarioFamily {
    /// CLI / registry name (lowercase, no spaces).
    pub name: &'static str,
    /// One-line description for catalogue listings.
    pub summary: &'static str,
    builder: fn(u8) -> ScenarioSpec,
}

impl ScenarioFamily {
    /// Builds the family's spec for a `cores`-core pod.
    pub fn build(&self, cores: u8) -> ScenarioSpec {
        (self.builder)(cores)
    }
}

/// Every scenario family the reproduction knows, in catalogue order.
pub const SCENARIO_FAMILIES: &[ScenarioFamily] = &[
    ScenarioFamily {
        name: "dsmr",
        summary: "Data Serving on half the cores, MapReduce on the rest",
        builder: |cores| {
            ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, cores)
        },
    },
    ScenarioFamily {
        name: "webmix",
        summary: "Web Search + Web Frontend halves (latency-sensitive pair)",
        builder: |cores| {
            ScenarioSpec::split(WorkloadKind::WebSearch, WorkloadKind::WebFrontend, cores)
        },
    },
    ScenarioFamily {
        name: "alldiff",
        summary: "cores cycle through all six workloads",
        builder: ScenarioSpec::all_different,
    },
    ScenarioFamily {
        name: "multiprog",
        summary: "n copies of the Multiprogrammed mix (bimodal densities)",
        builder: |cores| ScenarioSpec::homogeneous(WorkloadKind::Multiprogrammed, cores),
    },
    ScenarioFamily {
        name: "phased",
        summary: "Data Serving + MapReduce halves, rotating every 1.5M insts",
        builder: |cores| {
            let mut spec =
                ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, cores)
                    .with_phase(PhaseSchedule {
                        len_insts: 1_500_000,
                        rotate_by: 1,
                    });
            spec.name = format!("{} (phased)", spec.name);
            spec
        },
    },
];

/// Looks up a scenario family by (case-insensitive) name.
pub fn scenario_family(name: &str) -> Option<&'static ScenarioFamily> {
    SCENARIO_FAMILIES
        .iter()
        .find(|f| f.name.eq_ignore_ascii_case(name.trim()))
}

/// Resolves a comma-separated family list for a `cores`-core pod.
/// Unknown names report the full catalogue.
pub fn resolve_scenarios(list: &str, cores: u8) -> Result<Vec<ScenarioSpec>, String> {
    list.split(',')
        .map(|name| {
            scenario_family(name)
                .map(|f| f.build(cores))
                .ok_or_else(|| {
                    format!(
                        "unknown scenario `{}`; pick from: {}",
                        name.trim(),
                        SCENARIO_FAMILIES
                            .iter()
                            .map(|f| f.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
        })
        .collect()
}

/// One core's stream within a scenario: the engine for the current
/// phase plus the absolute-clock bookkeeping that stitches phases into
/// one gap-exact instruction stream.
#[derive(Debug)]
struct CoreStream {
    core: u8,
    /// Absolute core-local instructions consumed before the current
    /// engine's epoch (phase boundaries pin this to the boundary).
    base: u64,
    /// Absolute instruction time of the last emitted record.
    last_emitted: u64,
    phase: u64,
    engine: CoreEngine,
}

impl CoreStream {
    fn build_engine(spec: &ScenarioSpec, core: u8, phase: u64, seed: u64) -> CoreEngine {
        let workload = spec.workload_at(core, phase);
        // The sweep executor's per-stream seeding discipline: the
        // stream is a pure function of (seed, workload, core, phase).
        // The workload is splitmixed into the full seed width *before*
        // the engine XORs the core id into bits 8.. — leaving both in
        // the same byte would hand co-located (workload, core) pairs
        // with equal `workload ^ core` identical RNG streams (e.g.
        // cores 0 and 1 of the all-different scenario). Mixing the
        // phase in matters too: without it, a workload returning in a
        // later phase would replay its earlier visit schedule verbatim
        // against a warm cache and consolidation metrics would report
        // phantom speedups. Phase 0 keeps the bare per-workload seed,
        // so unphased scenarios are unaffected.
        let stream_seed = crate::synth::splitmix(seed ^ (workload as u64) << 8)
            ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let salt = workload as u64 + 1;
        let engine = CoreEngine::new(&workload.spec(), core, stream_seed, salt);
        assert!(
            engine.class_count() > 0,
            "core {core} has no classes for {workload}; check CoreSet coverage"
        );
        engine
    }

    /// Absolute time of this core's next record, advancing phases as
    /// boundaries are crossed.
    fn next_time(&mut self, spec: &ScenarioSpec, seed: u64) -> u64 {
        loop {
            let t = self.base + self.engine.peek_time();
            let Some(schedule) = spec.phase else { return t };
            let boundary = (self.phase + 1).saturating_mul(schedule.len_insts);
            if t < boundary {
                return t;
            }
            self.phase += 1;
            self.base = boundary;
            self.engine = Self::build_engine(spec, self.core, self.phase, seed);
        }
    }

    /// Emits this core's next record with the gap measured on the
    /// absolute core clock (phase switches included).
    fn emit(&mut self) -> TraceRecord {
        let mut record = self.engine.emit();
        let now = self.base + self.engine.last_inst();
        record.inst_gap = (now - self.last_emitted).clamp(1, u32::MAX as u64) as u32;
        self.last_emitted = now;
        record
    }
}

/// An infinite, deterministic stream of [`TraceRecord`]s for a
/// scenario mix: per-core workload streams interleaved by core clock.
///
/// Like [`TraceGenerator`](crate::TraceGenerator), records merge across
/// cores in per-core instruction order (fixed trace IPC 1.0), which
/// approximates global chronological order; the stream is bit-identical
/// for a given `(scenario, seed)` whatever thread count the surrounding
/// sweep uses.
///
/// # Examples
///
/// ```
/// use fc_trace::{ScenarioGenerator, ScenarioSpec, WorkloadKind};
///
/// let spec = ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, 4);
/// let records: Vec<_> = ScenarioGenerator::new(&spec, 7).take(1000).collect();
/// let again: Vec<_> = ScenarioGenerator::new(&spec, 7).take(1000).collect();
/// assert_eq!(records, again);
/// ```
#[derive(Debug)]
pub struct ScenarioGenerator {
    spec: ScenarioSpec,
    seed: u64,
    streams: Vec<CoreStream>,
}

impl ScenarioGenerator {
    /// Creates a generator for `spec` with a seed.
    ///
    /// # Panics
    ///
    /// Panics if the scenario assigns no cores or more than 255, or if
    /// some core's workload gives it no classes.
    pub fn new(spec: &ScenarioSpec, seed: u64) -> Self {
        assert!(!spec.assignments.is_empty(), "need at least one core");
        assert!(
            spec.assignments.len() <= u8::MAX as usize,
            "scenarios support at most 255 cores, got {}",
            spec.assignments.len()
        );
        let streams = (0..spec.cores())
            .map(|core| CoreStream {
                core,
                base: 0,
                last_emitted: 0,
                phase: 0,
                engine: CoreStream::build_engine(spec, core, 0, seed),
            })
            .collect();
        Self {
            spec: spec.clone(),
            seed,
            streams,
        }
    }

    /// The scenario driving the stream.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Number of cores in the stream.
    pub fn core_count(&self) -> usize {
        self.streams.len()
    }
}

impl Iterator for ScenarioGenerator {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        // Emit from the core whose next touch is earliest (ties break
        // to the lowest core id, like the homogeneous generator).
        let mut best = 0;
        let mut best_time = u64::MAX;
        for i in 0..self.streams.len() {
            let t = self.streams[i].next_time(&self.spec, self.seed);
            if t < best_time {
                best = i;
                best_time = t;
            }
        }
        Some(self.streams[best].emit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn deterministic_across_instances() {
        let spec = ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, 8);
        let a: Vec<_> = ScenarioGenerator::new(&spec, 99).take(5000).collect();
        let b: Vec<_> = ScenarioGenerator::new(&spec, 99).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_change_the_stream() {
        let spec = ScenarioSpec::all_different(8);
        let a: Vec<_> = ScenarioGenerator::new(&spec, 1).take(500).collect();
        let b: Vec<_> = ScenarioGenerator::new(&spec, 2).take(500).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn all_cores_emit_and_gaps_are_positive() {
        let spec = ScenarioSpec::all_different(16);
        let records: Vec<_> = ScenarioGenerator::new(&spec, 5).take(50_000).collect();
        let cores: HashSet<u8> = records.iter().map(|r| r.core).collect();
        assert_eq!(cores.len(), 16);
        assert!(records.iter().all(|r| r.inst_gap >= 1));
    }

    #[test]
    fn colocated_workloads_never_alias_addresses() {
        // Cores 0-1 run Data Serving, cores 2-3 MapReduce: the two
        // programs' address regions must be disjoint, while cores
        // sharing a workload share its regions.
        let spec = ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, 4);
        let records: Vec<_> = ScenarioGenerator::new(&spec, 11).take(50_000).collect();
        let mut by_workload: HashMap<bool, HashSet<u64>> = HashMap::new();
        for r in &records {
            by_workload
                .entry(r.core < 2)
                .or_default()
                .insert(r.addr.raw() >> 40);
        }
        let ds = by_workload.get(&true).unwrap();
        let mr = by_workload.get(&false).unwrap();
        assert!(ds.is_disjoint(mr), "regions alias: {ds:?} vs {mr:?}");
    }

    #[test]
    fn colocated_workloads_never_alias_pcs() {
        let spec = ScenarioSpec::split(WorkloadKind::WebSearch, WorkloadKind::SatSolver, 4);
        let records: Vec<_> = ScenarioGenerator::new(&spec, 3).take(20_000).collect();
        let ws: HashSet<u64> = records
            .iter()
            .filter(|r| r.core < 2)
            .map(|r| r.pc.raw())
            .collect();
        let sat: HashSet<u64> = records
            .iter()
            .filter(|r| r.core >= 2)
            .map(|r| r.pc.raw())
            .collect();
        assert!(ws.is_disjoint(&sat));
    }

    #[test]
    fn mix_stream_is_workload_local() {
        // A workload's records in a mix depend only on (seed, workload,
        // core): swapping the *other* half of the pod must not change
        // them.
        let a = ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, 4);
        let b = ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::WebSearch, 4);
        let take = |spec: &ScenarioSpec| -> Vec<TraceRecord> {
            ScenarioGenerator::new(spec, 17)
                .take(40_000)
                .filter(|r| r.core < 2)
                .take(5_000)
                .collect()
        };
        assert_eq!(take(&a), take(&b));
    }

    #[test]
    fn phase_schedule_rotates_assignments() {
        let spec = ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, 4)
            .with_phase(PhaseSchedule {
                len_insts: 50_000,
                rotate_by: 1,
            });
        assert_eq!(spec.workload_at(0, 0), WorkloadKind::DataServing);
        assert_eq!(spec.workload_at(1, 1), WorkloadKind::MapReduce);
        assert_eq!(spec.workload_at(3, 1), WorkloadKind::DataServing);

        // Core 0 starts on Data Serving regions and must emit MapReduce
        // region addresses once its clock crosses the boundary.
        let records: Vec<_> = ScenarioGenerator::new(&spec, 9).take(100_000).collect();
        let ds_salt = WorkloadKind::DataServing as u64 + 1;
        let mr_salt = WorkloadKind::MapReduce as u64 + 1;
        let core0_salts: HashSet<u64> = records
            .iter()
            .filter(|r| r.core == 0)
            .map(|r| r.addr.raw() >> 44)
            .collect();
        assert!(core0_salts.contains(&ds_salt), "{core0_salts:?}");
        assert!(core0_salts.contains(&mr_salt), "{core0_salts:?}");

        // Gaps stay positive across phase switches.
        assert!(records.iter().all(|r| r.inst_gap >= 1));
    }

    #[test]
    fn homogeneous_mix_matches_workload_statistics() {
        // The mix path reproduces the homogeneous generator's rates
        // (addresses are salted, so streams differ bit-wise).
        let spec = ScenarioSpec::homogeneous(WorkloadKind::WebSearch, 4);
        let mix: Vec<_> = ScenarioGenerator::new(&spec, 21).take(20_000).collect();
        let solo: Vec<_> = crate::TraceGenerator::new(WorkloadKind::WebSearch, 4, 21)
            .take(20_000)
            .collect();
        let mean_gap = |rs: &[TraceRecord]| {
            rs.iter().map(|r| r.inst_gap as u64).sum::<u64>() as f64 / rs.len() as f64
        };
        let (a, b) = (mean_gap(&mix), mean_gap(&solo));
        assert!(
            (a - b).abs() / b < 0.1,
            "mix mean gap {a:.0} vs solo {b:.0}"
        );
    }

    #[test]
    fn json_round_trips() {
        let specs = [
            ScenarioSpec::homogeneous(WorkloadKind::Multiprogrammed, 16),
            ScenarioSpec::split(WorkloadKind::DataServing, WorkloadKind::MapReduce, 16),
            ScenarioSpec::all_different(16).with_phase(PhaseSchedule {
                len_insts: 1_000_000,
                rotate_by: 2,
            }),
        ];
        for spec in specs {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).unwrap_or_else(|e| {
                panic!("{}: {e}\n{json}", spec.name);
            });
            assert_eq!(spec, back);
            // Canonical: a second trip is bit-identical.
            assert_eq!(json, back.to_json());
        }
    }

    #[test]
    fn json_rejects_malformed_scenarios() {
        assert!(ScenarioSpec::from_json("{}").is_err());
        assert!(ScenarioSpec::from_json("not json").is_err());
        assert!(
            ScenarioSpec::from_json(r#"{"name": "x", "assignments": [], "phase": null}"#).is_err()
        );
        assert!(ScenarioSpec::from_json(
            r#"{"name": "x", "assignments": ["Warp Drive"], "phase": null}"#
        )
        .is_err());
    }

    #[test]
    fn registry_resolves_families() {
        assert_eq!(resolve_scenarios("dsmr,alldiff", 16).unwrap().len(), 2);
        assert!(resolve_scenarios("dsmr,warpdrive", 16).is_err());
        for family in SCENARIO_FAMILIES {
            let spec = family.build(16);
            assert_eq!(spec.cores(), 16, "{}", family.name);
            // Every family round-trips through JSON.
            assert_eq!(
                ScenarioSpec::from_json(&spec.to_json()).unwrap(),
                spec,
                "{}",
                family.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most 255 cores")]
    fn oversized_scenario_rejected() {
        ScenarioGenerator::new(
            &ScenarioSpec {
                name: "huge".into(),
                assignments: vec![WorkloadKind::WebSearch; 256],
                phase: None,
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_scenario_rejected() {
        ScenarioGenerator::new(
            &ScenarioSpec {
                name: "empty".into(),
                assignments: vec![],
                phase: None,
            },
            1,
        );
    }
}
