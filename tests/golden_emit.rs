//! Byte-identity goldens for the four JSON point-record kinds the
//! sweep layer emits: detailed sweep points, sampled points, scenario
//! mixes and loaded-latency points. Each golden is one tiny fixed-seed
//! grid rendered through `fc_sweep::emit` without a provenance header,
//! so any change to a field name, order, nesting or number format shows
//! up as a readable diff.
//!
//! Regenerate after an *intentional* schema change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_emit
//! git diff tests/golden/emit/   # review every field shift
//! ```

use std::fs;
use std::path::PathBuf;

use fc_sim::loaded::LoadedConfig;
use fc_sweep::{
    emit, run_loaded, run_mix, run_sampled_grid, DesignSpec, LoadedGrid, MixGrid, RunScale,
    SamplePlan, SampledGrid, ScenarioSpec, SimConfig, SweepEngine, SweepSpec, WorkloadKind,
};

const SEED: u64 = 42;

fn golden_path(kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("emit")
        .join(format!("{kind}.json"))
}

fn engine() -> SweepEngine {
    SweepEngine::new().with_threads(2).quiet()
}

fn sweep_spec() -> SweepSpec {
    SweepSpec::new(RunScale::tiny()).with_seed(SEED).grid(
        &[WorkloadKind::WebSearch],
        &[
            DesignSpec::baseline(),
            DesignSpec::page(64),
            DesignSpec::footprint(64),
            DesignSpec::alloy(64),
        ],
    )
}

fn sweep_json() -> String {
    emit::to_json(&engine().run_spec(&sweep_spec()))
}

fn sampled_json() -> String {
    let spec = sweep_spec();
    let engine = engine();
    // One auto-planned grid (whole-warmup windows render as null) and
    // one explicit skipping plan with a finite warmup window.
    let mut results = run_sampled_grid(&SampledGrid::auto(&spec), &engine);
    results.extend(run_sampled_grid(
        &SampledGrid::with_plan(
            &spec,
            SamplePlan::new(500, 200, 100, 100).with_warmup_window(1_000),
        )
        .with_strata(2),
        &engine,
    ));
    emit::to_sampled_json(&results)
}

fn mix_json() -> String {
    let grid = MixGrid::new(
        vec![ScenarioSpec::split(
            WorkloadKind::DataServing,
            WorkloadKind::MapReduce,
            4,
        )],
        vec![DesignSpec::baseline(), DesignSpec::footprint(64)],
        RunScale::tiny(),
    )
    .with_config(SimConfig::small())
    .with_seed(SEED);
    emit::to_json(&run_mix(&grid, &engine()))
}

fn loaded_json() -> String {
    let grid = LoadedGrid {
        designs: vec![DesignSpec::baseline(), DesignSpec::footprint(64)],
        intervals: vec![96, 8],
        config: LoadedConfig {
            warmup: 300,
            requests: 300,
            seed: SEED,
            ..LoadedConfig::tiny()
        },
    };
    emit::to_json(&run_loaded(&grid, 2))
}

fn check(kind: &str, actual: String) {
    let path = golden_path(kind);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden/emit");
        fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {path:?} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_emit"
        )
    });
    assert!(
        actual == expected,
        "`{kind}` records diverged from {path:?}; if the schema change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff\n\
         --- expected\n{expected}\n--- actual\n{actual}"
    );
}

#[test]
fn sweep_records_match_golden() {
    check("sweep", sweep_json());
}

#[test]
fn sampled_records_match_golden() {
    check("sampled", sampled_json());
}

#[test]
fn mix_records_match_golden() {
    check("mix", mix_json());
}

#[test]
fn loaded_records_match_golden() {
    check("loaded", loaded_json());
}
