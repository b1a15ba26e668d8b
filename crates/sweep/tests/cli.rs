//! Drives the built `fc_sweep` binary end to end, once per grid kind:
//! the JSON artifact parses, the CSV is the records' scalar projection
//! (one row per record), `--threads 0` resolves to at least one worker,
//! the stderr timing markers keep their order, and bad arguments exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};

use fc_types::json::JsonValue;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fc_sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fc_sweep"))
        .args(args)
        .output()
        .expect("spawn fc_sweep")
}

/// The CSV columns a JSON record projects to: top-level scalars, plus
/// always-present nested objects flattened to dotted names. Arrays and
/// the optional `prediction` object are JSON-only.
fn scalar_projection(record: &JsonValue) -> Vec<(String, JsonValue)> {
    let JsonValue::Obj(fields) = record else {
        panic!("record is not an object: {record:?}");
    };
    let mut out = Vec::new();
    for (name, value) in fields {
        match value {
            JsonValue::Arr(_) => {}
            _ if name == "prediction" => {}
            JsonValue::Obj(inner) => {
                for (sub, v) in inner {
                    out.push((format!("{name}.{sub}"), v.clone()));
                }
            }
            v => out.push((name.clone(), v.clone())),
        }
    }
    out
}

/// Splits one CSV line, honoring double-quoted cells.
fn csv_cells(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                cells.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(String::new()),
            c => cells.last_mut().unwrap().push(c),
        }
    }
    cells
}

fn cell_matches(cell: &str, value: &JsonValue) -> bool {
    match value {
        JsonValue::Null => cell == "null",
        JsonValue::Bool(b) => cell == b.to_string(),
        JsonValue::Num(x) => cell.parse::<f64>().is_ok_and(|c| c == *x),
        JsonValue::Str(s) => cell == s,
        _ => false,
    }
}

/// Runs one grid with `--threads 0 --quiet --json --csv` and checks
/// every shared CLI contract on its output. Returns stdout and stderr.
fn check_grid(tag: &str, grid_args: &[&str], marker: &str) -> (String, String) {
    let dir = scratch(tag);
    let json_path = dir.join("out.json");
    let csv_path = dir.join("out.csv");
    let mut args = grid_args.to_vec();
    let (json_arg, csv_arg) = (json_path.to_str().unwrap(), csv_path.to_str().unwrap());
    args.extend(["--scale", "tiny", "--threads", "0", "--quiet"]);
    args.extend(["--json", json_arg, "--csv", csv_arg]);
    let out = fc_sweep(&args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{tag}: fc_sweep failed:\n{stderr}");

    let json = JsonValue::parse(&std::fs::read_to_string(&json_path).unwrap())
        .unwrap_or_else(|e| panic!("{tag}: --json does not parse: {e}"));
    let threads = json
        .field("provenance")
        .and_then(|p| p.field("threads"))
        .and_then(|t| t.as_u64())
        .unwrap();
    assert!(threads >= 1, "{tag}: --threads 0 stamped {threads} threads");
    let JsonValue::Arr(records) = json.field("results").unwrap() else {
        panic!("{tag}: results is not an array");
    };
    assert!(!records.is_empty(), "{tag}: no records");

    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let lines: Vec<&str> = csv.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(
        lines.len(),
        1 + records.len(),
        "{tag}: CSV must have one data row per JSON record"
    );
    let header = csv_cells(lines[0]);
    for (record, line) in records.iter().zip(&lines[1..]) {
        let projection = scalar_projection(record);
        let names: Vec<&str> = projection.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(header, names, "{tag}: CSV header != scalar projection");
        let cells = csv_cells(line);
        assert_eq!(cells.len(), projection.len(), "{tag}: ragged row {line}");
        for (cell, (name, value)) in cells.iter().zip(&projection) {
            assert!(
                cell_matches(cell, value),
                "{tag}: column {name}: CSV `{cell}` != JSON {value:?}"
            );
        }
    }

    // perfbench times the run between the line before the marker and
    // the marker itself: the marker must follow the start line.
    let lines: Vec<&str> = stderr.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("[fc_sweep] ") && l.contains(marker))
        .unwrap_or_else(|| panic!("{tag}: no `{marker}` marker on stderr:\n{stderr}"));
    assert!(at > 0, "{tag}: marker is the first stderr line");
    let before = lines[at - 1];
    assert!(
        before.starts_with("[fc_sweep] grid ") || before.starts_with("[fc_sweep] synthesized "),
        "{tag}: marker not right after the start line:\n{stderr}"
    );
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

#[test]
fn fig5_grid_contracts() {
    let (_, stderr) = check_grid(
        "fig5",
        &[
            "--grid",
            "fig5",
            "--capacities",
            "64",
            "--workloads",
            "web search",
        ],
        " simulations in ",
    );
    assert!(
        stderr.contains("] 4 simulations in ") && stderr.contains("(0 memo hits)"),
        "{stderr}"
    );
}

#[test]
fn loaded_grid_contracts() {
    let (stdout, _) = check_grid(
        "loaded",
        &[
            "--grid",
            "loaded",
            "--capacities",
            "64",
            "--workloads",
            "web search",
            "--speedup",
        ],
        " loaded points in ",
    );
    // `--speedup` reruns every grid kind on one thread.
    assert!(stdout.contains("results identical: yes"), "{stdout}");
}

#[test]
fn mix_grid_contracts() {
    let (_, stderr) = check_grid(
        "mix",
        &["--grid", "mix", "--capacities", "64", "--scenarios", "dsmr"],
        " simulations in ",
    );
    assert!(stderr.contains(" memo hits)"), "{stderr}");
}

#[test]
fn sampled_grid_contracts() {
    let (_, stderr) = check_grid(
        "sampled",
        &[
            "--grid",
            "fig5",
            "--sampled",
            "--capacities",
            "8",
            "--workloads",
            "web search",
        ],
        " sampled simulations in ",
    );
    assert!(stderr.contains("] 4 sampled simulations in "), "{stderr}");
}

#[test]
fn unknown_argument_exits_2() {
    let out = fc_sweep(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `--no-such-flag`"));
}
