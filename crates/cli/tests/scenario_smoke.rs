//! Process-level pins for `krum run` on the smoke scenarios. The built
//! binary must export a well-formed CSV — the commented metadata header,
//! the round-record header and exactly one complete row per round — and a
//! JSON report, and the async partial-quorum scenario must fill its quorum
//! and staleness columns with well-formed integers.

mod common;

use common::{column, krum_csv, scenario_path, scratch_dir, table};
use krum_scenario::{ExecutionSpec, ScenarioReport, ScenarioSpec};

fn load_spec(file: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(scenario_path(file)).expect("spec file is readable");
    ScenarioSpec::from_json(&text).expect("spec file parses")
}

#[test]
fn smoke_run_exports_a_well_formed_csv_and_json_report() {
    let spec = load_spec("smoke.json");
    let dir = scratch_dir("scenario-smoke");
    let json_path = dir.join("smoke.json");
    let path = scenario_path("smoke.json");
    let csv = krum_csv(
        &[
            "run",
            path.to_str().unwrap(),
            "--json",
            json_path.to_str().unwrap(),
            "--quiet",
        ],
        &dir.join("smoke.csv"),
    );
    let json = std::fs::read_to_string(&json_path).expect("krum wrote the JSON report");
    std::fs::remove_dir_all(&dir).ok();

    let meta: Vec<&str> = csv.lines().filter(|l| l.starts_with("# ")).collect();
    for prefix in ["# scenario: smoke", "# rule: ", "# attack: "] {
        assert!(
            meta.iter().any(|l| l.starts_with(prefix)),
            "no `{prefix}` metadata line in {:?}",
            &meta[..meta.len().min(3)]
        );
    }

    let (header, rows) = table(&csv);
    assert_eq!(header[0], "round", "{header:?}");
    column(&header, "aggregation_nanos");
    assert_eq!(
        rows.len(),
        spec.rounds,
        "expected {} data rows, got {}",
        spec.rounds,
        rows.len()
    );
    let norm = column(&header, "aggregate_norm");
    for row in &rows {
        assert_eq!(row.len(), header.len(), "{row:?}");
        row[norm]
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("aggregate_norm is not numeric: {:?}", row[norm]));
    }

    let report: ScenarioReport = serde_json::from_str(&json).expect("JSON report parses");
    assert_eq!(report.final_params.dim(), 6);
}

#[test]
fn async_smoke_run_fills_well_formed_quorum_and_staleness_columns() {
    let spec = load_spec("async_smoke.json");
    let ExecutionSpec::AsyncQuorum { quorum, .. } = spec.execution else {
        panic!("async_smoke.json must use AsyncQuorum execution");
    };
    let dir = scratch_dir("async-smoke");
    let path = scenario_path("async_smoke.json");
    let csv = krum_csv(
        &["run", path.to_str().unwrap(), "--quiet"],
        &dir.join("async_smoke.csv"),
    );
    std::fs::remove_dir_all(&dir).ok();

    let (header, rows) = table(&csv);
    let [q, stale, _, dropped, carry] = [
        "quorum_size",
        "stale_in_quorum",
        "max_staleness_in_quorum",
        "dropped_stale",
        "pending_carryover",
    ]
    .map(|name| column(&header, name));
    assert_eq!(
        rows.len(),
        spec.rounds,
        "expected {} rows, got {}",
        spec.rounds,
        rows.len()
    );

    let integer = |row: &[String], i: usize| -> u64 {
        row[i]
            .parse()
            .unwrap_or_else(|_| panic!("{} is not an integer: {:?}", header[i], row[i]))
    };
    let mut total_stale = 0;
    for row in &rows {
        assert_eq!(integer(row, q), quorum as u64, "{row:?}");
        total_stale += integer(row, stale);
        integer(row, dropped);
        integer(row, carry);
    }
    assert!(
        total_stale > 0,
        "the straggling adversary must produce stale quorum members"
    );
}
