//! The acceptance pin of the declarative scenario API: one JSON scenario
//! produces **bit-identical parameter trajectories** through all three
//! construction paths —
//!
//! 1. the `krum` binary (`krum run scenarios/smoke.json`),
//! 2. the in-process `Scenario::run()`,
//! 3. a hand-wired `RoundEngine`,
//!
//! because every random stream derives from the spec's seed. The test also
//! asserts the exported CSV is well-formed (the same check CI runs on the
//! smoke scenario).

use std::path::{Path, PathBuf};
use std::process::Command;

use krum_dist::{ExecutionStrategy, RoundEngine, TrainingConfig};
use krum_metrics::RoundRecord;
use krum_scenario::{Scenario, ScenarioReport, ScenarioSpec};
use krum_tensor::Vector;

fn smoke_spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/smoke.json")
}

/// One directory per test: the three tests run on parallel threads of one
/// process, so a shared per-pid directory would race their cleanup.
fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("krum-cli-trajectory-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn json_scenario_is_bit_identical_across_cli_scenario_and_legacy_paths() {
    let spec_path = smoke_spec_path();
    let json = std::fs::read_to_string(&spec_path).expect("scenarios/smoke.json is checked in");
    let spec = ScenarioSpec::from_json(&json).expect("smoke spec is valid");

    // Path 1: the binary, exporting the full report as JSON and CSV.
    let dir = temp_dir("bit-identical");
    let report_json = dir.join("smoke-report.json");
    let report_csv = dir.join("smoke-report.csv");
    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "--json",
            report_json.to_str().unwrap(),
            "--csv",
            report_csv.to_str().unwrap(),
        ])
        .output()
        .expect("krum binary runs");
    assert!(
        output.status.success(),
        "krum run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let cli_report: ScenarioReport =
        serde_json::from_str(&std::fs::read_to_string(&report_json).unwrap())
            .expect("report JSON parses");

    // Path 2: the in-process scenario API from the same JSON.
    let api_report = Scenario::from_json(&json).unwrap().run().unwrap();

    // Path 3: a hand-wired engine from the same field values.
    let workload = spec
        .estimator
        .build(spec.cluster.honest(), spec.seed)
        .unwrap();
    let mut trainer = RoundEngine::new(
        spec.cluster,
        spec.rule
            .build(spec.cluster.workers(), spec.cluster.byzantine())
            .unwrap(),
        spec.attack.build(workload.dim).unwrap(),
        workload.estimators,
        None,
        TrainingConfig {
            rounds: spec.rounds,
            schedule: spec.schedule,
            seed: spec.seed,
            eval_every: spec.eval_every,
            known_optimum: workload.optimum,
        },
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let start = match spec.init {
        krum_scenario::InitSpec::Fill { value } => Vector::filled(workload.dim, value),
        ref other => panic!("smoke scenario uses a fill init, got {other:?}"),
    };
    let (legacy_params, legacy_history) = trainer.run(start).unwrap();

    // Bit-identical final parameters across all three paths.
    assert_eq!(cli_report.final_params, api_report.final_params);
    assert_eq!(api_report.final_params, legacy_params);

    // Bit-identical per-round trajectories: every trajectory column is a
    // deterministic function of the parameter path.
    assert_eq!(cli_report.history.len(), spec.rounds);
    assert_eq!(
        cli_report.history.trajectory_mismatch(&api_report.history),
        None
    );
    assert_eq!(
        api_report.history.trajectory_mismatch(&legacy_history),
        None
    );

    // The exported CSV is well-formed: metadata comments, then the standard
    // header, then one complete row per round whose norms match the report.
    let csv = std::fs::read_to_string(&report_csv).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert!(lines[0].starts_with("# scenario: smoke"));
    let header_idx = lines
        .iter()
        .position(|l| l.starts_with("round,loss"))
        .expect("standard CSV header present");
    assert!(lines[..header_idx].iter().all(|l| l.starts_with("# ")));
    let rows = &lines[header_idx + 1..];
    assert_eq!(rows.len(), spec.rounds);
    let norm_at = lines[header_idx]
        .split(',')
        .position(|name| name == "aggregate_norm")
        .expect("aggregate_norm column present");
    for (row, record) in rows.iter().zip(&api_report.history.rounds) {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(
            fields.len(),
            RoundRecord::COLUMNS.len(),
            "malformed row: {row}"
        );
        // f64 Display round-trips exactly, so parsing the CSV cell back
        // recovers the bit pattern the engine produced.
        let norm: f64 = fields[norm_at].parse().unwrap();
        assert_eq!(norm, record.aggregate_norm);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_sweep_writes_well_formed_csv_per_cell() {
    let dir = temp_dir("sweep").join("sweep-out");
    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args([
            "sweep",
            smoke_spec_path().to_str().unwrap(),
            "--rule",
            "krum,median",
            "--seed",
            "1,2",
            "--rounds",
            "4",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("krum binary runs");
    assert!(
        output.status.success(),
        "krum sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("sweep complete: 4/4 cells ran"), "{stdout}");
    let csvs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(csvs.len(), 4);
    for path in csvs {
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("round,loss"), "{path:?} lacks the header");
        assert_eq!(
            content.lines().filter(|l| !l.starts_with('#')).count(),
            1 + 4,
            "{path:?} should carry the header plus 4 rounds"
        );
    }
    std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
}

#[test]
fn cli_rejects_invalid_specs_with_structured_errors() {
    let dir = temp_dir("invalid-specs");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"name\": \"x\"}").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args(["run", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("scenario error"), "stderr: {stderr}");

    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args(["frobnicate"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage: krum"));
    std::fs::remove_dir_all(&dir).unwrap();
}
