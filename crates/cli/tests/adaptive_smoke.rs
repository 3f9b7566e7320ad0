//! Process-level pins for the adaptive-adversary layer on
//! `scenarios/inlier_drift_smoke.json`. The same stateful inlier-drift
//! attack runs against vanilla Krum and against the stateful
//! reputation-weighted defense: both CSVs carry finite drift columns, and
//! the defense ends with a strictly smaller attacker displacement. The
//! `--attack-sigma` sweep axis runs inlier-drift cells and skips the rest
//! with the reason spelled out.

mod common;

use std::process::Command;

use common::{column, krum_csv, scenario_path, scratch_dir, table};
use krum_core::RuleSpec;
use krum_scenario::ScenarioSpec;

/// Checks the drift columns of a `krum run` CSV and returns the last
/// recorded attacker displacement.
fn final_displacement(csv: &str) -> f64 {
    let (header, rows) = table(csv);
    column(&header, "reputation_spread");
    let displacement = column(&header, "attacker_displacement");
    let dist = column(&header, "dist_to_honest_mean");
    let finite = |cell: &str| {
        let value: f64 = cell.parse().expect("drift cells are numeric");
        assert!(value.is_finite(), "drift cell went non-finite: {value}");
        value
    };
    let mut last = None;
    for row in &rows {
        if !row[displacement].is_empty() {
            last = Some(finite(&row[displacement]));
        }
        if !row[dist].is_empty() {
            finite(&row[dist]);
        }
    }
    last.expect("the displacement column was never filled")
}

#[test]
fn reputation_weighted_flattens_the_inlier_drift_curve() {
    let dir = scratch_dir("adaptive-smoke");
    let path = scenario_path("inlier_drift_smoke.json");
    let krum = krum_csv(
        &["run", path.to_str().unwrap(), "--quiet"],
        &dir.join("drift_krum.csv"),
    );

    let text = std::fs::read_to_string(&path).expect("spec file is readable");
    let mut spec = ScenarioSpec::from_json(&text).expect("spec file parses");
    spec.rule = RuleSpec::ReputationWeighted { eta: 0.2 };
    spec.name = "inlier-drift-rw".into();
    let rw_path = dir.join("drift_rw.json");
    std::fs::write(&rw_path, spec.to_json().expect("spec serialises")).expect("spec is writable");
    let rw = krum_csv(
        &["run", rw_path.to_str().unwrap(), "--quiet"],
        &dir.join("drift_rw.csv"),
    );
    std::fs::remove_dir_all(&dir).ok();

    let (krum, rw) = (final_displacement(&krum), final_displacement(&rw));
    assert!(
        rw.abs() < krum.abs(),
        "reputation-weighted must flatten the drift curve: |{rw}| >= |{krum}|"
    );
}

fn sweep(file: &str, sigmas: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args(["sweep", scenario_path(file).to_str().unwrap()])
        .args(["--attack-sigma", sigmas, "--rounds", "5"])
        .output()
        .expect("krum binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "krum sweep failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn attack_sigma_sweep_runs_inlier_drift_cells_and_skips_the_rest() {
    let stdout = sweep("inlier_drift_smoke.json", "0.5,1.5");
    for line in [
        "_sig0-5: rounds=5",
        "_sig1-5: rounds=5",
        "sweep complete: 2/2 cells ran, 0 failed",
    ] {
        assert!(stdout.contains(line), "no `{line}` in: {stdout}");
    }

    let stdout = sweep("smoke.json", "1");
    for line in ["SKIPPED", "attack-sigma requires an inlier-drift attack"] {
        assert!(stdout.contains(line), "no `{line}` in: {stdout}");
    }
}
