//! Process-level pins for `krum chaos` and `krum serve` on the churn smoke
//! plan. The plan severs an honest worker mid-job and kills the server
//! after round 4; the built binary must ride out both — the worker rejoins
//! through its deterministic backoff, the server resumes from its round
//! checkpoints — with a trajectory bit-identical to a fault-free serving of
//! the same spec. A `krum serve` whose workers never arrive must exit with
//! a structured staffing error, not hang and not panic.

mod common;

use std::path::Path;
use std::process::{Command, Output};

use common::{assert_same_trajectory, column, krum_csv, scenario_path, scratch_dir, table};
use krum_scenario::{ExecutionSpec, ScenarioSpec};

/// The churn plan's spec with its fault plan removed.
fn clean_spec() -> ScenarioSpec {
    let text =
        std::fs::read_to_string(scenario_path("churn_smoke.json")).expect("spec file is readable");
    let mut spec = ScenarioSpec::from_json(&text).expect("spec file parses");
    spec.fault_plan = None;
    spec
}

fn write_spec(spec: &ScenarioSpec, path: &Path) {
    std::fs::write(path, spec.to_json().expect("spec serialises")).expect("spec is writable");
}

fn krum(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_krum"))
        .args(args)
        .output()
        .expect("krum binary runs")
}

#[test]
fn chaos_run_matches_a_clean_serving_of_the_same_spec() {
    let dir = scratch_dir("chaos-smoke");
    let plan = scenario_path("churn_smoke.json");
    let chaos_csv = dir.join("chaos.csv");
    let output = krum(&[
        "chaos",
        plan.to_str().unwrap(),
        "--csv",
        chaos_csv.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "krum chaos failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("server resumed: true"), "{stdout}");
    assert!(stdout.contains("worker failures: 0"), "{stdout}");
    let chaos = std::fs::read_to_string(&chaos_csv).expect("krum chaos wrote the CSV");

    let clean_path = dir.join("churn_clean.json");
    write_spec(&clean_spec(), &clean_path);
    let clean = krum_csv(
        &["loopback", clean_path.to_str().unwrap(), "--quiet"],
        &dir.join("clean.csv"),
    );
    std::fs::remove_dir_all(&dir).ok();

    assert_same_trajectory(&chaos, &clean);
    let (chaos_header, chaos_rows) = table(&chaos);

    // The fault-tolerance columns account for the churn: at least one
    // mid-job rejoin, and the fault plan's headline survives in the CSV
    // metadata.
    let reconnects = column(&chaos_header, "reconnects");
    let total: u64 = chaos_rows
        .iter()
        .map(|row| {
            let cell = &row[reconnects];
            if cell.is_empty() {
                0
            } else {
                cell.parse()
                    .unwrap_or_else(|_| panic!("reconnects is not an integer: {cell:?}"))
            }
        })
        .sum();
    assert!(total >= 1, "no rejoin recorded");
    assert!(
        chaos.lines().any(|l| l.starts_with("# fault_plan: ")),
        "no `# fault_plan:` metadata line"
    );
}

#[test]
fn serve_reports_a_roster_that_never_fills_as_a_structured_error() {
    let dir = scratch_dir("chaos-staffing");
    let mut spec = clean_spec();
    let ExecutionSpec::Remote {
        staffing_timeout_secs,
        ..
    } = &mut spec.execution
    else {
        panic!("churn_smoke.json must use Remote execution");
    };
    *staffing_timeout_secs = 2;
    let path = dir.join("churn_timeout.json");
    write_spec(&spec, &path);
    let output = krum(&["serve", path.to_str().unwrap(), "--listen", "127.0.0.1:0"]);
    std::fs::remove_dir_all(&dir).ok();

    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("the roster never filled"), "{stdout}");
}
