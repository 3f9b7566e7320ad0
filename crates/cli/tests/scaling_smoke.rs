//! Process-level pins for the hierarchical scaling smoke scenario
//! (`scenarios/hier_scaling_smoke.json`): n = 1024 workers, 64 of them
//! sign-flipping, aggregated as Krum within 16 round-robin groups of 64 and
//! Krum over the 16 winners. Served over loopback sockets, the run must come
//! back complete and finite; a grouping that leaves Krum infeasible inside a
//! group must be refused up front with the per-group derivation; and a sweep
//! over the group count must run the feasible cells and skip the rest.

mod common;

use std::process::Command;

use common::{column, krum_csv, scenario_path, scratch_dir, table};

/// The `# key: value` metadata lines at the top of a krum CSV.
fn metadata(csv: &str) -> Vec<(&str, &str)> {
    csv.lines()
        .filter_map(|line| line.strip_prefix("# "))
        .filter_map(|line| line.split_once(": "))
        .collect()
}

fn meta<'a>(pairs: &[(&str, &'a str)], key: &str) -> &'a str {
    pairs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("no `# {key}:` metadata line"))
}

#[test]
fn loopback_serves_1024_workers_in_16_groups_with_finite_rounds() {
    let dir = scratch_dir("scaling-smoke");
    let path = scenario_path("hier_scaling_smoke.json");
    let csv = krum_csv(
        &["loopback", path.to_str().unwrap(), "--quiet"],
        &dir.join("hier.csv"),
    );
    std::fs::remove_dir_all(&dir).ok();

    let (header, rows) = table(&csv);
    assert_eq!(rows.len(), 4, "expected 4 rounds, got {}", rows.len());
    let selected = column(&header, "selected_worker");
    for row in &rows {
        for name in ["loss", "aggregate_norm", "learning_rate"] {
            let value: f64 = row[column(&header, name)]
                .parse()
                .unwrap_or_else(|_| panic!("{name} is not numeric: {row:?}"));
            assert!(value.is_finite(), "{name} went non-finite: {value}");
        }
        assert!(
            !row[selected].is_empty(),
            "two-stage selection must surface a winner: {row:?}"
        );
    }

    let pairs = metadata(&csv);
    let rule = meta(&pairs, "rule");
    assert!(rule.starts_with("hierarchical:groups=16"), "{rule}");
    let aggregate_ns: f64 = meta(&pairs, "aggregate_ns_mean")
        .parse()
        .expect("aggregate_ns_mean is numeric");
    assert!(
        aggregate_ns > 0.0,
        "aggregation timing missing from the CSV"
    );
}

/// 256 groups of 4 leave room for f_g = 1 per group, and Krum needs
/// 2f + 2 < n inside every group: `krum run` must exit 1 with the per-group
/// derivation, never panic and never aggregate a degraded round.
#[test]
fn infeasible_per_group_bound_is_a_structured_error() {
    let text = std::fs::read_to_string(scenario_path("hier_scaling_smoke.json"))
        .expect("spec file is readable");
    let bad = text.replace("hierarchical:groups=16", "hierarchical:groups=256");
    assert_ne!(bad, text, "the smoke spec names hierarchical:groups=16");
    let dir = scratch_dir("scaling-smoke-infeasible");
    let path = dir.join("hier_bad.json");
    std::fs::write(&path, bad).expect("spec is writable");
    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args(["run", path.to_str().unwrap()])
        .output()
        .expect("krum binary runs");
    std::fs::remove_dir_all(&dir).ok();

    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("infeasible for group"), "{stderr}");
    assert!(stderr.contains("2f + 2 < n"), "{stderr}");
}

#[test]
fn group_count_sweep_runs_feasible_cells_and_skips_the_rest() {
    let path = scenario_path("hier_scaling_smoke.json");
    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args([
            "sweep",
            path.to_str().unwrap(),
            "--groups",
            "8,16,300",
            "--rounds",
            "2",
        ])
        .output()
        .expect("krum binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "krum sweep failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for expected in [
        "_g16: rounds=2",
        "agg_p99=",
        "_g300: SKIPPED",
        "sweep complete: 2/3 cells ran, 0 failed",
    ] {
        assert!(stdout.contains(expected), "no `{expected}` in {stdout}");
    }
}
