//! Process-level pins for `krum loopback`: the smoke scenario served over
//! loopback sockets by the built binary reproduces `krum run`'s CSV — the
//! same header, equal trajectory columns — and only the served rows fill
//! the wire columns; a non-finite attacker served the same way is filtered
//! or refused, never passed through.

mod common;

use std::process::Command;

use common::{assert_same_trajectory, column, krum_csv, scenario_path, scratch_dir, table};

#[test]
fn loopback_csv_matches_the_in_process_run_and_fills_the_wire_columns() {
    let dir = scratch_dir("loopback-smoke");
    let spec = scenario_path("smoke.json");
    let spec = spec.to_str().unwrap();
    let run = krum_csv(&["run", spec, "--quiet"], &dir.join("run.csv"));
    let served = krum_csv(&["loopback", spec], &dir.join("loopback.csv"));
    std::fs::remove_dir_all(&dir).ok();

    let (header, run_rows) = table(&run);
    let (served_header, served_rows) = table(&served);
    assert_eq!(header, served_header, "both runs export the same columns");
    assert_same_trajectory(&run, &served);

    let wire = column(&header, "wire_bytes");
    let arrival = column(&header, "arrival_nanos");
    for (a, b) in run_rows.iter().zip(&served_rows) {
        assert!(
            a[wire].is_empty() && a[arrival].is_empty(),
            "in-process rows have no wire columns"
        );
        for i in [wire, arrival] {
            let value: u64 = b[i]
                .parse()
                .unwrap_or_else(|_| panic!("served {} is not an integer: {:?}", header[i], b[i]));
            assert!(value > 0, "served rows must fill {}", header[i]);
        }
    }
}

/// The NaN-poisoning guarantee across the wire: under a non-finite
/// attacker the served job either ends with a structured poisoned-round
/// error (exit 1) or keeps every round's `aggregate_norm` finite (exit 0) —
/// never a panic, never silent garbage.
#[test]
fn a_non_finite_attacker_is_refused_or_filtered_over_the_wire() {
    let dir = scratch_dir("loopback-nonfinite");
    let csv = dir.join("nonfinite.csv");
    let spec = scenario_path("loopback_nonfinite.json");
    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args(["loopback", spec.to_str().unwrap(), "--csv"])
        .arg(&csv)
        .output()
        .expect("krum binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    match output.status.code() {
        Some(0) => {
            let (header, rows) = table(&std::fs::read_to_string(&csv).unwrap());
            let norm = column(&header, "aggregate_norm");
            for row in &rows {
                let value: f64 = row[norm].parse().unwrap();
                assert!(value.is_finite(), "round {} is not finite: {value}", row[0]);
            }
        }
        Some(1) => assert!(
            stderr.contains("poisoned round"),
            "exit 1 without a poisoned-round error: {stderr}"
        ),
        status => panic!("unexpected exit status {status:?} (panic?): {stderr}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
