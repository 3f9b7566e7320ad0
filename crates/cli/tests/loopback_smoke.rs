//! Process-level pin for `krum loopback`: the smoke scenario served over
//! loopback sockets by the built binary reproduces `krum run`'s CSV — the
//! same header, bit-equal deterministic columns — and only the served rows
//! fill the wire columns.

mod common;

use common::{column, krum_csv, scenario_path, scratch_dir, table};

/// Columns that must be bit-equal between the in-process and the served
/// run (timing and wire columns legitimately differ).
const DETERMINISTIC_COLUMNS: &[&str] = &[
    "round",
    "loss",
    "accuracy",
    "true_gradient_norm",
    "aggregate_norm",
    "alignment",
    "distance_to_optimum",
    "selected_worker",
    "selected_byzantine",
    "learning_rate",
];

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
    assert!(!run_rows.is_empty());
    assert_eq!(run_rows.len(), served_rows.len());

    for name in DETERMINISTIC_COLUMNS {
        let i = column(&header, name);
        for (a, b) in run_rows.iter().zip(&served_rows) {
            assert_eq!(a[i], b[i], "{name} diverged in round {}", a[0]);
        }
    }

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
