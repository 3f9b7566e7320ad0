//! Process-level pin for `krum loopback`: the smoke scenario served over
//! loopback sockets by the built binary reproduces `krum run`'s CSV — the
//! same header, bit-equal deterministic columns — and only the served rows
//! fill the wire columns.

use std::path::{Path, PathBuf};
use std::process::Command;

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

fn smoke_spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/smoke.json")
}

/// Runs `krum <args..> --csv <path>` and returns the CSV it wrote.
fn krum_csv(args: &[&str], path: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args(args)
        .arg("--csv")
        .arg(path)
        .output()
        .expect("krum binary runs");
    assert!(
        output.status.success(),
        "krum {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(path).expect("krum wrote the CSV")
}

/// The CSV's header and rows, `#` metadata lines skipped.
fn table(csv: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut lines = csv.lines().filter(|l| !l.starts_with('#'));
    let split = |line: &str| line.split(',').map(str::to_string).collect::<Vec<_>>();
    let header = split(lines.next().expect("CSV has a header"));
    (header, lines.map(split).collect())
}

fn column(header: &[String], name: &str) -> usize {
    header
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("CSV lacks column {name}"))
}

#[test]
fn loopback_csv_matches_the_in_process_run_and_fills_the_wire_columns() {
    let dir = std::env::temp_dir().join(format!("krum-cli-loopback-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = smoke_spec_path();
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
