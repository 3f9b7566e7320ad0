//! Helpers shared by the process-level CLI tests: run the built `krum`
//! binary on a scenario file, read back the CSV it exported, and compare
//! two exports on the trajectory columns of `RoundRecord::COLUMNS`.

// Every test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use krum_metrics::RoundRecord;

/// A spec file under the repository's `scenarios/` directory.
pub fn scenario_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(file)
}

/// A fresh per-process directory for one test's exports.
pub fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("krum-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `krum <args..> --csv <path>` and returns the CSV it wrote.
pub fn krum_csv(args: &[&str], path: &Path) -> String {
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
pub fn table(csv: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut lines = csv.lines().filter(|l| !l.starts_with('#'));
    let split = |line: &str| line.split(',').map(str::to_string).collect::<Vec<_>>();
    let header = split(lines.next().expect("CSV has a header"));
    (header, lines.map(split).collect())
}

/// Index of the column called `name`.
pub fn column(header: &[String], name: &str) -> usize {
    header
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("CSV lacks column {name}"))
}

/// Asserts that two exported CSVs hold the same trajectory: the same
/// non-zero number of rows and equal cells in every trajectory column.
pub fn assert_same_trajectory(a: &str, b: &str) {
    let (a_header, a_rows) = table(a);
    let (b_header, b_rows) = table(b);
    assert!(!a_rows.is_empty(), "the CSV has no rows");
    assert_eq!(a_rows.len(), b_rows.len(), "row counts differ");
    for name in RoundRecord::COLUMNS
        .iter()
        .filter(|c| c.trajectory)
        .map(|c| c.name)
    {
        let (i, j) = (column(&a_header, name), column(&b_header, name));
        for (x, y) in a_rows.iter().zip(&b_rows) {
            assert_eq!(x[i], y[j], "{name} diverged in round {}", x[0]);
        }
    }
}

/// Spawns `krum serve <args…>` with piped output and waits for its banner,
/// so workers only start against a live listener. Returns the process, its
/// stdout (keep it alive: dropping it turns the server's summary lines
/// into EPIPE failures) and the address it listens on, which a
/// `--listen 127.0.0.1:0` request leaves to the OS.
pub fn spawn_serve(args: &[&str]) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_krum"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("krum binary spawns");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("serving on ")
        .and_then(|rest| rest.split(": ").next())
        .unwrap_or_else(|| panic!("expected the serve banner, got: {banner}"))
        .to_string();
    (child, reader, addr)
}
