//! Helpers shared by the process-level CLI tests: run the built `krum`
//! binary on a scenario file and read back the CSV it exported.

use std::path::{Path, PathBuf};
use std::process::Command;

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
