//! Process-level pin for `bench_summary` on the checked-in benchmark
//! trajectory: run on the repository root, it must exit 0, list every
//! experiment driver's `BENCH_*.json` and keep the headline figures of the
//! scaling, incremental-Gram and wire-compression claims.

use std::path::Path;
use std::process::Command;

/// Every experiment driver that writes a `BENCH_*.json` at the repository
/// root.
const BENCH_FILES: [&str; 9] = [
    "adaptive_drift",
    "async_quorum",
    "churn",
    "hier_scaling",
    "krum_scaling",
    "round_pipeline",
    "scenario_overhead",
    "server_loopback",
    "wire_compression",
];

/// Headline keys that must survive in the collated table.
const HEADLINES: [&str; 3] = [
    "hierarchical_speedup_at_n2000=",
    "incremental_gram.speedup=",
    "wire_reduction_ratio=",
];

#[test]
fn the_checked_in_trajectory_lists_every_benchmark_and_its_headlines() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(env!("CARGO_BIN_EXE_bench_summary"))
        .arg(&root)
        .output()
        .expect("bench_summary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "bench_summary failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    for name in BENCH_FILES {
        let file = format!("BENCH_{name}.json");
        assert!(stdout.contains(&file), "{file} missing from:\n{stdout}");
    }
    for key in HEADLINES {
        assert!(
            stdout.contains(key),
            "headline {key} missing from:\n{stdout}"
        );
    }
}
