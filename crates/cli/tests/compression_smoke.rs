//! Process-level pins for quantize-before-aggregate on
//! `scenarios/compression_smoke.json` (`bfp:block=64,bits=12`). The
//! in-process run quantizes in memory, `krum loopback` quantizes on the
//! wire, and both must follow the same trajectory, with the served rows
//! costing fewer wire bytes than raw frames. A fleet of v1 workers, which
//! cannot speak the compressed frames, is served raw f64 on the very same
//! trajectory: the server applies the codec's transform itself.

mod common;

use std::process::{Command, Stdio};

use common::{
    assert_same_trajectory, column, krum_csv, scenario_path, scratch_dir, spawn_serve, table,
};

#[test]
fn compressed_loopback_matches_the_in_process_quantized_run() {
    let dir = scratch_dir("compression-smoke");
    let spec = scenario_path("compression_smoke.json");
    let spec = spec.to_str().unwrap();
    let quantized = krum_csv(&["run", spec, "--quiet"], &dir.join("quantized.csv"));
    let compressed = krum_csv(&["loopback", spec], &dir.join("compressed.csv"));
    std::fs::remove_dir_all(&dir).ok();

    let (header, run_rows) = table(&quantized);
    let (served_header, served_rows) = table(&compressed);
    assert_eq!(header, served_header, "both runs export the same columns");
    assert_same_trajectory(&quantized, &compressed);

    let (wire, raw) = (column(&header, "wire_bytes"), column(&header, "raw_bytes"));
    for (a, b) in run_rows.iter().zip(&served_rows) {
        assert!(
            a[wire].is_empty() && a[raw].is_empty(),
            "in-process rows have no wire columns: {a:?}"
        );
        let (wire_bytes, raw_bytes): (u64, u64) =
            (b[wire].parse().unwrap(), b[raw].parse().unwrap());
        assert!(
            wire_bytes < raw_bytes,
            "compression must shrink the wire: {wire_bytes} vs raw {raw_bytes}"
        );
    }
    assert!(
        compressed
            .lines()
            .any(|l| l == "# compression: bfp:block=64,bits=12"),
        "no `# compression:` metadata line"
    );
}

#[test]
fn v1_workers_are_served_raw_frames_on_the_quantized_trajectory() {
    let dir = scratch_dir("compression-smoke-v1");
    let spec = scenario_path("compression_smoke.json");
    let spec = spec.to_str().unwrap();
    let quantized = krum_csv(&["run", spec, "--quiet"], &dir.join("quantized.csv"));

    let out = dir.join("served_v1");
    let (mut serve, _serve_out, addr) = spawn_serve(&[
        spec,
        "--listen",
        "127.0.0.1:0",
        "--out",
        out.to_str().unwrap(),
    ]);
    // n = 9, f = 2: seven honest workers and one adversary connection.
    let workers: Vec<_> = (0..8)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_krum"))
                .args(["worker", "--connect", &addr, "--protocol", "1"])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("worker spawns")
        })
        .collect();
    let status = serve.wait().unwrap();
    for worker in workers {
        let output = worker.wait_with_output().unwrap();
        assert!(
            output.status.success(),
            "v1 worker failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    assert!(status.success(), "krum serve failed");
    let served = std::fs::read_to_string(out.join("compression-smoke.csv"))
        .expect("krum serve wrote the job's CSV");
    std::fs::remove_dir_all(&dir).ok();

    assert_same_trajectory(&quantized, &served);
    let (header, rows) = table(&served);
    let (wire, raw) = (column(&header, "wire_bytes"), column(&header, "raw_bytes"));
    for row in &rows {
        assert!(
            !row[wire].is_empty() && row[wire] == row[raw],
            "v1 sessions move raw frames only: {} vs {}",
            row[wire],
            row[raw]
        );
    }
}
