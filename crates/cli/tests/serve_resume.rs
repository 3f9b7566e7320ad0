//! Process-level crash/recovery pin for `krum serve`: a server killed with
//! SIGKILL mid-job is restarted with `--resume`, the worker *processes*
//! rejoin it through their deterministic backoff loop, and the finished
//! trajectory is **bit-identical** to an uninterrupted run of the same
//! spec — the checkpoint/rejoin machinery is invisible in the metrics.
//!
//! Two flavours: a clean averaging cluster (the original pin) and a
//! Byzantine cluster under the *stateful* reputation-weighted defense,
//! whose per-worker EWMA memory must survive the kill through the
//! checkpoint's stateful-rule sidecar field.

#![cfg(unix)]

mod common;

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::{assert_same_trajectory, column, scratch_dir, spawn_serve, table};
use krum_attacks::AttackSpec;
use krum_core::RuleSpec;
use krum_dist::{ClusterSpec, LearningRateSchedule};
use krum_models::EstimatorSpec;
use krum_scenario::{CrashPolicy, ExecutionSpec, InitSpec, ProbeSpec, ScenarioSpec};

fn base_spec(name: &str) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        cluster: ClusterSpec::new(3, 0).unwrap(),
        rule: RuleSpec::Average,
        attack: AttackSpec::None,
        estimator: EstimatorSpec::GaussianQuadratic { dim: 4, sigma: 0.2 },
        schedule: LearningRateSchedule::Constant { gamma: 0.1 },
        execution: ExecutionSpec::Remote {
            quorum: None,
            max_staleness: 0,
            round_timeout_secs: 60,
            handshake_timeout_secs: 10,
            staffing_timeout_secs: 60,
            heartbeat_secs: 1,
            on_crash: CrashPolicy::WaitForRejoin,
        },
        // Enough rounds that hundreds remain when the kill lands (the
        // per-round checkpointing of phase one keeps rounds slow).
        rounds: 1200,
        eval_every: 300,
        seed: 33,
        init: InitSpec::Fill { value: 1.0 },
        probes: ProbeSpec::default(),
        fault_plan: None,
        compression: None,
    }
}

/// The full kill -9 → resume → compare-to-control roundtrip for one spec.
/// `connections` is the number of worker processes the job needs (honest
/// workers plus one adversary connection when `f > 0`). Returns the
/// resumed run's CSV.
fn kill9_roundtrip(tag: &str, spec: ScenarioSpec, connections: usize) -> String {
    let dir = scratch_dir(&format!("serve-resume-{tag}"));
    let ckpt_dir = dir.join("ckpts");
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json().unwrap()).unwrap();

    // Serve with per-round checkpoints, then staff it with real worker
    // processes that are allowed to rejoin. Both serve processes listen on
    // the same address because the workers rejoin the peer they first
    // connected to.
    let (mut serve, _serve_out, addr) = spawn_serve(&[
        spec_path.to_str().unwrap(),
        "--listen",
        "127.0.0.1:0",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    let workers: Vec<Child> = (0..connections)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_krum"))
                .args(["worker", "--connect", &addr, "--retries", "60"])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("worker spawns")
        })
        .collect();

    // Kill -9 the server once the job has demonstrably checkpointed.
    let ckpt = ckpt_dir.join("job-0.ckpt");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared in 30s");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        serve.try_wait().unwrap().is_none(),
        "the job finished before the kill; raise `rounds` in the spec"
    );
    serve.kill().unwrap(); // SIGKILL on unix
    serve.wait().unwrap();

    // Resume from the checkpoints on the same address; the orphaned worker
    // processes are mid-backoff and rejoin it on their own. Checkpoint
    // less often on the way out — re-serialising the whole history every
    // round is the slow part, not the rounds.
    let (mut resumed, mut resumed_out, _) = spawn_serve(&[
        "--resume",
        ckpt_dir.to_str().unwrap(),
        "--listen",
        &addr,
        "--checkpoint-every",
        "100",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    let status = resumed.wait().unwrap();
    let mut resumed_stdout = String::new();
    resumed_out.read_to_string(&mut resumed_stdout).unwrap();
    let mut resumed_stderr = String::new();
    resumed
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut resumed_stderr)
        .unwrap();
    assert!(
        status.success(),
        "resumed serve must finish cleanly; stdout: {resumed_stdout} stderr: {resumed_stderr}"
    );

    // Every worker process survived the server's death, reports at least
    // one reconnect, and saw the job through to completion.
    for worker in workers {
        let output = worker.wait_with_output().unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout).to_string();
        assert!(
            output.status.success(),
            "worker failed: {stdout} / {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(stdout.contains("shutdown: job complete"), "got: {stdout}");
        let reconnects: u64 = stdout
            .split(" reconnect(s)")
            .next()
            .and_then(|s| s.rsplit(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no reconnect count in: {stdout}"));
        assert!(reconnects >= 1, "worker never rejoined: {stdout}");
    }

    // The stitched trajectory is bit-identical to an uninterrupted run of
    // the same spec (loopback serves the same Remote spec in one process).
    let control_csv = dir.join("control.csv");
    let control = Command::new(env!("CARGO_BIN_EXE_krum"))
        .args([
            "loopback",
            spec_path.to_str().unwrap(),
            "--csv",
            control_csv.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("control loopback runs");
    assert!(
        control.status.success(),
        "control run failed: {}",
        String::from_utf8_lossy(&control.stderr)
    );
    let resumed_csv = std::fs::read_to_string(out_dir.join(format!("{}.csv", spec.name))).unwrap();
    let control_csv = std::fs::read_to_string(&control_csv).unwrap();
    assert_eq!(
        table(&resumed_csv).1.len(),
        spec.rounds,
        "all rounds must be present"
    );
    assert_same_trajectory(&resumed_csv, &control_csv);

    std::fs::remove_dir_all(&dir).unwrap();
    resumed_csv
}

#[test]
fn sigkilled_serve_resumes_bit_identically_through_real_processes() {
    kill9_roundtrip("kill9", base_spec("serve-resume"), 3);
}

/// The stateful-defense flavour: a Byzantine cluster under
/// reputation-weighted aggregation is SIGKILLed mid-job and resumed. The
/// per-worker EWMA weights ride the checkpoint's `stateful_rule` field and
/// the drift tracker restarts from the last recorded displacement, so the
/// stitched CSV — including `reputation_spread` and
/// `attacker_displacement` — is bit-identical to the uninterrupted control.
#[test]
fn sigkilled_reputation_weighted_serve_resumes_bit_identically() {
    let mut spec = base_spec("serve-resume-rw");
    spec.cluster = ClusterSpec::new(4, 1).unwrap();
    spec.rule = RuleSpec::ReputationWeighted { eta: 0.2 };
    spec.attack = AttackSpec::SignFlip { scale: 3.0 };
    spec.seed = 41;
    let csv = kill9_roundtrip("kill9-rw", spec, 4);
    // The stateful columns are genuinely live in the stitched run: at
    // least one row carries a reputation spread and a displacement.
    let (header, rows) = table(&csv);
    let (spread, displacement) = (
        column(&header, "reputation_spread"),
        column(&header, "attacker_displacement"),
    );
    assert!(
        rows.iter()
            .any(|row| !row[spread].is_empty() && !row[displacement].is_empty()),
        "reputation/drift columns never filled in: {csv}"
    );
}
