//! The robustness contract of PR 6: worker churn, crash-fault
//! degradation, and server kill/resume — all driven by the deterministic
//! chaos harness, all pinned against the uninterrupted run.
//!
//! The two headline properties:
//!
//! * **crash + rejoin is invisible** — under the `WaitForRejoin` policy, a
//!   run where a worker's connection is dropped/blackholed/truncated/
//!   corrupted mid-job and the worker rejoins is **bit-identical** to the
//!   same spec served with no faults at all;
//! * **kill −9 + `--resume` is invisible** — a run where the server is
//!   halted after round `k` (checkpoint on disk, sockets severed, no
//!   goodbye) and a fresh server resumes from the checkpoint directory is
//!   bit-identical to the uninterrupted run.

use std::net::TcpStream;
use std::path::PathBuf;

use krum_attacks::AttackSpec;
use krum_core::RuleSpec;
use krum_dist::{ClusterSpec, LearningRateSchedule};
use krum_models::EstimatorSpec;
use krum_scenario::{
    CrashPolicy, ExecutionSpec, FaultAction, FaultPlan, FaultSpec, InitSpec, ProbeSpec,
    ScenarioSpec,
};
use krum_server::{run_chaos, run_loopback, run_worker, ChaosOptions, Server, ServerError};
use krum_wire::{read_frame, write_frame, Frame, PROTOCOL_VERSION};

/// A small barrier-mode remote scenario with test-friendly timeouts: a
/// 1-second heartbeat so hung-worker detection fires in ~3 s, not minutes.
fn spec(on_crash: CrashPolicy) -> ScenarioSpec {
    ScenarioSpec {
        name: "churn-recovery".into(),
        cluster: ClusterSpec::new(9, 2).unwrap(),
        rule: RuleSpec::Krum,
        attack: AttackSpec::SignFlip { scale: 3.0 },
        estimator: EstimatorSpec::GaussianQuadratic { dim: 6, sigma: 0.3 },
        schedule: LearningRateSchedule::Constant { gamma: 0.2 },
        execution: ExecutionSpec::Remote {
            quorum: None,
            max_staleness: 0,
            round_timeout_secs: 60,
            handshake_timeout_secs: 10,
            staffing_timeout_secs: 60,
            heartbeat_secs: 1,
            on_crash,
        },
        rounds: 6,
        eval_every: 3,
        seed: 21,
        init: InitSpec::Fill { value: 1.5 },
        probes: ProbeSpec::default(),
        fault_plan: None,
        compression: None,
    }
}

fn plan(faults: Vec<FaultSpec>) -> FaultPlan {
    FaultPlan {
        description: String::new(),
        faults,
        kill_server_after_round: None,
    }
}

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("krum-churn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tentpole acceptance 1: a worker whose connection is severed mid-job
/// rejoins into its old slot and the trajectory is bit-identical to the
/// undisturbed run — the crash never happened, as far as training is
/// concerned.
#[test]
fn dropped_worker_rejoins_and_the_run_is_bit_identical() {
    let control = run_loopback(spec(CrashPolicy::WaitForRejoin)).unwrap();

    let mut disturbed = spec(CrashPolicy::WaitForRejoin);
    // Connection 2 = honest worker 2; frame 3 = its round-2 proposal.
    disturbed.fault_plan = Some(plan(vec![FaultSpec {
        conn: 2,
        at_frame: 3,
        action: FaultAction::Drop,
    }]));
    let outcome = run_chaos(
        disturbed,
        ChaosOptions {
            checkpoint_dir: Some(ckpt_dir("drop")),
            ..ChaosOptions::default()
        },
    )
    .unwrap();

    assert_eq!(outcome.report.final_params, control.final_params);
    assert_eq!(
        outcome.report.history.trajectory_mismatch(&control.history),
        None
    );
    assert!(
        outcome.worker_reconnects >= 1,
        "the dropped worker must have rejoined"
    );
    assert_eq!(outcome.worker_failures, 0);
    assert!(!outcome.server_resumed);
    assert_eq!(
        outcome.report.history.total_degraded_rounds(),
        0,
        "wait-for-rejoin never degrades a round"
    );
    assert!(
        outcome.report.history.total_reconnects() >= 1,
        "the reconnect is visible in the metrics"
    );
}

/// Tentpole acceptance 2: under `ProceedAtQuorum` a hung (blackholed)
/// worker is absorbed as a crash fault — the round closes degraded at the
/// live arrivals with the rule rebuilt for the smaller arity — and the
/// worker's rejoin restores full-strength rounds.
#[test]
fn blackholed_worker_degrades_rounds_then_recovers() {
    let mut disturbed = spec(CrashPolicy::ProceedAtQuorum);
    disturbed.fault_plan = Some(plan(vec![
        FaultSpec {
            conn: 1,
            at_frame: 2, // worker 1's round-1 proposal vanishes silently
            action: FaultAction::Blackhole,
        },
        // Hold round 4 open long enough for worker 1's rejoin to land
        // mid-job (proceed-at-quorum rounds otherwise close in
        // microseconds once the hung slot is declared dead).
        FaultSpec {
            conn: 3,
            at_frame: 5, // worker 3's round-4 proposal, delayed
            action: FaultAction::Delay { millis: 2_000 },
        },
    ]));
    let outcome = run_chaos(
        disturbed,
        ChaosOptions {
            checkpoint_dir: Some(ckpt_dir("blackhole")),
            ..ChaosOptions::default()
        },
    )
    .unwrap();

    let report = &outcome.report;
    assert_eq!(report.history.len(), 6, "the job must run to completion");
    assert!(report.final_params.is_finite());
    assert!(
        report.history.total_degraded_rounds() >= 1,
        "losing a worker mid-round must be visible as a degraded round"
    );
    assert!(
        outcome.worker_reconnects >= 1,
        "the hung worker must come back once the server severs it"
    );
    assert_eq!(outcome.worker_failures, 0);
    // Degradation is bounded: once the worker rejoined, later rounds are
    // full strength again.
    let last = report.history.rounds.last().unwrap();
    assert_eq!(last.degraded_rounds, Some(0), "the final round recovered");
}

/// Tentpole acceptance 3: kill −9 after round `k` + resume from the
/// checkpoint directory continues the job **bit-identically** — the
/// carry-over queue, history, params and worker RNG cursors all survive
/// the restart.
#[test]
fn server_kill_and_resume_is_bit_identical() {
    let control = run_loopback(spec(CrashPolicy::WaitForRejoin)).unwrap();

    let mut disturbed = spec(CrashPolicy::WaitForRejoin);
    disturbed.fault_plan = Some(FaultPlan {
        description: "kill -9 after round 2, resume from checkpoints".into(),
        faults: vec![],
        kill_server_after_round: Some(2),
    });
    let outcome = run_chaos(
        disturbed,
        ChaosOptions {
            checkpoint_dir: Some(ckpt_dir("kill")),
            checkpoint_every: 2,
            ..ChaosOptions::default()
        },
    )
    .unwrap();

    assert!(outcome.server_resumed, "the scripted kill must have fired");
    assert_eq!(outcome.report.final_params, control.final_params);
    assert_eq!(
        outcome.report.history.trajectory_mismatch(&control.history),
        None
    );
    assert!(
        outcome.worker_reconnects as usize >= outcome.report.spec.cluster.honest(),
        "every worker had to rejoin the resumed server"
    );
    assert!(
        outcome.report.history.total_checkpoint_bytes() > 0,
        "checkpoint costs are accounted in the metrics"
    );
}

/// A resumed job keeps the size of the snapshot it resumed from: with a
/// checkpoint after every round, every round of the killed-and-resumed run
/// records its checkpoint bytes, the round the kill followed included.
#[test]
fn killed_and_resumed_run_records_every_checkpoint_size() {
    let mut disturbed = spec(CrashPolicy::WaitForRejoin);
    disturbed.fault_plan = Some(FaultPlan {
        description: "kill -9 after round 2, checkpoint every round".into(),
        faults: vec![],
        kill_server_after_round: Some(2),
    });
    let outcome = run_chaos(
        disturbed,
        ChaosOptions {
            checkpoint_dir: Some(ckpt_dir("kill-every")),
            checkpoint_every: 1,
            ..ChaosOptions::default()
        },
    )
    .unwrap();
    assert!(outcome.server_resumed, "the scripted kill must have fired");
    let sizes: Vec<Option<u64>> = outcome
        .report
        .history
        .rounds
        .iter()
        .map(|r| r.checkpoint_bytes)
        .collect();
    assert!(sizes.iter().all(Option::is_some), "{sizes:?}");
}

/// Tentpole acceptance 4: every fault action heals under rejoin — no
/// scripted fault panics the server, and with `WaitForRejoin` each one is
/// invisible in the trajectory.
#[test]
fn every_fault_action_heals_under_rejoin_bit_identically() {
    let control = run_loopback(spec(CrashPolicy::WaitForRejoin)).unwrap();
    let actions = [
        FaultAction::Drop,
        FaultAction::Delay { millis: 50 },
        FaultAction::Blackhole,
        FaultAction::Truncate { bytes: 5 },
        FaultAction::Corrupt,
    ];
    for action in actions {
        let mut disturbed = spec(CrashPolicy::WaitForRejoin);
        disturbed.fault_plan = Some(plan(vec![FaultSpec {
            conn: 0,
            at_frame: 1, // worker 0's round-0 proposal
            action,
        }]));
        let outcome = run_chaos(
            disturbed,
            ChaosOptions {
                checkpoint_dir: Some(ckpt_dir(&format!("{action}").replace(['(', ')'], "-"))),
                ..ChaosOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{action}: chaos run failed: {e}"));
        assert_eq!(outcome.report.final_params, control.final_params);
        assert_eq!(
            outcome.report.history.trajectory_mismatch(&control.history),
            None
        );
        assert_eq!(outcome.worker_failures, 0, "{action}");
        if !matches!(action, FaultAction::Delay { .. }) {
            assert!(
                outcome.worker_reconnects >= 1,
                "{action} must force a rejoin"
            );
        }
    }
}

/// Satellite S1 regression: a raw client that handshakes, proposes once
/// and dies mid-round under the fail-fast (non-churn) configuration
/// produces a structured `WorkerLost` job error — never a panicked job
/// thread, never a stringly error.
#[test]
fn dying_worker_yields_structured_error_not_a_panic() {
    let mut fail_fast = spec(CrashPolicy::WaitForRejoin);
    fail_fast.cluster = ClusterSpec::new(5, 0).unwrap();
    fail_fast.attack = AttackSpec::None;
    fail_fast.rule = RuleSpec::Average;
    // Sequential execution serves over loopback with the pre-churn
    // fail-fast semantics (no crash policy).
    fail_fast.execution = ExecutionSpec::Sequential;

    let server = Server::bind("127.0.0.1:0", fail_fast, 1).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // Four well-behaved workers…
    let workers: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || run_worker(addr)))
        .collect();
    // …and one that handshakes, answers round 0, then drops dead.
    let mut dying = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut dying,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            agent: "about-to-die".into(),
        },
    )
    .unwrap();
    let (frame, _) = read_frame(&mut dying).unwrap();
    let (job, worker) = match frame {
        Frame::JobAssign { job, worker, .. } => (job, worker),
        other => panic!("expected JobAssign, got {other:?}"),
    };
    let (frame, _) = read_frame(&mut dying).unwrap();
    match frame {
        Frame::Broadcast { round, params, .. } => {
            write_frame(
                &mut dying,
                &Frame::Propose {
                    job,
                    round,
                    worker,
                    proposal: params, // dimension is all that matters here
                },
            )
            .unwrap();
        }
        other => panic!("expected Broadcast, got {other:?}"),
    }
    drop(dying);

    let outcomes = server_thread.join().expect("server thread must not panic");
    let outcome = outcomes.unwrap().pop().unwrap();
    match outcome.result {
        Err(ServerError::WorkerLost { worker: lost, .. }) => {
            assert_eq!(lost, worker);
        }
        other => panic!("expected a structured WorkerLost error, got: {other:?}"),
    }
    // The surviving workers were told why, in a structured Shutdown.
    for handle in workers {
        let summary = handle.join().unwrap().unwrap();
        assert!(
            summary.shutdown_reason.contains("job failed"),
            "got: {}",
            summary.shutdown_reason
        );
    }
}

/// A fault plan that kills the server with nothing left to resume is
/// rejected up front with a structured error, not discovered mid-run.
#[test]
fn kill_beyond_the_last_round_is_rejected() {
    let mut bad = spec(CrashPolicy::WaitForRejoin);
    bad.fault_plan = Some(FaultPlan {
        description: String::new(),
        faults: vec![],
        kill_server_after_round: Some(5), // rounds = 6: nothing after it
    });
    let err = run_chaos(bad, ChaosOptions::default()).unwrap_err();
    assert!(err.to_string().contains("nothing to resume"), "got: {err}");
}
