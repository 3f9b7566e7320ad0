//! E11 — the price of surviving the fleet: worker churn and server
//! crash/resume under the deterministic chaos harness.
//!
//! PR 6 made `krum-server` crash-tolerant: a dead worker is a crash fault
//! (rejoin → bit-identical continuation, or degrade to the quorum), and a
//! killed server resumes from its round checkpoints. This driver measures
//! what recovery *costs* at `n = 9, f = 2, d = 50`: rounds/sec and the
//! recovery latency (the arrival time of the slowest, i.e. faulted, round)
//! for a clean serving vs a mid-job worker drop + rejoin vs a server
//! kill + checkpoint resume — after asserting each faulted trajectory is
//! **bit-identical** to the clean one, so the comparison is recovery
//! overhead and nothing else.
//!
//! Records `BENCH_churn.json`:
//!
//! ```sh
//! cargo run --release -p krum-bench --bin e11_churn > BENCH_churn.json
//! ```
//!
//! (The human-readable table goes to stderr.)

use krum_attacks::AttackSpec;
use krum_bench::Table;
use krum_core::RuleSpec;
use krum_dist::{ClusterSpec, LearningRateSchedule};
use krum_models::EstimatorSpec;
use krum_scenario::{
    CrashPolicy, ExecutionSpec, FaultAction, FaultPlan, FaultSpec, InitSpec, ProbeSpec,
    ScenarioReport, ScenarioSpec,
};
use krum_server::{run_chaos, run_loopback, ChaosOptions};

const N: usize = 9;
const F: usize = 2;
const DIM: usize = 50;
const ROUNDS: usize = 8;

fn spec(fault_plan: Option<FaultPlan>) -> ScenarioSpec {
    ScenarioSpec {
        name: "e11-churn".into(),
        cluster: ClusterSpec::new(N, F).expect("valid cluster"),
        rule: RuleSpec::Krum,
        attack: AttackSpec::SignFlip { scale: 3.0 },
        estimator: EstimatorSpec::GaussianQuadratic {
            dim: DIM,
            sigma: 0.2,
        },
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
        rounds: ROUNDS,
        eval_every: ROUNDS,
        seed: 47,
        init: InitSpec::Fill { value: 1.0 },
        probes: ProbeSpec::default(),
        fault_plan,
        compression: None,
    }
}

/// The arrival time of the slowest round — under a fault plan this is the
/// faulted round, so it *is* the recovery latency (detection + backoff +
/// rejoin + re-broadcast, or kill + resume + re-staff).
fn slowest_round_millis(report: &ScenarioReport) -> f64 {
    report
        .history
        .rounds
        .iter()
        .filter_map(|r| r.arrival_nanos)
        .fold(0.0f64, |acc, nanos| acc.max(nanos as f64))
        / 1e6
}

struct Cell {
    label: String,
    rounds_per_sec: f64,
    recovery_millis: f64,
    reconnects: u64,
    degraded_rounds: u64,
    server_resumed: bool,
}

fn main() {
    // The clean reference: the same Remote spec served without faults.
    let clean = run_loopback(spec(None)).expect("clean serving succeeds");
    let clean_cell = Cell {
        label: "clean serving".into(),
        rounds_per_sec: ROUNDS as f64 / (clean.wall_nanos as f64 / 1e9),
        recovery_millis: slowest_round_millis(&clean),
        reconnects: 0,
        degraded_rounds: 0,
        server_resumed: false,
    };

    // Worker churn: sever honest connection 2's socket mid-round 3; the
    // worker detects the death, backs off, rejoins its old slot and the
    // answered-frame cache replays the round.
    let drop_plan = FaultPlan {
        description: "sever honest worker 2 at its round-2 proposal".into(),
        faults: vec![FaultSpec {
            conn: 2,
            at_frame: 3,
            action: FaultAction::Drop,
        }],
        kill_server_after_round: None,
    };
    let churn = run_chaos(spec(Some(drop_plan)), ChaosOptions::default())
        .expect("churn serving survives the drop");
    assert_eq!(
        churn.report.final_params, clean.final_params,
        "drop + rejoin"
    );
    assert_eq!(
        churn.report.history.trajectory_mismatch(&clean.history),
        None,
        "drop + rejoin must be invisible in the trajectory"
    );
    assert!(churn.worker_reconnects >= 1, "the worker must rejoin");
    let churn_cell = Cell {
        label: "worker drop + rejoin".into(),
        rounds_per_sec: ROUNDS as f64 / (churn.report.wall_nanos as f64 / 1e9),
        recovery_millis: slowest_round_millis(&churn.report),
        reconnects: churn.worker_reconnects,
        degraded_rounds: churn.report.history.total_degraded_rounds(),
        server_resumed: churn.server_resumed,
    };

    // Server crash: kill the server after round 3 and resume from the
    // round checkpoints; every worker rejoins the resumed process.
    let kill_plan = FaultPlan {
        description: "kill the server after round 3, resume from checkpoints".into(),
        faults: Vec::new(),
        kill_server_after_round: Some(3),
    };
    let resumed = run_chaos(spec(Some(kill_plan)), ChaosOptions::default())
        .expect("kill + resume serving survives");
    assert_eq!(
        resumed.report.final_params, clean.final_params,
        "kill + resume"
    );
    assert_eq!(
        resumed.report.history.trajectory_mismatch(&clean.history),
        None,
        "kill + resume must be invisible in the trajectory"
    );
    assert!(resumed.server_resumed, "the server must have resumed");
    let resume_cell = Cell {
        label: "server kill + resume".into(),
        rounds_per_sec: ROUNDS as f64 / (resumed.report.wall_nanos as f64 / 1e9),
        recovery_millis: slowest_round_millis(&resumed.report),
        reconnects: resumed.worker_reconnects,
        degraded_rounds: resumed.report.history.total_degraded_rounds(),
        server_resumed: true,
    };

    let cells = [clean_cell, churn_cell, resume_cell];
    let mut table = Table::new([
        "scenario",
        "rounds/sec",
        "recovery ms",
        "reconnects",
        "degraded",
        "resumed",
    ]);
    for cell in &cells {
        table.row([
            cell.label.clone(),
            format!("{:.1}", cell.rounds_per_sec),
            format!("{:.1}", cell.recovery_millis),
            cell.reconnects.to_string(),
            cell.degraded_rounds.to_string(),
            if cell.server_resumed { "yes" } else { "-" }.to_string(),
        ]);
    }
    eprintln!("{table}");
    eprintln!(
        "every faulted run above produced the bit-identical trajectory of the clean serving \
         (asserted) at n = {N}, f = {F}, d = {DIM}\n"
    );

    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                r#"    {{
      "scenario": "{}",
      "rounds_per_sec": {:.2},
      "recovery_latency_millis": {:.2},
      "worker_reconnects": {},
      "degraded_rounds": {},
      "server_resumed": {}
    }}"#,
                c.label,
                c.rounds_per_sec,
                c.recovery_millis,
                c.reconnects,
                c.degraded_rounds,
                c.server_resumed,
            )
        })
        .collect();
    let provenance = krum_bench::provenance();
    println!(
        r#"{{
  "benchmark": "e11_churn (crates/bench/src/bin/e11_churn.rs)",
  {provenance}
  "description": "recovery cost of the PR-6 fault-tolerance machinery: one scenario (krum vs sign-flip, n = {N}, f = {F}, d = {DIM}, {ROUNDS} rounds, seed 47, heartbeat 1s, on_crash = WaitForRejoin) served cleanly, with an honest worker's socket severed mid-job (deterministic chaos proxy), and with the server killed after round 3 and resumed from its round checkpoints",
  "method": "all three runs execute the identical ScenarioSpec behind the in-process ChaosProxy harness; the driver asserts the faulted trajectories are bit-identical to the clean one before comparing, so the numbers are pure recovery overhead. recovery_latency_millis is the arrival time of the slowest round (the faulted round: death detection + deterministic backoff + Rejoin handshake + replay, or checkpoint resume + re-staffing)",
  "claims": [
    "a severed honest worker rejoins its old slot and the run continues bit-identically (asserted at runtime)",
    "a SIGKILL-equivalent server death resumes from round checkpoints with every worker rejoining, bit-identically (asserted at runtime)",
    "recovery latency is dominated by the worker backoff schedule (~50-100 ms first attempt) and stays far below the 1 s heartbeat liveness probe"
  ],
  "configs": [
{}
  ]
}}"#,
        entries.join(",\n")
    );
}
