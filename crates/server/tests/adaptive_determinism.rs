//! Determinism of the adaptive-adversary layer: stateful attacks and
//! stateful defenses must keep every invariant the stateless world has —
//! repeat runs are bit-identical, the async engine at `quorum = n`
//! reproduces Sequential, and a loopback serving (real sockets, the
//! `RoundFeedback` relay as bytes on the wire) reproduces the in-process
//! trajectory bit-for-bit.

use krum_attacks::{AttackSpec, DriftTarget};
use krum_core::RuleSpec;
use krum_dist::{ClusterSpec, LatencyModel, LearningRateSchedule, NetworkModel};
use krum_models::EstimatorSpec;
use krum_scenario::{ExecutionSpec, InitSpec, ProbeSpec, Scenario, ScenarioSpec};
use krum_server::run_loopback;

fn spec(attack: AttackSpec, rule: RuleSpec) -> ScenarioSpec {
    ScenarioSpec {
        name: "adaptive-determinism".into(),
        cluster: ClusterSpec::new(9, 2).unwrap(),
        rule,
        attack,
        estimator: EstimatorSpec::GaussianQuadratic { dim: 6, sigma: 0.3 },
        schedule: LearningRateSchedule::Constant { gamma: 0.2 },
        execution: ExecutionSpec::Sequential,
        rounds: 12,
        eval_every: 4,
        seed: 11,
        init: InitSpec::Fill { value: 1.5 },
        probes: ProbeSpec::default(),
        fault_plan: None,
        compression: None,
    }
}

fn attacks() -> Vec<AttackSpec> {
    vec![
        AttackSpec::InlierDrift {
            sigma: 1.5,
            target: DriftTarget::Neg,
        },
        AttackSpec::AlieVariance { scale: 1.0 },
        AttackSpec::AdaptiveProbe {
            start: 1.0,
            grow: 1.25,
            backoff: 0.5,
        },
    ]
}

fn rules() -> Vec<RuleSpec> {
    vec![
        RuleSpec::ReputationWeighted { eta: 0.2 },
        RuleSpec::CenteredClip {
            tau: 2.0,
            beta: 0.9,
        },
    ]
}

/// Every stateful attack × stateful defense cell reruns bit-identically:
/// attack state, defense state and the drift columns are all deterministic
/// functions of (spec, seed).
#[test]
fn stateful_cells_are_bit_identical_across_repeat_runs() {
    for attack in attacks() {
        for rule in rules() {
            let cell = format!("{attack} vs {}", rule.name());
            let s = spec(attack, rule);
            let a = Scenario::from_spec(s.clone()).unwrap().run().unwrap();
            let b = Scenario::from_spec(s).unwrap().run().unwrap();
            assert_eq!(a.final_params, b.final_params, "{cell}");
            assert_eq!(a.history.trajectory_mismatch(&b.history), None, "{cell}");
            // The drift layer actually ran: at least one round recorded a
            // distance and a displacement.
            assert!(
                a.history
                    .rounds
                    .iter()
                    .any(|r| r.dist_to_honest_mean.is_some()),
                "{cell}: no drift column was filled"
            );
            assert!(
                a.history
                    .rounds
                    .iter()
                    .any(|r| r.attacker_displacement.is_some()),
                "{cell}: no displacement was recorded"
            );
        }
    }
}

/// The async engine at `quorum = n` (zero latency, zero staleness) closes
/// the same quorums as the barrier engine, so the stateful trajectories —
/// attack memory keyed by rounds, defense memory keyed by worker ids —
/// must coincide bit-for-bit with Sequential.
#[test]
fn full_quorum_async_matches_sequential_for_stateful_cells() {
    for attack in attacks() {
        for rule in rules() {
            let cell = format!("{attack} vs {} (async)", rule.name());
            let sequential = Scenario::from_spec(spec(attack, rule))
                .unwrap()
                .run()
                .unwrap();
            let mut async_spec = spec(attack, rule);
            async_spec.execution = ExecutionSpec::AsyncQuorum {
                quorum: 9,
                max_staleness: 2,
                reuse_stale: false,
                network: NetworkModel {
                    latency: LatencyModel::Constant { nanos: 0 },
                    nanos_per_byte: 0.0,
                },
            };
            let asynchronous = Scenario::from_spec(async_spec).unwrap().run().unwrap();
            assert_eq!(sequential.final_params, asynchronous.final_params, "{cell}");
            assert_eq!(
                sequential
                    .history
                    .trajectory_mismatch(&asynchronous.history),
                None,
                "{cell}"
            );
        }
    }
}

/// Loopback serving of a stateful × stateful cell: the adversary observes
/// through `Frame::RoundFeedback` frames instead of an in-process call,
/// the defense state lives server-side, and the trajectory is still
/// bit-identical to the in-process run. One cell per attack keeps the
/// socket-heavy part of the suite bounded.
#[test]
fn loopback_stateful_cells_match_in_process_bit_for_bit() {
    let cells = vec![
        (
            AttackSpec::InlierDrift {
                sigma: 1.5,
                target: DriftTarget::Neg,
            },
            RuleSpec::ReputationWeighted { eta: 0.2 },
        ),
        (
            AttackSpec::AdaptiveProbe {
                start: 1.0,
                grow: 1.25,
                backoff: 0.5,
            },
            RuleSpec::CenteredClip {
                tau: 2.0,
                beta: 0.9,
            },
        ),
        (AttackSpec::AlieVariance { scale: 1.0 }, RuleSpec::Krum),
    ];
    for (attack, rule) in cells {
        let cell = format!("{attack} vs {} (loopback)", rule.name());
        let s = spec(attack, rule);
        let served = run_loopback(s.clone()).unwrap();
        let in_process = Scenario::from_spec(s).unwrap().run().unwrap();
        assert_eq!(served.final_params, in_process.final_params, "{cell}");
        assert_eq!(
            served.history.trajectory_mismatch(&in_process.history),
            None,
            "{cell}"
        );
    }
}

/// A stateful defense against a *stateless* attack also crosses the wire
/// bit-exactly — no feedback frames fire (the attack has no observe hook),
/// but the server-side reputation state still shapes every aggregate.
#[test]
fn loopback_stateful_defense_against_stateless_attack_matches_in_process() {
    let s = spec(
        AttackSpec::SignFlip { scale: 3.0 },
        RuleSpec::ReputationWeighted { eta: 0.25 },
    );
    let served = run_loopback(s.clone()).unwrap();
    let in_process = Scenario::from_spec(s).unwrap().run().unwrap();
    assert_eq!(
        served.final_params, in_process.final_params,
        "sign-flip vs reputation-weighted"
    );
    assert_eq!(
        served.history.trajectory_mismatch(&in_process.history),
        None,
        "sign-flip vs reputation-weighted"
    );
    assert!(
        served
            .history
            .rounds
            .iter()
            .any(|r| r.reputation_spread.is_some()),
        "the reputation column must be live on the served run"
    );
}
