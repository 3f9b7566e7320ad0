//! The determinism contract of the server subsystem: a loopback run —
//! real sockets, real threads, real arrival order — reproduces the
//! in-process `Scenario::run()` trajectory **bit-for-bit** for the same
//! spec and seed whenever rounds close at the full barrier (or at
//! `quorum = n`). This is the acceptance criterion of the `krum-server`
//! tentpole.

use krum_attacks::AttackSpec;
use krum_core::RuleSpec;
use krum_dist::{ClusterSpec, LatencyModel, LearningRateSchedule, NetworkModel};
use krum_models::{DataSpec, EstimatorSpec, ModelSpec};
use krum_scenario::{ExecutionSpec, InitSpec, ProbeSpec, Scenario, ScenarioSpec};
use krum_server::{run_loopback, run_loopback_jobs, ServerError};

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "loopback-determinism".into(),
        cluster: ClusterSpec::new(9, 2).unwrap(),
        rule: RuleSpec::Krum,
        attack: AttackSpec::SignFlip { scale: 3.0 },
        estimator: EstimatorSpec::GaussianQuadratic { dim: 6, sigma: 0.3 },
        schedule: LearningRateSchedule::Constant { gamma: 0.2 },
        execution: ExecutionSpec::Sequential,
        rounds: 15,
        eval_every: 4,
        seed: 7,
        init: InitSpec::Fill { value: 1.5 },
        probes: ProbeSpec::default(),
        fault_plan: None,
        compression: None,
    }
}

/// Acceptance: `krum loopback` with barrier rounds is bit-identical to
/// `Scenario::run()` per seed, and fills the wire columns the in-process
/// engine cannot.
#[test]
fn loopback_barrier_matches_in_process_scenario_bit_for_bit() {
    let served = run_loopback(spec()).unwrap();
    let in_process = Scenario::from_spec(spec()).unwrap().run().unwrap();
    assert_eq!(served.final_params, in_process.final_params);
    assert_eq!(
        served.history.trajectory_mismatch(&in_process.history),
        None
    );

    // The served run measured the wire; the in-process run could not.
    for record in &served.history.rounds {
        let bytes = record.wire_bytes.expect("served rounds count wire bytes");
        assert!(bytes > 0, "round {} moved no bytes", record.round);
        assert!(record.arrival_nanos.is_some());
        // Barrier execution leaves the quorum columns empty, like the
        // in-process barrier engines.
        assert!(record.quorum_size.is_none());
    }
    assert!(in_process.history.rounds[0].wire_bytes.is_none());
    assert!(served.history.mean_wire_bytes() > 0.0);
    assert!(served.history.mean_arrival_nanos() > 0.0);
    // The CSV export carries the wire columns.
    let csv = served.to_csv();
    assert!(csv.contains("wire_bytes"));
    assert!(csv.contains("arrival_nanos"));
    assert!(csv.contains("# execution: sequential"));
}

/// `quorum = n` over real sockets: same trajectory as the in-process
/// async-quorum engine (which itself reproduces Sequential), with the
/// quorum columns recorded and no staleness.
#[test]
fn loopback_full_quorum_matches_in_process_async_engine() {
    let mut async_spec = spec();
    async_spec.execution = ExecutionSpec::AsyncQuorum {
        quorum: 9,
        max_staleness: 2,
        reuse_stale: false,
        network: NetworkModel {
            latency: LatencyModel::Constant { nanos: 0 },
            nanos_per_byte: 0.0,
        },
    };
    let served = run_loopback(async_spec.clone()).unwrap();
    let in_process = Scenario::from_spec(async_spec).unwrap().run().unwrap();
    assert_eq!(served.final_params, in_process.final_params);
    assert_eq!(
        served.history.trajectory_mismatch(&in_process.history),
        None
    );
    for (s, p) in served.history.rounds.iter().zip(&in_process.history.rounds) {
        assert_eq!(s.quorum_size, p.quorum_size);
        assert_eq!(s.stale_in_quorum, p.stale_in_quorum);
        assert_eq!(s.dropped_stale, p.dropped_stale);
        assert_eq!(s.pending_carryover, p.pending_carryover);
    }
    assert!((served.history.mean_quorum_size() - 9.0).abs() < 1e-12);
    assert_eq!(served.history.mean_stale_in_quorum(), 0.0);
}

/// The `Remote` execution spec (which the in-process runner refuses) runs
/// over loopback and, with a full barrier, still reproduces the Sequential
/// trajectory — the spec's execution field changes *where* rounds close,
/// never *what* is computed.
#[test]
fn remote_barrier_spec_reproduces_the_sequential_trajectory() {
    let mut remote = spec();
    remote.execution = ExecutionSpec::remote(None, 0);
    assert!(matches!(
        Scenario::from_spec(remote.clone()),
        Err(krum_scenario::ScenarioError::InvalidSpec(_))
    ));
    let served = run_loopback(remote).unwrap();
    let sequential = Scenario::from_spec(spec()).unwrap().run().unwrap();
    assert_eq!(served.final_params, sequential.final_params);
    assert_eq!(
        served.history.trajectory_mismatch(&sequential.history),
        None
    );
}

/// A remote partial quorum (`Remote { quorum: Some(q) }`) serves end to
/// end: rounds close at the q-th real arrival, the quorum/staleness
/// columns are recorded, the rule is validated against the quorum arity,
/// and repeated runs stay finite and well-formed.
#[test]
fn remote_partial_quorum_serves_with_staleness_accounting() {
    let mut remote = spec();
    remote.execution = ExecutionSpec::remote(Some(7), 2);
    let served = run_loopback(remote).unwrap();
    assert!(served.final_params.is_finite());
    assert!((served.history.mean_quorum_size() - 7.0).abs() < 1e-12);
    for record in &served.history.rounds {
        assert_eq!(record.quorum_size, Some(7));
        assert!(record.dropped_stale.is_some());
        assert!(record.pending_carryover.is_some());
        assert!(record.wire_bytes.is_some());
    }
    // 9 workers race for 7 slots every round: the surplus carries.
    let carried: usize = served
        .history
        .rounds
        .iter()
        .filter_map(|r| r.pending_carryover)
        .sum();
    assert!(carried > 0, "a 7-of-9 quorum must carry stragglers");
}

/// Loopback runs are reproducible: two servings of the same spec produce
/// identical trajectories even though thread scheduling and real arrival
/// order differ between them (the barrier sorts arrivals back into worker
/// order).
#[test]
fn loopback_runs_are_reproducible_across_servings() {
    let a = run_loopback(spec()).unwrap();
    let b = run_loopback(spec()).unwrap();
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.history.trajectory_mismatch(&b.history), None);
}

/// A synthetic (dataset-backed) workload with accuracy probes crosses the
/// wire bit-exactly too — estimator clusters, probe, holdout split and
/// accuracy hook all rebuild deterministically on the worker side.
#[test]
fn synthetic_workload_with_accuracy_probe_matches_in_process() {
    let mut s = spec();
    s.cluster = ClusterSpec::new(7, 2).unwrap();
    s.estimator = EstimatorSpec::Synthetic {
        model: ModelSpec::Logistic { features: 5 },
        data: DataSpec::LogisticRegression { samples: 160 },
        batch: 8,
        holdout: 0.25,
    };
    s.schedule = LearningRateSchedule::Constant { gamma: 0.5 };
    s.rounds = 10;
    s.eval_every = 3;
    s.init = InitSpec::Zeros;
    let served = run_loopback(s.clone()).unwrap();
    let in_process = Scenario::from_spec(s).unwrap().run().unwrap();
    assert_eq!(served.final_params, in_process.final_params);
    assert_eq!(
        served.history.trajectory_mismatch(&in_process.history),
        None
    );
    assert!(
        served.summary().final_accuracy.is_some(),
        "the served run must evaluate held-out accuracy"
    );
}

/// Multi-job serving: `--jobs K` derives job k from the base spec with
/// `name#k` / `seed + k`; job 0 is exactly the single-job run and every
/// job matches its in-process twin.
#[test]
fn concurrent_jobs_are_independent_seed_derived_runs() {
    let mut base = spec();
    base.rounds = 8;
    let reports = run_loopback_jobs(base.clone(), 2).unwrap();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].spec.name, "loopback-determinism");
    assert_eq!(reports[1].spec.name, "loopback-determinism#1");
    assert_eq!(reports[1].spec.seed, base.seed + 1);

    let solo = run_loopback(base.clone()).unwrap();
    assert_eq!(reports[0].final_params, solo.final_params);

    let mut twin = base.clone();
    twin.seed += 1;
    let twin_run = Scenario::from_spec(twin).unwrap().run().unwrap();
    assert_eq!(reports[1].final_params, twin_run.final_params);
    assert_ne!(
        reports[0].final_params, reports[1].final_params,
        "different seeds must give different trajectories"
    );
}

/// The PR-4 NaN-poisoning guarantee holds across the wire: a non-finite
/// attacker against a filtering rule (krum) yields a fully finite
/// trajectory; against plain averaging the job fails with the structured
/// poisoned-round error — never a panic, never silent garbage.
#[test]
fn nan_poisoning_guarantee_extends_across_the_wire() {
    let mut filtered = spec();
    filtered.attack = AttackSpec::NonFinite;
    filtered.rounds = 6;
    let report = run_loopback(filtered).unwrap();
    assert!(report.final_params.is_finite());
    assert!(!report.summary().diverged);

    let mut poisoned = spec();
    poisoned.attack = AttackSpec::NonFinite;
    poisoned.rule = RuleSpec::Average;
    poisoned.rounds = 6;
    let err = run_loopback(poisoned).unwrap_err();
    match err {
        ServerError::Train(train) => {
            assert!(train.to_string().contains("poisoned round"), "got: {train}")
        }
        other => panic!("expected a structured poisoned-round error, got: {other}"),
    }
}

/// A worker count of zero Byzantine (f = 0) serves without an adversary
/// connection at all.
#[test]
fn clean_clusters_serve_without_an_adversary_connection() {
    let mut clean = spec();
    clean.cluster = ClusterSpec::new(6, 0).unwrap();
    clean.attack = AttackSpec::None;
    clean.rule = RuleSpec::Average;
    clean.rounds = 6;
    let served = run_loopback(clean.clone()).unwrap();
    let in_process = Scenario::from_spec(clean).unwrap().run().unwrap();
    assert_eq!(served.final_params, in_process.final_params);
    assert_eq!(
        served.history.trajectory_mismatch(&in_process.history),
        None
    );
}

/// Tentpole: a hierarchical rule serves over real sockets unchanged — the
/// spec travels as its string form (`hierarchical:groups=4`), the server
/// builds the two-stage rule, and the served trajectory is bit-identical
/// to the in-process run.
#[test]
fn loopback_hierarchical_rule_matches_in_process() {
    let mut hier = spec();
    hier.cluster = ClusterSpec::new(24, 3).unwrap();
    hier.rule = RuleSpec::Hierarchical {
        groups: 4,
        inner: krum_core::StageRule::Krum,
        outer: krum_core::StageRule::Krum,
    };
    hier.rounds = 10;
    let served = run_loopback(hier.clone()).unwrap();
    let in_process = Scenario::from_spec(hier).unwrap().run().unwrap();
    assert_eq!(served.final_params, in_process.final_params);
    assert_eq!(
        served.history.trajectory_mismatch(&in_process.history),
        None
    );
}

/// Reuse-stale execution needs an engine-side latest-proposal table the
/// wire protocol cannot express; the server refuses it with a structured
/// error instead of silently running different semantics.
#[test]
fn loopback_rejects_reuse_stale_execution() {
    let mut reuse = spec();
    reuse.execution = ExecutionSpec::AsyncQuorum {
        quorum: 3,
        max_staleness: 4,
        network: NetworkModel {
            latency: LatencyModel::Constant { nanos: 0 },
            nanos_per_byte: 0.0,
        },
        reuse_stale: true,
    };
    let err = run_loopback(reuse).unwrap_err();
    match err {
        ServerError::Protocol(message) => {
            assert!(message.contains("reuse-stale"), "got: {message}")
        }
        other => panic!("expected a structured protocol error, got: {other}"),
    }
}

/// Bytes one barrier round moves for an uncompressed, stateless-attack job
/// with `n` workers, `f` Byzantine and dimension `d`, from the frame layout
/// alone (8 bytes of length prefix and CRC, 1 tag byte, then the fields):
/// `n − f` broadcasts, one observation relay of the `n − f` honest
/// proposals, `n` proposals and `n − f + 1` round-closed frames.
fn barrier_round_bytes(n: usize, f: usize, d: usize) -> u64 {
    let honest = n - f;
    let vector = 4 + 8 * d;
    let broadcast = 9 + 8 + 8 + vector + 4;
    let relay = broadcast + honest * vector;
    let propose = 9 + 8 + 8 + 4 + vector;
    let round_closed = 9 + 8 + 8 + 4 + 8;
    (honest * broadcast + relay + n * propose + (honest + 1) * round_closed) as u64
}

/// The framing is pinned byte for byte: every served barrier round moves
/// exactly the arithmetic frame total, uncompressed (`wire_bytes ==
/// raw_bytes`). A change to the frame layout, or a frame sent twice or not
/// at all, fails here — including for the n = 40, f = 4, d = 1000
/// reference scenario, whose rounds move 908,054 bytes.
#[test]
fn barrier_rounds_move_exactly_the_arithmetic_frame_total() {
    assert_eq!(barrier_round_bytes(40, 4, 1000), 908_054);
    let mut reference = spec();
    reference.cluster = ClusterSpec::new(40, 4).unwrap();
    reference.estimator = EstimatorSpec::GaussianQuadratic {
        dim: 1000,
        sigma: 0.2,
    };
    reference.rounds = 3;
    for (spec, n, f, d) in [(spec(), 9, 2, 6), (reference, 40, 4, 1000)] {
        let served = run_loopback(spec).unwrap();
        let expected = barrier_round_bytes(n, f, d);
        for record in &served.history.rounds {
            assert_eq!(record.wire_bytes, Some(expected), "round {}", record.round);
            assert_eq!(record.raw_bytes, Some(expected), "round {}", record.round);
        }
    }
}
