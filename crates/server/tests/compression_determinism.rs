//! The determinism contract of the `krum-compress` tentpole: a loopback
//! run under any negotiated codec — compressed frames on real sockets —
//! reproduces the in-process run of the *same quantized scenario*
//! **bit-for-bit** per seed. Quantize-before-aggregate means both worlds
//! feed identical post-transform bits to the aggregation rule, so the
//! trajectories cannot drift. Also pins the `raw_bytes` accounting and
//! the v1-client-vs-v2-server uncompressed fallback.

use std::thread;

use krum_attacks::AttackSpec;
use krum_compress::CompressionSpec;
use krum_core::RuleSpec;
use krum_dist::{ClusterSpec, LearningRateSchedule};
use krum_models::EstimatorSpec;
use krum_scenario::{ExecutionSpec, InitSpec, ProbeSpec, Scenario, ScenarioReport, ScenarioSpec};
use krum_server::{run_loopback, Server, ServerError, WorkerClient};

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "compression-determinism".into(),
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

fn compressed(codec: CompressionSpec) -> ScenarioSpec {
    let mut s = spec();
    s.compression = Some(codec);
    s
}

/// Acceptance: for every codec the spec grammar can name, a loopback run
/// with compressed frames is bit-identical to the in-process run of the
/// same quantized scenario.
#[test]
fn every_codec_loopback_matches_in_process_quantized_run_bit_for_bit() {
    let codecs = [
        CompressionSpec::Bfp {
            block: 64,
            bits: 12,
        },
        CompressionSpec::TopK { k: 4 },
        CompressionSpec::DeltaBfp {
            block: 32,
            bits: 10,
        },
        CompressionSpec::DeltaTopK { k: 4 },
    ];
    for codec in codecs {
        let s = compressed(codec);
        let served = run_loopback(s.clone()).unwrap_or_else(|e| panic!("{codec}: {e}"));
        let in_process = Scenario::from_spec(s).unwrap().run().unwrap();
        assert_eq!(served.final_params, in_process.final_params);
        assert_eq!(
            served.history.trajectory_mismatch(&in_process.history),
            None
        );
    }
}

/// Quantization changes the trajectory (that is the point of pinning the
/// quantized run, not the fp64 one): a BFP-compressed run must differ from
/// the uncompressed run of the same seed, yet stay finite and convergent.
#[test]
fn quantization_perturbs_but_does_not_break_the_trajectory() {
    let base = run_loopback(spec()).unwrap();
    let quantized = run_loopback(compressed(CompressionSpec::Bfp { block: 64, bits: 8 })).unwrap();
    assert_ne!(
        base.final_params, quantized.final_params,
        "an 8-bit mantissa must actually quantize"
    );
    assert!(quantized.final_params.is_finite());
    assert!(!quantized.summary().diverged);
}

/// `raw_bytes` accounting: a compressed run reports post-compression
/// `wire_bytes` and the uncompressed-equivalent `raw_bytes`, with a real
/// reduction; an uncompressed run reports `raw_bytes == wire_bytes`.
#[test]
fn raw_bytes_records_the_uncompressed_wire_equivalent() {
    let compressed_run = run_loopback(compressed(CompressionSpec::Bfp {
        block: 64,
        bits: 12,
    }))
    .unwrap();
    for record in &compressed_run.history.rounds {
        let wire = record.wire_bytes.expect("served rounds count wire bytes");
        let raw = record.raw_bytes.expect("served rounds count raw bytes");
        assert!(
            wire < raw,
            "round {}: compressed wire {wire} must undercut raw {raw}",
            record.round
        );
    }
    let ratio = compressed_run.history.total_raw_bytes() as f64
        / compressed_run.history.mean_wire_bytes().max(1.0)
        / compressed_run.history.len() as f64;
    assert!(ratio > 1.0, "compression must shrink the wire, got {ratio}");
    assert!(compressed_run.history.mean_raw_bytes() > compressed_run.history.mean_wire_bytes());

    let plain = run_loopback(spec()).unwrap();
    for record in &plain.history.rounds {
        assert_eq!(
            record.raw_bytes, record.wire_bytes,
            "without a codec the raw figure is the wire figure"
        );
    }

    // The CSV carries the new column.
    let csv = compressed_run.to_csv();
    assert!(csv.contains("raw_bytes"));
    assert!(csv.contains("# compression: bfp:block=64,bits=12"));
}

/// Runs a loopback where every worker pins the given wire-protocol
/// version instead of the default.
fn run_loopback_with_version(
    spec: ScenarioSpec,
    version: u16,
) -> Result<ScenarioReport, ServerError> {
    let server = Server::bind("127.0.0.1:0", spec, 1)?;
    let addr = server.local_addr()?;
    let workers: Vec<_> = (0..server.connections_per_job())
        .map(|i| {
            thread::Builder::new()
                .name(format!("krum-v{version}-worker-{i}"))
                .spawn(move || {
                    WorkerClient::connect(addr)?
                        .with_protocol_version(version)
                        .run()
                })
                .map_err(ServerError::from)
        })
        .collect::<Result<_, _>>()?;
    let outcomes = server.run()?;
    let mut reports = Vec::new();
    for outcome in outcomes {
        reports.push(outcome.result?);
    }
    for handle in workers {
        handle
            .join()
            .unwrap_or_else(|_| Err(ServerError::protocol("worker thread panicked")))?;
    }
    Ok(reports.pop().expect("one job produces one report"))
}

/// Version fallback: a v1 worker fleet against a v2 server with a codec
/// in the spec completes the job over *uncompressed* frames — and because
/// the server transforms raw proposals itself, the trajectory is still
/// bit-identical to the in-process quantized run. Never a hard break.
#[test]
fn v1_workers_against_v2_server_fall_back_to_uncompressed_frames() {
    let s = compressed(CompressionSpec::Bfp {
        block: 64,
        bits: 12,
    });
    let served_v1 = run_loopback_with_version(s.clone(), 1).unwrap();
    let in_process = Scenario::from_spec(s).unwrap().run().unwrap();
    assert_eq!(served_v1.final_params, in_process.final_params);
    assert_eq!(
        served_v1.history.trajectory_mismatch(&in_process.history),
        None
    );

    // Uncompressed framing: the v1 run pays the full raw price.
    for record in &served_v1.history.rounds {
        assert_eq!(
            record.raw_bytes, record.wire_bytes,
            "v1 sessions move raw frames only"
        );
    }
}

/// The fallback composes with negotiation: v2 workers on the same spec
/// move strictly fewer bytes than the v1 fleet while producing the same
/// bits.
#[test]
fn v2_negotiation_beats_the_v1_fallback_on_the_wire() {
    let s = compressed(CompressionSpec::Bfp {
        block: 64,
        bits: 12,
    });
    let v1 = run_loopback_with_version(s.clone(), 1).unwrap();
    let v2 = run_loopback(s).unwrap();
    assert_eq!(v1.final_params, v2.final_params);
    assert!(
        v2.history.mean_wire_bytes() < v1.history.mean_wire_bytes(),
        "v2 {} vs v1 {}",
        v2.history.mean_wire_bytes(),
        v1.history.mean_wire_bytes()
    );
    // Both fleets agree on what the traffic *would* have cost raw.
    assert_eq!(v1.history.total_raw_bytes(), v2.history.total_raw_bytes());
}

/// Compression survives the async-quorum path too: `quorum = n` over real
/// sockets with a codec still matches the in-process async engine run of
/// the quantized scenario.
#[test]
fn compressed_full_quorum_matches_in_process_async_engine() {
    use krum_dist::{LatencyModel, NetworkModel};
    let mut s = compressed(CompressionSpec::Bfp {
        block: 64,
        bits: 12,
    });
    s.execution = ExecutionSpec::AsyncQuorum {
        quorum: 9,
        max_staleness: 2,
        reuse_stale: false,
        network: NetworkModel {
            latency: LatencyModel::Constant { nanos: 0 },
            nanos_per_byte: 0.0,
        },
    };
    let served = run_loopback(s.clone()).unwrap();
    let in_process = Scenario::from_spec(s).unwrap().run().unwrap();
    assert_eq!(served.final_params, in_process.final_params);
    assert_eq!(
        served.history.trajectory_mismatch(&in_process.history),
        None
    );
}

/// Compressed loopback runs are reproducible across servings: real
/// arrival order differs, the bits do not.
#[test]
fn compressed_loopback_runs_are_reproducible_across_servings() {
    let s = compressed(CompressionSpec::DeltaBfp {
        block: 64,
        bits: 12,
    });
    let a = run_loopback(s.clone()).unwrap();
    let b = run_loopback(s).unwrap();
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.history.trajectory_mismatch(&b.history), None);
}
