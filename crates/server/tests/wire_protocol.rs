//! Handshake and protocol-violation behaviour of the serving loop, driven
//! through raw sockets: version mismatches are rejected with a structured
//! `Shutdown`, garbage handshakes only cost their own socket, and the
//! server keeps serving its legitimate workers throughout.

use std::net::TcpStream;

use krum_attacks::AttackSpec;
use krum_core::RuleSpec;
use krum_dist::{ClusterSpec, LearningRateSchedule};
use krum_models::EstimatorSpec;
use krum_scenario::{ExecutionSpec, InitSpec, ProbeSpec, ScenarioSpec};
use krum_server::{run_worker, Server};
use krum_wire::{read_frame, write_frame, Frame, PROTOCOL_VERSION};

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "wire-protocol".into(),
        cluster: ClusterSpec::new(5, 0).unwrap(),
        rule: RuleSpec::Average,
        attack: AttackSpec::None,
        estimator: EstimatorSpec::GaussianQuadratic { dim: 4, sigma: 0.1 },
        schedule: LearningRateSchedule::Constant { gamma: 0.2 },
        execution: ExecutionSpec::remote(None, 0),
        rounds: 3,
        eval_every: 3,
        seed: 11,
        init: InitSpec::Fill { value: 1.0 },
        probes: ProbeSpec::default(),
        fault_plan: None,
        compression: None,
    }
}

/// A peer speaking the wrong protocol version gets a structured `Shutdown`
/// naming both versions, and the server then serves its real workers to
/// completion.
#[test]
fn version_mismatch_is_rejected_with_a_structured_shutdown() {
    let server = Server::bind("127.0.0.1:0", spec(), 1).unwrap();
    let addr = server.local_addr().unwrap();
    let needed = server.connections_per_job();
    assert_eq!(needed, 5, "f = 0 needs no adversary connection");
    let server_thread = std::thread::spawn(move || server.run());

    // Wrong version: rejected without consuming a worker slot.
    let mut bad = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut bad,
        &Frame::Hello {
            version: PROTOCOL_VERSION + 1,
            agent: "time-traveller".into(),
        },
    )
    .unwrap();
    let (frame, _) = read_frame(&mut bad).unwrap();
    match frame {
        Frame::Shutdown { reason, .. } => {
            assert!(reason.contains("version mismatch"), "got: {reason}");
            assert!(reason.contains(&format!("v{PROTOCOL_VERSION}")));
        }
        other => panic!("expected Shutdown, got {other:?}"),
    }
    drop(bad);

    // A non-Hello opener costs only its own socket.
    let mut rude = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut rude,
        &Frame::Propose {
            job: 0,
            round: 0,
            worker: 0,
            proposal: vec![1.0; 4],
        },
    )
    .unwrap();
    drop(rude);

    // The legitimate workers still staff and finish the job.
    let workers: Vec<_> = (0..needed)
        .map(|_| std::thread::spawn(move || run_worker(addr)))
        .collect();
    let outcomes = server_thread.join().unwrap().unwrap();
    assert_eq!(outcomes.len(), 1);
    let report = outcomes.into_iter().next().unwrap().result.unwrap();
    assert_eq!(report.history.len(), 3);
    for worker in workers {
        let summary = worker.join().unwrap().unwrap();
        assert_eq!(summary.rounds, 3);
        assert!(!summary.adversary);
        assert_eq!(summary.shutdown_reason, "job complete");
        assert_eq!(
            summary.final_params.as_ref().map(|p| p.dim()),
            Some(4),
            "every worker receives the final model"
        );
        assert!(summary.wire_bytes > 0);
    }
}

/// Binding rejects invalid configurations up front: a spec that fails
/// cross-validation and a zero job count.
#[test]
fn bind_validates_spec_and_job_count() {
    let mut bad = spec();
    bad.rounds = 0;
    assert!(Server::bind("127.0.0.1:0", bad, 1).is_err());
    assert!(Server::bind("127.0.0.1:0", spec(), 0).is_err());
    // Remote quorum bounds are enforced through the same validation.
    let mut bad = spec();
    bad.execution = ExecutionSpec::remote(Some(2), 1); // quorum < n - f = 5
    assert!(Server::bind("127.0.0.1:0", bad, 1).is_err());
    // A model too large for the observation relay frame is rejected at
    // bind time with a clear message, not mid-round at the receiver.
    let mut huge = spec();
    huge.estimator = EstimatorSpec::GaussianQuadratic {
        dim: 10_000_000,
        sigma: 0.1,
    };
    let err = Server::bind("127.0.0.1:0", huge, 1).unwrap_err();
    assert!(
        err.to_string().contains("wire"),
        "expected a wire-size error, got: {err}"
    );
}

/// `job_specs` exposes the derived per-job scenarios (`name#k`,
/// `seed + k`) so operators can see exactly what a `--jobs K` serve runs.
#[test]
fn job_specs_expose_the_seed_derivation() {
    let server = Server::bind("127.0.0.1:0", spec(), 3).unwrap();
    let specs = server.job_specs();
    assert_eq!(specs.len(), 3);
    assert_eq!(specs[0].name, "wire-protocol");
    assert_eq!(specs[0].seed, 11);
    assert_eq!(specs[2].name, "wire-protocol#2");
    assert_eq!(specs[2].seed, 13);
}

/// What a hand-rolled client records of one frame: its name, and the round
/// for the frames that belong to one.
fn label(frame: &Frame) -> String {
    match frame {
        Frame::Broadcast { round, .. } | Frame::RoundClosed { round, .. } => {
            format!("{}({round})", frame.name())
        }
        other => other.name().to_string(),
    }
}

/// Every connection sees its frames in protocol order: the assignment,
/// then each round's broadcast followed by that round's close, then the
/// final model and the goodbye. A hand-rolled honest client staffs slot 0
/// of an n = 5, f = 1 job (real workers fill the rest, adversary included)
/// and records every frame it receives.
#[test]
fn an_honest_connection_sees_every_frame_in_protocol_order() {
    let mut order_spec = spec();
    order_spec.cluster = ClusterSpec::new(5, 1).unwrap();
    order_spec.rule = RuleSpec::Krum;
    order_spec.attack = AttackSpec::SignFlip { scale: 3.0 };
    let server = Server::bind("127.0.0.1:0", order_spec, 1).unwrap();
    let addr = server.local_addr().unwrap();
    assert_eq!(server.connections_per_job(), 5);
    let server_thread = std::thread::spawn(move || server.run());

    // The recorder handshakes before any real worker connects, so it
    // takes the first free slot: honest worker 0.
    let mut client = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut client,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            agent: "frame-recorder".into(),
        },
    )
    .unwrap();
    let (assign, _) = read_frame(&mut client).unwrap();
    let Frame::JobAssign { job, worker, .. } = assign else {
        panic!("expected JobAssign, got {assign:?}");
    };
    assert_eq!(worker, 0);
    let mut seen = vec![label(&assign)];
    let workers: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || run_worker(addr)))
        .collect();

    loop {
        let (frame, _) = read_frame(&mut client).unwrap();
        match &frame {
            Frame::Broadcast { round, params, .. } => write_frame(
                &mut client,
                &Frame::Propose {
                    job,
                    round: *round,
                    worker,
                    proposal: params.clone(),
                },
            )
            .map(drop)
            .unwrap(),
            // A heartbeat is answered, not part of the protocol order.
            Frame::Ping { nonce, .. } => {
                write_frame(&mut client, &Frame::Pong { job, nonce: *nonce }).unwrap();
                continue;
            }
            _ => {}
        }
        seen.push(label(&frame));
        if matches!(frame, Frame::Shutdown { .. }) {
            break;
        }
    }
    let expected: Vec<String> = ["job-assign"]
        .into_iter()
        .map(String::from)
        .chain((0..3).flat_map(|t| [format!("broadcast({t})"), format!("round-closed({t})")]))
        .chain(["aggregate".into(), "shutdown".into()])
        .collect();
    assert_eq!(seen, expected);

    let outcome = server_thread.join().unwrap().unwrap().pop().unwrap();
    assert_eq!(outcome.result.unwrap().history.len(), 3);
    for handle in workers {
        assert_eq!(
            handle.join().unwrap().unwrap().shutdown_reason,
            "job complete"
        );
    }
}
