//! Integration pins for the async partial-quorum execution strategy
//! (acceptance criteria of the async-quorum PR):
//!
//! * `AsyncQuorum` with `quorum = n` and zero latency reproduces the
//!   Sequential trajectory exactly;
//! * async trajectories are bit-identical across repeated runs of the same
//!   seed, including under a heavy-tailed network with timing-aware
//!   adversaries;
//! * the exported CSV carries well-formed quorum/staleness columns.

use krum::attacks::AttackSpec;
use krum::dist::{LatencyModel, NetworkModel};
use krum::metrics::RoundRecord;
use krum::models::EstimatorSpec;
use krum::scenario::{ScenarioBuilder, ScenarioReport};

fn base(n: usize, f: usize) -> ScenarioBuilder {
    ScenarioBuilder::new(n, f)
        .attack(AttackSpec::SignFlip { scale: 3.0 })
        .estimator(EstimatorSpec::GaussianQuadratic { dim: 6, sigma: 0.3 })
        .rounds(30)
        .eval_every(5)
        .seed(42)
        .init_fill(1.5)
}

fn zero_latency() -> NetworkModel {
    NetworkModel {
        latency: LatencyModel::Constant { nanos: 0 },
        nanos_per_byte: 0.0,
    }
}

fn heavy_tail() -> NetworkModel {
    NetworkModel {
        latency: LatencyModel::Pareto {
            min_nanos: 50_000,
            alpha: 1.1,
        },
        nanos_per_byte: 0.05,
    }
}

#[test]
fn full_quorum_zero_latency_reproduces_the_sequential_trajectory() {
    let sequential = base(9, 2).run().unwrap();
    let quorum = base(9, 2).async_quorum(9, 2, zero_latency()).run().unwrap();
    assert_eq!(quorum.final_params, sequential.final_params);
    assert_eq!(
        quorum.history.trajectory_mismatch(&sequential.history),
        None
    );
}

#[test]
fn async_trajectories_are_bit_identical_across_repeated_runs() {
    let run = || -> ScenarioReport {
        base(11, 2)
            .attack(AttackSpec::Straggler { scale: 3.0 })
            .async_quorum(9, 2, heavy_tail())
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.history.trajectory_mismatch(&b.history), None);
    for (x, y) in a.history.rounds.iter().zip(&b.history.rounds) {
        assert_eq!(x.network_nanos, y.network_nanos);
        assert_eq!(x.quorum_size, y.quorum_size);
        assert_eq!(x.stale_in_quorum, y.stale_in_quorum);
        assert_eq!(x.dropped_stale, y.dropped_stale);
        assert_eq!(x.pending_carryover, y.pending_carryover);
    }
}

#[test]
fn async_csv_export_has_well_formed_staleness_columns() {
    let report = base(9, 2)
        .attack(AttackSpec::LastToRespond { scale: 2.0 })
        .async_quorum(7, 2, heavy_tail())
        .run()
        .unwrap();
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().filter(|l| !l.starts_with('#')).collect();
    let header: Vec<&str> = lines[0].split(',').collect();
    let expected_cells = RoundRecord::COLUMNS.len();
    for column in [
        "quorum_size",
        "stale_in_quorum",
        "max_staleness_in_quorum",
        "dropped_stale",
        "pending_carryover",
    ] {
        assert!(header.contains(&column), "missing column {column}");
    }
    let quorum_at = header.iter().position(|&c| c == "quorum_size").unwrap();
    for row in &lines[1..] {
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), expected_cells, "row: {row}");
        // Under async execution every row records its quorum size, and it
        // parses as the configured quorum.
        assert_eq!(cells[quorum_at].parse::<usize>().unwrap(), 7, "row: {row}");
    }
    // The last-to-respond adversary is in every quorum; Krum still holds.
    let stats = report.history.selection_stats();
    assert!(stats.total() > 0);
    assert!(report.final_params.is_finite());
}
