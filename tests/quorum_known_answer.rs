//! Known-answer pins for partial-quorum trajectories.
//!
//! The async determinism suites compare repeated runs of one engine and the
//! `quorum = n` collapse to the barrier, so a change to *which* proposals a
//! partial quorum aggregates — carry-over order, the reserved room of a
//! last-to-respond adversary, the staleness bound — would pass all of them
//! unnoticed. This file pins absolute values instead: for every cell of a
//! small grid of clusters, adversaries, quorums and staleness bounds, a
//! digest of the final parameters and a digest of every round's
//! deterministic columns (aggregate norm, loss, selection, the five
//! quorum/staleness columns, the simulated network charge and the three
//! drift columns).
//!
//! The constants are the contract: a refactor of the quorum machine must
//! reproduce every one of them. They are those of the paired Box–Muller
//! `Normal::fill` (two samples per word pair).

use krum::aggregation::RuleSpec;
use krum::attacks::{AttackSpec, DriftTarget};
use krum::dist::{LatencyModel, LearningRateSchedule, NetworkModel};
use krum::metrics::RoundRecord;
use krum::models::EstimatorSpec;
use krum::scenario::{ScenarioBuilder, ScenarioReport};

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    /// `None` and `Some(x)` hash apart: a tag word, then the value.
    fn opt(&mut self, value: Option<u64>) {
        match value {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.word(v);
            }
        }
    }
}

fn params_digest(report: &ScenarioReport) -> u64 {
    let mut d = Digest::new();
    for &x in report.final_params.as_slice() {
        d.float(x);
    }
    d.0
}

fn rounds_digest(rounds: &[RoundRecord]) -> u64 {
    let count = |v: Option<usize>| v.map(|c| c as u64);
    let float = |v: Option<f64>| v.map(f64::to_bits);
    let mut d = Digest::new();
    for r in rounds {
        d.word(r.round as u64);
        d.float(r.aggregate_norm);
        d.opt(float(r.loss));
        d.opt(count(r.selected_worker));
        d.opt(r.selected_byzantine.map(u64::from));
        d.opt(count(r.quorum_size));
        d.opt(count(r.stale_in_quorum));
        d.opt(count(r.max_staleness_in_quorum));
        d.opt(count(r.dropped_stale));
        d.opt(count(r.pending_carryover));
        d.word(r.network_nanos as u64);
        d.word((r.network_nanos >> 64) as u64);
        d.opt(float(r.dist_to_honest_mean));
        d.opt(float(r.attacker_displacement));
        d.opt(float(r.reputation_spread));
    }
    d.0
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

fn base(n: usize, f: usize, attack: AttackSpec) -> ScenarioBuilder {
    ScenarioBuilder::new(n, f)
        .attack(attack)
        .estimator(EstimatorSpec::GaussianQuadratic {
            dim: 16,
            sigma: 0.3,
        })
        .schedule(LearningRateSchedule::Constant { gamma: 0.1 })
        .rounds(40)
        .eval_every(5)
        .seed(7)
        .init_fill(1.5)
}

const SIGN_FLIP: AttackSpec = AttackSpec::SignFlip { scale: 3.0 };
const STRAGGLER: AttackSpec = AttackSpec::Straggler { scale: 3.0 };
const LAST: AttackSpec = AttackSpec::LastToRespond { scale: 2.0 };

/// One pinned cell: a name for failure messages, the scenario, and the
/// expected `(params, rounds)` digests.
struct Cell {
    name: &'static str,
    scenario: ScenarioBuilder,
    expected: (u64, u64),
}

fn cells() -> Vec<Cell> {
    let q = |n, f, attack, quorum, staleness| {
        base(n, f, attack).async_quorum(quorum, staleness, heavy_tail())
    };
    let reuse =
        |attack, quorum, staleness| base(9, 2, attack).async_reuse(quorum, staleness, heavy_tail());
    vec![
        Cell {
            name: "n11 sign-flip q9 s2",
            scenario: q(11, 2, SIGN_FLIP, 9, 2),
            expected: (0xa4b7_99d4_0a0c_2818, 0x8e1d_23a9_0ccd_b077),
        },
        Cell {
            name: "n11 sign-flip q9 s0",
            scenario: q(11, 2, SIGN_FLIP, 9, 0),
            expected: (0x1400_2432_e84e_f0a5, 0x865a_5c29_0d1e_d905),
        },
        Cell {
            name: "n11 straggler q9 s2",
            scenario: q(11, 2, STRAGGLER, 9, 2),
            expected: (0x1333_92ba_24b0_3283, 0x7b1a_e036_3df3_dc0a),
        },
        Cell {
            name: "n11 last-to-respond q9 s3",
            scenario: q(11, 2, LAST, 9, 3),
            expected: (0x207d_1ad9_2151_d745, 0x2d5d_8d7c_6db2_d774),
        },
        Cell {
            name: "n11 reputation-weighted vs inlier-drift q9 s2",
            scenario: q(
                11,
                2,
                AttackSpec::InlierDrift {
                    sigma: 1.5,
                    target: DriftTarget::Neg,
                },
                9,
                2,
            )
            .rule(RuleSpec::ReputationWeighted { eta: 0.3 }),
            expected: (0x348c_dfdf_c7d3_c92e, 0x3582_99ff_6007_4daf),
        },
        Cell {
            name: "n9 last-to-respond q7 s2",
            scenario: q(9, 2, LAST, 7, 2),
            expected: (0x16e0_35f2_865a_b62c, 0xeea1_b30f_7a82_5618),
        },
        Cell {
            name: "n9 last-to-respond q7 s4",
            scenario: q(9, 2, LAST, 7, 4),
            expected: (0x1269_543d_d498_d8ef, 0x55c4_7a70_feb4_7ba1),
        },
        Cell {
            name: "n9 straggler q7 s4",
            scenario: q(9, 2, STRAGGLER, 7, 4),
            expected: (0x90a0_0b82_5e61_cdab, 0xca55_de11_b28c_4074),
        },
        Cell {
            name: "n9 reuse sign-flip q4 s3",
            scenario: reuse(SIGN_FLIP, 4, 3),
            expected: (0x34d3_f2c0_c3d4_672f, 0xec33_5252_56c7_eb4c),
        },
        Cell {
            name: "n9 reuse last-to-respond q4 s2",
            scenario: reuse(LAST, 4, 2),
            expected: (0xf76e_2374_5ab1_ff21, 0x73d2_a83b_881e_187e),
        },
        Cell {
            name: "n7 median vs last-to-respond q5 s6",
            scenario: q(7, 2, LAST, 5, 6).rule(RuleSpec::Median),
            expected: (0xd8c0_a798_e7cd_a0d7, 0xfb06_5b32_8362_7b4d),
        },
    ]
}

#[test]
fn partial_quorum_trajectories_are_pinned() {
    let mut failures = Vec::new();
    for cell in cells() {
        let report = cell.scenario.run().unwrap();
        assert_eq!(report.history.len(), 40, "{}", cell.name);
        let got = (
            params_digest(&report),
            rounds_digest(&report.history.rounds),
        );
        println!("{}: ({:#018x}, {:#018x})", cell.name, got.0, got.1);
        if got != cell.expected {
            failures.push(cell.name);
        }
    }
    assert!(failures.is_empty(), "digests changed for {failures:?}");
}
