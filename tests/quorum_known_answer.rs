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
//! reproduce every one of them.

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
            expected: (0x6bf6_eb23_4ef0_5d83, 0x7cf5_ef15_83b4_cad8),
        },
        Cell {
            name: "n11 sign-flip q9 s0",
            scenario: q(11, 2, SIGN_FLIP, 9, 0),
            expected: (0xa60a_01d4_b1e8_72be, 0x26db_5975_30e6_5b07),
        },
        Cell {
            name: "n11 straggler q9 s2",
            scenario: q(11, 2, STRAGGLER, 9, 2),
            expected: (0xa128_6b66_e5a9_8266, 0xce2e_ed76_ec7b_0d94),
        },
        Cell {
            name: "n11 last-to-respond q9 s3",
            scenario: q(11, 2, LAST, 9, 3),
            expected: (0xbca0_446d_2896_3a8c, 0xa786_964f_d506_b728),
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
            expected: (0x80d0_2623_d13c_46a8, 0xd2cc_b7df_f513_9dc9),
        },
        Cell {
            name: "n9 last-to-respond q7 s2",
            scenario: q(9, 2, LAST, 7, 2),
            expected: (0x5365_207c_9754_2f76, 0x977f_fe0d_f472_831f),
        },
        Cell {
            name: "n9 last-to-respond q7 s4",
            scenario: q(9, 2, LAST, 7, 4),
            expected: (0x8fbc_e04e_b404_36bb, 0xf206_5f69_5f56_bf59),
        },
        Cell {
            name: "n9 straggler q7 s4",
            scenario: q(9, 2, STRAGGLER, 7, 4),
            expected: (0x4b1c_85cb_6a2d_1c01, 0xc424_e3b4_2fc8_6b96),
        },
        Cell {
            name: "n9 reuse sign-flip q4 s3",
            scenario: reuse(SIGN_FLIP, 4, 3),
            expected: (0x5128_e205_7065_9384, 0x9b72_6e51_ac60_0088),
        },
        Cell {
            name: "n9 reuse last-to-respond q4 s2",
            scenario: reuse(LAST, 4, 2),
            expected: (0x132e_efb4_d8cd_7961, 0xd9bc_33a0_4e07_6143),
        },
        Cell {
            name: "n7 median vs last-to-respond q5 s6",
            scenario: q(7, 2, LAST, 5, 6).rule(RuleSpec::Median),
            expected: (0x6cac_d597_9954_f284, 0xb7aa_a229_70c3_abad),
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
