//! E14 — adaptive adversaries against stateful defenses: the drift curve.
//!
//! The `krum-adaptive` tentpole adds stateful multi-round attacks (the
//! inlier-drift steering attack lives *inside* the honest σ-band, so Krum
//! keeps selecting it) and stateful defenses (reputation-weighted EWMA
//! down-weighting, momentum-anchored centered clipping). This driver
//! measures who wins, with the drift-metrics layer as the judge: the
//! `attacker_displacement` column is the cumulative projection of the
//! applied updates onto the attack direction — the attacker's net pull on
//! the parameters. A defense works exactly when that curve stays flat.
//!
//! At `n = 40, f = 4, d = 1000` under `inlier-drift:sigma=1.0,target=neg`,
//! each cell is run **twice** from the same seed and asserted bit-identical
//! (stateful memory is still a deterministic function of spec × seed), and
//! the headline stateful×stateful cell is additionally served over loopback
//! TCP — the `RoundFeedback` frames on the wire must reproduce the
//! in-process trajectory bit-for-bit.
//!
//! Records `BENCH_adaptive_drift.json`:
//!
//! ```sh
//! cargo run --release -p krum-bench --bin e14_adaptive_drift > BENCH_adaptive_drift.json
//! ```
//!
//! (The human-readable table goes to stderr.)

use krum_attacks::{AttackSpec, DriftTarget};
use krum_bench::Table;
use krum_core::RuleSpec;
use krum_dist::LearningRateSchedule;
use krum_models::EstimatorSpec;
use krum_scenario::{Scenario, ScenarioBuilder, ScenarioSpec};
use krum_server::run_loopback;

const N: usize = 40;
const F: usize = 4;
const DIM: usize = 1_000;
const ROUNDS: usize = 120;
const SEED: u64 = 47;

fn spec(rule: RuleSpec) -> ScenarioSpec {
    ScenarioBuilder::new(N, F)
        .name("e14-adaptive-drift")
        .rule(rule)
        .attack(AttackSpec::InlierDrift {
            sigma: 1.0,
            target: DriftTarget::Neg,
        })
        .estimator(EstimatorSpec::GaussianQuadratic {
            dim: DIM,
            sigma: 0.2,
        })
        .schedule(LearningRateSchedule::Constant { gamma: 0.1 })
        .rounds(ROUNDS)
        .eval_every(ROUNDS)
        .seed(SEED)
        .init_fill(1.0)
        .spec()
        .expect("the e14 spec is valid")
}

struct Cell {
    label: &'static str,
    displacement: f64,
    mean_dist: f64,
    byz_selected: usize,
    final_loss: f64,
}

fn run(label: &'static str, rule: RuleSpec) -> Cell {
    let s = spec(rule);
    let a = Scenario::from_spec(s.clone())
        .expect("spec builds")
        .run()
        .expect("run succeeds");
    let b = Scenario::from_spec(s)
        .expect("spec builds")
        .run()
        .expect("run succeeds");
    // Stateful attack memory and stateful rule memory are deterministic:
    // two runs of the same seed must agree on every bit.
    assert_eq!(a.final_params, b.final_params, "{label}: final params");
    assert_eq!(a.history.trajectory_mismatch(&b.history), None, "{label}");
    let displacement = a
        .history
        .final_attacker_displacement()
        .expect("Byzantine rounds record a displacement");
    assert!(
        displacement.is_finite(),
        "{label}: displacement must be finite"
    );
    let byz_selected = a
        .history
        .rounds
        .iter()
        .filter(|r| r.selected_byzantine == Some(true))
        .count();
    Cell {
        label,
        displacement,
        mean_dist: a.history.mean_dist_to_honest_mean(),
        byz_selected,
        final_loss: a.summary().final_loss.expect("loss is recorded"),
    }
}

fn main() {
    let cells = [
        run("krum", RuleSpec::Krum),
        run("multi-krum", RuleSpec::MultiKrum { m: None }),
        run(
            "reputation-weighted:eta=0.2",
            RuleSpec::ReputationWeighted { eta: 0.2 },
        ),
        run(
            "centered-clip:tau=2,beta=0.9",
            RuleSpec::CenteredClip {
                tau: 2.0,
                beta: 0.9,
            },
        ),
    ];

    // The headline stateful×stateful cell crosses the wire: the adversary
    // adapts through RoundFeedback frames instead of an in-process call,
    // and the trajectory must not change by a single bit.
    let loopback_spec = spec(RuleSpec::ReputationWeighted { eta: 0.2 });
    let served = run_loopback(loopback_spec.clone()).expect("loopback serving succeeds");
    let in_process = Scenario::from_spec(loopback_spec)
        .expect("spec builds")
        .run()
        .expect("in-process run succeeds");
    let what = "loopback inlier-drift vs reputation-weighted";
    assert_eq!(served.final_params, in_process.final_params, "{what}");
    assert_eq!(
        served.history.trajectory_mismatch(&in_process.history),
        None,
        "{what}"
    );

    let mut table = Table::new([
        "rule",
        "attacker displacement",
        "mean dist to honest mean",
        "byz selected (rounds)",
        "final loss",
    ]);
    for cell in &cells {
        table.row([
            cell.label.to_string(),
            format!("{:+.4}", cell.displacement),
            format!("{:.4}", cell.mean_dist),
            format!("{}/{ROUNDS}", cell.byz_selected),
            format!("{:.3e}", cell.final_loss),
        ]);
    }
    eprintln!("{table}");

    let krum = &cells[0];
    let rw = &cells[2];
    let cc = &cells[3];
    let krum_disp = krum.displacement.abs();
    let rw_disp = rw.displacement.abs();
    let cc_disp = cc.displacement.abs();
    eprintln!(
        "inlier-drift pulls krum {:.1}x further than reputation-weighted and {:.1}x further \
         than centered-clip along the attack direction at n = {N}, f = {F}, d = {DIM}; every \
         cell reran bit-identically and the loopback cell matched in-process bit-for-bit\n",
        krum_disp / rw_disp.max(f64::MIN_POSITIVE),
        krum_disp / cc_disp.max(f64::MIN_POSITIVE),
    );
    assert!(
        krum_disp >= 3.0 * rw_disp || krum_disp >= 3.0 * cc_disp,
        "acceptance: krum's displacement ({krum_disp:.4}) must be >= 3x a stateful defense's \
         (reputation-weighted {rw_disp:.4}, centered-clip {cc_disp:.4})"
    );

    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                r#"    {{
      "rule": "{}",
      "attacker_displacement": {:.6},
      "mean_dist_to_honest_mean": {:.6},
      "byzantine_selected_rounds": {},
      "final_loss": {:.6e}
    }}"#,
                c.label, c.displacement, c.mean_dist, c.byz_selected, c.final_loss,
            )
        })
        .collect();
    let provenance = krum_bench::provenance();
    println!(
        r#"{{
  "benchmark": "e14_adaptive_drift (crates/bench/src/bin/e14_adaptive_drift.rs)",
  {provenance}
  "description": "stateful attack vs stateful defense drift curves: inlier-drift:sigma=1.0,target=neg (a steering attack that stays inside the honest sigma-band and adapts through per-round selection feedback) against krum, multi-krum, reputation-weighted EWMA down-weighting and momentum-anchored centered clipping at n = {N}, f = {F}, d = {DIM}, {ROUNDS} rounds, seed {SEED}",
  "method": "attacker_displacement is the drift-metrics column: the cumulative projection of the applied updates onto the attack direction (Byzantine mean minus honest mean, unit-normed) — the attacker's net pull on the parameters. every cell is run twice from the same seed and asserted bit-identical including the drift columns; the reputation-weighted cell is additionally served over loopback TCP, where the adversary adapts through RoundFeedback wire frames, and asserted bit-identical to the in-process run",
  "claims": [
    "krum keeps selecting the inlier-drift attacker (the forged gradient sits inside the honest sigma-band, so its Krum score is competitive) and accumulates >= 3x the attacker displacement of a stateful defense (asserted at runtime)",
    "reputation-weighted EWMA aggregation flattens the drift curve: persistent per-worker bias is down-weighted across rounds, which no single-round filter can do",
    "centered clipping does NOT stop sigma-band inlier drift: the attack is norm-bounded by construction, so the clip passes it through while the momentum anchor slowly follows the bias — a radius-based defense needs an outlier to clip",
    "stateful trajectories are bit-identical across repeat runs and across the wire: attack memory, defense memory and the drift columns are deterministic functions of spec and seed (asserted at runtime)"
  ],
  "krum_displacement": {:.6},
  "reputation_weighted_displacement": {:.6},
  "centered_clip_displacement": {:.6},
  "krum_over_reputation_weighted": {:.2},
  "cells": [
{}
  ]
}}"#,
        krum.displacement,
        rw.displacement,
        cc.displacement,
        krum_disp / rw_disp.max(f64::MIN_POSITIVE),
        entries.join(",\n")
    );
}
