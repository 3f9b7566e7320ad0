//! E13 — negotiated gradient compression on the wire.
//!
//! The `krum-compress` tentpole replaces raw little-endian `f64` frames
//! with codec-encoded payloads (block floating point, top-k
//! sparsification, delta-vs-broadcast) negotiated per job. Because the
//! semantics are **quantize-before-aggregate** — both worlds aggregate
//! `decode(encode(x))` — a loopback run under any codec stays
//! bit-identical to the in-process run of the same quantized scenario,
//! and this driver asserts that before reporting anything. What it then
//! measures at `n = 40, f = 4, d = 1000` is the accuracy-vs-bytes curve:
//! mean wire bytes per round against the raw (uncompressed-equivalent)
//! figure, and the loss the quantization costs relative to the fp64
//! baseline.
//!
//! Records `BENCH_wire_compression.json`:
//!
//! ```sh
//! cargo run --release -p krum-bench --bin e13_wire_compression > BENCH_wire_compression.json
//! ```
//!
//! (The human-readable table goes to stderr.)

use krum_attacks::AttackSpec;
use krum_bench::Table;
use krum_compress::CompressionSpec;
use krum_dist::LearningRateSchedule;
use krum_models::EstimatorSpec;
use krum_scenario::{Scenario, ScenarioBuilder, ScenarioSpec};
use krum_server::run_loopback;

const N: usize = 40;
const F: usize = 4;
const DIM: usize = 1_000;
const ROUNDS: usize = 30;

fn spec(codec: Option<CompressionSpec>) -> ScenarioSpec {
    let mut builder = ScenarioBuilder::new(N, F)
        .name("e13-wire-compression")
        .attack(AttackSpec::SignFlip { scale: 3.0 })
        .estimator(EstimatorSpec::GaussianQuadratic {
            dim: DIM,
            sigma: 0.2,
        })
        .schedule(LearningRateSchedule::Constant { gamma: 0.1 })
        .rounds(ROUNDS)
        .eval_every(ROUNDS)
        .seed(31)
        .init_fill(1.0);
    if let Some(codec) = codec {
        builder = builder.compression(codec);
    }
    builder.spec().expect("the e13 spec is valid")
}

struct Cell {
    label: String,
    wire_bytes: f64,
    raw_bytes: f64,
    reduction: f64,
    final_loss: f64,
    loss_delta: f64,
}

fn run(codec: Option<CompressionSpec>) -> (f64, f64, f64) {
    let s = spec(codec);
    let served = run_loopback(s.clone()).expect("loopback serving succeeds");
    let in_process = Scenario::from_spec(s)
        .expect("spec builds")
        .run()
        .expect("in-process run succeeds");
    // The curve is only meaningful if compression kept the determinism
    // contract: the served trajectory IS the in-process quantized one.
    assert_eq!(
        served.final_params, in_process.final_params,
        "compressed loopback must reproduce the in-process quantized run"
    );
    let loss = served
        .summary()
        .final_loss
        .expect("quadratic estimator records loss");
    (
        served.history.mean_wire_bytes(),
        served.history.mean_raw_bytes(),
        loss,
    )
}

fn main() {
    let configs: [(String, Option<CompressionSpec>); 6] = [
        ("uncompressed (fp64)".into(), None),
        (
            "bfp:block=64,bits=12".into(),
            Some(CompressionSpec::Bfp {
                block: 64,
                bits: 12,
            }),
        ),
        (
            "bfp:block=64,bits=8".into(),
            Some(CompressionSpec::Bfp { block: 64, bits: 8 }),
        ),
        ("topk:k=250".into(), Some(CompressionSpec::TopK { k: 250 })),
        (
            "delta+bfp:block=64,bits=12".into(),
            Some(CompressionSpec::DeltaBfp {
                block: 64,
                bits: 12,
            }),
        ),
        (
            "delta+topk:k=250".into(),
            Some(CompressionSpec::DeltaTopK { k: 250 }),
        ),
    ];

    let mut cells: Vec<Cell> = Vec::with_capacity(configs.len());
    let mut baseline_loss = f64::NAN;
    for (label, codec) in configs {
        let (wire, raw, loss) = run(codec);
        if cells.is_empty() {
            baseline_loss = loss;
        }
        cells.push(Cell {
            label,
            wire_bytes: wire,
            raw_bytes: raw,
            reduction: raw / wire,
            final_loss: loss,
            loss_delta: loss - baseline_loss,
        });
    }

    let mut table = Table::new([
        "codec",
        "wire KiB/round",
        "raw KiB/round",
        "reduction",
        "final loss",
        "loss delta",
    ]);
    for cell in &cells {
        table.row([
            cell.label.clone(),
            format!("{:.1}", cell.wire_bytes / 1024.0),
            format!("{:.1}", cell.raw_bytes / 1024.0),
            format!("{:.2}x", cell.reduction),
            format!("{:.3e}", cell.final_loss),
            format!("{:+.3e}", cell.loss_delta),
        ]);
    }
    eprintln!("{table}");

    let best = cells
        .iter()
        .skip(1)
        .map(|c| c.reduction)
        .fold(0.0_f64, f64::max);
    let headline = cells
        .iter()
        .find(|c| c.label.starts_with("bfp:block=64,bits=12"))
        .expect("the headline codec ran");
    eprintln!(
        "bfp:block=64,bits=12 moves {:.2}x fewer wire bytes per round at n = {N}, d = {DIM} \
         (best codec: {best:.2}x); every compressed run matched its in-process quantized twin \
         bit-for-bit\n",
        headline.reduction
    );
    assert!(
        headline.reduction >= 4.0,
        "acceptance: >= 4x wire reduction at n = {N}, d = {DIM}, got {:.2}x",
        headline.reduction
    );

    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                r#"    {{
      "codec": "{}",
      "wire_bytes_per_round": {:.0},
      "raw_bytes_per_round": {:.0},
      "wire_reduction": {:.2},
      "final_loss": {:.6e},
      "loss_delta_vs_fp64": {:.6e}
    }}"#,
                c.label, c.wire_bytes, c.raw_bytes, c.reduction, c.final_loss, c.loss_delta,
            )
        })
        .collect();
    let provenance = krum_bench::provenance();
    println!(
        r#"{{
  "benchmark": "e13_wire_compression (crates/bench/src/bin/e13_wire_compression.rs)",
  {provenance}
  "description": "accuracy-vs-bytes curve of the krum-compress codecs over the krum-server wire: one scenario (krum vs sign-flip, n = {N}, f = {F}, d = {DIM}, {ROUNDS} rounds, seed 31) served over loopback TCP uncompressed (v2, raw f64 frames) and under each codec the spec grammar names (block floating point at 12 and 8 mantissa bits, top-k sparsification at k = 250, and their delta-vs-broadcast composites)",
  "method": "each codec run asserts bit-identity against the in-process run of the same quantized scenario before reporting (quantize-before-aggregate determinism), so the loss deltas are the cost of quantization itself, not of serving. wire_bytes_per_round is the measured post-compression traffic; raw_bytes_per_round charges compressed frames at their uncompressed framing equivalent (the raw_bytes RoundRecord column)",
  "claims": [
    "bfp:block=64,bits=12 cuts per-round wire traffic by >= 4x at n = {N}, d = {DIM} (asserted at runtime) with a negligible loss delta against the fp64 baseline",
    "every compressed loopback trajectory is bit-identical to the in-process quantized run for the same spec and seed (asserted at runtime per codec)",
    "delta-vs-broadcast composes with both quantizers and shrinks late-training residuals once the trajectory settles near the optimum"
  ],
  "wire_reduction_ratio": {:.2},
  "best_wire_reduction_ratio": {best:.2},
  "configs": [
{}
  ]
}}"#,
        headline.reduction,
        entries.join(",\n")
    );
}
