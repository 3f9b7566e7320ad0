//! E10 — the networked aggregation service vs the in-process engine.
//!
//! `krum-server` moves the paper's parameter server onto real sockets:
//! proposals travel as length-framed bytes (`krum-wire`), rounds close on
//! real arrival order, and the omniscient adversary is an explicit
//! observation relay. This driver measures what that costs at
//! `n = 40, f = 4, d = 1000`: rounds/sec of a loopback serving (server +
//! 37 worker threads over localhost TCP) vs the in-process Sequential
//! engine on the *same spec and seed*, the wire traffic per round, and the
//! broadcast-to-quorum-close arrival latency — after asserting that the
//! two worlds produced **bit-identical** trajectories, so the comparison
//! is overhead and nothing else.
//!
//! Records `BENCH_server_loopback.json`:
//!
//! ```sh
//! cargo run --release -p krum-bench --bin e10_server_loopback > BENCH_server_loopback.json
//! ```
//!
//! (The human-readable table goes to stderr.)
//!
//! The loopback/in-process ratio it records is a single shot: one seed,
//! one 30-round run per world. The repository benchmark's `loopback-e10`
//! workload (the same spec, repeated fresh sessions over many seeds, see
//! `BENCHMARK.json` and `benchmark/BASELINE.md`) supersedes it as the
//! measure of serving overhead; this binary remains the bit-identity
//! check and the wire-traffic record.

use krum_attacks::AttackSpec;
use krum_bench::Table;
use krum_dist::LearningRateSchedule;
use krum_models::EstimatorSpec;
use krum_scenario::{Scenario, ScenarioBuilder, ScenarioSpec};
use krum_server::run_loopback;

const N: usize = 40;
const F: usize = 4;
const DIM: usize = 1_000;
const ROUNDS: usize = 30;

fn spec() -> ScenarioSpec {
    ScenarioBuilder::new(N, F)
        .name("e10-server-loopback")
        .attack(AttackSpec::SignFlip { scale: 3.0 })
        .estimator(EstimatorSpec::GaussianQuadratic {
            dim: DIM,
            sigma: 0.2,
        })
        .schedule(LearningRateSchedule::Constant { gamma: 0.1 })
        .rounds(ROUNDS)
        .eval_every(ROUNDS)
        .seed(31)
        .init_fill(1.0)
        .spec()
        .expect("the e10 spec is valid")
}

struct Cell {
    label: String,
    rounds_per_sec: f64,
    micros_per_round: f64,
    bytes_per_round: f64,
    arrival_micros: f64,
}

fn main() {
    // In-process reference.
    let in_process = Scenario::from_spec(spec())
        .expect("spec builds")
        .run()
        .expect("in-process run succeeds");
    let in_wall = in_process.wall_nanos as f64;

    // The same spec served over loopback sockets.
    let served = run_loopback(spec()).expect("loopback serving succeeds");
    let served_wall = served.wall_nanos as f64;

    // The benchmark is only meaningful if both worlds did the same math.
    assert_eq!(
        served.final_params, in_process.final_params,
        "loopback must reproduce the in-process trajectory bit-for-bit"
    );

    let cells = [
        Cell {
            label: "in-process (sequential)".into(),
            rounds_per_sec: ROUNDS as f64 / (in_wall / 1e9),
            micros_per_round: in_wall / ROUNDS as f64 / 1e3,
            bytes_per_round: 0.0,
            arrival_micros: 0.0,
        },
        Cell {
            label: "loopback server (TCP)".into(),
            rounds_per_sec: ROUNDS as f64 / (served_wall / 1e9),
            micros_per_round: served_wall / ROUNDS as f64 / 1e3,
            bytes_per_round: served.history.mean_wire_bytes(),
            arrival_micros: served.history.mean_arrival_nanos() / 1e3,
        },
    ];

    let mut table = Table::new([
        "engine",
        "rounds/sec",
        "µs/round",
        "wire KiB/round",
        "arrival µs",
    ]);
    for cell in &cells {
        table.row([
            cell.label.clone(),
            format!("{:.1}", cell.rounds_per_sec),
            format!("{:.0}", cell.micros_per_round),
            if cell.bytes_per_round > 0.0 {
                format!("{:.1}", cell.bytes_per_round / 1024.0)
            } else {
                "-".into()
            },
            if cell.arrival_micros > 0.0 {
                format!("{:.0}", cell.arrival_micros)
            } else {
                "-".into()
            },
        ]);
    }
    eprintln!("{table}");
    let overhead = served_wall / in_wall;
    eprintln!(
        "serving over loopback TCP costs {overhead:.1}x the in-process wall clock at \
         n = {N}, d = {DIM} (identical trajectories)\n"
    );

    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                r#"    {{
      "engine": "{}",
      "rounds_per_sec": {:.2},
      "micros_per_round": {:.1},
      "wire_bytes_per_round": {:.0},
      "mean_arrival_micros": {:.1}
    }}"#,
                c.label, c.rounds_per_sec, c.micros_per_round, c.bytes_per_round, c.arrival_micros,
            )
        })
        .collect();
    let provenance = krum_bench::provenance();
    println!(
        r#"{{
  "benchmark": "e10_server_loopback (crates/bench/src/bin/e10_server_loopback.rs)",
  {provenance}
  "description": "throughput and wire cost of the krum-server subsystem: one scenario (krum vs sign-flip, n = {N}, f = {F}, d = {DIM}, {ROUNDS} rounds, seed 31) run in-process (Sequential engine) and served over loopback TCP (krum serve machinery: {} honest worker threads + 1 adversary connection, length-framed krum-wire protocol, omniscient-adversary observation relay)",
  "method": "both runs execute the identical ScenarioSpec; the driver asserts the final parameter vectors are bit-identical before comparing wall clocks, so the ratio is pure serving overhead (sockets, framing, threads). wire_bytes_per_round and mean_arrival_micros come from the wire_bytes/arrival_nanos RoundRecord columns only the server fills",
  "claims": [
    "the loopback server reproduces the in-process trajectory bit-for-bit for the same spec and seed (asserted at runtime)",
    "per-round wire traffic is dominated by the broadcast fan-out and the omniscient-adversary relay (~(n + honest) * 8d bytes plus framing)",
    "serving overhead stays within an order of magnitude of the in-process engine at n = 40, d = 1000, making the loopback harness cheap enough for CI"
  ],
  "loopback_over_in_process_wall_ratio": {overhead:.2},
  "configs": [
{}
  ]
}}"#,
        N - F,
        entries.join(",\n")
    );
}
