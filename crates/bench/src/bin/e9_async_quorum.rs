//! E9 — async partial-quorum rounds vs the synchronous barrier.
//!
//! Under a heavy-tailed (Pareto) straggler network, the synchronous barrier
//! waits for the slowest of `n` workers every round, while the async-quorum
//! strategy closes each round at the `quorum`-th arrival and carries the
//! stragglers forward (bounded staleness). This driver measures, at
//! `n = 40`, the simulated per-round network cost of barrier vs quorum
//! execution, the accuracy cost of aggregating a partial (and partially
//! stale) set, and the staleness profile under a deliberately straggling
//! adversary.
//!
//! Records `BENCH_async_quorum.json`:
//!
//! ```sh
//! cargo run --release -p krum-bench --bin e9_async_quorum > BENCH_async_quorum.json
//! ```
//!
//! (The human-readable table goes to stderr.)

use krum_attacks::AttackSpec;
use krum_bench::Table;
use krum_dist::{LatencyModel, LearningRateSchedule, NetworkModel};
use krum_models::EstimatorSpec;
use krum_scenario::{ScenarioBuilder, ScenarioReport};

const N: usize = 40;
const F: usize = 4;
const DIM: usize = 1_000;
const ROUNDS: usize = 40;
const MAX_STALENESS: usize = 2;

/// Heavy-tailed straggler network: the bulk of the workers answer in
/// ~100 µs, the Pareto tail (α = 1.1) produces stragglers 10–1000× slower.
fn straggler_network() -> NetworkModel {
    NetworkModel {
        latency: LatencyModel::Pareto {
            min_nanos: 50_000,
            alpha: 1.1,
        },
        nanos_per_byte: 0.05,
    }
}

fn base(attack: AttackSpec) -> ScenarioBuilder {
    ScenarioBuilder::new(N, F)
        .attack(attack)
        .estimator(EstimatorSpec::GaussianQuadratic {
            dim: DIM,
            sigma: 0.2,
        })
        .schedule(LearningRateSchedule::Constant { gamma: 0.1 })
        .rounds(ROUNDS)
        .eval_every(ROUNDS)
        .seed(29)
        .init_fill(1.0)
}

struct Cell {
    label: String,
    network_micros: f64,
    quorum: f64,
    stale: f64,
    dropped: usize,
    final_distance: f64,
    byz_rate: f64,
}

fn measure(label: &str, report: &ScenarioReport) -> Cell {
    let history = &report.history;
    let final_distance = history
        .last()
        .and_then(|r| r.distance_to_optimum)
        .unwrap_or(f64::NAN);
    Cell {
        label: label.to_string(),
        network_micros: history.mean_network_nanos() / 1_000.0,
        quorum: history.mean_quorum_size(),
        stale: history.mean_stale_in_quorum(),
        dropped: history.total_dropped_stale(),
        final_distance,
        byz_rate: history.selection_stats().byzantine_rate(),
    }
}

fn main() {
    eprintln!("E9 — async partial-quorum rounds vs the synchronous barrier");
    eprintln!(
        "n={N}, f={F}, d={DIM}, krum, {ROUNDS} rounds, heavy-tailed Pareto network \
         (min 50 µs, alpha 1.1)\n"
    );

    let network = straggler_network();
    let quorum = N - F;

    // Barrier: the threaded engine charges the slowest worker's round trip.
    let barrier = base(AttackSpec::SignFlip { scale: 3.0 })
        .threaded(network)
        .run()
        .expect("barrier scenario runs");
    // Quorum: close each round at the (n − f)-th arrival.
    let quorum_run = base(AttackSpec::SignFlip { scale: 3.0 })
        .async_quorum(quorum, MAX_STALENESS, network)
        .run()
        .expect("quorum scenario runs");
    // Quorum under a deliberately straggling adversary: the Byzantine
    // proposals always miss the quorum and land stale (or get dropped).
    let straggler_run = base(AttackSpec::Straggler { scale: 3.0 })
        .async_quorum(quorum, MAX_STALENESS, network)
        .run()
        .expect("straggler scenario runs");

    let cells = [
        measure("barrier (threaded)", &barrier),
        measure(&format!("quorum={quorum} sign-flip"), &quorum_run),
        measure(&format!("quorum={quorum} straggler"), &straggler_run),
    ];

    let mut table = Table::new([
        "execution",
        "network/round (µs)",
        "mean quorum",
        "mean stale",
        "dropped",
        "|x-x*| final",
        "byz-pick",
    ]);
    for cell in &cells {
        table.row([
            cell.label.clone(),
            format!("{:.1}", cell.network_micros),
            if cell.quorum > 0.0 {
                format!("{:.1}", cell.quorum)
            } else {
                format!("{N} (barrier)")
            },
            format!("{:.2}", cell.stale),
            cell.dropped.to_string(),
            format!("{:.4}", cell.final_distance),
            format!("{:.1}%", 100.0 * cell.byz_rate),
        ]);
    }
    eprintln!("{table}");

    let speedup = cells[0].network_micros / cells[1].network_micros;
    eprintln!(
        "barrier waits {speedup:.1}x longer on the network per round than the \
         {quorum}-of-{N} quorum under this tail\n"
    );

    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                r#"    {{
      "execution": "{}",
      "mean_network_nanos_per_round": {:.0},
      "mean_quorum_size": {:.2},
      "mean_stale_in_quorum": {:.3},
      "total_dropped_stale": {},
      "final_distance_to_optimum": {:.6},
      "byzantine_selection_rate": {:.4}
    }}"#,
                c.label,
                c.network_micros * 1_000.0,
                if c.quorum > 0.0 { c.quorum } else { N as f64 },
                c.stale,
                c.dropped,
                c.final_distance,
                c.byz_rate,
            )
        })
        .collect();
    let provenance = krum_bench::provenance();
    println!(
        r#"{{
  "benchmark": "e9_async_quorum (crates/bench/src/bin/e9_async_quorum.rs)",
  {provenance}
  "description": "simulated per-round network cost and trajectory quality of the synchronous barrier (threaded engine, waits for the slowest of n workers) vs async partial-quorum execution (closes each round at the quorum-th arrival, carries stragglers with staleness <= {MAX_STALENESS}) at n = {N}, f = {F}, d = {DIM}, krum, {ROUNDS} rounds, under a heavy-tailed Pareto straggler network (min 50 us one-way, alpha 1.1, 0.05 ns/byte)",
  "method": "mean simulated network nanos per round from the RoundRecord network_nanos column; trajectory quality is the final distance to the quadratic optimum; all runs are deterministic functions of seed 29",
  "claims": [
    "the barrier's per-round network cost is a multiple of the quorum's under a heavy tail (it always pays for the slowest straggler)",
    "the (n - f)-of-n quorum trajectory stays close to the barrier trajectory (same seed, partial aggregation)",
    "a deliberately straggling adversary lands only as stale carry-overs and its selection rate stays low under quorum-validated krum"
  ],
  "barrier_over_quorum_network_ratio": {speedup:.2},
  "configs": [
{}
  ]
}}"#,
        entries.join(",\n")
    );
}
