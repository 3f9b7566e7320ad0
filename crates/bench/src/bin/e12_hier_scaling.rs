//! E12 — scaling Krum past n = 160: hierarchical group aggregation and
//! incremental Gram reuse.
//!
//! Three measurements, three claims:
//!
//! 1. **Hierarchical vs flat Krum** at n = 1000–4000, d = 64: sharding the
//!    cluster into `g` round-robin groups (Krum inside each group, Krum
//!    over the g winners) replaces the flat `O(n²d)` Gram with
//!    `O(n²d/g + g²d)` — and the groups run in parallel on top of that.
//! 2. **Incremental Gram reuse** on reuse-mode async-quorum rounds: with
//!    12.5% fresh arrivals per round (quorum = n/8 refreshes, the rest of
//!    the latest-proposal table carried), the generation-keyed cache
//!    recomputes only the refreshed rows and the trajectory stays
//!    **bit-identical** to full recomputation (asserted here, not assumed).
//! 3. **SIMD parity**: the 32-lane ILP dot the kernels build on matches an
//!    explicit std::simd-style chunked implementation bit-for-bit and sits
//!    at throughput parity with it — the ILP formulation leaves no
//!    vectorization on the table.
//!
//! Records `BENCH_hier_scaling.json`:
//!
//! ```sh
//! cargo run --release -p krum-bench --bin e12_hier_scaling > BENCH_hier_scaling.json
//! ```
//!
//! (The human-readable table goes to stderr.)

use std::time::Instant;

use krum_attacks::SignFlip;
use krum_bench::Table;
use krum_core::{AggregationContext, Aggregator, ExecutionPolicy, Hierarchical, Krum, StageRule};
use krum_dist::{
    ClusterSpec, ExecutionStrategy, LatencyModel, LearningRateSchedule, NetworkModel, RoundEngine,
    TrainingConfig,
};
use krum_models::{GaussianEstimator, GradientEstimator, QuadraticCost};
use krum_tensor::Vector;

const DIM: usize = 64;
const GROUPS: usize = 40;

/// Deterministic pseudo-random proposals (no RNG involvement: the measured
/// region must be a pure function of the shape).
fn proposals(n: usize, dim: usize) -> Vec<Vector> {
    (0..n)
        .map(|w| {
            Vector::from(
                (0..dim)
                    .map(|c| {
                        let x = (w * 31 + c * 7 + 13) as f64;
                        (x * 0.618_033_988_749).fract() * 2.0 - 1.0
                    })
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// Seconds per warm `aggregate_in` call under the default `Auto` policy,
/// measured until at least 0.4 s or 3 calls accumulate. `Auto` fans a pass
/// out over the thread pool only from `PARALLEL_WORK` multiply-adds: of the
/// cells here, only flat Krum at n = 4000 does; the hierarchical groups never
/// do.
fn secs_per_round(rule: &dyn Aggregator, ps: &[Vector]) -> f64 {
    let mut ctx = AggregationContext::new();
    rule.aggregate_in(&mut ctx, ps).expect("warm-up aggregates");
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        rule.aggregate_in(&mut ctx, ps).expect("timed aggregate");
        iters += 1;
        if iters >= 3 && start.elapsed().as_secs_f64() >= 0.4 {
            break;
        }
        if iters >= 200 {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

struct ScalingCell {
    n: usize,
    f: usize,
    flat_rps: f64,
    hier_rps: f64,
}

fn scaling_cell(n: usize) -> ScalingCell {
    let f = n / 20;
    let ps = proposals(n, DIM);
    let flat = Krum::new(n, f).expect("flat krum feasible");
    let hier =
        Hierarchical::new(n, f, GROUPS, StageRule::Krum, StageRule::Krum).expect("bounds hold");
    ScalingCell {
        n,
        f,
        flat_rps: 1.0 / secs_per_round(&flat, &ps),
        hier_rps: 1.0 / secs_per_round(&hier, &ps),
    }
}

struct ReuseRun {
    params: Vector,
    norm_bits: Vec<u64>,
    mean_agg_nanos: f64,
}

/// One reuse-mode async run at n = 1024 with quorum = n/8 fresh refreshes
/// per round (12.5% fresh, the remaining 87.5% of the table carried), with
/// the generation-keyed Gram cache on or off. Sequential aggregation policy
/// on both sides so the comparison isolates the algorithmic saving. Runs at
/// its own (larger) dimension: the Gram is what the cache skips, so `dim`
/// sets its weight against the uncacheable per-round score sort.
fn reuse_run(n: usize, dim: usize, rounds: usize, gram_cache: bool) -> ReuseRun {
    let f = n / 16;
    let quorum = n / 8;
    let estimators: Vec<Box<dyn GradientEstimator>> = (0..n - f)
        .map(|_| {
            Box::new(
                GaussianEstimator::new(QuadraticCost::isotropic(Vector::zeros(dim), 0.0), 0.3)
                    .unwrap(),
            ) as Box<dyn GradientEstimator>
        })
        .collect();
    let mut engine = RoundEngine::new(
        ClusterSpec::new(n, f).unwrap(),
        Box::new(Krum::new(n, f).unwrap()),
        Box::new(SignFlip::new(3.0).unwrap()),
        estimators,
        None,
        TrainingConfig {
            rounds,
            schedule: LearningRateSchedule::Constant { gamma: 0.1 },
            seed: 12,
            eval_every: rounds,
            known_optimum: Some(Vector::zeros(dim)),
        },
        ExecutionStrategy::AsyncQuorum {
            quorum,
            max_staleness: 4 * rounds, // never force a refresh past the cold start
            network: NetworkModel {
                latency: LatencyModel::Uniform {
                    min_nanos: 1_000,
                    max_nanos: 100_000,
                },
                nanos_per_byte: 0.0,
            },
            reuse_stale: true,
        },
    )
    .unwrap();
    engine.set_aggregation_policy(ExecutionPolicy::Sequential);
    engine.set_gram_cache(gram_cache);
    let (params, history) = engine.run(Vector::filled(dim, 1.0)).unwrap();
    ReuseRun {
        params,
        norm_bits: history
            .rounds
            .iter()
            .map(|r| r.aggregate_norm.to_bits())
            .collect(),
        mean_agg_nanos: history.mean_aggregation_nanos(),
    }
}

/// Explicit std::simd-style dot: four 8-wide "vector registers" carried
/// across the chunks, folded in exactly the ILP kernel's lane layout and
/// reduction order so the two formulations must agree bit-for-bit.
fn chunked_simd_dot(a: &[f64], b: &[f64]) -> f64 {
    const WIDTH: usize = 8;
    const VECS: usize = 4;
    const LANES: usize = WIDTH * VECS;
    let main = a.len() - a.len() % LANES;
    let mut vacc = [[0.0f64; WIDTH]; VECS];
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        for (v, acc) in vacc.iter_mut().enumerate() {
            for (lane, slot) in acc.iter_mut().enumerate() {
                *slot += ca[v * WIDTH + lane] * cb[v * WIDTH + lane];
            }
        }
    }
    // Flatten to the ILP kernel's 32-lane layout and reduce pairwise.
    let mut acc = [0.0f64; LANES];
    for (v, vec) in vacc.iter().enumerate() {
        acc[v * WIDTH..(v + 1) * WIDTH].copy_from_slice(vec);
    }
    let mut width = LANES / 2;
    while width > 0 {
        for lane in 0..width {
            acc[lane] += acc[lane + width];
        }
        width /= 2;
    }
    let mut sum = acc[0];
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        sum += x * y;
    }
    sum
}

/// GFLOP/s of one dot formulation over repeated long-vector products.
fn dot_gflops(dot: impl Fn(&[f64], &[f64]) -> f64, a: &[f64], b: &[f64]) -> f64 {
    let mut sink = 0.0;
    // Warm-up.
    for _ in 0..16 {
        sink += dot(a, b);
    }
    let mut iters = 0u64;
    let start = Instant::now();
    while iters < 20_000 && start.elapsed().as_secs_f64() < 0.4 {
        sink += dot(a, b);
        iters += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    (2.0 * a.len() as f64 * iters as f64) / secs / 1e9
}

fn main() {
    eprintln!("E12 — hierarchical group aggregation + incremental Gram reuse");
    eprintln!("d={DIM}, f=n/20, g={GROUPS} round-robin groups, krum inside and over groups\n");

    // Part 1: flat vs hierarchical at n = 1000..4000.
    let cells: Vec<ScalingCell> = [1000, 2000, 4000].into_iter().map(scaling_cell).collect();
    let mut table = Table::new(["n", "f", "flat rounds/s", "hier rounds/s", "speedup"]);
    for c in &cells {
        table.row([
            c.n.to_string(),
            c.f.to_string(),
            format!("{:.2}", c.flat_rps),
            format!("{:.2}", c.hier_rps),
            format!("{:.1}x", c.hier_rps / c.flat_rps),
        ]);
    }
    eprintln!("{table}");

    let at_2000 = cells.iter().find(|c| c.n == 2000).expect("n=2000 cell");
    let speedup_2000 = at_2000.hier_rps / at_2000.flat_rps;
    assert!(
        speedup_2000 >= 5.0,
        "hierarchical krum must be >= 5x flat at n=2000, got {speedup_2000:.1}x"
    );

    // Part 2: incremental Gram reuse on reuse-mode async rounds.
    let (reuse_n, reuse_dim, reuse_rounds) = (1024, 256, 12);
    let cached = reuse_run(reuse_n, reuse_dim, reuse_rounds, true);
    let full = reuse_run(reuse_n, reuse_dim, reuse_rounds, false);
    assert_eq!(
        cached.norm_bits, full.norm_bits,
        "incremental Gram changed the trajectory"
    );
    assert_eq!(cached.params.dim(), full.params.dim());
    for (a, b) in cached.params.as_slice().iter().zip(full.params.as_slice()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "incremental Gram changed the final parameters"
        );
    }
    let cached_rps = 1e9 / cached.mean_agg_nanos;
    let full_rps = 1e9 / full.mean_agg_nanos;
    let reuse_speedup = cached_rps / full_rps;
    eprintln!(
        "incremental Gram @ n={reuse_n}, d={reuse_dim}, 12.5% fresh/round: {full_rps:.1} -> {cached_rps:.1} \
         aggregation rounds/s ({reuse_speedup:.1}x), trajectories bit-identical\n"
    );
    assert!(
        reuse_speedup >= 2.0,
        "incremental Gram must be >= 2x with 12.5% fresh arrivals, got {reuse_speedup:.1}x"
    );

    // Part 3: the 32-lane ILP dot vs explicit std::simd-style chunking.
    let a: Vec<f64> = (0..4096).map(|i| ((i * 37 + 11) as f64).sin()).collect();
    let b: Vec<f64> = (0..4096).map(|i| ((i * 53 + 29) as f64).cos()).collect();
    for len in [0, 1, 31, 32, 33, 64, 257, 4096] {
        assert_eq!(
            krum_core::ilp_dot(&a[..len], &b[..len]).to_bits(),
            chunked_simd_dot(&a[..len], &b[..len]).to_bits(),
            "ILP and chunked dots diverged at len {len}"
        );
    }
    let ilp_gflops = dot_gflops(krum_core::ilp_dot, &a, &b);
    let chunked_gflops = dot_gflops(chunked_simd_dot, &a, &b);
    let dot_ratio = ilp_gflops / chunked_gflops;
    eprintln!(
        "dot d=4096: ilp {ilp_gflops:.2} GFLOP/s vs chunked-simd {chunked_gflops:.2} GFLOP/s \
         (ratio {dot_ratio:.2}, bit-identical on all tested lengths)\n"
    );
    assert!(
        dot_ratio >= 0.5,
        "the ILP dot fell behind explicit chunking by more than 2x: ratio {dot_ratio:.2}"
    );

    let scaling_entries: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                r#"    {{
      "n": {},
      "f": {},
      "groups": {GROUPS},
      "flat_rounds_per_sec": {:.3},
      "hierarchical_rounds_per_sec": {:.3},
      "speedup": {:.2}
    }}"#,
                c.n,
                c.f,
                c.flat_rps,
                c.hier_rps,
                c.hier_rps / c.flat_rps,
            )
        })
        .collect();
    let provenance = krum_bench::provenance();
    println!(
        r#"{{
  "benchmark": "e12_hier_scaling (crates/bench/src/bin/e12_hier_scaling.rs)",
  {provenance}
  "description": "scaling krum past n = 160: (1) hierarchical group aggregation (krum per round-robin group, krum over the {GROUPS} winners) vs flat krum at n = 1000-4000, d = {DIM}; (2) generation-keyed incremental Gram reuse on reuse-mode async-quorum rounds at n = 1024, d = 256 with 12.5% fresh arrivals per round; (3) the 32-lane ILP dot vs explicit std::simd-style chunking",
  "method": "rounds/sec over warm aggregate_in calls on a reusable workspace (auto execution policy: a pass uses the thread pool only from 2^27 multiply-adds, which among these cells is flat krum at n=4000); the reuse comparison runs the full async engine with the aggregation policy forced sequential on both sides and reports 1e9 / mean aggregation_nanos; trajectory bit-identity (aggregate norms and final parameters) is asserted in-process before these numbers are printed",
  "claims": [
    "hierarchical krum is >= 5x flat krum rounds/sec at n = 2000 (asserted)",
    "incremental Gram reuse is >= 2x on async-quorum rounds with <= 25% fresh arrivals, with bit-identical trajectories (asserted)",
    "the 32-lane ILP dot is bit-identical to explicit simd-style chunking and within 2x of its throughput (asserted)"
  ],
  "hierarchical_speedup_at_n2000": {speedup_2000:.2},
  "incremental_gram": {{
    "n": {reuse_n},
    "dim": {reuse_dim},
    "quorum": {},
    "fresh_fraction": 0.125,
    "rounds": {reuse_rounds},
    "full_aggregation_rounds_per_sec": {full_rps:.3},
    "cached_aggregation_rounds_per_sec": {cached_rps:.3},
    "speedup": {reuse_speedup:.2},
    "bit_identical_trajectory": true
  }},
  "ilp_dot": {{
    "dim": 4096,
    "ilp_gflops": {ilp_gflops:.3},
    "chunked_simd_gflops": {chunked_gflops:.3},
    "ratio": {dot_ratio:.3},
    "bit_identical": true
  }},
  "scaling": [
{}
  ]
}}"#,
        reuse_n / 8,
        scaling_entries.join(",\n")
    );
}
