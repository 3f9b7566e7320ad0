//! # krum-bench
//!
//! Experiment drivers and benchmarks that regenerate every figure/claim of the
//! paper (see EXPERIMENTS.md for the mapping and the recorded results).
//!
//! * `src/bin/e1_linear_fragility.rs` … `src/bin/e8_cost_of_resilience.rs` —
//!   one runnable driver per experiment, each printing the series/rows of the
//!   corresponding figure;
//! * the extension drivers, each printing the JSON record checked in as a
//!   `BENCH_*.json` at the repository root:
//!   - `src/bin/e9_async_quorum.rs` — async partial-quorum rounds against
//!     the synchronous barrier under a heavy-tailed straggler network
//!     (`BENCH_async_quorum.json`);
//!   - `src/bin/e10_server_loopback.rs` — the networked aggregation service
//!     over loopback sockets against the in-process engine
//!     (`BENCH_server_loopback.json`);
//!   - `src/bin/e11_churn.rs` — worker churn and server crash/resume under
//!     the chaos harness (`BENCH_churn.json`);
//!   - `src/bin/e12_hier_scaling.rs` — hierarchical group aggregation and
//!     incremental Gram reuse past n = 160 (`BENCH_hier_scaling.json`);
//!   - `src/bin/e13_wire_compression.rs` — negotiated wire codecs: bytes
//!     saved against the final-loss cost (`BENCH_wire_compression.json`);
//!   - `src/bin/e14_adaptive_drift.rs` — stateful adaptive attacks against
//!     stateful defenses (`BENCH_adaptive_drift.json`);
//! * `src/bin/round_pipeline.rs` — records `BENCH_round_pipeline.json`
//!   (aggregation-path wall time and allocation counts before/after the
//!   `AggregationContext` refactor);
//! * `src/bin/scenario_overhead.rs` — records `BENCH_scenario_overhead.json`
//!   (allocations and wall time of a `Scenario`-built engine against a
//!   hand-wired `RoundEngine` for the same experiment);
//! * `src/bin/bench_summary.rs` — collates every checked-in `BENCH_*.json`
//!   into one table;
//! * `benches/krum_scaling.rs`, `benches/aggregators.rs`,
//!   `benches/round_duration.rs` — Criterion micro/macro benchmarks backing
//!   E3 and E8.
//!
//! This library crate hosts the small amount of shared plumbing (estimator
//! factories, proposal generators and plain-text table rendering) so the
//! drivers stay focused on the experimental logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use krum_core::Aggregator;
use krum_models::{GaussianEstimator, GradientEstimator, QuadraticCost};
use krum_tensor::Vector;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod table;

pub use table::Table;

/// Builds `count` independent Gaussian estimators around an isotropic
/// quadratic cost centred at the origin (the standard synthetic workload of
/// the theory-facing experiments).
pub fn quadratic_estimators(
    count: usize,
    dim: usize,
    sigma: f64,
) -> Vec<Box<dyn GradientEstimator>> {
    (0..count)
        .map(|_| {
            Box::new(
                GaussianEstimator::new(QuadraticCost::isotropic(Vector::zeros(dim), 0.0), sigma)
                    .expect("sigma is validated by the caller"),
            ) as Box<dyn GradientEstimator>
        })
        .collect()
}

/// A deterministic RNG for experiment drivers.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Generates a synthetic round of proposals: `n − f` honest vectors drawn
/// `N(g, σ² I)` plus `f` adversarial vectors far from the honest cluster.
/// Used by the scaling benchmarks, where only the input *shape* matters.
pub fn synthetic_proposals<R: Rng + ?Sized>(
    n: usize,
    f: usize,
    dim: usize,
    sigma: f64,
    rng: &mut R,
) -> Vec<Vector> {
    let g = Vector::filled(dim, 1.0);
    let mut proposals: Vec<Vector> = (0..n - f)
        .map(|_| {
            let mut v = g.clone();
            v.axpy(1.0, &Vector::gaussian(dim, 0.0, sigma, rng));
            v
        })
        .collect();
    for _ in 0..f {
        proposals.push(Vector::gaussian(dim, 0.0, 100.0, rng));
    }
    proposals
}

/// Times a single aggregation call in nanoseconds (used by E3/E8 drivers for
/// coarse measurements; Criterion provides the rigorous ones).
pub fn time_aggregation<A: Aggregator + ?Sized>(aggregator: &A, proposals: &[Vector]) -> u128 {
    let start = std::time::Instant::now();
    let _ = aggregator
        .aggregate(proposals)
        .expect("benchmark proposals are well-formed");
    start.elapsed().as_nanos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use krum_core::Krum;

    #[test]
    fn estimator_factory_produces_requested_count_and_dim() {
        let ests = quadratic_estimators(4, 7, 0.1);
        assert_eq!(ests.len(), 4);
        assert!(ests.iter().all(|e| e.dim() == 7));
    }

    #[test]
    fn synthetic_proposals_have_expected_shape() {
        let mut r = rng(0);
        let proposals = synthetic_proposals(11, 3, 5, 0.2, &mut r);
        assert_eq!(proposals.len(), 11);
        assert!(proposals.iter().all(|p| p.dim() == 5));
        // Honest proposals are near g = (1,…,1); adversarial ones are far.
        let g = Vector::filled(5, 1.0);
        assert!(proposals[0].distance(&g) < 2.0);
        assert!(proposals[10].distance(&g) > 10.0);
    }

    #[test]
    fn timing_helper_runs_the_aggregator() {
        let mut r = rng(1);
        let proposals = synthetic_proposals(9, 2, 10, 0.2, &mut r);
        let nanos = time_aggregation(&Krum::new(9, 2).unwrap(), &proposals);
        assert!(nanos > 0);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(5);
        let mut b = rng(5);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
