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

/// The `"date"` and `"host"` members every `BENCH_*.json` record carries,
/// as JSON text to print right after its `"benchmark"` member: the UTC day
/// of the run and the CPU model with its logical CPU count, so no recorded
/// number is separated from when and where it was measured.
pub fn provenance() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter(|line| line.starts_with("model name"))
                .find_map(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let days = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |since| since.as_secs() / 86_400);
    format!(
        "\"date\": \"{}\",\n  \"host\": \"{cpu}, {cpus} logical CPUs\",",
        civil_date(days as i64)
    )
}

/// `YYYY-MM-DD` of a count of days since 1970-01-01 (the proleptic
/// Gregorian calendar, H. Hinnant's `civil_from_days`).
fn civil_date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let day_of_era = z.rem_euclid(146_097);
    let year_of_era =
        (day_of_era - day_of_era / 1460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
    let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
    let shifted_month = (5 * day_of_year + 2) / 153;
    let day = day_of_year - (153 * shifted_month + 2) / 5 + 1;
    let month = if shifted_month < 10 {
        shifted_month + 3
    } else {
        shifted_month - 9
    };
    let year = year_of_era + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use krum_core::Krum;

    #[test]
    fn civil_dates_cross_leap_days_and_centuries() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(59), "1970-03-01");
        assert_eq!(civil_date(11_016), "2000-02-29");
        assert_eq!(civil_date(11_017), "2000-03-01");
        assert_eq!(civil_date(20_664), "2026-07-30");
        assert_eq!(civil_date(-1), "1969-12-31");
    }

    #[test]
    fn provenance_is_two_json_members() {
        let members = provenance();
        let json = format!("{{{}\"x\": 0}}", members);
        let value = serde_json::parse(&json).unwrap();
        let serde::Value::Object(fields) = value else {
            panic!("not an object: {json}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["date", "host", "x"]);
    }

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
