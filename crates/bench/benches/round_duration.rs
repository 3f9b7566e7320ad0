//! E8 — cost of resilience: duration of one full synchronous round (worker
//! gradient computation + aggregation) for averaging vs Krum, as the cluster
//! grows. Uses the sequential engine so Criterion measures a deterministic
//! code path; the threaded/network variant is reported by the
//! `e8_cost_of_resilience` driver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use krum_bench::quadratic_estimators;
use krum_core::{Aggregator, Average, Krum};
use krum_dist::{
    ClusterSpec, ExecutionStrategy, LearningRateSchedule, RoundEngine, TrainingConfig,
};
use krum_tensor::Vector;

fn build_trainer(n: usize, f: usize, dim: usize, aggregator: Box<dyn Aggregator>) -> RoundEngine {
    let cluster = ClusterSpec::new(n, f).expect("valid cluster");
    let config = TrainingConfig {
        rounds: 1,
        schedule: LearningRateSchedule::Constant { gamma: 0.1 },
        seed: 3,
        eval_every: usize::MAX / 2,
        known_optimum: None,
    };
    RoundEngine::new(
        cluster,
        aggregator,
        Box::new(krum_attacks::GaussianNoise::new(50.0).unwrap()),
        quadratic_estimators(n - f, dim, 0.2),
        None,
        config,
        ExecutionStrategy::Sequential,
    )
    .expect("valid trainer")
}

fn full_round(c: &mut Criterion) {
    let dim = 20_000;
    let mut group = c.benchmark_group("round_duration/d20000");
    group.sample_size(10);
    for &n in &[10usize, 20, 40] {
        let f = (n - 3) / 2;
        let params = Vector::filled(dim, 2.0);
        let mut krum_trainer = build_trainer(n, f, dim, Box::new(Krum::new(n, f).unwrap()));
        let mut avg_trainer = build_trainer(n, f, dim, Box::new(Average::new()));
        group.bench_with_input(BenchmarkId::new("krum", n), &params, |b, params| {
            b.iter(|| {
                krum_trainer
                    .run_round(std::hint::black_box(params), 0)
                    .unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("average", n), &params, |b, params| {
            b.iter(|| {
                avg_trainer
                    .run_round(std::hint::black_box(params), 0)
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = full_round
}
criterion_main!(benches);
