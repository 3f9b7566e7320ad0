//! Cross-crate integration tests: full training pipelines through the facade.

use krum::aggregation::{Aggregator, Average, CoordinateWiseMedian, Krum, MultiKrum};
use krum::attacks::{Collusion, GaussianNoise, NoAttack, OmniscientNegative, SignFlip};
use krum::data::{generators, partition, BatchSampler};
use krum::dist::{
    ClusterSpec, ExecutionStrategy, LatencyModel, LearningRateSchedule, NetworkModel, RoundEngine,
    TrainingConfig,
};
use krum::metrics::{to_csv, to_json, TrainingHistory};
use krum::models::{
    accuracy, BatchGradientEstimator, GaussianEstimator, GradientEstimator, LogisticRegression,
    QuadraticCost,
};
use krum::tensor::Vector;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn quadratic_estimators(count: usize, dim: usize, sigma: f64) -> Vec<Box<dyn GradientEstimator>> {
    (0..count)
        .map(|_| {
            Box::new(
                GaussianEstimator::new(QuadraticCost::isotropic(Vector::zeros(dim), 0.0), sigma)
                    .unwrap(),
            ) as Box<dyn GradientEstimator>
        })
        .collect()
}

fn logistic_estimators(
    dataset: &krum::data::Dataset,
    honest: usize,
    features: usize,
    seed: u64,
) -> Vec<Box<dyn GradientEstimator>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    partition::iid_shards(dataset, honest, &mut rng)
        .unwrap()
        .into_iter()
        .map(|shard| {
            let sampler = BatchSampler::new(shard, 16).unwrap();
            Box::new(
                BatchGradientEstimator::new(LogisticRegression::new(features), sampler).unwrap(),
            ) as Box<dyn GradientEstimator>
        })
        .collect()
}

fn config(rounds: usize, dim: usize) -> TrainingConfig {
    TrainingConfig {
        rounds,
        schedule: LearningRateSchedule::InverseTime {
            gamma: 0.2,
            tau: 60.0,
        },
        seed: 2024,
        eval_every: 10,
        known_optimum: Some(Vector::zeros(dim)),
    }
}

#[test]
fn krum_converges_on_quadratic_with_a_third_byzantine() {
    let dim = 30;
    let cluster = ClusterSpec::new(15, 4).unwrap();
    let mut trainer = RoundEngine::new(
        cluster,
        Box::new(Krum::new(15, 4).unwrap()),
        Box::new(OmniscientNegative::new(5.0).unwrap()),
        quadratic_estimators(11, dim, 0.3),
        None,
        config(300, dim),
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let (params, history) = trainer.run(Vector::filled(dim, 4.0)).unwrap();
    assert!(params.norm() < 1.0, "‖x − x*‖ = {}", params.norm());
    let summary = history.summary();
    assert!(!summary.diverged);
    assert!(summary.final_loss.unwrap() < summary.initial_loss.unwrap() * 0.01);
    // While the gradient is still large (early rounds), the attacker's
    // −5·∇Q proposals sit far from the honest cluster and Krum never picks
    // them. (Near the optimum the forged vectors shrink towards zero and
    // become harmless, so selecting them occasionally is expected.)
    let early_byzantine = history.rounds[..20]
        .iter()
        .filter(|r| r.selected_byzantine == Some(true))
        .count();
    assert!(
        early_byzantine <= 2,
        "{early_byzantine} Byzantine selections in the first 20 rounds"
    );
}

#[test]
fn averaging_is_destroyed_by_the_same_attack() {
    let dim = 30;
    let cluster = ClusterSpec::new(15, 4).unwrap();
    let mut trainer = RoundEngine::new(
        cluster,
        Box::new(Average::new()),
        Box::new(OmniscientNegative::new(5.0).unwrap()),
        quadratic_estimators(11, dim, 0.3),
        None,
        config(300, dim),
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let (params, _) = trainer.run(Vector::filled(dim, 4.0)).unwrap();
    // The omniscient attacker reverses the average update direction, so the
    // parameters move away from the optimum instead of towards it.
    assert!(
        params.norm() > 4.0 * (dim as f64).sqrt() * 0.5,
        "‖x‖ = {}",
        params.norm()
    );
}

#[test]
fn logistic_regression_under_gaussian_attack_krum_vs_average() {
    let features = 10;
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let (dataset, _, _) = generators::logistic_regression(2_000, features, &mut rng).unwrap();
    let (train, test) = dataset.split(0.8).unwrap();
    let cluster = ClusterSpec::new(11, 3).unwrap();
    let run = |aggregator: Box<dyn Aggregator>| {
        let cfg = TrainingConfig {
            rounds: 200,
            schedule: LearningRateSchedule::InverseTime {
                gamma: 0.5,
                tau: 50.0,
            },
            seed: 5,
            eval_every: 200,
            known_optimum: None,
        };
        let model = LogisticRegression::new(features);
        let test = test.clone();
        let mut trainer = RoundEngine::new(
            cluster,
            aggregator,
            Box::new(GaussianNoise::new(100.0).unwrap()),
            logistic_estimators(&train, cluster.honest(), features, 8),
            None,
            cfg,
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        trainer.set_accuracy_probe(Box::new(move |params| {
            accuracy(&model, params, &test).ok().flatten()
        }));
        trainer.run(Vector::zeros(features + 1)).unwrap()
    };
    let (_, krum_history) = run(Box::new(Krum::new(11, 3).unwrap()));
    let (_, avg_history) = run(Box::new(Average::new()));
    let krum_acc = krum_history.summary().final_accuracy.unwrap();
    let avg_acc = avg_history.summary().final_accuracy.unwrap();
    assert!(krum_acc > 0.8, "krum accuracy {krum_acc}");
    assert!(
        krum_acc > avg_acc + 0.05,
        "krum ({krum_acc}) should beat averaging ({avg_acc}) under the Gaussian attack"
    );
}

#[test]
fn figure_2_collusion_beats_closest_to_barycenter_but_not_krum_over_a_run() {
    use krum::aggregation::ClosestToBarycenter;
    let dim = 20;
    let cluster = ClusterSpec::new(13, 3).unwrap();
    let run = |aggregator: Box<dyn Aggregator>| {
        let mut trainer = RoundEngine::new(
            cluster,
            aggregator,
            Box::new(Collusion::new(5_000.0).unwrap()),
            quadratic_estimators(10, dim, 0.2),
            None,
            config(150, dim),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        trainer.run(Vector::filled(dim, 3.0)).unwrap()
    };
    let (krum_params, krum_history) = run(Box::new(Krum::new(13, 3).unwrap()));
    let (bary_params, bary_history) = run(Box::new(ClosestToBarycenter::new()));
    // The flawed rule keeps selecting the colluding Byzantine proposal…
    assert!(bary_history.selection_stats().byzantine_rate() > 0.9);
    // …and is dragged far away, while Krum stays near the optimum.
    assert!(krum_params.norm() < 1.0);
    assert!(bary_params.norm() > 10.0 * krum_params.norm());
    assert!(krum_history.selection_stats().byzantine_rate() < 0.05);
}

#[test]
fn multikrum_matches_average_speed_without_attack_and_survives_with_attack() {
    let dim = 25;
    let cluster = ClusterSpec::new(12, 3).unwrap();
    let run = |aggregator: Box<dyn Aggregator>, attacked: bool| {
        let attack: Box<dyn krum::attacks::Attack> = if attacked {
            Box::new(SignFlip::new(8.0).unwrap())
        } else {
            Box::new(NoAttack::new())
        };
        let mut trainer = RoundEngine::new(
            cluster,
            aggregator,
            attack,
            quadratic_estimators(9, dim, 0.5),
            None,
            config(200, dim),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        trainer.run(Vector::filled(dim, 3.0)).unwrap().0
    };
    let mk = MultiKrum::new(12, 3, 9).unwrap();
    let clean_mk = run(Box::new(mk), false);
    let attacked_mk = run(Box::new(mk), true);
    let attacked_avg = run(Box::new(Average::new()), true);
    assert!(clean_mk.norm() < 0.5);
    assert!(attacked_mk.norm() < 1.0);
    assert!(attacked_avg.norm() > 5.0);
}

#[test]
fn median_baseline_also_survives_moderate_attacks() {
    let dim = 15;
    let cluster = ClusterSpec::new(11, 2).unwrap();
    let mut trainer = RoundEngine::new(
        cluster,
        Box::new(CoordinateWiseMedian::new()),
        Box::new(SignFlip::new(10.0).unwrap()),
        quadratic_estimators(9, dim, 0.2),
        None,
        config(200, dim),
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let (params, _) = trainer.run(Vector::filled(dim, 3.0)).unwrap();
    assert!(params.norm() < 1.0);
}

#[test]
fn threaded_engine_matches_sequential_engine_and_exports_cleanly() {
    let dim = 12;
    let cluster = ClusterSpec::new(9, 2).unwrap();
    let seed_cfg = |dim: usize| TrainingConfig {
        rounds: 40,
        schedule: LearningRateSchedule::Constant { gamma: 0.1 },
        seed: 31,
        eval_every: 5,
        known_optimum: Some(Vector::zeros(dim)),
    };
    let mut sequential = RoundEngine::new(
        cluster,
        Box::new(Krum::new(9, 2).unwrap()),
        Box::new(GaussianNoise::new(30.0).unwrap()),
        quadratic_estimators(7, dim, 0.4),
        None,
        seed_cfg(dim),
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let mut estimators = quadratic_estimators(8, dim, 0.4); // honest + metrics probe
    let probe = estimators.pop();
    let mut threaded = RoundEngine::new(
        cluster,
        Box::new(Krum::new(9, 2).unwrap()),
        Box::new(GaussianNoise::new(30.0).unwrap()),
        estimators,
        probe,
        seed_cfg(dim),
        ExecutionStrategy::Threaded {
            network: NetworkModel {
                latency: LatencyModel::Uniform {
                    min_nanos: 10_000,
                    max_nanos: 50_000,
                },
                nanos_per_byte: 0.25,
            },
        },
    )
    .unwrap();
    let start = Vector::filled(dim, 2.0);
    let (seq_params, seq_history) = sequential.run(start.clone()).unwrap();
    let (thr_params, thr_history) = threaded.run(start).unwrap();
    assert!(seq_params.distance(&thr_params) < 1e-9);
    assert_eq!(seq_history.len(), thr_history.len());
    // The threaded engine charges simulated network time to its rounds.
    assert!(thr_history.mean_round_nanos() > 20_000.0);

    // Exports produce one row per round and preserve the run metadata and
    // series shape (floating-point values may differ in the last bit after a
    // text round-trip, so we compare structure rather than bit-exact values).
    let csv = to_csv(&seq_history);
    assert!(csv.lines().count() == seq_history.len() + 1);
    let json = to_json(&seq_history).unwrap();
    let back: TrainingHistory = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), seq_history.len());
    assert_eq!(back.aggregator, seq_history.aggregator);
    assert_eq!(back.attack, seq_history.attack);
    assert_eq!(back.workers, seq_history.workers);
    for (a, b) in back.rounds.iter().zip(&seq_history.rounds) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.selected_worker, b.selected_worker);
        assert!((a.aggregate_norm - b.aggregate_norm).abs() < 1e-9);
    }
}

#[test]
fn history_metadata_describes_the_run() {
    let dim = 8;
    let cluster = ClusterSpec::new(7, 2).unwrap();
    let mut trainer = RoundEngine::new(
        cluster,
        Box::new(Krum::new(7, 2).unwrap()),
        Box::new(SignFlip::new(3.0).unwrap()),
        quadratic_estimators(5, dim, 0.1),
        None,
        config(20, dim),
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let (_, history) = trainer.run(Vector::filled(dim, 1.0)).unwrap();
    assert_eq!(history.workers, 7);
    assert_eq!(history.byzantine, 2);
    assert!(history.aggregator.contains("krum"));
    assert_eq!(history.attack, "sign-flip");
    assert_eq!(history.len(), 20);
    assert!(history.rounds.iter().all(|r| r.aggregate_norm.is_finite()));
    assert!(history.rounds.iter().all(|r| r.learning_rate > 0.0));
}
