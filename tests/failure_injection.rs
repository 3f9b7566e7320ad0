//! Failure-injection and misuse tests: how the stack behaves when workers,
//! attacks or configurations are broken, and how the extension attacks
//! (alternating, Krum-aware) fare in full training runs.

use krum::aggregation::{build_aggregator, Aggregator, Average, Krum, RULE_NAMES};
use krum::attacks::{
    Alternating, Attack, AttackContext, AttackError, GaussianNoise, KrumAware, NoAttack, SignFlip,
};
use krum::dist::{
    ClusterSpec, ExecutionStrategy, LearningRateSchedule, RoundEngine, TrainingConfig,
};
use krum::models::{GaussianEstimator, GradientEstimator, ModelError, QuadraticCost};
use krum::tensor::Vector;

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

fn config(rounds: usize, dim: usize) -> TrainingConfig {
    TrainingConfig {
        rounds,
        schedule: LearningRateSchedule::Constant { gamma: 0.1 },
        seed: 77,
        eval_every: 10,
        known_optimum: Some(Vector::zeros(dim)),
    }
}

/// An estimator that returns NaN gradients after a configurable number of
/// calls — modelling a worker whose numerics blow up mid-training.
struct PoisonedEstimator {
    dim: usize,
    poison_after: std::sync::atomic::AtomicUsize,
}

impl PoisonedEstimator {
    fn new(dim: usize, poison_after: usize) -> Self {
        Self {
            dim,
            poison_after: std::sync::atomic::AtomicUsize::new(poison_after),
        }
    }
}

impl GradientEstimator for PoisonedEstimator {
    fn dim(&self) -> usize {
        self.dim
    }

    fn estimate(
        &self,
        params: &Vector,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<Vector, ModelError> {
        let remaining = self
            .poison_after
            .fetch_update(
                std::sync::atomic::Ordering::SeqCst,
                std::sync::atomic::Ordering::SeqCst,
                |v| Some(v.saturating_sub(1)),
            )
            .unwrap_or(0);
        if remaining == 0 {
            Ok(Vector::filled(self.dim, f64::NAN))
        } else {
            Ok(params.clone())
        }
    }

    fn true_gradient(&self, params: &Vector) -> Option<Vector> {
        Some(params.clone())
    }

    fn loss(&self, params: &Vector) -> Option<f64> {
        Some(0.5 * params.squared_norm())
    }
}

#[test]
fn nan_gradients_become_structured_errors_not_silent_garbage() {
    // One honest worker starts emitting NaN after 5 rounds. Averaging would
    // propagate the NaN into the parameters and silently corrupt every later
    // round; the engine must refuse to step instead, naming the round and
    // the rule (and nothing panics).
    let dim = 6;
    let cluster = ClusterSpec::new(5, 0).unwrap();
    let mut estimators = quadratic_estimators(4, dim, 0.1);
    estimators.push(Box::new(PoisonedEstimator::new(dim, 5)));
    let mut trainer = RoundEngine::new(
        cluster,
        Box::new(Average::new()),
        Box::new(NoAttack::new()),
        estimators,
        None,
        config(20, dim),
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let err = trainer.run(Vector::filled(dim, 2.0)).unwrap_err();
    assert!(
        matches!(err, krum::dist::TrainError::PoisonedRound { round: 5, .. }),
        "expected a PoisonedRound error at round 5, got: {err}"
    );
    assert!(err.to_string().contains("average"));
}

#[test]
fn krum_filters_a_single_nan_worker() {
    // The same fault under Krum: a NaN proposal has NaN distances to everyone,
    // so its score is NaN and it never wins the minimisation (NaN comparisons
    // are ordered last by total_cmp-based sorting of neighbours); training
    // continues on finite parameters.
    let dim = 6;
    let cluster = ClusterSpec::new(7, 0).unwrap();
    let mut estimators = quadratic_estimators(6, dim, 0.1);
    estimators.push(Box::new(PoisonedEstimator::new(dim, 3)));
    let mut trainer = RoundEngine::new(
        cluster,
        Box::new(Krum::new(7, 1).unwrap()),
        Box::new(NoAttack::new()),
        estimators,
        None,
        config(40, dim),
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let (params, history) = trainer.run(Vector::filled(dim, 2.0)).unwrap();
    assert!(params.is_finite(), "Krum should keep the trajectory finite");
    assert!(!history.summary().diverged);
    assert!(params.norm() < 1.0, "‖x‖ = {}", params.norm());
}

/// An attack that deliberately returns the wrong number of vectors.
struct BrokenAttack;

impl Attack for BrokenAttack {
    fn forge(
        &self,
        _ctx: &AttackContext<'_>,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<Vec<Vector>, AttackError> {
        Ok(vec![Vector::zeros(3)]) // always one vector, whatever f is
    }

    fn name(&self) -> String {
        "broken".into()
    }
}

#[test]
fn attacks_returning_the_wrong_count_are_rejected_not_trusted() {
    let dim = 3;
    let cluster = ClusterSpec::new(6, 2).unwrap();
    let mut trainer = RoundEngine::new(
        cluster,
        Box::new(Average::new()),
        Box::new(BrokenAttack),
        quadratic_estimators(4, dim, 0.1),
        None,
        TrainingConfig {
            known_optimum: None,
            ..config(5, dim)
        },
        ExecutionStrategy::Sequential,
    )
    .unwrap();
    let err = trainer.run(Vector::zeros(dim)).unwrap_err();
    assert!(err.to_string().contains("broken"));
}

#[test]
fn registry_driven_training_sweep_runs_every_rule() {
    // Every rule the registry knows can drive a short training run end-to-end.
    let dim = 8;
    for &spec in RULE_NAMES {
        // Bare `hierarchical` defaults to 4 Krum-in-Krum groups, so it
        // needs a cluster big enough for `2·⌈f/g⌉ + 2 < ⌊n/g⌋` to hold
        // inside every group.
        let (n, f) = if spec == "hierarchical" {
            (24, 3)
        } else {
            (9, 2)
        };
        let rule = build_aggregator(spec, n, f).unwrap();
        let cluster = ClusterSpec::new(n, f).unwrap();
        let mut trainer = RoundEngine::new(
            cluster,
            rule,
            Box::new(GaussianNoise::new(50.0).unwrap()),
            quadratic_estimators(n - f, dim, 0.2),
            None,
            config(15, dim),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        let (params, history) = trainer.run(Vector::filled(dim, 1.0)).unwrap();
        assert_eq!(history.len(), 15, "rule {spec}");
        // Robust rules make progress; even averaging stays finite under the
        // (zero-mean) Gaussian attack.
        assert!(
            params.is_finite(),
            "rule {spec} produced non-finite parameters"
        );
    }
}

#[test]
fn alternating_attack_is_survived_by_krum_but_not_by_averaging() {
    let dim = 20;
    let n = 13;
    let f = 3;
    let make_attack = || -> Box<dyn Attack> {
        Box::new(
            Alternating::new(
                vec![
                    Box::new(SignFlip::new(6.0).unwrap()),
                    Box::new(GaussianNoise::new(100.0).unwrap()),
                ],
                5,
            )
            .unwrap(),
        )
    };
    let run = |aggregator: Box<dyn Aggregator>| {
        let cluster = ClusterSpec::new(n, f).unwrap();
        let mut trainer = RoundEngine::new(
            cluster,
            aggregator,
            make_attack(),
            quadratic_estimators(n - f, dim, 0.3),
            None,
            config(200, dim),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        trainer.run(Vector::filled(dim, 3.0)).unwrap().0
    };
    let krum_params = run(Box::new(Krum::new(n, f).unwrap()));
    let avg_params = run(Box::new(Average::new()));
    assert!(
        krum_params.norm() < 1.0,
        "krum ‖x‖ = {}",
        krum_params.norm()
    );
    assert!(avg_params.norm() > 3.0 * krum_params.norm());
}

#[test]
fn krum_aware_attack_degrades_but_does_not_break_krum() {
    // The stealth attack biases Krum's trajectory (larger residual error than
    // the attack-free run) but cannot prevent convergence to a small basin —
    // consistent with Proposition 4.2: the forged vectors stay within the
    // honest spread, so the selected vector still points along the gradient.
    let dim = 20;
    let n = 13;
    let f = 3;
    let run = |attack: Box<dyn Attack>| {
        let cluster = ClusterSpec::new(n, f).unwrap();
        let mut trainer = RoundEngine::new(
            cluster,
            Box::new(Krum::new(n, f).unwrap()),
            attack,
            quadratic_estimators(n - f, dim, 0.3),
            None,
            config(300, dim),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        trainer.run(Vector::filled(dim, 3.0)).unwrap()
    };
    let (clean_params, _) = run(Box::new(NoAttack::new()));
    let (attacked_params, history) = run(Box::new(KrumAware::new(1.5).unwrap()));
    assert!(
        attacked_params.norm() < 2.0,
        "‖x‖ = {}",
        attacked_params.norm()
    );
    assert!(attacked_params.norm() >= clean_params.norm() * 0.5);
    // The stealth attack gets selected at least occasionally — that is its point.
    assert!(history.selection_stats().total() > 0);
}

#[test]
fn cluster_and_config_misuse_is_rejected_up_front() {
    let dim = 4;
    // f >= n.
    assert!(ClusterSpec::new(4, 4).is_err());
    // Zero rounds.
    let cluster = ClusterSpec::new(5, 1).unwrap();
    let bad = TrainingConfig {
        rounds: 0,
        ..config(1, dim)
    };
    assert!(RoundEngine::new(
        cluster,
        Box::new(Average::new()),
        Box::new(NoAttack::new()),
        quadratic_estimators(4, dim, 0.1),
        None,
        bad,
        ExecutionStrategy::Sequential,
    )
    .is_err());
    // Krum requiring more workers than the cluster has.
    assert!(Krum::new(5, 2).is_err());
    // Registry rejects a rule/cluster mismatch the same way.
    assert!(build_aggregator("krum", 5, 2).is_err());
}
