//! Building and running a scenario.

use std::time::Instant;

use krum_dist::RoundEngine;
use krum_tensor::Vector;

use crate::error::ScenarioError;
use crate::report::ScenarioReport;
use crate::spec::{InitSpec, ScenarioSpec};

/// A fully wired, ready-to-run experiment: the validated spec plus the
/// [`RoundEngine`] built from it and the initial parameter vector.
///
/// `Scenario` is the one entry point from "a description of an experiment"
/// to "a trained model and its metrics": it owns exactly the engine a
/// hand-wired [`RoundEngine::new`] would build, so the parameter trajectory
/// is bit-identical to hand wiring for the same spec fields, and running it
/// adds no per-round work on top of the engine.
pub struct Scenario {
    spec: ScenarioSpec,
    engine: RoundEngine,
    start: Vector,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.debug_struct("Scenario")
            .field("spec", &self.spec)
            .field("dim", &self.engine.dim())
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Validates `spec` and wires the engine: workload estimators, rule,
    /// attack, probes and execution strategy.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when any cross-constraint fails (see
    /// [`ScenarioSpec::validate`]) or a component rejects its configuration.
    pub fn from_spec(spec: ScenarioSpec) -> Result<Self, ScenarioError> {
        spec.validate()?;
        // Remote execution has no in-process strategy: the spec is valid,
        // but only the server subsystem can run it.
        let strategy = spec.execution.strategy().ok_or_else(|| {
            ScenarioError::invalid(
                "remote execution cannot run in-process: serve the scenario with \
                 `krum serve` or `krum loopback` (krum-server)",
            )
        })?;
        let cluster = spec.cluster;
        let workload = spec.estimator.build(cluster.honest(), spec.seed)?;
        // Under async-quorum execution the rule aggregates `quorum`
        // proposals per round, so it is built for that arity (validate()
        // already re-checked its preconditions against it).
        let arity = spec.execution.aggregation_arity(cluster.workers());
        let aggregator = spec.rule.build(arity, cluster.byzantine())?;
        let attack = spec.attack.build(workload.dim)?;
        let config = krum_dist::TrainingConfig {
            rounds: spec.rounds,
            schedule: spec.schedule,
            seed: spec.seed,
            eval_every: spec.eval_every,
            known_optimum: if spec.probes.track_optimum {
                workload.optimum
            } else {
                None
            },
        };
        let mut engine = RoundEngine::new(
            cluster,
            aggregator,
            attack,
            workload.estimators,
            workload.probe,
            config,
            strategy,
        )?;
        if spec.probes.accuracy {
            if let Some(probe) = workload.accuracy {
                engine.set_accuracy_probe(probe);
            }
        }
        let mut start = match spec.init {
            InitSpec::Zeros => Vector::zeros(workload.dim),
            InitSpec::Fill { value } => Vector::filled(workload.dim, value),
            InitSpec::Sample { strategy, seed } => spec.estimator.init_params(strategy, seed)?,
        };
        if let Some(compression) = &spec.compression {
            let codec: std::sync::Arc<dyn krum_compress::GradientCodec> =
                std::sync::Arc::from(compression.build());
            // The initial params go through the params transform exactly
            // once — the in-process twin of encoding the first broadcast —
            // and the engine re-projects after every step, so the whole
            // trajectory lives in the codec's representable set.
            codec.transform_params(start.as_mut_slice());
            engine.set_compression(codec);
        }
        Ok(Self {
            spec,
            engine,
            start,
        })
    }

    /// Parses, validates and wires a scenario from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Same as [`ScenarioSpec::from_json`] plus [`Scenario::from_spec`].
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        Self::from_spec(ScenarioSpec::from_json(json)?)
    }

    /// The validated specification this scenario was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.engine.dim()
    }

    /// The initial parameter vector `x_0`.
    pub fn start(&self) -> &Vector {
        &self.start
    }

    /// The wired round engine (e.g. to force an aggregation execution policy
    /// or to drive rounds manually in benchmarks).
    pub fn engine_mut(&mut self) -> &mut RoundEngine {
        &mut self.engine
    }

    /// Runs the scenario to completion and returns the report: final
    /// parameters, full per-round history and wall-clock totals.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Train`] when a worker, the attack or the
    /// aggregator fails mid-run.
    pub fn run(mut self) -> Result<ScenarioReport, ScenarioError> {
        let wall_start = Instant::now();
        let (final_params, history) = self.engine.run(self.start)?;
        let wall_nanos = wall_start.elapsed().as_nanos();
        Ok(ScenarioReport {
            spec: self.spec,
            final_params,
            history,
            wall_nanos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExecutionSpec, ProbeSpec};
    use krum_attacks::AttackSpec;
    use krum_core::RuleSpec;
    use krum_dist::{
        ClusterSpec, ExecutionStrategy, LatencyModel, LearningRateSchedule, NetworkModel,
        TrainingConfig,
    };
    use krum_models::{DataSpec, EstimatorSpec, ModelSpec};

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "scenario-test".into(),
            cluster: ClusterSpec::new(9, 2).unwrap(),
            rule: RuleSpec::Krum,
            attack: AttackSpec::SignFlip { scale: 3.0 },
            estimator: EstimatorSpec::GaussianQuadratic { dim: 6, sigma: 0.3 },
            schedule: LearningRateSchedule::Constant { gamma: 0.2 },
            execution: ExecutionSpec::Sequential,
            rounds: 25,
            eval_every: 5,
            seed: 7,
            init: InitSpec::Fill { value: 1.5 },
            probes: ProbeSpec::default(),
            fault_plan: None,
            compression: None,
        }
    }

    #[test]
    fn scenario_run_matches_a_hand_wired_engine() {
        let scenario = Scenario::from_spec(spec()).unwrap();
        assert_eq!(scenario.dim(), 6);
        assert_eq!(scenario.start(), &Vector::filled(6, 1.5));
        let report = scenario.run().unwrap();

        // The same components assembled by hand.
        let estimators = EstimatorSpec::GaussianQuadratic { dim: 6, sigma: 0.3 }
            .build(7, 7)
            .unwrap()
            .estimators;
        let mut trainer = RoundEngine::new(
            ClusterSpec::new(9, 2).unwrap(),
            RuleSpec::Krum.build(9, 2).unwrap(),
            AttackSpec::SignFlip { scale: 3.0 }.build(6).unwrap(),
            estimators,
            None,
            TrainingConfig {
                rounds: 25,
                schedule: LearningRateSchedule::Constant { gamma: 0.2 },
                seed: 7,
                eval_every: 5,
                known_optimum: Some(Vector::zeros(6)),
            },
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        let (legacy_params, legacy_history) = trainer.run(Vector::filled(6, 1.5)).unwrap();

        assert_eq!(report.final_params, legacy_params);
        assert_eq!(report.history.trajectory_mismatch(&legacy_history), None);
        assert!(report.wall_nanos > 0);
    }

    #[test]
    fn threaded_execution_matches_sequential_trajectory() {
        let sequential = Scenario::from_spec(spec()).unwrap().run().unwrap();
        let mut threaded_spec = spec();
        threaded_spec.execution = ExecutionSpec::Threaded {
            network: NetworkModel {
                latency: LatencyModel::Constant { nanos: 1_000 },
                nanos_per_byte: 0.1,
            },
        };
        let threaded = Scenario::from_spec(threaded_spec).unwrap().run().unwrap();
        assert_eq!(sequential.final_params, threaded.final_params);
        assert_eq!(
            sequential.history.trajectory_mismatch(&threaded.history),
            None
        );
        assert!(threaded.history.mean_network_nanos() > 0.0);
        assert_eq!(sequential.history.mean_network_nanos(), 0.0);
    }

    #[test]
    fn synthetic_workload_records_accuracy() {
        let spec = ScenarioSpec {
            name: "logistic".into(),
            cluster: ClusterSpec::new(7, 2).unwrap(),
            rule: RuleSpec::Krum,
            attack: AttackSpec::GaussianNoise { std: 50.0 },
            estimator: EstimatorSpec::Synthetic {
                model: ModelSpec::Logistic { features: 6 },
                data: DataSpec::LogisticRegression { samples: 300 },
                batch: 16,
                holdout: 0.2,
            },
            schedule: LearningRateSchedule::Constant { gamma: 0.5 },
            execution: ExecutionSpec::Sequential,
            rounds: 30,
            eval_every: 10,
            seed: 3,
            init: InitSpec::Zeros,
            probes: ProbeSpec::default(),
            fault_plan: None,
            compression: None,
        };
        let report = Scenario::from_spec(spec).unwrap().run().unwrap();
        let summary = report.summary();
        assert!(summary.final_accuracy.is_some(), "accuracy probe attached");
        assert!(summary.final_loss.is_some());
        // The probe serves full-train loss, so losses are present on
        // evaluation rounds and absent elsewhere.
        assert!(report.history.rounds[1].loss.is_none());
        assert!(report.history.rounds[10].loss.is_some());
    }

    #[test]
    fn probes_can_be_disabled() {
        let mut s = spec();
        s.probes = ProbeSpec {
            track_optimum: false,
            accuracy: false,
        };
        let report = Scenario::from_spec(s).unwrap().run().unwrap();
        assert!(report.history.rounds[0].distance_to_optimum.is_none());
    }

    /// A `Remote` spec is valid data but not in-process-runnable: building
    /// a `Scenario` from it fails with guidance towards the server.
    #[test]
    fn remote_execution_is_rejected_in_process_with_guidance() {
        let mut s = spec();
        s.execution = ExecutionSpec::remote(None, 0);
        s.validate().unwrap();
        let err = Scenario::from_spec(s).unwrap_err();
        assert!(err.to_string().contains("krum serve"), "got: {err}");
    }

    #[test]
    fn invalid_specs_fail_to_build() {
        let mut bad = spec();
        bad.cluster = ClusterSpec::new(5, 2).unwrap(); // Krum needs 2f+2 < n
        assert!(Scenario::from_spec(bad).is_err());
        assert!(Scenario::from_json("{\"name\": 1}").is_err());
    }

    /// Acceptance: an async-quorum scenario with `quorum = n` and zero
    /// latency reproduces the Sequential trajectory exactly, through the
    /// declarative API.
    #[test]
    fn async_full_quorum_scenario_matches_sequential() {
        let sequential = Scenario::from_spec(spec()).unwrap().run().unwrap();
        let mut async_spec = spec();
        async_spec.execution = ExecutionSpec::AsyncQuorum {
            quorum: 9,
            max_staleness: 2,
            reuse_stale: false,
            network: NetworkModel {
                latency: LatencyModel::Constant { nanos: 0 },
                nanos_per_byte: 0.0,
            },
        };
        let report = Scenario::from_spec(async_spec).unwrap().run().unwrap();
        assert_eq!(report.final_params, sequential.final_params);
        assert_eq!(
            report.history.trajectory_mismatch(&sequential.history),
            None
        );
        assert!((report.history.mean_quorum_size() - 9.0).abs() < 1e-12);
    }

    /// A partial quorum with a straggling adversary runs end-to-end through
    /// the declarative API and populates the staleness stats.
    #[test]
    fn async_partial_quorum_scenario_reports_staleness() {
        let mut s = spec();
        s.attack = AttackSpec::Straggler { scale: 3.0 };
        s.execution = ExecutionSpec::AsyncQuorum {
            quorum: 7,
            max_staleness: 2,
            reuse_stale: false,
            network: NetworkModel {
                latency: LatencyModel::Pareto {
                    min_nanos: 10_000,
                    alpha: 1.1,
                },
                nanos_per_byte: 0.05,
            },
        };
        let report = Scenario::from_spec(s.clone()).unwrap().run().unwrap();
        assert!(report.final_params.is_finite());
        assert!((report.history.mean_quorum_size() - 7.0).abs() < 1e-12);
        let record = &report.history.rounds[0];
        assert_eq!(record.quorum_size, Some(7));
        assert!(record.dropped_stale.is_some());
        // The CSV export carries the staleness columns for every round.
        let csv = report.to_csv();
        assert!(csv.contains("quorum_size"));
        assert!(csv.contains("pending_carryover"));
        // Deterministic: a second run of the same spec is bit-identical.
        let again = Scenario::from_spec(s).unwrap().run().unwrap();
        assert_eq!(again.final_params, report.final_params);
    }

    /// Reuse mode through the declarative API: a full-refresh reuse run
    /// (quorum = n, zero staleness, zero latency) reproduces Sequential
    /// bit-for-bit, and a slow refresh pace (quorum < n - f, illegal for
    /// the barrier mode) runs end-to-end aggregating the full table.
    #[test]
    fn reuse_stale_scenario_matches_sequential_and_accepts_slow_refresh() {
        let sequential = Scenario::from_spec(spec()).unwrap().run().unwrap();
        let mut full = spec();
        full.execution = ExecutionSpec::AsyncQuorum {
            quorum: 9,
            max_staleness: 0,
            network: NetworkModel {
                latency: LatencyModel::Constant { nanos: 0 },
                nanos_per_byte: 0.0,
            },
            reuse_stale: true,
        };
        let report = Scenario::from_spec(full).unwrap().run().unwrap();
        assert_eq!(report.final_params, sequential.final_params);
        assert_eq!(
            report.history.trajectory_mismatch(&sequential.history),
            None
        );

        // Refreshing 3 of 9 per round: stale table entries enter the
        // aggregation, bounded by max_staleness.
        let mut slow = spec();
        slow.attack = AttackSpec::Straggler { scale: 3.0 };
        slow.execution = ExecutionSpec::AsyncQuorum {
            quorum: 3,
            max_staleness: 4,
            network: NetworkModel {
                latency: LatencyModel::Pareto {
                    min_nanos: 10_000,
                    alpha: 1.1,
                },
                nanos_per_byte: 0.05,
            },
            reuse_stale: true,
        };
        let report = Scenario::from_spec(slow.clone()).unwrap().run().unwrap();
        assert!(report.final_params.is_finite());
        // Round 0 cold-starts the table (everyone refreshes); afterwards
        // at least the configured pace refreshes, plus staleness-forced
        // entries — so the mean sits between the pace and n.
        assert_eq!(report.history.rounds[0].quorum_size, Some(9));
        assert!(report
            .history
            .rounds
            .iter()
            .all(|r| r.quorum_size.unwrap_or(0) >= 3));
        assert!(report.history.mean_quorum_size() < 9.0);
        assert!(report
            .history
            .rounds
            .iter()
            .skip(1)
            .any(|r| r.stale_in_quorum.unwrap_or(0) > 0));
        let again = Scenario::from_spec(slow).unwrap().run().unwrap();
        assert_eq!(again.final_params, report.final_params);
    }

    /// A hierarchical rule runs through the declarative API under attack
    /// and converges like flat Krum does, deterministically per seed.
    #[test]
    fn hierarchical_scenario_runs_deterministically() {
        let mut s = spec();
        s.cluster = krum_dist::ClusterSpec::new(24, 3).unwrap();
        s.rule = RuleSpec::Hierarchical {
            groups: 4,
            inner: krum_core::StageRule::Krum,
            outer: krum_core::StageRule::Krum,
        };
        let report = Scenario::from_spec(s.clone()).unwrap().run().unwrap();
        assert!(report.final_params.is_finite());
        let summary = report.history.summary();
        assert!(
            summary.final_loss < summary.initial_loss,
            "hierarchical Krum must make progress: {summary:?}"
        );
        // Selection metadata survives the two-stage composition: every
        // round records which worker the outer stage picked.
        assert!(report
            .history
            .rounds
            .iter()
            .all(|r| r.selected_worker.is_some()));
        let again = Scenario::from_spec(s).unwrap().run().unwrap();
        assert_eq!(again.final_params, report.final_params);
    }
}
