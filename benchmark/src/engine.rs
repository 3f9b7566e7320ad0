//! Building a `RoundEngine` from a spec with decorated components.
//!
//! `Scenario::from_spec` owns its components, so a traced run assembles the
//! same engine from the same public pieces — `EstimatorSpec::build`,
//! `RuleSpec::build`, `AttackSpec::build`, `CompressionSpec::build` and
//! `RoundEngine::new` — wrapping each component on the way. The start point
//! comes from `Scenario::from_spec` itself, so the codec's one-time
//! quantization of the initial parameters is not repeated here. That the
//! result follows the scenario's trajectory bit for bit is checked on every
//! traced run.

use std::error::Error;
use std::sync::{Arc, Mutex};

use krum_attacks::{Attack, AttackContext, AttackError, AttackTiming, RoundFeedback};
use krum_compress::GradientCodec;
use krum_core::Aggregator;
use krum_dist::{RoundEngine, TrainingConfig};
use krum_models::GradientEstimator;
use krum_scenario::{Scenario, ScenarioSpec};
use krum_tensor::Vector;

use crate::trace::{Recorder, Traced};

/// Wraps the components of an engine as it is assembled; each method
/// defaults to leaving its component as it is.
pub trait Decorate {
    fn estimator(&self, estimator: Box<dyn GradientEstimator>) -> Box<dyn GradientEstimator> {
        estimator
    }

    fn aggregator(&self, aggregator: Box<dyn Aggregator>) -> Box<dyn Aggregator> {
        aggregator
    }

    fn attack(&self, attack: Box<dyn Attack>) -> Box<dyn Attack> {
        attack
    }

    fn codec(&self, codec: Box<dyn GradientCodec>) -> Box<dyn GradientCodec> {
        codec
    }
}

/// Every component records its spans into the recorder.
impl Decorate for Arc<Recorder> {
    fn estimator(&self, estimator: Box<dyn GradientEstimator>) -> Box<dyn GradientEstimator> {
        Box::new(Traced::new(estimator, self))
    }

    fn aggregator(&self, aggregator: Box<dyn Aggregator>) -> Box<dyn Aggregator> {
        Box::new(Traced::new(aggregator, self))
    }

    fn attack(&self, attack: Box<dyn Attack>) -> Box<dyn Attack> {
        Box::new(Traced::new(attack, self))
    }

    fn codec(&self, codec: Box<dyn GradientCodec>) -> Box<dyn GradientCodec> {
        Box::new(Traced::new(codec, self))
    }
}

/// The engine of `spec` with its components decorated, and its start point.
///
/// # Errors
///
/// Fails when the spec is invalid or is not runnable in-process.
pub fn engine_with(
    spec: &ScenarioSpec,
    decorate: &dyn Decorate,
) -> Result<(RoundEngine, Vector), Box<dyn Error>> {
    let start = Scenario::from_spec(spec.clone())?.start().clone();
    let strategy = spec
        .execution
        .strategy()
        .ok_or("a served spec has no in-process engine")?;
    let cluster = spec.cluster;
    let workload = spec.estimator.build(cluster.honest(), spec.seed)?;
    let arity = spec.execution.aggregation_arity(cluster.workers());
    let aggregator = decorate.aggregator(spec.rule.build(arity, cluster.byzantine())?);
    let attack = decorate.attack(spec.attack.build(workload.dim)?);
    let estimators = workload
        .estimators
        .into_iter()
        .map(|e| decorate.estimator(e))
        .collect();
    let probe = workload.probe.map(|p| decorate.estimator(p));
    let config = TrainingConfig {
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
        cluster, aggregator, attack, estimators, probe, config, strategy,
    )?;
    if spec.probes.accuracy {
        if let Some(accuracy) = workload.accuracy {
            engine.set_accuracy_probe(accuracy);
        }
    }
    if let Some(compression) = &spec.compression {
        engine.set_compression(Arc::from(decorate.codec(compression.build())));
    }
    Ok((engine, start))
}

/// What the adversary saw in one round: the broadcast parameters, the
/// honest proposals it observed, and the proposals it forged — everything a
/// served round puts on the wire.
#[derive(Debug, Clone)]
pub struct Observed {
    pub params: Vec<f64>,
    pub honest: Vec<Vec<f64>>,
    pub forged: Vec<Vec<f64>>,
}

/// Keeps a copy of each round's [`Observed`] data in a shared slot.
pub struct Tap(pub Arc<Mutex<Option<Observed>>>);

impl Decorate for Tap {
    fn attack(&self, attack: Box<dyn Attack>) -> Box<dyn Attack> {
        Box::new(Tapped {
            inner: attack,
            slot: Arc::clone(&self.0),
        })
    }
}

struct Tapped {
    inner: Box<dyn Attack>,
    slot: Arc<Mutex<Option<Observed>>>,
}

impl Attack for Tapped {
    fn forge(
        &self,
        ctx: &AttackContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Vec<Vector>, AttackError> {
        let forged = self.inner.forge(ctx, rng)?;
        let seen = Observed {
            params: ctx.current_params.as_slice().to_vec(),
            honest: ctx
                .honest_proposals
                .iter()
                .map(|v| v.as_slice().to_vec())
                .collect(),
            forged: forged.iter().map(|v| v.as_slice().to_vec()).collect(),
        };
        *self
            .slot
            .lock()
            .expect("the tap slot is never held across a panic") = Some(seen);
        Ok(forged)
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn timing(&self) -> AttackTiming {
        self.inner.timing()
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        self.inner.observe(feedback);
    }

    fn stateful(&self) -> bool {
        self.inner.stateful()
    }
}
