//! The server half of the round pipeline, exposed as a reusable hook.
//!
//! [`RoundCore`] owns what the parameter *server* owns — the aggregation
//! rule, the reusable [`AggregationContext`], the training configuration and
//! the metrics probes — and exposes one operation:
//! [`close_round`](RoundCore::close_round) takes the proposals of a round
//! (however they were collected: computed in-process by [`RoundEngine`]
//! (crate::RoundEngine), or arrived as bytes on sockets in `krum-server`)
//! and runs the tail of the pipeline: **aggregate → step → record**.
//!
//! Before this type existed the tail lived as a private closure of the
//! in-process engine, so a networked server would have had to duplicate the
//! NaN-poisoning check, the learning-rate schedule and the record layout.
//! Now both execution worlds share one implementation, which is what makes
//! the loopback server reproduce in-process trajectories bit-for-bit.

use std::sync::Arc;
use std::time::Instant;

use krum_compress::GradientCodec;
use krum_core::{AggregationContext, Aggregator, ExecutionPolicy, StatefulState};
use krum_metrics::RoundRecord;
use krum_models::GradientEstimator;
use krum_tensor::Vector;

use crate::config::{ClusterSpec, TrainingConfig};
use crate::drift::DriftTracker;
use crate::error::TrainError;

/// Callback measuring held-out accuracy of a parameter vector.
pub type AccuracyProbe = Box<dyn Fn(&Vector) -> Option<f64> + Send + Sync>;

/// The server-side round state shared by every execution world: the
/// aggregation rule behind its zero-allocation workspace, the SGD schedule,
/// and the metrics probes. See the module docs for the design rationale.
pub struct RoundCore {
    cluster: ClusterSpec,
    aggregator: Box<dyn Aggregator>,
    aggregator_name: String,
    config: TrainingConfig,
    dim: usize,
    /// Reusable aggregation workspace — zero steady-state heap allocations
    /// on the aggregation path.
    ctx: AggregationContext,
    accuracy_probe: Option<AccuracyProbe>,
    compression: Option<Arc<dyn GradientCodec>>,
    /// Fills the drift columns of every closed round.
    drift: DriftTracker,
}

impl RoundCore {
    /// Builds the core, validating the configuration against the model
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] when the training configuration
    /// is invalid, `dim` is zero, or the known optimum has the wrong
    /// dimension.
    pub fn new(
        cluster: ClusterSpec,
        aggregator: Box<dyn Aggregator>,
        config: TrainingConfig,
        dim: usize,
    ) -> Result<Self, TrainError> {
        config.validate()?;
        if dim == 0 {
            return Err(TrainError::config("model dimension must be >= 1"));
        }
        if let Some(optimum) = &config.known_optimum {
            if optimum.dim() != dim {
                return Err(TrainError::config(format!(
                    "known optimum has dimension {}, expected {dim}",
                    optimum.dim()
                )));
            }
        }
        Ok(Self {
            cluster,
            aggregator_name: aggregator.name(),
            aggregator,
            config,
            dim,
            ctx: AggregationContext::new(),
            accuracy_probe: None,
            compression: None,
            drift: DriftTracker::new(),
        })
    }

    /// The cluster this core serves.
    pub fn cluster(&self) -> ClusterSpec {
        self.cluster
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Display name of the aggregation rule.
    pub fn aggregator_name(&self) -> &str {
        &self.aggregator_name
    }

    /// Attaches a held-out accuracy probe, called on evaluation rounds with
    /// the post-update parameters.
    pub fn set_accuracy_probe(&mut self, probe: AccuracyProbe) {
        self.accuracy_probe = Some(probe);
    }

    /// Attaches a gradient codec: after every SGD step the parameter
    /// vector is passed through the codec's canonical quantize →
    /// dequantize params transform, so the trajectory lives in the
    /// codec's representable set on every execution world (the broadcast
    /// a remote worker decodes *is* the vector an in-process engine
    /// computes). Idempotent transforms make checkpoint/resume safe.
    pub fn set_compression(&mut self, codec: Arc<dyn GradientCodec>) {
        self.compression = Some(codec);
    }

    /// The attached gradient codec, if any.
    pub fn compression(&self) -> Option<&Arc<dyn GradientCodec>> {
        self.compression.as_ref()
    }

    /// Overrides the aggregation workspace's execution policy (e.g. force
    /// [`ExecutionPolicy::Sequential`] for allocation-free profiling).
    pub fn set_aggregation_policy(&mut self, policy: ExecutionPolicy) {
        self.ctx.set_policy(policy);
    }

    /// Arms the workspace's incremental Gram cache for the next aggregation:
    /// `generations[w]` is a counter bumped whenever worker `w`'s proposal
    /// changes, so an unchanged counter lets the kernel skip recomputing that
    /// worker's distance rows. One-shot — the next `close_round` consumes it.
    /// Results are bit-identical whether or not this is called.
    pub fn set_generations(&mut self, generations: &[u64]) {
        self.ctx.set_generations(generations);
    }

    /// Drops any cached Gram state (e.g. after the proposal table was
    /// rebuilt out-of-band); the next aggregation recomputes from scratch.
    pub fn invalidate_gram_cache(&mut self) {
        self.ctx.invalidate_gram_cache();
    }

    /// The aggregate accepted by the most recent
    /// [`close_round`](RoundCore::close_round) — what a stateful adversary
    /// is shown as round feedback.
    pub fn last_aggregate(&self) -> &Vector {
        &self.ctx.output().value
    }

    /// Snapshot of the stateful-rule memory (reputation weights, clip
    /// anchor), `None` when no stateful rule has run. Serialisable into
    /// server checkpoints.
    pub fn export_stateful_state(&self) -> Option<StatefulState> {
        self.ctx.stateful_state().cloned()
    }

    /// Installs (or clears) the stateful-rule memory — the resume half of
    /// checkpointing. Restoring the exported state reproduces the
    /// trajectory bit-identically.
    pub fn import_stateful_state(&mut self, state: Option<StatefulState>) {
        self.ctx.set_stateful_state(state);
    }

    /// Continues the drift columns of a resumed run: `displacement` is the
    /// last recorded `attacker_displacement` (0 when none was recorded).
    pub fn resume_drift(&mut self, displacement: f64) {
        self.drift = DriftTracker::resume(displacement);
    }

    /// Whether `round` is an evaluation round under the configured cadence
    /// (the final round always is).
    pub fn eval_due(&self, round: usize) -> bool {
        self.config.eval_due(round)
    }

    /// Closes one round over externally collected `proposals`: aggregates
    /// them through the reused workspace, rejects a NaN-poisoned aggregate,
    /// applies the SGD step `x ← x − γ_t · F(…)` to `params` in place, and
    /// returns the round's record.
    ///
    /// `workers[i]` is the worker behind `proposals[i]` (workers `>= n − f`
    /// are Byzantine). Stateful rules key their memory by it, the record's
    /// `selected_worker`/`selected_byzantine` name it, and the drift
    /// columns split the proposals by it. `true_gradient` (when the
    /// workload exposes one) fills the alignment/gradient-norm metrics;
    /// `probe` serves the loss measurement on evaluation rounds.
    ///
    /// Timing fields beyond `aggregation_nanos` (propose/attack/network/
    /// round wall-clock, wire bytes) are the caller's to fill: only the
    /// caller knows how the proposals travelled.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] when `workers` and `proposals`
    /// differ in length, [`TrainError`] when the aggregation rule fails, or
    /// [`TrainError::PoisonedRound`] when the aggregate contains NaN —
    /// stepping on it would silently corrupt every later round. (±∞ is left
    /// to the divergence reporting: overflowing runs are a legitimate
    /// experimental outcome, garbage is not.)
    pub fn close_round(
        &mut self,
        params: &mut Vector,
        round: usize,
        proposals: &[Vector],
        workers: &[usize],
        true_gradient: Option<Vector>,
        probe: Option<&dyn GradientEstimator>,
    ) -> Result<RoundRecord, TrainError> {
        self.close_round_inner(
            params,
            round,
            proposals,
            workers,
            true_gradient,
            probe,
            None,
        )
    }

    /// [`close_round`](RoundCore::close_round) with a caller-supplied
    /// aggregation rule replacing the configured one for this round only.
    ///
    /// This serves crash-degraded rounds: when workers crash mid-round and
    /// the crash policy proceeds at quorum, the round closes over fewer
    /// proposals than the rule was built for, so the caller rebuilds the
    /// same rule at the smaller arity and closes through it. The core's own
    /// rule, workspace and schedule state are untouched; only the aggregate
    /// comes from `aggregator`.
    ///
    /// # Errors
    ///
    /// As [`close_round`](RoundCore::close_round).
    #[allow(clippy::too_many_arguments)]
    pub fn close_round_with(
        &mut self,
        aggregator: &dyn Aggregator,
        params: &mut Vector,
        round: usize,
        proposals: &[Vector],
        workers: &[usize],
        true_gradient: Option<Vector>,
        probe: Option<&dyn GradientEstimator>,
    ) -> Result<RoundRecord, TrainError> {
        self.close_round_inner(
            params,
            round,
            proposals,
            workers,
            true_gradient,
            probe,
            Some(aggregator),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn close_round_inner(
        &mut self,
        params: &mut Vector,
        round: usize,
        proposals: &[Vector],
        workers: &[usize],
        true_gradient: Option<Vector>,
        probe: Option<&dyn GradientEstimator>,
        override_rule: Option<&dyn Aggregator>,
    ) -> Result<RoundRecord, TrainError> {
        if workers.len() != proposals.len() {
            return Err(TrainError::config(format!(
                "{} proposals but {} worker ids",
                proposals.len(),
                workers.len()
            )));
        }
        let aggregator = override_rule.unwrap_or(&*self.aggregator);
        self.ctx.set_slot_workers(workers);
        let aggregation_start = Instant::now();
        aggregator.aggregate_in(&mut self.ctx, proposals)?;
        let aggregation_nanos = aggregation_start.elapsed().as_nanos();
        let aggregation = self.ctx.output();

        // A NaN aggregate means the round was poisoned beyond what the rule
        // could filter (e.g. averaging over a NaN proposal) — fail
        // structurally instead of stepping onto garbage.
        if aggregation.value.iter().any(|x| x.is_nan()) {
            return Err(TrainError::PoisonedRound {
                round,
                aggregator: self.aggregator_name.clone(),
            });
        }

        // Step: apply the SGD update, then re-project onto the codec's
        // representable set so the next round's broadcast (raw in memory,
        // encoded on the wire) is the same vector everywhere.
        let learning_rate = self.config.schedule.rate(round);
        params.axpy(-learning_rate, &aggregation.value);
        if let Some(codec) = &self.compression {
            codec.transform_params(params.as_mut_slice());
        }

        // Record.
        let honest = self.cluster.honest();
        let mut record = RoundRecord::new(round, aggregation.value.norm(), learning_rate);
        record.aggregation_nanos = aggregation_nanos;
        record.selected_worker = aggregation
            .selected_index()
            .and_then(|slot| workers.get(slot).copied());
        record.selected_byzantine = record.selected_worker.map(|w| w >= honest);
        record.reputation_spread = self
            .ctx
            .stateful_state()
            .and_then(StatefulState::reputation_spread);
        if let Some(gradient) = &true_gradient {
            record.true_gradient_norm = Some(gradient.norm());
            record.alignment = aggregation.value.cosine_similarity(gradient);
        }
        if let Some(optimum) = &self.config.known_optimum {
            record.distance_to_optimum = Some(params.distance(optimum));
        }
        if self.config.eval_due(round) {
            if let Some(probe) = probe {
                record.loss = probe.loss(params);
            }
            if let Some(accuracy) = &self.accuracy_probe {
                record.accuracy = accuracy(params);
            }
        }
        self.drift.observe(
            &mut record,
            &aggregation.value,
            proposals,
            workers,
            honest,
            learning_rate,
        );
        Ok(record)
    }
}

impl std::fmt::Debug for RoundCore {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.debug_struct("RoundCore")
            .field("cluster", &self.cluster)
            .field("aggregator", &self.aggregator_name)
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearningRateSchedule;
    use krum_core::{Average, Krum};

    fn config(rounds: usize, dim: usize) -> TrainingConfig {
        TrainingConfig {
            rounds,
            schedule: LearningRateSchedule::Constant { gamma: 0.5 },
            seed: 1,
            eval_every: 2,
            known_optimum: Some(Vector::zeros(dim)),
        }
    }

    #[test]
    fn close_round_aggregates_steps_and_records() {
        let cluster = ClusterSpec::new(5, 1).unwrap();
        let mut core =
            RoundCore::new(cluster, Box::new(Krum::new(5, 1).unwrap()), config(4, 3), 3).unwrap();
        assert_eq!(core.dim(), 3);
        assert_eq!(core.cluster().workers(), 5);
        assert!(core.aggregator_name().contains("krum"));
        assert!(core.eval_due(0) && !core.eval_due(1) && core.eval_due(3));

        let proposals = vec![Vector::filled(3, 1.0); 5];
        let mut params = Vector::filled(3, 2.0);
        let record = core
            .close_round(&mut params, 0, &proposals, &[0, 1, 2, 3, 4], None, None)
            .unwrap();
        // x ← x − 0.5 · (1, 1, 1).
        assert!(params.distance(&Vector::filled(3, 1.5)) < 1e-12);
        assert_eq!(record.round, 0);
        assert_eq!(record.aggregate_norm, Vector::filled(3, 1.0).norm());
        assert_eq!(record.selected_byzantine, Some(false));
        assert!(record.distance_to_optimum.is_some());
        assert!(record.aggregation_nanos > 0);
        // Timing fields the caller owns stay zero.
        assert_eq!(record.propose_nanos, 0);
        assert_eq!(record.round_nanos, 0);
    }

    #[test]
    fn close_round_with_drives_a_degraded_arity_rule() {
        let cluster = ClusterSpec::new(6, 1).unwrap();
        let mut core =
            RoundCore::new(cluster, Box::new(Krum::new(6, 1).unwrap()), config(4, 3), 3).unwrap();
        // Only 5 of 6 proposals survived a crash: the configured rule was
        // built for n=6 and rejects the arity…
        let proposals = vec![Vector::filled(3, 1.0); 5];
        let workers = [0, 1, 2, 3, 5];
        let mut params = Vector::filled(3, 2.0);
        assert!(core
            .close_round(&mut params, 0, &proposals, &workers, None, None)
            .is_err());
        // …but the same rule rebuilt at the surviving arity closes the
        // round through the shared workspace, schedule and record path.
        let degraded = Krum::new(5, 1).unwrap();
        let record = core
            .close_round_with(&degraded, &mut params, 0, &proposals, &workers, None, None)
            .unwrap();
        assert!(params.distance(&Vector::filled(3, 1.5)) < 1e-12);
        assert_eq!(record.round, 0);
        // Krum picks the first of the identical proposals: slot 0, worker 0.
        assert_eq!(record.selected_worker, Some(0));
        assert_eq!(record.selected_byzantine, Some(false));
        // The configured rule is untouched for the next full-strength round.
        let full = vec![Vector::filled(3, 1.0); 6];
        let all = [0, 1, 2, 3, 4, 5];
        assert!(core
            .close_round(&mut params, 1, &full, &all, None, None)
            .is_ok());
    }

    #[test]
    fn close_round_rejects_nan_aggregates() {
        let cluster = ClusterSpec::new(4, 1).unwrap();
        let mut core = RoundCore::new(cluster, Box::new(Average::new()), config(2, 2), 2).unwrap();
        let mut proposals = vec![Vector::filled(2, 1.0); 4];
        proposals[3] = Vector::from(vec![f64::NAN, 0.0]);
        let mut params = Vector::filled(2, 1.0);
        let before = params.clone();
        let err = core
            .close_round(&mut params, 1, &proposals, &[0, 1, 2, 3], None, None)
            .unwrap_err();
        assert!(matches!(err, TrainError::PoisonedRound { round: 1, .. }));
        // The poisoned step was not applied.
        assert_eq!(params, before);
    }

    #[test]
    fn close_round_names_the_selected_worker_and_fills_the_drift_columns() {
        let cluster = ClusterSpec::new(5, 1).unwrap();
        let mut core =
            RoundCore::new(cluster, Box::new(Krum::new(5, 1).unwrap()), config(4, 1), 1).unwrap();
        // Proposals out of worker order, Byzantine worker 4 first. Krum's
        // two-nearest scores on the line pick 1.1 — slot 1, worker 0.
        let proposals = [0.0, 1.1, 1.0, 1.2, 1.35].map(|x| Vector::filled(1, x));
        let workers = [4, 0, 2, 1, 3];
        let mut params = Vector::filled(1, 2.0);
        let record = core
            .close_round(&mut params, 0, &proposals, &workers, None, None)
            .unwrap();
        assert_eq!(record.selected_worker, Some(0));
        assert_eq!(record.selected_byzantine, Some(false));
        // μ_honest = 1.1625 and F = 1.1: ‖F − μ‖ = 0.0625, all of it towards
        // the Byzantine side, applied at γ = 0.5.
        assert!((record.dist_to_honest_mean.unwrap() - 0.0625).abs() < 1e-12);
        assert!((record.attacker_displacement.unwrap() - 0.03125).abs() < 1e-12);
        // A resumed run continues the displacement series.
        core.resume_drift(1.0);
        let record = core
            .close_round(&mut params, 1, &proposals, &workers, None, None)
            .unwrap();
        assert!((record.attacker_displacement.unwrap() - 1.03125).abs() < 1e-12);
        // The worker map must cover every proposal.
        assert!(core
            .close_round(&mut params, 2, &proposals, &workers[..4], None, None)
            .is_err());
    }

    #[test]
    fn construction_validates_dimension_and_optimum() {
        let cluster = ClusterSpec::new(4, 1).unwrap();
        assert!(RoundCore::new(cluster, Box::new(Average::new()), config(2, 2), 0).is_err());
        let mut bad = config(2, 2);
        bad.known_optimum = Some(Vector::zeros(5));
        assert!(RoundCore::new(cluster, Box::new(Average::new()), bad, 2).is_err());
    }
}
