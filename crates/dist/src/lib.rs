//! # krum-dist
//!
//! Synchronous parameter-server training engines for the Krum reproduction.
//!
//! The paper's model section fixes the protocol: each round `t`, the server
//! broadcasts `x_t`, every correct worker replies with a gradient estimate
//! `G(x_t, ξ)`, the Byzantine workers reply with anything (chosen with full
//! knowledge of the round), and the server applies
//! `x_{t+1} = x_t − γ_t · F(V_1, …, V_n)` for a choice function `F`.
//!
//! One [`RoundEngine`] implements that protocol as a
//! broadcast → propose → attack → aggregate → step → record pipeline,
//! parameterized by an [`ExecutionStrategy`]:
//!
//! * [`ExecutionStrategy::Sequential`] — the reference engine;
//! * [`ExecutionStrategy::Threaded`] — honest worker gradients fan out over
//!   the `rayon` pool and a simulated [`NetworkModel`] (per-message latency
//!   and bandwidth) is charged to the round timings, for the
//!   cost-of-resilience experiments (E8);
//! * [`ExecutionStrategy::AsyncQuorum`] — partial-quorum rounds under the
//!   simulated network.
//!
//! Two pieces are shared with the networked server (`krum-server`): the
//! [`Quorum`] machine, which selects, carries, drops and orders the
//! proposals of a partial quorum, and [`RoundCore`], which closes a round
//! (aggregate → step → record).
//!
//! The engine is a deterministic function of [`TrainingConfig::seed`] —
//! worker, attack and network randomness are independent ChaCha streams
//! derived from it — so every strategy produces **identical parameter
//! trajectories** and experiments are exactly reproducible.
//!
//! Performance notes: the per-round proposal buffer and the aggregation
//! workspace ([`krum_core::AggregationContext`]) are allocated once and
//! reused, making the server-side aggregation path allocation-free in the
//! steady state; each pipeline phase is timed separately so the `O(n²·d)`
//! cost of Krum stays visible in the metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod drift;
mod engine;
mod error;
mod network;
mod quorum;
mod round_core;

pub use config::{ClusterSpec, LearningRateSchedule, TrainingConfig};
pub use engine::{stream_rng, ExecutionStrategy, RoundEngine, ATTACK_STREAM};
pub use error::TrainError;
pub use network::{LatencyModel, NetworkModel, LATENCY_MODEL_NAMES};
pub use quorum::{Arrival, Close, CrashPolicy, Proposal, Quorum, QuorumStats};
pub use round_core::{AccuracyProbe, RoundCore};

/// Convenience prelude for the distributed-training crate.
pub mod prelude {
    pub use crate::{
        ClusterSpec, ExecutionStrategy, LatencyModel, LearningRateSchedule, NetworkModel,
        RoundEngine, TrainError, TrainingConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use krum_attacks::{NoAttack, SignFlip};
    use krum_core::{Average, Krum};
    use krum_models::{GaussianEstimator, GradientEstimator, QuadraticCost};
    use krum_tensor::Vector;

    fn estimators(count: usize, dim: usize, sigma: f64) -> Vec<Box<dyn GradientEstimator>> {
        (0..count)
            .map(|_| {
                Box::new(
                    GaussianEstimator::new(
                        QuadraticCost::isotropic(Vector::zeros(dim), 0.0),
                        sigma,
                    )
                    .unwrap(),
                ) as Box<dyn GradientEstimator>
            })
            .collect()
    }

    fn config(rounds: usize, dim: usize) -> TrainingConfig {
        TrainingConfig {
            rounds,
            schedule: LearningRateSchedule::Constant { gamma: 0.2 },
            seed: 11,
            eval_every: 5,
            known_optimum: Some(Vector::zeros(dim)),
        }
    }

    /// A sequential engine with no dedicated probe.
    fn sequential_engine(
        cluster: ClusterSpec,
        aggregator: Box<dyn krum_core::Aggregator>,
        attack: Box<dyn krum_attacks::Attack>,
        estimators: Vec<Box<dyn GradientEstimator>>,
        config: TrainingConfig,
    ) -> Result<RoundEngine, TrainError> {
        RoundEngine::new(
            cluster,
            aggregator,
            attack,
            estimators,
            None,
            config,
            ExecutionStrategy::Sequential,
        )
    }

    #[test]
    fn sequential_engine_converges_on_clean_quadratic() {
        let dim = 8;
        let cluster = ClusterSpec::new(5, 0).unwrap();
        let mut trainer = sequential_engine(
            cluster,
            Box::new(Average::new()),
            Box::new(NoAttack::new()),
            estimators(5, dim, 0.05),
            config(120, dim),
        )
        .unwrap();
        assert_eq!(trainer.cluster().workers(), 5);
        assert_eq!(trainer.dim(), dim);
        let (params, history) = trainer.run(Vector::filled(dim, 2.0)).unwrap();
        assert!(params.norm() < 0.2, "‖x‖ = {}", params.norm());
        assert_eq!(history.len(), 120);
        assert!(!history.summary().diverged);
        // distance-to-optimum decreases over the run.
        let first = history.rounds[0].distance_to_optimum.unwrap();
        let last = history.rounds[119].distance_to_optimum.unwrap();
        assert!(last < first * 0.2);
    }

    #[test]
    fn sequential_engine_runs_are_reproducible() {
        let dim = 6;
        let cluster = ClusterSpec::new(7, 2).unwrap();
        let run = || {
            let mut trainer = sequential_engine(
                cluster,
                Box::new(Krum::new(7, 2).unwrap()),
                Box::new(SignFlip::new(3.0).unwrap()),
                estimators(5, dim, 0.2),
                config(30, dim),
            )
            .unwrap();
            trainer.run(Vector::filled(dim, 1.0)).unwrap().0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_round_advances_from_given_params() {
        let dim = 4;
        let cluster = ClusterSpec::new(5, 1).unwrap();
        let mut trainer = sequential_engine(
            cluster,
            Box::new(Krum::new(5, 1).unwrap()),
            Box::new(NoAttack::new()),
            estimators(4, dim, 0.0),
            config(1, dim),
        )
        .unwrap();
        let start = Vector::filled(dim, 1.0);
        let (next, record) = trainer.run_round(&start, 0).unwrap();
        // Zero noise: the aggregate is exactly the gradient x, so the update
        // is x ← x − 0.2·x.
        assert!(next.distance(&start.scaled(0.8)) < 1e-12);
        assert_eq!(record.round, 0);
        assert!(record.aggregation_nanos > 0);
        assert_eq!(record.selected_byzantine, Some(false));
    }

    #[test]
    fn construction_rejects_bad_shapes() {
        let dim = 4;
        let cluster = ClusterSpec::new(5, 1).unwrap();
        // Wrong estimator count.
        assert!(sequential_engine(
            cluster,
            Box::new(Average::new()),
            Box::new(NoAttack::new()),
            estimators(3, dim, 0.1),
            config(5, dim),
        )
        .is_err());
        // Mismatched estimator dimensions.
        let mut mixed = estimators(3, dim, 0.1);
        mixed.extend(estimators(1, dim + 1, 0.1));
        assert!(sequential_engine(
            cluster,
            Box::new(Average::new()),
            Box::new(NoAttack::new()),
            mixed,
            config(5, dim),
        )
        .is_err());
        // Known optimum with the wrong dimension.
        let bad_config = TrainingConfig {
            known_optimum: Some(Vector::zeros(dim + 2)),
            ..config(5, dim)
        };
        assert!(sequential_engine(
            cluster,
            Box::new(Average::new()),
            Box::new(NoAttack::new()),
            estimators(4, dim, 0.1),
            bad_config,
        )
        .is_err());
    }

    #[test]
    fn threaded_matches_sequential_trajectory() {
        let dim = 5;
        let cluster = ClusterSpec::new(6, 1).unwrap();
        let network = NetworkModel {
            latency: LatencyModel::Uniform {
                min_nanos: 1_000,
                max_nanos: 2_000,
            },
            nanos_per_byte: 0.5,
        };
        let mut sequential = sequential_engine(
            cluster,
            Box::new(Krum::new(6, 1).unwrap()),
            Box::new(SignFlip::new(2.0).unwrap()),
            estimators(5, dim, 0.3),
            config(25, dim),
        )
        .unwrap();
        let mut threaded = RoundEngine::new(
            cluster,
            Box::new(Krum::new(6, 1).unwrap()),
            Box::new(SignFlip::new(2.0).unwrap()),
            estimators(5, dim, 0.3),
            estimators(1, dim, 0.3).pop(),
            config(25, dim),
            ExecutionStrategy::Threaded { network },
        )
        .unwrap();
        let start = Vector::filled(dim, 1.5);
        let (seq, seq_history) = sequential.run(start.clone()).unwrap();
        let (thr, thr_history) = threaded.run(start).unwrap();
        assert_eq!(seq, thr, "engines must follow identical trajectories");
        assert_eq!(seq_history.trajectory_mismatch(&thr_history), None);
        // The network charge only widens the round timings.
        assert!(thr_history.mean_round_nanos() >= seq_history.mean_round_nanos());
        assert!(thr_history.mean_round_nanos() >= 2_000.0);
        assert_eq!(threaded.strategy(), ExecutionStrategy::Threaded { network });
        assert_eq!(threaded.cluster().honest(), 5);
        assert_eq!(threaded.dim(), dim);
        // Per-phase accounting: the sequential engine charges no network
        // time; the threaded engine records the simulated barrier.
        assert_eq!(seq_history.mean_network_nanos(), 0.0);
        assert!(thr_history.mean_network_nanos() >= 2_000.0);
        assert!(seq_history.mean_propose_nanos() > 0.0);
        assert!(thr_history.mean_attack_nanos() > 0.0);
    }

    #[test]
    fn round_engine_is_usable_directly() {
        let dim = 4;
        let cluster = ClusterSpec::new(5, 1).unwrap();
        let mut engine = RoundEngine::new(
            cluster,
            Box::new(Krum::new(5, 1).unwrap()),
            Box::new(NoAttack::new()),
            estimators(4, dim, 0.0),
            None,
            config(3, dim),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        assert_eq!(engine.strategy(), ExecutionStrategy::Sequential);
        assert_eq!(engine.config().rounds, 3);
        engine.set_aggregation_policy(krum_core::ExecutionPolicy::Sequential);
        let mut params = Vector::filled(dim, 1.0);
        let record = engine.step(&mut params, 0).unwrap();
        // Zero noise: the aggregate is exactly the gradient x.
        assert!(params.distance(&Vector::filled(dim, 0.8)) < 1e-12);
        assert!(record.aggregation_nanos > 0);
        assert!(record.propose_nanos > 0);
        assert_eq!(record.network_nanos, 0);
        // The pipeline phases are all contained in the round wall-clock.
        assert!(
            record.round_nanos
                >= record.propose_nanos + record.attack_nanos + record.aggregation_nanos
        );
        // A history produced directly by the engine carries the metadata.
        let history = engine.new_history();
        assert_eq!(history.workers, 5);
        assert!(history.aggregator.contains("krum"));
    }

    #[allow(clippy::too_many_arguments)]
    fn async_engine(
        n: usize,
        f: usize,
        dim: usize,
        sigma: f64,
        rounds: usize,
        quorum: usize,
        max_staleness: usize,
        network: NetworkModel,
        attack: Box<dyn krum_attacks::Attack>,
    ) -> RoundEngine {
        // The rule is built for the quorum size, not n — Krum's 2f + 2 < n
        // precondition is re-validated against what actually gets aggregated.
        RoundEngine::new(
            ClusterSpec::new(n, f).unwrap(),
            Box::new(Krum::new(quorum, f).unwrap()),
            attack,
            estimators(n - f, dim, sigma),
            None,
            config(rounds, dim),
            ExecutionStrategy::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale: false,
            },
        )
        .unwrap()
    }

    /// A reuse-stale engine: the rule is built for `n` (the full latest
    /// table is aggregated every round), `quorum` is the refresh pace.
    #[allow(clippy::too_many_arguments)]
    fn reuse_engine(
        n: usize,
        f: usize,
        dim: usize,
        sigma: f64,
        rounds: usize,
        quorum: usize,
        max_staleness: usize,
        network: NetworkModel,
        attack: Box<dyn krum_attacks::Attack>,
        gram_cache: bool,
    ) -> RoundEngine {
        let mut engine = RoundEngine::new(
            ClusterSpec::new(n, f).unwrap(),
            Box::new(Krum::new(n, f).unwrap()),
            attack,
            estimators(n - f, dim, sigma),
            None,
            config(rounds, dim),
            ExecutionStrategy::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale: true,
            },
        )
        .unwrap();
        engine.set_gram_cache(gram_cache);
        engine
    }

    /// Reuse mode with a full refresh every round collapses to the barrier
    /// protocol: same proposals, same order, same trajectory as Sequential.
    #[test]
    fn reuse_full_refresh_matches_sequential_exactly() {
        let (n, f, dim, rounds) = (9, 2, 5, 20);
        let start = Vector::filled(dim, 1.2);
        let mut sequential = RoundEngine::new(
            ClusterSpec::new(n, f).unwrap(),
            Box::new(Krum::new(n, f).unwrap()),
            Box::new(SignFlip::new(2.0).unwrap()),
            estimators(n - f, dim, 0.3),
            None,
            config(rounds, dim),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        let mut reuse = reuse_engine(
            n,
            f,
            dim,
            0.3,
            rounds,
            n,
            0,
            zero_latency(),
            Box::new(SignFlip::new(2.0).unwrap()),
            true,
        );
        let (a, ha) = sequential.run(start.clone()).unwrap();
        let (b, hb) = reuse.run(start).unwrap();
        assert_eq!(a, b, "full-refresh reuse must reproduce the barrier");
        assert_eq!(ha.trajectory_mismatch(&hb), None);
        // Every round refreshed everything: no staleness anywhere.
        assert!(hb
            .rounds
            .iter()
            .all(|r| r.stale_in_quorum == Some(0) && r.quorum_size == Some(n)));
    }

    /// The incremental Gram cache is a pure optimisation: trajectories with
    /// it on and off are bit-identical under every adversary timing and a
    /// heavy-tailed network.
    #[test]
    fn reuse_gram_cache_on_and_off_are_bit_identical() {
        let network = NetworkModel {
            latency: LatencyModel::Pareto {
                min_nanos: 1_000,
                alpha: 1.4,
            },
            nanos_per_byte: 0.05,
        };
        let attacks: Vec<fn() -> Box<dyn krum_attacks::Attack>> = vec![
            || Box::new(SignFlip::new(2.0).unwrap()),
            || Box::new(krum_attacks::Straggler::new(3.0).unwrap()),
            || Box::new(krum_attacks::LastToRespond::new(2.5).unwrap()),
        ];
        for make_attack in attacks {
            let (n, f, dim, rounds) = (12, 2, 6, 25);
            // A quarter of the table refreshes per round, stale entries
            // tolerated up to 4 rounds.
            let mut cached =
                reuse_engine(n, f, dim, 0.4, rounds, 3, 4, network, make_attack(), true);
            let mut uncached =
                reuse_engine(n, f, dim, 0.4, rounds, 3, 4, network, make_attack(), false);
            let start = Vector::filled(dim, 1.0);
            let (a, ha) = cached.run(start.clone()).unwrap();
            let (b, hb) = uncached.run(start).unwrap();
            let name = cached.new_history().attack;
            assert_eq!(a, b, "cache must not change the trajectory ({name})");
            assert_eq!(ha.trajectory_mismatch(&hb), None, "{name}");
            for (ra, rb) in ha.rounds.iter().zip(hb.rounds.iter()) {
                assert_eq!(ra.stale_in_quorum, rb.stale_in_quorum);
            }
            // The partial refresh actually exercised staleness.
            assert!(ha.rounds.iter().any(|r| r.stale_in_quorum > Some(0)));
        }
    }

    /// The staleness bound is enforced by forced refreshes, and reuse mode
    /// accepts refresh paces below the `n − f` quorum floor.
    #[test]
    fn reuse_staleness_bound_forces_refreshes() {
        let (n, f, dim, rounds) = (10, 2, 4, 30);
        let mut engine = reuse_engine(
            n,
            f,
            dim,
            0.2,
            rounds,
            1, // far below n − f: legal in reuse mode
            3,
            zero_latency(),
            Box::new(SignFlip::new(1.5).unwrap()),
            true,
        );
        let (_, history) = engine.run(Vector::filled(dim, 1.0)).unwrap();
        for record in history.rounds.iter() {
            // No table entry ever exceeds the staleness bound.
            assert!(record.max_staleness_in_quorum <= Some(3));
            // Staleness lives in the table, not a carry pool.
            assert_eq!(record.pending_carryover, Some(0));
            assert_eq!(record.quorum_size.map(|q| q >= 1), Some(true));
        }
        assert!(history.rounds.iter().any(|r| r.stale_in_quorum > Some(0)));

        // Bounds: zero pace is rejected, any positive pace up to n is fine.
        let make = |quorum: usize| {
            RoundEngine::new(
                ClusterSpec::new(9, 2).unwrap(),
                Box::new(Average::new()),
                Box::new(NoAttack::new()),
                estimators(7, 4, 0.1),
                None,
                config(5, 4),
                ExecutionStrategy::AsyncQuorum {
                    quorum,
                    max_staleness: 1,
                    network: zero_latency(),
                    reuse_stale: true,
                },
            )
        };
        assert!(make(0).is_err(), "a zero refresh pace can never progress");
        assert!(make(1).is_ok(), "reuse mode has no n - f floor");
        assert!(make(9).is_ok());
        assert!(make(10).is_err(), "pace beyond n is meaningless");
    }

    fn zero_latency() -> NetworkModel {
        NetworkModel {
            latency: LatencyModel::Constant { nanos: 0 },
            nanos_per_byte: 0.0,
        }
    }

    /// Acceptance: `AsyncQuorum` with `quorum = n` and zero latency
    /// reproduces the Sequential trajectory exactly, record for record.
    #[test]
    fn async_full_quorum_zero_latency_matches_sequential_exactly() {
        let (n, f, dim, rounds) = (7, 2, 6, 30);
        let start = Vector::filled(dim, 1.5);
        let mut sequential = RoundEngine::new(
            ClusterSpec::new(n, f).unwrap(),
            Box::new(Krum::new(n, f).unwrap()),
            Box::new(SignFlip::new(3.0).unwrap()),
            estimators(n - f, dim, 0.3),
            None,
            config(rounds, dim),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        let mut quorum = async_engine(
            n,
            f,
            dim,
            0.3,
            rounds,
            n,
            2,
            zero_latency(),
            Box::new(SignFlip::new(3.0).unwrap()),
        );
        let (seq, seq_history) = sequential.run(start.clone()).unwrap();
        let (qrm, qrm_history) = quorum.run(start).unwrap();
        assert_eq!(seq, qrm, "full-quorum async must equal the barrier");
        assert_eq!(seq_history.trajectory_mismatch(&qrm_history), None);
        // A full quorum never carries or drops anything.
        assert!((qrm_history.mean_quorum_size() - n as f64).abs() < 1e-12);
        assert_eq!(qrm_history.total_dropped_stale(), 0);
        assert_eq!(qrm_history.mean_stale_in_quorum(), 0.0);
    }

    /// Acceptance: async-quorum trajectories are bit-identical across
    /// repeated runs of the same seed, including under a heavy-tailed
    /// network and a partial quorum.
    #[test]
    fn async_quorum_trajectories_are_reproducible() {
        let network = NetworkModel {
            latency: LatencyModel::Pareto {
                min_nanos: 10_000,
                alpha: 1.1,
            },
            nanos_per_byte: 0.05,
        };
        let run = || {
            let mut engine = async_engine(
                9,
                2,
                5,
                0.3,
                25,
                7,
                2,
                network,
                Box::new(SignFlip::new(2.0).unwrap()),
            );
            engine.run(Vector::filled(5, 1.0)).unwrap()
        };
        let (a, ha) = run();
        let (b, hb) = run();
        assert_eq!(a, b);
        // Every trajectory column matches, and so do the simulated network
        // charge and the quorum columns (the measured wall-clock nanos are
        // the only fields allowed to differ).
        assert_eq!(ha.trajectory_mismatch(&hb), None);
        for (x, y) in ha.rounds.iter().zip(&hb.rounds) {
            assert_eq!(x.network_nanos, y.network_nanos, "simulated charge");
            assert_eq!(x.quorum_size, y.quorum_size);
            assert_eq!(x.stale_in_quorum, y.stale_in_quorum);
            assert_eq!(x.max_staleness_in_quorum, y.max_staleness_in_quorum);
            assert_eq!(x.dropped_stale, y.dropped_stale);
            assert_eq!(x.pending_carryover, y.pending_carryover);
        }
    }

    /// A partial quorum under latency dispersion actually carries
    /// stragglers: the staleness stats are populated and stale proposals
    /// re-enter later quorums.
    #[test]
    fn partial_quorum_carries_stragglers_and_reports_staleness() {
        let network = NetworkModel {
            latency: LatencyModel::Uniform {
                min_nanos: 1_000,
                max_nanos: 1_000_000,
            },
            nanos_per_byte: 0.0,
        };
        let mut engine = async_engine(9, 2, 5, 0.3, 40, 7, 3, network, Box::new(NoAttack::new()));
        let (params, history) = engine.run(Vector::filled(5, 1.0)).unwrap();
        assert!(params.is_finite());
        assert!((history.mean_quorum_size() - 7.0).abs() < 1e-12);
        // With 9 proposals racing for 7 slots every round, carry-over is the
        // steady state and stale proposals make it into later quorums.
        assert!(history.mean_stale_in_quorum() > 0.0);
        let carried: usize = history
            .rounds
            .iter()
            .filter_map(|r| r.pending_carryover)
            .sum();
        assert!(carried > 0);
        // The network charge is the quorum cutoff, not the slowest worker:
        // strictly positive under this latency model.
        assert!(history.mean_network_nanos() > 0.0);
    }

    /// The straggling adversary misses every quorum that can close without
    /// it: with `max_staleness = 0` its proposals are dropped every round
    /// and the aggregation never sees a Byzantine vector.
    #[test]
    fn straggling_adversary_is_dropped_by_a_tight_staleness_bound() {
        let mut engine = async_engine(
            9,
            2,
            5,
            0.3,
            30,
            7,
            0,
            zero_latency(),
            Box::new(krum_attacks::Straggler::new(4.0).unwrap()),
        );
        let (params, history) = engine.run(Vector::filled(5, 1.0)).unwrap();
        assert!(params.is_finite());
        // The 2 Byzantine proposals straggle past the bound every round.
        assert_eq!(history.total_dropped_stale(), 2 * 30);
        let stats = history.selection_stats();
        assert_eq!(stats.byzantine_selected(), 0);
        // With staleness allowed, the poisoned stragglers do land in later
        // quorums (as stale carry-overs competing for slots).
        let mut engine = async_engine(
            9,
            2,
            5,
            0.3,
            30,
            7,
            2,
            zero_latency(),
            Box::new(krum_attacks::Straggler::new(4.0).unwrap()),
        );
        let (_, lax_history) = engine.run(Vector::filled(5, 1.0)).unwrap();
        assert!(lax_history.mean_stale_in_quorum() > 0.0);
        assert!(lax_history.total_dropped_stale() < 2 * 30);
    }

    /// Fixed far-away Byzantine proposals: every round (and hence every
    /// carried straggler) is the same vector, so `k` Byzantine entries in a
    /// quorum form a 0-diameter cluster of size `k`.
    struct ConstantByz;

    impl krum_attacks::Attack for ConstantByz {
        fn forge(
            &self,
            ctx: &krum_attacks::AttackContext<'_>,
            _rng: &mut dyn rand::RngCore,
        ) -> Result<Vec<Vector>, krum_attacks::AttackError> {
            Ok(vec![Vector::filled(ctx.dim(), -50.0); ctx.byzantine_count])
        }

        fn name(&self) -> String {
            "constant-byz".into()
        }
    }

    /// Regression: a quorum admits at most one proposal per worker (the
    /// paper's model — one vector per worker per aggregation), so the
    /// Byzantine share of a quorum is structurally capped at `f` and Krum's
    /// re-validated `2f + 2 < quorum` precondition actually holds. The
    /// `Quorum` machine's own tests check the cap exhaustively on small
    /// scopes; behaviourally, `ConstantByz`
    /// forms a 0-diameter Byzantine cluster across rounds, so any quorum
    /// that ever held 2f = 4 of its vectors would hand Krum(7, 2) a 0-score
    /// cluster (neighbours = 3) that wins the argmin outright.
    #[test]
    fn quorum_never_aggregates_more_than_f_byzantine_proposals() {
        let network = NetworkModel {
            latency: LatencyModel::Pareto {
                min_nanos: 10_000,
                alpha: 1.05,
            },
            nanos_per_byte: 0.0,
        };
        let rounds = 500;
        let mut engine = async_engine(9, 2, 5, 0.3, rounds, 7, 3, network, Box::new(ConstantByz));
        let (params, history) = engine.run(Vector::filled(5, 1.0)).unwrap();
        assert!(params.is_finite());
        let stats = history.selection_stats();
        assert_eq!(stats.total(), rounds);
        assert_eq!(
            stats.byzantine_selected(),
            0,
            "an over-represented Byzantine cluster must never win the quorum"
        );
    }

    /// An adversary that changes timing between rounds (the trait allows
    /// it): straggle one round, respond-last the next, so its carried
    /// stragglers are already in the quorum a respond-last round wants to
    /// fill.
    struct FlipFlopTiming {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl krum_attacks::Attack for FlipFlopTiming {
        fn forge(
            &self,
            ctx: &krum_attacks::AttackContext<'_>,
            _rng: &mut dyn rand::RngCore,
        ) -> Result<Vec<Vector>, krum_attacks::AttackError> {
            let mean = ctx
                .honest_mean()
                .unwrap_or_else(|| Vector::zeros(ctx.dim()));
            Ok(vec![mean.scaled(-2.0); ctx.byzantine_count])
        }

        fn name(&self) -> String {
            "flip-flop".into()
        }

        fn timing(&self) -> krum_attacks::AttackTiming {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if call.is_multiple_of(2) {
                krum_attacks::AttackTiming::Straggle
            } else {
                krum_attacks::AttackTiming::LastToRespond
            }
        }
    }

    /// Regression: when a respond-last round wants to fill the quorum but a
    /// carried Byzantine straggler from the previous round already holds
    /// that worker's slot, the fill must skip it (the per-worker cap) and
    /// close the quorum on the next legitimate arrivals instead.
    #[test]
    fn respond_last_fill_respects_the_per_worker_cap_for_carried_stragglers() {
        let mut engine = async_engine(
            9,
            2,
            5,
            0.3,
            40,
            7,
            2,
            zero_latency(),
            Box::new(FlipFlopTiming {
                calls: std::sync::atomic::AtomicUsize::new(0),
            }),
        );
        let (params, history) = engine.run(Vector::filled(5, 1.0)).unwrap();
        assert!(params.is_finite());
        assert_eq!(history.len(), 40);
        // Straggle rounds push Byzantine proposals into the carry pool; the
        // respond-last rounds aggregate them as stale entries.
        assert!(history.mean_stale_in_quorum() > 0.0);
        assert!((history.mean_quorum_size() - 7.0).abs() < 1e-12);
    }

    /// The last-to-respond adversary always lands in the quorum, yet Krum
    /// (validated against the quorum size) keeps selecting honest proposals
    /// and the trajectory still converges.
    #[test]
    fn last_to_respond_adversary_is_survived_by_quorum_krum() {
        let mut engine = async_engine(
            11,
            2,
            6,
            0.2,
            120,
            9,
            1,
            zero_latency(),
            Box::new(krum_attacks::LastToRespond::new(3.0).unwrap()),
        );
        let (params, history) = engine.run(Vector::filled(6, 2.0)).unwrap();
        assert!(params.is_finite());
        assert!(params.norm() < 0.7, "‖x‖ = {}", params.norm());
        // The adversary is in every quorum but loses the selection far more
        // often than it wins it.
        let stats = history.selection_stats();
        assert!(stats.total() > 0);
        assert!(stats.byzantine_rate() < 0.2);
    }

    /// Satellite: the engine validates the quorum bounds up front.
    #[test]
    fn async_quorum_bounds_are_validated() {
        let make = |quorum: usize| {
            RoundEngine::new(
                ClusterSpec::new(9, 2).unwrap(),
                Box::new(Average::new()),
                Box::new(NoAttack::new()),
                estimators(7, 4, 0.1),
                None,
                config(5, 4),
                ExecutionStrategy::AsyncQuorum {
                    quorum,
                    max_staleness: 1,
                    network: zero_latency(),
                    reuse_stale: false,
                },
            )
        };
        assert!(make(6).is_err(), "quorum < n - f must be rejected");
        assert!(make(10).is_err(), "quorum > n must be rejected");
        assert!(make(7).is_ok());
        assert!(make(9).is_ok());
        // Pareto latency validation is enforced at engine construction too.
        let bad_network = RoundEngine::new(
            ClusterSpec::new(9, 2).unwrap(),
            Box::new(Average::new()),
            Box::new(NoAttack::new()),
            estimators(7, 4, 0.1),
            None,
            config(5, 4),
            ExecutionStrategy::AsyncQuorum {
                quorum: 8,
                max_staleness: 1,
                reuse_stale: false,
                network: NetworkModel {
                    latency: LatencyModel::Pareto {
                        min_nanos: 10,
                        alpha: 0.0,
                    },
                    nanos_per_byte: 0.0,
                },
            },
        );
        assert!(bad_network.is_err());
    }

    /// Satellite regression: a fully poisoned round (NaN aggregate) is a
    /// structured `PoisonedRound` error from the engine — never a silent
    /// step onto garbage parameters.
    #[test]
    fn poisoned_round_is_a_structured_engine_error() {
        let dim = 4;
        let mut trainer = sequential_engine(
            ClusterSpec::new(6, 2).unwrap(),
            Box::new(Average::new()),
            Box::new(krum_attacks::NonFinite::new()),
            estimators(4, dim, 0.1),
            config(10, dim),
        )
        .unwrap();
        let err = trainer.run(Vector::filled(dim, 1.0)).unwrap_err();
        assert!(
            matches!(err, TrainError::PoisonedRound { round: 0, .. }),
            "got: {err}"
        );
        assert!(err.to_string().contains("poisoned round"));
        // Krum filters the same poison and completes finitely.
        let mut trainer = sequential_engine(
            ClusterSpec::new(7, 2).unwrap(),
            Box::new(Krum::new(7, 2).unwrap()),
            Box::new(krum_attacks::NonFinite::new()),
            estimators(5, dim, 0.1),
            config(10, dim),
        )
        .unwrap();
        let (params, history) = trainer.run(Vector::filled(dim, 1.0)).unwrap();
        assert!(params.is_finite());
        assert!(!history.summary().diverged);
    }

    /// Satellite: when `rounds % eval_every != 0`, the final round still
    /// evaluates, so the last recorded loss describes the returned model.
    #[test]
    fn final_round_always_evaluates_even_off_cadence() {
        let dim = 4;
        let mut engine = RoundEngine::new(
            ClusterSpec::new(5, 1).unwrap(),
            Box::new(Krum::new(5, 1).unwrap()),
            Box::new(NoAttack::new()),
            estimators(4, dim, 0.1),
            None,
            TrainingConfig {
                rounds: 7,
                eval_every: 2,
                ..config(7, dim)
            },
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        let (_, history) = engine.run(Vector::filled(dim, 1.0)).unwrap();
        assert_eq!(history.len(), 7);
        // Cadence rounds 0, 2, 4, 6 — and 6 is also the final round.
        let evaluated: Vec<usize> = history
            .rounds
            .iter()
            .filter(|r| r.loss.is_some())
            .map(|r| r.round)
            .collect();
        assert_eq!(evaluated, vec![0, 2, 4, 6]);
        assert!(
            history.last().unwrap().loss.is_some(),
            "the last round must always evaluate"
        );
    }

    #[test]
    fn latency_models_sample_within_bounds() {
        let mut rng = crate::engine::stream_rng(3, 0);
        let constant = LatencyModel::Constant { nanos: 42 };
        assert_eq!(constant.sample(&mut rng), 42);
        let uniform = LatencyModel::Uniform {
            min_nanos: 10,
            max_nanos: 20,
        };
        for _ in 0..100 {
            let draw = uniform.sample(&mut rng);
            assert!((10..=20).contains(&draw));
        }
        // Degenerate range falls back to the minimum.
        let tight = LatencyModel::Uniform {
            min_nanos: 7,
            max_nanos: 7,
        };
        assert_eq!(tight.sample(&mut rng), 7);
    }

    #[test]
    fn network_round_cost_reflects_payload() {
        let mut rng = crate::engine::stream_rng(4, 0);
        let network = NetworkModel {
            latency: LatencyModel::Constant { nanos: 100 },
            nanos_per_byte: 1.0,
        };
        // 2 latencies + 2 × (8·d bytes × 1 ns/byte).
        assert_eq!(network.round_nanos(3, 10, &mut rng), 200 + 2 * 80);
    }
}
