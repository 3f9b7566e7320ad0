//! The in-process round engine — one implementation of the paper's protocol
//! under every execution strategy.
//!
//! Each round is one pass through the pipeline
//!
//! ```text
//! broadcast → propose → attack → aggregate → step → record
//! ```
//!
//! * **broadcast** — the server publishes `x_t` (in-process: the parameter
//!   borrow handed to the workers);
//! * **propose** — every honest worker estimates a gradient at `x_t`;
//! * **attack** — the omniscient adversary observes the round and forges the
//!   `f` Byzantine proposals;
//! * **aggregate** — the server applies the choice function `F` through a
//!   reused [`AggregationContext`] (zero steady-state heap allocations on
//!   the aggregation path for the barrier strategies);
//! * **step** — `x_{t+1} = x_t − γ_t · F(…)`;
//! * **record** — per-phase wall-clock timings and convergence metrics go
//!   into a [`RoundRecord`].
//!
//! The pipeline is parameterized by an [`ExecutionStrategy`]:
//!
//! * [`ExecutionStrategy::Sequential`] — the reference barrier engine;
//! * [`ExecutionStrategy::Threaded`] — honest gradients fan out over the
//!   `rayon` pool and a simulated [`NetworkModel`] charges the synchronous
//!   barrier (slowest worker) to the metrics;
//! * [`ExecutionStrategy::AsyncQuorum`] — the asynchronous-leaning server of
//!   the paper's Byzantine model: each round aggregates the fastest
//!   `quorum ≥ n − f` arrivals under the simulated network, carries the
//!   stragglers into later rounds up to a staleness bound, and honours the
//!   adversary's [`AttackTiming`] (straggle, respond-last). The selection
//!   and carry-over rules are the [`Quorum`] machine's, shared with
//!   `krum-server`. The aggregation rule must be built for `quorum`
//!   proposals — Krum's `2f + 2 < n` precondition is re-validated against
//!   the quorum size, not `n`.
//!
//! Because every random stream derives from the master seed, every strategy
//! is **bit-reproducible**, and the two barrier strategies follow identical
//! parameter trajectories. `AsyncQuorum` with `quorum = n` selects every
//! proposal every round, so it reproduces the Sequential trajectory exactly
//! (for any latency model — the network then only changes timing columns).

use std::sync::Arc;
use std::time::Instant;

use krum_attacks::{Attack, AttackContext, AttackTiming, RoundFeedback};
use krum_compress::GradientCodec;
use krum_core::{Aggregator, ExecutionPolicy};
use krum_metrics::{RoundRecord, TrainingHistory};
use krum_models::GradientEstimator;
use krum_tensor::Vector;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::config::{ClusterSpec, TrainingConfig};
use crate::error::TrainError;
use crate::network::NetworkModel;
use crate::quorum::{Proposal, Quorum};
use crate::round_core::{AccuracyProbe, RoundCore};

/// Derives an independent RNG stream from the master seed.
///
/// Every source of randomness in a run — each honest worker, the adversary,
/// the simulated network — is one stream of this family, so in-process and
/// networked executions of the same scenario can consume identical draws:
/// worker `w` uses `stream_rng(seed, w)`, the adversary uses
/// [`ATTACK_STREAM`]. Public so `krum-server`'s remote workers reproduce the
/// in-process trajectories exactly.
pub fn stream_rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// RNG stream index reserved for the adversary (see [`stream_rng`]).
pub const ATTACK_STREAM: u64 = u64::MAX - 1;
/// RNG stream index reserved for the simulated network.
pub(crate) const NETWORK_STREAM: u64 = u64::MAX - 2;

/// How the round pipeline executes one round.
///
/// The barrier strategies (`Sequential`, `Threaded`) affect wall-clock
/// behaviour only and share one parameter trajectory per seed.
/// `AsyncQuorum` changes *which proposals each round aggregates* — its
/// trajectory is still a deterministic function of
/// [`TrainingConfig::seed`], and coincides with the barrier trajectory when
/// `quorum = n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionStrategy {
    /// Honest workers run one after the other on the server thread — the
    /// reference engine.
    Sequential,
    /// Honest worker gradients are computed in parallel on the `rayon` pool
    /// and the simulated [`NetworkModel`] charges per-round communication
    /// time to the metrics (the cost-of-resilience experiments, E8).
    Threaded {
        /// The simulated network charged to each round's timings.
        network: NetworkModel,
    },
    /// Partial-quorum rounds: the server aggregates the fastest `quorum`
    /// proposals under the simulated network and carries the stragglers
    /// into later rounds with a staleness bound, through the shared
    /// [`Quorum`](crate::Quorum) machine. Timing-aware adversaries
    /// ([`AttackTiming`]) straggle deliberately or wait to observe the
    /// closing quorum before responding.
    ///
    /// Arrived-but-unaggregated proposals are consumed oldest-first, with at
    /// most **one proposal per worker per quorum** (the paper's model: each
    /// worker contributes one vector per aggregation — this is what caps
    /// the Byzantine share of a quorum at `f`). With every worker proposing
    /// each round and only `quorum < n` consumed, the surplus forms a stale
    /// backlog bounded by `max_staleness` — the steady-state cost of a
    /// partial quorum is *staleness*, and the
    /// `stale_in_quorum`/`dropped_stale` columns of
    /// [`RoundRecord`](krum_metrics::RoundRecord) make it visible.
    AsyncQuorum {
        /// How many proposals close a round (`n − f ≤ quorum ≤ n`). The
        /// aggregation rule must be configured for this many proposals.
        quorum: usize,
        /// Maximum age (in rounds) a straggler proposal may reach and still
        /// be aggregated; older in-flight proposals are dropped. `0` drops
        /// every straggler at the end of its round.
        max_staleness: usize,
        /// The simulated network deciding per-worker arrival order and the
        /// quorum's network charge.
        network: NetworkModel,
        /// Stale-gradient mode: the server keeps the **latest** proposal of
        /// every worker and aggregates all `n` of them each round; `quorum`
        /// becomes the number of *fresh refreshes* per round (`1 ≤ quorum ≤
        /// n`, no `n − f` floor) and `max_staleness` the forced-refresh
        /// bound (a table entry older than it must be refreshed before the
        /// round closes). The aggregation rule is built for `n`, and
        /// because only `quorum` of the `n` rows change per round, the
        /// incremental Gram cache recomputes only those rows — the
        /// steady-state cost drops from `n(n−1)/2` to `≈ q·n` dot products.
        reuse_stale: bool,
    },
}

impl ExecutionStrategy {
    /// Whether honest-gradient computation fans out over the thread pool.
    fn parallel_workers(&self) -> bool {
        matches!(self, Self::Threaded { .. })
    }
}

impl std::fmt::Display for ExecutionStrategy {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sequential => out.write_str("sequential"),
            Self::Threaded { network } => write!(out, "threaded({network})"),
            Self::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale,
            } => {
                write!(
                    out,
                    "async-quorum(q={quorum}, staleness<={max_staleness}, {network}"
                )?;
                if *reuse_stale {
                    out.write_str(", reuse")?;
                }
                out.write_str(")")
            }
        }
    }
}

/// The omniscient adversary of one engine: the attack, its display name
/// and its RNG stream.
struct Adversary {
    attack: Box<dyn Attack>,
    name: String,
    rng: ChaCha8Rng,
}

impl Adversary {
    /// Forges the `f` Byzantine proposals, enforces the attack contract
    /// (count and dimensions) and quantizes them like every proposal that
    /// crosses the wire (NaN/∞ payloads survive — the codecs escape
    /// non-finite blocks — so poisoning attacks stay faithful). `observed`
    /// is what the adversary has seen this round: every fresh honest
    /// proposal, or the quorum so far for a last-to-respond adversary.
    fn forge(
        &mut self,
        core: &RoundCore,
        observed: &[Vector],
        params: &Vector,
        true_gradient: Option<&Vector>,
        round: usize,
    ) -> Result<Vec<Vector>, TrainError> {
        let cluster = core.cluster();
        let byzantine = cluster.byzantine();
        let ctx = AttackContext {
            honest_proposals: observed,
            current_params: params,
            true_gradient,
            byzantine_count: byzantine,
            total_workers: cluster.workers(),
            round,
            aggregator_name: core.aggregator_name(),
        };
        let mut forged = self.attack.forge(&ctx, &mut self.rng)?;
        let contract = |message: String| TrainError::AttackContract {
            attack: self.name.clone(),
            message,
        };
        if forged.len() != byzantine {
            return Err(contract(format!(
                "returned {} proposals, expected {byzantine}",
                forged.len()
            )));
        }
        if let Some(proposal) = forged.iter().find(|p| p.dim() != core.dim()) {
            return Err(contract(format!(
                "returned a proposal of dimension {}, expected {}",
                proposal.dim(),
                core.dim()
            )));
        }
        if let Some(codec) = core.compression() {
            transform_vectors(&**codec, &mut forged, params.as_slice());
        }
        Ok(forged)
    }

    /// Hands a stateful attack the [`RoundFeedback`] of the round just
    /// closed. Stateless attacks pay no feedback cost (no clone, no observe
    /// call), so their trajectories are untouched.
    fn feed(&mut self, record: &RoundRecord, aggregate: &Vector, workers: &[usize]) {
        if self.attack.stateful() {
            self.attack.observe(&RoundFeedback {
                round: record.round,
                aggregate: aggregate.clone(),
                learning_rate: record.learning_rate,
                selected_worker: record.selected_worker,
                selected_byzantine: record.selected_byzantine,
                quorum_workers: workers.to_vec(),
            });
        }
    }
}

/// Applies the codec's canonical quantize → dequantize transform to each
/// vector in place (`reference` is the round's broadcast params, used by
/// delta codecs). This is the in-process twin of an encode on one socket
/// and a decode on the other: the engine aggregates exactly the vectors a
/// remote server would reconstruct off the wire.
fn transform_vectors(codec: &dyn GradientCodec, vectors: &mut [Vector], reference: &[f64]) {
    for vector in vectors {
        codec.transform(vector.as_mut_slice(), reference);
    }
}

/// The in-process round engine: every [`ExecutionStrategy`] runs through
/// it, and its async strategy drives the same [`Quorum`] machine as
/// `krum-server`'s job loop.
///
/// Holds the cluster state (aggregator, attack, worker estimators, RNG
/// streams) and executes one round at a time through the
/// broadcast → propose → attack → aggregate → step → record pipeline. Built
/// perf-first: the proposal buffer and the [`AggregationContext`] are
/// allocated once and reused across rounds, and worker RNGs are independent
/// streams derived from the master seed so every execution strategy follows
/// a reproducible trajectory.
pub struct RoundEngine {
    cluster: ClusterSpec,
    /// The server half of the pipeline (aggregate → step → record), shared
    /// with the networked execution world (`krum-server`).
    core: RoundCore,
    adversary: Adversary,
    /// One estimator per honest worker.
    estimators: Vec<Box<dyn GradientEstimator>>,
    /// Dedicated metrics/adversary probe; when absent, `estimators[0]`
    /// serves the probe queries.
    probe: Option<Box<dyn GradientEstimator>>,
    strategy: ExecutionStrategy,
    dim: usize,
    /// One independent RNG per honest worker.
    worker_rngs: Vec<ChaCha8Rng>,
    network_rng: ChaCha8Rng,
    /// Per-round proposal scratch (`n` slots), reused across rounds.
    proposals: Vec<Vector>,
    /// The partial-quorum machine of the async strategy (idle under the
    /// other strategies).
    quorum: Quorum,
    /// Latest-proposal table for the reuse-stale async mode: one slot per
    /// worker, refreshed in place (`assign`), aggregated at arity `n` every
    /// round. Empty until the first reuse round.
    latest: Vec<Vector>,
    /// Round each `latest` entry was issued at.
    latest_issued: Vec<usize>,
    /// Per-worker refresh counters, handed to the aggregation workspace so
    /// the incremental Gram cache knows which rows changed.
    generations: Vec<u64>,
    /// Whether reuse-stale rounds arm the incremental Gram cache (on by
    /// default; benches disable it to measure the full-recompute baseline).
    gram_cache: bool,
    /// Identity worker map `0..n` — the proposal layout of the barrier and
    /// reuse-stale paths, where slot `i` *is* worker `i`.
    identity_ids: Vec<usize>,
}

impl RoundEngine {
    /// Builds an engine, validating the configuration.
    ///
    /// `estimators` supplies exactly one gradient estimator per honest
    /// worker; `probe`, when given, serves the metrics/adversary queries
    /// (loss, true gradient) so the worker estimators stay exclusive to the
    /// propose phase (otherwise `estimators[0]` is shared).
    ///
    /// Under [`ExecutionStrategy::AsyncQuorum`] the aggregator must be
    /// configured for `quorum` proposals (not `n`): the engine feeds it
    /// exactly `quorum` vectors per round, and rules with a worker-count
    /// precondition (Krum's `2f + 2 < n`) must hold it against the quorum
    /// size. The scenario layer does this automatically.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] when the configuration is
    /// invalid, the estimator count/dimensions are inconsistent, the quorum
    /// bounds `n − f ≤ quorum ≤ n` are violated, or the network model is
    /// invalid.
    pub fn new(
        cluster: ClusterSpec,
        aggregator: Box<dyn Aggregator>,
        attack: Box<dyn Attack>,
        estimators: Vec<Box<dyn GradientEstimator>>,
        probe: Option<Box<dyn GradientEstimator>>,
        config: TrainingConfig,
        strategy: ExecutionStrategy,
    ) -> Result<Self, TrainError> {
        config.validate()?;
        match &strategy {
            ExecutionStrategy::Sequential => {}
            ExecutionStrategy::Threaded { network } => network.validate()?,
            ExecutionStrategy::AsyncQuorum {
                quorum,
                network,
                reuse_stale,
                ..
            } => {
                network.validate()?;
                let n = cluster.workers();
                if *reuse_stale {
                    // Reuse mode aggregates the full latest-proposal table
                    // every round; `quorum` only paces refreshes, so any
                    // positive rate up to full refresh is meaningful.
                    if *quorum < 1 || *quorum > n {
                        return Err(TrainError::config(format!(
                            "reuse-stale quorum must satisfy 1 <= quorum <= n, got quorum = \
                             {quorum} with n = {n}"
                        )));
                    }
                } else {
                    let min = cluster.honest();
                    if *quorum < min || *quorum > n {
                        return Err(TrainError::config(format!(
                            "async quorum must satisfy n - f <= quorum <= n, got quorum = \
                             {quorum} with n = {n}, f = {}",
                            cluster.byzantine()
                        )));
                    }
                }
            }
        }
        if estimators.len() != cluster.honest() {
            return Err(TrainError::config(format!(
                "expected one estimator per honest worker ({}), got {}",
                cluster.honest(),
                estimators.len()
            )));
        }
        let dim = estimators
            .first()
            .map(|e| e.dim())
            .ok_or_else(|| TrainError::config("at least one honest worker is required"))?;
        if let Some(worker) = estimators.iter().position(|e| e.dim() != dim) {
            return Err(TrainError::config(format!(
                "estimator {worker} has dimension {}, expected {dim}",
                estimators[worker].dim()
            )));
        }
        if let Some(p) = &probe {
            if p.dim() != dim {
                return Err(TrainError::config(format!(
                    "probe estimator has dimension {}, expected {dim}",
                    p.dim()
                )));
            }
        }
        if let Some(optimum) = &config.known_optimum {
            if optimum.dim() != dim {
                return Err(TrainError::config(format!(
                    "known optimum has dimension {}, expected {dim}",
                    optimum.dim()
                )));
            }
        }
        let seed = config.seed;
        let n = cluster.workers();
        let worker_rngs = (0..cluster.honest())
            .map(|w| stream_rng(seed, w as u64))
            .collect();
        let quorum = match strategy {
            ExecutionStrategy::AsyncQuorum {
                quorum,
                max_staleness,
                ..
            } => Quorum::new(n, quorum, max_staleness),
            _ => Quorum::new(n, n, 0),
        };
        Ok(Self {
            cluster,
            core: RoundCore::new(cluster, aggregator, config, dim)?,
            adversary: Adversary {
                name: attack.name(),
                attack,
                rng: stream_rng(seed, ATTACK_STREAM),
            },
            estimators,
            probe,
            network_rng: stream_rng(seed, NETWORK_STREAM),
            strategy,
            dim,
            worker_rngs,
            proposals: vec![Vector::zeros(dim); n],
            quorum,
            latest: Vec::new(),
            latest_issued: Vec::new(),
            generations: Vec::new(),
            gram_cache: true,
            identity_ids: (0..n).collect(),
        })
    }

    /// Attaches a held-out accuracy probe, called on evaluation rounds with
    /// the current parameters.
    pub fn set_accuracy_probe(&mut self, probe: AccuracyProbe) {
        self.core.set_accuracy_probe(probe);
    }

    /// Attaches a gradient codec: every proposal is passed through the
    /// codec's canonical quantize → dequantize transform **before** the
    /// adversary observes it and before aggregation, and the parameter
    /// vector is re-projected after every step — the same pipeline a
    /// compressed wire imposes, so an in-process run of a compressed
    /// scenario is bit-identical to serving it over sockets.
    ///
    /// The caller owns transforming the *initial* parameters once (the
    /// scenario layer does this), mirroring the first broadcast's
    /// encode/decode.
    pub fn set_compression(&mut self, codec: Arc<dyn GradientCodec>) {
        self.core.set_compression(codec);
    }

    /// Overrides the aggregation workspace's execution policy (e.g. force
    /// [`ExecutionPolicy::Sequential`] for allocation-free profiling).
    pub fn set_aggregation_policy(&mut self, policy: ExecutionPolicy) {
        self.core.set_aggregation_policy(policy);
    }

    /// Enables or disables the incremental Gram cache for reuse-stale async
    /// rounds (on by default). Trajectories are bit-identical either way —
    /// the cache only changes how much of the pairwise-distance matrix is
    /// recomputed per round.
    pub fn set_gram_cache(&mut self, enabled: bool) {
        self.gram_cache = enabled;
        if !enabled {
            self.core.invalidate_gram_cache();
        }
    }

    /// The cluster this engine drives.
    pub fn cluster(&self) -> ClusterSpec {
        self.cluster
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The execution strategy of this engine.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        self.core.config()
    }

    fn probe_estimator(&self) -> &dyn GradientEstimator {
        self.probe
            .as_deref()
            .unwrap_or_else(|| &*self.estimators[0])
    }

    /// Runs the configured number of rounds from `start`, returning the
    /// final parameters and the per-round history. The last round is always
    /// an evaluation round (see [`TrainingConfig::eval_every`]), so the
    /// final recorded loss/accuracy always describes the returned model.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when a worker, the attack or the aggregator
    /// fails mid-run, or when a poisoned round produces a NaN update
    /// ([`TrainError::PoisonedRound`]).
    pub fn run(&mut self, start: Vector) -> Result<(Vector, TrainingHistory), TrainError> {
        let mut params = start;
        let mut history = self.new_history();
        let rounds = self.core.config().rounds;
        for round in 0..rounds {
            let record = self.step(&mut params, round)?;
            history.push(record);
        }
        Ok((params, history))
    }

    /// Runs a single round from the given parameters (without mutating
    /// them), returning the updated parameters and the round record.
    ///
    /// # Errors
    ///
    /// Same as [`RoundEngine::run`].
    pub fn run_round(
        &mut self,
        params: &Vector,
        round: usize,
    ) -> Result<(Vector, RoundRecord), TrainError> {
        let mut next = params.clone();
        let record = self.step(&mut next, round)?;
        Ok((next, record))
    }

    /// Executes one pass of the round pipeline, applying the update to
    /// `params` in place. Returns the round's metrics record with per-phase
    /// timings (and, under the async strategy, the quorum/staleness stats).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when a worker, the attack or the aggregator
    /// fails, or when the aggregate update is NaN (a poisoned round).
    pub fn step(&mut self, params: &mut Vector, round: usize) -> Result<RoundRecord, TrainError> {
        match self.strategy {
            ExecutionStrategy::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale,
            } => {
                if reuse_stale {
                    self.step_reuse(params, round, quorum, max_staleness, network)
                } else {
                    self.step_async(params, round, network)
                }
            }
            _ => self.step_barrier(params, round),
        }
    }

    /// Phases 1+2, broadcast + propose: the server publishes `x_t` (the
    /// shared borrow) and every honest worker estimates a gradient at it
    /// into `proposals[..honest]`, consuming its own RNG stream in the same
    /// order under every strategy. Quantize-before-aggregate: under a codec
    /// the adversary observes (and the server aggregates) the dequantized
    /// proposals, exactly as a remote worker's encode → server decode would
    /// produce. Returns the phase's wall-clock nanos.
    fn propose(&mut self, params: &Vector) -> Result<u128, TrainError> {
        let start = Instant::now();
        let honest = self.cluster.honest();
        if self.strategy.parallel_workers() && honest > 1 {
            let outputs: Result<Vec<Vector>, _> = self.estimators[..honest]
                .iter()
                .zip(self.worker_rngs.iter_mut())
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|(estimator, rng)| estimator.estimate(params, rng))
                .collect();
            for (slot, proposal) in self.proposals.iter_mut().zip(outputs?) {
                *slot = proposal;
            }
        } else {
            for w in 0..honest {
                self.proposals[w] =
                    self.estimators[w].estimate(params, &mut self.worker_rngs[w])?;
            }
        }
        if let Some(codec) = self.core.compression() {
            transform_vectors(&**codec, &mut self.proposals[..honest], params.as_slice());
        }
        Ok(start.elapsed().as_nanos())
    }

    /// One full-barrier round (sequential or threaded).
    fn step_barrier(
        &mut self,
        params: &mut Vector,
        round: usize,
    ) -> Result<RoundRecord, TrainError> {
        let round_start = Instant::now();
        let honest = self.cluster.honest();
        let propose_nanos = self.propose(params)?;

        // Phase 3: attack. The omniscient adversary observes everything,
        // including the true gradient when the workload exposes one.
        let attack_start = Instant::now();
        let true_gradient = self.probe_estimator().true_gradient(params);
        let forged = self.adversary.forge(
            &self.core,
            &self.proposals[..honest],
            params,
            true_gradient.as_ref(),
            round,
        )?;
        for (slot, proposal) in self.proposals[honest..].iter_mut().zip(forged) {
            *slot = proposal;
        }
        let attack_nanos = attack_start.elapsed().as_nanos();

        // Phases 4–6: aggregate → step → record through the shared core —
        // the paper's O(n²·d) server-side hot path, through the reused
        // workspace (no steady-state allocations).
        let probe = self.probe.as_deref().unwrap_or(&*self.estimators[0]);
        let mut record = self.core.close_round(
            params,
            round,
            &self.proposals,
            &self.identity_ids,
            true_gradient,
            Some(probe),
        )?;
        record.propose_nanos = propose_nanos;
        record.attack_nanos = attack_nanos;
        record.round_nanos = round_start.elapsed().as_nanos();
        self.adversary
            .feed(&record, self.core.last_aggregate(), &self.identity_ids);

        // The simulated network (threaded strategy) charges the synchronous
        // barrier's communication time on top of the measured wall clock.
        if let ExecutionStrategy::Threaded { network } = self.strategy {
            let simulated =
                network.round_nanos(self.cluster.workers(), self.dim, &mut self.network_rng);
            record.network_nanos = simulated;
            record.round_nanos += simulated;
        }
        Ok(record)
    }

    /// One partial-quorum round: fresh arrivals race under the simulated
    /// network into the [`Quorum`] machine, which closes on the fastest
    /// `quorum` of them after the carried stragglers, honouring the
    /// adversary's timing.
    fn step_async(
        &mut self,
        params: &mut Vector,
        round: usize,
        network: NetworkModel,
    ) -> Result<RoundRecord, TrainError> {
        let round_start = Instant::now();
        let honest = self.cluster.honest();
        let propose_nanos = self.propose(params)?;

        // Phase 3: attack — timing-aware. Racing and straggling adversaries
        // forge now, observing every fresh honest proposal as in the
        // barrier strategies; a last-to-respond adversary holds its `f`
        // slots back and forges once the rest of the quorum is known.
        let attack_start = Instant::now();
        let true_gradient = self.probe_estimator().true_gradient(params);
        let timing = self.adversary.attack.timing();
        let last = timing == AttackTiming::LastToRespond;
        let reserved = if last { self.cluster.byzantine() } else { 0 };
        self.quorum.open(round, reserved);
        if !last {
            let forged = self.adversary.forge(
                &self.core,
                &self.proposals[..honest],
                params,
                true_gradient.as_ref(),
                round,
            )?;
            for (slot, proposal) in self.proposals[honest..].iter_mut().zip(forged) {
                *slot = proposal;
            }
        }

        // Fresh arrivals race under the simulated network: honest workers
        // draw first, in worker order; a straggling Byzantine worker
        // arrives right after the slowest honest proposal, so it only
        // lands when the quorum cannot close without it. The vectors move
        // out of the scratch buffer (it is refilled next round).
        let mut draw = || network.worker_round_trip_nanos(self.dim, &mut self.network_rng);
        let mut arrivals: Vec<(u128, usize)> = (0..honest).map(|w| (draw(), w)).collect();
        let slowest = arrivals.iter().map(|&(at, _)| at).max().unwrap_or(0);
        for w in honest..self.cluster.workers() {
            let arrival = match timing {
                AttackTiming::Honest => draw(),
                AttackTiming::Straggle => slowest,
                AttackTiming::LastToRespond => break,
            };
            arrivals.push((arrival, w));
        }
        arrivals.sort_unstable();
        for (arrival, worker) in arrivals {
            self.quorum.offer(Proposal {
                worker,
                issued_round: round,
                arrival,
                vector: std::mem::take(&mut self.proposals[worker]),
            });
        }
        if last {
            // The Byzantine workers respond with full knowledge of the set
            // about to be aggregated, timed at its closing arrival — the
            // server never waits for them.
            let forged = self.adversary.forge(
                &self.core,
                self.quorum.vectors(),
                params,
                true_gradient.as_ref(),
                round,
            )?;
            self.quorum
                .fill_reserved(
                    forged
                        .into_iter()
                        .zip(honest..)
                        .map(|(vector, worker)| Proposal {
                            worker,
                            issued_round: round,
                            arrival: 0,
                            vector,
                        }),
                );
        }
        let attack_nanos = attack_start.elapsed().as_nanos();
        let stats = self.quorum.close();

        // Phases 4–6 over the quorum. The rule was built for `quorum`
        // proposals, so its preconditions (Krum's `2f + 2 < n`) hold
        // against the quorum size.
        let probe = self.probe.as_deref().unwrap_or(&*self.estimators[0]);
        let mut record = self.core.close_round(
            params,
            round,
            self.quorum.vectors(),
            self.quorum.workers(),
            true_gradient,
            Some(probe),
        )?;
        record.propose_nanos = propose_nanos;
        record.attack_nanos = attack_nanos;
        stats.record(&mut record);
        record.network_nanos = stats.cutoff;
        record.round_nanos = round_start.elapsed().as_nanos() + stats.cutoff;
        self.adversary
            .feed(&record, self.core.last_aggregate(), self.quorum.workers());
        Ok(record)
    }

    /// One reuse-stale round: the server aggregates the full latest-proposal
    /// table (arity `n`) after refreshing `quorum` entries — the
    /// stale-gradient parameter-server model, where workers overwrite their
    /// slot whenever they finish and the server never waits for more than
    /// the refresh pace plus the staleness bound.
    ///
    /// Refresh selection per round:
    ///
    /// 1. every entry whose age reached `max_staleness` **must** refresh
    ///    (round 0 forces the whole table — there is nothing to reuse);
    /// 2. remaining capacity up to `quorum` goes to the earliest fresh
    ///    arrivals under the simulated network, honouring the adversary's
    ///    timing: straggling Byzantine workers only land when forced (at
    ///    the slowest honest arrival), last-to-respond ones always land,
    ///    forging after observing the honest refreshes.
    ///
    /// Fresh proposals that do not land are discarded (the worker will
    /// recompute at a newer `x_t` anyway) and show up in `dropped_stale`;
    /// `pending_carryover` is always 0 — staleness lives in the table
    /// itself, visible through `stale_in_quorum`.
    fn step_reuse(
        &mut self,
        params: &mut Vector,
        round: usize,
        quorum: usize,
        max_staleness: usize,
        network: NetworkModel,
    ) -> Result<RoundRecord, TrainError> {
        let round_start = Instant::now();
        let honest = self.cluster.honest();
        let n = self.cluster.workers();
        // Table entries hold dequantized vectors, refreshed against the
        // params of their refresh round.
        let propose_nanos = self.propose(params)?;

        // First reuse round: size the table (the only allocating round).
        let cold_start = self.latest.len() != n;
        if cold_start {
            self.latest = vec![Vector::zeros(self.dim); n];
            self.latest_issued = vec![0; n];
            self.generations = vec![0; n];
        }
        let forced = |w: usize| cold_start || round - self.latest_issued[w] >= max_staleness;

        // Phase 3: attack — timing-aware, as in `step_async`.
        let attack_start = Instant::now();
        let true_gradient = self.probe_estimator().true_gradient(params);
        let timing = self.adversary.attack.timing();
        let early_forged = match timing {
            AttackTiming::Honest | AttackTiming::Straggle => Some(self.adversary.forge(
                &self.core,
                &self.proposals[..honest],
                params,
                true_gradient.as_ref(),
                round,
            )?),
            AttackTiming::LastToRespond => None,
        };

        // Arrival race. Honest workers always draw (keeping the network
        // stream aligned across timings); Byzantine arrivals depend on the
        // adversary's timing.
        let mut arrival = vec![u128::MAX; n];
        let mut max_honest_arrival: u128 = 0;
        for slot in arrival.iter_mut().take(honest) {
            *slot = network.worker_round_trip_nanos(self.dim, &mut self.network_rng);
            max_honest_arrival = max_honest_arrival.max(*slot);
        }
        match timing {
            AttackTiming::Honest => {
                for slot in arrival.iter_mut().skip(honest) {
                    *slot = network.worker_round_trip_nanos(self.dim, &mut self.network_rng);
                }
            }
            // Deliberately after every honest proposal; `u128::MAX` keeps
            // them out of the race, `effective` charges the honest cutoff
            // when the staleness bound forces them in.
            AttackTiming::Straggle | AttackTiming::LastToRespond => {}
        }

        // Refresh selection: forced entries first, then earliest arrivals
        // up to `quorum`. A last-to-respond adversary always refreshes (it
        // is never the bottleneck), so its slots are pre-charged.
        let mut refresh = vec![false; n];
        let mut refreshed = 0usize;
        for (w, slot) in refresh.iter_mut().enumerate() {
            let always = timing == AttackTiming::LastToRespond && w >= honest;
            if forced(w) || always {
                *slot = true;
                refreshed += 1;
            }
        }
        if refreshed < quorum {
            let mut race: Vec<(u128, usize)> = (0..n)
                .filter(|&w| !refresh[w])
                .filter(|&w| timing != AttackTiming::LastToRespond || w < honest)
                .map(|w| (arrival[w], w))
                .collect();
            race.sort_unstable();
            for &(_, w) in race.iter().take(quorum - refreshed) {
                refresh[w] = true;
                refreshed += 1;
            }
        }

        // Land the honest refreshes (moving out of the scratch buffer) and
        // compute the round's network charge: the slowest landed arrival,
        // with straggling Byzantine workers pulled in at the honest cutoff.
        let mut cutoff_nanos: u128 = 0;
        let mut dropped_stale = 0usize;
        for w in 0..honest {
            if refresh[w] {
                self.latest[w].assign(self.proposals[w].as_slice());
                self.latest_issued[w] = round;
                self.generations[w] = self.generations[w].wrapping_add(1);
                cutoff_nanos = cutoff_nanos.max(arrival[w]);
            } else {
                // The fresh gradient goes unused: by the next round the
                // worker re-estimates at the new parameters.
                dropped_stale += 1;
            }
        }
        if let Some(forged) = early_forged {
            for (b, vector) in forged.into_iter().enumerate() {
                let w = honest + b;
                if refresh[w] {
                    self.latest[w].assign(vector.as_slice());
                    self.latest_issued[w] = round;
                    self.generations[w] = self.generations[w].wrapping_add(1);
                    cutoff_nanos = cutoff_nanos.max(match timing {
                        AttackTiming::Straggle => max_honest_arrival,
                        _ => arrival[w],
                    });
                } else {
                    dropped_stale += 1;
                }
            }
        } else {
            // Last-to-respond: forge now, observing exactly the honest
            // entries that landed this round, timed at the closing arrival.
            let observed: Vec<Vector> = (0..honest)
                .filter(|&w| refresh[w])
                .map(|w| self.latest[w].clone())
                .collect();
            let forged = self.adversary.forge(
                &self.core,
                &observed,
                params,
                true_gradient.as_ref(),
                round,
            )?;
            for (b, vector) in forged.into_iter().enumerate() {
                let w = honest + b;
                if refresh[w] {
                    self.latest[w].assign(vector.as_slice());
                    self.latest_issued[w] = round;
                    self.generations[w] = self.generations[w].wrapping_add(1);
                }
            }
        }
        let attack_nanos = attack_start.elapsed().as_nanos();

        // Table staleness stats (the table *is* the quorum here).
        let stale_in_quorum = self
            .latest_issued
            .iter()
            .filter(|&&issued| issued < round)
            .count();
        let max_staleness_in_quorum = self
            .latest_issued
            .iter()
            .map(|&issued| round - issued)
            .max()
            .unwrap_or(0);

        // Phases 4–6: aggregate the full table at arity `n`. Arming the
        // per-worker generations lets the workspace recompute only the
        // refreshed Gram rows — bit-identical to a full recompute.
        if self.gram_cache {
            self.core.set_generations(&self.generations);
        }
        let probe = self.probe.as_deref().unwrap_or(&*self.estimators[0]);
        let mut record = self.core.close_round(
            params,
            round,
            &self.latest,
            &self.identity_ids,
            true_gradient,
            Some(probe),
        )?;
        record.propose_nanos = propose_nanos;
        record.attack_nanos = attack_nanos;
        record.round_nanos = round_start.elapsed().as_nanos();
        record.quorum_size = Some(refreshed);
        record.stale_in_quorum = Some(stale_in_quorum);
        record.max_staleness_in_quorum = Some(max_staleness_in_quorum);
        record.dropped_stale = Some(dropped_stale);
        record.pending_carryover = Some(0);
        record.network_nanos = cutoff_nanos;
        record.round_nanos += cutoff_nanos;
        self.adversary
            .feed(&record, self.core.last_aggregate(), &self.identity_ids);
        Ok(record)
    }

    /// Metadata-filled empty history for a run of this engine.
    pub fn new_history(&self) -> TrainingHistory {
        TrainingHistory::new(
            format!(
                "{} vs {} (n={}, f={}, d={})",
                self.core.aggregator_name(),
                self.adversary.name,
                self.cluster.workers(),
                self.cluster.byzantine(),
                self.dim
            ),
            self.core.aggregator_name().to_string(),
            self.adversary.name.clone(),
            self.cluster.workers(),
            self.cluster.byzantine(),
        )
    }
}
