//! The worker side of the wire: honest estimators and the adversary.
//!
//! A [`WorkerClient`] connects, handshakes, and serves whatever role the
//! server assigns:
//!
//! * **honest worker `w < n − f`** — rebuilds the scenario's workload from
//!   the spec JSON and seed in the `JobAssign` frame, keeps worker `w`'s
//!   estimator, and answers every `Broadcast` with one gradient estimate
//!   drawn from the same RNG stream (`stream_rng(seed, w)`) the in-process
//!   engines use — which is why loopback trajectories are bit-identical to
//!   in-process ones;
//! * **adversary (`w = n − f`, present when `f > 0`)** — one connection
//!   controls all `f` Byzantine workers, mirroring the paper's single
//!   omniscient adversary. Its `Broadcast` frames carry the honest
//!   proposals of the round (the observation relay); it rebuilds the
//!   registered [`AttackSpec`](krum_attacks::AttackSpec) from the scenario,
//!   forges with the in-process adversary's RNG stream
//!   (`stream_rng(seed, ATTACK_STREAM)`), and proposes for every Byzantine
//!   slot.
//!
//! ## Crash resilience
//!
//! Workers built with [`WorkerClient::with_retries`] survive a severed
//! connection: the session sleeps a bounded, seed-jittered exponential
//! backoff, reconnects, and handshakes with a [`Frame::Rejoin`] naming its
//! old job and slot. Determinism survives the churn two ways:
//!
//! * **answered-frame cache** — the encoded frames answering the latest
//!   broadcast are cached before the first write, so a re-broadcast after
//!   a rejoin resends the very same bytes (the RNG is *not* re-consumed);
//! * **fast-forward** — a worker that skipped rounds (the server proceeded
//!   at quorum while it was gone, or it restarted from scratch) replays the
//!   missed estimator/attack calls against dummy inputs before answering.
//!   Estimator and attack RNG consumption is input-independent, so the
//!   replay restores the exact RNG cursor an uninterrupted worker would
//!   have.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use krum_attacks::{Attack, AttackContext, RoundFeedback};
use krum_compress::GradientCodec;
use krum_dist::{stream_rng, ATTACK_STREAM};
use krum_models::GradientEstimator;
use krum_scenario::ScenarioSpec;
use krum_tensor::Vector;
use krum_wire::{read_frame, read_frame_into, write_encoded, write_frame, Frame, PROTOCOL_VERSION};
use rand_chacha::ChaCha8Rng;

use crate::error::ServerError;

/// Backoff before rejoin attempt `k`: `min(50 · 2^k, 1600)` ms plus up to
/// 25 ms of deterministic per-worker jitter (see [`backoff_millis`]).
const BACKOFF_BASE_MILLIS: u64 = 50;
const BACKOFF_CAP_MILLIS: u64 = 1600;
const BACKOFF_JITTER_MILLIS: u64 = 25;

/// What a finished worker session did, for logs and tests.
#[derive(Debug)]
pub struct WorkerSummary {
    /// Job the worker served.
    pub job: u64,
    /// Assigned worker slot.
    pub worker: u32,
    /// `true` when the slot was the adversary connection.
    pub adversary: bool,
    /// Rounds the worker proposed in (fresh answers, not cache replays).
    pub rounds: u64,
    /// Times the worker lost its connection and successfully rejoined.
    pub reconnects: u64,
    /// Total bytes sent + received on the wire.
    pub wire_bytes: u64,
    /// The final model, when the server published one before shutdown.
    pub final_params: Option<Vector>,
    /// The server's shutdown reason.
    pub shutdown_reason: String,
}

/// The worker's assigned role.
enum Role {
    Honest {
        estimator: Box<dyn GradientEstimator>,
        rng: ChaCha8Rng,
    },
    Adversary {
        attack: Box<dyn Attack>,
        rng: ChaCha8Rng,
        /// Full-knowledge probe for the true gradient (the omniscient
        /// adversary of the paper knows `∇Q`).
        probe: Box<dyn GradientEstimator>,
        rule_name: String,
        byzantine: usize,
        total_workers: usize,
    },
}

/// A connected (but not yet handshaked) worker.
pub struct WorkerClient {
    stream: TcpStream,
    agent: String,
    retries: u32,
    version: u16,
}

impl WorkerClient {
    /// Connects to a serving `krum-server`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServerError> {
        let stream = TcpStream::connect(addr)?;
        // Latency-bound ping-pong traffic: disable Nagle's algorithm.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            agent: "krum-worker".into(),
            retries: 0,
            version: PROTOCOL_VERSION,
        })
    }

    /// Sets the free-form agent label sent in the handshake.
    #[must_use]
    pub fn with_agent(mut self, agent: impl Into<String>) -> Self {
        self.agent = agent.into();
        self
    }

    /// Sets how many times a severed session tries to rejoin before giving
    /// up (default `0`: fail fast, the pre-churn behaviour).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Overrides the protocol version announced in the handshake (default:
    /// the crate's [`PROTOCOL_VERSION`]). A v1 session never negotiates a
    /// codec — on a codec-bearing job it exchanges raw (already quantized)
    /// frames, exercising the server's version fallback.
    #[must_use]
    pub fn with_protocol_version(mut self, version: u16) -> Self {
        self.version = version;
        self
    }

    /// Handshakes (`Hello` → `JobAssign`) and returns the assigned session
    /// without serving it — useful when the caller wants to pin connection
    /// order or inspect the assignment first.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Rejected`] when the server refuses the
    /// connection, [`ServerError::Wire`]/[`ServerError::Io`] on transport
    /// failures, and [`ServerError::Protocol`] when the server violates
    /// the protocol.
    pub fn handshake(mut self) -> Result<WorkerSession, ServerError> {
        let mut wire_bytes: u64 = 0;
        let peer = self.stream.peer_addr()?;
        wire_bytes += write_frame(
            &mut self.stream,
            &Frame::Hello {
                version: self.version,
                agent: self.agent.clone(),
            },
        )? as u64;

        let (frame, bytes) = read_frame(&mut self.stream)?;
        wire_bytes += bytes as u64;
        let (job, worker, seed, spec_json) = match frame {
            Frame::JobAssign {
                job,
                worker,
                seed,
                spec_json,
            } => (job, worker, seed, spec_json),
            Frame::Shutdown { reason, .. } => return Err(ServerError::Rejected { reason }),
            other => {
                return Err(ServerError::protocol(format!(
                    "expected JobAssign, got {}",
                    other.name()
                )))
            }
        };

        let spec = ScenarioSpec::from_json(&spec_json)?;
        let cluster = spec.cluster;
        let n = cluster.workers();
        let honest = cluster.honest();
        let f = cluster.byzantine();
        let dim = spec.dim()?;
        let slot = worker as usize;

        // Rebuild this worker's piece of the scenario. The whole workload
        // is a deterministic function of (spec, seed), so each worker can
        // derive exactly its own estimator — or, for the adversary, the
        // probe — without any further coordination. Each worker builds the
        // *full* cluster and keeps one slot: dataset generation/sharding
        // consumes one RNG stream front to back, so a build-one-slot
        // shortcut would have to replay the same draws anyway; the thrown
        // away estimators are thin wrappers over shards, and determinism
        // is what buys the bit-identical loopback trajectories.
        let role = if slot < honest {
            let workload = spec.estimator.build(honest, seed)?;
            let estimator = workload.estimators.into_iter().nth(slot).ok_or_else(|| {
                ServerError::protocol(format!("workload has no estimator for slot {slot}"))
            })?;
            Role::Honest {
                estimator,
                rng: stream_rng(seed, u64::from(worker)),
            }
        } else if slot == honest && f > 0 {
            let workload = spec.estimator.build(honest, seed)?;
            let mut estimators = workload.estimators;
            let probe = match workload.probe {
                Some(p) => p,
                None => estimators.swap_remove(0),
            };
            let arity = spec.execution.aggregation_arity(n);
            Role::Adversary {
                attack: spec.attack.build(dim)?,
                rng: stream_rng(seed, ATTACK_STREAM),
                probe,
                rule_name: spec.rule.build(arity, f)?.name(),
                byzantine: f,
                total_workers: n,
            }
        } else {
            return Err(ServerError::protocol(format!(
                "assigned slot {slot} does not exist for n = {n}, f = {f}"
            )));
        };

        // A codec only exists when both the spec names one and this
        // session negotiated a compression-capable protocol version; a v1
        // session on a codec-bearing job exchanges raw quantized frames.
        let codec: Option<Box<dyn GradientCodec>> = if self.version >= 2 {
            spec.compression.as_ref().map(|c| c.build())
        } else {
            None
        };

        Ok(WorkerSession {
            stream: self.stream,
            peer,
            retries: self.retries,
            version: self.version,
            job,
            worker,
            seed,
            dim,
            role,
            codec,
            calls_made: 0,
            answered: None,
            rounds: 0,
            reconnects: 0,
            wire_bytes,
        })
    }

    /// Handshakes, serves the assigned role until the server shuts the
    /// session down, and returns a summary.
    ///
    /// # Errors
    ///
    /// See [`WorkerClient::handshake`] and [`WorkerSession::serve`].
    pub fn run(self) -> Result<WorkerSummary, ServerError> {
        self.handshake()?.serve()
    }
}

/// Whether a rejoin attempt resumed the session or ended it gracefully.
enum RejoinOutcome {
    Resumed,
    Ended(String),
}

/// A handshaked worker session, ready to serve rounds.
pub struct WorkerSession {
    stream: TcpStream,
    peer: SocketAddr,
    retries: u32,
    version: u16,
    job: u64,
    worker: u32,
    seed: u64,
    dim: usize,
    role: Role,
    /// The negotiated gradient codec (`None` for uncompressed jobs and v1
    /// sessions): proposals go out through `encode`, broadcasts come in
    /// through `decode`.
    codec: Option<Box<dyn GradientCodec>>,
    /// Estimator/attack calls made so far — the RNG cursor in rounds.
    calls_made: u64,
    /// The encoded frames answering the latest broadcast, cached *before*
    /// the first write so a post-rejoin re-broadcast resends the same bytes.
    answered: Option<(u64, Vec<u8>)>,
    rounds: u64,
    reconnects: u64,
    wire_bytes: u64,
}

impl WorkerSession {
    /// The worker slot the server assigned.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// The job the session is pinned to.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Serves the assigned role until the server shuts the session down
    /// (or the connection dies and every rejoin attempt fails).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Wire`]/[`ServerError::Io`] when the
    /// connection dies with no retries left, and [`ServerError::Protocol`]
    /// when the server violates the protocol.
    pub fn serve(mut self) -> Result<WorkerSummary, ServerError> {
        let mut final_params: Option<Vector> = None;
        // One frame-sized buffer for the session's lifetime.
        let mut buf = Vec::new();
        let shutdown_reason = loop {
            let handled = match read_frame_into(&mut self.stream, &mut buf) {
                Ok((frame, bytes)) => {
                    self.wire_bytes += bytes as u64;
                    match frame {
                        Frame::Aggregate { params, .. } => {
                            final_params = Some(Vector::from(params));
                            Ok(())
                        }
                        Frame::Shutdown { reason, .. } => break reason,
                        frame => self.handle(frame),
                    }
                }
                Err(e) => Err(e.into()),
            };
            // A dead transport is healed by a rejoin; anything else ends
            // the session.
            match handled {
                Ok(()) => {}
                Err(e) if is_transport(&e) => match self.rejoin(e)? {
                    RejoinOutcome::Resumed => {}
                    RejoinOutcome::Ended(reason) => break reason,
                },
                Err(e) => return Err(e),
            }
        };

        Ok(WorkerSummary {
            job: self.job,
            worker: self.worker,
            adversary: matches!(self.role, Role::Adversary { .. }),
            rounds: self.rounds,
            reconnects: self.reconnects,
            wire_bytes: self.wire_bytes,
            final_params,
            shutdown_reason,
        })
    }

    /// Acts on one mid-session frame from the server.
    fn handle(&mut self, frame: Frame) -> Result<(), ServerError> {
        match frame {
            Frame::Broadcast { job, .. } | Frame::BroadcastC { job, .. } if job != self.job => {
                Err(ServerError::protocol(format!(
                    "broadcast for foreign job {job} (serving job {})",
                    self.job
                )))
            }
            Frame::Broadcast {
                round,
                params,
                observed,
                ..
            } => self.answer_broadcast(round, params, observed),
            Frame::BroadcastC {
                round,
                params,
                observed,
                ..
            } => {
                let Some(codec) = &self.codec else {
                    return Err(ServerError::protocol(
                        "compressed broadcast on a session that negotiated no codec".to_string(),
                    ));
                };
                let params = codec.decode_params(&params, self.dim).map_err(|e| {
                    ServerError::protocol(format!("undecodable broadcast params: {e}"))
                })?;
                let observed = observed
                    .iter()
                    .map(|o| codec.decode(o, &params, self.dim))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| {
                        ServerError::protocol(format!("undecodable observation relay: {e}"))
                    })?;
                self.answer_broadcast(round, params, observed)
            }
            Frame::Ping { job: _, nonce } => {
                let pong = Frame::Pong {
                    job: self.job,
                    nonce,
                };
                self.wire_bytes += write_frame(&mut self.stream, &pong)? as u64;
                Ok(())
            }
            Frame::RoundClosed { .. } => Ok(()),
            Frame::RoundFeedback {
                job: j,
                round,
                aggregate,
                learning_rate,
                selected,
                quorum,
            } => {
                if j != self.job {
                    return Err(ServerError::protocol(format!(
                        "round-feedback for foreign job {j} (serving job {})",
                        self.job
                    )));
                }
                // The server only addresses feedback to the adversary
                // connection of a stateful attack; anyone else hearing
                // it means the server is confused about roles.
                let Role::Adversary { attack, .. } = &mut self.role else {
                    return Err(ServerError::protocol(
                        "round-feedback sent to an honest worker".to_string(),
                    ));
                };
                let feedback = RoundFeedback {
                    round: round as usize,
                    aggregate: Vector::from(aggregate),
                    learning_rate,
                    selected_worker: selected.map(|s| s.worker as usize),
                    selected_byzantine: selected.map(|s| s.byzantine),
                    quorum_workers: quorum.into_iter().map(|w| w as usize).collect(),
                };
                attack.observe(&feedback);
                Ok(())
            }
            other => Err(ServerError::protocol(format!(
                "unexpected {} frame from the server",
                other.name()
            ))),
        }
    }

    /// Answers one `Broadcast`: replays the cached answer bit-identically
    /// for a re-broadcast, fast-forwards skipped rounds, or computes (and
    /// caches) a fresh answer.
    fn answer_broadcast(
        &mut self,
        round: u64,
        params: Vec<f64>,
        observed: Vec<Vec<f64>>,
    ) -> Result<(), ServerError> {
        if params.len() != self.dim {
            return Err(ServerError::protocol(format!(
                "broadcast of dimension {}, expected {}",
                params.len(),
                self.dim
            )));
        }
        if let Some((answered_round, bytes)) = &self.answered {
            if *answered_round == round {
                self.wire_bytes += write_encoded(&mut self.stream, bytes)? as u64;
                return Ok(());
            }
        }
        let params = Vector::from(params);
        // The server proceeded without us (or we restarted from round 0):
        // replay the missed calls so the RNG cursor matches an
        // uninterrupted worker's. Consumption is input-independent, so
        // dummy inputs restore it exactly.
        while self.calls_made < round {
            self.dummy_call(&params)?;
            self.calls_made += 1;
        }
        if self.calls_made > round {
            return Err(ServerError::protocol(format!(
                "re-broadcast of round {round} but the cached answer is gone \
                 (RNG cursor already at round {})",
                self.calls_made
            )));
        }
        // Every proposal frame of the answer (f of them for the adversary)
        // goes out in one buffer and one write.
        let frames = self.compute_frames(round, &params, observed)?;
        let mut bytes = Vec::with_capacity(frames.iter().map(Frame::encoded_len).sum());
        for frame in &frames {
            frame.encode_into(&mut bytes);
        }
        let (_, bytes) = self.answered.insert((round, bytes));
        self.calls_made += 1;
        self.rounds += 1;
        self.wire_bytes += write_encoded(&mut self.stream, bytes)? as u64;
        Ok(())
    }

    /// One discarded estimator/attack call, purely to advance the RNG.
    fn dummy_call(&mut self, params: &Vector) -> Result<(), ServerError> {
        match &mut self.role {
            Role::Honest { estimator, rng } => {
                let _ = estimator.estimate(params, rng)?;
            }
            // Dummy replay restores an RNG cursor, but a stateful attack's
            // memory is built from the *real* round feedback it observed —
            // feedback the server no longer has. Refuse instead of silently
            // forging from reset state.
            Role::Adversary { attack, .. } if attack.stateful() => {
                return Err(ServerError::protocol(
                    "a stateful attack cannot fast-forward skipped rounds: \
                     the round feedback it missed cannot be replayed"
                        .to_string(),
                ));
            }
            Role::Adversary {
                attack,
                rng,
                probe,
                rule_name,
                byzantine,
                total_workers,
            } => {
                let honest = *total_workers - *byzantine;
                let dummies = vec![Vector::zeros(self.dim); honest];
                let true_gradient = probe.true_gradient(params);
                let ctx = AttackContext {
                    honest_proposals: &dummies,
                    current_params: params,
                    true_gradient: true_gradient.as_ref(),
                    byzantine_count: *byzantine,
                    total_workers: *total_workers,
                    round: self.calls_made as usize,
                    aggregator_name: rule_name,
                };
                let _ = attack.forge(&ctx, rng)?;
            }
        }
        Ok(())
    }

    /// Computes the `Propose` frames answering one fresh broadcast
    /// (`ProposeC`, encoded against this round's broadcast params, when a
    /// codec was negotiated).
    fn compute_frames(
        &mut self,
        round: u64,
        params: &Vector,
        observed: Vec<Vec<f64>>,
    ) -> Result<Vec<Frame>, ServerError> {
        let job = self.job;
        let codec = self.codec.as_deref();
        let worker = self.worker;
        match &mut self.role {
            Role::Honest { estimator, rng } => {
                let proposal = estimator.estimate(params, rng)?;
                Ok(vec![propose_frame(
                    codec, job, round, worker, proposal, params,
                )])
            }
            Role::Adversary {
                attack,
                rng,
                probe,
                rule_name,
                byzantine,
                total_workers,
            } => {
                let honest = *total_workers - *byzantine;
                // A degraded round relays fewer than `honest` proposals
                // (crashed workers are missing); an empty or oversized
                // relay is still a protocol violation.
                if observed.is_empty() || observed.len() > honest {
                    return Err(ServerError::protocol(format!(
                        "observation relay carried {} proposals, expected 1..={honest}",
                        observed.len()
                    )));
                }
                let observed: Vec<Vector> = observed.into_iter().map(Vector::from).collect();
                let true_gradient = probe.true_gradient(params);
                let ctx = AttackContext {
                    honest_proposals: &observed,
                    current_params: params,
                    true_gradient: true_gradient.as_ref(),
                    byzantine_count: *byzantine,
                    total_workers: *total_workers,
                    round: round as usize,
                    aggregator_name: rule_name,
                };
                let forged = attack.forge(&ctx, rng)?;
                if forged.len() != *byzantine {
                    return Err(ServerError::protocol(format!(
                        "the attack forged {} proposals, expected {byzantine}",
                        forged.len()
                    )));
                }
                Ok(forged
                    .into_iter()
                    .enumerate()
                    .map(|(b, proposal)| {
                        propose_frame(codec, job, round, (honest + b) as u32, proposal, params)
                    })
                    .collect())
            }
        }
    }

    /// Reconnects and re-handshakes with `Rejoin`, sleeping a bounded
    /// seed-jittered exponential backoff between attempts. Returns the
    /// original error when no retries are configured or all fail.
    fn rejoin(&mut self, original: ServerError) -> Result<RejoinOutcome, ServerError> {
        if self.retries == 0 {
            return Err(original);
        }
        // A stateful attack adapts to feedback frames it may have missed
        // while the socket was down; no replay can restore that history, so
        // the adversary session fails fast instead of rejoining with a
        // diverged attack state.
        if matches!(&self.role, Role::Adversary { attack, .. } if attack.stateful()) {
            return Err(ServerError::protocol(format!(
                "a stateful attack cannot rejoin: feedback observed while \
                 disconnected cannot be replayed (disconnect: {original})"
            )));
        }
        let mut last = original;
        for attempt in 1..=self.retries {
            std::thread::sleep(Duration::from_millis(backoff_millis(
                self.seed,
                self.worker,
                attempt,
            )));
            match self.try_rejoin() {
                Ok(outcome) => {
                    if matches!(outcome, RejoinOutcome::Resumed) {
                        self.reconnects += 1;
                    }
                    return Ok(outcome);
                }
                Err(e) if is_transport(&e) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// One rejoin attempt: connect, `Rejoin`, expect our old assignment.
    fn try_rejoin(&mut self) -> Result<RejoinOutcome, ServerError> {
        let mut stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true)?;
        self.wire_bytes += write_frame(
            &mut stream,
            &Frame::Rejoin {
                version: self.version,
                job: self.job,
                worker: self.worker,
            },
        )? as u64;
        let (frame, bytes) = read_frame(&mut stream)?;
        self.wire_bytes += bytes as u64;
        match frame {
            Frame::JobAssign { job, worker, .. } => {
                if job != self.job || worker != self.worker {
                    return Err(ServerError::protocol(format!(
                        "rejoined as job {job} worker {worker}, \
                         expected job {} worker {}",
                        self.job, self.worker
                    )));
                }
                self.stream = stream;
                Ok(RejoinOutcome::Resumed)
            }
            Frame::Shutdown { reason, .. } => Ok(RejoinOutcome::Ended(reason)),
            other => Err(ServerError::protocol(format!(
                "expected JobAssign or Shutdown on rejoin, got {}",
                other.name()
            ))),
        }
    }
}

impl std::fmt::Debug for WorkerSession {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.debug_struct("WorkerSession")
            .field("job", &self.job)
            .field("worker", &self.worker)
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

/// `true` for errors a rejoin can heal (the transport died), `false` for
/// protocol violations and local failures.
fn is_transport(e: &ServerError) -> bool {
    matches!(e, ServerError::Wire(_) | ServerError::Io(_))
}

/// Wraps one proposal in its negotiated framing: `ProposeC` (encoded
/// against this round's broadcast params) under a codec, raw `Propose`
/// otherwise.
fn propose_frame(
    codec: Option<&dyn GradientCodec>,
    job: u64,
    round: u64,
    worker: u32,
    proposal: Vector,
    params: &Vector,
) -> Frame {
    match codec {
        Some(codec) => Frame::ProposeC {
            job,
            round,
            worker,
            proposal: codec.encode(proposal.as_slice(), params.as_slice()),
        },
        None => Frame::Propose {
            job,
            round,
            worker,
            proposal: proposal.into_inner(),
        },
    }
}

/// Deterministic backoff for attempt `k` (1-based): bounded exponential
/// plus a per-worker jitter hash so a crashed fleet does not thunder back
/// in lockstep.
fn backoff_millis(seed: u64, worker: u32, attempt: u32) -> u64 {
    let base = (BACKOFF_BASE_MILLIS << attempt.min(5)).min(BACKOFF_CAP_MILLIS);
    let jitter = splitmix(seed ^ (u64::from(worker) << 32) ^ u64::from(attempt));
    base + jitter % BACKOFF_JITTER_MILLIS
}

/// SplitMix64 finalizer — a tiny, dependency-free bit mixer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl std::fmt::Debug for WorkerClient {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.debug_struct("WorkerClient")
            .field("agent", &self.agent)
            .field("peer", &self.stream.peer_addr().ok())
            .finish_non_exhaustive()
    }
}

/// Connects to `addr` and serves one full worker session — the body of
/// `krum worker --connect ADDR`.
///
/// # Errors
///
/// See [`WorkerClient::run`].
pub fn run_worker(addr: impl ToSocketAddrs) -> Result<WorkerSummary, ServerError> {
    WorkerClient::connect(addr)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_exponential_with_deterministic_jitter() {
        let a = backoff_millis(7, 2, 1);
        assert_eq!(a, backoff_millis(7, 2, 1), "jitter must be deterministic");
        assert!((100..125).contains(&a), "attempt 1 ≈ 100 ms, got {a}");
        for attempt in 1..200 {
            let ms = backoff_millis(42, 0, attempt);
            assert!(
                ms < BACKOFF_CAP_MILLIS + BACKOFF_JITTER_MILLIS,
                "backoff must stay bounded, got {ms}"
            );
        }
        assert_ne!(
            backoff_millis(7, 0, 1) % BACKOFF_JITTER_MILLIS,
            backoff_millis(7, 1, 1) % BACKOFF_JITTER_MILLIS,
            "workers should not thunder back in lockstep (for this seed)"
        );
    }
}
