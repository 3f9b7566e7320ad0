//! The per-job round state machine: real arrivals in, rounds out.
//!
//! One job is one scenario served over sockets. The job thread owns the
//! write halves of its worker connections and a channel fed by the
//! per-connection reader threads; each round it
//!
//! 1. **broadcasts** `x_t` to every live honest worker,
//! 2. **collects** proposals in *real arrival order* into the job's
//!    [`Quorum`] machine, which the in-process async engine drives too: it
//!    opens the round with the carried stragglers of earlier rounds (they
//!    are already at the server, so they outrank every fresh arrival),
//! 3. **relays** the honest proposals to the adversary connection once
//!    every honest proposal the round can still produce is in (the paper's
//!    omniscient adversary, made explicit as bytes on the wire),
//! 4. **closes the quorum** through the machine: it holds at most `quorum`
//!    proposals, at most one per worker (the Byzantine share stays capped
//!    at `f`), carries the leftovers forward under the `max_staleness`
//!    bound and sorts the aggregation input by `(issued_round, worker)`,
//!    and
//! 5. hands the quorum to the shared [`RoundCore`] for
//!    aggregate → step → record — the same code path the in-process
//!    engines run, which is why a loopback barrier run reproduces
//!    [`Scenario::run`](krum_scenario::Scenario) bit-for-bit.
//!
//! # Churn: crash faults, heartbeats, rejoin, degraded rounds
//!
//! A connection that dies (or goes silent past the heartbeat grace) is a
//! **crash fault**. What happens next is the spec's crash policy:
//!
//! * **fail fast** (non-`Remote` execution) — the job aborts with a
//!   structured [`ServerError::WorkerLost`], exactly as before;
//! * **wait-for-rejoin** — the slot is marked dead and the round keeps
//!   waiting (bounded by the round timeout) for the worker to come back
//!   through the [`Frame::Rejoin`] handshake. A rejoiner is re-staffed
//!   into its old slot and hears the current round again; because workers
//!   replay cached answers (or fast-forward their deterministic RNG
//!   streams), the recovered round is *bit-identical* to an uninterrupted
//!   one;
//! * **proceed-at-quorum** — the round stops waiting for dead slots and
//!   closes over the live proposals. When that leaves fewer than the
//!   configured quorum, the round closes **degraded**: the same rule is
//!   rebuilt at the surviving arity (Krum's guarantee holds while
//!   `2f + 2 < live`), and the record's `degraded_rounds` column says so.
//!   Fewer than `n − f` live proposals is unrecoverable —
//!   [`ServerError::TooManyFaults`].
//!
//! Silence is probed with [`Frame::Ping`]/[`Frame::Pong`] heartbeats; a
//! connection that misses [`MISSED_HEARTBEATS`] consecutive intervals is
//! declared hung — a crash fault, same as a dropped socket.
//!
//! The job can also **checkpoint** (snapshot `x_t`, the carry-over queue
//! and the history after every cadence-th round, see [`crate::checkpoint`])
//! and **halt** after a scripted round (the in-process face of `kill -9`,
//! driven by the chaos harness) — a resumed job continues bit-identically.

use std::cell::OnceCell;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use krum_compress::GradientCodec;
use krum_dist::{Proposal, Quorum, RoundCore, TrainingConfig};
use krum_metrics::{RoundRecord, TrainingHistory};
use krum_models::GradientEstimator;
use krum_scenario::{
    CrashPolicy, ExecutionSpec, InitSpec, RemoteTimeouts, ScenarioReport, ScenarioSpec,
};
use krum_tensor::Vector;
use krum_wire::{write_encoded, write_frame, CarryOver, Frame, SelectedWorker, WireError};

use crate::checkpoint::{self, CheckpointConfig, ResumeState};
use crate::error::ServerError;

/// Consecutive silent heartbeat intervals after which a live-but-mute
/// connection is declared hung (a crash fault). The worker's read loop
/// answers pings between rounds of real work, so the grace only has to
/// cover one estimate — heartbeats are configured per spec
/// (`heartbeat_secs`), this multiplier is the protocol's patience.
pub(crate) const MISSED_HEARTBEATS: u32 = 3;

/// One event from a connection's reader thread (or the accept loop, for
/// rejoins).
#[derive(Debug)]
pub(crate) enum ConnEvent {
    /// A frame arrived from the given worker slot (`bytes` as framed).
    Frame {
        /// Worker slot of the sending connection.
        worker: u32,
        /// The decoded frame.
        frame: Frame,
        /// Size of the frame on the wire.
        bytes: usize,
    },
    /// The connection died (cleanly when `error` is `None`).
    Closed {
        /// Worker slot of the dead connection.
        worker: u32,
        /// The transport error, if the close was not clean.
        error: Option<WireError>,
    },
    /// A worker re-staffed its old slot through the `Rejoin` handshake;
    /// `stream` is the fresh write half (a new reader thread already feeds
    /// this channel).
    Rejoined {
        /// Worker slot being re-staffed.
        worker: u32,
        /// Write half of the replacement socket.
        stream: TcpStream,
        /// Protocol version the rejoiner negotiated (it may differ from
        /// the slot's previous incarnation).
        version: u16,
    },
}

/// Write half of one worker connection. A job's connections are indexed by
/// worker slot (0..honest are honest, `honest` is the adversary).
pub(crate) struct JobConnection {
    /// Write half of the socket (reads happen on the reader thread).
    pub stream: TcpStream,
    /// Protocol version the handshake negotiated for this connection. A
    /// v1 peer on a codec-bearing job hears raw (already quantized)
    /// frames — the version fallback — while v2 peers hear the
    /// compressed framing.
    pub version: u16,
}

/// Everything the serving layer decided about *how* to run a job, as
/// opposed to *what* the job computes (the spec): timeouts, crash policy,
/// checkpointing, scripted halts and resume state.
pub(crate) struct JobRuntime {
    /// Round/handshake/staffing/heartbeat timing knobs.
    pub timeouts: RemoteTimeouts,
    /// `Some` for `Remote` execution (crash faults absorbed per policy);
    /// `None` for every other execution strategy (fail fast, as before).
    pub on_crash: Option<CrashPolicy>,
    /// Periodic snapshots, when enabled.
    pub checkpoint: Option<CheckpointConfig>,
    /// Scripted `kill -9`: halt (after checkpointing) once this round
    /// completes.
    pub halt_after_round: Option<u64>,
    /// Continue from this snapshot instead of round 0.
    pub resume: Option<ResumeState>,
}

impl JobRuntime {
    /// The runtime a bare spec implies: its timeouts, its crash policy,
    /// no checkpointing, no scripted faults.
    pub fn for_spec(spec: &ScenarioSpec) -> Self {
        let timeouts = spec.execution.remote_timeouts();
        let on_crash = match spec.execution {
            ExecutionSpec::Remote { .. } => Some(timeouts.on_crash),
            _ => None,
        };
        Self {
            timeouts,
            on_crash,
            checkpoint: None,
            halt_after_round: None,
            resume: None,
        }
    }
}

/// How rounds close for a given execution spec: quorum size, staleness
/// bound, and whether the quorum/staleness columns should be recorded.
pub(crate) fn close_policy(execution: &ExecutionSpec, n: usize) -> (usize, usize, bool) {
    match *execution {
        ExecutionSpec::Sequential | ExecutionSpec::Threaded { .. } => (n, 0, false),
        ExecutionSpec::AsyncQuorum {
            quorum,
            max_staleness,
            ..
        } => (quorum, max_staleness, true),
        ExecutionSpec::Remote {
            quorum,
            max_staleness,
            ..
        } => match quorum {
            Some(q) => (q, max_staleness, true),
            None => (n, max_staleness, false),
        },
    }
}

/// The per-round closing rules of one job, bundled once in `drive_job`.
struct ClosePolicy {
    quorum: usize,
    record_quorum: bool,
    timeouts: RemoteTimeouts,
    on_crash: Option<CrashPolicy>,
}

/// Runs one job to completion: `rounds` server rounds over the given
/// connections, returning the scenario report. On failure the workers are
/// sent a `Shutdown` naming the error before it propagates — except for a
/// scripted halt, which mimics `kill -9`: the sockets just die.
pub(crate) fn run_job(
    id: u64,
    spec: ScenarioSpec,
    mut conns: Vec<JobConnection>,
    events: Receiver<ConnEvent>,
    runtime: JobRuntime,
) -> Result<ScenarioReport, ServerError> {
    let result = drive_job(id, &spec, &mut conns, &events, &runtime);
    match result {
        Ok(report) => {
            shutdown_all(id, &mut conns, "job complete");
            Ok(report)
        }
        Err(e @ ServerError::Halted { .. }) => {
            // Scripted kill: no goodbye. The workers discover the death as
            // a dropped connection and retry their rejoin handshake against
            // whatever comes back up (the resumed server).
            for conn in conns.iter_mut() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            Err(e)
        }
        Err(e) => {
            shutdown_all(id, &mut conns, &format!("job failed: {e}"));
            Err(e)
        }
    }
}

/// Best-effort `Shutdown` to every connection (failures are moot: the
/// session is over either way).
fn shutdown_all(id: u64, conns: &mut [JobConnection], reason: &str) {
    for conn in conns.iter_mut() {
        let _ = write_frame(
            &mut conn.stream,
            &Frame::Shutdown {
                job: id,
                reason: reason.to_string(),
            },
        );
    }
}

/// Declares a crash fault on connection `worker`: fatal under fail-fast,
/// absorbed (slot marked dead, socket closed so the peer notices and can
/// rejoin) under a crash policy. A second obituary for an already-dead
/// slot is a no-op.
fn crash(
    on_crash: Option<CrashPolicy>,
    alive: &mut [bool],
    conns: &mut [JobConnection],
    worker: u32,
    round: usize,
    message: &str,
) -> Result<(), ServerError> {
    let w = worker as usize;
    if w >= alive.len() || !alive[w] {
        return Ok(());
    }
    if on_crash.is_none() {
        return Err(ServerError::WorkerLost {
            worker,
            round: round as u64,
            message: message.into(),
        });
    }
    alive[w] = false;
    // Close our half too: a peer alive behind a one-way fault sees EOF and
    // starts its rejoin loop instead of waiting forever.
    let _ = conns[w].stream.shutdown(Shutdown::Both);
    Ok(())
}

/// The observation relay: every honest proposal of the round that exists
/// so far, in worker order. A barrier round relays all `n − f`; a
/// crash-degraded round relays what the live workers produced (the relay
/// is withheld until at least one exists, so it is never empty). With a
/// negotiated codec and a v2 adversary, the relay rides the compressed
/// framing (proposals encoded against this round's broadcast params); a
/// v1 adversary hears the same quantized values raw.
fn relay_frame(
    id: u64,
    round: usize,
    params: &Vector,
    observed: &[Option<Vec<f64>>],
    codec: Option<&dyn GradientCodec>,
    version: u16,
) -> Frame {
    match codec {
        Some(codec) if version >= 2 => Frame::BroadcastC {
            job: id,
            round: round as u64,
            params: codec.encode_params(params.as_slice()),
            observed: observed
                .iter()
                .filter_map(|o| o.as_ref().map(|v| codec.encode(v, params.as_slice())))
                .collect(),
        },
        _ => Frame::Broadcast {
            job: id,
            round: round as u64,
            params: params.as_slice().to_vec(),
            observed: observed.iter().filter_map(Clone::clone).collect(),
        },
    }
}

/// Bytes a `Broadcast` frame carrying `observed` relayed proposals costs
/// at the raw (uncompressed) framing: 9 bytes of frame overhead (length
/// prefix, tag, checksum), the job/round header, and `4 + 8·dim` per
/// vector.
fn raw_broadcast_len(dim: usize, observed: usize) -> u64 {
    (9 + 8 + 8 + (4 + 8 * dim) + 4 + observed * (4 + 8 * dim)) as u64
}

/// Bytes a `Propose` frame costs at the raw (uncompressed) framing.
fn raw_propose_len(dim: usize) -> u64 {
    (9 + 8 + 8 + 4 + (4 + 8 * dim)) as u64
}

fn drive_job(
    id: u64,
    spec: &ScenarioSpec,
    conns: &mut [JobConnection],
    events: &Receiver<ConnEvent>,
    runtime: &JobRuntime,
) -> Result<ScenarioReport, ServerError> {
    // Reuse-stale execution keeps an engine-side latest-proposal table the
    // wire protocol has no frames for; serving it would silently change its
    // semantics, so refuse it structurally instead.
    if matches!(
        spec.execution,
        ExecutionSpec::AsyncQuorum {
            reuse_stale: true,
            ..
        }
    ) {
        return Err(ServerError::protocol(format!(
            "job {id}: reuse-stale async execution is not servable over the \
             wire; run it in-process"
        )));
    }
    // Top-level stateful rules snapshot through the checkpoint sidecar, but
    // a stateful rule buried inside a hierarchical stage keeps its memory in
    // per-group contexts the snapshot cannot reach; refuse up front instead
    // of resuming a silently reset trajectory.
    if (runtime.checkpoint.is_some() || runtime.resume.is_some())
        && spec.rule.hierarchical_stateful()
    {
        return Err(ServerError::Checkpoint(format!(
            "job {id}: a stateful rule inside a hierarchical stage keeps \
             per-group memory that checkpoints cannot capture; use the \
             top-level form of the rule or disable checkpointing"
        )));
    }
    let cluster = spec.cluster;
    let n = cluster.workers();
    let honest = cluster.honest();
    let f = cluster.byzantine();
    let expected_conns = honest + usize::from(f > 0);
    if conns.len() != expected_conns {
        return Err(ServerError::protocol(format!(
            "job {id} needs {expected_conns} connections ({honest} honest + \
             {} adversary), got {}",
            usize::from(f > 0),
            conns.len()
        )));
    }

    // Server-side wiring: the workload is built only for its metrics hooks
    // (probe, optimum, accuracy) — the per-worker estimators run on the
    // other end of the sockets.
    let workload = spec.estimator.build(honest, spec.seed)?;
    let dim = workload.dim;
    let arity = spec.execution.aggregation_arity(n);
    let aggregator = spec.rule.build(arity, f)?;
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
    let mut core = RoundCore::new(cluster, aggregator, config, dim)?;
    // The negotiated codec. The core re-quantizes the trajectory after
    // every step and fresh starts quantize the initial params once — the
    // exact transform the in-process engine applies, which is why a
    // loopback run with a codec reproduces the in-process quantized run
    // bit-for-bit.
    let codec: Option<Arc<dyn GradientCodec>> = spec
        .compression
        .as_ref()
        .map(|c| Arc::from(c.build()) as Arc<dyn GradientCodec>);
    if let Some(codec) = &codec {
        core.set_compression(Arc::clone(codec));
    }
    if spec.probes.accuracy {
        if let Some(accuracy) = workload.accuracy {
            core.set_accuracy_probe(accuracy);
        }
    }
    // Same probe fallback as the in-process engine: the dedicated probe
    // when the workload has one, otherwise worker 0's estimator (which
    // only answers loss/true-gradient queries here — its RNG stream is
    // consumed by the remote worker it mirrors).
    let mut estimators = workload.estimators;
    let probe: Box<dyn GradientEstimator> = match workload.probe {
        Some(p) => p,
        None => estimators.swap_remove(0),
    };
    drop(estimators);

    let (quorum_size, max_staleness, record_quorum) = close_policy(&spec.execution, n);
    let policy = ClosePolicy {
        quorum: quorum_size,
        record_quorum,
        timeouts: runtime.timeouts,
        on_crash: runtime.on_crash,
    };
    let mut quorum = Quorum::new(n, quorum_size, max_staleness);

    // Fresh start, or continue where the checkpoint left off. The snapshot
    // restores the server-side state; the workers restore theirs by
    // fast-forwarding their deterministic RNG streams (or by simply still
    // being alive, for an in-process kill/resume).
    let (start_round, mut params, mut history, wall_before) = match &runtime.resume {
        Some(resume) => {
            if resume.params.dim() != dim {
                return Err(ServerError::Checkpoint(format!(
                    "snapshot params have dimension {}, the job needs {dim}",
                    resume.params.dim()
                )));
            }
            quorum.restore(
                resume
                    .pending
                    .iter()
                    .map(|c| Proposal {
                        worker: c.worker as usize,
                        issued_round: c.issued_round as usize,
                        arrival: 0,
                        vector: Vector::from(c.proposal.clone()),
                    })
                    .collect(),
            );
            // Reinstall the stateful-rule memory (reputation weights, clip
            // anchor) so the resumed rounds weigh workers exactly as the
            // uninterrupted run would have.
            core.import_stateful_state(resume.stateful_rule.clone());
            // The drift columns continue the recorded series exactly (0
            // when no Byzantine round has closed yet).
            core.resume_drift(
                resume
                    .history
                    .rounds
                    .last()
                    .and_then(|r| r.attacker_displacement)
                    .unwrap_or(0.0),
            );
            (
                resume.start_round as usize,
                resume.params.clone(),
                resume.history.clone(),
                resume.wall_nanos,
            )
        }
        None => {
            let mut params = match spec.init {
                InitSpec::Zeros => Vector::zeros(dim),
                InitSpec::Fill { value } => Vector::filled(dim, value),
                InitSpec::Sample { strategy, seed } => {
                    spec.estimator.init_params(strategy, seed)?
                }
            };
            // Round 0 broadcasts quantized params (a resumed snapshot is
            // already on the quantized trajectory).
            if let Some(codec) = &codec {
                codec.transform_params(params.as_mut_slice());
            }
            let history = TrainingHistory::new(
                format!(
                    "{} vs {} (n={n}, f={f}, d={dim}, served)",
                    core.aggregator_name(),
                    spec.attack
                ),
                core.aggregator_name().to_string(),
                spec.attack.to_string(),
                n,
                f,
            );
            (0, params, history, 0)
        }
    };

    let mut alive = vec![true; conns.len()];
    let wall_start = Instant::now();
    for round in start_round..spec.rounds {
        let record = serve_round(
            id,
            round,
            spec,
            conns,
            &mut alive,
            events,
            &mut core,
            &*probe,
            &mut params,
            &mut quorum,
            &policy,
            codec.as_deref(),
        )?;
        history.push(record);
        let halting = runtime.halt_after_round == Some(round as u64);
        if let Some(config) = &runtime.checkpoint {
            if (round as u64 + 1).is_multiple_of(config.every) || halting {
                let carry: Vec<CarryOver> = quorum
                    .carried()
                    .iter()
                    .map(|p| CarryOver {
                        worker: p.worker as u32,
                        issued_round: p.issued_round as u64,
                        proposal: p.vector.as_slice().to_vec(),
                    })
                    .collect();
                let bytes = checkpoint::write_checkpoint(
                    config,
                    id,
                    round as u64 + 1,
                    &params,
                    &carry,
                    spec,
                    &history,
                    wall_before + wall_start.elapsed().as_nanos(),
                    core.export_stateful_state(),
                )?;
                if let Some(last) = history.rounds.last_mut() {
                    last.checkpoint_bytes = Some(bytes);
                }
            }
        }
        if halting {
            return Err(ServerError::Halted {
                job: id,
                round: round as u64,
            });
        }
    }
    let wall_nanos = wall_before + wall_start.elapsed().as_nanos();

    // Final frames: the trained model, then the goodbye (sent by the
    // caller's shutdown pass). A slot dead under a crash policy hears
    // neither — if it rejoins now, the server tells it the job is over.
    let aggregate = Frame::Aggregate {
        job: id,
        round: spec.rounds as u64,
        params: params.as_slice().to_vec(),
    }
    .encode();
    for c in 0..conns.len() {
        if !alive[c] {
            continue;
        }
        match write_encoded(&mut conns[c].stream, &aggregate) {
            Ok(_) => {}
            Err(_) if policy.on_crash.is_some() => {}
            Err(e) => return Err(e.into()),
        }
    }

    Ok(ScenarioReport {
        spec: spec.clone(),
        final_params: params,
        history,
        wall_nanos,
    })
}

/// Serves one round; see the module docs for the protocol.
#[allow(clippy::too_many_arguments)]
fn serve_round(
    id: u64,
    round: usize,
    spec: &ScenarioSpec,
    conns: &mut [JobConnection],
    alive: &mut [bool],
    events: &Receiver<ConnEvent>,
    core: &mut RoundCore,
    probe: &dyn GradientEstimator,
    params: &mut Vector,
    quorum: &mut Quorum,
    policy: &ClosePolicy,
    codec: Option<&dyn GradientCodec>,
) -> Result<RoundRecord, ServerError> {
    let cluster = spec.cluster;
    let n = cluster.workers();
    let honest = cluster.honest();
    let f = cluster.byzantine();
    let adversary = honest; // connection index (meaningful when f > 0)
    let dim = core.dim();
    let on_crash = policy.on_crash;
    // Fail-fast and wait-for-rejoin both hold the round for every slot
    // (dead ones are expected back); proceed-at-quorum stops waiting.
    let wait_for_dead = !matches!(on_crash, Some(CrashPolicy::ProceedAtQuorum));
    let round_open = Instant::now();
    let heartbeat = Duration::from_secs(policy.timeouts.heartbeat_secs);
    let deadline = round_open + Duration::from_secs(policy.timeouts.round_secs);
    let mut wire_bytes: u64 = 0;
    // What the same traffic would have cost uncompressed: compressed
    // frames are charged at their raw `8·dim` framing, everything else at
    // its actual size — so `raw_bytes == wire_bytes` without a codec.
    let mut raw_bytes: u64 = 0;
    let mut reconnects: u64 = 0;

    // Broadcast x_t to the live honest workers (the adversary hears later,
    // with its observations; a dead slot hears the round when it rejoins).
    // With a codec, v2 connections hear the compressed framing; v1
    // connections hear the same (already quantized) params raw. Each
    // dialect is encoded (and checksummed) once and the same bytes go to
    // every connection speaking it, rejoin replays included; the raw
    // framing is encoded only if some peer needs it.
    let broadcast_c = codec.map(|c| {
        Frame::BroadcastC {
            job: id,
            round: round as u64,
            params: c.encode_params(params.as_slice()),
            observed: Vec::new(),
        }
        .encode()
    });
    let broadcast = OnceCell::new();
    let broadcast_for = |version: u16| match &broadcast_c {
        Some(bytes) if version >= 2 => bytes,
        _ => broadcast.get_or_init(|| {
            Frame::Broadcast {
                job: id,
                round: round as u64,
                params: params.as_slice().to_vec(),
                observed: Vec::new(),
            }
            .encode()
        }),
    };
    for w in 0..honest {
        if !alive[w] {
            continue;
        }
        match write_encoded(&mut conns[w].stream, broadcast_for(conns[w].version)) {
            Ok(b) => {
                wire_bytes += b as u64;
                raw_bytes += raw_broadcast_len(dim, 0);
            }
            Err(e) => crash(
                on_crash,
                alive,
                conns,
                w as u32,
                round,
                &format!("broadcast failed: {e}"),
            )?,
        }
    }

    // The carried stragglers open the quorum.
    quorum.open(round, 0);

    // Collect this round's fresh proposals in real arrival order, weaving
    // in heartbeats, crash obituaries and rejoins. The loop drains every
    // proposal the round can still produce: the quorum may close earlier
    // (its cutoff pins that moment), but stragglers reach the machine's
    // carry pool before the next round opens.
    let mut honest_seen = vec![false; honest];
    let mut byzantine_seen = vec![false; f];
    // Clones of the honest proposals for the adversary relay, worker order.
    let mut observed: Vec<Option<Vec<f64>>> = if f > 0 {
        vec![None; honest]
    } else {
        Vec::new()
    };
    let mut honest_arrived = 0usize;
    let mut byzantine_arrived = 0usize;
    let mut relay_sent = f == 0;
    let mut relay_at: Option<Instant> = None;
    let mut adv_replayed = false;
    let mut propose_nanos: u128 = 0;
    let mut attack_nanos: u128 = 0;
    let mut last_heard: Vec<Instant> = vec![round_open; conns.len()];
    let mut next_tick = round_open + heartbeat;
    let mut ping_nonce: u64 = (round as u64) << 32;
    loop {
        // What the round still waits for, given who is alive and the
        // policy. A relay that can never fire (no honest proposal exists
        // and none is coming) stops the wait for Byzantine proposals — the
        // close path below turns that into a structured error if the
        // survivors cannot carry the round.
        let outstanding_honest =
            (0..honest).any(|w| !honest_seen[w] && (alive[w] || wait_for_dead));
        let relay_stalled = !relay_sent && honest_arrived == 0 && !outstanding_honest;
        let outstanding_byz =
            f > 0 && byzantine_arrived < f && (alive[adversary] || wait_for_dead) && !relay_stalled;
        if !outstanding_honest && !outstanding_byz {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(ServerError::Timeout {
                seconds: policy.timeouts.round_secs,
                what: format!(
                    "round {round} proposals of job {id} ({honest_arrived}/{honest} honest, \
                     {byzantine_arrived}/{f} byzantine, {} live connections)",
                    alive.iter().filter(|a| **a).count()
                ),
            });
        }
        let wait = next_tick
            .min(deadline)
            .saturating_duration_since(now)
            .max(Duration::from_millis(1));
        let event = match events.recv_timeout(wait) {
            Ok(event) => event,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ServerError::protocol("every reader thread hung up mid-job"))
            }
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() >= next_tick {
                    next_tick += heartbeat;
                    // Ping the live connections the round still waits on; a
                    // connection silent for MISSED_HEARTBEATS intervals is
                    // hung — a crash fault, same as a dropped socket.
                    for c in 0..conns.len() {
                        if !alive[c] {
                            continue;
                        }
                        let waited_on = if c < honest {
                            !honest_seen[c]
                        } else {
                            f > 0 && byzantine_arrived < f
                        };
                        if !waited_on {
                            continue;
                        }
                        if last_heard[c].elapsed() >= heartbeat * MISSED_HEARTBEATS {
                            crash(
                                on_crash,
                                alive,
                                conns,
                                c as u32,
                                round,
                                "no heartbeat: connection is hung",
                            )?;
                            continue;
                        }
                        ping_nonce += 1;
                        let ping = Frame::Ping {
                            job: id,
                            nonce: ping_nonce,
                        };
                        match write_frame(&mut conns[c].stream, &ping) {
                            Ok(b) => {
                                wire_bytes += b as u64;
                                raw_bytes += b as u64;
                            }
                            Err(e) => crash(
                                on_crash,
                                alive,
                                conns,
                                c as u32,
                                round,
                                &format!("ping failed: {e}"),
                            )?,
                        }
                    }
                }
                continue;
            }
        };
        match event {
            ConnEvent::Closed { worker, error } => {
                let message = error
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "connection closed".into());
                crash(on_crash, alive, conns, worker, round, &message)?;
            }
            ConnEvent::Rejoined {
                worker,
                stream,
                version,
            } => {
                let w = worker as usize;
                if w >= conns.len() {
                    continue; // admit() validates; belt and braces
                }
                conns[w].stream = stream;
                conns[w].version = version;
                alive[w] = true;
                last_heard[w] = Instant::now();
                reconnects += 1;
                if w < honest {
                    if !honest_seen[w] {
                        // Re-open the round for the rejoiner: it either
                        // replays its cached answer (it had already proposed
                        // into the void) or fast-forwards its RNG stream and
                        // computes it — both bit-identical to the
                        // uninterrupted proposal.
                        match write_encoded(&mut conns[w].stream, broadcast_for(version)) {
                            Ok(b) => {
                                wire_bytes += b as u64;
                                raw_bytes += raw_broadcast_len(dim, 0);
                            }
                            Err(e) => crash(
                                on_crash,
                                alive,
                                conns,
                                worker,
                                round,
                                &format!("rejoin broadcast failed: {e}"),
                            )?,
                        }
                    }
                } else if f > 0 && relay_sent && byzantine_arrived < f {
                    // The adversary died with the relay in flight: replay
                    // it. The worker caches (or deterministically
                    // re-forges) its answer, so slots that did land are
                    // resent bit-identical — tolerated as duplicates below.
                    adv_replayed = true;
                    let relay = relay_frame(id, round, params, &observed, codec, version);
                    match write_frame(&mut conns[adversary].stream, &relay) {
                        Ok(b) => {
                            wire_bytes += b as u64;
                            raw_bytes += raw_broadcast_len(
                                dim,
                                observed.iter().filter(|o| o.is_some()).count(),
                            );
                            relay_at = Some(Instant::now());
                        }
                        Err(e) => crash(
                            on_crash,
                            alive,
                            conns,
                            worker,
                            round,
                            &format!("relay replay failed: {e}"),
                        )?,
                    }
                }
            }
            ConnEvent::Frame {
                worker: conn_worker,
                frame,
                bytes,
            } => {
                wire_bytes += bytes as u64;
                raw_bytes += match &frame {
                    Frame::ProposeC { .. } => raw_propose_len(dim),
                    _ => bytes as u64,
                };
                if (conn_worker as usize) < last_heard.len() {
                    last_heard[conn_worker as usize] = Instant::now();
                }
                // A raw proposal on a codec-bearing job (a v1 peer) is
                // quantized server-side below, so both framings feed the
                // aggregator identical bits.
                let (job, propose_round, worker, mut proposal, arrived_raw) = match frame {
                    Frame::Pong { .. } => continue, // liveness, noted above
                    Frame::Propose {
                        job,
                        round,
                        worker,
                        proposal,
                    } => (job, round, worker as usize, proposal, true),
                    Frame::ProposeC {
                        job,
                        round: propose_round,
                        worker,
                        proposal,
                    } => {
                        let Some(codec) = codec else {
                            return Err(ServerError::protocol(format!(
                                "worker {conn_worker} sent a compressed proposal but \
                                 the job negotiated no codec"
                            )));
                        };
                        let decoded =
                            codec
                                .decode(&proposal, params.as_slice(), dim)
                                .map_err(|e| {
                                    ServerError::protocol(format!(
                                        "worker {conn_worker} sent an undecodable proposal \
                                         in round {round}: {e}"
                                    ))
                                })?;
                        (job, propose_round, worker as usize, decoded, false)
                    }
                    other => {
                        return Err(ServerError::protocol(format!(
                            "unexpected {} frame from worker {conn_worker} during round {round}",
                            other.name()
                        )))
                    }
                };
                if job != id {
                    return Err(ServerError::protocol(format!(
                        "worker {conn_worker} proposed for foreign job {job} (serving job {id})"
                    )));
                }
                if propose_round != round as u64 {
                    // Crash rounds can leave a straggler from an
                    // already-closed round in flight; under a crash policy
                    // it is dropped (that round closed without it), under
                    // fail-fast it is the violation it always was.
                    if on_crash.is_some() && propose_round < round as u64 {
                        continue;
                    }
                    return Err(ServerError::protocol(format!(
                        "worker {conn_worker} proposed for round {propose_round} \
                         during round {round}"
                    )));
                }
                if proposal.len() != dim {
                    return Err(ServerError::protocol(format!(
                        "worker {conn_worker} proposed dimension {}, expected {dim}",
                        proposal.len()
                    )));
                }
                // Quantize-before-aggregate: a v1 peer's raw floats pass
                // through the same decode(encode(·)) a v2 peer's encoding
                // implies, so the codec never sees a framing difference.
                if arrived_raw {
                    if let Some(codec) = codec {
                        codec.transform(&mut proposal, params.as_slice());
                    }
                }
                // Authority: honest connections propose exactly their own
                // slot, the adversary connection proposes exactly the
                // Byzantine slots.
                let from_adversary = conn_worker as usize == adversary && f > 0;
                if from_adversary {
                    if worker < honest || worker >= n {
                        return Err(ServerError::protocol(format!(
                            "the adversary proposed for honest slot {worker}"
                        )));
                    }
                    if byzantine_seen[worker - honest] {
                        if adv_replayed {
                            // A replayed relay re-forges bit-identical
                            // proposals; the copies that already landed are
                            // dropped, not a violation.
                            continue;
                        }
                        return Err(ServerError::protocol(format!(
                            "duplicate Byzantine proposal for slot {worker} in round {round}"
                        )));
                    }
                    byzantine_seen[worker - honest] = true;
                    byzantine_arrived += 1;
                    if let Some(at) = relay_at {
                        attack_nanos = at.elapsed().as_nanos();
                    }
                } else {
                    if worker != conn_worker as usize {
                        return Err(ServerError::protocol(format!(
                            "worker {conn_worker} proposed for slot {worker}"
                        )));
                    }
                    if honest_seen[worker] {
                        if on_crash.is_some() {
                            // A cached rejoin replay raced its original copy
                            // through the old socket; the bits are
                            // identical, drop the echo.
                            continue;
                        }
                        return Err(ServerError::protocol(format!(
                            "duplicate proposal from worker {worker} in round {round}"
                        )));
                    }
                    honest_seen[worker] = true;
                    honest_arrived += 1;
                    propose_nanos = round_open.elapsed().as_nanos();
                    if f > 0 {
                        observed[worker] = Some(proposal.clone());
                    }
                }
                quorum.offer(Proposal {
                    worker,
                    issued_round: round,
                    arrival: round_open.elapsed().as_nanos(),
                    vector: Vector::from(proposal),
                });
            }
        }

        // Omniscient-adversary relay: fires once every honest proposal the
        // round can still produce is in (all of them under barrier
        // semantics — worker order, the same order the in-process engines
        // hand to `Attack::forge`). Re-checked after crashes too: a death
        // can be what completes the live set.
        if f > 0 && !relay_sent && honest_arrived > 0 && alive[adversary] {
            let all_in = (0..honest).all(|w| honest_seen[w] || (!alive[w] && !wait_for_dead));
            if all_in {
                let relay = relay_frame(
                    id,
                    round,
                    params,
                    &observed,
                    codec,
                    conns[adversary].version,
                );
                match write_frame(&mut conns[adversary].stream, &relay) {
                    Ok(b) => {
                        wire_bytes += b as u64;
                        raw_bytes +=
                            raw_broadcast_len(dim, observed.iter().filter(|o| o.is_some()).count());
                        relay_sent = true;
                        relay_at = Some(Instant::now());
                    }
                    Err(e) => crash(
                        on_crash,
                        alive,
                        conns,
                        adversary as u32,
                        round,
                        &format!("relay failed: {e}"),
                    )?,
                }
            }
        }
    }
    let stats = quorum.close();
    let degraded = stats.size < policy.quorum;
    if degraded && stats.size < honest {
        // Below n − f live proposals no close is sound: more workers
        // crashed than the fault bound absorbs.
        return Err(ServerError::TooManyFaults {
            job: id,
            round: round as u64,
            live: stats.size,
            needed: honest,
        });
    }

    // Aggregate → step → record through the shared core. A crash-degraded
    // round closes through the same rule rebuilt at the surviving arity
    // (Krum's guarantee holds while 2f + 2 < live — the rebuild enforces
    // its own bound structurally).
    let (vectors, workers) = (quorum.vectors(), quorum.workers());
    let true_gradient = probe.true_gradient(params);
    let mut record = if degraded {
        let rule = spec.rule.build(stats.size, f)?;
        core.close_round_with(
            &*rule,
            params,
            round,
            vectors,
            workers,
            true_gradient,
            Some(probe),
        )?
    } else {
        core.close_round(params, round, vectors, workers, true_gradient, Some(probe))?
    };
    record.propose_nanos = propose_nanos;
    record.attack_nanos = attack_nanos;
    if policy.record_quorum {
        stats.record(&mut record);
    }
    record.arrival_nanos = Some(stats.cutoff);
    record.reconnects = Some(reconnects);
    record.degraded_rounds = Some(u64::from(degraded));

    // A stateful adversary observes what the server accepted — the same
    // feedback the in-process engines hand to `Attack::observe`, as bytes on
    // the wire, so the remote attack adapts identically to the in-process
    // one. Stateless attacks hear nothing (the frame never fires), keeping
    // their traffic byte-identical to earlier protocol revisions.
    if f > 0 && spec.attack.stateful() && alive[adversary] {
        let feedback = Frame::RoundFeedback {
            job: id,
            round: round as u64,
            aggregate: core.last_aggregate().as_slice().to_vec(),
            learning_rate: record.learning_rate,
            selected: record.selected_worker.map(|w| SelectedWorker {
                worker: w as u32,
                byzantine: record.selected_byzantine.unwrap_or(w >= honest),
            }),
            quorum: workers.iter().map(|&w| w as u32).collect(),
        };
        match write_frame(&mut conns[adversary].stream, &feedback) {
            Ok(b) => {
                wire_bytes += b as u64;
                raw_bytes += b as u64;
            }
            Err(e) => crash(
                on_crash,
                alive,
                conns,
                adversary as u32,
                round,
                &format!("round-feedback failed: {e}"),
            )?,
        }
    }

    // Close the round towards the live workers (a dead one hears the next
    // broadcast after it rejoins).
    let closed = Frame::RoundClosed {
        job: id,
        round: round as u64,
        quorum: stats.size as u32,
        aggregate_norm: record.aggregate_norm,
    }
    .encode();
    for c in 0..conns.len() {
        if !alive[c] {
            continue;
        }
        match write_encoded(&mut conns[c].stream, &closed) {
            Ok(b) => {
                wire_bytes += b as u64;
                raw_bytes += b as u64;
            }
            Err(e) => crash(
                on_crash,
                alive,
                conns,
                c as u32,
                round,
                &format!("round-close failed: {e}"),
            )?,
        }
    }
    record.wire_bytes = Some(wire_bytes);
    record.raw_bytes = Some(raw_bytes);
    record.round_nanos = round_open.elapsed().as_nanos();
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arithmetic raw-framing sizes must track the actual encoder —
    /// the `raw_bytes` column is only honest if they agree.
    #[test]
    fn raw_frame_lengths_match_the_wire_encoding() {
        for (dim, observed) in [(1, 0), (17, 5), (1000, 36)] {
            let broadcast = Frame::Broadcast {
                job: 3,
                round: 9,
                params: vec![1.5; dim],
                observed: vec![vec![2.5; dim]; observed],
            };
            assert_eq!(
                raw_broadcast_len(dim, observed),
                broadcast.encoded_len() as u64
            );
            let propose = Frame::Propose {
                job: 3,
                round: 9,
                worker: 4,
                proposal: vec![0.5; dim],
            };
            assert_eq!(raw_propose_len(dim), propose.encoded_len() as u64);
        }
    }
}
