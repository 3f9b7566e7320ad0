//! The per-job round driver: real arrivals in, rounds out.
//!
//! One job is one scenario served over sockets. The job thread owns the
//! write halves of its worker connections and a channel fed by the
//! per-connection reader threads; each round it
//!
//! 1. **broadcasts** `x_t` to every live honest worker,
//! 2. **collects** proposals in *real arrival order* into the job's
//!    [`Quorum`] machine, which the in-process async engine drives too: it
//!    opens the round with the carried stragglers of earlier rounds (they
//!    are already at the server, so they outrank every fresh arrival) and
//!    gives each [`Quorum::arrive`] its verdict while [`Quorum::waiting`],
//! 3. **relays** the honest proposals to the adversary connection once
//!    [`Quorum::relay_ready`] (the paper's omniscient adversary, made
//!    explicit as bytes on the wire; each proposal is copied once, on
//!    arrival, and the relay is encoded from those copies in place),
//! 4. **closes the quorum** through the machine: it holds at most `quorum`
//!    proposals, at most one per worker (the Byzantine share stays capped
//!    at `f`), carries the leftovers forward under the `max_staleness`
//!    bound, sorts the aggregation input by `(issued_round, worker)` and
//!    marks the close full, degraded or refused, and
//! 5. hands the quorum to the shared [`RoundCore`] for
//!    aggregate → step → record — the same code path the in-process
//!    engines run, which is why a loopback barrier run reproduces
//!    [`Scenario::run`](krum_scenario::Scenario) bit-for-bit, and
//! 6. **closes the round** towards every live connection. The
//!    [`Frame::RoundClosed`] is informational — no worker waits on it — so
//!    it is queued on the connection and delivered in front of that
//!    connection's next frame (the next broadcast or relay, the final
//!    `Aggregate`, a `Shutdown`) in the same vectored write: a worker wakes
//!    once per round, and every connection still sees the frames in the
//!    same order. The queued frame counts towards the round that closed.
//!
//! The driver keeps the sockets, heartbeats, framing, slot authority and
//! byte accounting; the protocol decisions are the machine's.
//!
//! # Churn: crash faults, heartbeats, rejoin, degraded rounds
//!
//! A connection that dies (or goes silent past the heartbeat grace) is a
//! **crash fault**, [`Quorum::lost`]; a worker back through the
//! [`Frame::Rejoin`] handshake is [`Quorum::rejoined`]. The spec's crash
//! policy, which the machine holds, decides what follows:
//!
//! * **fail fast** (non-`Remote` execution) — the job aborts with a
//!   structured [`ServerError::WorkerLost`];
//! * **wait-for-rejoin** — the slot is marked dead and the round keeps
//!   waiting (bounded by the round timeout) for the worker to come back. A
//!   rejoiner is re-staffed into its old slot and hears the current round
//!   again; because workers replay cached answers (or fast-forward their
//!   deterministic RNG streams), the recovered round is *bit-identical* to
//!   an uninterrupted one;
//! * **proceed-at-quorum** — the round stops waiting for dead slots and
//!   closes over the live proposals. When that leaves fewer than the
//!   configured quorum, the round closes **degraded**: the same rule is
//!   rebuilt at the surviving arity (Krum's guarantee holds while
//!   `2f + 2 < live`), and the record's `degraded_rounds` column says so.
//!   Fewer than `n − f` live proposals is unrecoverable —
//!   [`ServerError::TooManyFaults`].
//!
//! Silence is probed with [`Frame::Ping`]/[`Frame::Pong`] heartbeats to the
//! slots the round [`Quorum::awaits`]; a connection that misses
//! [`MISSED_HEARTBEATS`] consecutive intervals is declared hung — a crash
//! fault, same as a dropped socket.
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
use krum_dist::{Arrival, Close, ClusterSpec, Proposal, Quorum, RoundCore, TrainingConfig};
use krum_metrics::{RoundRecord, TrainingHistory};
use krum_models::GradientEstimator;
use krum_scenario::{
    CrashPolicy, ExecutionSpec, InitSpec, RemoteTimeouts, ScenarioReport, ScenarioSpec,
};
use krum_tensor::Vector;
use krum_wire::{write_encoded_pair, CarryOver, Frame, SelectedWorker, WireError};

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
    /// A worker re-staffed its old slot through the `Rejoin` handshake
    /// (a new reader thread already feeds this channel).
    Rejoined {
        /// Worker slot being re-staffed.
        worker: u32,
        /// The replacement connection; its protocol version may differ
        /// from the slot's previous incarnation.
        conn: JobConnection,
    },
}

/// Write half of one worker connection. A job's connections are indexed by
/// worker slot (0..honest are honest, `honest` is the adversary).
#[derive(Debug)]
pub(crate) struct JobConnection {
    /// Write half of the socket (reads happen on the reader thread).
    pub stream: TcpStream,
    /// Protocol version the handshake negotiated for this connection. A
    /// v1 peer on a codec-bearing job hears raw (already quantized)
    /// frames — the version fallback — while v2 peers hear the
    /// compressed framing.
    pub version: u16,
    /// Encoded frames nothing waits on (the round's `RoundClosed`), sent
    /// in front of the connection's next frame.
    pending: Vec<u8>,
}

impl JobConnection {
    /// A connection with nothing queued.
    pub fn new(stream: TcpStream, version: u16) -> Self {
        Self {
            stream,
            version,
            pending: Vec::new(),
        }
    }

    /// Writes the queued frames and then `frame` in one vectored write.
    /// The queue is empty afterwards even when the write fails: part of it
    /// may be on the wire, and the connection is a crash fault anyway.
    pub fn write(&mut self, frame: &[u8]) -> Result<(), WireError> {
        let written = write_encoded_pair(&mut self.stream, &self.pending, frame);
        self.pending.clear();
        written.map(drop)
    }
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

/// The staleness bound a job's rounds close under, and whether they record
/// the quorum/staleness columns (only a partial quorum does). The quorum
/// itself is the spec's aggregation arity.
pub(crate) fn staleness_policy(execution: &ExecutionSpec) -> (usize, bool) {
    match *execution {
        ExecutionSpec::Sequential | ExecutionSpec::Threaded { .. } => (0, false),
        ExecutionSpec::AsyncQuorum { max_staleness, .. } => (max_staleness, true),
        ExecutionSpec::Remote {
            quorum,
            max_staleness,
            ..
        } => (max_staleness, quorum.is_some()),
    }
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
            // whatever comes back up (the resumed server). The last
            // round's queued `RoundClosed` dies with the sockets, as it
            // would under `kill -9`.
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
    let shutdown = Frame::Shutdown {
        job: id,
        reason: reason.to_string(),
    }
    .encode();
    for conn in conns.iter_mut() {
        let _ = conn.write(&shutdown);
    }
}

/// A job's connections during one round, and the bytes the round moved.
struct Links<'a> {
    conns: &'a mut [JobConnection],
    round: usize,
    wire_bytes: u64,
    /// What the same traffic would have cost uncompressed: compressed
    /// frames are charged at their raw `8·dim` framing, everything else at
    /// its actual size — so `raw_bytes == wire_bytes` without a codec.
    raw_bytes: u64,
}

impl Links<'_> {
    /// Protocol version of connection `c`.
    fn version(&self, c: usize) -> u16 {
        self.conns.get(c).map_or(0, |conn| conn.version)
    }

    /// Writes the encoded frame `bytes` to connection `c`, behind the
    /// frames queued there, and counts it at `raw` bytes uncompressed
    /// (`None`: its own size). A failed write is a crash fault of `c`.
    /// Returns whether the frame went out.
    fn send(
        &mut self,
        quorum: &mut Quorum,
        c: usize,
        bytes: &[u8],
        raw: Option<u64>,
        what: &str,
    ) -> Result<bool, ServerError> {
        let Some(conn) = self.conns.get_mut(c) else {
            return Ok(false);
        };
        match conn.write(bytes) {
            Ok(()) => {
                let b = bytes.len() as u64;
                self.wire_bytes += b;
                self.raw_bytes += raw.unwrap_or(b);
                Ok(true)
            }
            Err(e) => {
                self.crash(quorum, c, &format!("{what} failed: {e}"))?;
                Ok(false)
            }
        }
    }

    /// Queues the encoded frame `bytes` on connection `c`, to go out in
    /// front of its next frame, and counts it in this round's bytes now.
    fn queue(&mut self, c: usize, bytes: &[u8]) {
        if let Some(conn) = self.conns.get_mut(c) {
            conn.pending.extend_from_slice(bytes);
            self.wire_bytes += bytes.len() as u64;
            self.raw_bytes += bytes.len() as u64;
        }
    }

    /// Declares a crash fault on connection `c`: fatal under fail-fast;
    /// under a crash policy the machine marks the slot dead, its queued
    /// frames are dropped and the socket is closed, so a peer alive behind
    /// a one-way fault sees EOF and starts its rejoin loop instead of
    /// waiting forever.
    fn crash(&mut self, quorum: &mut Quorum, c: usize, message: &str) -> Result<(), ServerError> {
        if quorum.lost(c) {
            return Err(ServerError::WorkerLost {
                worker: c as u32,
                round: self.round as u64,
                message: message.into(),
            });
        }
        if let Some(conn) = self.conns.get_mut(c) {
            conn.pending.clear();
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        Ok(())
    }
}

/// The observation relay, encoded: every honest proposal of the round that
/// exists so far, in worker order. A barrier round relays all `n − f`; a
/// crash-degraded round relays what the live workers produced (the relay
/// is withheld until at least one exists, so it is never empty). With a
/// negotiated codec and a v2 adversary, the relay rides the compressed
/// framing (proposals encoded against this round's broadcast params); a
/// v1 adversary hears the same quantized values raw. Returns the bytes and
/// their raw (uncompressed) size.
fn relay_frame(
    id: u64,
    round: usize,
    params: &Vector,
    observed: &[Option<Vec<f64>>],
    codec: Option<&dyn GradientCodec>,
    version: u16,
) -> (Vec<u8>, u64) {
    let relayed = observed.iter().flatten().map(Vec::as_slice);
    let raw = raw_broadcast_len(params.dim(), relayed.clone().count());
    let bytes = match codec {
        Some(codec) if version >= 2 => Frame::BroadcastC {
            job: id,
            round: round as u64,
            params: codec.encode_params(params.as_slice()),
            observed: relayed
                .map(|v| codec.encode(v, params.as_slice()))
                .collect(),
        }
        .encode(),
        _ => Frame::encode_broadcast(id, round as u64, params.as_slice(), relayed),
    };
    (bytes, raw)
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

    let (max_staleness, record_quorum) = staleness_policy(&spec.execution);
    let mut quorum = Quorum::served(n, f, arity, max_staleness, runtime.on_crash);

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

    let wall_start = Instant::now();
    for round in start_round..spec.rounds {
        let record = serve_round(
            id,
            round,
            spec,
            conns,
            events,
            &mut core,
            &*probe,
            &mut params,
            &mut quorum,
            &runtime.timeouts,
            record_quorum,
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

    // Final frames: the trained model behind the last round's close, then
    // the goodbye (sent by the caller's shutdown pass). A slot dead under a
    // crash policy hears neither — if it rejoins now, the server tells it
    // the job is over.
    let aggregate = Frame::Aggregate {
        job: id,
        round: spec.rounds as u64,
        params: params.as_slice().to_vec(),
    }
    .encode();
    for (c, conn) in conns.iter_mut().enumerate() {
        if quorum.is_live(c) {
            if let Err(e) = conn.write(&aggregate) {
                if runtime.on_crash.is_none() {
                    return Err(e.into());
                }
            }
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
    events: &Receiver<ConnEvent>,
    core: &mut RoundCore,
    probe: &dyn GradientEstimator,
    params: &mut Vector,
    quorum: &mut Quorum,
    timeouts: &RemoteTimeouts,
    record_quorum: bool,
    codec: Option<&dyn GradientCodec>,
) -> Result<RoundRecord, ServerError> {
    let cluster = spec.cluster;
    let honest = cluster.honest();
    let f = cluster.byzantine();
    let adversary = honest; // connection index (meaningful when f > 0)
    let dim = core.dim();
    let round_open = Instant::now();
    let heartbeat = Duration::from_secs(timeouts.heartbeat_secs);
    let deadline = round_open + Duration::from_secs(timeouts.round_secs);
    let mut links = Links {
        conns,
        round,
        wire_bytes: 0,
        raw_bytes: 0,
    };
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
            Frame::encode_broadcast(id, round as u64, params.as_slice(), std::iter::empty())
        }),
    };
    let raw_broadcast = Some(raw_broadcast_len(dim, 0));
    for w in 0..honest {
        if quorum.is_live(w) {
            let bytes = broadcast_for(links.version(w));
            links.send(quorum, w, bytes, raw_broadcast, "broadcast")?;
        }
    }

    // The carried stragglers open the quorum.
    quorum.open(round, 0);

    // Collect this round's fresh proposals in real arrival order, weaving
    // in heartbeats, crash obituaries and rejoins. The loop drains every
    // proposal the round can still produce: the quorum may close earlier
    // (its cutoff pins that moment), but stragglers reach the machine's
    // carry pool before the next round opens. The honest proposals are
    // cloned, in worker order, for the adversary relay.
    let mut observed: Vec<Option<Vec<f64>>> = if f > 0 {
        vec![None; honest]
    } else {
        Vec::new()
    };
    let mut relay_at: Option<Instant> = None;
    let mut propose_nanos: u128 = 0;
    let mut attack_nanos: u128 = 0;
    let mut last_heard: Vec<Instant> = vec![round_open; links.conns.len()];
    let mut next_tick = round_open + heartbeat;
    let mut ping_nonce: u64 = (round as u64) << 32;
    while quorum.waiting() {
        let now = Instant::now();
        if now >= deadline {
            let (honest_arrived, byzantine_arrived) = quorum.arrived();
            return Err(ServerError::Timeout {
                seconds: timeouts.round_secs,
                what: format!(
                    "round {round} proposals of job {id} ({honest_arrived}/{honest} honest, \
                     {byzantine_arrived}/{f} byzantine, {} live connections)",
                    (0..links.conns.len())
                        .filter(|&c| quorum.is_live(c))
                        .count()
                ),
            });
        }
        let wait = next_tick
            .min(deadline)
            .saturating_duration_since(now)
            .max(Duration::from_millis(1));
        match events.recv_timeout(wait) {
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ServerError::protocol("every reader thread hung up mid-job"))
            }
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() >= next_tick {
                    next_tick += heartbeat;
                    // Ping the live connections the round still waits on; a
                    // connection silent for MISSED_HEARTBEATS intervals is
                    // hung — a crash fault, same as a dropped socket.
                    for (c, heard) in last_heard.iter().enumerate() {
                        if !quorum.awaits(c) {
                            continue;
                        }
                        if heard.elapsed() >= heartbeat * MISSED_HEARTBEATS {
                            links.crash(quorum, c, "no heartbeat: connection is hung")?;
                            continue;
                        }
                        ping_nonce += 1;
                        let ping = Frame::Ping {
                            job: id,
                            nonce: ping_nonce,
                        };
                        links.send(quorum, c, &ping.encode(), None, "ping")?;
                    }
                }
            }
            Ok(ConnEvent::Closed { worker, error }) => {
                let message = error
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "connection closed".into());
                links.crash(quorum, worker as usize, &message)?;
            }
            Ok(ConnEvent::Rejoined { worker, conn }) => {
                let w = worker as usize;
                let version = conn.version;
                // admit() validates the slot; belt and braces.
                if let (Some(slot), Some(heard)) = (links.conns.get_mut(w), last_heard.get_mut(w)) {
                    *slot = conn;
                    *heard = Instant::now();
                    reconnects += 1;
                    // A rejoiner that must hear the round again: an honest
                    // worker hears its broadcast, the adversary its relay.
                    let reopen = quorum.rejoined(w);
                    if reopen && w < honest {
                        let bytes = broadcast_for(version);
                        links.send(quorum, w, bytes, raw_broadcast, "rejoin broadcast")?;
                    } else if reopen {
                        let (relay, raw) =
                            relay_frame(id, round, params, &observed, codec, version);
                        if links.send(quorum, w, &relay, Some(raw), "relay replay")? {
                            relay_at = Some(Instant::now());
                        }
                    }
                }
            }
            Ok(ConnEvent::Frame {
                worker: conn_worker,
                frame,
                bytes,
            }) => {
                links.wire_bytes += bytes as u64;
                links.raw_bytes += match &frame {
                    Frame::ProposeC { .. } => raw_propose_len(dim),
                    _ => bytes as u64,
                };
                if let Some(heard) = last_heard.get_mut(conn_worker as usize) {
                    *heard = Instant::now();
                }
                // A pong carries liveness only, noted above.
                if let Some((propose_round, worker, proposal)) =
                    proposal_in(frame, conn_worker, id, round, cluster, params, codec)?
                {
                    let relay_copy = observed.get(worker).map(|_| proposal.clone());
                    let arrival = round_open.elapsed().as_nanos();
                    let verdict = quorum.arrive(Proposal {
                        worker,
                        issued_round: usize::try_from(propose_round).unwrap_or(usize::MAX),
                        arrival,
                        vector: Vector::from(proposal),
                    });
                    match verdict {
                        Arrival::Joined | Arrival::Deferred if worker < honest => {
                            propose_nanos = arrival;
                            if let Some(slot) = observed.get_mut(worker) {
                                *slot = relay_copy;
                            }
                        }
                        Arrival::Joined | Arrival::Deferred => {
                            if let Some(at) = relay_at {
                                attack_nanos = at.elapsed().as_nanos();
                            }
                        }
                        Arrival::Echo | Arrival::Late => {}
                        Arrival::Duplicate if worker < honest => {
                            return Err(ServerError::protocol(format!(
                                "duplicate proposal from worker {worker} in round {round}"
                            )))
                        }
                        Arrival::Duplicate => {
                            return Err(ServerError::protocol(format!(
                                "duplicate Byzantine proposal for slot {worker} in round {round}"
                            )))
                        }
                        Arrival::WrongRound => {
                            return Err(ServerError::protocol(format!(
                                "worker {conn_worker} proposed for round {propose_round} \
                                 during round {round}"
                            )))
                        }
                    }
                }
            }
        }

        // Omniscient-adversary relay: fires once every honest proposal the
        // round can still produce is in (all of them under barrier
        // semantics — worker order, the same order the in-process engines
        // hand to `Attack::forge`). Every event reaches this check, a
        // heartbeat tick included: a death, even one the heartbeat
        // declares, can be what completes the live set. It stays after the
        // event rather than at the loop head, so the event that ends
        // `waiting()` still fires it.
        if quorum.relay_ready() {
            let version = links.version(adversary);
            let (relay, raw) = relay_frame(id, round, params, &observed, codec, version);
            if links.send(quorum, adversary, &relay, Some(raw), "relay")? {
                quorum.relay_sent();
                relay_at = Some(Instant::now());
            }
        }
    }
    let stats = quorum.close();
    if stats.close == Close::Refused {
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
    let degraded = stats.close == Close::Degraded;
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
    if record_quorum {
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
    if f > 0 && spec.attack.stateful() && quorum.is_live(adversary) {
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
        }
        .encode();
        links.send(quorum, adversary, &feedback, None, "round-feedback")?;
    }

    // Close the round towards the live workers (a dead one hears the next
    // broadcast after it rejoins). Nothing waits on the close, so it rides
    // in front of each connection's next frame instead of waking the
    // worker on its own.
    let closed = Frame::RoundClosed {
        job: id,
        round: round as u64,
        quorum: stats.size as u32,
        aggregate_norm: record.aggregate_norm,
    }
    .encode();
    for c in 0..links.conns.len() {
        if quorum.is_live(c) {
            links.queue(c, &closed);
        }
    }
    record.wire_bytes = Some(links.wire_bytes);
    record.raw_bytes = Some(links.raw_bytes);
    record.round_nanos = round_open.elapsed().as_nanos();
    Ok(record)
}

/// The proposal a frame from connection `conn_worker` carries, as
/// `(round, worker, vector)` — `None` for a heartbeat answer — once it
/// passes the framing checks: its job, its dimension and the connection's
/// authority over the slot (honest connections propose exactly their own
/// slot, the adversary connection exactly the Byzantine slots). A raw
/// proposal on a codec-bearing job (a v1 peer) is quantized here through
/// the same decode(encode(·)) a v2 peer's encoding implies, so both
/// framings feed the aggregator identical bits.
fn proposal_in(
    frame: Frame,
    conn_worker: u32,
    id: u64,
    round: usize,
    cluster: ClusterSpec,
    params: &Vector,
    codec: Option<&dyn GradientCodec>,
) -> Result<Option<(u64, usize, Vec<f64>)>, ServerError> {
    let dim = params.dim();
    let (job, propose_round, worker, mut proposal, arrived_raw) = match frame {
        Frame::Pong { .. } => return Ok(None),
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
            let decoded = codec
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
    if proposal.len() != dim {
        return Err(ServerError::protocol(format!(
            "worker {conn_worker} proposed dimension {}, expected {dim}",
            proposal.len()
        )));
    }
    if conn_worker as usize == cluster.honest() && cluster.byzantine() > 0 {
        if worker < cluster.honest() || worker >= cluster.workers() {
            return Err(ServerError::protocol(format!(
                "the adversary proposed for honest slot {worker}"
            )));
        }
    } else if worker != conn_worker as usize {
        return Err(ServerError::protocol(format!(
            "worker {conn_worker} proposed for slot {worker}"
        )));
    }
    if arrived_raw {
        if let Some(codec) = codec {
            codec.transform(&mut proposal, params.as_slice());
        }
    }
    Ok(Some((propose_round, worker, proposal)))
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
