//! The listening server: accepts workers, staffs jobs, runs them.
//!
//! `krum serve spec.json --listen ADDR --jobs K` binds one [`Server`]
//! hosting `K` concurrent jobs derived from the spec (job `k` keeps the
//! base name and seed for `k = 0` and uses `name#k` / `seed + k` after
//! that, so a multi-job serve is a seed sweep over live traffic). Each
//! accepted connection is handshaked (`Hello` → version check →
//! `JobAssign`), pinned to the first job with a free worker slot, and given
//! a dedicated reader thread that feeds the job's event channel; a job's
//! round state machine (see [`crate::job`]) starts the moment its roster is
//! complete, so jobs run concurrently as workers trickle in.
//!
//! The accept loop keeps listening *after* staffing completes: a worker
//! whose connection died mid-job comes back with a [`Frame::Rejoin`]
//! handshake and is re-staffed into its old slot (the job thread hears a
//! [`ConnEvent::Rejoined`]). Staffing itself is bounded by the spec's
//! staffing timeout — a roster that never fills becomes a structured
//! [`ServerError::Timeout`] outcome instead of a hung process.
//!
//! [`Server::resume`] rebuilds jobs from `job-<id>.ckpt` snapshots (see
//! [`crate::checkpoint`]): resumed jobs staff like fresh ones — restarted
//! workers `Hello` in, surviving workers `Rejoin` their old slots — and
//! continue from the checkpointed round bit-identically.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use krum_scenario::{ScenarioReport, ScenarioSpec};
use krum_wire::{
    read_frame, read_frame_into, write_frame, Frame, WireError, MAX_FRAME_BYTES,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};

use crate::checkpoint::{self, CheckpointConfig};
use crate::error::ServerError;
use crate::job::{run_job, ConnEvent, JobConnection, JobRuntime};

/// How often the accept loop polls for new sockets and finished jobs.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// The outcome of one served job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Job identifier (index into the serve batch).
    pub job: u64,
    /// The job's scenario name.
    pub name: String,
    /// The job's report, or why it failed.
    pub result: Result<ScenarioReport, ServerError>,
}

/// One job waiting for (or holding) its workers. Connections are
/// slot-addressed so a resumed job can be staffed out of order (`Rejoin`
/// names its slot; `Hello` takes the first free one).
struct JobSlot {
    id: u64,
    spec: ScenarioSpec,
    conns: Vec<Option<JobConnection>>,
    sender: Sender<ConnEvent>,
    events: Option<mpsc::Receiver<ConnEvent>>,
    runtime: Option<JobRuntime>,
    handle: Option<JoinHandle<Result<ScenarioReport, ServerError>>>,
}

impl JobSlot {
    /// A job waiting for its roster: one connection per honest worker plus
    /// one adversary connection when `f > 0`.
    fn new(id: u64, spec: ScenarioSpec, runtime: JobRuntime) -> Self {
        let (sender, events) = mpsc::channel();
        let per_job = spec.cluster.honest() + usize::from(spec.cluster.byzantine() > 0);
        Self {
            id,
            spec,
            conns: (0..per_job).map(|_| None).collect(),
            sender,
            events: Some(events),
            runtime: Some(runtime),
            handle: None,
        }
    }

    /// Starts the job thread once the roster is full.
    fn start_if_staffed(&mut self) {
        if self.handle.is_some() || self.conns.iter().any(Option::is_none) {
            return;
        }
        let id = self.id;
        let spec = self.spec.clone();
        // The roster-full guard above makes `filter_map` lossless, and
        // `events`/`runtime` are still in place iff the job never started
        // (`handle.is_none()`), so the let-else is unreachable in practice
        // — but a second start now degrades to a no-op instead of a panic.
        let conns: Vec<JobConnection> = self.conns.iter_mut().filter_map(Option::take).collect();
        let (Some(events), Some(runtime)) = (self.events.take(), self.runtime.take()) else {
            return;
        };
        self.handle = Some(std::thread::spawn(move || {
            run_job(id, spec, conns, events, runtime)
        }));
    }
}

/// A bound aggregation server hosting one or more jobs.
pub struct Server {
    listener: TcpListener,
    jobs: Vec<JobSlot>,
    handshake_secs: u64,
    staffing_secs: u64,
}

/// Rejects a spec whose omniscient-adversary relay (params plus every
/// honest proposal) cannot fit one frame, with a clear error up front
/// instead of a confusing lost-worker report mid-round.
fn validate_relay_size(spec: &ScenarioSpec) -> Result<(), ServerError> {
    let dim = spec.dim()?;
    let per_vector = 4 + 8 * dim;
    let relay_payload = 1 + 8 + 8 + per_vector + 4 + spec.cluster.honest() * per_vector;
    if relay_payload > MAX_FRAME_BYTES {
        return Err(ServerError::protocol(format!(
            "model dimension {dim} with {} honest workers is too large for the wire \
             protocol: the observation-relay frame would need {relay_payload} bytes \
             (limit {MAX_FRAME_BYTES}); shrink d or the cluster",
            spec.cluster.honest()
        )));
    }
    Ok(())
}

impl Server {
    /// Binds to `addr` and prepares `jobs` concurrent jobs derived from
    /// `spec` (validated first). Use `"127.0.0.1:0"` to let the OS pick a
    /// port (see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Scenario`] for an invalid spec,
    /// [`ServerError::Protocol`] for a zero job count or an oversized
    /// relay, or [`ServerError::Io`] when the bind fails.
    pub fn bind(addr: &str, spec: ScenarioSpec, jobs: usize) -> Result<Self, ServerError> {
        spec.validate()?;
        if jobs == 0 {
            return Err(ServerError::protocol("a server needs at least one job"));
        }
        validate_relay_size(&spec)?;
        let timeouts = spec.execution.remote_timeouts();
        let listener = TcpListener::bind(addr)?;
        let jobs = (0..jobs as u64)
            .map(|k| {
                let mut job_spec = spec.clone();
                if k > 0 {
                    job_spec.name = format!("{}#{k}", spec.name);
                    job_spec.seed = spec.seed.wrapping_add(k);
                }
                let runtime = JobRuntime::for_spec(&job_spec);
                JobSlot::new(k, job_spec, runtime)
            })
            .collect();
        Ok(Self {
            listener,
            jobs,
            handshake_secs: timeouts.handshake_secs,
            staffing_secs: timeouts.staffing_secs,
        })
    }

    /// Binds to `addr` and rebuilds every `job-<id>.ckpt` snapshot under
    /// `dir` as a resumable job (specs, seeds and completed rounds come
    /// from the snapshots). Resumed jobs staff like fresh ones: restarted
    /// workers `Hello` in and fast-forward their RNG streams, surviving
    /// workers `Rejoin` their old slots.
    ///
    /// Checkpointing does not continue automatically — chain
    /// [`Server::with_checkpoints`] to keep snapshotting.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Checkpoint`] when `dir` holds no usable
    /// snapshots (or inconsistent ones) and [`ServerError::Io`]/
    /// [`ServerError::Wire`] for unreadable or corrupt files.
    pub fn resume(addr: &str, dir: &Path) -> Result<Self, ServerError> {
        let found = checkpoint::list_checkpoints(dir)?;
        let mut jobs = Vec::new();
        let mut handshake_secs = 0;
        let mut staffing_secs = 0;
        for (id, path) in found {
            let resume = checkpoint::read_checkpoint(&path)?;
            if resume.id != id {
                return Err(ServerError::Checkpoint(format!(
                    "{} says it belongs to job {}, not job {id}",
                    path.display(),
                    resume.id
                )));
            }
            let spec = resume.spec.clone();
            validate_relay_size(&spec)?;
            let timeouts = spec.execution.remote_timeouts();
            handshake_secs = handshake_secs.max(timeouts.handshake_secs);
            staffing_secs = staffing_secs.max(timeouts.staffing_secs);
            let mut runtime = JobRuntime::for_spec(&spec);
            runtime.resume = Some(resume);
            jobs.push(JobSlot::new(id, spec, runtime));
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            jobs,
            handshake_secs,
            staffing_secs,
        })
    }

    /// Enables periodic checkpointing: every job snapshots to
    /// `dir/job-<id>.ckpt` after each `every`-th completed round.
    #[must_use]
    pub fn with_checkpoints(mut self, dir: PathBuf, every: u64) -> Self {
        for slot in &mut self.jobs {
            if let Some(runtime) = &mut slot.runtime {
                runtime.checkpoint = Some(CheckpointConfig {
                    dir: dir.clone(),
                    every: every.max(1),
                });
            }
        }
        self
    }

    /// Scripted `kill -9`: every job halts (after checkpointing) once
    /// `round` completes, reporting [`ServerError::Halted`]. Driven by the
    /// chaos harness; resume from the checkpoint directory to continue.
    #[must_use]
    pub fn with_halt_after_round(mut self, round: u64) -> Self {
        for slot in &mut self.jobs {
            if let Some(runtime) = &mut slot.runtime {
                runtime.halt_after_round = Some(round);
            }
        }
        self
    }

    /// The address the server actually listens on.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Io`] when the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServerError> {
        Ok(self.listener.local_addr()?)
    }

    /// Connections each job needs before it starts: one per honest worker
    /// plus one adversary connection when `f > 0` (the paper's single
    /// omniscient adversary controls all `f` Byzantine workers).
    pub fn connections_per_job(&self) -> usize {
        self.jobs.first().map_or(0, |j| j.conns.len())
    }

    /// The per-job scenario specs this server will run, in job order.
    pub fn job_specs(&self) -> Vec<ScenarioSpec> {
        self.jobs.iter().map(|j| j.spec.clone()).collect()
    }

    /// Accepts workers until every job is staffed, runs the jobs to
    /// completion, and returns one outcome per job (in job order). Jobs run
    /// concurrently: each starts as soon as its roster fills. The accept
    /// loop stays open throughout so crashed workers can `Rejoin`; a roster
    /// that does not fill within the staffing timeout becomes a structured
    /// [`ServerError::Timeout`] outcome for that job.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Io`] when accepting fails outright. Per-job
    /// failures (a lost worker, a poisoned round, a panicked job thread)
    /// land in their [`JobOutcome::result`] instead, so one bad job cannot
    /// take down its siblings.
    pub fn run(mut self) -> Result<Vec<JobOutcome>, ServerError> {
        self.listener.set_nonblocking(true)?;
        let staffing_deadline = Instant::now() + Duration::from_secs(self.staffing_secs);
        let mut staffing_expired = false;
        loop {
            // Drain everything the backlog holds: fresh workers and
            // rejoiners alike. A broken handshake only costs that socket.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let _ = self.admit(stream);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e.into()),
                }
            }
            if !staffing_expired && Instant::now() >= staffing_deadline {
                staffing_expired = true;
                for slot in self.jobs.iter_mut().filter(|j| j.handle.is_none()) {
                    let goodbye = Frame::Shutdown {
                        job: slot.id,
                        reason: "staffing timed out: the roster never filled".into(),
                    }
                    .encode();
                    for conn in slot.conns.iter_mut().flatten() {
                        let _ = conn.write(&goodbye);
                    }
                    slot.conns.iter_mut().for_each(|c| *c = None);
                }
            }
            let busy = self.jobs.iter().any(|j| match &j.handle {
                Some(handle) => !handle.is_finished(),
                None => !staffing_expired,
            });
            if !busy {
                break;
            }
            std::thread::sleep(ACCEPT_POLL);
        }
        // Collect the job results; a panicked job thread is contained to a
        // structured per-job error.
        let staffing_secs = self.staffing_secs;
        let outcomes = self
            .jobs
            .drain(..)
            .map(|slot| {
                let result = match slot.handle {
                    Some(handle) => handle
                        .join()
                        .unwrap_or(Err(ServerError::JobPanicked { job: slot.id })),
                    None => Err(ServerError::Timeout {
                        seconds: staffing_secs,
                        what: format!("staffing job {} (the roster never filled)", slot.id),
                    }),
                };
                JobOutcome {
                    job: slot.id,
                    name: slot.spec.name.clone(),
                    result,
                }
            })
            .collect();
        Ok(outcomes)
    }

    /// Handshakes one socket: `Hello` staffs the first free slot, `Rejoin`
    /// re-staffs a named slot of a running (or resumed) job.
    fn admit(&mut self, mut stream: TcpStream) -> Result<(), ServerError> {
        // Accepted from a nonblocking listener: make the handshake blocking
        // and bounded. Rounds are a latency-bound request/response
        // ping-pong of small-ish frames, so Nagle's algorithm goes too.
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(self.handshake_secs)))?;
        let (frame, _) = read_frame(&mut stream)?;
        match frame {
            Frame::Hello { version, .. } => self.admit_hello(stream, version),
            Frame::Rejoin {
                version,
                job,
                worker,
            } => self.admit_rejoin(stream, version, job, worker),
            other => Err(ServerError::protocol(format!(
                "expected Hello or Rejoin, got {}",
                other.name()
            ))),
        }
    }

    fn admit_hello(&mut self, mut stream: TcpStream, version: u16) -> Result<(), ServerError> {
        if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
            let _ = write_frame(&mut stream, &reject_frame(0, version));
            return Ok(());
        }
        // A started job's `conns` were moved into its thread, so "free
        // slot" means: not yet started and roster still short. Finding
        // the job and the slot index in one pass keeps a single source
        // of truth — no second lookup that "can't fail".
        let Some((slot, worker)) = self.jobs.iter_mut().find_map(|j| {
            if j.handle.is_some() {
                return None;
            }
            let w = j.conns.iter().position(Option::is_none)?;
            Some((j, w as u32))
        }) else {
            let _ = write_frame(
                &mut stream,
                &Frame::Shutdown {
                    job: 0,
                    reason: "every job is fully staffed".into(),
                },
            );
            return Ok(());
        };
        let conn = assign(slot, stream, worker, version)?;
        if let Some(c) = slot.conns.get_mut(worker as usize) {
            *c = Some(conn);
        }
        slot.start_if_staffed();
        Ok(())
    }

    fn admit_rejoin(
        &mut self,
        mut stream: TcpStream,
        version: u16,
        job: u64,
        worker: u32,
    ) -> Result<(), ServerError> {
        if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
            let _ = write_frame(&mut stream, &reject_frame(job, version));
            return Ok(());
        }
        let reject = |mut stream: TcpStream, reason: String| {
            let _ = write_frame(&mut stream, &Frame::Shutdown { job, reason });
            Ok(())
        };
        let Some(slot) = self.jobs.iter_mut().find(|j| j.id == job) else {
            return reject(stream, format!("no job {job} on this server"));
        };
        let w = worker as usize;
        if w >= slot.conns.len() {
            return reject(stream, format!("job {job} has no worker slot {worker}"));
        }
        if slot.handle.as_ref().is_some_and(JoinHandle::is_finished) {
            return reject(stream, format!("job {job} already finished"));
        }
        if slot.handle.is_none() && slot.conns.get(w).is_some_and(Option::is_some) {
            return reject(
                stream,
                format!("slot {worker} of job {job} is already connected"),
            );
        }
        let conn = assign(slot, stream, worker, version)?;
        if slot.handle.is_some() {
            // Running job: hand the fresh write half to the round driver
            // (a job that finished since the check above drops it).
            let _ = slot.sender.send(ConnEvent::Rejoined { worker, conn });
        } else {
            // Resumed-but-unstarted job: staff the old slot directly (the
            // bounds reject above proved `w` is a real slot).
            if let Some(c) = slot.conns.get_mut(w) {
                *c = Some(conn);
            }
            slot.start_if_staffed();
        }
        Ok(())
    }
}

/// Staffs slot `worker` of `slot`'s job with `stream`: sends the same
/// assignment every staffing of the slot gets (same slot, seed and spec —
/// the worker's determinism does the rest), starts the connection's reader
/// thread and returns the write half.
fn assign(
    slot: &JobSlot,
    mut stream: TcpStream,
    worker: u32,
    version: u16,
) -> Result<JobConnection, ServerError> {
    write_frame(
        &mut stream,
        &Frame::JobAssign {
            job: slot.id,
            worker,
            seed: slot.spec.seed,
            spec_json: slot.spec.to_json()?,
        },
    )?;
    stream.set_read_timeout(None)?;
    let write_half = stream.try_clone()?;
    let sender = slot.sender.clone();
    // Detached on purpose: the reader exits when its socket closes (or
    // when the job drops its receiver), so a hung foreign client can
    // never wedge the serve loop on a join.
    std::thread::spawn(move || reader_loop(stream, worker, sender));
    Ok(JobConnection::new(write_half, version))
}

/// The version-mismatch goodbye.
fn reject_frame(job: u64, version: u16) -> Frame {
    Frame::Shutdown {
        job,
        reason: format!(
            "protocol version mismatch: you speak v{version}, \
             this server speaks v{MIN_PROTOCOL_VERSION}..v{PROTOCOL_VERSION}"
        ),
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

/// Reads frames off one worker socket into the job's event channel until
/// the socket dies or the job hangs up its receiver.
fn reader_loop(mut stream: TcpStream, worker: u32, sender: Sender<ConnEvent>) {
    // One frame-sized buffer for the connection's lifetime.
    let mut buf = Vec::new();
    loop {
        match read_frame_into(&mut stream, &mut buf) {
            Ok((frame, bytes)) => {
                if sender
                    .send(ConnEvent::Frame {
                        worker,
                        frame,
                        bytes,
                    })
                    .is_err()
                {
                    // The job finished and dropped its receiver.
                    break;
                }
            }
            Err(e) => {
                let error = (!matches!(e, WireError::Closed)).then_some(e);
                let _ = sender.send(ConnEvent::Closed { worker, error });
                break;
            }
        }
    }
}
