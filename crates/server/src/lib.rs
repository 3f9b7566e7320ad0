//! # krum-server
//!
//! The networked face of the reproduction: a Byzantine-tolerant
//! **aggregation service** where Blanchard et al.'s parameter server is an
//! actual server — proposals arrive as length-framed bytes on TCP sockets
//! (`krum-wire`), rounds close on **real arrival order**, and many training
//! jobs run concurrently in one process. Hand-rolled on `std::net` +
//! threads, consistent with the workspace's vendored-only policy.
//!
//! ## Architecture
//!
//! ```text
//!  krum worker ──Hello──▶ ┌───────────────────────────────┐
//!  krum worker ──Hello──▶ │ Server (accept + handshake)   │
//!       …                 │   ├── JobSlot 0 ──────────────┼──▶ job thread
//!                         │   ├── JobSlot 1 … K-1         │    broadcast ▶
//!  reader thread per conn │   └── (JobAssign: slot, seed, │    collect ◀
//!  feeds the job channel  │        scenario JSON)         │    relay ▶ close
//!                         └───────────────────────────────┘    RoundCore
//! ```
//!
//! * [`Server`] accepts connections, checks the wire-protocol version, and
//!   staffs jobs first-fit; each job starts the moment its roster fills.
//! * Each **job** runs the round state machine of [`job`](self): broadcast
//!   `x_t`, collect proposals in real arrival order, relay the honest
//!   proposals to the adversary connection (the paper's omniscient
//!   adversary as bytes), close the round at the full barrier or at the
//!   configured quorum through the [`Quorum`](krum_dist::Quorum) machine
//!   the in-process async engine drives too, and aggregate through the same
//!   [`RoundCore`](krum_dist::RoundCore) the in-process engine uses.
//! * [`WorkerClient`] is the other end of the socket: an honest worker
//!   rebuilds its estimator (and RNG stream) from the assigned scenario,
//!   the adversary connection rebuilds the registered attack and controls
//!   all `f` Byzantine slots.
//! * [`run_loopback`] wires server + workers in one process over localhost
//!   sockets — with a full barrier the trajectory is **bit-identical** to
//!   the in-process [`Scenario::run`](krum_scenario::Scenario) for the
//!   same spec (the determinism contract of the subsystem, pinned by
//!   `tests/loopback_determinism.rs`). Timing-sensitive adversaries
//!   (`last-to-respond`) observe real rather than simulated arrival
//!   order, so only their observation *order* may differ.
//!
//! The per-round wire cost is visible in the metrics: the `wire_bytes` and
//! `arrival_nanos` columns of
//! [`RoundRecord`](krum_metrics::RoundRecord) are filled by this subsystem
//! only, and `BENCH_server_loopback.json` records loopback overhead vs the
//! in-process engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod checkpoint;
mod error;
mod job;
mod loopback;
mod server;
mod worker;

pub use chaos::{run_chaos, ChaosOptions, ChaosOutcome, ChaosProxy};
pub use checkpoint::CheckpointConfig;
pub use error::ServerError;
pub use loopback::{run_loopback, run_loopback_jobs};
pub use server::{JobOutcome, Server};
pub use worker::{run_worker, WorkerClient, WorkerSession, WorkerSummary};

/// Convenience prelude for the server crate.
pub mod prelude {
    pub use crate::{
        run_chaos, run_loopback, run_loopback_jobs, run_worker, ChaosOptions, ChaosOutcome,
        ChaosProxy, CheckpointConfig, JobOutcome, Server, ServerError, WorkerClient, WorkerSession,
        WorkerSummary,
    };
}
