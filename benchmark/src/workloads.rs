//! The four workloads. All share one base scenario — rule `krum`, attack
//! `sign-flip:scale=3`, estimator `gaussian-quadratic` with σ = 0.2,
//! constant γ = 0.1, start `(1, …, 1)`, evaluation on the first and last
//! round — and vary it along what the layers depend on: cluster size against
//! dimension, the execution model, the wire and the codec. The reason each
//! one exists is in the crate docs (`main.rs`).

use krum_attacks::AttackSpec;
use krum_compress::CompressionSpec;
use krum_core::RuleSpec;
use krum_dist::{LatencyModel, LearningRateSchedule, NetworkModel};
use krum_models::EstimatorSpec;
use krum_scenario::{ExecutionSpec, ScenarioBuilder, ScenarioError, ScenarioSpec};

/// One benchmark workload. A run is a series of sessions; each session is a
/// fresh set-up followed by `session_rounds` rounds of the same spec, so
/// every session of a run follows the same trajectory.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    n: usize,
    f: usize,
    dim: usize,
    execution: ExecutionSpec,
    compression: Option<CompressionSpec>,
    /// Served through `run_loopback` (sockets, framing, worker threads)
    /// instead of stepped in-process.
    pub served: bool,
    pub session_rounds: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc-e10",
        n: 40,
        f: 4,
        dim: 1_000,
        execution: ExecutionSpec::Sequential,
        compression: None,
        served: false,
        session_rounds: 500,
    },
    Workload {
        name: "inproc-wide-async",
        n: 400,
        f: 40,
        dim: 64,
        execution: ExecutionSpec::AsyncQuorum {
            quorum: 380,
            max_staleness: 2,
            network: NetworkModel {
                latency: LatencyModel::Pareto {
                    min_nanos: 50_000,
                    alpha: 1.1,
                },
                nanos_per_byte: 0.05,
            },
            reuse_stale: false,
        },
        compression: None,
        served: false,
        session_rounds: 500,
    },
    Workload {
        name: "loopback-e10",
        n: 40,
        f: 4,
        dim: 1_000,
        execution: ExecutionSpec::Sequential,
        compression: None,
        served: true,
        session_rounds: 250,
    },
    Workload {
        name: "loopback-bfp12",
        n: 40,
        f: 4,
        dim: 1_000,
        execution: ExecutionSpec::Sequential,
        compression: Some(CompressionSpec::Bfp {
            block: 64,
            bits: 12,
        }),
        served: true,
        session_rounds: 300,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The in-process scenario of this workload; for a served workload, the
    /// in-process twin of what the server runs.
    pub fn spec(&self, seed: u64, rounds: usize) -> Result<ScenarioSpec, ScenarioError> {
        let mut builder = ScenarioBuilder::new(self.n, self.f)
            .name(self.name)
            .rule(RuleSpec::Krum)
            .attack(AttackSpec::SignFlip { scale: 3.0 })
            .estimator(EstimatorSpec::GaussianQuadratic {
                dim: self.dim,
                sigma: 0.2,
            })
            .schedule(LearningRateSchedule::Constant { gamma: 0.1 })
            .rounds(rounds)
            .eval_every(rounds)
            .seed(seed)
            .init_fill(1.0);
        if let Some(codec) = self.compression {
            builder = builder.compression(codec);
        }
        let mut spec = builder.spec()?;
        spec.execution = self.execution;
        Ok(spec)
    }

    /// What `run_loopback` serves: the twin spec behind a remote barrier.
    pub fn served_spec(&self, seed: u64, rounds: usize) -> Result<ScenarioSpec, ScenarioError> {
        let mut spec = self.spec(seed, rounds)?;
        spec.execution = ExecutionSpec::remote(None, 0);
        Ok(spec)
    }
}
