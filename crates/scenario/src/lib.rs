//! # krum-scenario
//!
//! The declarative scenario API of the Krum reproduction: one serialisable
//! value — a [`ScenarioSpec`] — describes a full experiment (cluster shape,
//! aggregation rule, Byzantine strategy, workload, schedule, execution
//! model, seed, probes), and one call — [`Scenario::run`] — executes it and
//! returns a [`ScenarioReport`] (final parameters, per-round history with
//! phase timings, exports).
//!
//! The paper's evaluation is a grid over `(rule F, attack, (n, f), model,
//! schedule)`; this crate makes each grid cell a first-class value instead
//! of a hand-assembled binary, so sweeps can be driven by data (JSON files,
//! the `krum` CLI, loops over typed specs). Three construction paths produce
//! **bit-identical parameter trajectories** for the same field values,
//! because everything random derives from the spec's seed:
//!
//! * a JSON file through [`Scenario::from_json`] (what `krum run` does),
//! * the fluent [`ScenarioBuilder`],
//! * a hand-wired `RoundEngine` (the scenario wires the same engine
//!   underneath).
//!
//! Validation is front-loaded: [`ScenarioSpec::validate`] cross-checks every
//! constraint (Krum's `2f + 2 < n`, attack and workload parameter ranges,
//! the evaluation cadence, network finiteness) before any data is generated
//! or any round runs.
//!
//! ## Example
//!
//! ```
//! use krum_scenario::ScenarioBuilder;
//! use krum_attacks::AttackSpec;
//! use krum_models::EstimatorSpec;
//!
//! let report = ScenarioBuilder::new(15, 4)
//!     .attack(AttackSpec::SignFlip { scale: 5.0 })
//!     .estimator(EstimatorSpec::GaussianQuadratic { dim: 20, sigma: 0.2 })
//!     .rounds(50)
//!     .seed(42)
//!     .init_fill(3.0)
//!     .run()?;
//! assert!(report.summary().final_loss.unwrap() < report.summary().initial_loss.unwrap());
//! # Ok::<(), krum_scenario::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod faults;
mod report;
mod scenario;
mod spec;

pub use builder::ScenarioBuilder;
pub use error::ScenarioError;
pub use faults::{FaultAction, FaultPlan, FaultSpec, MAX_FAULT_DELAY_MILLIS};
pub use krum_dist::CrashPolicy;
pub use report::{escape_metadata, ScenarioReport};
pub use scenario::Scenario;
pub use spec::{
    ExecutionSpec, InitSpec, ProbeSpec, RemoteTimeouts, ScenarioSpec,
    DEFAULT_HANDSHAKE_TIMEOUT_SECS, DEFAULT_HEARTBEAT_SECS, DEFAULT_ROUND_TIMEOUT_SECS,
    DEFAULT_STAFFING_TIMEOUT_SECS, EXECUTION_NAMES,
};

/// Convenience prelude for the scenario crate.
pub mod prelude {
    pub use crate::{
        CrashPolicy, ExecutionSpec, FaultAction, FaultPlan, FaultSpec, InitSpec, ProbeSpec,
        RemoteTimeouts, Scenario, ScenarioBuilder, ScenarioError, ScenarioReport, ScenarioSpec,
    };
}
