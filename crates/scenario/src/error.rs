//! Error type for the scenario API.

use krum_attacks::AttackError;
use krum_core::AggregationError;
use krum_dist::TrainError;
use krum_models::ModelError;
use thiserror::Error;

/// Errors raised while parsing, validating, building or running a scenario.
#[derive(Debug, Error)]
pub enum ScenarioError {
    /// The scenario specification is internally inconsistent.
    #[error("invalid scenario: {0}")]
    InvalidSpec(String),
    /// The aggregation rule rejected its configuration or the proposals.
    #[error("aggregation rule: {0}")]
    Rule(#[from] AggregationError),
    /// The Byzantine strategy rejected its configuration or the round.
    #[error("attack: {0}")]
    Attack(#[from] AttackError),
    /// The workload (model/data/estimators) rejected its configuration.
    #[error("workload: {0}")]
    Model(#[from] ModelError),
    /// The training engine rejected its configuration or failed mid-run.
    #[error("training engine: {0}")]
    Train(#[from] TrainError),
    /// A scenario file or report failed to (de)serialise.
    #[error("serialisation: {0}")]
    Json(#[from] serde_json::Error),
    /// Reading or writing a scenario/report file failed.
    #[error("io: {0}")]
    Io(#[from] std::io::Error),
}

impl ScenarioError {
    /// Convenience constructor for [`ScenarioError::InvalidSpec`].
    pub fn invalid(message: impl Into<String>) -> Self {
        Self::InvalidSpec(message.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<ScenarioError>();
        let e = ScenarioError::invalid("rounds must be >= 1");
        assert!(e.to_string().contains("invalid scenario"));
        let e: ScenarioError = AggregationError::NoProposals.into();
        assert!(matches!(e, ScenarioError::Rule(_)));
        let e: ScenarioError = TrainError::config("nope").into();
        assert!(e.to_string().contains("nope"));
    }
}
