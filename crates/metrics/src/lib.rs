//! # krum-metrics
//!
//! Round-level telemetry for the Krum reproduction.
//!
//! Every experiment in EXPERIMENTS.md is regenerated from the numeric series
//! produced here: a [`RoundRecord`] per synchronous round, collected into a
//! [`TrainingHistory`], summarised by [`SelectionStats`] (how often the
//! aggregation rule picked a Byzantine proposal) and exported as CSV or JSON
//! for the tables in the write-up.
//!
//! [`RoundRecord::COLUMNS`] is the one statement of the per-round schema:
//! each column's name, whether it belongs to the bit-identity contract, and
//! the writer of its CSV cell. [`to_csv`] renders the table from it, and
//! [`TrainingHistory::trajectory_mismatch`] compares two runs on its 13
//! trajectory columns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod history;
mod round;
mod selection;

pub use export::{to_csv, to_json, ExportError};
pub use history::{ConvergenceSummary, TrainingHistory};
pub use round::{Column, RoundRecord};
pub use selection::SelectionStats;

/// Convenience prelude for the metrics crate.
pub mod prelude {
    pub use crate::{
        to_csv, to_json, ConvergenceSummary, ExportError, RoundRecord, SelectionStats,
        TrainingHistory,
    };
}
