//! # krum-core
//!
//! Aggregation (choice) functions for Byzantine-tolerant distributed SGD —
//! the contribution of *Brief Announcement: Byzantine-Tolerant Machine
//! Learning* (Blanchard, El Mhamdi, Guerraoui, Stainer, PODC 2017).
//!
//! The parameter server collects one proposal vector per worker and applies a
//! choice function `F(V_1, …, V_n)`. This crate implements:
//!
//! * [`Krum`] — the paper's rule: score each proposal by the summed squared
//!   distance to its `n − f − 2` closest neighbours and select the minimiser
//!   (ties broken towards the smallest worker id, per footnote 3);
//! * [`MultiKrum`] — the full-version extension averaging the `m` best-scored
//!   proposals;
//! * baselines the paper argues about: [`Average`] and [`WeightedAverage`]
//!   (the linear rules of Lemma 3.1), [`ClosestToBarycenter`] (the
//!   distance-based rule defeated by the Figure-2 collusion),
//!   [`MinimumDiameterSubset`] (the exponential majority-based rule of the
//!   introduction), plus the classical robust statistics
//!   [`CoordinateWiseMedian`], [`TrimmedMean`] and [`GeometricMedian`];
//! * **stateful defenses** against multi-round adaptive adversaries:
//!   [`ReputationWeighted`] (per-worker EWMA reputation weights) and
//!   [`CenteredClip`] (momentum-anchored clipping), whose cross-round
//!   memory lives in the [`AggregationContext`] as a checkpointable
//!   [`StatefulState`] (see the [`StatefulAggregator`] layer trait);
//! * the [`resilience`] module — an empirical estimator of the
//!   `(α, f)`-Byzantine-resilience condition of Definition 3.2 and the
//!   `η(n, f)` constant of Proposition 4.2.
//!
//! Every rule exposes two entry points: the allocation-per-call
//! [`Aggregator::aggregate_detailed`] / [`Aggregator::aggregate`], and the
//! workspace-backed [`Aggregator::aggregate_in`] which reuses an
//! [`AggregationContext`] so steady-state rounds perform zero heap
//! allocations (see the `context` module docs for the exact contract).
//!
//! Rules are also constructible from a typed, serde round-trippable
//! [`RuleSpec`] (or its textual form such as `"multi-krum:m=8"` via
//! [`build_aggregator`]) — the registry the scenario API and the `krum`
//! CLI drive.
//!
//! ## Example
//!
//! ```
//! use krum_core::{Aggregator, Krum};
//! use krum_tensor::Vector;
//!
//! // n = 5 workers, f = 1 Byzantine.
//! let proposals = vec![
//!     Vector::from(vec![1.0, 1.0]),
//!     Vector::from(vec![1.1, 0.9]),
//!     Vector::from(vec![0.9, 1.1]),
//!     Vector::from(vec![1.0, 0.95]),
//!     Vector::from(vec![-50.0, 80.0]), // Byzantine outlier
//! ];
//! let krum = Krum::new(5, 1).unwrap();
//! let chosen = krum.aggregate(&proposals).unwrap();
//! assert!(chosen.distance(&Vector::from(vec![1.0, 1.0])) < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregator;
mod average;
mod context;
mod distance;
mod error;
mod hierarchical;
mod kernel;
mod krum;
mod median;
mod registry;
pub mod resilience;
mod stateful;
mod subset;

/// The pre-optimization (per-pair, sort-based) Krum reference path, exposed
/// for benchmarks comparing it against the cached-norm kernel, and the bit
/// oracles of the kernel's dot product and Gram matrix. Enable the `naive`
/// feature to use it.
#[cfg(feature = "naive")]
pub mod naive {
    pub use crate::kernel::naive::{
        dot, gram_squared_distances, krum_choose, krum_scores, pairwise_squared_distances,
    };
}

pub use aggregator::{validate_proposals, Aggregation, Aggregator};
pub use average::{Average, WeightedAverage};
pub use context::{AggregationContext, ExecutionPolicy, PARALLEL_WORK};
pub use distance::{ClosestToBarycenter, GeometricMedian};
pub use error::AggregationError;
pub use hierarchical::{Hierarchical, StageRule};
pub use kernel::dot as ilp_dot;
pub use krum::{Krum, MultiKrum};
pub use median::{CoordinateWiseMedian, TrimmedMean};
pub use registry::{build_aggregator, RuleSpec, RULE_NAMES};
pub use resilience::{
    eta, hierarchical_bounds, krum_sin_alpha, HierarchicalBounds, ResilienceCheck,
    ResilienceEstimator,
};
pub use stateful::{CenteredClip, ReputationWeighted, StatefulAggregator, StatefulState};
pub use subset::MinimumDiameterSubset;

/// Convenience prelude for the aggregation crate.
pub mod prelude {
    pub use crate::{
        Aggregation, AggregationContext, AggregationError, Aggregator, Average, CenteredClip,
        ClosestToBarycenter, CoordinateWiseMedian, ExecutionPolicy, GeometricMedian, Hierarchical,
        Krum, MinimumDiameterSubset, MultiKrum, ReputationWeighted, RuleSpec, StageRule,
        StatefulAggregator, StatefulState, TrimmedMean, WeightedAverage,
    };
}
