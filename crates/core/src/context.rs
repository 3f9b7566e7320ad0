//! The reusable aggregation workspace.
//!
//! The paper's server loop applies `F(V_1, …, V_n)` every round, so at
//! production scale the aggregation path runs millions of times. Allocating
//! the Gram matrix, score buffers and transposed column blocks on every call
//! turns the hot path into an allocator benchmark; [`AggregationContext`]
//! owns all of that scratch once and lets every rule reuse it through
//! [`Aggregator::aggregate_in`](crate::Aggregator::aggregate_in).
//!
//! The contract: after the context has warmed up on a given proposal shape
//! `(n, d)`, repeated aggregations of that shape perform **zero heap
//! allocations** whenever they stay on the calling thread: always under
//! [`ExecutionPolicy::Sequential`], and under the default
//! [`ExecutionPolicy::Auto`] for every pass below [`PARALLEL_WORK`]
//! multiply-adds (the `allocation_regression` integration test pins both for
//! Krum, Multi-Krum, closest-to-barycenter, the coordinate-wise median and
//! the hierarchical rule). Buffers only grow, so mixing shapes is correct —
//! the workspace simply settles at the high-water mark.
//!
//! A fan-out over the `rayon` pool spawns scoped threads and allocates their
//! bookkeeping. The policy lives on the context so callers that need the
//! allocation-free guarantee at any size (or deterministic single-thread
//! profiling) can force [`ExecutionPolicy::Sequential`]. Every policy
//! produces the same bits.

use krum_tensor::Vector;

use crate::aggregator::Aggregation;
use crate::hierarchical::HierWorkspace;
use crate::kernel;
use crate::stateful::StatefulState;

/// Multiply-adds at or above which [`ExecutionPolicy::Auto`] fans a pass out
/// over the `rayon` pool: 2^27, about 1.3e8.
///
/// A pass is priced by its shape alone: `n(n−1)/2·d` for the pairwise
/// distances, `n·d` for the coordinate-wise column reductions, and the
/// groups' summed pairwise work for the hierarchical rule. The threshold
/// favours CPU per round over the latency of one call. A scoped spawn of
/// two threads costs tens to hundreds of µs, and the serial mirror and
/// scoring passes cap what the second core can win. Measured on a 2-vCPU
/// host, warm Krum on two threads took 1.18× the one-thread wall time at
/// 40 × 1000 and 0.99× at 380 × 64, and at best 0.69× (200 × 1000) below
/// the threshold, for twice the cores. From 2^27 a sequential call takes
/// tens of milliseconds, and two threads cut it by a quarter or more
/// (4000 × 64: 340 → 246 ms). So every per-round shape of the benchmark and
/// the smoke scenarios stays on the calling thread, and flat Krum at
/// 4000 × 64 still fans out.
pub const PARALLEL_WORK: usize = 1 << 27;

/// How a rule may spread its work across the `rayon` pool. Every policy
/// produces the same bits; the policy decides only where they are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPolicy {
    /// Fan out only passes of at least [`PARALLEL_WORK`] multiply-adds, and
    /// only on a host with more than one thread (the default, and the policy
    /// of the allocation-per-call API). Smaller passes run on the calling
    /// thread and allocate nothing once warm.
    #[default]
    Auto,
    /// Never use the thread pool: the zero-allocation guarantee at every
    /// size, and the reference the property tests pin against.
    Sequential,
    /// Always fan out, even for small inputs (useful for testing the
    /// parallel path deterministically).
    Parallel,
}

impl ExecutionPolicy {
    /// Whether a pass of `work` multiply-adds should use the pool. The thread
    /// count is consulted only once the work clears [`PARALLEL_WORK`].
    pub(crate) fn use_parallel(self, work: usize) -> bool {
        match self {
            Self::Sequential => false,
            Self::Parallel => true,
            Self::Auto => work >= PARALLEL_WORK && rayon::current_num_threads() > 1,
        }
    }
}

/// Reusable per-`(n, d)` workspace for aggregation rules.
///
/// Create one per server (or per thread), hand it to
/// [`Aggregator::aggregate_in`](crate::Aggregator::aggregate_in) every round,
/// and read the result through [`AggregationContext::output`]. All scratch —
/// the Gram/distance matrix, score and index buffers, the transposed column
/// blocks of the coordinate-wise rules, and the output [`Aggregation`]
/// itself — is retained between calls.
///
/// # Example
///
/// ```
/// use krum_core::{AggregationContext, Aggregator, Krum};
/// use krum_tensor::Vector;
///
/// let krum = Krum::new(5, 1).unwrap();
/// let proposals = vec![Vector::filled(3, 1.0); 5];
/// let mut ctx = AggregationContext::new();
/// for _round in 0..10 {
///     krum.aggregate_in(&mut ctx, &proposals).unwrap();
///     assert_eq!(ctx.output().selected_index(), Some(0));
/// }
/// ```
#[derive(Debug)]
pub struct AggregationContext {
    policy: ExecutionPolicy,
    /// Flattened `n × n` pairwise squared-distance (Gram) matrix.
    pub(crate) distances: Vec<f64>,
    /// Cached squared norms `‖V_i‖²` (length `n`).
    pub(crate) norms: Vec<f64>,
    /// Per-proposal scores (length `n`).
    pub(crate) scores: Vec<f64>,
    /// Selection scratch row (length `n − 1`).
    pub(crate) scratch: Vec<f64>,
    /// Index-ordering buffer (length `n`).
    pub(crate) order: Vec<usize>,
    /// Subset-enumeration scratch for the minimum-diameter rule.
    pub(crate) subset: Vec<usize>,
    /// Transposed column block for the coordinate-wise rules
    /// (`n × block_columns` values, column-major per coordinate).
    pub(crate) columns: Vec<f64>,
    /// Dimension-sized scratch (Weiszfeld numerator, …).
    pub(crate) coords: Vec<f64>,
    /// The output record rules write into (public access via
    /// [`AggregationContext::output`]; `pub(crate)` so rules can borrow it
    /// disjointly from the scratch buffers).
    pub(crate) output: Aggregation,
    /// Per-slot generation counters the cached Gram matrix was computed for
    /// (empty when no cache is live).
    gram_generations: Vec<u64>,
    /// Shape `(n, dim)` the cached Gram matrix is valid for.
    gram_shape: (usize, usize),
    /// Whether `distances`/`norms` hold a matrix consistent with
    /// `gram_generations` (cleared whenever a pairwise pass runs without
    /// generation bookkeeping).
    gram_valid: bool,
    /// One-shot generations for the *next* pairwise pass (see
    /// [`AggregationContext::set_generations`]).
    pending_generations: Vec<u64>,
    /// Whether `pending_generations` was armed since the last pairwise pass.
    pending_armed: bool,
    /// Change-flag scratch for the incremental path (length `n`).
    gram_changed: Vec<bool>,
    /// Lazily created workspace for the hierarchical rule (boxed: most
    /// contexts never aggregate hierarchically).
    pub(crate) hier: Option<Box<HierWorkspace>>,
    /// Cross-round memory of the stateful rules (boxed: most contexts never
    /// run one). Installed lazily on first stateful aggregation; survives
    /// rounds and is exportable for checkpointing.
    pub(crate) stateful: Option<Box<StatefulState>>,
    /// Worker id behind each proposal slot of the next aggregation, declared
    /// by the engine via [`AggregationContext::set_slot_workers`]. Empty (or
    /// arity-mismatched) means slot `i` *is* worker `i`.
    pub(crate) slot_workers: Vec<usize>,
}

impl Default for AggregationContext {
    fn default() -> Self {
        Self::new()
    }
}

impl AggregationContext {
    /// Creates an empty workspace with the [`ExecutionPolicy::Auto`] policy.
    /// Buffers are grown lazily on first use.
    pub fn new() -> Self {
        Self::with_policy(ExecutionPolicy::Auto)
    }

    /// Creates an empty workspace with an explicit execution policy.
    pub fn with_policy(policy: ExecutionPolicy) -> Self {
        Self {
            policy,
            distances: Vec::new(),
            norms: Vec::new(),
            scores: Vec::new(),
            scratch: Vec::new(),
            order: Vec::new(),
            subset: Vec::new(),
            columns: Vec::new(),
            coords: Vec::new(),
            output: Aggregation::mixed(Vector::zeros(0)),
            gram_generations: Vec::new(),
            gram_shape: (0, 0),
            gram_valid: false,
            pending_generations: Vec::new(),
            pending_armed: false,
            gram_changed: Vec::new(),
            hier: None,
            stateful: None,
            slot_workers: Vec::new(),
        }
    }

    /// The execution policy rules consult when deciding whether to fan out.
    pub fn policy(&self) -> ExecutionPolicy {
        self.policy
    }

    /// Changes the execution policy (buffers are kept).
    pub fn set_policy(&mut self, policy: ExecutionPolicy) {
        self.policy = policy;
    }

    /// The result of the most recent [`aggregate_in`] call.
    ///
    /// [`aggregate_in`]: crate::Aggregator::aggregate_in
    pub fn output(&self) -> &Aggregation {
        &self.output
    }

    /// Consumes the workspace and returns its most recent result. Used by
    /// the allocation-per-call wrappers; steady-state callers should keep
    /// the context alive and read [`AggregationContext::output`] instead.
    pub fn into_output(self) -> Aggregation {
        self.output
    }

    /// Replaces the output wholesale (the default [`aggregate_in`] bridge for
    /// rules that only implement the allocating entry point).
    ///
    /// [`aggregate_in`]: crate::Aggregator::aggregate_in
    pub fn set_output(&mut self, output: Aggregation) {
        self.output = output;
    }

    /// Resets the output for a selection-free (mixing) rule: `value` becomes
    /// a zero vector of dimension `dim`, `selected`/`scores` are cleared.
    /// Never allocates once the buffers have reached `dim` capacity.
    pub(crate) fn begin_mixed(&mut self, dim: usize) -> &mut Vector {
        self.output.selected.clear();
        self.output.scores.clear();
        self.output.reset_value(dim)
    }

    /// Cross-round state of the stateful rules, `None` until one has run in
    /// this context (or until a state was installed via
    /// [`AggregationContext::set_stateful_state`]).
    pub fn stateful_state(&self) -> Option<&StatefulState> {
        self.stateful.as_deref()
    }

    /// Installs (or clears, with `None`) the stateful-rule memory — the
    /// checkpoint-resume path: exporting `stateful_state().cloned()` before a
    /// crash and re-installing it here reproduces the trajectory
    /// bit-identically.
    pub fn set_stateful_state(&mut self, state: Option<StatefulState>) {
        self.stateful = state.map(Box::new);
    }

    /// Declares the worker id behind each proposal slot of the *next*
    /// aggregation, so per-worker state (reputation weights) follows workers
    /// through changing quorum compositions. The map is consulted only when
    /// its length matches the proposal count; engines whose slot order *is*
    /// the worker order can skip this entirely.
    pub fn set_slot_workers(&mut self, workers: &[usize]) {
        self.slot_workers.clear();
        self.slot_workers.extend_from_slice(workers);
    }

    /// Arms the generation-keyed Gram cache for the *next* aggregation:
    /// `generations[i]` is a counter the caller bumps whenever proposal `i`
    /// changes. When the next pairwise-distance pass sees the same shape and
    /// a matching generation vector length, it recomputes only the norms and
    /// distance rows of slots whose generation moved — bit-identical to a
    /// full recomputation (pinned by the kernel property tests). The arming
    /// is one-shot: a pass without a preceding `set_generations` call falls
    /// back to the full kernel and invalidates the cache, so interleaving
    /// cached and uncached callers is always correct, merely slower.
    ///
    /// The very first armed pass (or any pass after a shape change) computes
    /// the full matrix and records the generations; steady-state AsyncQuorum
    /// rounds, where only the fresh quorum arrivals moved, then pay
    /// `O(q·n·d)` instead of `O(n²·d)`.
    pub fn set_generations(&mut self, generations: &[u64]) {
        self.pending_generations.clear();
        self.pending_generations.extend_from_slice(generations);
        self.pending_armed = true;
    }

    /// Drops any cached Gram state (the next pairwise pass recomputes fully).
    pub fn invalidate_gram_cache(&mut self) {
        self.gram_valid = false;
        self.pending_armed = false;
        self.gram_generations.clear();
    }

    /// Cached-norm pairwise distances into the context's own
    /// `norms`/`distances` buffers, honouring the generation cache armed via
    /// [`AggregationContext::set_generations`]. This is the single pairwise
    /// entry every Gram-based rule goes through, and the policy decides its
    /// fan-out from the pass's [`kernel::pairwise_work`].
    pub(crate) fn pairwise_distances_cached(&mut self, proposals: &[Vector]) {
        let n = proposals.len();
        let dim = proposals.first().map_or(0, Vector::dim);
        let armed = std::mem::take(&mut self.pending_armed);
        let reusable = armed
            && self.gram_valid
            && self.gram_shape == (n, dim)
            && self.pending_generations.len() == n
            && self.gram_generations.len() == n;
        if reusable {
            self.gram_changed.clear();
            self.gram_changed.extend(
                self.gram_generations
                    .iter()
                    .zip(&self.pending_generations)
                    .map(|(old, new)| old != new),
            );
            kernel::pairwise_squared_distances_update(
                proposals,
                &mut self.norms,
                &mut self.distances,
                &self.gram_changed,
            );
        } else {
            kernel::pairwise_squared_distances_into(
                proposals,
                &mut self.norms,
                &mut self.distances,
                self.policy.use_parallel(kernel::pairwise_work(n, dim)),
            );
        }
        if armed {
            self.gram_shape = (n, dim);
            self.gram_valid = true;
            std::mem::swap(&mut self.gram_generations, &mut self.pending_generations);
        } else {
            self.gram_valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregator, Krum};

    #[test]
    fn policy_controls_fanout_decision() {
        assert!(!ExecutionPolicy::Sequential.use_parallel(usize::MAX));
        assert!(ExecutionPolicy::Parallel.use_parallel(0));
        let auto = ExecutionPolicy::Auto;
        assert!(!auto.use_parallel(PARALLEL_WORK - 1));
        assert_eq!(
            auto.use_parallel(PARALLEL_WORK),
            rayon::current_num_threads() > 1
        );
        assert_eq!(ExecutionPolicy::default(), ExecutionPolicy::Auto);
    }

    /// The per-round shapes of the benchmark and the smoke scenarios stay on
    /// the calling thread under `Auto`; flat Krum at 4000 × 64 does not.
    #[test]
    fn auto_fans_out_only_past_the_work_threshold() {
        let pairwise = |n: usize, dim: usize| kernel::pairwise_work(n, dim);
        assert_eq!(pairwise(40, 1000), 780_000);
        for work in [pairwise(40, 1000), pairwise(380, 64), 16 * pairwise(64, 8)] {
            assert!(work < PARALLEL_WORK, "{work}");
        }
        assert!(pairwise(4000, 64) >= PARALLEL_WORK);
        assert_eq!(pairwise(0, 64), 0);
        assert_eq!(pairwise(1, 64), 0);
    }

    #[test]
    fn context_reuse_matches_fresh_contexts() {
        let krum = Krum::new(5, 1).unwrap();
        let proposals: Vec<Vector> = (0..5).map(|i| Vector::filled(4, i as f64 * 0.25)).collect();
        let mut reused = AggregationContext::with_policy(ExecutionPolicy::Sequential);
        for _ in 0..3 {
            krum.aggregate_in(&mut reused, &proposals).unwrap();
            let fresh = krum.aggregate_detailed(&proposals).unwrap();
            assert_eq!(reused.output(), &fresh);
        }
    }

    #[test]
    fn policy_is_adjustable_and_buffers_survive() {
        let krum = Krum::new(5, 1).unwrap();
        let proposals: Vec<Vector> = (0..5).map(|i| Vector::filled(3, i as f64)).collect();
        let mut ctx = AggregationContext::new();
        krum.aggregate_in(&mut ctx, &proposals).unwrap();
        let sequential = ctx.output().clone();
        ctx.set_policy(ExecutionPolicy::Parallel);
        assert_eq!(ctx.policy(), ExecutionPolicy::Parallel);
        krum.aggregate_in(&mut ctx, &proposals).unwrap();
        assert_eq!(ctx.output(), &sequential);
    }

    #[test]
    fn into_output_hands_back_the_result() {
        let krum = Krum::new(5, 1).unwrap();
        let proposals: Vec<Vector> = (0..5).map(|i| Vector::filled(2, i as f64)).collect();
        let mut ctx = AggregationContext::new();
        krum.aggregate_in(&mut ctx, &proposals).unwrap();
        let expected = ctx.output().clone();
        assert_eq!(ctx.into_output(), expected);
    }
}
