//! Hierarchical (group-sharded) aggregation — the `O(n²·d)` escape hatch.
//!
//! Flat Krum prices every round at `O(n²·d)` (Lemma 4.1), which caps
//! practical cluster sizes in the low hundreds. [`Hierarchical`] shards the
//! `n` workers into `g` deterministic groups (round-robin: worker `w` joins
//! group `w mod g`), runs an *inner* rule independently per group (fanned
//! out across the `rayon` pool once the groups' summed pairwise work reaches
//! [`PARALLEL_WORK`](crate::PARALLEL_WORK)), then runs an *outer* rule over
//! the `g` group winners. With `g ≈ √n` the pairwise work drops from `n²` to
//! `≈ n²/g + g²` distance computations — the aggregation-tree architecture
//! real robust-aggregation services use to bound this cost.
//!
//! Round-robin sharding is what makes the Byzantine accounting tractable:
//! the engine places the `f` Byzantine workers at the top of the id range
//! (a contiguous block), and any `f` consecutive ids spread over the `g`
//! residue classes with at most `⌈f/g⌉` per class. Each group therefore
//! faces at most `f_g = ⌈f/g⌉` Byzantine members, and the inner rule is
//! built for `(n_g, f_g)` — Krum's `2·f_g + 2 < n_g` precondition is
//! enforced per group at construction (see
//! [`resilience::hierarchical_bounds`](crate::resilience::hierarchical_bounds)
//! for the derivation, including the outer-stage budget `⌊g·f/n⌋`).
//!
//! NaN containment matches the flat rules: a group whose round is fully
//! poisoned (all scores NaN) forfeits by submitting a NaN winner, which the
//! outer rule's NaN-safe selection then never picks; only when *every*
//! group is poisoned does the whole aggregation surface
//! [`AggregationError::AllScoresNonFinite`].

use std::fmt;
use std::str::FromStr;

use krum_tensor::Vector;
use rayon::prelude::*;

use crate::aggregator::{validate_proposals, Aggregator};
use crate::context::{AggregationContext, ExecutionPolicy};
use crate::error::AggregationError;
use crate::kernel;
use crate::registry::RuleSpec;
use crate::resilience::{hierarchical_bounds, HierarchicalBounds};

/// An aggregation rule usable as the inner or outer stage of
/// [`Hierarchical`] — every registry rule *except* `hierarchical` itself
/// (the type rules out nesting instead of checking for it at runtime).
///
/// Converts losslessly to and from the corresponding [`RuleSpec`] variants
/// and parses from the same textual forms (`"krum"`, `"multi-krum:m=4"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageRule {
    /// Plain averaging.
    Average,
    /// Uniformly weighted averaging.
    UniformWeightedAverage,
    /// The paper's Krum rule (the default for both stages).
    Krum,
    /// Multi-Krum (`None` → `m = n_g − f_g` at build time).
    MultiKrum {
        /// How many best-scored proposals to average (`None` → `n_g − f_g`).
        m: Option<usize>,
    },
    /// Coordinate-wise median.
    Median,
    /// Coordinate-wise trimmed mean (`None` → `trim = f_g` at build time).
    TrimmedMean {
        /// How many extremes to trim per coordinate side (`None` → `f_g`).
        trim: Option<usize>,
    },
    /// Geometric (spatial) median.
    GeometricMedian,
    /// The flawed closest-to-barycenter rule (for experiments).
    ClosestToBarycenter,
    /// The exponential minimum-diameter-subset rule.
    MinDiameterSubset,
    /// **Stateful**: per-worker EWMA reputation weighting. As a stage, the
    /// cross-round state lives in the per-group workspace — usable
    /// in-process, but not checkpointable (see
    /// [`RuleSpec::hierarchical_stateful`]).
    ReputationWeighted {
        /// EWMA step size `η ∈ (0, 1]`.
        eta: f64,
    },
    /// **Stateful**: momentum-anchored centered clipping (same
    /// checkpointing caveat as [`StageRule::ReputationWeighted`]).
    CenteredClip {
        /// Clipping radius `τ > 0`.
        tau: f64,
        /// Anchor momentum `β ∈ [0, 1)`.
        beta: f64,
    },
}

impl StageRule {
    /// The equivalent top-level rule spec.
    pub fn to_rule(self) -> RuleSpec {
        match self {
            Self::Average => RuleSpec::Average,
            Self::UniformWeightedAverage => RuleSpec::UniformWeightedAverage,
            Self::Krum => RuleSpec::Krum,
            Self::MultiKrum { m } => RuleSpec::MultiKrum { m },
            Self::Median => RuleSpec::Median,
            Self::TrimmedMean { trim } => RuleSpec::TrimmedMean { trim },
            Self::GeometricMedian => RuleSpec::GeometricMedian,
            Self::ClosestToBarycenter => RuleSpec::ClosestToBarycenter,
            Self::MinDiameterSubset => RuleSpec::MinDiameterSubset,
            Self::ReputationWeighted { eta } => RuleSpec::ReputationWeighted { eta },
            Self::CenteredClip { tau, beta } => RuleSpec::CenteredClip { tau, beta },
        }
    }

    /// Whether this stage carries cross-round state (see
    /// [`RuleSpec::stateful`]).
    pub fn stateful(self) -> bool {
        matches!(
            self,
            Self::ReputationWeighted { .. } | Self::CenteredClip { .. }
        )
    }

    /// The stage form of a top-level spec; `None` when `rule` is itself
    /// hierarchical (stages do not nest).
    pub fn from_rule(rule: RuleSpec) -> Option<Self> {
        match rule {
            RuleSpec::Average => Some(Self::Average),
            RuleSpec::UniformWeightedAverage => Some(Self::UniformWeightedAverage),
            RuleSpec::Krum => Some(Self::Krum),
            RuleSpec::MultiKrum { m } => Some(Self::MultiKrum { m }),
            RuleSpec::Median => Some(Self::Median),
            RuleSpec::TrimmedMean { trim } => Some(Self::TrimmedMean { trim }),
            RuleSpec::GeometricMedian => Some(Self::GeometricMedian),
            RuleSpec::ClosestToBarycenter => Some(Self::ClosestToBarycenter),
            RuleSpec::MinDiameterSubset => Some(Self::MinDiameterSubset),
            RuleSpec::ReputationWeighted { eta } => Some(Self::ReputationWeighted { eta }),
            RuleSpec::CenteredClip { tau, beta } => Some(Self::CenteredClip { tau, beta }),
            RuleSpec::Hierarchical { .. } => None,
        }
    }

    /// Builds the stage rule for a stage of `n` inputs with `f` Byzantine.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] when the stage shape is
    /// infeasible for the rule (e.g. Krum with `2f + 2 ≥ n`).
    pub fn build(self, n: usize, f: usize) -> Result<Box<dyn Aggregator>, AggregationError> {
        self.to_rule().build(n, f)
    }
}

impl fmt::Display for StageRule {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_rule().fmt(out)
    }
}

impl FromStr for StageRule {
    type Err = AggregationError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let rule: RuleSpec = spec.parse()?;
        Self::from_rule(rule).ok_or_else(|| {
            AggregationError::config(
                "hierarchical",
                "inner/outer stages cannot themselves be hierarchical",
            )
        })
    }
}

/// Reusable workspace for one [`Hierarchical`] aggregator, stored inside the
/// caller's [`AggregationContext`] (boxed and lazily created — flat rules
/// never pay for it). Holds one sequential sub-context plus member buffers
/// per group, the winner vectors, and the outer stage's context; everything
/// is refilled in place, so steady-state hierarchical rounds on the
/// sequential policy perform zero heap allocations.
#[derive(Debug)]
pub struct HierWorkspace {
    slots: Vec<GroupSlot>,
    winners: Vec<Vector>,
    outer_ctx: AggregationContext,
}

impl Default for HierWorkspace {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            winners: Vec::new(),
            // The outer stage runs over g small winner vectors — fanning it
            // out would cost more than it saves, and sequential keeps the
            // zero-allocation contract.
            outer_ctx: AggregationContext::with_policy(ExecutionPolicy::Sequential),
        }
    }
}

/// Per-group scratch: the inner rule's context, the gathered member
/// proposals, and the round's outcome.
#[derive(Debug)]
struct GroupSlot {
    ctx: AggregationContext,
    members: Vec<Vector>,
    error: Option<AggregationError>,
}

impl Default for GroupSlot {
    fn default() -> Self {
        Self {
            // Group work is already fanned out across groups; nested
            // parallelism inside a group would oversubscribe the pool.
            ctx: AggregationContext::with_policy(ExecutionPolicy::Sequential),
            members: Vec::new(),
            error: None,
        }
    }
}

/// Two-level aggregation: an inner [`StageRule`] per round-robin group, an
/// outer [`StageRule`] over the group winners.
///
/// Built from [`RuleSpec::Hierarchical`]; see the module docs for the
/// sharding scheme and the Byzantine accounting.
pub struct Hierarchical {
    n: usize,
    f: usize,
    inner: StageRule,
    outer: StageRule,
    bounds: HierarchicalBounds,
    /// One inner rule per group (group sizes differ by at most one, so at
    /// most two distinct configurations, but per-group storage keeps the
    /// indexing trivial).
    inner_rules: Vec<Box<dyn Aggregator>>,
    outer_rule: Box<dyn Aggregator>,
    inner_selects: bool,
}

impl fmt::Debug for Hierarchical {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        out.debug_struct("Hierarchical")
            .field("n", &self.n)
            .field("f", &self.f)
            .field("inner", &self.inner)
            .field("outer", &self.outer)
            .field("bounds", &self.bounds)
            .finish()
    }
}

impl Hierarchical {
    /// Creates a hierarchical rule for `n` workers (`f` Byzantine) sharded
    /// into `groups` round-robin groups.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] when the sharding is
    /// structurally impossible (`groups < 2`, `groups > n`, `f ≥ n`) or when
    /// either stage rule rejects its per-stage shape — the inner rule is
    /// built for `(n_g, ⌈f/g⌉)` per group, the outer for `(g, ⌊g·f/n⌋)`.
    pub fn new(
        n: usize,
        f: usize,
        groups: usize,
        inner: StageRule,
        outer: StageRule,
    ) -> Result<Self, AggregationError> {
        let bounds = hierarchical_bounds(n, f, groups)?;
        let inner_rules = (0..groups)
            .map(|k| {
                let size = bounds.group_size(k, n);
                inner.build(size, bounds.group_byzantine).map_err(|e| {
                    AggregationError::config(
                        "hierarchical",
                        format!(
                            "inner rule `{inner}` is infeasible for group {k} \
                             (size {size}, {} byzantine per group): {e}",
                            bounds.group_byzantine
                        ),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let outer_rule = outer.build(groups, bounds.outer_byzantine).map_err(|e| {
            AggregationError::config(
                "hierarchical",
                format!(
                    "outer rule `{outer}` is infeasible over {groups} winners \
                     ({} byzantine budget): {e}",
                    bounds.outer_byzantine
                ),
            )
        })?;
        let inner_selects = inner_rules.iter().all(|r| r.is_selection_rule());
        Ok(Self {
            n,
            f,
            inner,
            outer,
            bounds,
            inner_rules,
            outer_rule,
            inner_selects,
        })
    }

    /// Total number of workers `n`.
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Number of tolerated Byzantine workers `f`.
    pub fn byzantine(&self) -> usize {
        self.f
    }

    /// Number of round-robin groups `g`.
    pub fn groups(&self) -> usize {
        self.bounds.groups
    }

    /// The per-group and outer-stage Byzantine accounting.
    pub fn bounds(&self) -> &HierarchicalBounds {
        &self.bounds
    }

    /// Number of members of group `k` (sizes differ by at most one).
    fn group_size(&self, k: usize) -> usize {
        self.bounds.group_size(k, self.n)
    }

    /// Gathers group `k`'s members and runs the inner rule; the outcome is
    /// recorded on the slot (shared-nothing, so groups fan out freely).
    fn run_group(&self, k: usize, slot: &mut GroupSlot, proposals: &[Vector]) {
        let groups = self.bounds.groups;
        slot.members
            .resize_with(self.group_size(k), || Vector::zeros(0));
        for (l, member) in slot.members.iter_mut().enumerate() {
            member.assign(proposals[k + l * groups].as_slice());
        }
        slot.error = self.inner_rules[k]
            .aggregate_in(&mut slot.ctx, &slot.members)
            .err();
    }

    /// Runs both stages into the workspace.
    fn run_stages(
        &self,
        ws: &mut HierWorkspace,
        proposals: &[Vector],
        dim: usize,
        parallel: bool,
    ) -> Result<(), AggregationError> {
        let groups = self.bounds.groups;
        ws.slots.resize_with(groups, GroupSlot::default);
        ws.winners.resize_with(groups, || Vector::zeros(0));
        if parallel && groups >= 2 {
            // The vendored pool has no indexed parallel iterators, so pair
            // each slot with its index serially and fan the tuples out.
            let tasks: Vec<(usize, &mut GroupSlot)> = ws.slots.iter_mut().enumerate().collect();
            tasks
                .into_par_iter()
                .for_each(|(k, slot)| self.run_group(k, slot, proposals));
        } else {
            for (k, slot) in ws.slots.iter_mut().enumerate() {
                self.run_group(k, slot, proposals);
            }
        }
        let mut poisoned = 0usize;
        for (slot, winner) in ws.slots.iter().zip(ws.winners.iter_mut()) {
            match &slot.error {
                None => winner.assign(slot.ctx.output().value.as_slice()),
                // A fully poisoned group forfeits: its NaN winner loses every
                // NaN-safe selection in the outer stage.
                Some(AggregationError::AllScoresNonFinite { .. }) => {
                    poisoned += 1;
                    winner.resize(dim, f64::NAN);
                    winner.fill(f64::NAN);
                }
                Some(other) => return Err(other.clone()),
            }
        }
        if poisoned == groups {
            return Err(AggregationError::AllScoresNonFinite {
                rule: "hierarchical",
            });
        }
        self.outer_rule.aggregate_in(&mut ws.outer_ctx, &ws.winners)
    }

    /// Copies the outer result into the caller's context, mapping group-local
    /// selections and scores back to global worker indices.
    fn finish(&self, ctx: &mut AggregationContext, ws: &HierWorkspace) {
        let groups = self.bounds.groups;
        let outer_out = ws.outer_ctx.output();
        ctx.output.value.assign(outer_out.value.as_slice());
        // Scatter per-member inner scores to global indices (poisoned groups
        // keep NaN); drop the scores entirely if any healthy group's inner
        // rule did not produce a full per-member score vector.
        ctx.scores.clear();
        ctx.scores.resize(self.n, f64::NAN);
        let mut have_scores = true;
        for (k, slot) in ws.slots.iter().enumerate() {
            if slot.error.is_some() {
                continue;
            }
            let scores = &slot.ctx.output().scores;
            if scores.len() != self.group_size(k) {
                have_scores = false;
                break;
            }
            for (l, &score) in scores.iter().enumerate() {
                ctx.scores[k + l * groups] = score;
            }
        }
        // Global selection: only meaningful when the inner stage selects
        // actual proposals (then the outer winner *is* proposal
        // `k + local·g` of the chosen group `k`).
        ctx.order.clear();
        if self.inner_selects {
            for &group in &outer_out.selected {
                if let Some(local) = ws.slots[group].ctx.output().selected_index() {
                    ctx.order.push(group + local * groups);
                }
            }
        }
        if !have_scores {
            ctx.scores.clear();
        }
        let output = &mut ctx.output;
        output.set_selection(&ctx.order, &ctx.scores);
    }
}

impl Aggregator for Hierarchical {
    fn aggregate_detailed(
        &self,
        proposals: &[Vector],
    ) -> Result<crate::Aggregation, AggregationError> {
        let mut ctx = AggregationContext::new();
        self.aggregate_in(&mut ctx, proposals)?;
        Ok(ctx.into_output())
    }

    fn aggregate_in(
        &self,
        ctx: &mut AggregationContext,
        proposals: &[Vector],
    ) -> Result<(), AggregationError> {
        let dim = validate_proposals(proposals)?;
        if proposals.len() != self.n {
            return Err(AggregationError::WrongWorkerCount {
                expected: self.n,
                found: proposals.len(),
            });
        }
        let work = (0..self.bounds.groups)
            .map(|k| kernel::pairwise_work(self.group_size(k), dim))
            .sum();
        let parallel = ctx.policy().use_parallel(work);
        // Take the workspace out of the context so the group contexts and
        // the caller's context are independently borrowable (the Box moves,
        // nothing is copied or allocated).
        let mut ws = ctx.hier.take().unwrap_or_default();
        let outcome = self.run_stages(&mut ws, proposals, dim, parallel);
        if outcome.is_ok() {
            self.finish(ctx, &ws);
        }
        ctx.hier = Some(ws);
        outcome
    }

    fn name(&self) -> String {
        format!(
            "hierarchical(n={},f={},g={},inner={},outer={})",
            self.n, self.f, self.bounds.groups, self.inner, self.outer
        )
    }

    fn is_selection_rule(&self) -> bool {
        self.inner_selects && self.outer_rule.is_selection_rule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregator, Krum};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// n workers, the last f Byzantine outliers, honest clustered near 1.0.
    fn clustered(n: usize, f: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut proposals: Vec<Vector> = (0..n - f)
            .map(|_| Vector::gaussian(dim, 1.0, 0.05, &mut rng))
            .collect();
        proposals.extend((0..f).map(|_| Vector::gaussian(dim, -80.0, 5.0, &mut rng)));
        proposals
    }

    #[test]
    fn construction_validates_both_stages() {
        // Feasible: n = 24, f = 3, g = 4 → groups of 6 with f_g = 1.
        let h = Hierarchical::new(24, 3, 4, StageRule::Krum, StageRule::Krum).unwrap();
        assert_eq!(h.workers(), 24);
        assert_eq!(h.byzantine(), 3);
        assert_eq!(h.groups(), 4);
        assert_eq!(h.bounds().group_byzantine, 1);
        assert_eq!(h.bounds().outer_byzantine, 0);
        assert!(h.name().contains("g=4"));
        assert!(h.is_selection_rule());
        // Inner Krum infeasible: groups of 4 with f_g = 1 need 2·1+2 < 4.
        let err = Hierarchical::new(16, 4, 4, StageRule::Krum, StageRule::Median).unwrap_err();
        assert!(err.to_string().contains("inner rule"), "{err}");
        // Outer Krum infeasible over 2 winners.
        let err = Hierarchical::new(16, 1, 2, StageRule::Median, StageRule::Krum).unwrap_err();
        assert!(err.to_string().contains("outer rule"), "{err}");
        // Structural rejections.
        assert!(Hierarchical::new(10, 1, 1, StageRule::Median, StageRule::Median).is_err());
        assert!(Hierarchical::new(10, 1, 11, StageRule::Median, StageRule::Median).is_err());
    }

    #[test]
    fn hierarchical_krum_selects_an_honest_worker_under_outliers() {
        let n = 30;
        let f = 4;
        let proposals = clustered(n, f, 8, 7);
        let h = Hierarchical::new(n, f, 5, StageRule::Krum, StageRule::Krum).unwrap();
        let result = h.aggregate_detailed(&proposals).unwrap();
        let idx = result.selected_index().unwrap();
        assert!(idx < n - f, "selected Byzantine worker {idx}");
        assert_eq!(result.value, proposals[idx], "winner is a real proposal");
        assert_eq!(result.scores.len(), n, "inner Krum scores scatter globally");
    }

    #[test]
    fn sequential_and_parallel_agree_bit_for_bit() {
        let proposals = clustered(40, 6, 16, 11);
        let h = Hierarchical::new(40, 6, 8, StageRule::Krum, StageRule::Krum).unwrap();
        let mut seq = AggregationContext::with_policy(ExecutionPolicy::Sequential);
        let mut par = AggregationContext::with_policy(ExecutionPolicy::Parallel);
        h.aggregate_in(&mut seq, &proposals).unwrap();
        h.aggregate_in(&mut par, &proposals).unwrap();
        assert_eq!(seq.output(), par.output());
    }

    #[test]
    fn workspace_is_reused_across_rounds_and_shapes_settle() {
        let h = Hierarchical::new(20, 2, 4, StageRule::Krum, StageRule::Krum).unwrap();
        let mut ctx = AggregationContext::with_policy(ExecutionPolicy::Sequential);
        let first = {
            let proposals = clustered(20, 2, 6, 3);
            h.aggregate_in(&mut ctx, &proposals).unwrap();
            ctx.output().clone()
        };
        // Re-running the same round through the warmed workspace matches a
        // fresh context exactly.
        let proposals = clustered(20, 2, 6, 3);
        h.aggregate_in(&mut ctx, &proposals).unwrap();
        assert_eq!(ctx.output(), &first);
        assert_eq!(ctx.output(), &h.aggregate_detailed(&proposals).unwrap());
    }

    #[test]
    fn poisoned_group_forfeits_and_poisoned_cluster_errors() {
        let n = 20;
        let mut proposals = clustered(n, 2, 4, 13);
        let h = Hierarchical::new(n, 2, 4, StageRule::Krum, StageRule::Krum).unwrap();
        // Poison every member of group 1 (w % 4 == 1): that group forfeits,
        // the aggregation still lands on an honest worker elsewhere.
        for w in (0..n).filter(|w| w % 4 == 1) {
            proposals[w] = Vector::filled(4, f64::NAN);
        }
        let result = h.aggregate_detailed(&proposals).unwrap();
        let idx = result.selected_index().unwrap();
        assert_ne!(idx % 4, 1, "the poisoned group must not win");
        assert!(result.value.is_finite());
        // Poison everything: structured error, not a NaN aggregate.
        let all_nan = vec![Vector::filled(4, f64::NAN); n];
        assert!(matches!(
            h.aggregate_detailed(&all_nan),
            Err(AggregationError::AllScoresNonFinite {
                rule: "hierarchical"
            })
        ));
    }

    #[test]
    fn mixing_stages_produce_mixture_outputs() {
        let proposals = clustered(24, 3, 5, 17);
        let h = Hierarchical::new(24, 3, 4, StageRule::Median, StageRule::Median).unwrap();
        assert!(!h.is_selection_rule());
        let result = h.aggregate_detailed(&proposals).unwrap();
        assert!(result.selected.is_empty());
        assert!(result.value.is_finite());
        // The median-of-medians stays inside the honest cluster.
        assert!(result.value.iter().all(|x| (x - 1.0).abs() < 0.5));
    }

    #[test]
    fn rejects_malformed_input() {
        let h = Hierarchical::new(20, 2, 4, StageRule::Krum, StageRule::Krum).unwrap();
        assert!(matches!(
            h.aggregate(&[]),
            Err(AggregationError::NoProposals)
        ));
        assert!(matches!(
            h.aggregate(&vec![Vector::zeros(3); 19]),
            Err(AggregationError::WrongWorkerCount {
                expected: 20,
                found: 19
            })
        ));
    }

    #[test]
    fn grouping_beats_flat_krum_asymptotics_on_agreement() {
        // Not a perf test — a semantics check: hierarchical Krum agrees with
        // flat Krum on which *side* wins (honest cluster), even though the
        // exact winner index may differ.
        let n = 60;
        let f = 9;
        let proposals = clustered(n, f, 10, 23);
        let flat = Krum::new(n, f).unwrap();
        let flat_idx = flat
            .aggregate_detailed(&proposals)
            .unwrap()
            .selected_index()
            .unwrap();
        let h = Hierarchical::new(n, f, 6, StageRule::Krum, StageRule::Krum).unwrap();
        let hier_idx = h
            .aggregate_detailed(&proposals)
            .unwrap()
            .selected_index()
            .unwrap();
        assert!(flat_idx < n - f);
        assert!(hier_idx < n - f);
    }

    #[test]
    fn stage_rule_round_trips() {
        let stages = [
            StageRule::Average,
            StageRule::UniformWeightedAverage,
            StageRule::Krum,
            StageRule::MultiKrum { m: Some(3) },
            StageRule::MultiKrum { m: None },
            StageRule::Median,
            StageRule::TrimmedMean { trim: Some(1) },
            StageRule::GeometricMedian,
            StageRule::ClosestToBarycenter,
            StageRule::MinDiameterSubset,
            StageRule::ReputationWeighted { eta: 0.25 },
            StageRule::CenteredClip {
                tau: 3.5,
                beta: 0.5,
            },
        ];
        for stage in stages {
            let parsed: StageRule = stage.to_string().parse().unwrap();
            assert_eq!(parsed, stage);
            assert_eq!(StageRule::from_rule(stage.to_rule()), Some(stage));
        }
        assert!("hierarchical:groups=4".parse::<StageRule>().is_err());
        assert_eq!(
            StageRule::from_rule(RuleSpec::Hierarchical {
                groups: 4,
                inner: StageRule::Krum,
                outer: StageRule::Krum,
            }),
            None
        );
    }
}
