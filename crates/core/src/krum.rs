//! The Krum and Multi-Krum choice functions (Section 4 of the paper).

use krum_tensor::Vector;
use serde::{Deserialize, Serialize};

use crate::aggregator::{validate_proposals, Aggregation, Aggregator};
use crate::context::AggregationContext;
use crate::error::AggregationError;
use crate::kernel;

/// The Krum choice function.
///
/// For each proposal `V_i`, Krum computes the score
/// `s(i) = Σ_{i→j} ‖V_i − V_j‖²` where the sum ranges over the `n − f − 2`
/// proposals closest to `V_i`, and outputs the proposal with the smallest
/// score. Ties are broken towards the smallest worker identifier (footnote 3
/// of the paper).
///
/// Construction validates the paper's resilience precondition `2f + 2 < n`
/// (Proposition 4.2); the weaker structural requirement `n − f − 2 ≥ 1` is
/// implied by it.
///
/// Complexity: `O(n² · d)` (Lemma 4.1) — the benchmark `krum_scaling`
/// regenerates that claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Krum {
    n: usize,
    f: usize,
}

impl Krum {
    /// Creates a Krum rule for `n` workers of which at most `f` are Byzantine.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] unless `2f + 2 < n`.
    pub fn new(n: usize, f: usize) -> Result<Self, AggregationError> {
        if 2 * f + 2 >= n {
            return Err(AggregationError::config(
                "krum",
                format!("Krum requires 2f + 2 < n, got n = {n}, f = {f}"),
            ));
        }
        Ok(Self { n, f })
    }

    /// Total number of workers `n` this rule was configured for.
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Number of tolerated Byzantine workers `f`.
    pub fn byzantine(&self) -> usize {
        self.f
    }

    /// Number of neighbours (`n − f − 2`) each score sums over.
    pub fn neighbours(&self) -> usize {
        self.n - self.f - 2
    }

    /// Smallest `n` for which Krum tolerates `f` Byzantine workers
    /// (the `2f + 2 < n` precondition), i.e. `2f + 3`.
    pub fn min_workers(f: usize) -> usize {
        2 * f + 3
    }

    /// Computes the Krum score of every proposal.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError`] for malformed input (see
    /// [`Aggregator::aggregate_detailed`]).
    pub fn scores(&self, proposals: &[Vector]) -> Result<Vec<f64>, AggregationError> {
        self.check(proposals)?;
        let distances = kernel::pairwise_squared_distances(proposals);
        Ok(kernel::scores_from_distances(
            &distances,
            self.n,
            self.neighbours(),
        ))
    }

    fn check(&self, proposals: &[Vector]) -> Result<(), AggregationError> {
        validate_proposals(proposals)?;
        if proposals.len() != self.n {
            return Err(AggregationError::WrongWorkerCount {
                expected: self.n,
                found: proposals.len(),
            });
        }
        Ok(())
    }
}

impl Aggregator for Krum {
    fn aggregate_detailed(&self, proposals: &[Vector]) -> Result<Aggregation, AggregationError> {
        let mut ctx = AggregationContext::new();
        self.aggregate_in(&mut ctx, proposals)?;
        Ok(ctx.into_output())
    }

    fn aggregate_in(
        &self,
        ctx: &mut AggregationContext,
        proposals: &[Vector],
    ) -> Result<(), AggregationError> {
        self.check(proposals)?;
        ctx.pairwise_distances_cached(proposals);
        kernel::scores_from_distances_into(
            &ctx.distances,
            self.n,
            self.neighbours(),
            &mut ctx.scratch,
            &mut ctx.scores,
        );
        let best = kernel::argmin(&ctx.scores)
            .ok_or(AggregationError::AllScoresNonFinite { rule: "krum" })?;
        ctx.output.value.assign(proposals[best].as_slice());
        ctx.output.set_selection(&[best], &ctx.scores);
        Ok(())
    }

    fn name(&self) -> String {
        format!("krum(n={},f={})", self.n, self.f)
    }

    fn is_selection_rule(&self) -> bool {
        true
    }
}

/// The Multi-Krum choice function (extension from the full version of the
/// paper): compute Krum scores, keep the `m` best-scored proposals and output
/// their average. `m = 1` coincides with [`Krum`]; `m = n` coincides with
/// plain averaging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiKrum {
    n: usize,
    f: usize,
    m: usize,
}

impl MultiKrum {
    /// Creates a Multi-Krum rule selecting the `m` best proposals out of `n`,
    /// tolerating `f` Byzantine workers.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] unless `2f + 2 < n` and
    /// `1 ≤ m ≤ n − f` (selecting more than `n − f` proposals would force a
    /// Byzantine one into the average).
    pub fn new(n: usize, f: usize, m: usize) -> Result<Self, AggregationError> {
        if 2 * f + 2 >= n {
            return Err(AggregationError::config(
                "multi-krum",
                format!("Multi-Krum requires 2f + 2 < n, got n = {n}, f = {f}"),
            ));
        }
        if m == 0 || m > n - f {
            return Err(AggregationError::config(
                "multi-krum",
                format!(
                    "Multi-Krum requires 1 <= m <= n - f, got m = {m}, n - f = {}",
                    n - f
                ),
            ));
        }
        Ok(Self { n, f, m })
    }

    /// Total number of workers `n`.
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Number of tolerated Byzantine workers `f`.
    pub fn byzantine(&self) -> usize {
        self.f
    }

    /// Number of proposals averaged into the output.
    pub fn selected_count(&self) -> usize {
        self.m
    }
}

impl Aggregator for MultiKrum {
    fn aggregate_detailed(&self, proposals: &[Vector]) -> Result<Aggregation, AggregationError> {
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
        ctx.pairwise_distances_cached(proposals);
        kernel::scores_from_distances_into(
            &ctx.distances,
            self.n,
            self.n - self.f - 2,
            &mut ctx.scratch,
            &mut ctx.scores,
        );
        // The m best worker indices by (score, index) — the same tie-breaking
        // rule as Krum, extended to a set — found by partial selection. A
        // fully NaN score vector has no usable ordering at all: refuse to
        // average poisoned proposals (total_cmp would otherwise pick the
        // first m indices regardless of their content).
        if ctx.scores.iter().all(|s| s.is_nan()) {
            return Err(AggregationError::AllScoresNonFinite { rule: "multi-krum" });
        }
        kernel::smallest_indices_into(&ctx.scores, self.m, &mut ctx.order);
        // Average the selected proposals in place, without cloning them.
        let value = ctx.output.reset_value(dim);
        for &i in &ctx.order {
            value.axpy(1.0, &proposals[i]);
        }
        value.scale(1.0 / ctx.order.len() as f64);
        ctx.output.set_selection(&ctx.order, &ctx.scores);
        Ok(())
    }

    fn name(&self) -> String {
        format!("multi-krum(n={},f={},m={})", self.n, self.f, self.m)
    }

    fn is_selection_rule(&self) -> bool {
        // Only the degenerate m = 1 case returns one of its inputs verbatim.
        self.m == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// n = 7, f = 2: five honest proposals clustered near (1, 0), two
    /// Byzantine outliers far away.
    fn clustered_proposals() -> Vec<Vector> {
        vec![
            Vector::from(vec![1.00, 0.00]),
            Vector::from(vec![1.05, 0.05]),
            Vector::from(vec![0.95, -0.05]),
            Vector::from(vec![1.02, 0.01]),
            Vector::from(vec![0.98, 0.03]),
            Vector::from(vec![40.0, -55.0]),
            Vector::from(vec![-60.0, 70.0]),
        ]
    }

    #[test]
    fn construction_enforces_2f_plus_2_lt_n() {
        assert!(Krum::new(4, 1).is_err());
        assert!(Krum::new(5, 1).is_ok());
        assert!(Krum::new(24, 11).is_err());
        assert!(Krum::new(25, 11).is_ok());
        assert_eq!(Krum::min_workers(1), 5);
        assert_eq!(Krum::min_workers(11), 25);
        let k = Krum::new(7, 2).unwrap();
        assert_eq!(k.workers(), 7);
        assert_eq!(k.byzantine(), 2);
        assert_eq!(k.neighbours(), 3);
    }

    #[test]
    fn krum_selects_an_honest_vector_under_outliers() {
        let proposals = clustered_proposals();
        let krum = Krum::new(7, 2).unwrap();
        let result = krum.aggregate_detailed(&proposals).unwrap();
        let idx = result.selected_index().unwrap();
        assert!(idx < 5, "Krum selected Byzantine proposal {idx}");
        assert_eq!(result.value, proposals[idx]);
        assert!(krum.is_selection_rule());
        assert!(krum.name().contains("f=2"));
    }

    #[test]
    fn krum_scores_are_higher_for_outliers() {
        let proposals = clustered_proposals();
        let krum = Krum::new(7, 2).unwrap();
        let scores = krum.scores(&proposals).unwrap();
        let max_honest = scores[..5].iter().copied().fold(f64::MIN, f64::max);
        let min_byz = scores[5..].iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max_honest < min_byz,
            "every honest score ({max_honest}) should be below every Byzantine score ({min_byz})"
        );
    }

    #[test]
    fn krum_matches_bruteforce_definition() {
        // Independent, literal implementation of the definition in Section 4.
        fn brute_force_krum(proposals: &[Vector], f: usize) -> usize {
            let n = proposals.len();
            let mut best = 0;
            let mut best_score = f64::INFINITY;
            for i in 0..n {
                let mut dists: Vec<f64> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| proposals[i].squared_distance(&proposals[j]))
                    .collect();
                dists.sort_by(f64::total_cmp);
                let score: f64 = dists.iter().take(n - f - 2).sum();
                if score < best_score {
                    best_score = score;
                    best = i;
                }
            }
            best
        }
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for trial in 0..20 {
            let n = 9;
            let f = 3;
            let proposals: Vec<Vector> = (0..n)
                .map(|_| Vector::gaussian(6, 0.0, 1.0 + trial as f64 * 0.1, &mut rng))
                .collect();
            let krum = Krum::new(n, f).unwrap();
            let got = krum
                .aggregate_detailed(&proposals)
                .unwrap()
                .selected_index()
                .unwrap();
            assert_eq!(got, brute_force_krum(&proposals, f), "trial {trial}");
        }
    }

    #[test]
    fn krum_tie_break_prefers_smallest_index() {
        // Two identical clusters; all scores within a cluster are equal, so the
        // winner must be the smallest index overall.
        let proposals = vec![
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.0, 1.0]),
        ];
        let krum = Krum::new(5, 1).unwrap();
        let idx = krum
            .aggregate_detailed(&proposals)
            .unwrap()
            .selected_index()
            .unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn krum_rejects_malformed_input() {
        let krum = Krum::new(5, 1).unwrap();
        assert!(matches!(
            krum.aggregate(&[]),
            Err(AggregationError::NoProposals)
        ));
        let wrong_count = vec![Vector::zeros(2); 4];
        assert!(matches!(
            krum.aggregate(&wrong_count),
            Err(AggregationError::WrongWorkerCount {
                expected: 5,
                found: 4
            })
        ));
        let mut mismatched = vec![Vector::zeros(2); 5];
        mismatched[3] = Vector::zeros(3);
        assert!(matches!(
            krum.aggregate(&mismatched),
            Err(AggregationError::DimensionMismatch { index: 3, .. })
        ));
    }

    #[test]
    fn krum_output_is_always_one_of_the_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let proposals: Vec<Vector> = (0..11)
            .map(|_| Vector::gaussian(8, 0.0, 3.0, &mut rng))
            .collect();
        let krum = Krum::new(11, 4).unwrap();
        let out = krum.aggregate(&proposals).unwrap();
        assert!(proposals.contains(&out));
    }

    #[test]
    fn multi_krum_validation() {
        assert!(MultiKrum::new(4, 1, 1).is_err());
        assert!(MultiKrum::new(7, 2, 0).is_err());
        assert!(MultiKrum::new(7, 2, 6).is_err()); // m > n − f
        let mk = MultiKrum::new(7, 2, 5).unwrap();
        assert_eq!(mk.workers(), 7);
        assert_eq!(mk.byzantine(), 2);
        assert_eq!(mk.selected_count(), 5);
        assert!(!mk.is_selection_rule());
        assert!(MultiKrum::new(7, 2, 1).unwrap().is_selection_rule());
        assert!(mk.name().contains("m=5"));
    }

    #[test]
    fn multi_krum_with_m1_equals_krum() {
        let proposals = clustered_proposals();
        let krum = Krum::new(7, 2).unwrap();
        let mk = MultiKrum::new(7, 2, 1).unwrap();
        assert_eq!(
            krum.aggregate(&proposals).unwrap(),
            mk.aggregate(&proposals).unwrap()
        );
    }

    #[test]
    fn multi_krum_excludes_byzantine_outliers() {
        let proposals = clustered_proposals();
        let mk = MultiKrum::new(7, 2, 4).unwrap();
        let result = mk.aggregate_detailed(&proposals).unwrap();
        assert_eq!(result.selected.len(), 4);
        assert!(result.selected.iter().all(|&i| i < 5));
        // The output is the mean of the selected (honest) proposals, hence
        // close to the honest cluster centre.
        assert!(result.value.distance(&Vector::from(vec![1.0, 0.0])) < 0.2);
    }

    #[test]
    fn multi_krum_with_m_equal_n_minus_f_averages_selected() {
        let proposals = clustered_proposals();
        let mk = MultiKrum::new(7, 2, 5).unwrap();
        let result = mk.aggregate_detailed(&proposals).unwrap();
        let manual = Vector::mean_of(
            &result
                .selected
                .iter()
                .map(|&i| proposals[i].clone())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(result.value, manual);
    }

    #[test]
    fn multi_krum_rejects_wrong_worker_count() {
        let mk = MultiKrum::new(7, 2, 3).unwrap();
        assert!(matches!(
            mk.aggregate(&vec![Vector::zeros(2); 6]),
            Err(AggregationError::WrongWorkerCount { .. })
        ));
    }

    #[test]
    fn scores_from_distances_uses_k_nearest_only() {
        // 4 points on a line: 0, 1, 2, 10. With 1 neighbour, the score of each
        // point is the squared distance to its single nearest neighbour.
        let proposals = vec![
            Vector::from(vec![0.0]),
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![10.0]),
        ];
        let d = kernel::pairwise_squared_distances(&proposals);
        let s = kernel::scores_from_distances(&d, 4, 1);
        assert_eq!(s, vec![1.0, 1.0, 1.0, 64.0]);
    }

    /// Satellite property test: the optimized Krum/Multi-Krum paths select
    /// exactly the indices the naive (sort-based, per-pair) path selects,
    /// over seeded random proposal sets, and the scores agree to 1e-9.
    #[test]
    fn optimized_paths_match_naive_selection() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for trial in 0..40 {
            let n = 7 + trial % 8; // 7..=14
            let f = (n - 3) / 2;
            let dim = 1 + (trial * 13) % 64;
            let spread = [0.05, 1.0, 25.0][trial % 3];
            let proposals: Vec<Vector> = (0..n)
                .map(|_| Vector::gaussian(dim, 0.5, spread, &mut rng))
                .collect();
            let krum = Krum::new(n, f).unwrap();
            let fast_scores = krum.scores(&proposals).unwrap();
            let naive_scores = crate::kernel::naive::krum_scores(&proposals, n - f - 2);
            for (a, b) in fast_scores.iter().zip(&naive_scores) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                    "trial {trial}: score {a} vs naive {b}"
                );
            }
            let fast_choice = krum
                .aggregate_detailed(&proposals)
                .unwrap()
                .selected_index()
                .unwrap();
            let naive_choice = crate::kernel::naive::krum_choose(&proposals, f);
            assert_eq!(fast_choice, naive_choice, "trial {trial}");
            // Multi-Krum: the selected set must match the naive full sort.
            let m = (n - f).max(1);
            let mk = MultiKrum::new(n, f, m).unwrap();
            let selected = mk.aggregate_detailed(&proposals).unwrap().selected;
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| naive_scores[a].total_cmp(&naive_scores[b]).then(a.cmp(&b)));
            order.truncate(m);
            assert_eq!(selected, order, "trial {trial}");
        }
    }

    /// Satellite regression test: a NaN proposal at index 0 used to poison
    /// `argmin` (NaN never compares less, so index 0 stayed "best"); the
    /// NaN-safe argmin must skip it for Krum and never select it.
    #[test]
    fn nan_proposal_at_index_zero_is_never_selected() {
        let mut proposals = clustered_proposals();
        proposals[0] = Vector::filled(2, f64::NAN);
        let krum = Krum::new(7, 2).unwrap();
        let result = krum.aggregate_detailed(&proposals).unwrap();
        let idx = result.selected_index().unwrap();
        assert_ne!(idx, 0, "the NaN proposal must not win");
        assert!(result.value.is_finite());
        assert!(result.scores[0].is_nan());
        // Multi-Krum keeps NaN out of the selected set as well.
        let mk = MultiKrum::new(7, 2, 4).unwrap();
        let selected = mk.aggregate_detailed(&proposals).unwrap().selected;
        assert!(!selected.contains(&0));
    }

    /// Satellite regression test: a fully NaN-poisoned round used to make
    /// `argmin` fall back to index 0, silently handing the round to proposal
    /// 0 (which may be Byzantine). It must now come back as a structured
    /// error from both Krum and Multi-Krum.
    #[test]
    fn fully_poisoned_round_is_a_structured_error_not_proposal_zero() {
        let proposals = vec![Vector::filled(2, f64::NAN); 7];
        let krum = Krum::new(7, 2).unwrap();
        assert!(matches!(
            krum.aggregate_detailed(&proposals),
            Err(AggregationError::AllScoresNonFinite { rule: "krum" })
        ));
        let mut ctx = AggregationContext::new();
        assert!(krum.aggregate_in(&mut ctx, &proposals).is_err());
        let mk = MultiKrum::new(7, 2, 3).unwrap();
        assert!(matches!(
            mk.aggregate_detailed(&proposals),
            Err(AggregationError::AllScoresNonFinite { rule: "multi-krum" })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let krum = Krum::new(9, 3).unwrap();
        let json = serde_json::to_string(&krum).unwrap();
        let back: Krum = serde_json::from_str(&json).unwrap();
        assert_eq!(krum, back);
    }
}
