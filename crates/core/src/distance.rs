//! Distance-based selection rules.
//!
//! [`ClosestToBarycenter`] is the rule the paper *rejects* in Section 4 and
//! Figure 2: select the proposal `U ∈ {V_1, …, V_n}` minimising
//! `Σ_i ‖U − V_i‖²`. Because the criterion sums over **all** proposals —
//! including arbitrarily remote ones — two colluding Byzantine workers defeat
//! it: `f − 1` of them plant remote decoys that drag the barycenter away, and
//! the last one proposes a vector near that displaced barycenter, which is
//! then guaranteed to win. Experiment E2 reproduces exactly this failure.
//!
//! [`GeometricMedian`] (Weiszfeld iteration) is included as an extension
//! baseline: the paper mentions that the Krum analysis is "reminiscent of the
//! geometric median technique".

use krum_tensor::Vector;
use serde::{Deserialize, Serialize};

use crate::aggregator::{validate_proposals, Aggregation, Aggregator};
use crate::context::AggregationContext;
use crate::error::AggregationError;

/// The flawed distance-based rule of Figure 2: select the proposal minimising
/// the sum of squared distances to **every** proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClosestToBarycenter;

impl ClosestToBarycenter {
    /// Creates the rule.
    pub fn new() -> Self {
        Self
    }

    /// The per-proposal criterion `Σ_j ‖V_i − V_j‖²`, computed with the same
    /// cached-norm pairwise kernel Krum uses (row sums of the distance
    /// matrix).
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError`] for malformed input.
    pub fn scores(&self, proposals: &[Vector]) -> Result<Vec<f64>, AggregationError> {
        validate_proposals(proposals)?;
        let distances = crate::kernel::pairwise_squared_distances(proposals);
        Ok(crate::kernel::row_sums(&distances, proposals.len()))
    }
}

impl Aggregator for ClosestToBarycenter {
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
        validate_proposals(proposals)?;
        let n = proposals.len();
        ctx.pairwise_distances_cached(proposals);
        crate::kernel::row_sums_into(&ctx.distances, n, &mut ctx.scores);
        // NaN-safe argmin shared with Krum. Note the protection is weaker
        // for this rule than for Krum: the criterion sums distances to ALL
        // proposals, so one NaN proposal poisons every score and the whole
        // round degenerates into a structured error (Krum's neighbour sums
        // keep honest scores finite, so there the NaN worker truly never
        // wins and honest rounds survive a poisoned minority).
        let best =
            crate::kernel::argmin(&ctx.scores).ok_or(AggregationError::AllScoresNonFinite {
                rule: "closest-to-barycenter",
            })?;
        ctx.output.value.assign(proposals[best].as_slice());
        ctx.output.set_selection(&[best], &ctx.scores);
        Ok(())
    }

    fn name(&self) -> String {
        "closest-to-barycenter".into()
    }

    fn is_selection_rule(&self) -> bool {
        true
    }
}

/// Geometric median computed with the Weiszfeld algorithm (extension
/// baseline). The output is a mixture, not one of the inputs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeometricMedian {
    max_iterations: usize,
    tolerance: f64,
}

impl Default for GeometricMedian {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-10,
        }
    }
}

impl GeometricMedian {
    /// Creates a geometric-median rule with default iteration settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a geometric-median rule with explicit Weiszfeld settings.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] when `max_iterations` is 0
    /// or `tolerance` is not a positive finite number.
    pub fn with_settings(max_iterations: usize, tolerance: f64) -> Result<Self, AggregationError> {
        if max_iterations == 0 {
            return Err(AggregationError::config(
                "geometric-median",
                "max_iterations must be >= 1",
            ));
        }
        if !(tolerance > 0.0 && tolerance.is_finite()) {
            return Err(AggregationError::config(
                "geometric-median",
                "tolerance must be positive and finite",
            ));
        }
        Ok(Self {
            max_iterations,
            tolerance,
        })
    }
}

impl Aggregator for GeometricMedian {
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
        // The Weiszfeld iterate lives directly in the output vector; the
        // context's dimension-sized scratch holds the weighted numerator.
        ctx.begin_mixed(dim);
        ctx.coords.clear();
        ctx.coords.resize(dim, 0.0);
        let (current, numerator) = (&mut ctx.output.value, &mut ctx.coords);
        // Start from the coordinate-wise mean (same accumulation order as
        // `Vector::mean_of`).
        for v in proposals {
            current.axpy(1.0, v);
        }
        current.scale(1.0 / proposals.len() as f64);
        for _ in 0..self.max_iterations {
            numerator.fill(0.0);
            let mut denominator = 0.0;
            let mut coincident: Option<&Vector> = None;
            for v in proposals {
                let dist = current.distance(v);
                if dist < 1e-12 {
                    coincident = Some(v);
                    continue;
                }
                let w = 1.0 / dist;
                for (a, b) in numerator.iter_mut().zip(v.iter()) {
                    *a += w * b;
                }
                denominator += w;
            }
            if denominator == 0.0 {
                // Every proposal coincides with the current point.
                break;
            }
            let inv = 1.0 / denominator;
            // Form the candidate, overwrite the iterate and accumulate the
            // squared movement in one pass (no `next` buffer needed). When
            // the iterate hit a data point, the standard Weiszfeld fix-up
            // nudges the candidate towards that point.
            let mut movement_squared = 0.0;
            match coincident {
                Some(v) => {
                    for ((cur, &num), &vc) in current.iter_mut().zip(numerator.iter()).zip(v.iter())
                    {
                        let candidate = (num * inv + vc) * 0.5;
                        let d = *cur - candidate;
                        movement_squared += d * d;
                        *cur = candidate;
                    }
                }
                None => {
                    for (cur, &num) in current.iter_mut().zip(numerator.iter()) {
                        let candidate = num * inv;
                        let d = *cur - candidate;
                        movement_squared += d * d;
                        *cur = candidate;
                    }
                }
            }
            if movement_squared.sqrt() < self.tolerance {
                break;
            }
        }
        Ok(())
    }

    fn name(&self) -> String {
        "geometric-median".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_to_barycenter_picks_central_proposal_without_collusion() {
        let proposals = vec![
            Vector::from(vec![0.0, 0.0]),
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![0.0, 1.0]),
            Vector::from(vec![0.4, 0.4]),
        ];
        let rule = ClosestToBarycenter::new();
        let result = rule.aggregate_detailed(&proposals).unwrap();
        assert_eq!(result.selected_index(), Some(3));
        assert!(rule.is_selection_rule());
        assert_eq!(rule.name(), "closest-to-barycenter");
    }

    #[test]
    fn figure_2_collusion_defeats_closest_to_barycenter() {
        // n = 7, f = 2. Honest gradients cluster near the origin (area C).
        // Byzantine worker #5 plants a decoy far away (area B); worker #6
        // proposes the displaced barycenter b, and wins.
        let honest = vec![
            Vector::from(vec![0.0, 0.1]),
            Vector::from(vec![0.1, -0.1]),
            Vector::from(vec![-0.1, 0.0]),
            Vector::from(vec![0.05, 0.05]),
            Vector::from(vec![-0.05, 0.08]),
        ];
        let decoy = Vector::from(vec![600.0, -600.0]);
        // The colluding proposal sits at the barycenter of the other six.
        let mut six = honest.clone();
        six.push(decoy.clone());
        let colluder = Vector::mean_of(&six).unwrap();
        let mut all = honest.clone();
        all.push(decoy);
        all.push(colluder.clone());

        let result = ClosestToBarycenter.aggregate_detailed(&all).unwrap();
        assert_eq!(
            result.selected_index(),
            Some(6),
            "the colluding Byzantine proposal should win"
        );
        // And that winning vector is far from the honest area.
        assert!(result.value.norm() > 50.0);

        // Krum, configured for the same (n, f), does NOT fall for it.
        let krum = crate::Krum::new(7, 2)
            .unwrap()
            .aggregate_detailed(&all)
            .unwrap();
        assert!(krum.selected_index().unwrap() < 5);
    }

    #[test]
    fn closest_to_barycenter_scores_are_sums_over_all() {
        let proposals = vec![Vector::from(vec![0.0]), Vector::from(vec![2.0])];
        let scores = ClosestToBarycenter.scores(&proposals).unwrap();
        assert_eq!(scores, vec![4.0, 4.0]);
        assert!(ClosestToBarycenter.scores(&[]).is_err());
    }

    #[test]
    fn shared_kernel_matches_naive_double_loop() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..10 {
            let proposals: Vec<Vector> = (0..9)
                .map(|_| Vector::gaussian(23, 0.0, 2.0, &mut rng))
                .collect();
            let fast = ClosestToBarycenter.scores(&proposals).unwrap();
            let slow: Vec<f64> = proposals
                .iter()
                .map(|vi| proposals.iter().map(|vj| vi.squared_distance(vj)).sum())
                .collect();
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1e-9), "{a} vs {b}");
            }
        }
    }

    /// Satellite regression test for the shared NaN-safe argmin. Unlike
    /// Krum (which only sums the closest neighbours, so honest scores stay
    /// finite), this rule sums distances to **all** proposals: one NaN
    /// proposal poisons every score. The poisoned round must come back as a
    /// structured error — the old behaviour fell back to index 0, silently
    /// selecting a proposal with no basis (possibly the Byzantine one).
    #[test]
    fn nan_scores_become_a_structured_error() {
        let proposals = vec![
            Vector::from(vec![f64::NAN, 0.0]),
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![0.0, 1.0]),
            Vector::from(vec![0.4, 0.4]),
        ];
        // Every score is NaN (each sums a distance to the NaN proposal), so
        // the rule refuses to select rather than picking arbitrarily.
        assert!(matches!(
            ClosestToBarycenter.aggregate_detailed(&proposals),
            Err(AggregationError::AllScoresNonFinite {
                rule: "closest-to-barycenter"
            })
        ));
        // The shared argmin picks the best finite score when one exists.
        assert_eq!(
            crate::kernel::argmin(&[f64::NAN, 7.0, 3.0, f64::NAN]),
            Some(2)
        );
    }

    #[test]
    fn geometric_median_settings_validation() {
        assert!(GeometricMedian::with_settings(0, 1e-9).is_err());
        assert!(GeometricMedian::with_settings(10, -1.0).is_err());
        assert!(GeometricMedian::with_settings(10, f64::NAN).is_err());
        assert!(GeometricMedian::with_settings(10, 1e-9).is_ok());
        assert_eq!(GeometricMedian::new(), GeometricMedian::default());
    }

    #[test]
    fn geometric_median_of_symmetric_points_is_centre() {
        let proposals = vec![
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![-1.0, 0.0]),
            Vector::from(vec![0.0, 1.0]),
            Vector::from(vec![0.0, -1.0]),
        ];
        let gm = GeometricMedian::new().aggregate(&proposals).unwrap();
        assert!(gm.norm() < 1e-6);
    }

    #[test]
    fn geometric_median_resists_an_outlier_better_than_the_mean() {
        let proposals = vec![
            Vector::from(vec![0.0, 0.0]),
            Vector::from(vec![0.2, 0.0]),
            Vector::from(vec![0.0, 0.2]),
            Vector::from(vec![0.1, 0.1]),
            Vector::from(vec![1000.0, 1000.0]),
        ];
        let gm = GeometricMedian::new().aggregate(&proposals).unwrap();
        let mean = crate::Average.aggregate(&proposals).unwrap();
        let honest_centre = Vector::from(vec![0.075, 0.075]);
        assert!(gm.distance(&honest_centre) < 1.0);
        assert!(mean.distance(&honest_centre) > 100.0);
        assert_eq!(GeometricMedian::new().name(), "geometric-median");
    }

    #[test]
    fn geometric_median_of_identical_points_is_that_point() {
        let proposals = vec![Vector::from(vec![2.0, 3.0]); 5];
        let gm = GeometricMedian::new().aggregate(&proposals).unwrap();
        assert!(gm.distance(&proposals[0]) < 1e-9);
    }

    #[test]
    fn geometric_median_rejects_malformed_input() {
        assert!(GeometricMedian::new().aggregate(&[]).is_err());
    }
}
