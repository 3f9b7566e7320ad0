//! Drift metrics: how far the adversary actually moved the trajectory.
//!
//! Adaptive (stateful) attacks do not announce themselves with huge
//! outliers — their proposals sit inside the honest cloud and bias the
//! trajectory a little every round. [`DriftTracker`] measures that bias with
//! two per-round quantities:
//!
//! * `dist_to_honest_mean` — `‖F − μ_honest‖`, the distance between the
//!   round's accepted aggregate and the mean of its honest proposals;
//! * `attacker_displacement` — the cumulative projection of the applied
//!   updates onto the attack direction (Byzantine mean minus honest mean,
//!   unit-normed): `Σ_t γ_t · ⟨F_t − μ_t, d̂_t⟩`. This is the attacker's net
//!   pull on the parameters; a defense works exactly when this stays flat.
//!
//! [`RoundCore`](crate::RoundCore) owns the tracker, so the in-process
//! engine and the `krum-server` job loop fill the same columns from the
//! same arithmetic — the loopback-equals-in-process invariant extends to the
//! drift metrics. All scratch is owned by the tracker; steady-state
//! observations allocate nothing.

use krum_metrics::RoundRecord;
use krum_tensor::Vector;

/// Accumulates drift metrics across rounds. Create one per run, call
/// [`DriftTracker::observe`] after every closed round, and it fills the
/// drift columns of the round's [`RoundRecord`].
#[derive(Debug, Clone, Default)]
pub(crate) struct DriftTracker {
    /// Cumulative projection of the applied updates onto the attack
    /// direction.
    displacement: f64,
    /// Scratch: mean of the round's honest proposals.
    honest_mean: Vector,
    /// Scratch: mean of the round's Byzantine proposals.
    byz_mean: Vector,
}

impl DriftTracker {
    /// A tracker starting from zero displacement.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A tracker resuming from a checkpointed run: `displacement` is the
    /// last recorded `attacker_displacement` (or 0 when none was recorded),
    /// so the resumed column continues the original series exactly.
    pub(crate) fn resume(displacement: f64) -> Self {
        Self {
            displacement,
            ..Self::default()
        }
    }

    /// Digests one closed round and fills the drift columns of its record.
    ///
    /// `proposals` are the vectors the round aggregated, `worker_ids[i]` the
    /// worker behind `proposals[i]` (workers `>= honest` are Byzantine),
    /// `aggregate` the accepted `F`, and `learning_rate` the `γ_t` the step
    /// applied. Rounds without honest proposals in the quorum leave the
    /// columns untouched; rounds without Byzantine proposals record the
    /// distance but carry the displacement unchanged.
    pub(crate) fn observe(
        &mut self,
        record: &mut RoundRecord,
        aggregate: &Vector,
        proposals: &[Vector],
        worker_ids: &[usize],
        honest: usize,
        learning_rate: f64,
    ) {
        debug_assert_eq!(proposals.len(), worker_ids.len());
        let dim = aggregate.dim();
        self.honest_mean.resize(dim, 0.0);
        self.honest_mean.fill(0.0);
        self.byz_mean.resize(dim, 0.0);
        self.byz_mean.fill(0.0);
        let mut honest_count = 0usize;
        let mut byz_count = 0usize;
        for (v, &w) in proposals.iter().zip(worker_ids) {
            if v.dim() != dim {
                continue;
            }
            if w < honest {
                self.honest_mean.axpy(1.0, v);
                honest_count += 1;
            } else {
                self.byz_mean.axpy(1.0, v);
                byz_count += 1;
            }
        }
        if honest_count == 0 {
            return;
        }
        self.honest_mean.scale(1.0 / honest_count as f64);
        // ‖F − μ‖ without allocating: accumulate the squared difference.
        let mut dist_sq = 0.0;
        for c in 0..dim {
            let d = aggregate[c] - self.honest_mean[c];
            dist_sq += d * d;
        }
        record.dist_to_honest_mean = Some(dist_sq.sqrt());
        if byz_count == 0 {
            record.attacker_displacement = Some(self.displacement);
            return;
        }
        self.byz_mean.scale(1.0 / byz_count as f64);
        // Attack direction d̂ = (μ_byz − μ_honest) / ‖·‖; project the applied
        // update γ·(F − μ_honest) onto it.
        let mut dir_sq = 0.0;
        let mut dot = 0.0;
        for c in 0..dim {
            let d = self.byz_mean[c] - self.honest_mean[c];
            dir_sq += d * d;
            dot += d * (aggregate[c] - self.honest_mean[c]);
        }
        let dir_norm = dir_sq.sqrt();
        if dir_norm > 0.0 && dot.is_finite() {
            self.displacement += learning_rate * dot / dir_norm;
        }
        record.attacker_displacement = Some(self.displacement);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RoundRecord {
        RoundRecord::new(0, 1.0, 0.1)
    }

    #[test]
    fn honest_only_round_records_distance_but_not_displacement_motion() {
        let mut tracker = DriftTracker::new();
        let proposals = vec![Vector::filled(3, 1.0), Vector::filled(3, 3.0)];
        let aggregate = Vector::filled(3, 2.5);
        let mut r = record();
        tracker.observe(&mut r, &aggregate, &proposals, &[0, 1], 2, 0.5);
        // μ = (2, 2, 2), ‖F − μ‖ = 0.5·√3.
        let expected = 0.5 * 3.0f64.sqrt();
        assert!((r.dist_to_honest_mean.unwrap() - expected).abs() < 1e-12);
        assert_eq!(r.attacker_displacement, Some(0.0));
        assert_eq!(tracker.displacement, 0.0);
    }

    #[test]
    fn displacement_accumulates_along_the_attack_direction() {
        let mut tracker = DriftTracker::new();
        // Honest at 0, attacker at (1, 0): attack direction is +x.
        let proposals = vec![
            Vector::from(vec![0.0, 0.0]),
            Vector::from(vec![0.0, 0.0]),
            Vector::from(vec![1.0, 0.0]),
        ];
        let ids = [0usize, 1, 2];
        // The accepted aggregate moved 0.3 along +x: with γ = 1 the
        // displacement grows by 0.3 per round.
        let aggregate = Vector::from(vec![0.3, 0.0]);
        let mut r = record();
        tracker.observe(&mut r, &aggregate, &proposals, &ids, 2, 1.0);
        assert!((tracker.displacement - 0.3).abs() < 1e-12);
        let mut r2 = record();
        tracker.observe(&mut r2, &aggregate, &proposals, &ids, 2, 1.0);
        assert!((r2.attacker_displacement.unwrap() - 0.6).abs() < 1e-12);
        // Movement *against* the attack direction subtracts.
        let repelled = Vector::from(vec![-0.1, 0.0]);
        let mut r3 = record();
        tracker.observe(&mut r3, &repelled, &proposals, &ids, 2, 1.0);
        assert!((tracker.displacement - 0.5).abs() < 1e-12);
        // Orthogonal movement projects to zero.
        let orthogonal = Vector::from(vec![0.0, 2.0]);
        let mut r4 = record();
        tracker.observe(&mut r4, &orthogonal, &proposals, &ids, 2, 1.0);
        assert!((tracker.displacement - 0.5).abs() < 1e-12);
        // The learning rate scales the projection.
        let mut r5 = record();
        tracker.observe(&mut r5, &aggregate, &proposals, &ids, 2, 0.1);
        assert!((tracker.displacement - 0.53).abs() < 1e-12);
    }

    #[test]
    fn resume_continues_the_series() {
        let mut tracker = DriftTracker::resume(7.5);
        assert_eq!(tracker.displacement, 7.5);
        let proposals = vec![Vector::from(vec![0.0]), Vector::from(vec![1.0])];
        let aggregate = Vector::from(vec![0.5]);
        let mut r = record();
        tracker.observe(&mut r, &aggregate, &proposals, &[0, 1], 1, 1.0);
        assert!((r.attacker_displacement.unwrap() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rounds_leave_the_columns_sane() {
        let mut tracker = DriftTracker::new();
        // No honest proposals in the quorum: nothing is recorded.
        let proposals = vec![Vector::from(vec![1.0])];
        let mut r = record();
        tracker.observe(&mut r, &Vector::from(vec![1.0]), &proposals, &[5], 2, 1.0);
        assert!(r.dist_to_honest_mean.is_none());
        assert!(r.attacker_displacement.is_none());
        // Byzantine mean coinciding with the honest mean: zero direction,
        // displacement holds instead of dividing by zero.
        let coincide = vec![Vector::from(vec![2.0]), Vector::from(vec![2.0])];
        let mut r = record();
        tracker.observe(&mut r, &Vector::from(vec![2.0]), &coincide, &[0, 9], 1, 1.0);
        assert_eq!(r.attacker_displacement, Some(0.0));
        assert!(tracker.displacement.is_finite());
    }
}
