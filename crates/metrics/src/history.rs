//! Training history: an ordered collection of round records plus metadata.

use serde::{Deserialize, Serialize};

use crate::round::RoundRecord;
use crate::selection::SelectionStats;

/// The full trajectory of one training run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Free-form run label, e.g. `"krum n=25 f=11 gaussian-attack"`.
    pub label: String,
    /// Name of the aggregation rule used by the parameter server.
    pub aggregator: String,
    /// Name of the attack the Byzantine workers ran (`"none"` if `f = 0`).
    pub attack: String,
    /// Total number of workers `n`.
    pub workers: usize,
    /// Number of Byzantine workers `f`.
    pub byzantine: usize,
    /// One record per completed round, in round order.
    pub rounds: Vec<RoundRecord>,
}

/// Summary of how (and whether) a run converged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceSummary {
    /// Loss at the first recorded round, when available.
    pub initial_loss: Option<f64>,
    /// Loss at the last recorded round, when available.
    pub final_loss: Option<f64>,
    /// Best (lowest) loss seen during the run, when available.
    pub best_loss: Option<f64>,
    /// Accuracy at the last recorded round, when available.
    pub final_accuracy: Option<f64>,
    /// Smallest recorded true-gradient norm, when available.
    pub min_gradient_norm: Option<f64>,
    /// Mean aggregation time per round in nanoseconds (0 when empty).
    pub mean_aggregate_nanos: f64,
    /// 99th-percentile (nearest-rank) aggregation time per round in
    /// nanoseconds (0 when empty) — the tail the scaling benchmarks watch.
    pub p99_aggregate_nanos: f64,
    /// Number of recorded rounds.
    pub rounds: usize,
    /// Whether any recorded quantity became non-finite (a diverged run).
    pub diverged: bool,
}

impl TrainingHistory {
    /// Creates an empty history with descriptive metadata.
    pub fn new(
        label: impl Into<String>,
        aggregator: impl Into<String>,
        attack: impl Into<String>,
        workers: usize,
        byzantine: usize,
    ) -> Self {
        Self {
            label: label.into(),
            aggregator: aggregator.into(),
            attack: attack.into(),
            workers,
            byzantine,
            rounds: Vec::new(),
        }
    }

    /// Appends one round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.rounds.push(record);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` when no round has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The last recorded round, if any.
    pub fn last(&self) -> Option<&RoundRecord> {
        self.rounds.last()
    }

    /// Where two runs' trajectories part: a length mismatch, or the first
    /// round and trajectory column (see [`Column`](crate::Column)) whose
    /// cells differ. `None` means every trajectory cell of every round
    /// matches.
    ///
    /// Cells compare as their CSV text. For a float that is its bits, sign
    /// of zero included, since `Display` prints the shortest decimal that
    /// parses back to the same value; only NaN payloads are not told apart.
    pub fn trajectory_mismatch(&self, other: &Self) -> Option<String> {
        if self.rounds.len() != other.rounds.len() {
            return Some(format!(
                "{} rounds vs {}",
                self.rounds.len(),
                other.rounds.len()
            ));
        }
        let (mut a, mut b) = (String::new(), String::new());
        for (x, y) in self.rounds.iter().zip(&other.rounds) {
            for column in RoundRecord::COLUMNS.iter().filter(|c| c.trajectory) {
                a.clear();
                b.clear();
                (column.write)(x, &mut a);
                (column.write)(y, &mut b);
                if a != b {
                    return Some(format!(
                        "round {}: {} is {a:?} vs {b:?}",
                        x.round, column.name
                    ));
                }
            }
        }
        None
    }

    /// Selection statistics accumulated over the whole run.
    pub fn selection_stats(&self) -> SelectionStats {
        let mut stats = SelectionStats::default();
        for r in &self.rounds {
            if let Some(byz) = r.selected_byzantine {
                stats.record(byz);
            }
        }
        stats
    }

    /// Mean of `pick` over the rounds where it is `Some`; 0 when it never is.
    fn mean_where_recorded(&self, pick: impl Fn(&RoundRecord) -> Option<f64>) -> f64 {
        let mut count = 0usize;
        let sum: f64 = self
            .rounds
            .iter()
            .filter_map(pick)
            .inspect(|_| count += 1)
            .sum();
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Mean aggregation time per round in nanoseconds (0 when empty).
    pub fn mean_aggregation_nanos(&self) -> f64 {
        self.mean_where_recorded(|r| Some(r.aggregation_nanos as f64))
    }

    /// 99th-percentile aggregation time per round in nanoseconds
    /// (nearest-rank over the recorded rounds; 0 when empty).
    pub fn p99_aggregation_nanos(&self) -> f64 {
        let mut times: Vec<u128> = self.rounds.iter().map(|r| r.aggregation_nanos).collect();
        if times.is_empty() {
            return 0.0;
        }
        times.sort_unstable();
        times[(99 * times.len()).div_ceil(100) - 1] as f64
    }

    /// Mean propose-phase (worker gradient) time per round in nanoseconds
    /// (0 when empty).
    pub fn mean_propose_nanos(&self) -> f64 {
        self.mean_where_recorded(|r| Some(r.propose_nanos as f64))
    }

    /// Mean attack-phase time per round in nanoseconds (0 when empty).
    pub fn mean_attack_nanos(&self) -> f64 {
        self.mean_where_recorded(|r| Some(r.attack_nanos as f64))
    }

    /// Mean simulated-network charge per round in nanoseconds (0 when empty
    /// or when no network model is attached).
    pub fn mean_network_nanos(&self) -> f64 {
        self.mean_where_recorded(|r| Some(r.network_nanos as f64))
    }

    /// Mean full-round time in nanoseconds (0 when empty).
    pub fn mean_round_nanos(&self) -> f64 {
        self.mean_where_recorded(|r| Some(r.round_nanos as f64))
    }

    /// Mean quorum size over the rounds that recorded one (async-quorum
    /// execution); 0 when the run never recorded a quorum.
    pub fn mean_quorum_size(&self) -> f64 {
        self.mean_where_recorded(|r| r.quorum_size.map(|v| v as f64))
    }

    /// Mean number of stale carry-over proposals aggregated per
    /// quorum-recording round; 0 when the run never recorded a quorum.
    pub fn mean_stale_in_quorum(&self) -> f64 {
        self.mean_where_recorded(|r| r.stale_in_quorum.map(|v| v as f64))
    }

    /// Total in-flight proposals dropped for exceeding the staleness bound
    /// over the whole run.
    pub fn total_dropped_stale(&self) -> usize {
        self.rounds.iter().filter_map(|r| r.dropped_stale).sum()
    }

    /// Mean wire traffic per round in bytes, over the rounds that ran on a
    /// real transport (`krum-server`); 0 when the run was in-process.
    pub fn mean_wire_bytes(&self) -> f64 {
        self.mean_where_recorded(|r| r.wire_bytes.map(|v| v as f64))
    }

    /// Mean uncompressed-equivalent traffic per round in bytes, over the
    /// rounds that ran on a real transport; 0 when the run was in-process.
    /// Equal to [`TrainingHistory::mean_wire_bytes`] when no codec was
    /// negotiated.
    pub fn mean_raw_bytes(&self) -> f64 {
        self.mean_where_recorded(|r| r.raw_bytes.map(|v| v as f64))
    }

    /// Total uncompressed-equivalent traffic of the run in bytes (0 when
    /// in-process).
    pub fn total_raw_bytes(&self) -> u64 {
        self.rounds.iter().filter_map(|r| r.raw_bytes).sum()
    }

    /// Mean broadcast-to-quorum-close arrival latency per round in
    /// nanoseconds, over the rounds that ran on a real transport; 0 when
    /// the run was in-process.
    pub fn mean_arrival_nanos(&self) -> f64 {
        self.mean_where_recorded(|r| r.arrival_nanos.map(|v| v as f64))
    }

    /// Total worker reconnections absorbed over the run (0 when in-process
    /// or churn-free).
    pub fn total_reconnects(&self) -> u64 {
        self.rounds.iter().filter_map(|r| r.reconnects).sum()
    }

    /// Total rounds that closed degraded — an honest crash fault absorbed
    /// by the quorum path instead of a full barrier (0 when in-process).
    pub fn total_degraded_rounds(&self) -> u64 {
        self.rounds.iter().filter_map(|r| r.degraded_rounds).sum()
    }

    /// Total checkpoint bytes persisted over the run (0 when checkpointing
    /// is off or the run was in-process).
    pub fn total_checkpoint_bytes(&self) -> u64 {
        self.rounds.iter().filter_map(|r| r.checkpoint_bytes).sum()
    }

    /// Mean distance between the accepted aggregate and the honest mean,
    /// over the rounds that tracked drift (0 when untracked).
    pub fn mean_dist_to_honest_mean(&self) -> f64 {
        self.mean_where_recorded(|r| r.dist_to_honest_mean)
    }

    /// The attacker's cumulative displacement of the trajectory at the end
    /// of the run — the last recorded `attacker_displacement` (`None` when
    /// drift was never tracked or no Byzantine proposals were present).
    pub fn final_attacker_displacement(&self) -> Option<f64> {
        self.rounds
            .iter()
            .rev()
            .find_map(|r| r.attacker_displacement)
    }

    /// Builds a [`ConvergenceSummary`] over the recorded rounds.
    pub fn summary(&self) -> ConvergenceSummary {
        let losses: Vec<f64> = self.rounds.iter().filter_map(|r| r.loss).collect();
        let accuracy = self.rounds.iter().rev().find_map(|r| r.accuracy);
        let grad_norms: Vec<f64> = self
            .rounds
            .iter()
            .filter_map(|r| r.true_gradient_norm)
            .collect();
        let diverged = self.rounds.iter().any(|r| {
            r.loss.is_some_and(|l| !l.is_finite())
                || !r.aggregate_norm.is_finite()
                || r.true_gradient_norm.is_some_and(|g| !g.is_finite())
        });
        ConvergenceSummary {
            initial_loss: losses.first().copied(),
            final_loss: losses.last().copied(),
            best_loss: losses.iter().copied().reduce(f64::min),
            final_accuracy: accuracy,
            min_gradient_norm: grad_norms.iter().copied().reduce(f64::min),
            mean_aggregate_nanos: self.mean_aggregation_nanos(),
            p99_aggregate_nanos: self.p99_aggregation_nanos(),
            rounds: self.rounds.len(),
            diverged,
        }
    }
}

impl Extend<RoundRecord> for TrainingHistory {
    fn extend<T: IntoIterator<Item = RoundRecord>>(&mut self, iter: T) {
        self.rounds.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, loss: f64, acc: f64) -> RoundRecord {
        let mut r = RoundRecord::new(round, 1.0, 0.1);
        r.loss = Some(loss);
        r.accuracy = Some(acc);
        r.true_gradient_norm = Some(loss * 2.0);
        r
    }

    fn history() -> TrainingHistory {
        let mut h = TrainingHistory::new("test", "krum", "none", 10, 3);
        for (i, (l, a)) in [(1.0, 0.3), (0.6, 0.5), (0.3, 0.7), (0.1, 0.9)]
            .iter()
            .enumerate()
        {
            h.push(record(i, *l, *a));
        }
        h
    }

    #[test]
    fn metadata_and_last_round() {
        let h = history();
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        assert_eq!(h.aggregator, "krum");
        assert_eq!(h.workers, 10);
        assert_eq!(h.byzantine, 3);
        assert_eq!(h.last().unwrap().round, 3);
    }

    /// Only the trajectory columns count, compared as CSV text: measured
    /// columns may differ, the sign of a zero may not, and a missing round
    /// is a mismatch of its own.
    #[test]
    fn trajectory_mismatch_names_the_first_differing_cell() {
        let a = history();
        assert_eq!(a.trajectory_mismatch(&a.clone()), None);

        let mut measured = a.clone();
        measured.rounds[1].round_nanos = 99;
        measured.rounds[1].wire_bytes = Some(4_096);
        measured.rounds[1].quorum_size = Some(9);
        assert_eq!(a.trajectory_mismatch(&measured), None);

        let mut drifted = a.clone();
        drifted.rounds[2].attacker_displacement = Some(0.5);
        drifted.rounds[3].loss = None;
        assert_eq!(
            a.trajectory_mismatch(&drifted).as_deref(),
            Some("round 2: attacker_displacement is \"\" vs \"0.5\"")
        );

        let (mut plus, mut minus) = (a.clone(), a.clone());
        plus.rounds[0].alignment = Some(0.0);
        minus.rounds[0].alignment = Some(-0.0);
        assert_eq!(
            plus.trajectory_mismatch(&minus).as_deref(),
            Some("round 0: alignment is \"0\" vs \"-0\"")
        );

        let mut short = a.clone();
        short.rounds.pop();
        assert_eq!(
            a.trajectory_mismatch(&short).as_deref(),
            Some("4 rounds vs 3")
        );
    }

    #[test]
    fn summary_reports_losses_and_divergence() {
        let h = history();
        let s = h.summary();
        assert_eq!(s.initial_loss, Some(1.0));
        assert_eq!(s.final_loss, Some(0.1));
        assert_eq!(s.best_loss, Some(0.1));
        assert_eq!(s.final_accuracy, Some(0.9));
        assert_eq!(s.min_gradient_norm, Some(0.2));
        assert_eq!(s.rounds, 4);
        assert!(!s.diverged);

        let mut bad = history();
        bad.push(record(4, f64::INFINITY, 0.0));
        assert!(bad.summary().diverged);
    }

    #[test]
    fn empty_history_summary_is_all_none() {
        let h = TrainingHistory::new("empty", "average", "none", 5, 0);
        let s = h.summary();
        assert!(s.initial_loss.is_none());
        assert!(s.best_loss.is_none());
        assert_eq!(s.rounds, 0);
        assert!(!s.diverged);
        assert_eq!(h.mean_aggregation_nanos(), 0.0);
        assert_eq!(h.p99_aggregation_nanos(), 0.0);
        assert_eq!(s.mean_aggregate_nanos, 0.0);
        assert_eq!(s.p99_aggregate_nanos, 0.0);
        assert_eq!(h.mean_round_nanos(), 0.0);
    }

    #[test]
    fn selection_stats_accumulate() {
        let mut h = TrainingHistory::new("sel", "krum", "collusion", 10, 2);
        for i in 0..6 {
            let mut r = RoundRecord::new(i, 1.0, 0.1);
            r.selected_byzantine = Some(i % 3 == 0);
            h.push(r);
        }
        let stats = h.selection_stats();
        assert_eq!(stats.total(), 6);
        assert_eq!(stats.byzantine_selected(), 2);
        assert!((stats.byzantine_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn timing_means() {
        let mut h = TrainingHistory::new("t", "krum", "none", 4, 0);
        for i in 0..3 {
            let mut r = RoundRecord::new(i, 1.0, 0.1);
            r.aggregation_nanos = 100 * (i as u128 + 1);
            r.propose_nanos = 50;
            r.attack_nanos = 10 * (i as u128 + 1);
            r.network_nanos = 400;
            r.round_nanos = 1000;
            h.push(r);
        }
        assert!((h.mean_aggregation_nanos() - 200.0).abs() < 1e-9);
        // Nearest-rank p99 over {100, 200, 300} is the max, and the
        // summary carries both aggregate-time statistics.
        assert!((h.p99_aggregation_nanos() - 300.0).abs() < 1e-9);
        let s = h.summary();
        assert!((s.mean_aggregate_nanos - 200.0).abs() < 1e-9);
        assert!((s.p99_aggregate_nanos - 300.0).abs() < 1e-9);
        assert!((h.mean_round_nanos() - 1000.0).abs() < 1e-9);
        assert!((h.mean_propose_nanos() - 50.0).abs() < 1e-9);
        assert!((h.mean_attack_nanos() - 20.0).abs() < 1e-9);
        assert!((h.mean_network_nanos() - 400.0).abs() < 1e-9);
        let empty = TrainingHistory::new("e", "krum", "none", 4, 0);
        assert_eq!(empty.mean_propose_nanos(), 0.0);
        assert_eq!(empty.mean_network_nanos(), 0.0);
    }

    #[test]
    fn quorum_statistics_aggregate_over_async_rounds() {
        let mut h = TrainingHistory::new("q", "krum", "straggler", 10, 2);
        // Two async rounds and one barrier round (no quorum columns).
        for (i, (q, stale, dropped)) in [(8, 0, 1), (8, 2, 0)].iter().enumerate() {
            let mut r = RoundRecord::new(i, 1.0, 0.1);
            r.quorum_size = Some(*q);
            r.stale_in_quorum = Some(*stale);
            r.dropped_stale = Some(*dropped);
            h.push(r);
        }
        h.push(RoundRecord::new(2, 1.0, 0.1));
        assert!((h.mean_quorum_size() - 8.0).abs() < 1e-12);
        assert!((h.mean_stale_in_quorum() - 1.0).abs() < 1e-12);
        assert_eq!(h.total_dropped_stale(), 1);
        let empty = TrainingHistory::new("e", "krum", "none", 4, 0);
        assert_eq!(empty.mean_quorum_size(), 0.0);
        assert_eq!(empty.total_dropped_stale(), 0);
    }

    /// Satellite: the wire statistics aggregate only over networked rounds
    /// and report zero for in-process histories.
    #[test]
    fn wire_statistics_aggregate_over_networked_rounds() {
        let mut h = TrainingHistory::new("w", "krum", "sign-flip", 9, 2);
        for (i, (bytes, arrival)) in [(1_000u64, 500u128), (3_000, 1_500)].iter().enumerate() {
            let mut r = RoundRecord::new(i, 1.0, 0.1);
            r.wire_bytes = Some(*bytes);
            r.raw_bytes = Some(*bytes * 4);
            r.arrival_nanos = Some(*arrival);
            h.push(r);
        }
        h.push(RoundRecord::new(2, 1.0, 0.1)); // in-process round
        assert!((h.mean_wire_bytes() - 2_000.0).abs() < 1e-12);
        assert!((h.mean_raw_bytes() - 8_000.0).abs() < 1e-12);
        assert_eq!(h.total_raw_bytes(), 16_000);
        assert!((h.mean_arrival_nanos() - 1_000.0).abs() < 1e-12);
        let empty = TrainingHistory::new("e", "krum", "none", 4, 0);
        assert_eq!(empty.mean_wire_bytes(), 0.0);
        assert_eq!(empty.mean_raw_bytes(), 0.0);
        assert_eq!(empty.total_raw_bytes(), 0);
        assert_eq!(empty.mean_arrival_nanos(), 0.0);
    }

    /// The drift statistics aggregate only over drift-tracking rounds; the
    /// final displacement is the last recorded value, not a sum (the column
    /// is already cumulative).
    #[test]
    fn drift_statistics_aggregate_over_tracking_rounds() {
        let mut h = TrainingHistory::new("d", "krum", "inlier-drift", 9, 2);
        assert_eq!(h.mean_dist_to_honest_mean(), 0.0);
        assert_eq!(h.final_attacker_displacement(), None);
        for (i, (dist, disp)) in [(1.0, 0.5), (3.0, 1.25)].iter().enumerate() {
            let mut r = RoundRecord::new(i, 1.0, 0.1);
            r.dist_to_honest_mean = Some(*dist);
            r.attacker_displacement = Some(*disp);
            h.push(r);
        }
        h.push(RoundRecord::new(2, 1.0, 0.1)); // untracked round
        assert!((h.mean_dist_to_honest_mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.final_attacker_displacement(), Some(1.25));
    }

    #[test]
    fn extend_appends_records() {
        let mut h = TrainingHistory::new("e", "average", "none", 2, 0);
        h.extend(vec![
            RoundRecord::new(0, 1.0, 0.1),
            RoundRecord::new(1, 1.0, 0.1),
        ]);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let h = history();
        let json = serde_json::to_string(&h).unwrap();
        let back: TrainingHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }

    /// Churn totals sum only the rounds that recorded the transport-side
    /// counters.
    #[test]
    fn churn_totals_sum_the_recorded_rounds() {
        let mut h = TrainingHistory::new("churn", "krum", "none", 9, 2);
        assert_eq!(h.total_reconnects(), 0);
        assert_eq!(h.total_degraded_rounds(), 0);
        assert_eq!(h.total_checkpoint_bytes(), 0);
        for i in 0..4 {
            let mut r = RoundRecord::new(i, 1.0, 0.1);
            r.reconnects = Some(u64::from(i == 2));
            r.degraded_rounds = Some(u64::from(i == 2));
            r.checkpoint_bytes = (i % 2 == 1).then_some(1_000);
            h.push(r);
        }
        h.push(RoundRecord::new(4, 1.0, 0.1)); // in-process round: all None
        assert_eq!(h.total_reconnects(), 1);
        assert_eq!(h.total_degraded_rounds(), 1);
        assert_eq!(h.total_checkpoint_bytes(), 2_000);
    }
}
