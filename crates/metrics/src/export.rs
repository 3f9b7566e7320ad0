//! Exporters: CSV and JSON serialisation of training histories.

use thiserror::Error;

use crate::history::TrainingHistory;
use crate::round::{Column, RoundRecord};

/// Errors raised when exporting metrics.
#[derive(Debug, Error)]
pub enum ExportError {
    /// Serialisation to JSON failed.
    #[error("failed to serialise history to JSON: {0}")]
    Json(#[from] serde_json::Error),
}

/// Renders a history as a CSV document: a header of the
/// [`RoundRecord::COLUMNS`] names, then one row per round (an empty cell
/// for `None`).
pub fn to_csv(history: &TrainingHistory) -> String {
    fn line(out: &mut String, mut cell: impl FnMut(&Column, &mut String)) {
        for (i, column) in RoundRecord::COLUMNS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            cell(column, out);
        }
        out.push('\n');
    }
    let mut out = String::new();
    line(&mut out, |column, out| out.push_str(column.name));
    for record in &history.rounds {
        line(&mut out, |column, out| (column.write)(record, out));
    }
    out
}

/// Renders a history as pretty-printed JSON.
///
/// # Errors
///
/// Returns [`ExportError::Json`] if serialisation fails.
pub fn to_json(history: &TrainingHistory) -> Result<String, ExportError> {
    Ok(serde_json::to_string_pretty(history)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> TrainingHistory {
        let mut h = TrainingHistory::new("export-test", "krum", "gaussian", 12, 4);
        for i in 0..3 {
            let mut r = RoundRecord::new(i, 1.0 / (i + 1) as f64, 0.1);
            r.loss = Some(2.0 / (i + 1) as f64);
            h.push(r);
        }
        h
    }

    #[test]
    fn csv_has_header_and_one_row_per_round() {
        let csv = to_csv(&history());
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("round,loss"));
        assert!(lines[1].starts_with("0,2,"));
    }

    /// The header line, byte for byte.
    #[test]
    fn csv_header_is_pinned() {
        let csv = to_csv(&TrainingHistory::default());
        assert_eq!(
            csv,
            "round,loss,accuracy,true_gradient_norm,aggregate_norm,alignment,\
             distance_to_optimum,selected_worker,selected_byzantine,learning_rate,\
             propose_nanos,attack_nanos,aggregation_nanos,network_nanos,round_nanos,\
             quorum_size,stale_in_quorum,max_staleness_in_quorum,dropped_stale,\
             pending_carryover,wire_bytes,raw_bytes,arrival_nanos,reconnects,\
             degraded_rounds,checkpoint_bytes,dist_to_honest_mean,\
             attacker_displacement,reputation_spread\n"
        );
        let trajectory: Vec<&str> = RoundRecord::COLUMNS
            .iter()
            .filter(|c| c.trajectory)
            .map(|c| c.name)
            .collect();
        assert_eq!(
            trajectory.join(","),
            "round,loss,accuracy,true_gradient_norm,aggregate_norm,alignment,\
             distance_to_optimum,selected_worker,selected_byzantine,learning_rate,\
             dist_to_honest_mean,attacker_displacement,reputation_spread"
        );
    }

    /// Two rows, byte for byte: every column filled (negative zero, a value
    /// whose `Display` has 300 decimals, a nanosecond count above 2^64,
    /// infinity), and a fresh `RoundRecord::new`.
    #[test]
    fn csv_rows_are_pinned() {
        let full = RoundRecord {
            round: 7,
            loss: Some(-0.0),
            accuracy: Some(0.875),
            true_gradient_norm: Some(1e-300),
            aggregate_norm: 2.5,
            alignment: Some(-0.25),
            distance_to_optimum: Some(0.1 + 0.2),
            selected_worker: Some(3),
            selected_byzantine: Some(true),
            learning_rate: 0.1,
            propose_nanos: 11,
            attack_nanos: 22,
            aggregation_nanos: 33,
            network_nanos: 44,
            round_nanos: u128::from(u64::MAX) + 1,
            quorum_size: Some(9),
            stale_in_quorum: Some(2),
            max_staleness_in_quorum: Some(1),
            dropped_stale: Some(0),
            pending_carryover: Some(3),
            wire_bytes: Some(81_920),
            raw_bytes: Some(327_680),
            arrival_nanos: Some(1_500_000),
            reconnects: Some(1),
            degraded_rounds: Some(0),
            checkpoint_bytes: Some(4_096),
            dist_to_honest_mean: Some(0.5),
            attacker_displacement: Some(-12.25),
            reputation_spread: Some(f64::INFINITY),
        };
        let mut h = TrainingHistory::default();
        h.push(full);
        h.push(RoundRecord::new(1, 0.0, 0.1));
        let csv = to_csv(&h);
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let tiny = format!("0.{}1", "0".repeat(299));
        assert_eq!(
            rows,
            [
                format!(
                    "7,-0,0.875,{tiny},2.5,-0.25,0.30000000000000004,3,true,0.1,\
                     11,22,33,44,18446744073709551616,9,2,1,0,3,81920,327680,1500000,\
                     1,0,4096,0.5,-12.25,inf"
                )
                .as_str(),
                "1,,,,0,,,,,0.1,0,0,0,0,0,,,,,,,,,,,,,,",
            ]
        );
    }

    #[test]
    fn json_round_trips_through_serde() {
        let h = history();
        let json = to_json(&h).unwrap();
        let back: TrainingHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
