//! Per-round measurement record and its column table.

use std::fmt::{Display, Write};

use serde::{Deserialize, Serialize};

/// Everything the parameter server measured during one synchronous round.
///
/// Fields that cannot always be computed (test accuracy, the angle to the true
/// gradient, which worker was selected) are optional; experiments fill in what
/// their configuration makes observable. [`RoundRecord::COLUMNS`] lists the
/// fields once more, in the same order, as the CSV columns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index `t`, starting at 0.
    pub round: usize,
    /// Training loss `Q(x_t)` (or the best available estimate of it).
    pub loss: Option<f64>,
    /// Accuracy on a held-out evaluation set, when one is configured.
    pub accuracy: Option<f64>,
    /// Norm of the true gradient `‖∇Q(x_t)‖` when analytically available.
    pub true_gradient_norm: Option<f64>,
    /// Norm of the aggregated update `‖F(V_1, …, V_n)‖`.
    pub aggregate_norm: f64,
    /// Cosine of the angle between the aggregate and the true gradient
    /// (`⟨F, g⟩ / (‖F‖·‖g‖)`), when the true gradient is available.
    pub alignment: Option<f64>,
    /// Distance between the parameter vector and a known optimum `‖x_t − x*‖`,
    /// when the optimum is known (quadratic cost experiments).
    pub distance_to_optimum: Option<f64>,
    /// Index of the worker whose proposal was selected, for selection rules
    /// (Krum, Multi-Krum with m = 1); `None` for averaging-style rules.
    pub selected_worker: Option<usize>,
    /// Whether the selected worker was Byzantine.
    pub selected_byzantine: Option<bool>,
    /// Learning rate `γ_t` used this round.
    pub learning_rate: f64,
    /// Wall-clock duration of the propose phase (honest workers estimating
    /// gradients at the broadcast parameters), in nanoseconds.
    pub propose_nanos: u128,
    /// Wall-clock duration of the attack phase (the adversary observing the
    /// round and forging its proposals), in nanoseconds.
    pub attack_nanos: u128,
    /// Wall-clock duration of the aggregation step, in nanoseconds.
    pub aggregation_nanos: u128,
    /// Simulated network time charged to this round (zero when no network
    /// model is attached), in nanoseconds. Included in `round_nanos`.
    pub network_nanos: u128,
    /// Wall-clock duration of the full round (including any simulated
    /// network charge), in nanoseconds.
    pub round_nanos: u128,
    /// Number of proposals aggregated this round (`None` for barrier
    /// strategies, where it is always `n`; `Some(q)` under async quorum).
    pub quorum_size: Option<usize>,
    /// How many quorum members were stale carry-overs from earlier rounds.
    pub stale_in_quorum: Option<usize>,
    /// Largest staleness (in rounds) among this round's quorum members.
    pub max_staleness_in_quorum: Option<usize>,
    /// In-flight proposals dropped this round for exceeding the staleness
    /// bound.
    pub dropped_stale: Option<usize>,
    /// In-flight proposals carried into the next round.
    pub pending_carryover: Option<usize>,
    /// Bytes exchanged on the wire for this round (frames sent plus frames
    /// received), when the round ran over a real transport (`krum-server`);
    /// `None` for in-process execution.
    pub wire_bytes: Option<u64>,
    /// Bytes the same round would have cost uncompressed (every gradient
    /// and parameter payload at its raw `8·dim` framing). Equal to
    /// `wire_bytes` when no codec is negotiated; the `raw_bytes /
    /// wire_bytes` ratio is the round's wire-compression factor. `None`
    /// for in-process execution.
    pub raw_bytes: Option<u64>,
    /// Wall-clock nanoseconds from the round's broadcast to the arrival
    /// that closed its quorum, measured on a real transport; `None` for
    /// in-process execution (where `network_nanos` carries the *simulated*
    /// charge instead).
    pub arrival_nanos: Option<u128>,
    /// Worker reconnections (`Rejoin` handshakes re-staffed into their old
    /// slot) absorbed during this round; `None` for in-process execution.
    pub reconnects: Option<u64>,
    /// 1 when this round closed degraded — an honest crash fault absorbed
    /// by the quorum path instead of a full barrier — else 0; `None` for
    /// in-process execution.
    pub degraded_rounds: Option<u64>,
    /// Bytes of checkpoint state persisted at the end of this round; `None`
    /// on rounds without a checkpoint, when checkpointing is off, or when
    /// the round ran in-process.
    pub checkpoint_bytes: Option<u64>,
    /// Distance between the accepted aggregate and the mean of this round's
    /// honest proposals `‖F − μ_honest‖` — how far the round's outcome was
    /// pulled from the honest consensus; `None` when the engine does not
    /// track drift.
    pub dist_to_honest_mean: Option<f64>,
    /// Cumulative projection of the applied updates onto the
    /// attacker-direction (Byzantine mean minus honest mean, unit-normed),
    /// summed over all rounds so far — the attacker's net displacement of
    /// the trajectory. `None` when untracked or when no Byzantine proposals
    /// were present.
    pub attacker_displacement: Option<f64>,
    /// `max − min` of the per-worker reputation weights after this round,
    /// for the reputation-weighted defense; `None` for stateless rules.
    pub reputation_spread: Option<f64>,
}

impl RoundRecord {
    /// The per-round schema: one entry per field, in field order. The CSV
    /// header is the column names and a row is the cells written in this
    /// order; the names are also the record's JSON keys. The *trajectory*
    /// columns form the bit-identity contract (see [`Column`]).
    pub const COLUMNS: &'static [Column] = &[
        Column::trajectory("round", |r, out| cell(out, r.round)),
        Column::trajectory("loss", |r, out| opt(out, r.loss)),
        Column::trajectory("accuracy", |r, out| opt(out, r.accuracy)),
        Column::trajectory("true_gradient_norm", |r, out| {
            opt(out, r.true_gradient_norm)
        }),
        Column::trajectory("aggregate_norm", |r, out| cell(out, r.aggregate_norm)),
        Column::trajectory("alignment", |r, out| opt(out, r.alignment)),
        Column::trajectory("distance_to_optimum", |r, out| {
            opt(out, r.distance_to_optimum)
        }),
        Column::trajectory("selected_worker", |r, out| opt(out, r.selected_worker)),
        Column::trajectory("selected_byzantine", |r, out| {
            opt(out, r.selected_byzantine)
        }),
        Column::trajectory("learning_rate", |r, out| cell(out, r.learning_rate)),
        Column::measured("propose_nanos", |r, out| cell(out, r.propose_nanos)),
        Column::measured("attack_nanos", |r, out| cell(out, r.attack_nanos)),
        Column::measured("aggregation_nanos", |r, out| cell(out, r.aggregation_nanos)),
        Column::measured("network_nanos", |r, out| cell(out, r.network_nanos)),
        Column::measured("round_nanos", |r, out| cell(out, r.round_nanos)),
        Column::measured("quorum_size", |r, out| opt(out, r.quorum_size)),
        Column::measured("stale_in_quorum", |r, out| opt(out, r.stale_in_quorum)),
        Column::measured("max_staleness_in_quorum", |r, out| {
            opt(out, r.max_staleness_in_quorum)
        }),
        Column::measured("dropped_stale", |r, out| opt(out, r.dropped_stale)),
        Column::measured("pending_carryover", |r, out| opt(out, r.pending_carryover)),
        Column::measured("wire_bytes", |r, out| opt(out, r.wire_bytes)),
        Column::measured("raw_bytes", |r, out| opt(out, r.raw_bytes)),
        Column::measured("arrival_nanos", |r, out| opt(out, r.arrival_nanos)),
        Column::measured("reconnects", |r, out| opt(out, r.reconnects)),
        Column::measured("degraded_rounds", |r, out| opt(out, r.degraded_rounds)),
        Column::measured("checkpoint_bytes", |r, out| opt(out, r.checkpoint_bytes)),
        Column::trajectory("dist_to_honest_mean", |r, out| {
            opt(out, r.dist_to_honest_mean)
        }),
        Column::trajectory("attacker_displacement", |r, out| {
            opt(out, r.attacker_displacement)
        }),
        Column::trajectory("reputation_spread", |r, out| opt(out, r.reputation_spread)),
    ];

    /// Creates a record with only the mandatory fields; the optional
    /// measurements start as `None`/zero and are filled in by the trainer.
    pub fn new(round: usize, aggregate_norm: f64, learning_rate: f64) -> Self {
        Self {
            round,
            aggregate_norm,
            learning_rate,
            ..Self::default()
        }
    }
}

/// One column of the per-round table ([`RoundRecord::COLUMNS`]).
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The field's name: its CSV header cell and its JSON key.
    pub name: &'static str,
    /// Whether the column belongs to the bit-identity contract: a
    /// deterministic function of (spec, seed) that every engine, execution
    /// strategy, transport, codec and resume reproduces bit for bit. The
    /// other columns are measured (timings, wire bytes, churn counters) or
    /// record how a strategy closed its quorum.
    pub trajectory: bool,
    /// Appends the cell's `Display` form to a row (nothing for `None`).
    pub(crate) write: fn(&RoundRecord, &mut String),
}

impl Column {
    const fn trajectory(name: &'static str, write: fn(&RoundRecord, &mut String)) -> Self {
        Self {
            name,
            trajectory: true,
            write,
        }
    }

    const fn measured(name: &'static str, write: fn(&RoundRecord, &mut String)) -> Self {
        Self {
            name,
            trajectory: false,
            write,
        }
    }
}

fn cell(out: &mut String, value: impl Display) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{value}");
}

fn opt(out: &mut String, value: Option<impl Display>) {
    if let Some(value) = value {
        cell(out, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_defaults() {
        let r = RoundRecord::new(3, 1.5, 0.01);
        assert_eq!(r.round, 3);
        assert_eq!(r.aggregate_norm, 1.5);
        assert_eq!(r.learning_rate, 0.01);
        assert!(r.loss.is_none());
        assert!(r.selected_worker.is_none());
        assert_eq!(r.aggregation_nanos, 0);
        assert_eq!(r.propose_nanos, 0);
        assert_eq!(r.attack_nanos, 0);
        assert_eq!(r.network_nanos, 0);
    }

    /// The table and the struct cannot drift apart: the column names are
    /// the serialized record's JSON keys, in order, so a new field left out
    /// of the table (or a column without a field) fails here.
    #[test]
    fn column_names_are_the_json_keys_in_order() {
        let json = serde_json::to_string(&RoundRecord::new(0, 1.0, 0.1)).unwrap();
        let keys: Vec<&str> = json
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .map(|pair| pair.split(':').next().unwrap().trim_matches('"'))
            .collect();
        let names: Vec<&str> = RoundRecord::COLUMNS.iter().map(|c| c.name).collect();
        assert_eq!(names, keys);
    }

    #[test]
    fn serde_round_trip() {
        // −0.0 serialises as `-0`; it must come back with its sign.
        for alignment in [0.99, -0.0] {
            let mut r = RoundRecord::new(9, 0.4, 0.05);
            r.alignment = Some(alignment);
            let json = serde_json::to_string(&r).unwrap();
            let back: RoundRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(r, back);
            assert_eq!(back.alignment.map(f64::to_bits), Some(alignment.to_bits()));
        }
    }
}
