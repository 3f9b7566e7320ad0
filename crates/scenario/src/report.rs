//! The scenario run report and its exports.

use std::path::Path;

use krum_metrics::{ConvergenceSummary, TrainingHistory};
use krum_tensor::Vector;
use serde::{Deserialize, Serialize};

use crate::error::ScenarioError;
use crate::spec::ScenarioSpec;

/// Escapes one metadata value for the CSV `#` comment header: backslashes,
/// line breaks and commas are backslash-escaped (`\\`, `\n`, `\r`, `\,`) so
/// every `# key: value` entry stays exactly one machine-parseable line no
/// matter what the scenario name or a display string contains.
pub fn escape_metadata(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            ',' => out.push_str("\\,"),
            other => out.push(other),
        }
    }
    out
}

/// Everything one [`Scenario::run`](crate::Scenario::run) produced: the spec
/// it ran, the final parameters, the full per-round history (with per-phase
/// timings) and the wall-clock total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The spec the run was built from (round-trippable: re-running it
    /// reproduces this report's trajectory exactly).
    pub spec: ScenarioSpec,
    /// Final parameter vector `x_T`.
    pub final_params: Vector,
    /// One record per round, with convergence metrics and phase timings.
    pub history: TrainingHistory,
    /// Wall-clock duration of the whole run in nanoseconds (engine rounds
    /// only; excludes data generation and wiring).
    pub wall_nanos: u128,
}

impl ScenarioReport {
    /// Convergence summary over the recorded rounds.
    pub fn summary(&self) -> ConvergenceSummary {
        self.history.summary()
    }

    /// Human-readable metadata describing the run — the scenario's key/value
    /// header, using the `Display` forms of the rule, attack, schedule and
    /// execution strategy.
    pub fn metadata(&self) -> Vec<(&'static str, String)> {
        let spec = &self.spec;
        let mut entries = vec![
            ("scenario", spec.name.clone()),
            ("rule", spec.rule.to_string()),
            ("attack", spec.attack.to_string()),
            (
                "cluster",
                format!(
                    "n={}, f={}",
                    spec.cluster.workers(),
                    spec.cluster.byzantine()
                ),
            ),
            ("dim", self.final_params.dim().to_string()),
            ("schedule", spec.schedule.to_string()),
            ("execution", spec.execution.to_string()),
            ("rounds", spec.rounds.to_string()),
            ("eval_every", spec.eval_every.to_string()),
            ("seed", spec.seed.to_string()),
            ("wall_ms", format!("{:.3}", self.wall_nanos as f64 / 1e6)),
            (
                "aggregate_ns_mean",
                format!("{:.0}", self.history.mean_aggregation_nanos()),
            ),
            (
                "aggregate_ns_p99",
                format!("{:.0}", self.history.p99_aggregation_nanos()),
            ),
        ];
        if let Some(plan) = &spec.fault_plan {
            entries.push(("fault_plan", plan.headline()));
        }
        if let Some(compression) = &spec.compression {
            entries.push(("compression", compression.to_string()));
        }
        if let Some(displacement) = self.history.final_attacker_displacement() {
            entries.push(("final_attacker_displacement", format!("{displacement:.6}")));
        }
        entries
    }

    /// The metadata block as `# key: value` comment lines. Free-form and
    /// display-derived values (scenario name, rule/attack/schedule/execution
    /// displays) are escaped (see [`escape_metadata`]) so embedded newlines
    /// or commas can never break the one-line-per-key comment structure or
    /// a comma-splitting consumer. The `cluster` value keeps its structural
    /// `n=…, f=…` comma, and `compression` keeps the structural commas of
    /// its spec grammar (`bfp:block=64,bits=12`) so the value parses back
    /// through `CompressionSpec::from_str`; the numeric fields cannot
    /// contain either.
    pub fn header(&self) -> String {
        let mut out = String::new();
        for (key, value) in self.metadata() {
            let value = match key {
                "scenario" | "rule" | "attack" | "schedule" | "execution" | "fault_plan" => {
                    escape_metadata(&value)
                }
                _ => value,
            };
            out.push_str(&format!("# {key}: {value}\n"));
        }
        out
    }

    /// Renders the report as CSV: the `#`-prefixed metadata header followed
    /// by the round-record table of [`krum_metrics::to_csv`].
    pub fn to_csv(&self) -> String {
        let mut out = self.header();
        out.push_str(&krum_metrics::to_csv(&self.history));
        out
    }

    /// Renders the full report (spec included) as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Json`] if serialisation fails.
    pub fn to_json(&self) -> Result<String, ScenarioError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Writes the CSV rendering to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] on filesystem errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        std::fs::write(path, self.to_csv())?;
        Ok(())
    }

    /// Writes the JSON rendering to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Json`] or [`ScenarioError::Io`].
    pub fn write_json(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExecutionSpec, InitSpec, ProbeSpec};
    use crate::Scenario;
    use krum_attacks::AttackSpec;
    use krum_core::RuleSpec;
    use krum_dist::{ClusterSpec, LearningRateSchedule};
    use krum_models::EstimatorSpec;

    fn report() -> ScenarioReport {
        let spec = ScenarioSpec {
            name: "report-test".into(),
            cluster: ClusterSpec::new(9, 2).unwrap(),
            rule: RuleSpec::MultiKrum { m: Some(3) },
            attack: AttackSpec::GaussianNoise { std: 10.0 },
            estimator: EstimatorSpec::GaussianQuadratic { dim: 4, sigma: 0.1 },
            schedule: LearningRateSchedule::Constant { gamma: 0.2 },
            execution: ExecutionSpec::Sequential,
            rounds: 6,
            eval_every: 2,
            seed: 1,
            init: InitSpec::Fill { value: 1.0 },
            probes: ProbeSpec::default(),
            fault_plan: None,
            compression: None,
        };
        Scenario::from_spec(spec).unwrap().run().unwrap()
    }

    #[test]
    fn csv_has_readable_metadata_then_standard_table() {
        let r = report();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Metadata first, all comment-prefixed and human-readable.
        assert!(lines[0].starts_with("# scenario: report-test"));
        assert!(csv.contains("# rule: multi-krum:m=3"));
        assert!(csv.contains("# attack: gaussian-noise:std=10"));
        assert!(csv.contains("# schedule: constant(gamma=0.2)"));
        assert!(csv.contains("# execution: sequential"));
        assert!(csv.contains("# cluster: n=9, f=2"));
        // Satellite: the aggregate-time statistics ride every CSV header.
        assert!(csv.contains("# aggregate_ns_mean: "));
        assert!(csv.contains("# aggregate_ns_p99: "));
        // Then the standard header and one row per round.
        let header_idx = lines
            .iter()
            .position(|l| l.starts_with("round,loss"))
            .expect("csv header present");
        assert_eq!(lines.len() - header_idx - 1, 6, "one row per round");
        let cells = krum_metrics::RoundRecord::COLUMNS.len();
        for row in &lines[header_idx + 1..] {
            assert_eq!(row.split(',').count(), cells, "well-formed row: {row}");
        }
    }

    /// Satellite: a free-form scenario name (or any display-derived value)
    /// containing commas, newlines or backslashes cannot break the
    /// one-line-per-key `#` metadata structure.
    #[test]
    fn metadata_header_escapes_newlines_and_commas() {
        assert_eq!(escape_metadata("plain"), "plain");
        assert_eq!(escape_metadata("a,b"), "a\\,b");
        assert_eq!(escape_metadata("a\nb\r"), "a\\nb\\r");
        assert_eq!(escape_metadata("a\\n"), "a\\\\n");

        let mut r = report();
        r.spec.name = "evil,name\nsecond line\\".into();
        let header = r.header();
        assert_eq!(
            header.lines().count(),
            r.metadata().len(),
            "one comment line per metadata key, no matter the name"
        );
        assert!(header.lines().all(|l| l.starts_with("# ")));
        assert!(header.contains("# scenario: evil\\,name\\nsecond line\\\\"));
        // The cluster value keeps its structural comma.
        assert!(header.contains("# cluster: n=9, f=2"));
        // The full CSV stays machine-parseable: comment lines then
        // constant-arity rows.
        let csv = r.to_csv();
        let cells = krum_metrics::RoundRecord::COLUMNS.len();
        for line in csv.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(',').count(), cells, "row: {line}");
        }
    }

    /// Satellite: the free-form fault-plan description rides the same
    /// escaping path, so a scripted-chaos CSV stays one line per key.
    #[test]
    fn fault_plan_description_is_escaped_in_metadata() {
        let mut r = report();
        assert!(
            !r.header().contains("fault_plan"),
            "plans absent from un-chaotic headers"
        );
        r.spec.fault_plan = Some(crate::FaultPlan {
            description: "drop conn 2,\nthen kill\\resume".into(),
            faults: Vec::new(),
            kill_server_after_round: Some(1),
        });
        let header = r.header();
        assert_eq!(
            header.lines().count(),
            r.metadata().len(),
            "one comment line per metadata key, plan included"
        );
        assert!(header.contains("# fault_plan: drop conn 2\\,\\nthen kill\\\\resume"));
        // An empty description falls back to the structured headline.
        r.spec.fault_plan.as_mut().unwrap().description.clear();
        assert!(r
            .header()
            .contains("# fault_plan: 0 fault(s) + server kill/resume"));
    }

    /// The negotiated codec rides the CSV `#` metadata so a consumer can
    /// tell a quantized run from a raw one without the spec JSON.
    #[test]
    fn compression_spec_rides_the_metadata_header() {
        let mut r = report();
        assert!(
            !r.header().contains("compression"),
            "codec absent from uncompressed headers"
        );
        r.spec.compression = Some(krum_compress::CompressionSpec::Bfp {
            block: 64,
            bits: 12,
        });
        assert!(r.header().contains("# compression: bfp:block=64,bits=12"));
    }

    #[test]
    fn json_round_trips_spec_and_history() {
        let r = report();
        let json = r.to_json().unwrap();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.spec.rule, RuleSpec::MultiKrum { m: Some(3) });
    }

    #[test]
    fn files_are_written() {
        let dir = std::env::temp_dir().join(format!("krum-scenario-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let r = report();
        r.write_csv(dir.join("run.csv")).unwrap();
        r.write_json(dir.join("run.json")).unwrap();
        assert!(std::fs::read_to_string(dir.join("run.csv"))
            .unwrap()
            .contains("round,loss"));
        assert!(std::fs::read_to_string(dir.join("run.json"))
            .unwrap()
            .contains("\"final_params\""));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(r.write_csv("/nonexistent-dir/OUT/run.csv").is_err());
    }
}
