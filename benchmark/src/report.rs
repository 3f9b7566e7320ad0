//! What a run reports: its outcome tally, its metrics, and the percentile
//! rule for round latencies.

use std::fmt::Display;

/// Rounds at the start of every session that no timing metric counts: the
/// aggregation workspace, proposal buffers and caches fill there.
pub const WARMUP: usize = 20;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles in per mille, highest first.
const LADDER: [usize; 4] = [999, 990, 900, 500];

/// Nearest-rank percentile of ascending `sorted`, `permille` in 1..=1000
/// (0 for no samples).
pub fn percentile(sorted: &[u64], permille: usize) -> u64 {
    let rank = (permille * sorted.len()).div_ceil(1000).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// How many of `n` samples lie beyond the nearest-rank percentile.
pub fn beyond(n: usize, permille: usize) -> usize {
    n - (permille * n).div_ceil(1000).max(1).min(n)
}

/// The highest percentile of the ladder (99.9, 99, 90, 50) with at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, in per mille.
pub fn highest_reportable(n: usize) -> Option<usize> {
    LADDER
        .into_iter()
        .find(|&permille| beyond(n, permille) >= TAIL_SAMPLES)
}

/// The median of `values` (the lower one for an even count).
pub fn median(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted
        .get((sorted.len().max(1) - 1) / 2)
        .copied()
        .unwrap_or(0)
}

/// Rounds attempted and lost, and every failed output check.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Run {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records an error that ended a session with `lost` rounds unfinished.
    pub fn fail(&mut self, lost: u64, why: impl Display) {
        self.failed += lost;
        self.failures.push(why.to_string());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Pairs each `(name, unit)` of a metric table with its value.
pub fn named<const N: usize>(
    table: &[(&'static str, &'static str); N],
    values: [f64; N],
) -> Vec<Metric> {
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Whether `name` is a valid metric name: a letter or digit, then up to 63
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Prints the metrics as a table on stderr and the result object as the
/// last line of stdout. An invalid name or a value that is not finite fails
/// the run.
pub fn print(workload: &str, run: &mut Run, metrics: &[Metric]) {
    for m in metrics {
        run.check(valid_name(m.name), || {
            format!("invalid metric name {}", m.name)
        });
        run.check(m.value.is_finite(), || format!("{} is not finite", m.name));
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &run.failures {
        eprintln!("  CHECK FAILED: {failure}");
    }
    eprintln!(
        "{workload}: {} rounds attempted, {} failed, correct = {}",
        run.attempted,
        run.failed,
        run.correct()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}":{{"value":{value},"unit":"{}"}}"#, m.name, m.unit)
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        run.correct(),
        run.attempted,
        run.failed,
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_reportable(9), None);
        assert_eq!(highest_reportable(20), Some(500));
        assert_eq!(highest_reportable(99), Some(500));
        assert_eq!(highest_reportable(100), Some(900));
        assert_eq!(highest_reportable(999), Some(900));
        assert_eq!(highest_reportable(1_000), Some(990));
        assert_eq!(highest_reportable(9_999), Some(990));
        assert_eq!(highest_reportable(10_000), Some(999));
        for n in [100, 1_000, 1_234, 10_000] {
            let permille = highest_reportable(n).unwrap();
            assert!(beyond(n, permille) >= TAIL_SAMPLES);
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&sorted, 500), 500);
        assert_eq!(percentile(&sorted, 990), 990);
        assert_eq!(beyond(1_000, 990), 10);
        assert_eq!(percentile(&[7], 990), 7);
        assert_eq!(median(&[5, 1, 3]), 3);
        assert_eq!(median(&[4, 1, 3, 2]), 2);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        assert!(valid_name("rounds_per_s"));
        assert!(valid_name("core.aggregate_ms_per_round"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn a_failed_check_or_lost_round_makes_the_run_incorrect() {
        let mut run = Run::default();
        run.check(true, || unreachable!());
        assert!(run.correct());
        run.fail(3, "socket closed");
        assert!(!run.correct());
        assert_eq!(run.failed, 3);
    }
}
