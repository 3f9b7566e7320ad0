//! The untraced run and its end-to-end metrics.
//!
//! A run is a series of sessions of one workload. An in-process session
//! times `Scenario::from_spec` (set-up), then steps
//! `Scenario::engine_mut().step()` and times each call. A served session
//! times one `run_loopback` call; its set-up is that wall time minus the
//! report's `wall_nanos` (bind, staffing, teardown), and its rounds are the
//! report's server-side `round_nanos`. Sessions repeat until the run has
//! lasted `--seconds` and holds at least [`MIN_SAMPLES`] measured rounds.

use std::error::Error;
use std::time::{Duration, Instant};

use krum_models::GradientEstimator;
use krum_scenario::{Scenario, ScenarioReport, ScenarioSpec};
use krum_server::run_loopback;
use krum_tensor::Vector;

use crate::report::{beyond, highest_reportable, median, named, percentile, Metric, Run, WARMUP};
use crate::sys::{peak_rss_kib, usage};
use crate::workloads::Workload;

/// The end-to-end metrics, in the order [`end_to_end`] computes them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p99_ms", "ms"),
    ("cpu_ms_per_round", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Measured rounds a run needs so that its p99 has ten samples beyond it.
pub const MIN_SAMPLES: usize = 1_000;

/// A run stops starting sessions after this long, whatever it has gathered,
/// so that it ends well inside three minutes.
const TIME_CAP: Duration = Duration::from_secs(120);

pub fn nanos(elapsed: Duration) -> u64 {
    elapsed.as_nanos() as u64
}

pub fn same_bits(a: &Vector, b: &Vector) -> bool {
    a.dim() == b.dim()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What every session's final parameters are checked against.
pub struct Reference {
    probe: Box<dyn GradientEstimator>,
    start_loss: f64,
    /// The parameters every session must end on: for a served workload the
    /// untimed in-process `Scenario::run` of the twin spec, otherwise the
    /// first session's.
    expected: Option<Vector>,
}

impl Reference {
    pub fn new(spec: &ScenarioSpec, served: bool) -> Result<Self, Box<dyn Error>> {
        let start = Scenario::from_spec(spec.clone())?.start().clone();
        let mut workload = spec.estimator.build(spec.cluster.honest(), spec.seed)?;
        let probe = match workload.probe.take() {
            Some(probe) => probe,
            None => workload.estimators.swap_remove(0),
        };
        let start_loss = probe.loss(&start).ok_or("the workload has no loss probe")?;
        let expected = if served {
            Some(Scenario::from_spec(spec.clone())?.run()?.final_params)
        } else {
            None
        };
        Ok(Self {
            probe,
            start_loss,
            expected,
        })
    }

    /// Checks one session's final parameters: finite, lower loss than the
    /// start, and bit-identical to the expected trajectory.
    pub fn check(&mut self, run: &mut Run, what: &str, params: &Vector) {
        run.check(params.is_finite(), || {
            format!("{what}: non-finite parameters")
        });
        let loss = self.probe.loss(params).unwrap_or(f64::NAN);
        run.check(loss < self.start_loss, || {
            format!(
                "{what}: final loss {loss} is not below the initial {}",
                self.start_loss
            )
        });
        match &self.expected {
            Some(expected) => run.check(same_bits(params, expected), || {
                format!("{what}: final parameters differ from the reference trajectory")
            }),
            None => self.expected = Some(params.clone()),
        }
    }

    pub fn final_loss(&self) -> f64 {
        self.expected
            .as_ref()
            .and_then(|p| self.probe.loss(p))
            .unwrap_or(f64::NAN)
    }
}

/// Timing samples gathered over a run's sessions.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of every measured round, in nanoseconds.
    pub rounds: Vec<u64>,
    /// Wall time the measured rounds took.
    busy_nanos: u64,
    cpu_nanos: u64,
    cpu_rounds: u64,
    setups: Vec<u64>,
}

/// One in-process session; returns its final parameters.
fn inprocess_session(spec: &ScenarioSpec, run: &mut Run, samples: &mut Samples) -> Option<Vector> {
    let rounds = spec.rounds;
    run.attempted += rounds as u64;
    let owned = spec.clone();
    let begin = Instant::now();
    let built = Scenario::from_spec(owned);
    let setup = nanos(begin.elapsed());
    let mut scenario = match built {
        Ok(scenario) => scenario,
        Err(e) => {
            run.fail(rounds as u64, format!("set-up: {e}"));
            return None;
        }
    };
    samples.setups.push(setup);
    let mut params = scenario.start().clone();
    let mut cpu_from = usage();
    for round in 0..rounds {
        if round == WARMUP {
            cpu_from = usage();
        }
        let begin = Instant::now();
        let stepped = scenario.engine_mut().step(&mut params, round);
        let took = nanos(begin.elapsed());
        if let Err(e) = stepped {
            run.fail((rounds - round) as u64, format!("round {round}: {e}"));
            return None;
        }
        if round >= WARMUP {
            samples.rounds.push(took);
            samples.busy_nanos += took;
        }
    }
    samples.cpu_nanos += usage().cpu_nanos() - cpu_from.cpu_nanos();
    samples.cpu_rounds += rounds.saturating_sub(WARMUP) as u64;
    Some(params)
}

/// One served session; returns its report. CPU time covers the whole
/// session, set-up and teardown included, spread over its rounds.
pub fn served_session(
    served: &ScenarioSpec,
    run: &mut Run,
    samples: &mut Samples,
) -> Option<ScenarioReport> {
    let rounds = served.rounds as u64;
    run.attempted += rounds;
    let owned = served.clone();
    let before = usage();
    let begin = Instant::now();
    let result = run_loopback(owned);
    let wall = nanos(begin.elapsed());
    let cpu = usage().cpu_nanos() - before.cpu_nanos();
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            run.fail(rounds, format!("loopback session: {e}"));
            return None;
        }
    };
    let records = &report.history.rounds;
    run.check(records.len() as u64 == rounds, || {
        format!(
            "loopback session recorded {} of {rounds} rounds",
            records.len()
        )
    });
    let served_nanos = report.wall_nanos as u64;
    samples.setups.push(wall.saturating_sub(served_nanos));
    let warm: u64 = records
        .iter()
        .take(WARMUP)
        .map(|r| r.round_nanos as u64)
        .sum();
    samples.busy_nanos += served_nanos.saturating_sub(warm);
    samples
        .rounds
        .extend(records.iter().skip(WARMUP).map(|r| r.round_nanos as u64));
    samples.cpu_nanos += cpu;
    samples.cpu_rounds += rounds;
    Some(report)
}

/// Runs `workload` untraced and returns its end-to-end metrics.
pub fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: Duration,
) -> Result<(Run, Vec<Metric>), Box<dyn Error>> {
    let spec = workload.spec(seed, workload.session_rounds)?;
    let served = if workload.served {
        Some(workload.served_spec(seed, workload.session_rounds)?)
    } else {
        None
    };
    let mut reference = Reference::new(&spec, workload.served)?;
    let mut run = Run::default();
    let mut samples = Samples::default();
    let begin = Instant::now();
    let mut sessions = 0;
    while sessions == 0 || {
        let elapsed = begin.elapsed();
        elapsed < TIME_CAP && (elapsed < seconds || samples.rounds.len() < MIN_SAMPLES)
    } {
        sessions += 1;
        let params = match &served {
            Some(served) => served_session(served, &mut run, &mut samples).map(|r| r.final_params),
            None => inprocess_session(&spec, &mut run, &mut samples),
        };
        let Some(params) = params else { break };
        reference.check(&mut run, &format!("session {sessions}"), &params);
    }

    let n = samples.rounds.len();
    run.check(highest_reportable(n).is_some_and(|p| p >= 990), || {
        format!("{n} measured rounds leave fewer than ten samples beyond p99")
    });
    samples.rounds.sort_unstable();
    let sorted = &samples.rounds;
    eprintln!(
        "{}: {sessions} sessions of {} rounds (first {WARMUP} of each are warm-up); \
         {n} measured rounds, {} beyond p99; final loss {:.6e}",
        workload.name,
        workload.session_rounds,
        beyond(n, 990),
        reference.final_loss(),
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    let values = [
        n as f64 / (samples.busy_nanos as f64 / 1e9),
        ms(percentile(sorted, 500)),
        ms(percentile(sorted, 990)),
        samples.cpu_nanos as f64 / samples.cpu_rounds as f64 / 1e6,
        peak_rss_kib()? as f64 / 1024.0,
        median(&samples.setups) as f64 / 1e9,
    ];
    Ok((run, named(&END_TO_END, values)))
}
