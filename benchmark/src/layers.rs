//! The traced run and its per-layer metrics.
//!
//! * **Lockstep twin** (every workload): a plain `Scenario` engine and a
//!   traced engine of the same in-process spec step the same rounds in
//!   alternation, so machine drift hits both equally. The traced one gives
//!   the models, core, attacks, compress and dist spans; comparing the two
//!   gives the tracing overhead and proves the trace changed nothing. The
//!   process counters are read around the plain steps only.
//! * **Served sessions** (loopback workloads): `run_loopback` sessions whose
//!   reports carry the server-filled columns (`arrival_nanos`,
//!   `aggregation_nanos`, `round_nanos`, `wire_bytes`, `raw_bytes`); the
//!   process counters are read around each whole session.
//! * **Frame mix** (loopback workloads): each round of the twin spec is
//!   replayed as the frames the server and its workers exchange — per honest
//!   worker a broadcast, a proposal and a round-closed; the adversary's
//!   proposals, relay and round-closed — with `Frame::encode`, `read_frame`
//!   (checksum and `Frame::decode`) and, under a codec, every
//!   `GradientCodec` encode and decode the protocol performs, each timed as
//!   a span. Its byte count must equal the served `wire_bytes`.

use std::collections::BTreeMap;
use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::AddAssign;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use krum_compress::GradientCodec;
use krum_dist::RoundEngine;
use krum_scenario::{Scenario, ScenarioSpec};
use krum_tensor::Vector;
use krum_wire::{read_frame, Frame};

use crate::engine::{engine_with, Observed, Tap};
use crate::measure::{nanos, same_bits, served_session, Reference, Samples};
use crate::report::{median, named, Metric, Run, WARMUP};
use crate::sys::{allocations, count_allocations, usage, Usage};
use crate::trace::{self_times, write_spans, Recorder, Span, Traced};
use crate::workloads::Workload;

/// The per-layer metrics, in the order [`per_layer`] computes them.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("models.estimate_ms_per_round", "ms"),
    ("models.probe_ms_per_round", "ms"),
    ("models.estimate_calls_per_round", "count"),
    ("core.aggregate_ms_per_round", "ms"),
    ("core.proposals_per_call", "count"),
    ("attacks.forge_ms_per_round", "ms"),
    ("dist.self_ms_per_round", "ms"),
    ("dist.self_frac", "frac"),
    ("compress.encode_ms_per_round", "ms"),
    ("compress.decode_ms_per_round", "ms"),
    ("compress.wire_reduction", "x"),
    ("wire.encode_ms_per_round", "ms"),
    ("wire.decode_ms_per_round", "ms"),
    ("wire.frames_per_round", "count"),
    ("wire.bytes_per_round", "B"),
    ("server.arrival_wait_ms_per_round", "ms"),
    ("server.self_ms_per_round", "ms"),
    ("server.overhead_ms_per_round", "ms"),
    ("process.allocs_per_round", "count"),
    ("process.alloc_bytes_per_round", "B"),
    ("process.sys_ms_per_round", "ms"),
    ("process.ctx_switches_per_round", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Tracing may slow a step by less than this share, or the run fails.
const MAX_TRACE_OVERHEAD: f64 = 0.05;

/// Rounds of the frame mix: the warm-up plus one hundred measured rounds.
const MIX_ROUNDS: usize = WARMUP + 100;

/// Process counters at one instant.
struct Snapshot {
    usage: Usage,
    allocations: (u64, u64),
}

impl Snapshot {
    fn now() -> Self {
        Self {
            usage: usage(),
            allocations: allocations(),
        }
    }

    fn since(&self, earlier: &Self) -> Counters {
        Counters {
            allocs: self.allocations.0 - earlier.allocations.0,
            alloc_bytes: self.allocations.1 - earlier.allocations.1,
            sys_nanos: self.usage.sys_nanos - earlier.usage.sys_nanos,
            ctx_switches: self.usage.ctx_switches - earlier.usage.ctx_switches,
        }
    }
}

/// Process counter deltas summed over the windows they were read across.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    allocs: u64,
    alloc_bytes: u64,
    sys_nanos: u64,
    ctx_switches: u64,
}

impl AddAssign for Counters {
    fn add_assign(&mut self, other: Self) {
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.sys_nanos += other.sys_nanos;
        self.ctx_switches += other.ctx_switches;
    }
}

/// Span totals of one name over the measured rounds.
#[derive(Debug, Default, Clone, Copy)]
struct Total {
    nanos: u64,
    self_nanos: u64,
    calls: u64,
    items: u64,
}

/// Span totals by name over the measured rounds (round ≥ [`WARMUP`]); a
/// root span (no parent) stands for one measured round.
#[derive(Debug, Default)]
struct Totals {
    by_name: BTreeMap<&'static str, Total>,
    rounds: u64,
    root_nanos: u64,
    self_nanos: u64,
}

impl Totals {
    fn from_spans(spans: &[Span]) -> Self {
        let own = self_times(spans);
        let mut totals = Self::default();
        for (span, own) in spans.iter().zip(own) {
            if span.round < WARMUP {
                continue;
            }
            let total = totals.by_name.entry(span.name).or_default();
            total.nanos += span.nanos();
            total.self_nanos += own;
            total.calls += 1;
            total.items += span.items as u64;
            totals.self_nanos += own;
            if span.parent.is_none() {
                totals.rounds += 1;
                totals.root_nanos += span.nanos();
            }
        }
        totals
    }

    fn get(&self, name: &str) -> Total {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    fn ms_per_round(&self, name: &str) -> f64 {
        self.get(name).nanos as f64 / self.rounds.max(1) as f64 / 1e6
    }

    fn calls_per_round(&self, name: &str) -> f64 {
        self.get(name).calls as f64 / self.rounds.max(1) as f64
    }
}

/// What the lockstep twin measured.
struct Twin {
    recorder: Arc<Recorder>,
    /// Latency of every measured plain step, and of the traced step of the
    /// same round.
    plain_nanos: Vec<u64>,
    traced_nanos: Vec<u64>,
    /// Process counters around the measured plain steps.
    process: Counters,
}

impl Twin {
    /// Median over the measured rounds of traced ÷ plain step time, minus
    /// one: robust to a round that a preemption slowed on one side only.
    fn overhead(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .traced_nanos
            .iter()
            .zip(&self.plain_nanos)
            .map(|(&traced, &plain)| traced as f64 / plain.max(1) as f64)
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios
            .get(ratios.len().saturating_sub(1) / 2)
            .map_or(0.0, |r| r - 1.0)
    }
}

fn plain_step(
    scenario: &mut Scenario,
    params: &mut Vector,
    round: usize,
    twin: &mut Twin,
) -> Result<(), Box<dyn Error>> {
    let before = Snapshot::now();
    let begin = Instant::now();
    scenario.engine_mut().step(params, round)?;
    let took = nanos(begin.elapsed());
    if round >= WARMUP {
        twin.plain_nanos.push(took);
        twin.process += Snapshot::now().since(&before);
    }
    Ok(())
}

fn traced_step(
    engine: &mut RoundEngine,
    params: &mut Vector,
    round: usize,
    twin: &mut Twin,
) -> Result<(), Box<dyn Error>> {
    twin.recorder.set_round(round);
    let begin = Instant::now();
    twin.recorder
        .span("dist.step", 0, || engine.step(params, round))?;
    if round >= WARMUP {
        twin.traced_nanos.push(nanos(begin.elapsed()));
    }
    Ok(())
}

/// One lockstep session; `Err` carries the rounds it left unfinished.
fn lockstep_session(
    spec: &ScenarioSpec,
    twin: &mut Twin,
    reference: &mut Reference,
    run: &mut Run,
    session: usize,
) -> Result<(), (u64, Box<dyn Error>)> {
    let rounds = spec.rounds;
    let unfinished = |round: usize| 2 * (rounds - round) as u64;
    let mut plain = Scenario::from_spec(spec.clone()).map_err(|e| (unfinished(0), e.into()))?;
    let (mut traced, start) = engine_with(spec, &twin.recorder).map_err(|e| (unfinished(0), e))?;
    let mut a = plain.start().clone();
    let mut b = start;
    for round in 0..rounds {
        // Alternate which engine goes first, so neither always runs on the
        // caches the other just warmed.
        let stepped = if round % 2 == 0 {
            plain_step(&mut plain, &mut a, round, twin)
                .and_then(|()| traced_step(&mut traced, &mut b, round, twin))
        } else {
            traced_step(&mut traced, &mut b, round, twin)
                .and_then(|()| plain_step(&mut plain, &mut a, round, twin))
        };
        stepped.map_err(|e| (unfinished(round), format!("round {round}: {e}").into()))?;
    }
    run.check(same_bits(&a, &b), || {
        format!("lockstep session {session}: the traced engine left the untraced trajectory")
    });
    reference.check(run, &format!("lockstep session {session}"), &b);
    Ok(())
}

fn lockstep(
    spec: &ScenarioSpec,
    budget: Duration,
    reference: &mut Reference,
    run: &mut Run,
) -> Twin {
    let mut twin = Twin {
        recorder: Recorder::new(),
        plain_nanos: Vec::new(),
        traced_nanos: Vec::new(),
        process: Counters::default(),
    };
    let begin = Instant::now();
    let mut session = 0;
    while session == 0 || (begin.elapsed() < budget && run.correct()) {
        session += 1;
        run.attempted += 2 * spec.rounds as u64;
        if let Err((lost, e)) = lockstep_session(spec, &mut twin, reference, run, session) {
            run.fail(lost, format!("lockstep session {session}: {e}"));
            break;
        }
    }
    twin
}

/// What the served sessions measured, over their measured rounds.
#[derive(Default)]
struct Served {
    measured: u64,
    arrival_nanos: u64,
    aggregation_nanos: u64,
    round_nanos: u64,
    wire_bytes: u64,
    raw_bytes: u64,
    /// Per-round `wire_bytes` of the first session, warm-up included.
    first_wire: Vec<u64>,
    /// Every round served, and the process counters over whole sessions.
    rounds: u64,
    process: Counters,
    latencies: Vec<u64>,
}

fn serve(
    served_spec: &ScenarioSpec,
    budget: Duration,
    reference: &mut Reference,
    run: &mut Run,
) -> Served {
    let mut served = Served::default();
    let mut samples = Samples::default();
    let begin = Instant::now();
    let mut session = 0;
    while session == 0 || (begin.elapsed() < budget && run.correct()) {
        session += 1;
        let before = Snapshot::now();
        let Some(report) = served_session(served_spec, run, &mut samples) else {
            break;
        };
        served.process += Snapshot::now().since(&before);
        served.rounds += served_spec.rounds as u64;
        reference.check(
            run,
            &format!("served session {session}"),
            &report.final_params,
        );
        let records = &report.history.rounds;
        if session == 1 {
            served.first_wire = records.iter().map(|r| r.wire_bytes.unwrap_or(0)).collect();
        }
        for r in records.iter().skip(WARMUP) {
            served.measured += 1;
            served.arrival_nanos += r.arrival_nanos.unwrap_or(0) as u64;
            served.aggregation_nanos += r.aggregation_nanos as u64;
            served.round_nanos += r.round_nanos as u64;
            served.wire_bytes += r.wire_bytes.unwrap_or(0);
            served.raw_bytes += r.raw_bytes.unwrap_or(0);
        }
    }
    served.latencies = samples.rounds;
    served
}

/// One framed round trip: the sender's `Frame::encode`, the receiver's
/// `read_frame`. Returns the bytes on the wire.
fn roundtrip(recorder: &Recorder, frame: &Frame) -> Result<u64, Box<dyn Error>> {
    let bytes = recorder.span("wire.encode", 1, || frame.encode());
    let (decoded, read) = recorder.span("wire.decode", 1, || read_frame(&mut bytes.as_slice()))?;
    if read != bytes.len() || decoded != *frame {
        return Err(format!("a {} frame did not survive its round trip", frame.name()).into());
    }
    Ok(read as u64)
}

/// The frames of one served barrier round, built from what the adversary
/// saw, encoded and decoded as the server and its workers do; `codec` is
/// traced, so its work is recorded as spans too. Returns the round's bytes
/// on the wire.
fn replay_round(
    recorder: &Recorder,
    seen: &Observed,
    codec: Option<&dyn GradientCodec>,
    round: u64,
) -> Result<u64, Box<dyn Error>> {
    let job = 0;
    let x = seen.params.as_slice();
    let honest = seen.honest.len();
    let adversary = !seen.forged.is_empty();
    let mut bytes = 0;

    // The broadcast: encoded once by the server, sent to and decoded by
    // every honest worker.
    let broadcast = match codec {
        Some(codec) => Frame::BroadcastC {
            job,
            round,
            params: codec.encode_params(x),
            observed: Vec::new(),
        },
        None => Frame::Broadcast {
            job,
            round,
            params: x.to_vec(),
            observed: Vec::new(),
        },
    };
    for _ in 0..honest {
        bytes += roundtrip(recorder, &broadcast)?;
        if let (Some(codec), Frame::BroadcastC { params, .. }) = (codec, &broadcast) {
            codec.decode_params(params, x.len())?;
        }
    }

    // One proposal per worker slot, honest then Byzantine.
    for (worker, proposal) in seen.honest.iter().chain(&seen.forged).enumerate() {
        let worker = worker as u32;
        let frame = match codec {
            Some(codec) => Frame::ProposeC {
                job,
                round,
                worker,
                proposal: codec.encode(proposal, x),
            },
            None => Frame::Propose {
                job,
                round,
                worker,
                proposal: proposal.clone(),
            },
        };
        bytes += roundtrip(recorder, &frame)?;
        if let (Some(codec), Frame::ProposeC { proposal, .. }) = (codec, &frame) {
            codec.decode(proposal, x, x.len())?;
        }
    }

    // The observation relay to the adversary connection.
    if adversary {
        let relay = match codec {
            Some(codec) => Frame::BroadcastC {
                job,
                round,
                params: codec.encode_params(x),
                observed: seen.honest.iter().map(|v| codec.encode(v, x)).collect(),
            },
            None => Frame::Broadcast {
                job,
                round,
                params: x.to_vec(),
                observed: seen.honest.clone(),
            },
        };
        bytes += roundtrip(recorder, &relay)?;
        if let (
            Some(codec),
            Frame::BroadcastC {
                params, observed, ..
            },
        ) = (codec, &relay)
        {
            codec.decode_params(params, x.len())?;
            for o in observed {
                codec.decode(o, x, x.len())?;
            }
        }
    }

    // Round closed, to every connection.
    let closed = Frame::RoundClosed {
        job,
        round,
        quorum: (honest + seen.forged.len()) as u32,
        aggregate_norm: 0.0,
    };
    for _ in 0..honest + usize::from(adversary) {
        bytes += roundtrip(recorder, &closed)?;
    }
    Ok(bytes)
}

/// Replays the first `rounds` rounds of `spec` as served frames; returns the
/// recorder and the bytes of each round.
fn frame_mix(
    spec: &ScenarioSpec,
    rounds: usize,
    run: &mut Run,
) -> Result<(Arc<Recorder>, Vec<u64>), Box<dyn Error>> {
    let slot = Arc::new(Mutex::new(None));
    let (mut engine, mut params) = engine_with(spec, &Tap(Arc::clone(&slot)))?;
    let recorder = Recorder::new();
    let codec = spec.compression.map(|c| Traced::new(c.build(), &recorder));
    let mut bytes = Vec::with_capacity(rounds);
    run.attempted += rounds as u64;
    for round in 0..rounds {
        engine.step(&mut params, round)?;
        let seen = slot
            .lock()
            .expect("the tap slot is never held across a panic")
            .take()
            .ok_or("the round never consulted the adversary")?;
        recorder.set_round(round);
        bytes.push(recorder.span("wire.round", 0, || {
            replay_round(
                &recorder,
                &seen,
                codec.as_ref().map(|c| c as &dyn GradientCodec),
                round as u64,
            )
        })?);
    }
    Ok((recorder, bytes))
}

/// Runs `workload` traced and returns its per-layer metrics; with
/// `spans_out`, also writes every span as JSON lines.
pub fn per_layer(
    workload: &Workload,
    seed: u64,
    seconds: Duration,
    spans_out: Option<&Path>,
) -> Result<(Run, Vec<Metric>), Box<dyn Error>> {
    count_allocations();
    let spec = workload.spec(seed, workload.session_rounds)?;
    let mut reference = Reference::new(&spec, workload.served)?;
    let mut run = Run::default();

    let served = if workload.served {
        let served_spec = workload.served_spec(seed, workload.session_rounds)?;
        Some(serve(&served_spec, seconds / 2, &mut reference, &mut run))
    } else {
        None
    };
    let twin_budget = if workload.served {
        seconds / 2
    } else {
        seconds
    };
    let twin = lockstep(&spec, twin_budget, &mut reference, &mut run);
    let mix = if workload.served {
        Some(frame_mix(&spec, MIX_ROUNDS.min(spec.rounds), &mut run)?)
    } else {
        None
    };

    let twin_spans = twin.recorder.spans();
    let layers = Totals::from_spans(&twin_spans);
    run.check(layers.self_nanos == layers.root_nanos, || {
        format!(
            "layer self times sum to {} ns, the steps took {} ns",
            layers.self_nanos, layers.root_nanos
        )
    });
    let mix_spans = mix
        .as_ref()
        .map(|(recorder, _)| recorder.spans())
        .unwrap_or_default();
    let wire = Totals::from_spans(&mix_spans);
    if let (Some(served), Some((_, bytes))) = (&served, &mix) {
        run.check(
            !bytes.is_empty() && bytes.iter().zip(&served.first_wire).all(|(a, b)| a == b),
            || "the replayed frame mix does not match the served wire_bytes".to_string(),
        );
    }
    if let Some(path) = spans_out {
        let mut out = BufWriter::new(File::create(path)?);
        write_spans(&mut out, "inproc", &twin_spans)?;
        write_spans(&mut out, "wire", &mix_spans)?;
        out.flush()?;
    }

    let overhead = twin.overhead();
    run.check(overhead < MAX_TRACE_OVERHEAD, || {
        format!("tracing slowed the step by {overhead:.4} (limit {MAX_TRACE_OVERHEAD})")
    });
    let measured = twin.plain_nanos.len() as f64;
    let step = layers.get("dist.step");
    let (process, process_rounds) = match &served {
        Some(served) => (served.process, served.rounds as f64),
        None => (twin.process, measured),
    };
    let ms = |nanos: u64, rounds: f64| nanos as f64 / rounds.max(1.0) / 1e6;
    let codec_layer = if workload.served { &wire } else { &layers };
    let aggregate = layers.get("core.aggregate");
    let (served_rounds, wire_reduction, arrival, server_self, serving) = match &served {
        Some(s) => (
            s.measured as f64,
            s.raw_bytes as f64 / s.wire_bytes.max(1) as f64,
            s.arrival_nanos,
            s.round_nanos
                .saturating_sub(s.arrival_nanos + s.aggregation_nanos),
            (median(&s.latencies) as f64 - median(&twin.plain_nanos) as f64) / 1e6,
        ),
        None => (1.0, 0.0, 0, 0, 0.0),
    };
    let wire_bytes = mix
        .as_ref()
        .map_or(0, |(_, bytes)| bytes.iter().skip(WARMUP).sum());
    let values = [
        layers.ms_per_round("models.estimate"),
        layers.ms_per_round("models.probe"),
        layers.calls_per_round("models.estimate"),
        layers.ms_per_round("core.aggregate"),
        aggregate.items as f64 / aggregate.calls.max(1) as f64,
        layers.ms_per_round("attacks.forge"),
        ms(step.self_nanos, layers.rounds as f64),
        step.self_nanos as f64 / step.nanos.max(1) as f64,
        codec_layer.ms_per_round("compress.encode"),
        codec_layer.ms_per_round("compress.decode"),
        wire_reduction,
        wire.ms_per_round("wire.encode"),
        wire.ms_per_round("wire.decode"),
        wire.calls_per_round("wire.encode"),
        wire_bytes as f64 / wire.rounds.max(1) as f64,
        ms(arrival, served_rounds),
        ms(server_self, served_rounds),
        serving,
        process.allocs as f64 / process_rounds,
        process.alloc_bytes as f64 / process_rounds,
        ms(process.sys_nanos, process_rounds),
        process.ctx_switches as f64 / process_rounds,
        overhead,
    ];
    eprintln!(
        "{}: {} lockstep rounds measured per engine; {} served rounds measured",
        workload.name,
        twin.plain_nanos.len(),
        served.as_ref().map_or(0, |s| s.measured),
    );
    Ok((run, named(&PER_LAYER, values)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, WORKLOADS};

    /// Traced and untraced engines stay bit-identical on a ten-round shrink
    /// of every workload's in-process spec.
    #[test]
    fn tracing_leaves_every_workload_trajectory_unchanged() {
        for workload in &WORKLOADS {
            let spec = workload.spec(31, 10).unwrap();
            let mut reference = Reference::new(&spec, false).unwrap();
            let mut run = Run::default();
            let twin = lockstep(&spec, Duration::ZERO, &mut reference, &mut run);
            assert!(run.correct(), "{}: {:?}", workload.name, run.failures);
            assert_eq!(run.attempted, 20);
            let spans = twin.recorder.spans();
            assert_eq!(spans.iter().filter(|s| s.name == "dist.step").count(), 10);
            assert!(spans.iter().any(|s| s.name == "core.aggregate"));
        }
    }

    /// The replayed frames of ten served rounds carry exactly the bytes the
    /// server counted, with and without a codec.
    #[test]
    fn the_frame_mix_matches_the_served_wire_bytes() {
        for name in ["loopback-e10", "loopback-bfp12"] {
            let workload = find(name).unwrap();
            let served = krum_server::run_loopback(workload.served_spec(5, 10).unwrap()).unwrap();
            let mut run = Run::default();
            let (recorder, bytes) =
                frame_mix(&workload.spec(5, 10).unwrap(), 10, &mut run).unwrap();
            let wire: Vec<u64> = served
                .history
                .rounds
                .iter()
                .map(|r| r.wire_bytes.unwrap())
                .collect();
            assert_eq!(bytes, wire, "{name}");
            let spans = recorder.spans();
            let codec_spans = spans
                .iter()
                .filter(|s| s.name.starts_with("compress."))
                .count();
            assert_eq!(codec_spans > 0, name == "loopback-bfp12");
            // Per round: 36 broadcasts, 40 proposals, one relay, 37 closes.
            let frames = spans.iter().filter(|s| s.name == "wire.encode").count();
            assert_eq!(frames, 10 * 114);
        }
    }
}
