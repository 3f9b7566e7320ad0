//! The repository benchmark: end-to-end and per-layer metrics of one
//! workload of the Krum reproduction, taken from outside the program by
//! timing calls into the workspace crates' public functions.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed 31] [--seconds 20] [--trace 0|1] [--spans FILE]
//! ```
//!
//! Each invocation runs one workload in its own process, so peak RSS and
//! allocation counts belong to that workload. It prints a table on stderr
//! and, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics; `--spans FILE` also writes a traced run's spans as JSON lines.
//! The exit code is 0 only when every output check passed. `BENCHMARK.json`
//! at the repository root declares the workloads and metrics.
//!
//! # Load model
//!
//! Closed loop: one job at a time, driven from the benchmark's single
//! thread. The seed goes into the scenario spec and nowhere else. The
//! program's own threads are the system under test — the rayon pool, and the
//! server and per-connection worker threads `run_loopback` spawns (exactly
//! as `krum loopback`). The harness adds no threads or connections. A run is
//! a series of sessions, each a fresh set-up followed by a fixed number of
//! rounds of the same spec; the first 20 rounds of each session are warm-up
//! and no timing metric counts them. Sessions repeat until the run has
//! lasted `--seconds` and holds at least 1000 measured rounds.
//!
//! # Workloads
//!
//! All four share one base: rule `krum`, attack `sign-flip:scale=3`,
//! estimator `gaussian-quadratic` with σ = 0.2, constant γ = 0.1, start
//! `(1, …, 1)`, evaluation on the first and last round of a session.
//!
//! | name | spec | why |
//! |---|---|---|
//! | `inproc-e10` | Sequential engine, n = 40, f = 4, d = 1000, sessions of 500 rounds | The roadmap's reference scenario. Propose (models) is most of a round and aggregate (core) about a sixth. It has no wire, so it is the bypass case for wire, server and codec changes; it also carries the engine's per-round allocations. |
//! | `inproc-wide-async` | AsyncQuorum, quorum 380, staleness ≤ 2, simulated Pareto network (min 50 µs, α = 1.1, 0.05 ns/B); n = 400, f = 40, d = 64, sessions of 500 rounds | The paper's O(n²·d) regime: aggregation is most of the round. It also runs the quorum and carry-over machine every round. n = 400 keeps the 380 × 380 distance matrix (1.2 MB) inside a core's L2: at n = 1000 the 7 MB matrix lives in the host's shared L3, and run-to-run spread then follows the neighbours' load more than the program. |
//! | `loopback-e10` | The `inproc-e10` spec served through `run_loopback` behind a remote barrier, sessions of 250 rounds | Serving overhead: arrival wait is most of a round and 908,054 wire bytes cross per round. The codec is bypassed. |
//! | `loopback-bfp12` | `loopback-e10` with compression `bfp:block=64,bits=12`, sessions of 300 rounds | The same wire and server path carrying about 5× fewer bytes but spending CPU on encode and decode: a framing gain that costs the codec path, or the reverse, shows here. |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `rounds_per_s` — measured rounds over their wall time: in-process the
//!   time around each `step`, served the report's `wall_nanos` minus the
//!   warm-up rounds' `round_nanos`.
//! * `round_p50_ms`, `round_p99_ms` — nearest-rank percentiles of the
//!   measured rounds; the sample count goes to stderr, and a run with fewer
//!   than ten samples beyond p99 fails its checks.
//! * `cpu_ms_per_round` — process user + system CPU over all threads
//!   (`getrusage(RUSAGE_SELF)`): in-process over the measured rounds, served
//!   over whole sessions.
//! * `peak_rss_mb` — peak resident set size of the process, in MiB.
//! * `setup_s` — median set-up time over the run's sessions: in-process
//!   `Scenario::from_spec`, served `run_loopback` wall time minus the
//!   report's `wall_nanos` (bind, staffing, teardown).
//!
//! # Output checks
//!
//! Every session ends on finite parameters with a lower loss than the start,
//! bit-identical to the first session (in-process) or to an untimed
//! in-process `Scenario::run` of the same spec (served, quantized by the
//! same codec). A traced engine must stay bit-identical to its untraced
//! twin, the layer self times must add up to the traced steps exactly, and
//! the replayed frame mix must carry exactly the served `wire_bytes`.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The layers are the workspace crates. Which end-to-end metric each should
//! move, and on which workload it mostly shows:
//!
//! | layer metric | should move | mostly on / little on |
//! |---|---|---|
//! | `models.estimate_ms_per_round`, `models.probe_ms_per_round` (true gradient + loss), `models.estimate_calls_per_round` | `rounds_per_s`, `cpu_ms_per_round` | `inproc-e10` / `inproc-wide-async` |
//! | `core.aggregate_ms_per_round`, `core.proposals_per_call` | `rounds_per_s`, `round_p50_ms` | `inproc-wide-async` / `inproc-e10`, loopback |
//! | `attacks.forge_ms_per_round` | `rounds_per_s` | `inproc-wide-async` / `inproc-e10` |
//! | `dist.self_ms_per_round`, `dist.self_frac` (step minus its component calls: SGD step, record, drift, quorum bookkeeping) | `round_p50_ms` | `inproc-wide-async` / `inproc-e10` |
//! | `compress.encode_ms_per_round`, `compress.decode_ms_per_round`, `compress.wire_reduction` (raw ÷ wire bytes; 0 without a wire) | `cpu_ms_per_round` | `loopback-bfp12` / all others (zero) |
//! | `wire.encode_ms_per_round`, `wire.decode_ms_per_round`, `wire.frames_per_round`, `wire.bytes_per_round` (equal to the served `wire_bytes`) | `cpu_ms_per_round`, `rounds_per_s` | `loopback-e10` / `loopback-bfp12`, in-process (zero) |
//! | `server.arrival_wait_ms_per_round`, `server.self_ms_per_round` (round − arrival − aggregation), `server.overhead_ms_per_round` (served p50 − in-process twin p50) | `round_p50_ms`, `rounds_per_s` | `loopback-e10` / `loopback-bfp12` |
//! | `process.allocs_per_round`, `process.alloc_bytes_per_round` (counting global allocator, all threads) | `cpu_ms_per_round`, `peak_rss_mb` | `inproc-e10` / `inproc-wide-async` |
//! | `process.sys_ms_per_round`, `process.ctx_switches_per_round` (getrusage) | `round_p99_ms`, `cpu_ms_per_round` | loopback / in-process (≈ 0) |
//! | `trace.overhead_frac` (median over rounds of traced ÷ untraced step time, − 1) | — | a run fails at 0.05 or more |
//!
//! In-process, the models, core, attacks, compress and dist numbers come
//! from the traced twin; served, compress and wire come from the frame-mix
//! replay, server from the served reports, and process from whole served
//! sessions (see `layers.rs`).

mod engine;
mod layers;
mod measure;
mod report;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use crate::sys::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: benchmark --workload <name> [--seed <u64>] [--seconds <n>] \
                     [--trace 0|1] [--spans <file>]";

#[derive(Debug)]
struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 31;
    let mut seconds = 20;
    let mut trace = false;
    let mut spans = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        layers::per_layer(args.workload, args.seed, seconds, args.spans.as_deref())
    } else {
        measure::end_to_end(args.workload, args.seed, seconds)
    };
    match outcome {
        Ok((mut run, metrics)) => {
            report::print(args.workload.name, &mut run, &metrics);
            if run.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: the benchmark could not run: {e}", args.workload.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        match value {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("expected an object, found {}", other.kind()),
        }
    }

    fn text(value: &Value) -> String {
        match value {
            Value::Str(text) => text.clone(),
            other => panic!("expected a string, found {}", other.kind()),
        }
    }

    /// `(name, unit)` of every entry of a `BENCHMARK.json` list, sorted;
    /// workloads have no unit.
    fn declared(json: &Value, list: &str) -> Vec<(String, String)> {
        let Value::Array(items) = field(json, list) else {
            panic!("{list} must be an array");
        };
        let mut entries: Vec<_> = items
            .iter()
            .map(|item| {
                let unit = match item {
                    Value::Object(pairs) if pairs.iter().any(|(k, _)| k == "unit") => {
                        text(field(item, "unit"))
                    }
                    _ => String::new(),
                };
                (text(field(item, "name")), unit)
            })
            .collect();
        entries.sort();
        entries
    }

    fn emitted(table: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut entries: Vec<_> = table
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        entries.sort();
        entries
    }

    /// `BENCHMARK.json` declares exactly the workloads the binary runs and
    /// the metrics it emits, with the same units, all under valid names.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<_> = workloads::WORKLOADS.iter().map(|w| (w.name, "")).collect();
        assert_eq!(declared(&json, "workloads"), emitted(&workloads));
        assert_eq!(declared(&json, "end_to_end"), emitted(&measure::END_TO_END));
        assert_eq!(declared(&json, "per_layer"), emitted(&layers::PER_LAYER));
        for (name, _) in measure::END_TO_END.iter().chain(&layers::PER_LAYER) {
            assert!(report::valid_name(name), "invalid metric name {name}");
        }
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_garbage() {
        let args = |list: &[&str]| parse(list.iter().map(|s| s.to_string()));
        let parsed = args(&["--workload", "loopback-e10"]).unwrap();
        assert_eq!(parsed.workload.name, "loopback-e10");
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (31, 20, false));
        let parsed = args(&[
            "--workload",
            "inproc-e10",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3, true));
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "inproc-e10", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "inproc-e10", "--seed"]).is_err());
        assert!(args(&["--workload", "inproc-e10", "--bogus", "1"]).is_err());
    }
}
