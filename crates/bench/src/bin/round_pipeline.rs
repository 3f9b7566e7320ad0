//! Records `BENCH_round_pipeline.json`: per-call wall time and heap
//! allocation counts for the aggregation path **before** (a fresh workspace
//! per call — the allocation-per-call pattern behind `aggregate_detailed`)
//! and **after** (`aggregate_in` on one warmed `AggregationContext`), plus
//! the mean full-round time through the shared `RoundEngine`, for krum and
//! median at (n=40, d=10k) and (n=160, d=1k). Both paths run the sequential
//! execution policy so the comparison isolates allocation reuse.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p krum-bench --bin round_pipeline > BENCH_round_pipeline.json
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use krum_bench::{quadratic_estimators, rng, synthetic_proposals};
use krum_core::{AggregationContext, Aggregator, CoordinateWiseMedian, ExecutionPolicy, Krum};
use krum_dist::{
    ClusterSpec, ExecutionStrategy, LearningRateSchedule, RoundEngine, TrainingConfig,
};
use krum_tensor::Vector;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations made by the current thread.
///
/// Deliberately duplicated from `tests/allocation_regression.rs` (keep the
/// two in sync): a shared home would have to live in a library crate, and
/// every crate in this workspace forbids `unsafe_code`, which a
/// `GlobalAlloc` impl requires.
struct CountingAllocator;

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: a pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; `bump` only touches an already-initialized thread-local `Cell`
// and never allocates or unwinds, so every method inherits `System`'s
// guarantees unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `alloc` obligations are forwarded to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: the caller's `alloc_zeroed` obligations are forwarded to `System` as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's `realloc` obligations (live ptr, matching layout)
    // are forwarded to `System` as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: the caller's `dealloc` obligations (live ptr, matching layout)
    // are forwarded to `System` as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

const REPEATS: usize = 7;
const CALLS_PER_MEASUREMENT: usize = 4;

struct PathStats {
    nanos_per_call: u128,
    allocations_per_call: f64,
}

/// Median-of-repeats wall time and exact allocation count for `call`.
fn measure(mut call: impl FnMut()) -> PathStats {
    // Warm-up.
    call();
    call();
    let alloc_before = allocations();
    let mut times: Vec<u128> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS_PER_MEASUREMENT {
                call();
            }
            start.elapsed().as_nanos() / CALLS_PER_MEASUREMENT as u128
        })
        .collect();
    let alloc_after = allocations();
    times.sort_unstable();
    PathStats {
        nanos_per_call: times[REPEATS / 2],
        allocations_per_call: (alloc_after - alloc_before) as f64
            / (REPEATS * CALLS_PER_MEASUREMENT) as f64,
    }
}

/// Mean full-round wall time (ns) through the shared RoundEngine.
fn trainer_round_nanos(n: usize, f: usize, dim: usize, aggregator: Box<dyn Aggregator>) -> f64 {
    let config = TrainingConfig {
        rounds: 1,
        schedule: LearningRateSchedule::Constant { gamma: 0.05 },
        seed: 17,
        eval_every: usize::MAX / 2,
        known_optimum: None,
    };
    let mut trainer = RoundEngine::new(
        ClusterSpec::new(n, f).expect("valid cluster"),
        aggregator,
        Box::new(krum_attacks::GaussianNoise::new(50.0).expect("std")),
        quadratic_estimators(n - f, dim, 0.2),
        None,
        config,
        ExecutionStrategy::Sequential,
    )
    .expect("valid trainer");
    let params = Vector::filled(dim, 1.0);
    // Warm-up round grows the engine's workspace.
    let _ = trainer.run_round(&params, 0).expect("round");
    let rounds = 5;
    let total: u128 = (0..rounds)
        .map(|r| trainer.run_round(&params, r).expect("round").1.round_nanos)
        .sum();
    total as f64 / rounds as f64
}

fn json_entry(rule: &str, n: usize, f: usize, dim: usize) -> String {
    let proposals = synthetic_proposals(n, f, dim, 0.2, &mut rng(5));
    let aggregator: Box<dyn Aggregator> = match rule {
        "krum" => Box::new(Krum::new(n, f).expect("config")),
        "median" => Box::new(CoordinateWiseMedian::new()),
        other => panic!("unknown rule {other}"),
    };

    // Before: the allocation-per-call pattern — a fresh workspace every
    // call, so every Gram/score/column buffer is reallocated. Pinned to the
    // same sequential policy as the warm path so the comparison isolates
    // allocation reuse (not a parallel-vs-serial execution change), and so
    // the thread-local counter sees every allocation.
    let before = measure(|| {
        let mut fresh = AggregationContext::with_policy(ExecutionPolicy::Sequential);
        aggregator
            .aggregate_in(&mut fresh, &proposals)
            .expect("well-formed proposals");
    });

    // After: the workspace-backed path, sequential policy (the
    // zero-allocation configuration).
    let mut ctx = AggregationContext::with_policy(ExecutionPolicy::Sequential);
    let after = measure(|| {
        aggregator
            .aggregate_in(&mut ctx, &proposals)
            .expect("well-formed proposals");
    });

    let round_nanos = trainer_round_nanos(n, f, dim, aggregator);

    format!(
        r#"    {{
      "rule": "{rule}",
      "n": {n},
      "f": {f},
      "dim": {dim},
      "before_fresh_context_per_call": {{
        "nanos_per_call": {},
        "allocations_per_call": {:.1}
      }},
      "after_aggregate_in_warm": {{
        "nanos_per_call": {},
        "allocations_per_call": {:.1}
      }},
      "engine_round_nanos_mean": {:.0}
    }}"#,
        before.nanos_per_call,
        before.allocations_per_call,
        after.nanos_per_call,
        after.allocations_per_call,
        round_nanos,
    )
}

fn main() {
    let configs = [
        ("krum", 40usize, 18usize, 10_000usize),
        ("median", 40, 18, 10_000),
        ("krum", 160, 78, 1_000),
        ("median", 160, 78, 1_000),
    ];
    let entries: Vec<String> = configs
        .iter()
        .map(|&(rule, n, f, dim)| json_entry(rule, n, f, dim))
        .collect();
    let provenance = krum_bench::provenance();
    println!(
        r#"{{
  "benchmark": "round_pipeline (crates/bench/src/bin/round_pipeline.rs)",
  {provenance}
  "description": "aggregation path before/after the AggregationContext refactor: wall time and heap allocations per call, plus mean full-round time through the shared RoundEngine (sequential strategy, Gaussian-noise attack, quadratic estimators)",
  "method": "median of {REPEATS} repeats x {CALLS_PER_MEASUREMENT} calls; allocations counted with a thread-local counting global allocator; both paths use the sequential execution policy so the comparison isolates allocation reuse: 'before' aggregates into a fresh AggregationContext every call (the allocation-per-call pattern behind aggregate_detailed), 'after' is aggregate_in on one warmed context",
  "configs": [
{}
  ]
}}"#,
        entries.join(",\n")
    );
}
