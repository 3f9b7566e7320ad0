//! Records `BENCH_scenario_overhead.json`: the cost of the declarative
//! scenario API relative to a hand-wired `RoundEngine` for the same
//! experiment. Two measurements per configuration:
//!
//! * **steady-state allocations per round** through `RoundEngine::step` for
//!   an engine built by `Scenario` vs one assembled by hand — the scenario
//!   path must add **zero**;
//! * **end-to-end wall clock** (construction + full run) for `Scenario`
//!   (spec → validate → build workload → run) vs the hand-wired pipeline —
//!   the scenario path must stay within 1%.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p krum-bench --bin scenario_overhead > BENCH_scenario_overhead.json
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use krum_attacks::AttackSpec;
use krum_core::{ExecutionPolicy, RuleSpec};
use krum_dist::{ClusterSpec, LearningRateSchedule, RoundEngine, TrainingConfig};
use krum_models::EstimatorSpec;
use krum_scenario::ScenarioBuilder;
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

const N: usize = 40;
const F: usize = 18;
const SIGMA: f64 = 0.2;
const GAMMA: f64 = 0.05;
const SEED: u64 = 17;
const ROUNDS: usize = 30;
const WALL_REPEATS: usize = 9;
const WARM_ROUNDS: usize = 2;
const MEASURED_ROUNDS: usize = 10;

fn scenario_builder(rule: RuleSpec, dim: usize) -> ScenarioBuilder {
    ScenarioBuilder::new(N, F)
        .rule(rule)
        .attack(AttackSpec::GaussianNoise { std: 50.0 })
        .estimator(EstimatorSpec::GaussianQuadratic { dim, sigma: SIGMA })
        .schedule(LearningRateSchedule::Constant { gamma: GAMMA })
        .rounds(ROUNDS)
        .eval_every(ROUNDS)
        .seed(SEED)
        .init_fill(1.0)
        .track_optimum(false)
}

/// The same experiment assembled by hand, exactly as pre-scenario callers
/// wired it: estimator factory, rule, attack, engine.
fn hand_wired_engine(rule: RuleSpec, dim: usize) -> RoundEngine {
    let workload = EstimatorSpec::GaussianQuadratic { dim, sigma: SIGMA }
        .build(N - F, SEED)
        .expect("valid workload");
    RoundEngine::new(
        ClusterSpec::new(N, F).expect("valid cluster"),
        rule.build(N, F).expect("valid rule"),
        AttackSpec::GaussianNoise { std: 50.0 }
            .build(dim)
            .expect("valid attack"),
        workload.estimators,
        workload.probe,
        TrainingConfig {
            rounds: ROUNDS,
            schedule: LearningRateSchedule::Constant { gamma: GAMMA },
            seed: SEED,
            eval_every: ROUNDS,
            known_optimum: None,
        },
        krum_dist::ExecutionStrategy::Sequential,
    )
    .expect("valid engine")
}

/// Steady-state allocations per `RoundEngine::step` (sequential aggregation
/// policy, after warm-up).
fn steady_state_allocations_per_round(engine: &mut RoundEngine, dim: usize) -> f64 {
    engine.set_aggregation_policy(ExecutionPolicy::Sequential);
    let mut params = Vector::filled(dim, 1.0);
    for round in 0..WARM_ROUNDS {
        engine.step(&mut params, round).expect("round succeeds");
    }
    let before = allocations();
    for round in 0..MEASURED_ROUNDS {
        engine.step(&mut params, round).expect("round succeeds");
    }
    (allocations() - before) as f64 / MEASURED_ROUNDS as f64
}

fn json_entry(rule: RuleSpec, dim: usize) -> String {
    // Allocation delta: scenario-built engine vs hand-built engine.
    let builder = scenario_builder(rule, dim);
    let mut scenario = builder.build().expect("valid scenario");
    let scenario_allocs = steady_state_allocations_per_round(scenario.engine_mut(), dim);
    let mut engine = hand_wired_engine(rule, dim);
    let hand_allocs = steady_state_allocations_per_round(&mut engine, dim);

    // End-to-end wall clock: spec → run vs hand-wiring → run. The repeats
    // are interleaved so slow drift of the machine hits both paths equally.
    let mut scenario_times = Vec::with_capacity(WALL_REPEATS);
    let mut hand_times = Vec::with_capacity(WALL_REPEATS);
    for _ in 0..WALL_REPEATS {
        let start = Instant::now();
        let params = scenario_builder(rule, dim)
            .run()
            .expect("run succeeds")
            .final_params;
        scenario_times.push(start.elapsed().as_nanos());
        assert!(params.norm().is_finite());

        let start = Instant::now();
        let (params, _) = hand_wired_engine(rule, dim)
            .run(Vector::filled(dim, 1.0))
            .expect("run succeeds");
        hand_times.push(start.elapsed().as_nanos());
        assert!(params.norm().is_finite());
    }
    scenario_times.sort_unstable();
    hand_times.sort_unstable();
    let scenario_wall = scenario_times[WALL_REPEATS / 2];
    let hand_wall = hand_times[WALL_REPEATS / 2];
    let overhead = scenario_wall as f64 / hand_wall as f64 - 1.0;

    format!(
        r#"    {{
      "rule": "{rule}",
      "n": {N},
      "f": {F},
      "dim": {dim},
      "rounds": {ROUNDS},
      "steady_state_allocations_per_round": {{
        "scenario_engine": {scenario_allocs:.1},
        "hand_wired_engine": {hand_allocs:.1},
        "scenario_minus_hand_wired": {:.1}
      }},
      "end_to_end_wall_nanos_median": {{
        "scenario_run": {scenario_wall},
        "hand_wired_run": {hand_wall},
        "scenario_overhead_percent": {:.3}
      }}
    }}"#,
        scenario_allocs - hand_allocs,
        100.0 * overhead,
    )
}

fn main() {
    let configs = [
        (RuleSpec::Krum, 10_000usize),
        (RuleSpec::Median, 10_000),
        (RuleSpec::Krum, 1_000),
    ];
    let entries: Vec<String> = configs
        .iter()
        .map(|&(rule, dim)| json_entry(rule, dim))
        .collect();
    let provenance = krum_bench::provenance();
    println!(
        r#"{{
  "benchmark": "scenario_overhead (crates/bench/src/bin/scenario_overhead.rs)",
  {provenance}
  "description": "cost of the declarative scenario API vs a hand-wired RoundEngine for the same experiment (gaussian-noise attack, quadratic estimators, sequential strategy): steady-state allocations per engine round for the scenario-built vs hand-built engine, and median end-to-end wall time (construction + {ROUNDS}-round run) for Scenario::run vs the hand-wired pipeline",
  "method": "allocations counted with a thread-local counting global allocator over {MEASURED_ROUNDS} warm rounds (sequential aggregation policy); wall times are the median of {WALL_REPEATS} end-to-end repeats",
  "claims": [
    "scenario_minus_hand_wired allocations per round == 0 (the scenario wires the same engine, no per-round wrapper cost)",
    "scenario_overhead_percent < 1 (construction/validation cost is amortised away by the run)"
  ],
  "configs": [
{}
  ]
}}"#,
        entries.join(",\n")
    );
}
