//! Allocation regression test for the workspace-backed aggregation path.
//!
//! The `AggregationContext` contract: once the workspace has warmed up on a
//! proposal shape `(n, d)`, repeated `aggregate_in` calls under the
//! sequential execution policy perform **zero heap allocations**. This test
//! installs a counting global allocator and pins that contract for Krum,
//! Multi-Krum, the coordinate-wise median and the trimmed mean (the rules
//! named by the server hot paths), plus the allocation-free kernel shared
//! with `closest-to-barycenter`. The default `Auto` policy keeps every pass
//! below `PARALLEL_WORK` multiply-adds on the calling thread, so it is
//! pinned at the benchmark's shapes too, and a whole warm engine round is
//! pinned at its measured count.
//!
//! The sampling path is pinned the same way: a warm `ChaCha8Rng::fill_bytes`
//! and `Normal::fill` allocate nothing, and one Gaussian gradient estimate
//! allocates exactly its gradient and its noise vector.
//!
//! The counter is thread-local so each test stays meaningful even if the
//! harness runs other tests concurrently in the same process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use krum::aggregation::{
    AggregationContext, Aggregator, ClosestToBarycenter, CoordinateWiseMedian, ExecutionPolicy,
    Hierarchical, Krum, MultiKrum, RuleSpec, StageRule, TrimmedMean,
};
use krum::attacks::AttackSpec;
use krum::dist::LearningRateSchedule;
use krum::models::{EstimatorSpec, GaussianEstimator, GradientEstimator, QuadraticCost};
use krum::scenario::{ExecutionSpec, Scenario, ScenarioBuilder};
use krum::tensor::Vector;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rand_distr::Normal;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation made by the current thread; delegates the actual
/// memory management to the system allocator.
///
/// Deliberately duplicated in `crates/bench/src/bin/round_pipeline.rs`
/// (keep the two in sync): a shared home would have to live in a library
/// crate, and every crate in this workspace forbids `unsafe_code`, which a
/// `GlobalAlloc` impl requires.
struct CountingAllocator;

fn bump() {
    // `try_with` so allocations during thread teardown never panic.
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

/// Deterministic pseudo-random proposals (no RNG crate involvement so the
/// measured region stays simple).
fn proposals(n: usize, dim: usize) -> Vec<Vector> {
    (0..n)
        .map(|w| {
            Vector::from(
                (0..dim)
                    .map(|c| {
                        let x = (w * 31 + c * 7 + 13) as f64;
                        (x * 0.618_033_988_749).fract() * 2.0 - 1.0
                    })
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

#[test]
fn aggregation_path_is_allocation_free_after_warmup() {
    // n = 24 exercises sorts well past any insertion-sort cutoff; d = 257
    // straddles the kernel's 32-lane chunks and the median block size.
    let n = 24;
    let f = 7; // 2f + 2 < n
    let dim = 257;
    let ps = proposals(n, dim);

    let rules: Vec<(&str, Box<dyn Aggregator>)> = vec![
        ("krum", Box::new(Krum::new(n, f).unwrap())),
        ("multi-krum", Box::new(MultiKrum::new(n, f, n - f).unwrap())),
        ("median", Box::new(CoordinateWiseMedian::new())),
        ("trimmed-mean", Box::new(TrimmedMean::new(f))),
        (
            "closest-to-barycenter",
            Box::new(ClosestToBarycenter::new()),
        ),
    ];

    for (name, rule) in &rules {
        // The zero-allocation guarantee is tied to the sequential policy:
        // the thread-pool fan-out necessarily allocates task bookkeeping.
        let mut ctx = AggregationContext::with_policy(ExecutionPolicy::Sequential);

        // Warm-up: grows every buffer to the (n, d) high-water mark.
        for _ in 0..2 {
            rule.aggregate_in(&mut ctx, &ps).unwrap();
        }
        let expected = rule.aggregate_detailed(&ps).unwrap();

        let before = allocations();
        for _ in 0..10 {
            rule.aggregate_in(&mut ctx, &ps).unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "rule `{name}` allocated {} times in 10 warm aggregate_in calls",
            after - before
        );

        // The warm path still computes the right answer.
        assert_eq!(
            ctx.output(),
            &expected,
            "rule `{name}` warm output diverged from the allocating path"
        );
    }

    // Sanity check that the counter actually counts: an allocating call
    // must register.
    let krum = Krum::new(n, f).unwrap();
    let before = allocations();
    let _ = krum.aggregate_detailed(&ps).unwrap();
    assert!(
        allocations() > before,
        "counting allocator failed to observe the allocating path"
    );
}

/// Satellite: the warm-workspace contract must survive **arity churn** — a
/// server closing degraded rounds (or an async engine aggregating a
/// partial quorum) reuses one context across rules rebuilt at `q < n`,
/// then grows back to `n` when the stragglers return. Once every shape
/// has been seen, shrinking and growing between them must not reallocate.
#[test]
fn aggregation_path_survives_arity_churn_without_reallocating() {
    let n = 24;
    let f = 5;
    let dim = 257;
    let ps = proposals(n, dim);
    // Quorum sizes a degraded/async round would actually visit (all keep
    // Krum's 2f + 2 < q precondition at f = 5).
    let arities = [n, 17, 20, n, 13, n];

    let rules: Vec<Box<dyn Aggregator>> = arities
        .iter()
        .map(|&q| Box::new(Krum::new(q, f).unwrap()) as Box<dyn Aggregator>)
        .collect();

    let mut ctx = AggregationContext::with_policy(ExecutionPolicy::Sequential);
    // Warm-up: visit every shape once (high-water mark is (n, dim)).
    for (rule, &q) in rules.iter().zip(&arities) {
        rule.aggregate_in(&mut ctx, &ps[..q]).unwrap();
    }

    let before = allocations();
    for _ in 0..5 {
        for (rule, &q) in rules.iter().zip(&arities) {
            rule.aggregate_in(&mut ctx, &ps[..q]).unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "arity churn allocated {} times across warm shrink/grow cycles",
        after - before
    );

    // Churn keeps answers identical to the allocating path at each arity.
    for (rule, &q) in rules.iter().zip(&arities) {
        let expected = rule.aggregate_detailed(&ps[..q]).unwrap();
        rule.aggregate_in(&mut ctx, &ps[..q]).unwrap();
        assert_eq!(ctx.output(), &expected, "arity {q} diverged when warm");
    }
}

/// Satellite: the hierarchical rule's two-stage workspace obeys the same
/// contract — after one round warms the group slots, the winner table and
/// the outer context, steady-state rounds are allocation-free under the
/// sequential policy.
#[test]
fn hierarchical_aggregation_is_allocation_free_after_warmup() {
    let n = 24;
    let f = 3;
    let dim = 257;
    let ps = proposals(n, dim);
    let rule = Hierarchical::new(n, f, 4, StageRule::Krum, StageRule::Krum).unwrap();

    let mut ctx = AggregationContext::with_policy(ExecutionPolicy::Sequential);
    for _ in 0..2 {
        rule.aggregate_in(&mut ctx, &ps).unwrap();
    }
    let expected = rule.aggregate_detailed(&ps).unwrap();

    let before = allocations();
    for _ in 0..10 {
        rule.aggregate_in(&mut ctx, &ps).unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "hierarchical allocated {} times in 10 warm aggregate_in calls",
        after - before
    );
    assert_eq!(ctx.output(), &expected);
}

/// Allocations of `calls` warm `aggregate_in` calls of `rule` on a default
/// (`Auto` policy) context, after two warm-up calls.
fn warm_default_policy_allocations(rule: &dyn Aggregator, ps: &[Vector], calls: usize) -> u64 {
    let mut ctx = AggregationContext::new();
    for _ in 0..2 {
        rule.aggregate_in(&mut ctx, ps).unwrap();
    }
    let before = allocations();
    for _ in 0..calls {
        rule.aggregate_in(&mut ctx, ps).unwrap();
    }
    let spent = allocations() - before;
    assert_eq!(ctx.output(), &rule.aggregate_detailed(ps).unwrap());
    spent
}

/// Under the default policy, every per-round shape the benchmark and the
/// smoke scenarios aggregate stays on the calling thread: no scoped thread
/// spawns, so a warm call allocates nothing. A fan-out would cost about 18
/// allocations per call.
#[test]
fn default_policy_aggregation_is_allocation_free_at_benchmark_shapes() {
    for (n, f, dim) in [(40, 4, 1000), (380, 40, 64)] {
        let ps = proposals(n, dim);
        let rules: Vec<(&str, Box<dyn Aggregator>)> = vec![
            ("krum", Box::new(Krum::new(n, f).unwrap())),
            ("multi-krum", Box::new(MultiKrum::new(n, f, n - f).unwrap())),
            (
                "closest-to-barycenter",
                Box::new(ClosestToBarycenter::new()),
            ),
            ("median", Box::new(CoordinateWiseMedian::new())),
        ];
        for (name, rule) in &rules {
            let spent = warm_default_policy_allocations(rule.as_ref(), &ps, 3);
            assert_eq!(spent, 0, "`{name}` at {n} x {dim} allocated {spent} times");
        }
    }
    // The hierarchical smoke shape: 16 groups of 64 over n = 1024, d = 8.
    let rule = Hierarchical::new(1024, 64, 16, StageRule::Krum, StageRule::Krum).unwrap();
    let spent = warm_default_policy_allocations(&rule, &proposals(1024, 8), 3);
    assert_eq!(spent, 0, "hierarchical:groups=16 allocated {spent} times");
}

/// A warm engine round of the benchmark's reference scenario (n = 40,
/// f = 4, d = 1000, Krum against `sign-flip:scale=3`, σ = 0.2, sequential
/// engine, default aggregation policy) makes exactly this many allocations:
/// 1 per honest estimate (the noise vector the gradient is added into, 36
/// in all) and 7 elsewhere in the round. Aggregation contributes none.
/// ROADMAP item 3 (an allocation-free engine round) lowers this pin.
const E10_ROUND_ALLOCATIONS: u64 = 43;

#[test]
fn warm_engine_round_makes_the_pinned_allocation_count() {
    let rounds = 40;
    let spec = ScenarioBuilder::new(40, 4)
        .name("inproc-e10")
        .rule(RuleSpec::Krum)
        .attack(AttackSpec::SignFlip { scale: 3.0 })
        .estimator(EstimatorSpec::GaussianQuadratic {
            dim: 1000,
            sigma: 0.2,
        })
        .schedule(LearningRateSchedule::Constant { gamma: 0.1 })
        .rounds(rounds)
        .eval_every(rounds)
        .seed(31)
        .init_fill(1.0)
        .spec()
        .unwrap();
    assert_eq!(spec.execution, ExecutionSpec::Sequential);
    let mut scenario = Scenario::from_spec(spec).unwrap();
    let mut params = scenario.start().clone();
    // Round 0 evaluates; rounds 1..5 warm the workspaces.
    for round in 0..5 {
        scenario.engine_mut().step(&mut params, round).unwrap();
    }
    for round in 5..15 {
        let before = allocations();
        scenario.engine_mut().step(&mut params, round).unwrap();
        let spent = allocations() - before;
        assert_eq!(
            spent, E10_ROUND_ALLOCATIONS,
            "round {round} allocated {spent} times"
        );
    }
}

/// The Gaussian sampler's bulk paths draw into caller-owned memory: the
/// generator allocates its keystream buffer once, on its first draw, and
/// `Normal::fill` stages its words on the stack, so a warm draw never touches
/// the heap.
#[test]
fn bulk_sampling_is_allocation_free() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let normal = Normal::new(0.0, 0.2).unwrap();
    let mut bytes = vec![0u8; 4099];
    let mut samples = vec![0.0; 1000];
    rng.fill_bytes(&mut bytes);

    let before = allocations();
    for _ in 0..10 {
        rng.fill_bytes(&mut bytes);
        normal.fill(&mut rng, &mut samples);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "bulk sampling allocated {} times in 10 warm rounds",
        after - before
    );
    assert!(samples.iter().all(|x| x.is_finite()));
}

/// One Gaussian estimate `∇Q(x) + ξ` allocates exactly once: the gradient
/// and its noise share one vector, ξ drawn into it and ∇Q(x) added in place.
#[test]
fn gaussian_estimate_allocates_its_gradient_and_its_noise() {
    let dim = 1000;
    let cost = QuadraticCost::isotropic(Vector::filled(dim, 0.5), 0.0);
    let estimator = GaussianEstimator::new(cost, 0.2).unwrap();
    let params = Vector::filled(dim, 1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let rng: &mut dyn RngCore = &mut rng;
    estimator.estimate(&params, rng).unwrap();

    let calls = 10;
    let before = allocations();
    for _ in 0..calls {
        estimator.estimate(&params, rng).unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        calls,
        "{calls} estimates allocated {} times",
        after - before
    );
}
