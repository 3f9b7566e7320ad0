//! The pairwise-distance kernel behind Krum's `O(n²·d)` hot path.
//!
//! Lemma 4.1 prices one Krum aggregation at `O(n²·d)`: every proposal pair
//! needs a squared Euclidean distance. The kernel here makes that cost as
//! small as the hardware allows:
//!
//! * **Cached-norm (Gram) formulation** — `‖Vi − Vj‖² = ‖Vi‖² + ‖Vj‖² −
//!   2⟨Vi, Vj⟩`, clamped at zero. Norms are computed once (`O(n·d)`), and
//!   each pair costs one dot product instead of a subtract-square-sum pass.
//! * **Full-width dot product** — 32 independent lane accumulators break the
//!   floating-point add dependency chain. The lane loop and the top of the
//!   pairwise reduction tree compile to 256-bit multiplies and adds on
//!   AVX2/AVX-512 hosts (separate multiply and add: no FMA, which would
//!   change the bits). [`dot`] is inlined into every pairwise loop.
//! * **Upper triangle only** — distances are symmetric, so each pair is
//!   computed once and written to both halves. When
//!   [`ExecutionPolicy::use_parallel`] fans a pass out, the rows of the
//!   strict upper triangle go over the `rayon` pool (round-robin striping
//!   balances the linearly shrinking row lengths) and a serial pass mirrors
//!   them.
//! * **Partial selection for scores** — per row, the `n − f − 2` smallest
//!   distances are found with `select_nth_unstable_by` (`O(n)`) instead of a
//!   full sort (`O(n log n)`), using one reusable scratch row.
//!
//! The pre-optimization implementation is kept under
//! [`naive`] — compiled for tests and for the `naive` feature — as the
//! equivalence oracle the property tests and the `krum_scaling` benchmark
//! compare against. [`naive::dot`] is the bit oracle of [`dot`].
//!
//! NaN semantics match the naive path: a proposal with non-finite
//! coordinates has NaN distances, a NaN Krum score, and loses every
//! selection (see [`argmin`]). The zero-clamp uses a comparison (`d < 0.0`)
//! rather than `f64::max` precisely so NaN is preserved.
//!
//! [`ExecutionPolicy::use_parallel`]: crate::ExecutionPolicy

use krum_tensor::Vector;
use rayon::prelude::*;

/// Lane accumulators of [`dot`]: lane `l` sums the products at indices
/// `≡ l (mod LANES)` of the whole 32-wide chunks.
const LANES: usize = 32;

/// Dot product with 32 independent lane accumulators, reduced by a fixed
/// pairwise tree, then the `len % 32` tail added in index order.
///
/// The bits are pinned: lane `l` sums its products in chunk order starting
/// from `+0.0`; the tree adds lane `l + w` into lane `l` for `w = 16, 8, 4,
/// 2, 1`; the tail is added to lane 0's total one product at a time.
/// [`naive::dot`] is the original single-loop formulation of exactly these
/// operations, and the kernel tests compare the two bit for bit.
///
/// The lane loop and the tree are separate steps so that each compiles at
/// its own vector width. Written as one loop, LLVM's SLP vectorizer sizes
/// the whole function by the two-wide bottom of the tree and runs the lane
/// loop on 128-bit registers.
///
/// Exposed as `krum_core::ilp_dot` so benchmarks can compare it against
/// explicit SIMD-style chunking on the build target. Panics in debug builds
/// when the slices differ in length (release builds read the shorter).
#[inline(always)]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() - a.len() % LANES;
    let mut sum = reduce_lanes(lane_sums(&a[..main], &b[..main]));
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        sum += x * y;
    }
    sum
}

/// Per-lane sums of products over the whole 32-wide chunks of `a` and `b`.
#[inline(always)]
fn lane_sums(a: &[f64], b: &[f64]) -> [f64; LANES] {
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for lane in 0..LANES {
            acc[lane] += ca[lane] * cb[lane];
        }
    }
    acc
}

/// The pairwise tree over the 32 lane sums. The three wide levels run on
/// full vectors; the opaque [`std::hint::black_box`] before the last four
/// lanes keeps the vectorizer from sizing them (and with them the lane loop)
/// by the two-wide bottom. It costs one 32-byte store and reload per dot.
#[inline(always)]
fn reduce_lanes(acc: [f64; LANES]) -> f64 {
    let half: [f64; 16] = std::array::from_fn(|l| acc[l] + acc[l + 16]);
    let quarter: [f64; 8] = std::array::from_fn(|l| half[l] + half[l + 8]);
    let eighth: [f64; 4] =
        std::hint::black_box(std::array::from_fn(|l| quarter[l] + quarter[l + 4]));
    (eighth[0] + eighth[2]) + (eighth[1] + eighth[3])
}

/// Multiply-adds of one full pairwise pass over `n` proposals of dimension
/// `dim`: the `n(n−1)/2` dot products of the strict upper triangle.
pub(crate) fn pairwise_work(n: usize, dim: usize) -> usize {
    (n * n.saturating_sub(1) / 2).saturating_mul(dim)
}

/// Full symmetric matrix of pairwise squared distances, flattened row-major,
/// computed with the cached-norm Gram formulation over the upper triangle.
/// Allocation-per-call wrapper around [`pairwise_squared_distances_into`].
pub(crate) fn pairwise_squared_distances(proposals: &[Vector]) -> Vec<f64> {
    let dim = proposals.first().map_or(0, Vector::dim);
    let parallel = crate::ExecutionPolicy::Auto.use_parallel(pairwise_work(proposals.len(), dim));
    let mut norms = Vec::new();
    let mut out = Vec::new();
    pairwise_squared_distances_into(proposals, &mut norms, &mut out, parallel);
    out
}

/// Cached-norm pairwise distances written into a caller-owned workspace.
///
/// `norms` and `out` are resized to `n` and `n × n`; neither allocates once
/// its capacity has reached the proposal shape. The sequential path performs
/// zero heap allocations. The parallel path fans the strict-upper-triangle
/// rows out over disjoint mutable row slices of `out` (the vendored pool
/// schedules them round-robin, which balances the linearly shrinking rows),
/// then mirrors the triangle serially; the thread spawns and the pool's
/// bookkeeping allocate, which is why the zero-allocation contract holds
/// only while the pass stays on the calling thread. Both paths compute
/// every entry with the same [`pair_distance`], so they agree bit for bit.
pub(crate) fn pairwise_squared_distances_into(
    proposals: &[Vector],
    norms: &mut Vec<f64>,
    out: &mut Vec<f64>,
    parallel: bool,
) {
    let n = proposals.len();
    norms.clear();
    norms.extend(proposals.iter().map(|v| dot(v.as_slice(), v.as_slice())));
    out.clear();
    out.resize(n * n, 0.0);
    if parallel && n >= 2 {
        let norms_ref: &[f64] = norms;
        let rows: Vec<(usize, &mut [f64])> = out.chunks_mut(n).enumerate().collect();
        rows.into_par_iter().for_each(|(i, row)| {
            fill_upper_row(proposals, norms_ref, i, row);
        });
        // Mirror the strict upper triangle (cheap `O(n²)` serial pass).
        for i in 0..n {
            for j in (i + 1)..n {
                out[j * n + i] = out[i * n + j];
            }
        }
    } else {
        for i in 0..n {
            for j in (i + 1)..n {
                let d = pair_distance(proposals, norms, i, j);
                out[i * n + j] = d;
                out[j * n + i] = d;
            }
        }
    }
}

/// Incremental cached-norm update: recomputes only the norms and distance
/// entries touched by changed proposals, leaving every other entry of the
/// previously computed matrix byte-for-byte untouched.
///
/// `norms` and `out` must hold a valid distance matrix for the *same*
/// proposal set except at the indices flagged in `changed` (the
/// generation-keyed cache in [`AggregationContext`] enforces this and falls
/// back to [`pairwise_squared_distances_into`] on any shape change).
///
/// Bit-identity with the full recomputation holds because `f64` addition and
/// multiplication are commutative at the bit level and [`dot`] accumulates
/// index-by-index, so `d(i, j)` evaluates to the same bits regardless of
/// which side triggered the recompute; unchanged pairs are simply not
/// rewritten. With `q` changed slots out of `n` the cost is
/// `q·n − q·(q+1)/2` dot products instead of `n·(n−1)/2` — the incremental
/// path is serial (the touched set is small by construction) and performs
/// zero heap allocations.
///
/// [`AggregationContext`]: crate::AggregationContext
pub(crate) fn pairwise_squared_distances_update(
    proposals: &[Vector],
    norms: &mut [f64],
    out: &mut [f64],
    changed: &[bool],
) {
    let n = proposals.len();
    debug_assert_eq!(norms.len(), n);
    debug_assert_eq!(out.len(), n * n);
    debug_assert_eq!(changed.len(), n);
    for i in 0..n {
        if changed[i] {
            let vi = proposals[i].as_slice();
            norms[i] = dot(vi, vi);
        }
    }
    for i in 0..n {
        let ci = changed[i];
        for j in (i + 1)..n {
            if ci || changed[j] {
                let d = pair_distance(proposals, norms, i, j);
                out[i * n + j] = d;
                out[j * n + i] = d;
            }
        }
    }
}

/// Writes distances from proposal `i` to every proposal `j > i` into the
/// tail of `row` (the full `n`-wide row `i` of the distance matrix).
#[inline]
fn fill_upper_row(proposals: &[Vector], norms: &[f64], i: usize, row: &mut [f64]) {
    for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
        *slot = pair_distance(proposals, norms, i, j);
    }
}

/// The cached-norm distance `‖Vi‖² + ‖Vj‖² − 2⟨Vi, Vj⟩` of one pair, with
/// the cancellation error below zero clamped away. The clamp lets NaN
/// through (a `max(0.0)` would silently turn NaN into 0 and hand the
/// aggregation to a poisoned worker). Every pairwise loop goes through here,
/// so the full, parallel and incremental passes agree bit for bit.
#[inline(always)]
fn pair_distance(proposals: &[Vector], norms: &[f64], i: usize, j: usize) -> f64 {
    let d = norms[i] + norms[j] - 2.0 * dot(proposals[i].as_slice(), proposals[j].as_slice());
    if d < 0.0 {
        0.0
    } else {
        d
    }
}

/// Krum scores from a flattened `n × n` distance matrix. Allocation-per-call
/// wrapper around [`scores_from_distances_into`].
pub(crate) fn scores_from_distances(distances: &[f64], n: usize, neighbours: usize) -> Vec<f64> {
    let mut scratch = Vec::new();
    let mut scores = Vec::new();
    scores_from_distances_into(distances, n, neighbours, &mut scratch, &mut scores);
    scores
}

/// Krum scores from a flattened `n × n` distance matrix: for each `i`, the
/// sum of the `neighbours` smallest squared distances to other proposals.
/// Uses partial selection (`O(n)` per row) with the caller-owned scratch row;
/// allocation-free once `scratch`/`scores` have warmed up.
pub(crate) fn scores_from_distances_into(
    distances: &[f64],
    n: usize,
    neighbours: usize,
    scratch: &mut Vec<f64>,
    scores: &mut Vec<f64>,
) {
    assert_eq!(n * n, distances.len(), "distance matrix must be n × n");
    assert!(
        neighbours <= n.saturating_sub(1),
        "cannot take {neighbours} neighbours out of {n} proposals"
    );
    scores.clear();
    scratch.clear();
    scratch.resize(n.saturating_sub(1), 0.0);
    for i in 0..n {
        let base = i * n;
        scratch[..i].copy_from_slice(&distances[base..base + i]);
        scratch[i..].copy_from_slice(&distances[base + i + 1..base + n]);
        scores.push(sum_of_smallest(scratch, neighbours));
    }
}

/// Sum of the `k` smallest values of `values` (which is reordered).
#[inline]
fn sum_of_smallest(values: &mut [f64], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    if k < values.len() {
        let (smallest, kth, _) = values.select_nth_unstable_by(k - 1, f64::total_cmp);
        smallest.iter().sum::<f64>() + *kth
    } else {
        values.iter().sum()
    }
}

/// Row sums of the distance matrix: `Σ_j ‖Vi − Vj‖²` per proposal — the
/// closest-to-barycenter criterion, sharing the cached-norm kernel.
pub(crate) fn row_sums(distances: &[f64], n: usize) -> Vec<f64> {
    let mut out = Vec::new();
    row_sums_into(distances, n, &mut out);
    out
}

/// [`row_sums`] written into a caller-owned buffer (allocation-free once
/// warmed up).
pub(crate) fn row_sums_into(distances: &[f64], n: usize, out: &mut Vec<f64>) {
    assert_eq!(n * n, distances.len(), "distance matrix must be n × n");
    out.clear();
    out.extend(
        distances
            .chunks_exact(n.max(1))
            .map(|row| row.iter().sum::<f64>()),
    );
}

/// Index of the smallest score; ties break towards the smallest index and
/// NaN scores never win (a NaN-poisoned proposal must not be selected).
/// Returns `None` when every score is NaN (a fully poisoned round) — the
/// old `unwrap_or(0)` fallback silently handed the round to proposal 0,
/// which may itself be Byzantine, so callers must surface the degenerate
/// case as a structured error instead.
pub(crate) fn argmin(scores: &[f64]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &s) in scores.iter().enumerate() {
        if s.is_nan() {
            continue;
        }
        match best {
            Some(b) if scores[b] <= s => {}
            _ => best = Some(i),
        }
    }
    best
}

/// The `m` best-scored indices, ordered by `(score, index)` — Krum's
/// tie-breaking rule extended to a set. Uses partial selection, so the cost
/// is `O(n + m log m)` rather than `O(n log n)`.
#[cfg(test)]
pub(crate) fn smallest_indices(scores: &[f64], m: usize) -> Vec<usize> {
    let mut order = Vec::new();
    smallest_indices_into(scores, m, &mut order);
    order
}

/// The `m` best-scored indices written into a caller-owned index buffer
/// (allocation-free once warmed up; truncation keeps the capacity).
pub(crate) fn smallest_indices_into(scores: &[f64], m: usize, order: &mut Vec<usize>) {
    let n = scores.len();
    debug_assert!(m >= 1 && m <= n);
    order.clear();
    order.extend(0..n);
    let compare = |a: &usize, b: &usize| scores[*a].total_cmp(&scores[*b]).then(a.cmp(b));
    if m < n {
        order.select_nth_unstable_by(m - 1, compare);
        order.truncate(m);
    }
    order.sort_unstable_by(compare);
}

/// The pre-optimization reference path: per-pair scalar distances and
/// sort-based neighbour selection. Kept as the equivalence oracle for the
/// property tests and the `krum_scaling` before/after benchmark (enable the
/// `naive` feature to use it from outside the crate).
#[cfg(any(test, feature = "naive"))]
pub mod naive {
    use krum_tensor::Vector;

    /// The original single-loop form of [`super::dot`], kept as its bit
    /// oracle: 32 lane accumulators summed in chunk order from `+0.0`, the
    /// in-place pairwise tree, then the tail in index order.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        const LANES: usize = 32;
        debug_assert_eq!(a.len(), b.len());
        let main = a.len() - a.len() % LANES;
        let mut acc = [0.0f64; LANES];
        for (ca, cb) in a[..main]
            .chunks_exact(LANES)
            .zip(b[..main].chunks_exact(LANES))
        {
            for lane in 0..LANES {
                acc[lane] += ca[lane] * cb[lane];
            }
        }
        let mut width = LANES / 2;
        while width > 0 {
            for lane in 0..width {
                acc[lane] += acc[lane + width];
            }
            width /= 2;
        }
        let mut sum = acc[0];
        for (x, y) in a[main..].iter().zip(&b[main..]) {
            sum += x * y;
        }
        sum
    }

    /// The cached-norm distance matrix computed pair by pair with [`dot`]:
    /// the bit oracle of the Gram kernel's full, parallel and incremental
    /// passes.
    pub fn gram_squared_distances(proposals: &[Vector]) -> Vec<f64> {
        let n = proposals.len();
        let norms: Vec<f64> = proposals
            .iter()
            .map(|v| dot(v.as_slice(), v.as_slice()))
            .collect();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = norms[i] + norms[j]
                    - 2.0 * dot(proposals[i].as_slice(), proposals[j].as_slice());
                let dist = if dist < 0.0 { 0.0 } else { dist };
                d[i * n + j] = dist;
                d[j * n + i] = dist;
            }
        }
        d
    }

    /// Full symmetric pairwise distance matrix via `Vector::squared_distance`.
    pub fn pairwise_squared_distances(proposals: &[Vector]) -> Vec<f64> {
        let n = proposals.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = proposals[i].squared_distance(&proposals[j]);
                d[i * n + j] = dist;
                d[j * n + i] = dist;
            }
        }
        d
    }

    /// Krum scores via a full sort of each row.
    pub fn krum_scores(proposals: &[Vector], neighbours: usize) -> Vec<f64> {
        let distances = pairwise_squared_distances(proposals);
        let n = proposals.len();
        let mut scores = Vec::with_capacity(n);
        for i in 0..n {
            let mut row: Vec<f64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| distances[i * n + j])
                .collect();
            row.sort_by(f64::total_cmp);
            scores.push(row.iter().take(neighbours).sum());
        }
        scores
    }

    /// The full naive Krum choice: naive distances, sorted rows, linear
    /// argmin — the exact pre-optimization algorithm, for benchmarking.
    /// (The oracle runs on finite inputs; an all-NaN score vector falls back
    /// to 0 here because the optimized path errors out before comparing.)
    pub fn krum_choose(proposals: &[Vector], f: usize) -> usize {
        let n = proposals.len();
        let scores = krum_scores(proposals, n - f - 2);
        super::argmin(&scores).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_proposals(n: usize, dim: usize, spread: f64, seed: u64) -> Vec<Vector> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vector::gaussian(dim, 1.0, spread, &mut rng))
            .collect()
    }

    #[test]
    fn dot_matches_reference_for_all_lengths() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100, 1001] {
            let a = Vector::gaussian(len, 0.0, 1.0, &mut rng);
            let b = Vector::gaussian(len, 0.0, 1.0, &mut rng);
            let reference: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            let fast = dot(a.as_slice(), b.as_slice());
            assert!(
                (fast - reference).abs() <= 1e-12 * reference.abs().max(1.0),
                "len {len}: {fast} vs {reference}"
            );
        }
    }

    /// Bit equality for the exact-oracle tests. Rust leaves the payload and
    /// sign of a NaN produced by arithmetic unspecified (the vectorizer may
    /// commute an add), so any NaN matches any NaN; every other value,
    /// signed zeros and infinities included, must match bit for bit.
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Vectors exercising every float class the kernel can meet: Gaussian
    /// values at three spreads, then signed zeros, subnormals and
    /// non-finite values sprinkled over a Gaussian background.
    fn oracle_cases(len: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
        let special = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 7.0,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut cases: Vec<Vec<f64>> = [1e-3, 1.0, 1e6]
            .iter()
            .map(|&spread| Vector::gaussian(len, 0.0, spread, rng).into_inner())
            .collect();
        cases.push(
            (0..len)
                .map(|k| if k % 3 == 0 { -0.0 } else { 0.0 })
                .collect(),
        );
        cases.push(
            (0..len)
                .map(|k| f64::MIN_POSITIVE * ((k % 11) as f64 - 5.0) / 16.0)
                .collect(),
        );
        for (s, &value) in special.iter().enumerate() {
            let mut v = Vector::gaussian(len, 0.0, 1.0, rng).into_inner();
            for k in (s % 5..len).step_by(7 + s) {
                v[k] = value;
            }
            cases.push(v);
        }
        cases
    }

    /// The full-width [`dot`] reproduces the original single-loop kernel
    /// bit for bit across the chunk boundaries and every float class.
    #[test]
    fn dot_is_bit_identical_to_the_naive_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let lengths = (0..=130).chain(255..=257).chain([1000, 1001]);
        let mut compared = 0;
        for len in lengths {
            let cases = oracle_cases(len, &mut rng);
            for a in &cases {
                for b in &cases {
                    let (fast, oracle) = (dot(a, b), naive::dot(a, b));
                    assert!(
                        same_bits(fast, oracle),
                        "len {len}: dot {fast:e} ({:#x}) vs oracle {oracle:e} ({:#x})",
                        fast.to_bits(),
                        oracle.to_bits()
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 20_000);
    }

    /// Proposal sets of several shapes for the matrix oracles; the NaN, inf
    /// and signed-zero rows come from [`oracle_cases`].
    fn oracle_proposal_sets(rng: &mut ChaCha8Rng) -> Vec<Vec<Vector>> {
        let mut sets = Vec::new();
        for (n, dim) in [
            (2, 1),
            (5, 31),
            (9, 32),
            (13, 33),
            (17, 64),
            (11, 100),
            (7, 257),
        ] {
            let cases = oracle_cases(dim, rng);
            for spread in [1e-3, 1.0, 1e6] {
                sets.push(
                    (0..n)
                        .map(|_| Vector::gaussian(dim, 0.5, spread, rng))
                        .collect(),
                );
            }
            // Every float class in one set, Gaussian rows in between.
            sets.push(
                (0..n.max(cases.len()))
                    .map(|k| match cases.get(k) {
                        Some(case) if k % 2 == 1 => Vector::from(case.clone()),
                        _ => Vector::gaussian(dim, 0.0, 1.0, rng),
                    })
                    .collect(),
            );
        }
        sets
    }

    fn assert_same_matrix(fast: &[f64], oracle: &[f64], what: &str) {
        assert_eq!(fast.len(), oracle.len(), "{what}: shape");
        for (k, (f, o)) in fast.iter().zip(oracle).enumerate() {
            assert!(
                same_bits(*f, *o),
                "{what}, entry {k}: {f:e} vs oracle {o:e}"
            );
        }
    }

    /// The full distance matrix, on the sequential and on the parallel path,
    /// is the oracle's pair-by-pair Gram matrix bit for bit.
    #[test]
    fn distance_matrix_is_bit_identical_to_the_naive_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for (s, proposals) in oracle_proposal_sets(&mut rng).iter().enumerate() {
            let oracle = naive::gram_squared_distances(proposals);
            for parallel in [false, true] {
                let (mut norms, mut out) = (Vec::new(), Vec::new());
                pairwise_squared_distances_into(proposals, &mut norms, &mut out, parallel);
                assert_same_matrix(&out, &oracle, &format!("set {s}, parallel {parallel}"));
            }
        }
    }

    /// The incremental update lands on the oracle's matrix of the new
    /// proposal set, whichever slots changed.
    #[test]
    fn incremental_update_is_bit_identical_to_the_naive_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let sets = oracle_proposal_sets(&mut rng);
        for (s, proposals) in sets.iter().enumerate() {
            let n = proposals.len();
            let (mut norms, mut out) = (Vec::new(), Vec::new());
            pairwise_squared_distances_into(proposals, &mut norms, &mut out, false);
            // Swap in the rows of the next set (same shape when it has one)
            // at a stride that varies with the set.
            let donor = &sets[(s + 1) % sets.len()];
            let changed: Vec<bool> = (0..n).map(|i| (i + s) % (1 + s % 3) == 0).collect();
            let mut updated = proposals.clone();
            for (i, slot) in updated.iter_mut().enumerate() {
                if changed[i] {
                    *slot = match donor.get(i) {
                        Some(v) if v.dim() == slot.dim() => v.clone(),
                        _ => Vector::gaussian(slot.dim(), -1.0, 3.0, &mut rng),
                    };
                }
            }
            pairwise_squared_distances_update(&updated, &mut norms, &mut out, &changed);
            let oracle = naive::gram_squared_distances(&updated);
            assert_same_matrix(&out, &oracle, &format!("set {s}, incremental"));
        }
    }

    /// Satellite property test: the Gram kernel matches the naive per-pair
    /// path within 1e-9 relative tolerance over seeded random proposal sets.
    #[test]
    fn gram_distances_match_naive_within_tolerance() {
        for seed in 0..30 {
            let n = 5 + (seed as usize % 11);
            let dim = 1 + (seed as usize * 7) % 300;
            let spread = [0.01, 0.5, 10.0][seed as usize % 3];
            let proposals = random_proposals(n, dim, spread, seed);
            let fast = pairwise_squared_distances(&proposals);
            let slow = naive::pairwise_squared_distances(&proposals);
            for (k, (f, s)) in fast.iter().zip(&slow).enumerate() {
                let tolerance = 1e-9 * s.abs().max(1e-9);
                assert!(
                    (f - s).abs() <= tolerance,
                    "seed {seed}, entry {k}: gram {f} vs naive {s}"
                );
            }
        }
    }

    /// Tentpole property test: recomputing only the changed rows yields the
    /// same bits as recomputing the whole matrix, for arbitrary change sets
    /// (including none and all).
    #[test]
    fn incremental_update_is_bit_identical_to_full_recompute() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for trial in 0..30usize {
            let n = 4 + trial % 10;
            let dim = 1 + (trial * 11) % 130;
            let mut proposals = random_proposals(n, dim, 1.0, 500 + trial as u64);
            let mut norms = Vec::new();
            let mut out = Vec::new();
            pairwise_squared_distances_into(&proposals, &mut norms, &mut out, false);
            // Replace a deterministic subset (varying density across trials,
            // including the empty and the full set).
            let changed: Vec<bool> = (0..n).map(|i| (i + trial) % (1 + trial % 4) == 0).collect();
            for (i, v) in proposals.iter_mut().enumerate() {
                if changed[i] {
                    *v = Vector::gaussian(dim, -0.5, 2.0, &mut rng);
                }
            }
            pairwise_squared_distances_update(&proposals, &mut norms, &mut out, &changed);
            let mut full_norms = Vec::new();
            let mut full_out = Vec::new();
            pairwise_squared_distances_into(&proposals, &mut full_norms, &mut full_out, false);
            assert!(
                norms
                    .iter()
                    .zip(&full_norms)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "trial {trial}: norms diverged"
            );
            assert!(
                out.iter()
                    .zip(&full_out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "trial {trial}: distances diverged"
            );
        }
    }

    #[test]
    fn gram_distance_of_identical_vectors_is_exactly_zero_or_clamped() {
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        let proposals = vec![v.clone(), v.clone(), v];
        let d = pairwise_squared_distances(&proposals);
        assert!(
            d.iter().all(|&x| x >= 0.0),
            "distances must be clamped at 0"
        );
        assert!(d.iter().all(|&x| x < 1e-12));
    }

    #[test]
    fn nan_proposals_keep_nan_distances() {
        let proposals = vec![
            Vector::from(vec![f64::NAN, 1.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![2.0, 2.0]),
        ];
        let d = pairwise_squared_distances(&proposals);
        assert!(d[1].is_nan(), "distance to the NaN proposal must stay NaN");
        assert!(d[3].is_nan());
        assert!(!d[5].is_nan());
    }

    #[test]
    fn partial_selection_scores_match_sorted_scores() {
        for seed in 0..20 {
            let n = 6 + (seed as usize % 9);
            let proposals = random_proposals(n, 17, 1.0, 1000 + seed);
            let distances = pairwise_squared_distances(&proposals);
            for neighbours in 1..n - 1 {
                let fast = scores_from_distances(&distances, n, neighbours);
                let slow: Vec<f64> = (0..n)
                    .map(|i| {
                        let mut row: Vec<f64> = (0..n)
                            .filter(|&j| j != i)
                            .map(|j| distances[i * n + j])
                            .collect();
                        row.sort_by(f64::total_cmp);
                        row.iter().take(neighbours).sum()
                    })
                    .collect();
                for (f, s) in fast.iter().zip(&slow) {
                    assert!(
                        (f - s).abs() <= 1e-9 * s.abs().max(1e-9),
                        "seed {seed}, k={neighbours}: {f} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn argmin_skips_nan_and_breaks_ties_low() {
        assert_eq!(argmin(&[3.0, 1.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmin(&[f64::NAN, 2.0, 1.0]), Some(2));
        assert_eq!(argmin(&[f64::NAN, 5.0, f64::NAN, 5.0]), Some(1));
        // A fully poisoned score vector has no winner at all.
        assert_eq!(argmin(&[f64::NAN, f64::NAN]), None);
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn smallest_indices_orders_by_score_then_index() {
        let scores = [2.0, 1.0, 2.0, 0.5, f64::NAN];
        assert_eq!(smallest_indices(&scores, 1), vec![3]);
        assert_eq!(smallest_indices(&scores, 3), vec![3, 1, 0]);
        // NaN is always last.
        assert_eq!(smallest_indices(&scores, 5), vec![3, 1, 0, 2, 4]);
    }

    #[test]
    fn row_sums_match_manual() {
        let d = vec![0.0, 1.0, 2.0, 1.0, 0.0, 3.0, 2.0, 3.0, 0.0];
        assert_eq!(row_sums(&d, 3), vec![3.0, 4.0, 5.0]);
    }
}
