//! Coordinate-wise robust statistics: median and trimmed mean.
//!
//! These rules are not part of the PODC paper but are the standard robust
//! baselines the follow-up literature compares Krum against (the
//! robust-location-estimation framing of Chen et al., arXiv:1412.1411); they
//! are included so the experiment drivers can report a fuller comparison
//! (clearly labelled as extensions in EXPERIMENTS.md).
//!
//! ## Cache-blocked column pipeline
//!
//! Both rules reduce each *coordinate* over all proposals. A naive
//! per-coordinate gather strides across every proposal vector (`n` cache
//! lines touched per coordinate), which is cache-hostile at large `d`. The
//! implementation here transposes a *block* of coordinates at a time into the
//! context's column buffer — sized to stay L1-resident — then reduces each
//! contiguous column. Blocks are independent, so under
//! [`ExecutionPolicy::Parallel`](crate::ExecutionPolicy) (or `Auto` once the
//! `n·d` values reach [`PARALLEL_WORK`](crate::PARALLEL_WORK)) they fan out
//! over the `rayon` pool; the sequential path reuses the single context
//! buffer and performs zero heap allocations after warm-up.
//! Both paths reduce identical column contents in identical order, so their
//! outputs are bit-identical (pinned by property tests below).

use krum_tensor::Vector;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::aggregator::{validate_proposals, Aggregation, Aggregator};
use crate::context::AggregationContext;
use crate::error::AggregationError;

/// Number of coordinates per transposed block, sized so one `n × block`
/// block of `f64`s stays within ~32 KiB (L1-resident).
fn block_columns(n: usize) -> usize {
    const BLOCK_BYTES: usize = 32 * 1024;
    (BLOCK_BYTES / (8 * n.max(1))).clamp(1, 512)
}

/// Gathers coordinates `[c0, c0 + width)` of every proposal into `columns`:
/// column `k` (coordinate `c0 + k`) occupies `columns[k*n .. (k+1)*n]` in
/// worker order. Reads each proposal contiguously; writes land in a buffer
/// small enough to stay cache-resident.
fn transpose_block(proposals: &[Vector], c0: usize, width: usize, columns: &mut [f64]) {
    let n = proposals.len();
    for (w, v) in proposals.iter().enumerate() {
        for (k, &x) in v.as_slice()[c0..c0 + width].iter().enumerate() {
            columns[k * n + w] = x;
        }
    }
}

/// Applies `reduce` to the column of every coordinate, writing the result
/// into `out[c]`. The sequential path reuses `columns` (zero allocations
/// once warmed up); the parallel path gives each block task its own
/// pool-allocated buffer so blocks proceed independently.
fn reduce_columns(
    proposals: &[Vector],
    out: &mut [f64],
    columns: &mut Vec<f64>,
    parallel: bool,
    reduce: impl Fn(&mut [f64]) -> f64 + Sync,
) {
    let n = proposals.len();
    let block = block_columns(n);
    if parallel && out.len() > block {
        let tasks: Vec<(usize, &mut [f64])> = out.chunks_mut(block).enumerate().collect();
        tasks.into_par_iter().for_each(|(b, chunk)| {
            let mut local = vec![0.0; n * chunk.len()];
            transpose_block(proposals, b * block, chunk.len(), &mut local);
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = reduce(&mut local[k * n..(k + 1) * n]);
            }
        });
    } else {
        columns.clear();
        columns.resize(n * block, 0.0);
        for (b, chunk) in out.chunks_mut(block).enumerate() {
            transpose_block(proposals, b * block, chunk.len(), columns);
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = reduce(&mut columns[k * n..(k + 1) * n]);
            }
        }
    }
}

/// Coordinate-wise median of the proposals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoordinateWiseMedian;

impl CoordinateWiseMedian {
    /// Creates the coordinate-wise median rule.
    pub fn new() -> Self {
        Self
    }
}

impl Aggregator for CoordinateWiseMedian {
    fn aggregate_detailed(&self, proposals: &[Vector]) -> Result<Aggregation, AggregationError> {
        let mut ctx = AggregationContext::new();
        self.aggregate_in(&mut ctx, proposals)?;
        Ok(ctx.into_output())
    }

    fn aggregate_in(
        &self,
        ctx: &mut AggregationContext,
        proposals: &[Vector],
    ) -> Result<(), AggregationError> {
        let dim = validate_proposals(proposals)?;
        let parallel = ctx.policy().use_parallel(proposals.len() * dim);
        ctx.begin_mixed(dim);
        reduce_columns(
            proposals,
            ctx.output.value.as_mut_slice(),
            &mut ctx.columns,
            parallel,
            median_in_place,
        );
        Ok(())
    }

    fn name(&self) -> String {
        "coordinate-median".into()
    }
}

/// Coordinate-wise trimmed mean: per coordinate, drop the `trim` largest and
/// `trim` smallest values and average the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrimmedMean {
    trim: usize,
}

impl TrimmedMean {
    /// Creates a trimmed mean that removes `trim` values from each tail of
    /// every coordinate.
    pub fn new(trim: usize) -> Self {
        Self { trim }
    }

    /// Number of values trimmed from each tail.
    pub fn trim(&self) -> usize {
        self.trim
    }
}

impl Aggregator for TrimmedMean {
    fn aggregate_detailed(&self, proposals: &[Vector]) -> Result<Aggregation, AggregationError> {
        let mut ctx = AggregationContext::new();
        self.aggregate_in(&mut ctx, proposals)?;
        Ok(ctx.into_output())
    }

    fn aggregate_in(
        &self,
        ctx: &mut AggregationContext,
        proposals: &[Vector],
    ) -> Result<(), AggregationError> {
        let dim = validate_proposals(proposals)?;
        let n = proposals.len();
        if 2 * self.trim >= n {
            return Err(AggregationError::config(
                "trimmed-mean",
                format!("trim = {} removes all {n} proposals", self.trim),
            ));
        }
        let trim = self.trim;
        let parallel = ctx.policy().use_parallel(n * dim);
        ctx.begin_mixed(dim);
        reduce_columns(
            proposals,
            ctx.output.value.as_mut_slice(),
            &mut ctx.columns,
            parallel,
            |column: &mut [f64]| {
                column.sort_unstable_by(f64::total_cmp);
                let kept = &column[trim..n - trim];
                kept.iter().sum::<f64>() / kept.len() as f64
            },
        );
        Ok(())
    }

    fn name(&self) -> String {
        format!("trimmed-mean(trim={})", self.trim)
    }
}

/// Median of a mutable slice (lower median for even lengths is averaged with
/// the upper one). Uses an in-place unstable sort: equal `f64`s under
/// `total_cmp` are bit-identical, so the result matches a stable sort —
/// without the stable sort's temporary allocation.
fn median_in_place(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionPolicy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn proposals() -> Vec<Vector> {
        vec![
            Vector::from(vec![1.0, 10.0]),
            Vector::from(vec![2.0, 20.0]),
            Vector::from(vec![3.0, 30.0]),
            Vector::from(vec![4.0, 40.0]),
            Vector::from(vec![1000.0, -999.0]), // outlier
        ]
    }

    #[test]
    fn median_resists_a_single_outlier() {
        let med = CoordinateWiseMedian::new();
        let out = med.aggregate(&proposals()).unwrap();
        assert_eq!(out.as_slice(), &[3.0, 20.0]);
        assert_eq!(med.name(), "coordinate-median");
    }

    #[test]
    fn median_even_count_averages_middle_pair() {
        let ps = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![3.0]),
            Vector::from(vec![10.0]),
        ];
        let out = CoordinateWiseMedian.aggregate(&ps).unwrap();
        assert_eq!(out.as_slice(), &[2.5]);
    }

    #[test]
    fn median_rejects_malformed_input() {
        assert!(CoordinateWiseMedian.aggregate(&[]).is_err());
        assert!(CoordinateWiseMedian
            .aggregate(&[Vector::zeros(1), Vector::zeros(2)])
            .is_err());
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let tm = TrimmedMean::new(1);
        assert_eq!(tm.trim(), 1);
        let out = tm.aggregate(&proposals()).unwrap();
        // First coordinate keeps {2, 3, 4} -> 3; second keeps {10, 20, 30} -> 20.
        assert_eq!(out.as_slice(), &[3.0, 20.0]);
        assert!(tm.name().contains("trim=1"));
    }

    #[test]
    fn trimmed_mean_with_zero_trim_is_average() {
        let ps = proposals();
        let tm = TrimmedMean::new(0).aggregate(&ps).unwrap();
        let avg = crate::Average.aggregate(&ps).unwrap();
        assert!(tm.distance(&avg) < 1e-12);
    }

    #[test]
    fn trimmed_mean_rejects_excessive_trim() {
        let tm = TrimmedMean::new(3);
        assert!(matches!(
            tm.aggregate(&proposals()),
            Err(AggregationError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn median_helper_handles_odd_and_even() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_in_place(&mut [7.0]), 7.0);
    }

    #[test]
    fn block_sizing_is_sane() {
        assert_eq!(block_columns(1), 512);
        assert!(block_columns(40) >= 64);
        // Huge clusters still make progress one coordinate at a time.
        assert_eq!(block_columns(1 << 20), 1);
    }

    /// The blocked transpose gathers exactly the per-coordinate columns the
    /// old strided loop used, in worker order.
    #[test]
    fn transpose_block_matches_strided_gather() {
        let ps: Vec<Vector> = (0..5)
            .map(|w| Vector::from((0..7).map(|c| (w * 10 + c) as f64).collect::<Vec<_>>()))
            .collect();
        let mut columns = vec![0.0; 5 * 3];
        transpose_block(&ps, 2, 3, &mut columns);
        for k in 0..3 {
            for w in 0..5 {
                assert_eq!(columns[k * 5 + w], ps[w][2 + k]);
            }
        }
    }

    /// Reference implementation: the pre-refactor per-coordinate strided
    /// gather, kept verbatim as the oracle the blocked paths are pinned to.
    fn reference_columnwise(proposals: &[Vector], reduce: impl Fn(&mut [f64]) -> f64) -> Vector {
        let dim = proposals[0].dim();
        let mut out = Vector::zeros(dim);
        let mut column = vec![0.0; proposals.len()];
        for c in 0..dim {
            for (k, v) in proposals.iter().enumerate() {
                column[k] = v[c];
            }
            out[c] = reduce(&mut column);
        }
        out
    }

    /// Satellite property test: the cache-blocked sequential path and the
    /// rayon-parallel path produce **bit-identical** medians / trimmed means,
    /// and both match the naive strided-gather reference, over seeded random
    /// proposal sets whose dimensions straddle the block size.
    #[test]
    fn blocked_paths_match_reference_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for trial in 0..12 {
            let n = 3 + trial % 7; // 3..=9
            let block = block_columns(n);
            // Dimensions below, at and above one block, plus a ragged tail.
            let dim = match trial % 4 {
                0 => 3,
                1 => block,
                2 => 2 * block + 1,
                _ => block / 2 + 7,
            };
            let spread = [0.01, 1.0, 100.0][trial % 3];
            let ps: Vec<Vector> = (0..n)
                .map(|_| Vector::gaussian(dim, 0.0, spread, &mut rng))
                .collect();
            let trim = (n - 1) / 2;

            type Reduce<'a> = Box<dyn Fn(&mut [f64]) -> f64 + 'a>;
            for rule_idx in 0..2 {
                let reduce_ref: Reduce<'_> = if rule_idx == 0 {
                    Box::new(median_in_place)
                } else {
                    Box::new(|col: &mut [f64]| {
                        col.sort_unstable_by(f64::total_cmp);
                        let kept = &col[trim..n - trim];
                        kept.iter().sum::<f64>() / kept.len() as f64
                    })
                };
                let expected = reference_columnwise(&ps, reduce_ref);
                let mut seq = AggregationContext::with_policy(ExecutionPolicy::Sequential);
                let mut par = AggregationContext::with_policy(ExecutionPolicy::Parallel);
                if rule_idx == 0 {
                    CoordinateWiseMedian.aggregate_in(&mut seq, &ps).unwrap();
                    CoordinateWiseMedian.aggregate_in(&mut par, &ps).unwrap();
                } else {
                    TrimmedMean::new(trim).aggregate_in(&mut seq, &ps).unwrap();
                    TrimmedMean::new(trim).aggregate_in(&mut par, &ps).unwrap();
                }
                assert_eq!(
                    seq.output().value,
                    expected,
                    "trial {trial} rule {rule_idx}: sequential != reference"
                );
                assert_eq!(
                    par.output().value,
                    expected,
                    "trial {trial} rule {rule_idx}: parallel != reference"
                );
            }
        }
    }

    /// NaN coordinates stay where `total_cmp` puts them in both paths. The
    /// dimension spans several blocks so the Parallel-policy context really
    /// takes the fan-out branch (per-block local buffers), not the
    /// sequential fallback.
    #[test]
    fn nan_columns_are_deterministic_across_paths() {
        let n = 3;
        let dim = 2 * block_columns(n) + 1;
        let ps: Vec<Vector> = (0..n)
            .map(|w| {
                Vector::from(
                    (0..dim)
                        .map(|c| {
                            // One NaN per worker, in different blocks.
                            if c == w * block_columns(n) {
                                f64::NAN
                            } else {
                                (w * dim + c) as f64
                            }
                        })
                        .collect::<Vec<f64>>(),
                )
            })
            .collect();
        let mut seq = AggregationContext::with_policy(ExecutionPolicy::Sequential);
        let mut par = AggregationContext::with_policy(ExecutionPolicy::Parallel);
        CoordinateWiseMedian.aggregate_in(&mut seq, &ps).unwrap();
        CoordinateWiseMedian.aggregate_in(&mut par, &ps).unwrap();
        // Compare bit patterns so NaN == NaN positions count as equal.
        let bits = |v: &Vector| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&seq.output().value), bits(&par.output().value));
        // A NaN-free coordinate: the median of the three worker values.
        assert_eq!(seq.output().value[1], (dim + 1) as f64);
    }
}
