//! Top-k sparsification: keep the `k` largest-magnitude coordinates as
//! `(index, value)` pairs, zero the rest.
//!
//! Payload layout (little-endian):
//!
//! ```text
//! [u32 dim][u32 k_eff][(u32 index, f64 value) × k_eff]
//! ```
//!
//! with `k_eff = min(k, dim)` and indices strictly increasing — a single
//! canonical byte encoding per input, so encode is a pure function of the
//! vector and idempotence reduces to "the kept coordinates keep
//! themselves".
//!
//! Selection is deterministic across runs, platforms, and thread counts:
//! coordinates are ranked by `|v|` under [`f64::total_cmp`] with the lower
//! index winning ties. `total_cmp` orders NaN (whose `abs()` has a
//! positive sign bit) above `+∞`, so non-finite coordinates are
//! preferentially *kept* — a NaN-poisoned proposal still looks poisoned
//! after sparsification, preserving the repo's non-finite-attacker
//! guarantee.
//!
//! Parameters are **not** sparsified: dropping `dim − k` coordinates of a
//! dense parameter vector would destroy the model, so `encode_params`
//! ships raw `f64` bits and `transform_params` is the identity.

use crate::buf::{Reader, Writer};
use crate::{CodecError, GradientCodec};

/// Top-k sparsification (see the module docs for format and ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopK {
    k: usize,
}

impl TopK {
    /// Creates the codec; `k >= 1` (validated by
    /// [`CompressionSpec::validate`](crate::CompressionSpec::validate),
    /// which also checks `k <= dim` against the scenario).
    pub fn new(k: usize) -> Self {
        debug_assert!(k >= 1);
        Self { k }
    }

    /// The indices of the `min(k, dim)` largest-magnitude coordinates, in
    /// increasing index order (the canonical payload order).
    ///
    /// The ranking is a strict total order (descending `|v|` under
    /// `total_cmp`, then ascending index), so the `k` first indices are one
    /// set however they are found: a linear-time partition finds them, and
    /// only the kept `k` are sorted.
    fn select(&self, x: &[f64]) -> Vec<u32> {
        let mut indices: Vec<u32> = (0..x.len() as u32).collect();
        let k = self.k.min(x.len());
        if k < indices.len() {
            indices.select_nth_unstable_by(k, |&a, &b| {
                x[b as usize]
                    .abs()
                    .total_cmp(&x[a as usize].abs())
                    .then(a.cmp(&b))
            });
            indices.truncate(k);
        }
        indices.sort_unstable();
        indices
    }
}

impl GradientCodec for TopK {
    fn name(&self) -> String {
        format!("topk:k={}", self.k)
    }

    fn encode(&self, x: &[f64], _reference: &[f64]) -> Vec<u8> {
        let kept = self.select(x);
        let mut out = Writer::with_capacity(8 + kept.len() * 12);
        out.put_u32(x.len() as u32);
        out.put_u32(kept.len() as u32);
        for idx in kept {
            out.put_u32(idx);
            out.put_f64(x[idx as usize]);
        }
        out.finish()
    }

    fn decode(&self, bytes: &[u8], _reference: &[f64], dim: usize) -> Result<Vec<f64>, CodecError> {
        let mut reader = Reader::new(bytes);
        let got = reader.u32()? as usize;
        if got != dim {
            return Err(CodecError::DimensionMismatch { got, expected: dim });
        }
        let k_eff = reader.u32()? as usize;
        if k_eff != self.k.min(dim) {
            return Err(CodecError::malformed(format!(
                "payload keeps {k_eff} coordinates, codec expects {}",
                self.k.min(dim)
            )));
        }
        let mut out = vec![0.0; dim];
        let mut previous: Option<u32> = None;
        for _ in 0..k_eff {
            let idx = reader.u32()?;
            if idx as usize >= dim {
                return Err(CodecError::malformed(format!(
                    "kept index {idx} out of bounds for dimension {dim}"
                )));
            }
            if let Some(p) = previous.filter(|&p| idx <= p) {
                return Err(CodecError::malformed(format!(
                    "kept indices must be strictly increasing, saw {idx} after {p}"
                )));
            }
            previous = Some(idx);
            out[idx as usize] = reader.f64()?;
        }
        reader.finish()?;
        Ok(out)
    }

    fn encode_params(&self, x: &[f64]) -> Vec<u8> {
        // Params ride raw: sparsifying a dense parameter vector would
        // zero most of the model.
        let mut out = Writer::with_capacity(8 * x.len());
        for &v in x {
            out.put_f64(v);
        }
        out.finish()
    }

    fn decode_params(&self, bytes: &[u8], dim: usize) -> Result<Vec<f64>, CodecError> {
        if bytes.len() != 8 * dim {
            return Err(CodecError::malformed(format!(
                "raw params payload is {} bytes, dimension {dim} requires {}",
                bytes.len(),
                8 * dim
            )));
        }
        let mut reader = Reader::new(bytes);
        let mut out = Vec::with_capacity(dim);
        for _ in 0..dim {
            out.push(reader.f64()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle `select` is tested against: rank every index by the same
    /// order with a full sort, keep the first `k`, sort them.
    fn select_by_full_sort(k: usize, x: &[f64]) -> Vec<u32> {
        let mut indices: Vec<u32> = (0..x.len() as u32).collect();
        indices.sort_by(|&a, &b| {
            x[b as usize]
                .abs()
                .total_cmp(&x[a as usize].abs())
                .then(a.cmp(&b))
        });
        indices.truncate(k.min(x.len()));
        indices.sort_unstable();
        indices
    }

    /// The partition keeps the full sort's set, and so its payload: vectors
    /// drawn from a small palette (so magnitudes tie often) of ±0, NaNs of
    /// both signs, ±∞ and ± pairs of finite values, for every `k` from 1 to
    /// past the dimension.
    #[test]
    fn selection_matches_the_full_sort() {
        let palette = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
            2.5,
            -2.5,
            1e-310,
            -1e-310,
            7.0,
        ];
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        for dim in [0, 1, 2, 3, 7, 13, 64, 257] {
            for trial in 0..4 {
                let x: Vec<f64> = (0..dim)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        // Trial 0 draws from the first two entries only: all ±0.
                        let choices = if trial == 0 { 2 } else { palette.len() };
                        palette[(state >> 33) as usize % choices]
                    })
                    .collect();
                for k in (1..=dim + 2).chain([1000]) {
                    let codec = TopK::new(k);
                    let expected = select_by_full_sort(k, &x);
                    assert_eq!(
                        codec.select(&x),
                        expected,
                        "dim {dim}, trial {trial}, k {k}"
                    );
                    let payload = codec.encode(&x, &[]);
                    assert_eq!(payload.len(), 8 + 12 * expected.len());
                    for (slot, idx) in payload[8..].chunks(12).zip(&expected) {
                        assert_eq!(slot[..4], idx.to_le_bytes(), "dim {dim}, k {k}");
                        assert_eq!(slot[4..], x[*idx as usize].to_bits().to_le_bytes());
                    }
                }
            }
        }
    }

    #[test]
    fn keeps_the_k_largest_magnitudes() {
        let codec = TopK::new(3);
        let x = vec![0.1, -5.0, 0.0, 2.0, -0.3, 4.0];
        let decoded = codec.decode(&codec.encode(&x, &[]), &[], 6).unwrap();
        assert_eq!(decoded, vec![0.0, -5.0, 0.0, 2.0, 0.0, 4.0]);
    }

    /// Satellite: tie-breaking is deterministic — equal magnitudes keep
    /// the lowest indices, identically across repeated runs and across
    /// spawned threads.
    #[test]
    fn ties_break_by_lowest_index_across_runs_and_threads() {
        let codec = TopK::new(4);
        let x = vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let baseline = codec.encode(&x, &[]);
        let expected = codec.decode(&baseline, &[], 8).unwrap();
        assert_eq!(expected, vec![1.0, -1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0]);
        for _ in 0..10 {
            assert_eq!(codec.encode(&x, &[]), baseline);
        }
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let x = x.clone();
                std::thread::spawn(move || TopK::new(4).encode(&x, &[]))
            })
            .collect();
        for handle in handles {
            assert_eq!(
                handle.join().unwrap(),
                baseline,
                "thread-dependent selection"
            );
        }
    }

    /// NaN and ±∞ rank above every finite magnitude under `total_cmp`,
    /// so poisoned coordinates survive sparsification.
    #[test]
    fn nonfinite_coordinates_are_preferentially_kept() {
        let codec = TopK::new(2);
        let x = vec![1.0e300, f64::NAN, -1.0e300, f64::INFINITY, 5.0];
        let decoded = codec.decode(&codec.encode(&x, &[]), &[], 5).unwrap();
        assert!(decoded[1].is_nan());
        assert_eq!(decoded[3], f64::INFINITY);
        assert_eq!((decoded[0], decoded[2], decoded[4]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn k_larger_than_dim_keeps_everything() {
        let codec = TopK::new(100);
        let x = vec![3.0, -0.0, 0.5];
        let bytes = codec.encode(&x, &[]);
        let decoded = codec.decode(&bytes, &[], 3).unwrap();
        assert_eq!(
            decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn malformed_payloads_are_structured_errors() {
        let codec = TopK::new(2);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let good = codec.encode(&x, &[]);
        // Out-of-bounds index.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&100u32.to_le_bytes());
        assert!(matches!(
            codec.decode(&bad, &[], 4),
            Err(CodecError::Malformed(_))
        ));
        // Non-increasing indices (duplicate).
        let mut dup = good.clone();
        let first = dup[8..12].to_vec();
        dup[20..24].copy_from_slice(&first);
        assert!(matches!(
            codec.decode(&dup, &[], 4),
            Err(CodecError::Malformed(_))
        ));
        // Wrong kept-count.
        let mut short = good.clone();
        short[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            codec.decode(&short, &[], 4),
            Err(CodecError::Malformed(_))
        ));
        // Truncation and trailing garbage.
        assert!(matches!(
            codec.decode(&good[..good.len() - 3], &[], 4),
            Err(CodecError::Truncated { .. })
        ));
        let mut long = good;
        long.push(7);
        assert!(matches!(
            codec.decode(&long, &[], 4),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn params_ride_raw_and_unchanged() {
        let codec = TopK::new(1);
        let x = vec![0.5, -0.25, 1.0e-300, f64::NAN];
        let bytes = codec.encode_params(&x);
        assert_eq!(bytes.len(), 32);
        let decoded = codec.decode_params(&bytes, 4).unwrap();
        assert_eq!(
            decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(matches!(
            codec.decode_params(&bytes, 5),
            Err(CodecError::Malformed(_))
        ));
    }
}
