//! Deterministic gradient codecs for the krum wire protocol.
//!
//! Three composable codecs shrink the vectors that dominate the serving
//! cost (broadcasts, proposals, the omniscient-adversary observation
//! relay):
//!
//! * [`Bfp`] — block floating point: one shared exponent per block of
//!   coordinates plus narrow bit-packed mantissas, deterministic
//!   round-to-nearest-even;
//! * [`TopK`] — sparsification: the `k` largest-magnitude coordinates as
//!   `(index, value)` pairs, with a deterministic total order so ties
//!   break the same way on every machine and thread count;
//! * [`DeltaVsBroadcast`] — proposals encoded as deltas against the
//!   round's broadcast parameters, composing with either of the above.
//!
//! The repo's standing invariant — bit-identical trajectories per seed
//! across engines and the wire — shapes the whole API. A codec is not a
//! transport detail here: quantization happens **before** aggregation, on
//! both the in-process and the remote path, via the *canonical transform*
//! `transform(x) = decode(encode(x))`. The trait defines the transforms
//! literally as an encode/decode round-trip, so the transform an engine
//! applies in memory and the bytes a server decodes off a socket cannot
//! disagree. Idempotence (`q(dq(q(x))) == q(x)`, pinned by tests) makes
//! the transform safe to apply at every hop: a v2 peer's already-quantized
//! payload passes through unchanged, a v1 peer's raw payload gets
//! quantized exactly once.
//!
//! Parameters follow a per-codec policy: BFP quantizes them (the broadcast
//! ships the compact encoding and the trajectory lives in quantized
//! space); top-k leaves them untouched (sparsifying a dense parameter
//! vector would destroy the model, so params ride raw under `topk`);
//! delta delegates to its inner codec.

#![forbid(unsafe_code)]

mod bfp;
mod buf;
mod delta;
mod spec;
mod topk;

pub use bfp::Bfp;
pub use delta::DeltaVsBroadcast;
pub use spec::{CompressionSpec, CODEC_GRAMMAR, CODEC_NAMES};
pub use topk::TopK;

use thiserror::Error;

/// A structured codec failure: payloads off the wire decode to this (never
/// a panic, never an out-of-bounds allocation), and spec strings that do
/// not parse report what was wrong.
#[derive(Debug, Error, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the declared content did.
    #[error("codec payload truncated: needed {needed} more bytes at offset {offset}")]
    Truncated {
        /// How many bytes the next read needed.
        needed: usize,
        /// Offset at which the payload ran dry.
        offset: usize,
    },
    /// The payload declares a different dimension than the context expects.
    #[error("codec payload declares dimension {got}, expected {expected}")]
    DimensionMismatch {
        /// Dimension named by the payload.
        got: usize,
        /// Dimension the decoder was told to expect.
        expected: usize,
    },
    /// The payload is structurally invalid (corrupt exponent, out-of-range
    /// index, trailing bytes, …).
    #[error("malformed codec payload: {0}")]
    Malformed(String),
    /// A codec spec string failed to parse or validate.
    #[error("invalid codec spec: {0}")]
    InvalidSpec(String),
}

impl CodecError {
    pub(crate) fn malformed(message: impl Into<String>) -> Self {
        Self::Malformed(message.into())
    }

    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        Self::InvalidSpec(message.into())
    }
}

/// One gradient codec: encode/decode for proposals (with an optional
/// reference vector — the round's broadcast params — for delta coding) and
/// for the parameter broadcast itself.
///
/// The `transform*` methods are the determinism keystone and are
/// deliberately **not** overridable per codec: they are defined as the
/// encode → decode round-trip, so an in-memory quantization and a
/// wire-level one are the same computation by construction.
pub trait GradientCodec: Send + Sync + std::fmt::Debug {
    /// The codec's canonical spec string (`bfp:block=64,bits=12`).
    fn name(&self) -> String;

    /// Encodes one proposal. `reference` is the round's broadcast params
    /// for delta coding; an empty slice means "no reference" and every
    /// codec must accept it (delta degrades to its inner codec).
    fn encode(&self, x: &[f64], reference: &[f64]) -> Vec<u8>;

    /// Decodes one proposal payload of dimension `dim`, against the same
    /// `reference` the encoder used.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated, malformed or
    /// wrong-dimension payloads — never panics, never allocates beyond
    /// what the validated header admits.
    fn decode(&self, bytes: &[u8], reference: &[f64], dim: usize) -> Result<Vec<f64>, CodecError>;

    /// Encodes the parameter vector (no reference exists for params).
    fn encode_params(&self, x: &[f64]) -> Vec<u8>;

    /// Decodes a parameter payload of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated, malformed or
    /// wrong-dimension payloads.
    fn decode_params(&self, bytes: &[u8], dim: usize) -> Result<Vec<f64>, CodecError>;

    /// The canonical quantize → dequantize transform for proposals:
    /// exactly `decode(encode(x, reference), reference)`, in place.
    /// Idempotent: applying it to an already-transformed vector is a
    /// no-op, so it is safe at every hop of a mixed v1/v2 fleet.
    fn transform(&self, x: &mut [f64], reference: &[f64]) {
        let bytes = self.encode(x, reference);
        // Infallible by the trait contract — a codec decodes its own
        // encoding; a violation is a codec bug worth crashing loudly on.
        #[allow(clippy::expect_used)]
        let decoded = self
            .decode(&bytes, reference, x.len())
            .expect("a codec must decode its own encoding");
        x.copy_from_slice(&decoded);
    }

    /// The canonical transform for the parameter vector, in place.
    fn transform_params(&self, x: &mut [f64]) {
        let bytes = self.encode_params(x);
        // Infallible by the trait contract, as in `transform` above.
        #[allow(clippy::expect_used)]
        let decoded = self
            .decode_params(&bytes, x.len())
            .expect("a codec must decode its own params encoding");
        x.copy_from_slice(&decoded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A vector exercising every awkward float class the codecs must
    /// carry: zeros, subnormals, mixed magnitudes, negative zero, and the
    /// non-finite values the NaN-poisoning guarantee depends on.
    pub(crate) fn awkward(dim: usize, nonfinite: bool) -> Vec<f64> {
        (0..dim)
            .map(|i| match i % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.5e-310, // subnormal
                3 => -3.25,
                4 => 1.0e12,
                5 => -1.0e-12,
                6 if nonfinite => f64::NAN,
                7 if nonfinite => f64::INFINITY,
                8 if nonfinite => f64::NEG_INFINITY,
                other => (other as f64 - 5.0) * 0.37,
            })
            .collect()
    }

    fn codecs() -> Vec<Box<dyn GradientCodec>> {
        vec![
            CompressionSpec::Bfp {
                block: 64,
                bits: 12,
            }
            .build(),
            CompressionSpec::Bfp { block: 16, bits: 4 }.build(),
            CompressionSpec::TopK { k: 10 }.build(),
            CompressionSpec::DeltaBfp {
                block: 64,
                bits: 12,
            }
            .build(),
            CompressionSpec::DeltaTopK { k: 10 }.build(),
        ]
    }

    /// Satellite: quantize → dequantize idempotence for every codec —
    /// `q(dq(q(x))) == q(x)` bit-for-bit, with and without a reference,
    /// for params and proposals alike.
    #[test]
    fn transforms_are_idempotent_for_every_codec() {
        let reference: Vec<f64> = (0..100).map(|i| (i as f64) * 0.01 - 0.5).collect();
        for codec in codecs() {
            for nonfinite in [false, true] {
                let x = awkward(100, nonfinite);
                let mut once = x.clone();
                codec.transform(&mut once, &reference);
                let mut twice = once.clone();
                codec.transform(&mut twice, &reference);
                assert_eq!(
                    once.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    twice.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{}: transform must be idempotent (nonfinite={nonfinite})",
                    codec.name()
                );

                let mut p_once = x.clone();
                codec.transform_params(&mut p_once);
                let mut p_twice = p_once.clone();
                codec.transform_params(&mut p_twice);
                assert_eq!(
                    p_once.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    p_twice.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{}: params transform must be idempotent",
                    codec.name()
                );
            }
        }
    }

    /// Encode → decode equals the in-memory transform, bit for bit —
    /// the wire and the engine cannot disagree.
    #[test]
    fn decode_of_encode_matches_transform() {
        let reference: Vec<f64> = (0..77).map(|i| (i as f64).sin()).collect();
        for codec in codecs() {
            let x = awkward(77, true);
            let bytes = codec.encode(&x, &reference);
            let decoded = codec.decode(&bytes, &reference, 77).unwrap();
            let mut transformed = x.clone();
            codec.transform(&mut transformed, &reference);
            assert_eq!(
                decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                transformed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}: decode(encode(x)) must equal transform(x)",
                codec.name()
            );
        }
    }

    /// Decoding garbage never panics: truncations of a valid payload and
    /// random byte soup all come back as structured errors (or, for
    /// prefixes that happen to parse, as values — never a crash).
    #[test]
    fn decoding_garbage_is_structured() {
        let reference: Vec<f64> = vec![0.25; 33];
        for codec in codecs() {
            let x = awkward(33, true);
            let bytes = codec.encode(&x, &reference);
            for cut in 0..bytes.len() {
                let _ = codec.decode(&bytes[..cut], &reference, 33);
            }
            let soup: Vec<u8> = (0..257u32)
                .map(|i| (i.wrapping_mul(97) % 251) as u8)
                .collect();
            let _ = codec.decode(&soup, &reference, 33);
            let _ = codec.decode_params(&soup, 33);
            // The declared dimension is cross-checked.
            assert!(matches!(
                codec.decode(&bytes, &reference, 34),
                Err(CodecError::DimensionMismatch {
                    got: 33,
                    expected: 34
                })
            ));
        }
    }
}
