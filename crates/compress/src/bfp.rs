//! Block floating point: one shared exponent per block, narrow bit-packed
//! mantissas, deterministic round-to-nearest-even.
//!
//! Payload layout (little-endian):
//!
//! ```text
//! [u32 dim]
//! per block of up to `block` coordinates:
//!   [i16 exponent]
//!   exponent == RAW_ESCAPE → [len × f64 raw bits]   (non-finite block)
//!   otherwise              → [ceil(len·bits/8) bytes packed mantissas]
//! ```
//!
//! Each finite block stores `q_i = clamp(rne(v_i / 2^e), ±(2^(bits−1)−1))`
//! as the biased `bits`-wide value `q_i + 2^(bits−1)`, packed
//! least-significant bit first and zero-padded to a whole byte. The shared
//! exponent `e = max(floor(log₂ max|v|) − (bits − 2), −1074)` keeps
//! `|v|/2^e` below `2^(bits−1)`, and `0` for an all-zero block. Scales are
//! exact powers of two, so quantization is bit-deterministic across
//! platforms and worst-case error is bounded by
//! `2^e < max|v| · 2^−(bits−2)` (pinned by a test against this bound).
//!
//! A block containing any non-finite value escapes to raw `f64` bits
//! (sentinel exponent), so NaN poisoning survives compression and the
//! repo's non-finite-attacker guarantee holds across the wire.
//!
//! # The arithmetic, and why it is exact
//!
//! The kernels work a word at a time, and every step computes exactly the
//! value the definition above names:
//!
//! * **Block max.** For finite `f64`s, `|a| < |b|` exactly when
//!   `a.to_bits() & !SIGN < b.to_bits() & !SIGN` as integers, so one
//!   integer max over the block gives the bits of `max|v|`. A NaN or ±∞
//!   has `|v|` bits at or above `+∞`'s, so the same max detects the
//!   escape. `floor(log₂ max|v|)` is read off the exponent field, or off
//!   the top mantissa bit of a subnormal.
//! * **Scale.** `v / 2^e` is computed as `v · 2^−e`. The two are the
//!   correctly rounded values of the same real number, so they are the
//!   same `f64` whenever `2^−e` is one, which holds for every `e ≥ −1023`.
//!   Below that (block maxima under `2^(bits−1025)`) `2^−e` would
//!   overflow, and the kernel divides.
//! * **Rounding.** `x = v / 2^e` has `|x| < 2^(bits−1) ≤ 2^14`. Adding
//!   `1.5·2^52` lands in `[2^52, 2^53)`, where consecutive `f64`s are 1
//!   apart, so the addition rounds `x` to an integer, to nearest with ties
//!   to even: the constant is an even integer, so the even neighbour of
//!   the sum is the constant plus the even neighbour of `x`. In that
//!   binade the bit pattern grows by one per unit, and the constant's low
//!   32 bits are zero, so the sum's low 32 bits read as an `i32` are
//!   `rne(x)`. Clamping and biasing are integer operations.
//! * **Packing.** Eight `bits`-wide values fill exactly `bits` bytes, so a
//!   group of eight is assembled in a `u128` at shifts fixed at compile
//!   time and written as its first `bits` bytes. A block's last partial
//!   group writes only the bytes its values reach.
//! * **Decode.** A group is one 16-byte little-endian load (a zero-padded
//!   copy only within 16 bytes of the payload's end), the same shifts
//!   unpack it, and `(q − bias) · 2^e` is one exact integer-to-float
//!   conversion and one multiply by the block's scale.
//!
//! Each kernel is generic over the width, instantiated for 2..=15 by the
//! one `match` in `Kernels::of_width`.

use crate::buf::{packed_len, Reader, Writer};
use crate::{CodecError, GradientCodec};

/// Sentinel exponent marking a raw-escape block (non-finite values ride
/// as uncompressed `f64` bits).
const RAW_ESCAPE: i16 = i16::MIN;

/// Exponents a well-formed payload may carry: every finite `f64` has
/// `floor(log₂|v|)` in `[-1074, 1023]`, and the encoder never exceeds it.
const EXP_MIN: i32 = -1074;
const EXP_MAX: i32 = 1023;

/// Clears the sign bit: what is left orders finite magnitudes as integers.
const ABS_MASK: u64 = !(1 << 63);

/// The bits of `+∞`; every `|v|` at or above them is ±∞ or NaN.
const INFINITY_BITS: u64 = 0x7ff0_0000_0000_0000;

/// `1.5·2^52`: adding it rounds any `|x| < 2^51` to an integer, ties to
/// even, and leaves that integer in the sum's low mantissa bits.
const ROUNDING_SHIFT: f64 = 6_755_399_441_055_744.0;

/// `2^e` computed exactly from the bit pattern, for `e ∈ [-1074, 1023]`
/// (subnormal scales included).
fn exp2i(e: i32) -> f64 {
    debug_assert!((EXP_MIN..=EXP_MAX).contains(&e));
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (e + 1074))
    }
}

/// `floor(log₂ x)` for finite `x > 0`, exact, from the bit pattern.
fn floor_log2(x: f64) -> i32 {
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    if exp == 0 {
        // Subnormal: x = mantissa · 2^-1074 with mantissa in [1, 2^52).
        let mantissa = bits & ((1u64 << 52) - 1);
        63 - mantissa.leading_zeros() as i32 - 1074
    } else {
        exp - 1023
    }
}

/// Block floating point with `block`-coordinate blocks and `bits`-wide
/// mantissas (see the module docs for the exact format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bfp {
    block: usize,
    bits: u32,
}

impl Bfp {
    /// Creates the codec; parameters must satisfy
    /// [`CompressionSpec::validate`](crate::CompressionSpec::validate)
    /// (`block >= 1`, `2 <= bits <= 15`).
    ///
    /// # Panics
    ///
    /// Panics on parameters outside those ranges: the kernels exist for
    /// widths 2..=15 only.
    pub fn new(block: usize, bits: u32) -> Self {
        assert!(
            block >= 1 && (2..=15).contains(&bits),
            "bfp needs block >= 1 and bits in 2..=15, got block={block}, bits={bits}"
        );
        Self { block, bits }
    }

    /// Worst-case absolute quantization error of one finite block with
    /// max magnitude `m`: the shared scale `2^e < m · 2^−(bits−2)` bounds
    /// both the rounding error (`≤ 2^(e−1)`) and the clamp error
    /// (`< 2^e`).
    pub fn error_bound(&self, block_max: f64) -> f64 {
        block_max * exp2i(-(self.bits as i32 - 2))
    }
}

/// One mantissa width's encode and decode kernels.
struct Kernels {
    encode: fn(&[f64], usize, &mut Writer),
    decode: fn(&mut Reader<'_>, usize, usize) -> Result<Vec<f64>, CodecError>,
}

impl Kernels {
    fn of<const W: usize>() -> Self {
        Self {
            encode: encode_blocks::<W>,
            decode: decode_blocks::<W>,
        }
    }

    /// The kernels for `bits`-wide mantissas.
    fn of_width(bits: u32) -> Self {
        match bits {
            2 => Self::of::<2>(),
            3 => Self::of::<3>(),
            4 => Self::of::<4>(),
            5 => Self::of::<5>(),
            6 => Self::of::<6>(),
            7 => Self::of::<7>(),
            8 => Self::of::<8>(),
            9 => Self::of::<9>(),
            10 => Self::of::<10>(),
            11 => Self::of::<11>(),
            12 => Self::of::<12>(),
            13 => Self::of::<13>(),
            14 => Self::of::<14>(),
            // `Bfp::new` admits 2..=15, so this arm is 15.
            _ => Self::of::<15>(),
        }
    }
}

/// Encodes `x` in blocks of `block` coordinates, `W`-bit mantissas.
fn encode_blocks<const W: usize>(x: &[f64], block: usize, out: &mut Writer) {
    for values in x.chunks(block) {
        let max_abs = values
            .iter()
            .fold(0, |max, v| (v.to_bits() & ABS_MASK).max(max));
        if max_abs >= INFINITY_BITS {
            out.put_u16(RAW_ESCAPE as u16);
            for &v in values {
                out.put_f64(v);
            }
            continue;
        }
        let e = if max_abs == 0 {
            0
        } else {
            (floor_log2(f64::from_bits(max_abs)) - (W as i32 - 2)).max(EXP_MIN)
        };
        out.put_u16(e as i16 as u16);
        if e >= -1023 {
            let reciprocal = exp2i(-e);
            pack::<W>(values, out, |v| v * reciprocal);
        } else {
            let scale = exp2i(e);
            pack::<W>(values, out, |v| v / scale);
        }
    }
}

/// Quantizes each of `values` as `scaled(v)` (that is, `v / 2^e`) and
/// appends the biased mantissas, eight to every `W` bytes.
#[inline(always)]
fn pack<const W: usize>(values: &[f64], out: &mut Writer, scaled: impl Fn(f64) -> f64) {
    let (groups, tail) = values.as_chunks::<8>();
    for group in groups {
        out.put_raw(&pack_group::<W>(group, &scaled).to_le_bytes()[..W]);
    }
    if !tail.is_empty() {
        let bytes = packed_len(tail.len(), W as u32);
        out.put_raw(&pack_group::<W>(tail, &scaled).to_le_bytes()[..bytes]);
    }
}

/// Up to eight biased mantissas, value `i` at bits `i·W..(i+1)·W`.
#[inline(always)]
fn pack_group<const W: usize>(values: &[f64], scaled: &impl Fn(f64) -> f64) -> u128 {
    let qmax = (1i32 << (W - 1)) - 1;
    values.iter().enumerate().fold(0, |word, (i, &v)| {
        // The low 32 bits of the shifted sum are rne(v / 2^e).
        let q = ((scaled(v) + ROUNDING_SHIFT).to_bits() as i32).clamp(-qmax, qmax);
        word | ((q + qmax + 1) as u128) << (i * W)
    })
}

/// Decodes `dim` coordinates in blocks of `block`, `W`-bit mantissas.
fn decode_blocks<const W: usize>(
    reader: &mut Reader<'_>,
    dim: usize,
    block: usize,
) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::with_capacity(dim);
    let mut remaining = dim;
    while remaining > 0 {
        let len = remaining.min(block);
        remaining -= len;
        let e = reader.u16()? as i16;
        if e == RAW_ESCAPE {
            for _ in 0..len {
                out.push(reader.f64()?);
            }
            continue;
        }
        let e = i32::from(e);
        if !(EXP_MIN..=EXP_MAX).contains(&e) {
            return Err(CodecError::malformed(format!(
                "block exponent {e} outside [{EXP_MIN}, {EXP_MAX}]"
            )));
        }
        let scale = exp2i(e);
        // The packed mantissas and the rest of the payload after them: a
        // group loads one 16-byte word wherever the payload has one.
        let window = reader.raw_ahead(packed_len(len, W as u32))?;
        for j in 0..len / 8 {
            out.extend_from_slice(&unpack_group::<W>(window, j * W, scale));
        }
        if !len.is_multiple_of(8) {
            let values = unpack_group::<W>(window, len / 8 * W, scale);
            out.extend(values.into_iter().take(len % 8));
        }
    }
    Ok(out)
}

/// The eight values packed in the `W` bytes at `window[at..]` (bytes past
/// the window's end read as zero), each `(q − bias) · 2^e`.
#[inline(always)]
fn unpack_group<const W: usize>(window: &[u8], at: usize, scale: f64) -> [f64; 8] {
    let rest = window.get(at..).unwrap_or_default();
    let word = match rest.first_chunk::<16>() {
        Some(window) => u128::from_le_bytes(*window),
        None => {
            let mut le = [0u8; 16];
            for (to, &from) in le.iter_mut().zip(rest) {
                *to = from;
            }
            u128::from_le_bytes(le)
        }
    };
    let mask = (1u128 << W) - 1;
    let bias = 1i32 << (W - 1);
    std::array::from_fn(|i| (((word >> (i * W)) & mask) as i32 - bias) as f64 * scale)
}

impl GradientCodec for Bfp {
    fn name(&self) -> String {
        format!("bfp:block={},bits={}", self.block, self.bits)
    }

    fn encode(&self, x: &[f64], _reference: &[f64]) -> Vec<u8> {
        let blocks = x.len().div_ceil(self.block).max(1);
        let mut out = Writer::with_capacity(4 + blocks * (2 + packed_len(self.block, self.bits)));
        out.put_u32(x.len() as u32);
        (Kernels::of_width(self.bits).encode)(x, self.block, &mut out);
        out.finish()
    }

    fn decode(&self, bytes: &[u8], _reference: &[f64], dim: usize) -> Result<Vec<f64>, CodecError> {
        let mut reader = Reader::new(bytes);
        let got = reader.u32()? as usize;
        if got != dim {
            return Err(CodecError::DimensionMismatch { got, expected: dim });
        }
        let out = (Kernels::of_width(self.bits).decode)(&mut reader, dim, self.block)?;
        reader.finish()?;
        Ok(out)
    }

    fn encode_params(&self, x: &[f64]) -> Vec<u8> {
        self.encode(x, &[])
    }

    fn decode_params(&self, bytes: &[u8], dim: usize) -> Result<Vec<f64>, CodecError> {
        self.decode(bytes, &[], dim)
    }
}

/// The bit-at-a-time codec, kept as the oracle the word-at-a-time kernels
/// are tested against: it divides by the block scale, rounds with `floor`,
/// and packs through a byte-flushing bit writer.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Round-to-nearest, ties to even, computed without relying on the
    /// platform's rounding-mode-sensitive intrinsics. `|x| < 2^16` here, so
    /// the integer detour is exact.
    pub(super) fn round_ties_even(x: f64) -> f64 {
        let floor = x.floor();
        let frac = x - floor;
        if frac > 0.5 || (frac == 0.5 && (floor as i64) % 2 != 0) {
            floor + 1.0
        } else {
            floor
        }
    }

    /// Little-endian bit-stream writer for packed mantissas: values are
    /// appended least-significant-bit first, flushed byte by byte.
    struct BitWriter {
        out: Vec<u8>,
        acc: u64,
        nbits: u32,
    }

    impl BitWriter {
        fn with_capacity(bytes: usize) -> Self {
            Self {
                out: Vec::with_capacity(bytes),
                acc: 0,
                nbits: 0,
            }
        }

        /// Appends the low `bits` bits of `value` (`bits <= 32`).
        fn push(&mut self, value: u32, bits: u32) {
            self.acc |= u64::from(value) << self.nbits;
            self.nbits += bits;
            while self.nbits >= 8 {
                self.out.push(self.acc as u8);
                self.acc >>= 8;
                self.nbits -= 8;
            }
        }

        /// Flushes the partial trailing byte (zero-padded) and returns the
        /// packed buffer.
        fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.out.push(self.acc as u8);
            }
            self.out
        }
    }

    /// Little-endian bit-stream reader over a fixed byte slice.
    struct BitReader<'b> {
        bytes: &'b [u8],
        byte: usize,
        acc: u64,
        nbits: u32,
    }

    impl<'b> BitReader<'b> {
        fn new(bytes: &'b [u8]) -> Self {
            Self {
                bytes,
                byte: 0,
                acc: 0,
                nbits: 0,
            }
        }

        /// Reads `bits` bits (`bits <= 32`); the caller sized the slice, so
        /// running dry is a malformed-payload error.
        fn pull(&mut self, bits: u32) -> Result<u32, CodecError> {
            while self.nbits < bits {
                let Some(&b) = self.bytes.get(self.byte) else {
                    return Err(CodecError::malformed(
                        "bit-packed mantissa block ran out of bytes",
                    ));
                };
                self.acc |= u64::from(b) << self.nbits;
                self.nbits += 8;
                self.byte += 1;
            }
            let value = (self.acc & ((1u64 << bits) - 1)) as u32;
            self.acc >>= bits;
            self.nbits -= bits;
            Ok(value)
        }
    }

    impl Bfp {
        pub(super) fn encode_oracle(&self, x: &[f64]) -> Vec<u8> {
            let blocks = x.len().div_ceil(self.block.max(1)).max(1);
            let mut out =
                Writer::with_capacity(4 + blocks * (2 + packed_len(self.block, self.bits)));
            out.put_u32(x.len() as u32);
            for block in x.chunks(self.block) {
                self.encode_block(&mut out, block);
            }
            out.finish()
        }

        pub(super) fn decode_oracle(
            &self,
            bytes: &[u8],
            dim: usize,
        ) -> Result<Vec<f64>, CodecError> {
            let mut reader = Reader::new(bytes);
            let got = reader.u32()? as usize;
            if got != dim {
                return Err(CodecError::DimensionMismatch { got, expected: dim });
            }
            let mut out = Vec::with_capacity(dim);
            let mut remaining = dim;
            while remaining > 0 {
                let len = remaining.min(self.block);
                self.decode_block(&mut reader, &mut out, len)?;
                remaining -= len;
            }
            reader.finish()?;
            Ok(out)
        }

        fn encode_block(&self, out: &mut Writer, block: &[f64]) {
            if block.iter().any(|v| !v.is_finite()) {
                out.put_u16(RAW_ESCAPE as u16);
                for &v in block {
                    out.put_f64(v);
                }
                return;
            }
            let m = block.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            let e = if m == 0.0 {
                0
            } else {
                (floor_log2(m) - (self.bits as i32 - 2)).max(EXP_MIN)
            };
            let scale = exp2i(e);
            let qmax = (1i64 << (self.bits - 1)) - 1;
            let bias = 1i64 << (self.bits - 1);
            out.put_u16(e as i16 as u16);
            let mut packer = BitWriter::with_capacity(packed_len(block.len(), self.bits));
            for &v in block {
                let q = (round_ties_even(v / scale) as i64).clamp(-qmax, qmax);
                packer.push((q + bias) as u32, self.bits);
            }
            out.put_raw(&packer.finish());
        }

        fn decode_block(
            &self,
            reader: &mut Reader<'_>,
            out: &mut Vec<f64>,
            len: usize,
        ) -> Result<(), CodecError> {
            let e = reader.u16()? as i16;
            if e == RAW_ESCAPE {
                for _ in 0..len {
                    out.push(reader.f64()?);
                }
                return Ok(());
            }
            let e = i32::from(e);
            if !(EXP_MIN..=EXP_MAX).contains(&e) {
                return Err(CodecError::malformed(format!(
                    "block exponent {e} outside [{EXP_MIN}, {EXP_MAX}]"
                )));
            }
            let scale = exp2i(e);
            let bias = 1i64 << (self.bits - 1);
            let packed = packed_len(len, self.bits);
            let mut bits = BitReader::new(&reader.raw_ahead(packed)?[..packed]);
            for _ in 0..len {
                let q = i64::from(bits.pull(self.bits)?) - bias;
                out.push(q as f64 * scale);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
use oracle::round_ties_even;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_helpers_are_exact() {
        // `2.0f64.powi` underflows to zero on deep subnormals, so pin the
        // defining properties directly instead of comparing against std.
        assert_eq!(exp2i(-1074), f64::MIN_POSITIVE * 2.0f64.powi(-52));
        assert_eq!(exp2i(-1074).to_bits(), 1); // smallest positive subnormal
        assert_eq!(exp2i(-1022), f64::MIN_POSITIVE);
        for e in [-1022, -52, -1, 0, 1, 52, 1023] {
            assert_eq!(exp2i(e), 2.0f64.powi(e), "exp2i({e})");
        }
        for e in [-1074, -1073, -1024, -1023, -1022, -1, 0, 1, 1023] {
            assert_eq!(floor_log2(exp2i(e)), e, "floor_log2(2^{e})");
            if e > -1074 {
                // 1.5·2^-1074 is not representable (it rounds up), so the
                // mid-block probe starts one exponent higher.
                assert_eq!(floor_log2(exp2i(e) * 1.5), e, "floor_log2(1.5·2^{e})");
            }
        }
        assert_eq!(floor_log2(1.0e300), 996);
        assert_eq!(floor_log2(1.5e-310), -1030);
    }

    #[test]
    fn rounding_is_ties_to_even() {
        assert_eq!(round_ties_even(2.5), 2.0);
        assert_eq!(round_ties_even(3.5), 4.0);
        assert_eq!(round_ties_even(-2.5), -2.0);
        assert_eq!(round_ties_even(-3.5), -4.0);
        assert_eq!(round_ties_even(2.4), 2.0);
        assert_eq!(round_ties_even(2.6), 3.0);
        assert_eq!(round_ties_even(-0.5), 0.0);
        assert_eq!(round_ties_even(0.0), 0.0);
    }

    /// Satellite: the worst-case quantization error of every finite block
    /// stays under the analytical bound `max|block| · 2^−(bits−2)`.
    #[test]
    fn quantization_error_stays_under_the_analytical_bound() {
        for bits in [2, 4, 8, 12, 15] {
            let codec = Bfp::new(32, bits);
            // A deterministic pseudo-random vector spanning magnitudes.
            let mut state = 0x9E37_79B9u64;
            let x: Vec<f64> = (0..512)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    unit * 10f64.powi((i % 13) - 6)
                })
                .collect();
            let bytes = codec.encode(&x, &[]);
            let decoded = codec.decode(&bytes, &[], x.len()).unwrap();
            for (block, decoded_block) in x.chunks(32).zip(decoded.chunks(32)) {
                let m = block.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
                let bound = codec.error_bound(m);
                for (v, d) in block.iter().zip(decoded_block) {
                    let err = (v - d).abs();
                    assert!(
                        err <= bound,
                        "bits={bits}: |{v} - {d}| = {err} exceeds bound {bound} (block max {m})"
                    );
                }
            }
        }
    }

    /// Non-finite blocks escape to raw bits: NaN/±∞ survive the codec
    /// exactly, so poisoning detection works across the wire.
    #[test]
    fn nonfinite_blocks_ride_raw() {
        let codec = Bfp::new(8, 12);
        let mut x = vec![1.0; 24];
        x[3] = f64::NAN;
        x[17] = f64::NEG_INFINITY;
        let decoded = codec.decode(&codec.encode(&x, &[]), &[], 24).unwrap();
        assert!(decoded[3].is_nan());
        assert_eq!(decoded[17], f64::NEG_INFINITY);
        // The finite block in the middle (8..16) is still quantized, and
        // the escaped blocks are exact.
        for i in [0, 1, 2, 4, 5, 6, 7, 16, 18, 23] {
            assert_eq!(decoded[i].to_bits(), x[i].to_bits(), "raw block index {i}");
        }
    }

    /// The headline size claim the wire-reduction target rests on:
    /// d=1000 at block=64, bits=12 packs >5× smaller than raw f64.
    #[test]
    fn packed_size_beats_raw_by_over_5x_at_reference_settings() {
        let codec = Bfp::new(64, 12);
        let x: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).cos()).collect();
        let bytes = codec.encode(&x, &[]);
        let raw = 4 + 8 * x.len();
        assert!(
            (bytes.len() as f64) * 5.0 < raw as f64,
            "expected >5× reduction, got {} vs {raw} raw bytes",
            bytes.len()
        );
    }

    #[test]
    fn corrupt_exponent_and_truncation_are_structured_errors() {
        let codec = Bfp::new(16, 12);
        let x = vec![0.5; 40];
        let bytes = codec.encode(&x, &[]);
        // Corrupt the first block exponent to an out-of-range value.
        let mut corrupt = bytes.clone();
        corrupt[4] = 0xFF;
        corrupt[5] = 0x7F; // +32767, far outside [-1074, 1023]
        assert!(matches!(
            codec.decode(&corrupt, &[], 40),
            Err(CodecError::Malformed(_))
        ));
        assert!(matches!(
            codec.decode(&bytes[..bytes.len() - 1], &[], 40),
            Err(CodecError::Truncated { .. })
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            codec.decode(&trailing, &[], 40),
            Err(CodecError::Malformed(_))
        ));
    }

    /// Zero blocks and subnormal magnitudes quantize without panicking or
    /// dividing by zero, and all-zero input round-trips to exact zeros.
    #[test]
    fn degenerate_magnitudes_are_handled() {
        let codec = Bfp::new(8, 4);
        let zeros = vec![0.0; 20];
        let decoded = codec.decode(&codec.encode(&zeros, &[]), &[], 20).unwrap();
        assert!(decoded.iter().all(|v| *v == 0.0));
        let tiny = vec![5.0e-324; 8]; // the smallest positive subnormal
        let decoded = codec.decode(&codec.encode(&tiny, &[]), &[], 8).unwrap();
        assert!(decoded.iter().all(|v| v.is_finite()));
    }

    /// The bits of every value, so NaN payloads and the sign of zero count.
    fn bits_of(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The kernels write the oracle's payload for `x`, and decode it to the
    /// oracle's bits.
    fn assert_matches_oracle(codec: &Bfp, x: &[f64], what: &str) {
        let payload = codec.encode(x, &[]);
        assert_eq!(
            payload,
            codec.encode_oracle(x),
            "{}: payload of {what} (len {})",
            codec.name(),
            x.len()
        );
        let decoded = codec.decode(&payload, &[], x.len()).unwrap();
        let expected = codec.decode_oracle(&payload, x.len()).unwrap();
        assert_eq!(
            bits_of(&decoded),
            bits_of(&expected),
            "{}: decode of {what} (len {})",
            codec.name(),
            x.len()
        );
    }

    /// Block sizes around the kernels' eight-value groups and the spec's
    /// extremes.
    const BLOCKS: [usize; 7] = [1, 3, 8, 63, 64, 65, 4096];

    /// A deterministic vector over ~30 binades with both signs, exact
    /// zeros of both signs and exact halves (ties at narrow widths).
    fn mixed(len: usize) -> Vec<f64> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                match i % 9 {
                    0 => 0.0,
                    4 => -0.0,
                    2 | 7 => ((state >> 40) % 64) as f64 * 0.5 - 16.0,
                    _ => unit * 2f64.powi((i % 31) as i32 - 15),
                }
            })
            .collect()
    }

    /// Every width × block size × length 0..=130, 1000 and 1001: the
    /// payload bytes and the decoded bits are the oracle's, for finite
    /// vectors and for vectors with a few non-finite values.
    #[test]
    fn kernels_match_the_oracle_at_every_width_block_and_length() {
        let finite = mixed(1001);
        let mut poisoned = finite.clone();
        for (i, v) in [(5, f64::NAN), (97, f64::INFINITY), (640, f64::NEG_INFINITY)] {
            poisoned[i] = v;
        }
        for bits in 2..=15 {
            for block in BLOCKS {
                let codec = Bfp::new(block, bits);
                for len in (0..=130).chain([1000, 1001]) {
                    assert_matches_oracle(&codec, &finite[..len], "a finite vector");
                }
                for len in [6, 98, 130, 1001] {
                    assert_matches_oracle(&codec, &poisoned[..len], "a poisoned vector");
                }
            }
        }
    }

    /// Exact ties `(k + ½)·2^e` for every `k` in the width's range round to
    /// the even neighbour, at exponents on both sides of the division path
    /// and of the normal range; the block max `(2^(bits−1) − ½)·2^e` rounds
    /// up to `2^(bits−1)` and is clamped, as is its negation.
    #[test]
    fn exact_ties_round_to_even_and_the_top_tie_hits_the_clamp() {
        for bits in 2..=15u32 {
            let half_range = 1i64 << (bits - 1);
            let qmax = half_range - 1;
            for e in [
                -1073,
                -1060,
                -1024,
                -1023,
                -1022,
                -600,
                -1,
                0,
                1,
                600,
                1024 - bits as i32,
            ] {
                let scale = exp2i(e);
                let max = (2 * half_range - 1) as f64 * exp2i(e - 1);
                // Block size 2: every tie shares its block with the max, so
                // every block's exponent is `e`.
                let mut x = Vec::new();
                let mut expected = Vec::new();
                for k in -half_range..half_range {
                    let tie = (2 * k + 1) as f64 * exp2i(e - 1);
                    let even = if k % 2 == 0 { k } else { k + 1 };
                    x.extend([max, tie]);
                    expected.extend([qmax, even.clamp(-qmax, qmax)]);
                }
                x.push(-max);
                expected.push(-qmax);
                let codec = Bfp::new(2, bits);
                assert_matches_oracle(&codec, &x, &format!("ties at 2^{e}"));
                let decoded = codec.decode(&codec.encode(&x, &[]), &[], x.len()).unwrap();
                for ((v, d), q) in x.iter().zip(&decoded).zip(&expected) {
                    assert_eq!(
                        d.to_bits(),
                        (*q as f64 * scale).to_bits(),
                        "bits={bits}, e={e}: {v:e} decoded to {d:e}, expected {q}·2^{e}"
                    );
                }
            }
        }
    }

    /// ±0, all-subnormal blocks (the division path and the `EXP_MIN`
    /// clamp), the last exponents on either side of the reciprocal's range,
    /// 1e−300 beside 1e300, ±`f64::MAX`, and NaN/±∞ escape blocks.
    #[test]
    fn special_values_match_the_oracle() {
        let nan_payload = f64::from_bits(0x7ff8_dead_beef_0001);
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0000);
        let fixed: Vec<(&str, Vec<f64>)> = vec![
            ("signed zeros", vec![0.0, -0.0, -0.0, 0.0, -0.0]),
            ("negative zeros", vec![-0.0; 9]),
            (
                "subnormals",
                vec![
                    5e-324,
                    -5e-324,
                    1e-310,
                    -2.5e-315,
                    4.9e-322,
                    f64::MIN_POSITIVE / 2.0,
                ],
            ),
            (
                "the smallest subnormals",
                vec![5e-324, -1e-323, 0.0, 1.5e-323],
            ),
            (
                "the largest subnormal",
                vec![f64::MIN_POSITIVE.next_down(), -3e-310, 1e-320],
            ),
            (
                "underflow against a large max",
                vec![1e-300, 1e300, -1e-300, 3.0, -1e300],
            ),
            (
                "the largest magnitudes",
                vec![f64::MAX, -f64::MAX, 1.0, f64::MIN_POSITIVE, -f64::MAX],
            ),
            (
                "just below powers of two",
                vec![2.0f64.next_down(), -1.0, 0.75, 1.0],
            ),
            ("nan", vec![1.0, f64::NAN, 2.0, -0.0]),
            (
                "infinities",
                vec![f64::INFINITY, f64::NEG_INFINITY, 0.0, 5e-324],
            ),
            ("nan payloads", vec![nan_payload, negative_nan, -7.5]),
        ];
        for bits in 2..=15u32 {
            // The block maxima whose exponent is the reciprocal's last
            // (e = −1023) and the division's first (e = −1024).
            let boundary = |e: i32| {
                let m = exp2i(e + bits as i32 - 2);
                vec![m, -m / 3.0, m * 1.5, m / 1024.0, -5e-324]
            };
            let cases = fixed.iter().cloned().chain([
                ("e = -1023", boundary(-1023)),
                ("e = -1024", boundary(-1024)),
            ]);
            for (what, x) in cases {
                for block in [1, 3, 8, 64] {
                    assert_matches_oracle(&Bfp::new(block, bits), &x, what);
                }
            }
        }
    }

    /// A proposal of arbitrary `f64` bit patterns, each exponent field
    /// either left as drawn or folded into the 16 starting at `window` (so
    /// a block's values sit near its max and round instead of underflowing).
    fn from_words(words: &[u64], window: Option<u64>) -> Vec<f64> {
        words
            .iter()
            .map(|&w| {
                let exp = (w >> 52) & 0x7ff;
                let exp = window.map_or(exp, |low| low + exp % 16);
                f64::from_bits((w & !(0x7ff << 52)) | (exp << 52))
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Arbitrary bit patterns, NaN payloads and infinities included,
        /// encode to the oracle's bytes and decode to its bits.
        #[test]
        fn arbitrary_bit_patterns_match_the_oracle(
            words in proptest::prop::collection::vec(0u64..=u64::MAX, 300),
            len in 0usize..=300,
            bits in 2u32..=15,
            block in 1usize..=80,
            window in 0u64..4062,
        ) {
            // Half the cases keep the drawn exponents; the other half fold
            // every exponent field into window..window + 16 (all finite).
            let x = from_words(&words[..len], Some(window).filter(|&w| w < 2031));
            assert_matches_oracle(&Bfp::new(block, bits), &x, "arbitrary bits");
        }

        /// Corrupted and truncated payloads decode as the oracle decodes
        /// them: the same values, or the same structured error.
        #[test]
        fn corrupted_payloads_decode_like_the_oracle(
            words in proptest::prop::collection::vec(0u64..=u64::MAX, 100),
            flips in proptest::prop::collection::vec((0usize..2000, 0u32..256), 3),
            cut in 0usize..4,
            bits in 2u32..=15,
            block in 1usize..=40,
        ) {
            let codec = Bfp::new(block, bits);
            let mut payload = codec.encode(&from_words(&words, Some(1000)), &[]);
            for (at, byte) in flips {
                let at = at % payload.len();
                payload[at] ^= byte as u8;
            }
            payload.truncate(payload.len() - cut);
            let decode = |got: Result<Vec<f64>, CodecError>| got.map(|v| bits_of(&v));
            proptest::prop_assert_eq!(
                decode(codec.decode(&payload, &[], 100)),
                decode(codec.decode_oracle(&payload, 100))
            );
        }
    }
}
