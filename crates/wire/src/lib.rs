//! # krum-wire
//!
//! The wire protocol of the krum aggregation server: a versioned,
//! length-framed binary codec over any `Read`/`Write` transport (in
//! production a `TcpStream`), hand-rolled on `std` only — the build
//! environment vendors no serialisation or networking crate, and the frame
//! layout is simple enough that a schema compiler would be overkill.
//!
//! ## Frame layout
//!
//! ```text
//! ┌──────────────┬─────────┬──────────────┬───────────────┐
//! │ u32 LE       │ u8      │ body bytes   │ u32 LE        │
//! │ payload len  │ tag     │ (per frame)  │ CRC-32 of     │
//! │ (tag + body) │         │              │ tag + body    │
//! └──────────────┴─────────┴──────────────┴───────────────┘
//! ```
//!
//! * the length prefix is validated against [`MAX_FRAME_BYTES`] **before**
//!   any allocation, so a corrupt or hostile peer cannot make the server
//!   allocate gigabytes;
//! * the trailing CRC-32 (IEEE) covers the tag and body, so bit flips and
//!   framing slips surface as [`WireError::ChecksumMismatch`] instead of
//!   garbage vectors. x86_64 builds whose target enables `pclmulqdq` and
//!   `sse4.1` (the workspace's `target-cpu=native` does on current x86
//!   servers) fold it 64 bytes per step with carry-less multiplies. Every
//!   other build, every input under 64 bytes and the under-16-byte tail of
//!   a fold run slicing-by-16 (sixteen lookup tables, one 16-byte chunk per
//!   step). Both compute the remainder of the same division by the IEEE
//!   polynomial, and a fold step only replaces x^k by x^k mod P(x), which
//!   leaves that remainder unchanged, so the values equal the plain bytewise
//!   CRC's on every build: checkpoints written by older builds and v1 peers
//!   are unaffected;
//! * all integers are little-endian; `f64` coordinates travel as their IEEE
//!   bit pattern (`to_le_bytes`), so a proposal crosses the wire
//!   **bit-exactly** — the loopback server reproduces in-process
//!   trajectories to the last ulp.
//!
//! Decoding never panics: every malformed input — truncated buffer, unknown
//! tag, oversized declared length, trailing bytes, invalid UTF-8 — returns a
//! structured [`WireError`] (property-tested in
//! `tests/frame_roundtrip.rs`).
//!
//! The protocol itself (who sends what when) lives in `krum-server`; this
//! crate only defines the vocabulary: [`Frame`] and its codec.

// One `unsafe`: the call into the carry-less CRC fold, allowed on that one
// cfg-gated item (`crc_update`) and documented there.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// The never-panic decode invariant, enforced at compile time on top of the
// `krum audit` PANIC001 pass: production code in this crate may not unwrap
// or expect (tests may — see `allow-unwrap-in-tests` in clippy.toml).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{Read, Write};

use thiserror::Error;

/// Version of the wire protocol spoken by this build. A [`Frame::Hello`]
/// carries the client's version; the server accepts any version in
/// [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`] and speaks the
/// peer's dialect (a v1 peer never sees a v2-only frame), rejecting
/// anything else with [`WireError::VersionMismatch`] rather than guessing
/// at frame layouts.
///
/// * **v1** — the original uncompressed protocol: every vector travels as
///   raw `f64` bit patterns.
/// * **v2** — adds the compressed [`Frame::BroadcastC`] /
///   [`Frame::ProposeC`] pair carrying codec-encoded payloads
///   (`krum-compress`). v2 is a strict superset: a v2 job with no codec
///   configured uses the v1 frames unchanged.
pub const PROTOCOL_VERSION: u16 = 2;

/// Oldest protocol version this build still serves (see
/// [`PROTOCOL_VERSION`] for the dialect differences).
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// Upper bound on one frame's payload (tag + body), 64 MiB — roughly 80
/// `d = 100_000` vectors, so an observation relay fits for any cluster this
/// workspace benches. Small enough that a corrupt length prefix cannot
/// drive an allocation bomb; the sender enforces it too ([`write_frame`]),
/// so an oversized scenario fails with a structured error at the producer,
/// not as a confusing mid-run rejection at the consumer.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// Canonical lowercase names of every frame kind, in tag order (shown by
/// `krum list`).
pub const FRAME_NAMES: &[&str] = &[
    "hello",
    "job-assign",
    "broadcast",
    "propose",
    "round-closed",
    "aggregate",
    "shutdown",
    "ping",
    "pong",
    "rejoin",
    "checkpoint",
    "broadcast-compressed",
    "propose-compressed",
    "round-feedback",
];

/// Errors raised while encoding, decoding or transporting frames.
#[derive(Debug, Error)]
pub enum WireError {
    /// The underlying transport failed.
    #[error("transport: {0}")]
    Io(#[from] std::io::Error),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    #[error("connection closed by peer")]
    Closed,
    /// A declared frame length exceeds [`MAX_FRAME_BYTES`].
    #[error("frame of {len} bytes exceeds the {max}-byte limit")]
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The enforced limit ([`MAX_FRAME_BYTES`]).
        max: usize,
    },
    /// The payload checksum did not match the frame contents.
    #[error(
        "checksum mismatch: frame carries {carried:#010x}, payload hashes to {computed:#010x}"
    )]
    ChecksumMismatch {
        /// Checksum carried by the frame.
        carried: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The frame tag byte does not name a known frame kind.
    #[error("unknown frame tag {0:#04x}")]
    UnknownTag(u8),
    /// The payload ended before the frame's fields were complete.
    #[error("truncated frame: needed {needed} more byte(s) at offset {offset}")]
    Truncated {
        /// How many further bytes the decoder needed.
        needed: usize,
        /// Payload offset at which the shortfall was found.
        offset: usize,
    },
    /// The payload had bytes left over after the frame's fields.
    #[error("malformed frame: {extra} trailing byte(s) after the last field")]
    TrailingBytes {
        /// Number of undecoded trailing bytes.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    #[error("string field is not valid UTF-8")]
    BadUtf8,
    /// An enum-coded byte field held a value outside its legal range.
    #[error("field `{field}` holds invalid discriminant {value}")]
    BadEnum {
        /// Name of the offending field.
        field: &'static str,
        /// The byte the payload carried.
        value: u8,
    },
    /// The peer speaks a different protocol version.
    #[error("protocol version mismatch: peer speaks v{got}, this build speaks v{expected}")]
    VersionMismatch {
        /// Version announced by the peer.
        got: u16,
        /// Version of this build ([`PROTOCOL_VERSION`]).
        expected: u16,
    },
}

/// CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing-by-16 tables: `CRC_TABLES[k][b]` is the CRC register after
/// feeding byte `b` followed by `k` zero bytes, so row 0 is [`CRC_TABLE`]
/// and each further row advances the previous one by one zero byte.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [CRC_TABLE; 16];
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One table lookup; a `u8` index into a 256-entry row is in range by type.
#[inline(always)]
fn lut(row: &[u32; 256], byte: u8) -> u32 {
    row[usize::from(byte)]
}

/// CRC-32 (IEEE) of `bytes` — the checksum carried by every frame.
///
/// x86_64 builds whose target enables `pclmulqdq` and `sse4.1` fold the
/// whole 16-byte blocks of an input of 64 bytes or more with carry-less
/// multiplies (`clmul`). Slicing-by-16 (`crc_tables`) runs the rest: the
/// tail under 16 bytes, shorter inputs and every input on other builds.
/// Both compute the remainder modulo the same polynomial, so the values
/// are those of the plain bytewise CRC, which the unit tests keep as the
/// oracle.
pub fn checksum(bytes: &[u8]) -> u32 {
    crc_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Feeds `bytes` into the CRC register `c`: whole 16-byte blocks through
/// the carry-less fold once there are at least four, the rest (and shorter
/// inputs) through the tables.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse4.1"
))]
#[allow(unsafe_code)]
fn crc_update(c: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    let Some((head, rest)) = blocks.split_first_chunk::<4>() else {
        return crc_tables(c, bytes);
    };
    // SAFETY: `clmul::fold` is a safe function whose one call requirement
    // is a CPU with `pclmulqdq` and `sse4.1`. This item compiles only when
    // the build target enables both, which already lets LLVM emit them
    // anywhere in the crate, so the call adds no requirement.
    let c = unsafe { clmul::fold(c, head, rest) };
    crc_tables(c, tail)
}

/// Feeds `bytes` into the CRC register `c` through the tables: this build
/// target lacks the carry-less multiply.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse4.1"
)))]
fn crc_update(c: u32, bytes: &[u8]) -> u32 {
    crc_tables(c, bytes)
}

/// Slicing-by-16 over the CRC register `c` (no pre- or post-inversion):
/// each 16-byte chunk folds into the register through sixteen independent
/// table lookups instead of sixteen dependent ones, and the tail (under 16
/// bytes) runs bytewise.
fn crc_tables(mut c: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
    let (chunks, tail) = bytes.as_chunks::<16>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in chunks {
        // Whole-word loads and shifts: per-byte XORs against the register
        // compile to a loop about twice as slow.
        let w0 = u32::from_le_bytes([b0, b1, b2, b3]) ^ c;
        let w1 = u32::from_le_bytes([b4, b5, b6, b7]);
        let w2 = u32::from_le_bytes([b8, b9, b10, b11]);
        let w3 = u32::from_le_bytes([b12, b13, b14, b15]);
        c = lut(t15, w0 as u8)
            ^ lut(t14, (w0 >> 8) as u8)
            ^ lut(t13, (w0 >> 16) as u8)
            ^ lut(t12, (w0 >> 24) as u8)
            ^ lut(t11, w1 as u8)
            ^ lut(t10, (w1 >> 8) as u8)
            ^ lut(t9, (w1 >> 16) as u8)
            ^ lut(t8, (w1 >> 24) as u8)
            ^ lut(t7, w2 as u8)
            ^ lut(t6, (w2 >> 8) as u8)
            ^ lut(t5, (w2 >> 16) as u8)
            ^ lut(t4, (w2 >> 24) as u8)
            ^ lut(t3, w3 as u8)
            ^ lut(t2, (w3 >> 8) as u8)
            ^ lut(t1, (w3 >> 16) as u8)
            ^ lut(t0, (w3 >> 24) as u8);
    }
    for &b in tail {
        c = lut(t0, c as u8 ^ b) ^ (c >> 8);
    }
    c
}

/// CRC-32 by carry-less-multiply folding (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
/// 2009), in the bit-reflected form the IEEE CRC uses.
///
/// Four 128-bit accumulators take 64 bytes per step; each step multiplies
/// an accumulator by x^512 mod P(x) (split over its two 64-bit halves) and
/// XORs in the next block, which keeps the remainder modulo P(x) unchanged.
/// The four then fold into one, the last one to three blocks fold in by
/// x^128, and the 128-bit remainder reduces to 64 and then (Barrett) to the
/// 32-bit register.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse4.1"
))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // The standard constants of the reflected polynomial 0xEDB8_8320 (those
    // of Linux, zlib and crc32fast): K_k is x^k mod P(x), bit-reflected and
    // shifted left by one.
    /// x^(4·128 + 32) mod P(x): folds an accumulator's low half 512 bits on.
    const K1: i64 = 0x1_5444_2BD4;
    /// x^(4·128 − 32) mod P(x): folds its high half 512 bits on.
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128 + 32) mod P(x): the low half, 128 bits on.
    const K3: i64 = 0x1_7519_97D0;
    /// x^(128 − 32) mod P(x): the high half, 128 bits on.
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64 mod P(x): 64 → 32 bits.
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) itself, bit-reflected (33 bits).
    const P: i64 = 0x1_DB71_0641;
    /// Barrett's μ = ⌊x^64 / P(x)⌋, bit-reflected (33 bits).
    const MU: i64 = 0x1_F701_1641;

    /// Continues the CRC register `c` over `head` and then `rest`, and
    /// returns the register.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(c: u32, head: &[[u8; 16]; 4], rest: &[[u8; 16]]) -> u32 {
        let [b0, b1, b2, b3] = head;
        let mut acc = [
            _mm_xor_si128(load(b0), _mm_cvtsi32_si128(c as i32)),
            load(b1),
            load(b2),
            load(b3),
        ];
        let by512 = _mm_set_epi64x(K2, K1);
        let (steps, singles) = rest.as_chunks::<4>();
        for step in steps {
            for (a, block) in acc.iter_mut().zip(step) {
                *a = fold_into(*a, by512, load(block));
            }
        }
        let by128 = _mm_set_epi64x(K4, K3);
        let [a0, a1, a2, a3] = acc;
        let mut x = fold_into(fold_into(fold_into(a0, by128, a1), by128, a2), by128, a3);
        for block in singles {
            x = fold_into(x, by128, load(block));
        }
        // 128 → 64 bits: the low half (the higher powers, reflected) times
        // x^96 mod P(x), XORed into the high half moved down; then the low
        // 32 bits times x^64 mod P(x), XORed into the rest moved down.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, by128),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett 64 → 32 bits: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P,
        // and the register is the upper 32 bits of R ⊕ T2.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }

    /// `acc` carried forward by the distance whose two half-constants `k`
    /// holds, XORed into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(acc, k);
        let high = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// One 16-byte block as a 128-bit lane, first byte lowest: two
    /// little-endian halves, no pointer load.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let lanes = u128::from_le_bytes(*block);
        _mm_set_epi64x((lanes >> 64) as i64, lanes as i64)
    }
}

/// The plain bytewise (Sarwate) CRC-32: the oracle [`checksum`] is tested
/// against.
#[cfg(test)]
fn checksum_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One message of the aggregation protocol.
///
/// Directions (worker ⇄ server):
///
/// | Frame | Direction | Purpose |
/// |-------|-----------|---------|
/// | [`Hello`](Frame::Hello) | worker → server | announce protocol version |
/// | [`JobAssign`](Frame::JobAssign) | server → worker | job id, worker slot, seed and scenario |
/// | [`Broadcast`](Frame::Broadcast) | server → worker | round parameters `x_t` (plus the observation relay for the adversary) |
/// | [`Propose`](Frame::Propose) | worker → server | one gradient proposal |
/// | [`RoundClosed`](Frame::RoundClosed) | server → worker | the round's quorum closed |
/// | [`Aggregate`](Frame::Aggregate) | server → worker | final parameters of a finished job |
/// | [`Shutdown`](Frame::Shutdown) | server → worker | end of session, with a reason |
/// | [`Ping`](Frame::Ping) | server → worker | liveness probe for a silent worker |
/// | [`Pong`](Frame::Pong) | worker → server | liveness reply, echoing the nonce |
/// | [`Rejoin`](Frame::Rejoin) | worker → server | re-staff a crashed worker into its old slot |
/// | [`Checkpoint`](Frame::Checkpoint) | server → disk | serialized job snapshot (also the on-disk checkpoint format) |
/// | [`BroadcastC`](Frame::BroadcastC) | server → worker | v2 only: codec-compressed round parameters and observation relay |
/// | [`ProposeC`](Frame::ProposeC) | worker → server | v2 only: one codec-compressed gradient proposal |
/// | [`RoundFeedback`](Frame::RoundFeedback) | server → adversary | what a stateful attack observes after a round closes |
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake: protocol version and a free-form agent label.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Free-form client label (shown in server logs).
        agent: String,
    },
    /// Server handshake reply: which job and worker slot the connection now
    /// serves, the job's master seed, and the full scenario as JSON (the
    /// worker derives its estimator or attack, and its RNG stream, from
    /// these).
    JobAssign {
        /// Job identifier, unique within the server.
        job: u64,
        /// Worker slot: `0..n-f` are honest workers, `n-f` is the
        /// adversary connection controlling all `f` Byzantine workers.
        worker: u32,
        /// The job's master seed (worker streams derive from it).
        seed: u64,
        /// The job's `ScenarioSpec` as JSON.
        spec_json: String,
    },
    /// The server publishes the round's parameter vector. For the adversary
    /// connection, `observed` relays the honest proposals of the round in
    /// worker order — the omniscient-adversary model of the paper, made
    /// explicit as bytes.
    Broadcast {
        /// Job identifier.
        job: u64,
        /// Round index `t`.
        round: u64,
        /// The parameter vector `x_t`.
        params: Vec<f64>,
        /// Observation relay for the adversary (empty for honest workers).
        observed: Vec<Vec<f64>>,
    },
    /// One proposal from one worker slot for one round.
    Propose {
        /// Job identifier.
        job: u64,
        /// Round the proposal answers.
        round: u64,
        /// Proposing worker slot (the adversary proposes for slots
        /// `n-f..n`).
        worker: u32,
        /// The proposed vector.
        proposal: Vec<f64>,
    },
    /// The round's quorum closed; stats for the worker's bookkeeping.
    RoundClosed {
        /// Job identifier.
        job: u64,
        /// The closed round.
        round: u64,
        /// How many proposals the closing quorum held.
        quorum: u32,
        /// Norm of the aggregated update.
        aggregate_norm: f64,
    },
    /// Final parameters of a completed job.
    Aggregate {
        /// Job identifier.
        job: u64,
        /// Number of rounds the job ran.
        round: u64,
        /// The final parameter vector `x_T`.
        params: Vec<f64>,
    },
    /// The server ends the session (job complete, job failed, or the
    /// connection was rejected).
    Shutdown {
        /// Job identifier (0 when no job was assigned).
        job: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Liveness probe: the server pings a worker that has gone silent
    /// mid-round. A live worker answers with a [`Frame::Pong`] echoing the
    /// nonce; a hung one stays silent and is eventually declared a crash
    /// fault.
    Ping {
        /// Job identifier.
        job: u64,
        /// Opaque nonce echoed by the matching `Pong`.
        nonce: u64,
    },
    /// Liveness reply to a [`Frame::Ping`].
    Pong {
        /// Job identifier.
        job: u64,
        /// The nonce of the `Ping` being answered.
        nonce: u64,
    },
    /// Reconnection handshake: sent *instead of* [`Frame::Hello`] as the
    /// first frame by a worker whose connection died mid-job. The server
    /// re-staffs the worker into its old slot (answering with the same
    /// [`Frame::JobAssign`] a fresh staffing would get) and the round
    /// machine resumes feeding it.
    Rejoin {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
        /// The job the worker was serving.
        job: u64,
        /// The worker slot it held.
        worker: u32,
    },
    /// A serialized job snapshot: everything the server needs to continue
    /// the job bit-identically after a restart. Written (framed, with the
    /// CRC) as the on-disk checkpoint file by `krum serve
    /// --checkpoint-dir`, read back by `krum serve --resume`. Vectors
    /// travel as raw `f64` bit patterns (NaN-safe); bookkeeping that is
    /// plain finite data (spec, history) rides in `state_json`.
    Checkpoint {
        /// Job identifier.
        job: u64,
        /// Rounds completed when the snapshot was taken (the resumed job
        /// starts at this round).
        round: u64,
        /// The parameter vector `x_round`.
        params: Vec<f64>,
        /// The carry-over queue of in-flight stale proposals.
        pending: Vec<CarryOver>,
        /// Spec and history as JSON (see `krum-server`'s checkpoint
        /// module for the exact layout).
        state_json: String,
    },
    /// v2 only: the round's parameter vector and observation relay as
    /// codec-encoded payloads. Which codec applies is negotiated out of
    /// band — it travels in the scenario JSON of the job's
    /// [`Frame::JobAssign`] — so the frame itself carries opaque,
    /// length-validated blobs.
    BroadcastC {
        /// Job identifier.
        job: u64,
        /// Round index `t`.
        round: u64,
        /// Codec-encoded parameter vector `x_t`
        /// (`GradientCodec::encode_params`).
        params: Vec<u8>,
        /// Codec-encoded observation relay for the adversary connection
        /// (empty for honest workers); entries are encoded against the
        /// round's params as reference.
        observed: Vec<Vec<u8>>,
    },
    /// v2 only: one codec-compressed proposal, encoded against the
    /// round's broadcast parameters as reference.
    ProposeC {
        /// Job identifier.
        job: u64,
        /// Round the proposal answers.
        round: u64,
        /// Proposing worker slot.
        worker: u32,
        /// Codec-encoded proposal (`GradientCodec::encode` with the
        /// round's params as reference).
        proposal: Vec<u8>,
    },
    /// What a *stateful* adversary observes after a round closes: the
    /// accepted aggregate, the applied learning rate, the selection outcome
    /// and the quorum roster — the wire twin of the in-process
    /// `RoundFeedback` the engines feed to `Attack::observe`, sent only to
    /// the adversary connection and only when the job's attack is stateful.
    /// Keeping the relayed fields identical to the in-process struct is
    /// what preserves loopback-equals-in-process for adaptive attacks.
    ///
    /// No [`PROTOCOL_VERSION`] bump: a job whose attack is stateful cannot
    /// be parsed by an older build in the first place (the attack spec
    /// grammar rejects it at `JobAssign` time), so no v2 peer can ever
    /// receive this frame unexpectedly.
    RoundFeedback {
        /// Job identifier.
        job: u64,
        /// The round that just closed.
        round: u64,
        /// The aggregate `F(V_1, …, V_n)` the server accepted.
        aggregate: Vec<f64>,
        /// Learning rate `γ_t` applied this round.
        learning_rate: f64,
        /// Worker whose proposal a selection rule picked, with its
        /// Byzantine attribution (`None` for mixing rules).
        selected: Option<SelectedWorker>,
        /// Workers whose proposals formed the round's quorum, in
        /// aggregation order.
        quorum: Vec<u32>,
    },
}

/// Selection outcome inside a [`Frame::RoundFeedback`]: which worker a
/// selection rule picked and whether that worker was Byzantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectedWorker {
    /// The selected worker slot.
    pub worker: u32,
    /// Whether the selected worker was Byzantine.
    pub byzantine: bool,
}

/// One carried-over proposal inside a [`Frame::Checkpoint`]: a straggler
/// that arrived in an earlier round and is still eligible for a future
/// quorum.
#[derive(Debug, Clone, PartialEq)]
pub struct CarryOver {
    /// Proposing worker slot.
    pub worker: u32,
    /// Round the proposal was issued for.
    pub issued_round: u64,
    /// The proposed vector.
    pub proposal: Vec<f64>,
}

impl Frame {
    /// The frame's tag byte (first payload byte on the wire).
    pub fn tag(&self) -> u8 {
        match self {
            Self::Hello { .. } => 1,
            Self::JobAssign { .. } => 2,
            Self::Broadcast { .. } => BROADCAST_TAG,
            Self::Propose { .. } => 4,
            Self::RoundClosed { .. } => 5,
            Self::Aggregate { .. } => 6,
            Self::Shutdown { .. } => 7,
            Self::Ping { .. } => 8,
            Self::Pong { .. } => 9,
            Self::Rejoin { .. } => 10,
            Self::Checkpoint { .. } => 11,
            Self::BroadcastC { .. } => 12,
            Self::ProposeC { .. } => 13,
            Self::RoundFeedback { .. } => 14,
        }
    }

    /// Canonical lowercase name of the frame kind.
    pub fn name(&self) -> &'static str {
        // Tags are 1-based and `FRAME_NAMES` is kept in tag order; the
        // fallback is unreachable but keeps this path panic-free.
        FRAME_NAMES
            .get(usize::from(self.tag()).wrapping_sub(1))
            .copied()
            .unwrap_or("unknown")
    }

    /// Encodes the payload (tag + body, without length prefix or checksum)
    /// into `out`.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Self::Hello { version, agent } => {
                put_u16(out, *version);
                put_str(out, agent);
            }
            Self::JobAssign {
                job,
                worker,
                seed,
                spec_json,
            } => {
                put_u64(out, *job);
                put_u32(out, *worker);
                put_u64(out, *seed);
                put_str(out, spec_json);
            }
            Self::Broadcast {
                job,
                round,
                params,
                observed,
            } => put_broadcast(
                out,
                *job,
                *round,
                params,
                observed.iter().map(Vec::as_slice),
            ),
            Self::Propose {
                job,
                round,
                worker,
                proposal,
            } => {
                put_u64(out, *job);
                put_u64(out, *round);
                put_u32(out, *worker);
                put_vec(out, proposal);
            }
            Self::RoundClosed {
                job,
                round,
                quorum,
                aggregate_norm,
            } => {
                put_u64(out, *job);
                put_u64(out, *round);
                put_u32(out, *quorum);
                put_f64(out, *aggregate_norm);
            }
            Self::Aggregate { job, round, params } => {
                put_u64(out, *job);
                put_u64(out, *round);
                put_vec(out, params);
            }
            Self::Shutdown { job, reason } => {
                put_u64(out, *job);
                put_str(out, reason);
            }
            Self::Ping { job, nonce } | Self::Pong { job, nonce } => {
                put_u64(out, *job);
                put_u64(out, *nonce);
            }
            Self::Rejoin {
                version,
                job,
                worker,
            } => {
                put_u16(out, *version);
                put_u64(out, *job);
                put_u32(out, *worker);
            }
            Self::Checkpoint {
                job,
                round,
                params,
                pending,
                state_json,
            } => {
                put_u64(out, *job);
                put_u64(out, *round);
                put_vec(out, params);
                put_u32(out, pending.len() as u32);
                for entry in pending {
                    put_u32(out, entry.worker);
                    put_u64(out, entry.issued_round);
                    put_vec(out, &entry.proposal);
                }
                put_str(out, state_json);
            }
            Self::BroadcastC {
                job,
                round,
                params,
                observed,
            } => {
                put_u64(out, *job);
                put_u64(out, *round);
                put_blob(out, params);
                put_u32(out, observed.len() as u32);
                for blob in observed {
                    put_blob(out, blob);
                }
            }
            Self::ProposeC {
                job,
                round,
                worker,
                proposal,
            } => {
                put_u64(out, *job);
                put_u64(out, *round);
                put_u32(out, *worker);
                put_blob(out, proposal);
            }
            Self::RoundFeedback {
                job,
                round,
                aggregate,
                learning_rate,
                selected,
                quorum,
            } => {
                put_u64(out, *job);
                put_u64(out, *round);
                put_vec(out, aggregate);
                put_f64(out, *learning_rate);
                // Selection as one discriminant byte: 0 = none, 1 = honest
                // worker selected, 2 = Byzantine worker selected; the
                // worker slot follows only when a selection exists.
                match selected {
                    None => out.push(0),
                    Some(s) => {
                        out.push(if s.byzantine { 2 } else { 1 });
                        put_u32(out, s.worker);
                    }
                }
                put_u32(out, quorum.len() as u32);
                for &worker in quorum {
                    put_u32(out, worker);
                }
            }
        }
    }

    /// Encodes the full frame (length prefix, payload, checksum) and returns
    /// the bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the full frame (length prefix, payload, checksum) to `out`
    /// in one pass: the payload is written in place behind a length
    /// placeholder that is patched once the payload size is known.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        frame_into(out, |out| self.encode_payload(out));
    }

    /// Encodes a raw [`Frame::Broadcast`] from borrowed slices: the bytes of
    /// the frame whose `params` is `params` and whose `observed` holds the
    /// `observed` vectors in order, without copying any vector into a
    /// `Frame`. The `Broadcast` arm of [`Frame::encode`] calls the same
    /// writer, so the layout has one encoder.
    pub fn encode_broadcast<'a, I>(job: u64, round: u64, params: &[f64], observed: I) -> Vec<u8>
    where
        I: Iterator<Item = &'a [f64]> + Clone,
    {
        let mut out = Vec::with_capacity(4 + 1 + broadcast_len(params, observed.clone()) + 4);
        frame_into(&mut out, |out| {
            out.push(BROADCAST_TAG);
            put_broadcast(out, job, round, params, observed);
        });
        out
    }

    /// Total bytes this frame occupies on the wire, computed from the
    /// fields without encoding (`tests/frame_roundtrip.rs` pins it to
    /// `encode().len()` for every frame kind).
    pub fn encoded_len(&self) -> usize {
        let vec = |v: &[f64]| 4 + 8 * v.len();
        let blob = |b: &[u8]| 4 + b.len();
        let body = match self {
            Self::Hello { agent, .. } => 2 + blob(agent.as_bytes()),
            Self::JobAssign { spec_json, .. } => 8 + 4 + 8 + blob(spec_json.as_bytes()),
            Self::Broadcast {
                params, observed, ..
            } => broadcast_len(params, observed.iter().map(Vec::as_slice)),
            Self::Propose { proposal, .. } => 8 + 8 + 4 + vec(proposal),
            Self::RoundClosed { .. } => 8 + 8 + 4 + 8,
            Self::Aggregate { params, .. } => 8 + 8 + vec(params),
            Self::Shutdown { reason, .. } => 8 + blob(reason.as_bytes()),
            Self::Ping { .. } | Self::Pong { .. } => 8 + 8,
            Self::Rejoin { .. } => 2 + 8 + 4,
            Self::Checkpoint {
                params,
                pending,
                state_json,
                ..
            } => {
                8 + 8
                    + vec(params)
                    + 4
                    + pending
                        .iter()
                        .map(|e| 4 + 8 + vec(&e.proposal))
                        .sum::<usize>()
                    + blob(state_json.as_bytes())
            }
            Self::BroadcastC {
                params, observed, ..
            } => 8 + 8 + blob(params) + 4 + observed.iter().map(|b| blob(b)).sum::<usize>(),
            Self::ProposeC { proposal, .. } => 8 + 8 + 4 + blob(proposal),
            Self::RoundFeedback {
                aggregate,
                selected,
                quorum,
                ..
            } => {
                8 + 8
                    + vec(aggregate)
                    + 8
                    + 1
                    + if selected.is_some() { 4 } else { 0 }
                    + 4
                    + 4 * quorum.len()
            }
        };
        // length prefix + tag + body + checksum
        4 + 1 + body + 4
    }

    /// Decodes one payload (tag + body, as framed between the length prefix
    /// and the checksum).
    ///
    /// # Errors
    ///
    /// Returns a structured [`WireError`] for every malformed input; never
    /// panics.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let frame = match tag {
            1 => Self::Hello {
                version: r.u16()?,
                agent: r.string()?,
            },
            2 => Self::JobAssign {
                job: r.u64()?,
                worker: r.u32()?,
                seed: r.u64()?,
                spec_json: r.string()?,
            },
            3 => {
                let job = r.u64()?;
                let round = r.u64()?;
                let params = r.vec_f64()?;
                let count = r.u32()? as usize;
                let mut observed = Vec::new();
                for _ in 0..count {
                    // Reserve only what the remaining bytes can justify —
                    // the count itself is attacker-controlled.
                    observed.push(r.vec_f64()?);
                }
                Self::Broadcast {
                    job,
                    round,
                    params,
                    observed,
                }
            }
            4 => Self::Propose {
                job: r.u64()?,
                round: r.u64()?,
                worker: r.u32()?,
                proposal: r.vec_f64()?,
            },
            5 => Self::RoundClosed {
                job: r.u64()?,
                round: r.u64()?,
                quorum: r.u32()?,
                aggregate_norm: r.f64()?,
            },
            6 => Self::Aggregate {
                job: r.u64()?,
                round: r.u64()?,
                params: r.vec_f64()?,
            },
            7 => Self::Shutdown {
                job: r.u64()?,
                reason: r.string()?,
            },
            8 => Self::Ping {
                job: r.u64()?,
                nonce: r.u64()?,
            },
            9 => Self::Pong {
                job: r.u64()?,
                nonce: r.u64()?,
            },
            10 => Self::Rejoin {
                version: r.u16()?,
                job: r.u64()?,
                worker: r.u32()?,
            },
            11 => {
                let job = r.u64()?;
                let round = r.u64()?;
                let params = r.vec_f64()?;
                let count = r.u32()? as usize;
                // Each entry needs at least its fixed-width fields; an
                // attacker-controlled count cannot force an allocation the
                // remaining bytes cannot justify.
                let available = (r.remaining()) / (4 + 8 + 4);
                if count > available {
                    return Err(WireError::Truncated {
                        needed: (count - available).saturating_mul(16),
                        offset: r.position(),
                    });
                }
                let mut pending = Vec::with_capacity(count);
                for _ in 0..count {
                    pending.push(CarryOver {
                        worker: r.u32()?,
                        issued_round: r.u64()?,
                        proposal: r.vec_f64()?,
                    });
                }
                Self::Checkpoint {
                    job,
                    round,
                    params,
                    pending,
                    state_json: r.string()?,
                }
            }
            12 => {
                let job = r.u64()?;
                let round = r.u64()?;
                let params = r.blob()?;
                let count = r.u32()? as usize;
                let mut observed = Vec::new();
                for _ in 0..count {
                    // Each blob validates its own length against the
                    // remaining bytes; the count never drives an
                    // allocation on its own.
                    observed.push(r.blob()?);
                }
                Self::BroadcastC {
                    job,
                    round,
                    params,
                    observed,
                }
            }
            13 => Self::ProposeC {
                job: r.u64()?,
                round: r.u64()?,
                worker: r.u32()?,
                proposal: r.blob()?,
            },
            14 => {
                let job = r.u64()?;
                let round = r.u64()?;
                let aggregate = r.vec_f64()?;
                let learning_rate = r.f64()?;
                let selected = match r.u8()? {
                    0 => None,
                    tag @ (1 | 2) => Some(SelectedWorker {
                        worker: r.u32()?,
                        byzantine: tag == 2,
                    }),
                    value => {
                        return Err(WireError::BadEnum {
                            field: "selected",
                            value,
                        })
                    }
                };
                let count = r.u32()? as usize;
                // The count is attacker-controlled: each entry is 4 bytes,
                // so the remaining payload bounds the allocation.
                let available = r.remaining() / 4;
                if count > available {
                    return Err(WireError::Truncated {
                        needed: (count - available).saturating_mul(4),
                        offset: r.position(),
                    });
                }
                let mut quorum = Vec::with_capacity(count);
                for _ in 0..count {
                    quorum.push(r.u32()?);
                }
                Self::RoundFeedback {
                    job,
                    round,
                    aggregate,
                    learning_rate,
                    selected,
                    quorum,
                }
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Writes one frame to the transport, returning the bytes written.
///
/// # Errors
///
/// Returns [`WireError::FrameTooLarge`] when the frame's payload exceeds
/// [`MAX_FRAME_BYTES`] (nothing is written — the peer would only reject
/// it), or [`WireError::Io`] when the transport fails.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    write_encoded(w, &frame.encode())
}

/// Writes already-encoded frames ([`Frame::encode`] /
/// [`Frame::encode_into`] output, one frame or several back to back) to
/// the transport with one `write_all`, returning the bytes written. This
/// is how one encoding is sent to many peers, or many frames in one write.
///
/// # Errors
///
/// Returns [`WireError::FrameTooLarge`] when any frame's payload exceeds
/// [`MAX_FRAME_BYTES`] (nothing is written), or [`WireError::Io`] when the
/// transport fails.
pub fn write_encoded(w: &mut impl Write, bytes: &[u8]) -> Result<usize, WireError> {
    // Walk the length prefixes: every frame is checked before any byte
    // reaches the wire.
    let mut rest = bytes;
    while let Some((prefix, tail)) = rest.split_first_chunk::<4>() {
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge {
                len,
                max: MAX_FRAME_BYTES,
            });
        }
        rest = tail.get(len.saturating_add(4)..).unwrap_or_default();
    }
    w.write_all(bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one frame from the transport, returning it with the bytes
/// consumed. An EOF at a frame boundary is [`WireError::Closed`] (the peer
/// hung up cleanly); an EOF mid-frame is an I/O error.
///
/// # Errors
///
/// Returns a structured [`WireError`] for transport failures, oversized
/// frames, checksum mismatches and malformed payloads; never panics.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), WireError> {
    read_frame_into(r, &mut Vec::new())
}

/// [`read_frame`] into a caller-owned buffer: the payload and its trailing
/// CRC arrive with one `read_exact` into `buf`, which long-lived readers
/// keep across frames so a connection reuses one frame-sized allocation.
///
/// # Errors
///
/// As [`read_frame`]. The declared length is checked against
/// [`MAX_FRAME_BYTES`] before `buf` grows. `buf` keeps its longest length
/// and a shorter frame is read into its prefix, so only growth past the
/// longest frame so far is zeroed; its contents after the call are
/// unspecified.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<(Frame, usize), WireError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "peer closed between frames" from "frame cut short".
    // The unfilled tail is tracked as a shrinking slice so no index
    // arithmetic can go out of range.
    let mut rest: &mut [u8] = &mut len_buf;
    while !rest.is_empty() {
        let n = r.read(rest)?;
        if n == 0 {
            let missing = rest.len();
            if missing == len_buf.len() {
                return Err(WireError::Closed);
            }
            return Err(WireError::Truncated {
                needed: missing,
                offset: len_buf.len() - missing,
            });
        }
        // `read` returns `n <= rest.len()`; a broken implementation that
        // lies lands on the empty tail and simply ends the loop.
        rest = std::mem::take(&mut rest).get_mut(n..).unwrap_or(&mut []);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(WireError::Truncated {
            needed: 1,
            offset: 4,
        });
    }
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    if buf.len() < len + 4 {
        buf.resize(len + 4, 0);
    }
    let frame = buf.get_mut(..len + 4).unwrap_or_default();
    r.read_exact(frame)?;
    let (payload, crc) = frame.split_last_chunk::<4>().ok_or(WireError::Truncated {
        needed: 4,
        offset: 4 + len,
    })?;
    let carried = u32::from_le_bytes(*crc);
    let computed = checksum(payload);
    if carried != computed {
        return Err(WireError::ChecksumMismatch { carried, computed });
    }
    let frame = Frame::decode(payload)?;
    Ok((frame, 8 + len))
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a whole frame to `out`: a length placeholder, the payload
/// (tag + body) written by `payload`, then the length patched in and the
/// checksum.
fn frame_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    put_u32(out, 0);
    payload(out);
    let payload = out.get(start + 4..).unwrap_or_default();
    // A payload past `u32::MAX` saturates the prefix, which the sender
    // check in `write_encoded` then rejects as too large.
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    let crc = checksum(payload);
    if let Some(prefix) = out.get_mut(start..) {
        for (dst, src) in prefix.iter_mut().zip(len.to_le_bytes()) {
            *dst = src;
        }
    }
    put_u32(out, crc);
}

/// Tag byte of [`Frame::Broadcast`].
const BROADCAST_TAG: u8 = 3;

/// The body of a [`Frame::Broadcast`] (everything after the tag).
fn put_broadcast<'a>(
    out: &mut Vec<u8>,
    job: u64,
    round: u64,
    params: &[f64],
    observed: impl Iterator<Item = &'a [f64]> + Clone,
) {
    put_u64(out, job);
    put_u64(out, round);
    put_vec(out, params);
    put_u32(out, observed.clone().count() as u32);
    for vector in observed {
        put_vec(out, vector);
    }
}

/// Byte length of a [`Frame::Broadcast`] body.
fn broadcast_len<'a>(params: &[f64], observed: impl Iterator<Item = &'a [f64]>) -> usize {
    let vec = |v: &[f64]| 4 + 8 * v.len();
    8 + 8 + vec(params) + 4 + observed.map(vec).sum::<usize>()
}

fn put_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(out, v.len() as u32);
    // One resize, then fixed-width stores into 8-byte lanes — no
    // per-coordinate capacity check.
    let start = out.len();
    out.resize(start + 8 * v.len(), 0);
    if let Some(body) = out.get_mut(start..) {
        for (dst, x) in body.as_chunks_mut::<8>().0.iter_mut().zip(v) {
            *dst = x.to_le_bytes();
        }
    }
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // `get` carries the bounds proof: no indexing, no arithmetic that
        // could overflow on attacker-controlled lengths.
        match self.buf.get(self.pos..self.pos.saturating_add(n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(WireError::Truncated {
                needed: n - self.remaining(),
                offset: self.pos,
            }),
        }
    }

    /// Reads exactly `N` bytes into a fixed array. The zip copy cannot
    /// miss: `take` has already proven the slice holds `N` bytes, and the
    /// conversion has no panic-capable step (`PANIC001` keeps it that way).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, src) in out.iter_mut().zip(slice) {
            *dst = *src;
        }
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.take_array()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// A length-prefixed opaque byte blob: the declared length is
    /// validated against the remaining payload (by `take`) before any
    /// allocation happens.
    fn blob(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn vec_f64(&mut self) -> Result<Vec<f64>, WireError> {
        let count = self.u32()? as usize;
        // The count is attacker-controlled: verify the bytes exist before
        // allocating for them, without `count * 8` (which could wrap on a
        // 32-bit target and break the never-panic contract).
        let available = (self.buf.len() - self.pos) / 8;
        if count > available {
            return Err(WireError::Truncated {
                needed: (count - available).saturating_mul(8),
                offset: self.pos,
            });
        }
        let bytes = self.take(count * 8)?;
        // `as_chunks` yields whole `[u8; 8]` lanes (the remainder is empty:
        // `take` returned exactly `count * 8` bytes), so the collect sizes
        // its allocation once and converts without a fallible step.
        Ok(bytes
            .as_chunks::<8>()
            .0
            .iter()
            .map(|le| f64::from_le_bytes(*le))
            .collect())
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                agent: "unit-test".into(),
            },
            Frame::JobAssign {
                job: 3,
                worker: 7,
                seed: 42,
                spec_json: "{\"name\":\"x\"}".into(),
            },
            Frame::Broadcast {
                job: 3,
                round: 9,
                params: vec![1.5, -2.25, f64::MIN_POSITIVE],
                observed: vec![vec![0.0, -0.0], vec![f64::INFINITY]],
            },
            Frame::Propose {
                job: 3,
                round: 9,
                worker: 2,
                proposal: vec![f64::NAN, 1.0],
            },
            Frame::RoundClosed {
                job: 3,
                round: 9,
                quorum: 7,
                aggregate_norm: 0.125,
            },
            Frame::Aggregate {
                job: 3,
                round: 20,
                params: vec![],
            },
            Frame::Shutdown {
                job: 0,
                reason: "complete".into(),
            },
            Frame::Ping { job: 3, nonce: 17 },
            Frame::Pong {
                job: 3,
                nonce: u64::MAX,
            },
            Frame::Rejoin {
                version: PROTOCOL_VERSION,
                job: 3,
                worker: 4,
            },
            Frame::Checkpoint {
                job: 3,
                round: 12,
                params: vec![1.0, f64::NAN, -0.0],
                pending: vec![
                    CarryOver {
                        worker: 2,
                        issued_round: 11,
                        proposal: vec![f64::NEG_INFINITY, 4.5],
                    },
                    CarryOver {
                        worker: 6,
                        issued_round: 12,
                        proposal: vec![],
                    },
                ],
                state_json: "{\"spec\":{},\"history\":{}}".into(),
            },
            Frame::BroadcastC {
                job: 3,
                round: 9,
                params: vec![0x01, 0x02, 0xFF, 0x00],
                observed: vec![vec![0xAA; 7], vec![], vec![0x55]],
            },
            Frame::ProposeC {
                job: 3,
                round: 9,
                worker: 2,
                proposal: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
            Frame::RoundFeedback {
                job: 3,
                round: 9,
                aggregate: vec![0.25, -1.5, f64::NAN],
                learning_rate: 0.05,
                selected: Some(SelectedWorker {
                    worker: 7,
                    byzantine: true,
                }),
                quorum: vec![0, 1, 2, 7],
            },
            Frame::RoundFeedback {
                job: 3,
                round: 10,
                aggregate: vec![],
                learning_rate: 0.05,
                selected: None,
                quorum: vec![],
            },
        ]
    }

    /// NaN-tolerant structural equality (the codec must carry NaN payloads
    /// bit-exactly; `PartialEq` on `f64` would reject them).
    fn bits_equal(a: &Frame, b: &Frame) -> bool {
        let (ea, eb) = (a.encode(), b.encode());
        ea == eb
    }

    #[test]
    fn every_frame_round_trips_through_a_byte_stream() {
        for frame in frames() {
            let encoded = frame.encode();
            assert_eq!(encoded.len(), frame.encoded_len());
            let mut cursor = std::io::Cursor::new(encoded.clone());
            let (back, consumed) = read_frame(&mut cursor).unwrap();
            assert_eq!(consumed, encoded.len());
            assert!(
                bits_equal(&frame, &back),
                "{} did not round-trip bit-exactly",
                frame.name()
            );
        }
    }

    #[test]
    fn a_broadcast_from_borrowed_slices_is_the_owned_frame() {
        let relays = [
            vec![],
            vec![vec![0.0, -0.0, f64::NAN], vec![], vec![f64::INFINITY; 3]],
        ];
        for observed in relays {
            let params = vec![1.5, -2.25, f64::MIN_POSITIVE];
            let bytes = Frame::encode_broadcast(3, 9, &params, observed.iter().map(Vec::as_slice));
            let frame = Frame::Broadcast {
                job: 3,
                round: 9,
                params,
                observed,
            };
            assert_eq!(bytes, frame.encode());
            assert_eq!(bytes.len(), bytes.capacity(), "one exact allocation");
            let (back, _) = read_frame(&mut bytes.as_slice()).unwrap();
            assert!(bits_equal(&frame, &back));
        }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let all = frames();
        let mut stream = Vec::new();
        for frame in &all {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for frame in &all {
            let (back, _) = read_frame(&mut cursor).unwrap();
            assert!(bits_equal(frame, &back));
        }
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Closed)));
    }

    /// One flipped bit anywhere after the length prefix (payload or CRC)
    /// is a checksum mismatch: every bit of the first and last 64 bytes,
    /// and an odd stride of bits through the middle, of a short proposal
    /// (tables only), a d = 1000 proposal and a 36-vector relay (both long
    /// enough to fold). One reused buffer reads them all.
    #[test]
    fn corrupted_bytes_fail_the_checksum() {
        const EDGE: usize = 8 * 64;
        let vector = |seed: usize| -> Vec<f64> {
            (0..1000)
                .map(|i| ((i * 7 + seed) % 113) as f64 - 56.5)
                .collect()
        };
        let short = Frame::Propose {
            job: 1,
            round: 2,
            worker: 3,
            proposal: vec![1.0, 2.0, 3.0],
        };
        let propose = Frame::Propose {
            job: 1,
            round: 2,
            worker: 3,
            proposal: vector(0),
        };
        let relay: Vec<Vec<f64>> = (1..=36).map(vector).collect();
        let broadcast = Frame::encode_broadcast(1, 2, &vector(0), relay.iter().map(Vec::as_slice));
        assert_eq!(broadcast.len(), 296_177);
        let mut buf = Vec::new();
        for mut bytes in [short.encode(), propose.encode(), broadcast] {
            let bits = 8 * (bytes.len() - 4);
            let stride = (bits / 256) | 1;
            let flips = (0..bits).filter(|&b| b < EDGE || b + EDGE >= bits || b % stride == 0);
            for bit in flips {
                let (byte, mask) = (4 + bit / 8, 1u8 << (bit % 8));
                bytes[byte] ^= mask;
                let read = read_frame_into(&mut bytes.as_slice(), &mut buf);
                assert!(
                    matches!(read, Err(WireError::ChecksumMismatch { .. })),
                    "bit {bit} of a {}-byte frame: {read:?}",
                    bytes.len()
                );
                bytes[byte] ^= mask;
            }
            assert!(read_frame_into(&mut bytes.as_slice(), &mut buf).is_ok());
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, (MAX_FRAME_BYTES + 1) as u32);
        bytes.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_streams_are_structured_errors() {
        let frame = Frame::Aggregate {
            job: 1,
            round: 5,
            params: vec![1.0; 16],
        };
        let bytes = frame.encode();
        // A buffer that already holds a longer frame reports the same errors.
        let longer = Frame::Aggregate {
            job: 1,
            round: 5,
            params: vec![2.0; 64],
        };
        let mut warm = Vec::new();
        read_frame_into(&mut longer.encode().as_slice(), &mut warm).unwrap();
        // Cut at every prefix length: never a panic, always an error.
        for cut in 0..bytes.len() - 1 {
            let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
            let result = read_frame(&mut cursor);
            if cut == 0 {
                assert!(matches!(result, Err(WireError::Closed)));
            } else {
                assert!(result.is_err(), "prefix of {cut} bytes must not decode");
            }
            let again = read_frame_into(&mut std::io::Cursor::new(&bytes[..cut]), &mut warm);
            assert_eq!(format!("{again:?}"), format!("{result:?}"));
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert!(matches!(
            Frame::decode(&[99]),
            Err(WireError::UnknownTag(99))
        ));
        let mut payload = Vec::new();
        payload.push(7u8); // Shutdown
        put_u64(&mut payload, 0);
        put_str(&mut payload, "bye");
        payload.push(0xAB);
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
        // Invalid UTF-8 in a string field.
        let mut payload = Vec::new();
        payload.push(7u8);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 2);
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(Frame::decode(&payload), Err(WireError::BadUtf8)));
    }

    /// The producer refuses oversized frames instead of shipping bytes the
    /// consumer would reject.
    #[test]
    fn write_frame_rejects_oversized_payloads() {
        let frame = Frame::Propose {
            job: 1,
            round: 0,
            worker: 0,
            proposal: vec![0.0; MAX_FRAME_BYTES / 8 + 1],
        };
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &frame),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(sink.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn checksum_matches_known_vectors() {
        // CRC-32 (IEEE) of "123456789" is the classic check value.
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum(b""), 0);
    }

    /// The three CRC paths agree: [`checksum`] (which folds where the build
    /// allows), [`crc_tables`] called directly (so it stays tested on builds
    /// that fold) and the bytewise oracle. Every length up to 1024, and the
    /// payload and frame lengths of a d = 1000 proposal and of the n = 40
    /// relay, from every start offset 0..16.
    #[test]
    fn checksum_paths_agree_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..296_177 + 16)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        for len in (0..=1024).chain([8_025, 8_033, 296_169, 296_177]) {
            for offset in 0..16 {
                let bytes = &data[offset..offset + len];
                let oracle = checksum_bytewise(bytes);
                assert_eq!(checksum(bytes), oracle, "length {len}, offset {offset}");
                assert_eq!(
                    crc_tables(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF,
                    oracle,
                    "tables: length {len}, offset {offset}"
                );
            }
        }
    }

    /// Arbitrary bytes: every element drawn uniformly from `0..=255`.
    fn any_bytes(len: usize) -> impl proptest::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        prop::collection::vec(0u32..256, len).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Slicing-by-16 is faster, not different: arbitrary buffers of
        /// arbitrary length hash to the bytewise CRC's value.
        #[test]
        fn checksum_equals_the_bytewise_oracle(bytes in any_bytes(8192), len in 0usize..8192) {
            let bytes = &bytes[..len];
            proptest::prop_assert_eq!(checksum(bytes), checksum_bytewise(bytes));
        }

        /// Every length 0..=64 (up to four chunks): each split between the
        /// 16-byte body and the bytewise tail agrees with the oracle.
        #[test]
        fn checksum_equals_the_oracle_at_every_short_length(bytes in any_bytes(64)) {
            for len in 0..=64 {
                let prefix = &bytes[..len];
                proptest::prop_assert_eq!(checksum(prefix), checksum_bytewise(prefix), "length {}", len);
            }
        }
    }

    /// Several frames encoded into one buffer are written as one unit, and
    /// an oversized frame anywhere in it stops the write before any byte.
    #[test]
    fn write_encoded_checks_every_frame_in_a_batch() {
        let all = frames();
        let mut batch = Vec::new();
        for frame in &all {
            frame.encode_into(&mut batch);
        }
        let mut sink = Vec::new();
        assert_eq!(write_encoded(&mut sink, &batch).unwrap(), batch.len());
        let mut cursor = std::io::Cursor::new(sink);
        let mut buf = Vec::new();
        for frame in &all {
            let (back, _) = read_frame_into(&mut cursor, &mut buf).unwrap();
            assert!(bits_equal(frame, &back));
        }
        assert!(matches!(
            read_frame_into(&mut cursor, &mut buf),
            Err(WireError::Closed)
        ));

        let oversized = Frame::Propose {
            job: 1,
            round: 0,
            worker: 0,
            proposal: vec![0.0; MAX_FRAME_BYTES / 8 + 1],
        };
        oversized.encode_into(&mut batch);
        let mut sink = Vec::new();
        assert!(matches!(
            write_encoded(&mut sink, &batch),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(sink.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn names_cover_every_tag() {
        for frame in frames() {
            assert_eq!(FRAME_NAMES[(frame.tag() - 1) as usize], frame.name());
        }
        assert_eq!(FRAME_NAMES.len(), 14);
    }

    /// A feedback frame with an out-of-range selection discriminant or a
    /// lying quorum count is a structured error, never a panic or an
    /// unbounded allocation.
    #[test]
    fn round_feedback_rejects_bad_discriminants_and_lying_counts() {
        let mut payload = Vec::new();
        payload.push(14u8); // RoundFeedback
        put_u64(&mut payload, 1); // job
        put_u64(&mut payload, 2); // round
        put_vec(&mut payload, &[1.0]); // aggregate
        put_f64(&mut payload, 0.1); // learning rate
        payload.push(3); // selection discriminant: a lie
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::BadEnum {
                field: "selected",
                value: 3
            })
        ));
        let mut payload = Vec::new();
        payload.push(14u8);
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 2);
        put_vec(&mut payload, &[1.0]);
        put_f64(&mut payload, 0.1);
        payload.push(0); // no selection
        put_u32(&mut payload, u32::MAX); // quorum count: a lie
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
    }

    /// A compressed broadcast whose blob length lies about the remaining
    /// bytes is a structured truncation, never an allocation.
    #[test]
    fn compressed_frames_with_lying_blob_lengths_are_truncation() {
        let mut payload = Vec::new();
        payload.push(12u8); // BroadcastC
        put_u64(&mut payload, 1); // job
        put_u64(&mut payload, 2); // round
        put_u32(&mut payload, u32::MAX); // params blob length: a lie
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
        let mut payload = Vec::new();
        payload.push(13u8); // ProposeC
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 2);
        put_u32(&mut payload, 0); // worker
        put_u32(&mut payload, 1 << 30); // proposal blob length: a lie
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
    }

    /// A checkpoint whose pending count promises more entries than the
    /// payload holds is rejected before any allocation.
    #[test]
    fn checkpoint_with_lying_pending_count_is_truncation_not_allocation() {
        let mut payload = Vec::new();
        payload.push(11u8); // Checkpoint
        put_u64(&mut payload, 1); // job
        put_u64(&mut payload, 2); // round
        put_vec(&mut payload, &[1.0]); // params
        put_u32(&mut payload, u32::MAX); // pending count: a lie
        assert!(matches!(
            Frame::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
    }
}
