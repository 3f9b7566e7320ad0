//! Property tests for the wire codec: every frame kind round-trips
//! bit-exactly through the byte stream, and every corrupted or truncated
//! input comes back as a structured [`WireError`] — never a panic.

use krum_wire::{
    read_frame, write_frame, CarryOver, Frame, SelectedWorker, WireError, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Deterministic f64 payload covering the ugly corners of the value space:
/// specials (NaN, ±∞, ±0, subnormal) interleaved with ordinary magnitudes.
fn payload(len: usize, salt: u64) -> Vec<f64> {
    (0..len)
        .map(|i| match (i as u64).wrapping_add(salt) % 9 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MIN_POSITIVE / 2.0, // subnormal
            5 => f64::MAX,
            6 => -1.0e-300,
            7 => (i as f64) * 1.25e6,
            _ => -(i as f64) / 3.0,
        })
        .collect()
}

/// Deterministic string with embedded separators and multi-byte UTF-8.
fn label(salt: u64, len: usize) -> String {
    let alphabet = ["a", ",", "\n", "é", "{", "\"", "0", "→"];
    (0..len)
        .map(|i| alphabet[((i as u64).wrapping_mul(7).wrapping_add(salt) % 8) as usize])
        .collect()
}

/// Deterministic opaque blob for the v2 compressed frames: arbitrary
/// bytes, since the wire treats codec output as length-validated opaque
/// payload.
fn blob(len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt) as u8)
        .collect()
}

/// One frame of each kind, sized and salted by the inputs — covers every
/// variant across the proptest cases.
fn frame(kind: usize, len: usize, salt: u64) -> Frame {
    match kind % 14 {
        0 => Frame::Hello {
            version: (salt % u64::from(u16::MAX)) as u16,
            agent: label(salt, len % 32),
        },
        1 => Frame::JobAssign {
            job: salt,
            worker: (salt % 1000) as u32,
            seed: salt.wrapping_mul(31),
            spec_json: label(salt, len % 256),
        },
        2 => Frame::Broadcast {
            job: salt,
            round: salt % 10_000,
            params: payload(len, salt),
            observed: (0..(salt % 5) as usize)
                .map(|i| payload(len % 97, salt.wrapping_add(i as u64)))
                .collect(),
        },
        3 => Frame::Propose {
            job: salt,
            round: salt % 10_000,
            worker: (salt % 64) as u32,
            proposal: payload(len, salt),
        },
        4 => Frame::RoundClosed {
            job: salt,
            round: salt % 10_000,
            quorum: (salt % 64) as u32,
            aggregate_norm: f64::from_bits(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        },
        5 => Frame::Aggregate {
            job: salt,
            round: salt % 10_000,
            params: payload(len, salt),
        },
        6 => Frame::Shutdown {
            job: salt,
            reason: label(salt, len % 64),
        },
        7 => Frame::Ping {
            job: salt,
            nonce: salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
        8 => Frame::Pong {
            job: salt,
            nonce: salt.rotate_left(17),
        },
        9 => Frame::Rejoin {
            version: (salt % u64::from(u16::MAX)) as u16,
            job: salt,
            worker: (salt % 1000) as u32,
        },
        11 => Frame::BroadcastC {
            job: salt,
            round: salt % 10_000,
            params: blob(len, salt),
            observed: (0..(salt % 5) as usize)
                .map(|i| blob(len % 97, salt.wrapping_add(i as u64)))
                .collect(),
        },
        12 => Frame::ProposeC {
            job: salt,
            round: salt % 10_000,
            worker: (salt % 64) as u32,
            proposal: blob(len, salt),
        },
        13 => Frame::RoundFeedback {
            job: salt,
            round: salt % 10_000,
            aggregate: payload(len, salt),
            learning_rate: f64::from_bits(salt),
            selected: match salt % 3 {
                0 => None,
                s => Some(SelectedWorker {
                    worker: (salt % 64) as u32,
                    byzantine: s == 2,
                }),
            },
            quorum: (0..(salt % 9)).map(|w| w as u32).collect(),
        },
        _ => Frame::Checkpoint {
            job: salt,
            round: salt % 10_000,
            params: payload(len, salt),
            pending: (0..(salt % 4) as usize)
                .map(|i| CarryOver {
                    worker: (salt.wrapping_add(i as u64) % 64) as u32,
                    issued_round: salt % 10_000,
                    proposal: payload(len % 61, salt.wrapping_add(i as u64)),
                })
                .collect(),
            state_json: label(salt, len % 128),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary payloads of every frame kind round-trip bit-exactly
    /// (encoded-bytes equality tolerates NaN, which `PartialEq` would not).
    #[test]
    fn frames_round_trip_bit_exactly(kind in 0usize..14, len in 0usize..2048, salt in 0u64..u64::MAX) {
        let original = frame(kind, len, salt);
        let bytes = original.encode();
        prop_assert!(bytes.len() <= MAX_FRAME_BYTES + 8);
        prop_assert_eq!(original.encoded_len(), bytes.len());
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let (back, consumed) = read_frame(&mut cursor).unwrap_or_else(|e| {
            panic!("{} of {len} coords failed to round-trip: {e}", original.name())
        });
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Any single flipped byte is a structured error, never a panic and
    /// never a silently different frame.
    #[test]
    fn corrupt_frames_are_structured_errors(kind in 0usize..14, len in 0usize..256, salt in 0u64..u64::MAX, flip in 0usize..10_000) {
        let original = frame(kind, len, salt);
        let mut bytes = original.encode();
        let at = flip % bytes.len();
        bytes[at] ^= 1 << (flip % 8);
        let mut cursor = std::io::Cursor::new(bytes);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    /// Every strict prefix of a frame is a structured error, never a panic.
    #[test]
    fn truncated_frames_are_structured_errors(kind in 0usize..14, len in 0usize..256, salt in 0u64..u64::MAX, cut in 0usize..10_000) {
        let original = frame(kind, len, salt);
        let bytes = original.encode();
        let at = cut % bytes.len();
        let mut cursor = std::io::Cursor::new(bytes[..at].to_vec());
        let result = read_frame(&mut cursor);
        match result {
            Err(WireError::Closed) => prop_assert_eq!(at, 0),
            Err(_) => {}
            Ok(_) => panic!("a strict prefix of {} decoded", original.name()),
        }
    }
}

/// A payload near the megabyte scale (a d = 100_000 proposal) stays well
/// under the frame limit and round-trips; a declared length over the limit
/// is rejected before any allocation.
#[test]
fn large_proposals_fit_and_oversize_lengths_are_rejected() {
    let big = Frame::Propose {
        job: 1,
        round: 1,
        worker: 0,
        proposal: payload(100_000, 3),
    };
    let bytes = big.encode();
    assert!(bytes.len() < MAX_FRAME_BYTES);
    let mut cursor = std::io::Cursor::new(bytes.clone());
    let (back, _) = read_frame(&mut cursor).unwrap();
    assert_eq!(back.encode(), bytes);

    let mut oversize = Vec::new();
    oversize.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
    oversize.extend_from_slice(&[0u8; 64]);
    let mut cursor = std::io::Cursor::new(oversize);
    assert!(matches!(
        read_frame(&mut cursor),
        Err(WireError::FrameTooLarge { .. })
    ));
}

/// Satellite: `MAX_FRAME_BYTES` is enforced for checkpoint payloads on
/// both ends — the sender refuses to write an oversized `Checkpoint`
/// (nothing reaches the sink), and the receiver rejects an oversized
/// declared length before allocating (the same guard a checkpoint *file*
/// goes through, since checkpoints are stored framed).
#[test]
fn checkpoint_frame_limit_is_enforced_on_sender_and_receiver() {
    let oversized = Frame::Checkpoint {
        job: 0,
        round: 0,
        params: vec![0.0; MAX_FRAME_BYTES / 8 + 1],
        pending: Vec::new(),
        state_json: String::new(),
    };
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &oversized),
        Err(WireError::FrameTooLarge { .. })
    ));
    assert!(sink.is_empty(), "nothing may reach the wire or the disk");

    // Receiver side: a checkpoint-tagged stream whose length prefix lies
    // over the limit is rejected before allocation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
    bytes.push(11); // Checkpoint tag
    bytes.extend_from_slice(&[0u8; 32]);
    assert!(matches!(
        read_frame(&mut std::io::Cursor::new(bytes)),
        Err(WireError::FrameTooLarge { .. })
    ));

    // A realistically sized checkpoint (d = 100_000 params plus carried
    // proposals) round-trips bit-exactly.
    let realistic = Frame::Checkpoint {
        job: 2,
        round: 40,
        params: payload(100_000, 11),
        pending: vec![CarryOver {
            worker: 3,
            issued_round: 39,
            proposal: payload(100_000, 12),
        }],
        state_json: label(13, 512),
    };
    let bytes = realistic.encode();
    assert!(bytes.len() < MAX_FRAME_BYTES);
    let (back, _) = read_frame(&mut std::io::Cursor::new(bytes.clone())).unwrap();
    assert_eq!(back.encode(), bytes);
}

/// v2 satellite: real codec output — not just arbitrary blobs — crosses
/// the wire intact for every codec the spec grammar can name. The frame
/// carries the encoded bytes bit-exactly, and decoding on the far side
/// reproduces exactly what the codec's canonical transform produces.
#[test]
fn codec_payloads_round_trip_through_v2_frames_for_every_codec() {
    use krum_compress::CompressionSpec;

    let dim = 33;
    let proposal: Vec<f64> = (0..dim).map(|i| (i as f64 - 16.0) * 0.37).collect();
    let reference: Vec<f64> = (0..dim).map(|i| (i as f64) * 0.11 - 1.0).collect();
    let specs = [
        CompressionSpec::Bfp { block: 8, bits: 11 },
        CompressionSpec::TopK { k: 5 },
        CompressionSpec::DeltaBfp { block: 8, bits: 11 },
        CompressionSpec::DeltaTopK { k: 5 },
    ];
    for spec in specs {
        let codec = spec.build();
        let encoded = codec.encode(&proposal, &reference);
        let frame = Frame::ProposeC {
            job: 9,
            round: 4,
            worker: 2,
            proposal: encoded.clone(),
        };
        let bytes = frame.encode();
        let (back, _) = read_frame(&mut std::io::Cursor::new(bytes)).unwrap();
        let Frame::ProposeC {
            proposal: wired, ..
        } = back
        else {
            panic!("{spec}: expected ProposeC back");
        };
        assert_eq!(wired, encoded, "{spec}: payload must cross bit-exactly");

        let decoded = codec.decode(&wired, &reference, dim).unwrap();
        let mut transformed = proposal.clone();
        codec.transform(&mut transformed, &reference);
        assert_eq!(
            decoded, transformed,
            "{spec}: far-side decode must equal the canonical transform"
        );

        // Params path (BroadcastC): encode_params/decode_params agree too.
        let frame = Frame::BroadcastC {
            job: 9,
            round: 4,
            params: codec.encode_params(&reference),
            observed: vec![encoded],
        };
        let bytes = frame.encode();
        let (back, _) = read_frame(&mut std::io::Cursor::new(bytes)).unwrap();
        let Frame::BroadcastC {
            params, observed, ..
        } = back
        else {
            panic!("{spec}: expected BroadcastC back");
        };
        let params = codec.decode_params(&params, dim).unwrap();
        let mut expected = reference.clone();
        codec.transform_params(&mut expected);
        assert_eq!(params, expected, "{spec}: params must survive the wire");
        assert_eq!(observed.len(), 1);
    }
}

/// v2 satellite: a compressed frame whose blob the codec cannot decode is
/// a structured codec error on the consumer side — the *wire* layer
/// accepts any length-valid blob (payloads are opaque), and the codec
/// layer rejects garbage without panicking or reading out of bounds.
#[test]
fn garbage_codec_blobs_fail_closed_without_panicking() {
    use krum_compress::CompressionSpec;

    let dim = 33;
    let reference = vec![0.5; dim];
    for spec in [
        CompressionSpec::Bfp { block: 8, bits: 11 },
        CompressionSpec::TopK { k: 5 },
        CompressionSpec::DeltaBfp { block: 8, bits: 11 },
        CompressionSpec::DeltaTopK { k: 5 },
    ] {
        let codec = spec.build();
        for garbage in [vec![], vec![0xFFu8; 3], blob(257, 99)] {
            // Truncated, empty, and oversized blobs must all be Err —
            // reaching here at all proves no panic and no OOB read.
            let _ = codec.decode(&garbage, &reference, dim);
            let _ = codec.decode_params(&garbage, dim);
        }
    }
}

/// The handshake pins the protocol version: a well-formed `Hello` carries
/// it, and the version constant is what `krum list` reports.
#[test]
fn hello_carries_the_protocol_version() {
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        agent: "worker".into(),
    };
    let mut stream = Vec::new();
    write_frame(&mut stream, &hello).unwrap();
    let (back, _) = read_frame(&mut std::io::Cursor::new(stream)).unwrap();
    match back {
        Frame::Hello { version, agent } => {
            assert_eq!(version, PROTOCOL_VERSION);
            assert_eq!(agent, "worker");
        }
        other => panic!("expected Hello, got {other:?}"),
    }
}
