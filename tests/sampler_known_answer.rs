//! Known-answer pins for the random-number pipeline.
//!
//! Every determinism suite in the workspace compares two engines that share
//! one sampler, so a change to the sampler itself — a different keystream, a
//! different Box–Muller mapping, a reordered draw — would pass all of them
//! unnoticed. This file pins absolute values instead: raw keystream words,
//! Gaussian samples, and a short training trajectory of the reference
//! scenario (n = 40, f = 4, d = 1000, Krum against a sign-flip adversary).
//!
//! The constants are the contract: a faster keystream or Gaussian draw must
//! reproduce every one of them, since changing any would change every
//! seed's trajectory.

use krum::aggregation::RuleSpec;
use krum::attacks::AttackSpec;
use krum::dist::{stream_rng, LearningRateSchedule};
use krum::models::EstimatorSpec;
use krum::scenario::ScenarioBuilder;
use krum::tensor::Vector;
use rand::RngCore;

/// FNV-1a over the little-endian bits of each value.
fn digest(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn keystream_words_are_pinned() {
    const WORDS: [u64; 16] = [
        0x9a24_55a2_ea7e_8a4e,
        0xaa18_5939_8666_296c,
        0x691b_1435_1f90_1dba,
        0x8fb0_04f2_cb5b_17e1,
        0x7206_2bca_7930_6f54,
        0x1ef4_460e_8320_6cc6,
        0x7d70_a803_6244_8677,
        0x1a98_5c8e_09e8_3097,
        0xf634_bf53_6e3d_209c,
        0x8e9a_28db_8317_9703,
        0x8338_5f42_30d4_0e81,
        0x045c_e59e_56bc_7582,
        0x5e32_a037_29c7_30a4,
        0xfff6_9f8d_b5ca_6d7f,
        0xc721_f298_fd49_f97f,
        0x926c_c11d_39c8_7bf7,
    ];
    let mut rng = stream_rng(31, 0);
    let words: Vec<u64> = (0..WORDS.len()).map(|_| rng.next_u64()).collect();
    assert_eq!(words, WORDS);
}

#[test]
fn gaussian_samples_are_pinned() {
    let v = Vector::gaussian(1000, 0.0, 0.2, &mut stream_rng(31, 1));
    let s = v.as_slice();
    assert_eq!(digest(s), 0x21b1_2eb4_d4f1_8eca);
    // Elements on both sides of a 64-sample boundary and the last one.
    assert_eq!(s[0].to_bits(), 0xbf8f_7f30_9db7_0ed8);
    assert_eq!(s[63].to_bits(), 0xbfc5_8bf8_5960_a0b7);
    assert_eq!(s[64].to_bits(), 0xbfb2_f716_70eb_c544);
    assert_eq!(s[999].to_bits(), 0xbfba_8193_bfe1_1f6b);
}

#[test]
fn reference_trajectory_is_pinned() {
    let report = ScenarioBuilder::new(40, 4)
        .rule(RuleSpec::Krum)
        .attack(AttackSpec::SignFlip { scale: 3.0 })
        .estimator(EstimatorSpec::GaussianQuadratic {
            dim: 1000,
            sigma: 0.2,
        })
        .schedule(LearningRateSchedule::Constant { gamma: 0.1 })
        .rounds(20)
        .eval_every(20)
        .seed(31)
        .init_fill(1.0)
        .run()
        .unwrap();
    assert_eq!(
        digest(report.final_params.as_slice()),
        0x7453_6263_fde3_ff2f
    );
    let last = report.history.rounds.last().unwrap();
    assert_eq!(last.loss.unwrap().to_bits(), 0x401f_eafd_d850_2734);
}
