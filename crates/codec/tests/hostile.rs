//! Hostile input: bytes from the network or a damaged disk decode to a
//! typed `CodecError`, never a panic or an unbounded allocation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scope_sim::{Job, WorkloadConfig, WorkloadGenerator};
use tasq::pipeline::{ScoreResponse, ScoringConfig, ScoringService};
use tasq_codec::{from_bytes, to_bytes, CodecError, Wire};

#[derive(Debug, PartialEq, Wire)]
enum Two {
    A,
    B(u8),
}

/// A `u64` length prefix followed by `tail`.
fn prefixed(len: u64, tail: &[u8]) -> Vec<u8> {
    let mut bytes = len.to_le_bytes().to_vec();
    bytes.extend_from_slice(tail);
    bytes
}

#[test]
fn a_huge_length_prefix_is_end_of_input_not_an_allocation() {
    let huge = prefixed(u64::MAX, &[0; 16]);
    assert_eq!(from_bytes::<String>(&huge), Err(CodecError::UnexpectedEof));
    assert_eq!(from_bytes::<Vec<f64>>(&huge), Err(CodecError::UnexpectedEof));
    assert!(matches!(from_bytes::<Vec<Job>>(&huge), Err(CodecError::UnexpectedEof)));
}

#[test]
fn bad_tags_and_variant_indices_are_invalid() {
    assert_eq!(from_bytes::<bool>(&[2]), Err(CodecError::Invalid("bool tag")));
    assert_eq!(from_bytes::<Option<u8>>(&[2, 0]), Err(CodecError::Invalid("option tag")));
    assert_eq!(from_bytes::<Two>(&[1, 0, 0, 0, 5]), Ok(Two::B(5)));
    assert!(matches!(from_bytes::<Two>(&[2, 0, 0, 0]), Err(CodecError::Invalid(_))));
    assert!(matches!(from_bytes::<Two>(&[0, 0, 0, 1]), Err(CodecError::Invalid(_))));
}

#[test]
fn bad_text_is_invalid() {
    assert_eq!(
        from_bytes::<String>(&prefixed(2, &[0xff, 0xfe])),
        Err(CodecError::Invalid("utf-8"))
    );
    let surrogate = 0xd800u32.to_le_bytes();
    assert_eq!(from_bytes::<char>(&surrogate), Err(CodecError::Invalid("char")));
    let past_unicode = 0x11_0000u32.to_le_bytes();
    assert_eq!(from_bytes::<char>(&past_unicode), Err(CodecError::Invalid("char")));
}

/// Every strict prefix of `bytes` is end of input, and flipping bytes at
/// random either decodes or fails with a typed error.
fn survives_damage<T: Wire + std::fmt::Debug>(bytes: &[u8], rng: &mut StdRng) {
    assert!(from_bytes::<T>(bytes).is_ok(), "the intact value decodes");
    for cut in 0..bytes.len() {
        assert!(
            matches!(from_bytes::<T>(&bytes[..cut]), Err(CodecError::UnexpectedEof)),
            "prefix of {cut} of {} bytes",
            bytes.len()
        );
    }
    for _ in 0..256 {
        let mut damaged = bytes.to_vec();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..damaged.len());
            damaged[at] ^= rng.gen_range(1..=255u8);
        }
        // Either outcome is fine; the decoder must only not panic.
        let _ = from_bytes::<T>(&damaged);
    }
}

#[test]
fn truncated_and_flipped_jobs_and_responses_fail_typed() {
    let mut rng = StdRng::seed_from_u64(0x00c0_dec0);
    let jobs =
        WorkloadGenerator::new(WorkloadConfig { num_jobs: 6, seed: 41, ..Default::default() })
            .generate();
    let services = [
        ScoringService::analytic(ScoringConfig::default()),
        ScoringService::analytic(ScoringConfig { automatic: false, ..Default::default() }),
    ];
    for job in &jobs {
        survives_damage::<Job>(&to_bytes(job).unwrap(), &mut rng);
        for service in &services {
            let response = service.score(job);
            survives_damage::<ScoreResponse>(&to_bytes(&response).unwrap(), &mut rng);
        }
    }
}
