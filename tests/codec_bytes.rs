//! Golden bytes of `tasq::codec`.
//!
//! The codec carries every wire request and response and every stored
//! model artifact, so a faster encoder or decoder must produce the same
//! bytes as the slow one. This test folds the encoding of a seeded
//! workload (64 jobs over every generator archetype), the responses two
//! scoring services give for it, and a small trained NN and XGBoost
//! artifact into one `u64` and pins it, and checks that each value
//! decodes back to the same bytes. [`PARENT_BYTES`] was recorded with the
//! codec as it stood before its serializer was made inlinable and moved
//! onto a plain `Vec<u8>` (88b0d65).

use scope_sim::{Archetype, Job, WorkloadConfig, WorkloadGenerator};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::BTreeSet;
use tasq::augment::AugmentConfig;
use tasq::codec;
use tasq::dataset::Dataset;
use tasq::models::{NnPcc, NnTrainConfig, XgbRuntime, XgbTrainConfig};
use tasq::pipeline::{
    ModelChoice, ModelStore, ScoreResponse, ScoringConfig, ScoringService, NN_MODEL_NAME,
    XGB_MODEL_NAME,
};
use tasq_par::Pool;

/// Recorded at 88b0d65 (see the module docs). Never re-record this to
/// make a codec change pass: a different value means a byte moved.
const PARENT_BYTES: u64 = 0xcf9f_eba9_d888_4705;

const JOBS: usize = 64;
const TRAIN: usize = 24;

/// Order-sensitive fold (the benchmark's fingerprint mix).
fn fold(fingerprint: &mut u64, bits: u64) {
    *fingerprint = (*fingerprint ^ bits).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17);
}

fn fold_bytes(fingerprint: &mut u64, bytes: &[u8]) {
    fold(fingerprint, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fold(fingerprint, u64::from_le_bytes(word));
    }
}

/// Encode `value`, fold its bytes, and require that decoding them and
/// encoding again gives the same bytes.
fn fold_value<T: Serialize + DeserializeOwned>(fingerprint: &mut u64, value: &T, what: &str) {
    let bytes = codec::to_bytes(value).expect("encodes").to_vec();
    let back: T = codec::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what} decodes: {e}"));
    let again = codec::to_bytes(&back).expect("re-encodes").to_vec();
    assert_eq!(again, bytes, "{what} does not round-trip to the same bytes");
    fold_bytes(fingerprint, &bytes);
}

fn codec_bytes() -> u64 {
    let jobs: Vec<Job> =
        WorkloadGenerator::new(WorkloadConfig { num_jobs: JOBS, seed: 29, ..Default::default() })
            .generate();
    let archetypes: BTreeSet<usize> = jobs.iter().map(|j| j.meta.archetype.index()).collect();
    assert_eq!(archetypes.len(), Archetype::ALL.len(), "every archetype is encoded");

    let train =
        Dataset::build_with_pool(&jobs[..TRAIN], &AugmentConfig::default(), &Pool::sequential());
    let nn = NnPcc::train(&train, &NnTrainConfig { epochs: 4, ..Default::default() });
    let xgb = XgbRuntime::train(&train, &XgbTrainConfig { num_rounds: 10, ..Default::default() });
    let store = ModelStore::new();
    store.register(XGB_MODEL_NAME, &xgb).expect("registers");
    store.register(NN_MODEL_NAME, &nn).expect("registers");
    // The NN service answers with a token grant, the XGBoost PL one with
    // the whole curve: both decision shapes are on the wire.
    let services = [
        ScoringService::deploy(&store, ModelChoice::Nn, ScoringConfig::default()),
        ScoringService::deploy(
            &store,
            ModelChoice::XgboostPl,
            ScoringConfig { automatic: false, ..Default::default() },
        ),
    ]
    .map(|service| service.expect("deploys"));

    let mut bits = 0u64;
    for job in &jobs {
        fold_value(&mut bits, job, "job");
        for service in &services {
            let response: ScoreResponse = service.score(job);
            fold_value(&mut bits, &response, "response");
        }
    }
    fold_value(&mut bits, &nn, "NN artifact");
    fold_value(&mut bits, &xgb, "XGBoost artifact");
    bits
}

#[test]
fn codec_reproduces_the_parent_bytes() {
    assert_eq!(codec_bytes(), PARENT_BYTES, "the codec's bytes moved");
}
