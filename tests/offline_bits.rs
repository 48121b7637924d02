//! Golden bits of the offline pass.
//!
//! The training kernels are optimised under one rule: no trained artifact
//! may change by a single bit. This test folds every number the offline
//! half produces on a small seeded workload — booster predictions, the
//! serialized NN and GNN, the held-out evaluation rows — into one `u64`
//! and pins it. [`PARENT_BITS`] was recorded at the commit *before* the
//! allocation-free kernels, the GNN fan-out and the caller-as-worker pool
//! landed (b3c2ea3), so it is the allocating, sequential implementation's
//! answer; it must hold at every thread count.

use scope_sim::{WorkloadConfig, WorkloadGenerator};
use tasq::augment::AugmentConfig;
use tasq::codec;
use tasq::dataset::Dataset;
use tasq::eval::evaluate_model;
use tasq::models::{
    GnnPcc, GnnTrainConfig, NnPcc, NnTrainConfig, PccPredictor, XgbRuntime, XgbTrainConfig,
    XgboostPl,
};
use tasq_ml::gbdt::Booster;
use tasq_par::Pool;

/// Recorded at b3c2ea3 (see the module docs). Never re-record this to
/// make a kernel change pass: a different value means a float moved.
const PARENT_BITS: u64 = 0x128c_7f70_b730_7419;

const JOBS: usize = 48;
const HELD_OUT: usize = 12;

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

fn offline_bits(pool: &Pool) -> u64 {
    let jobs =
        WorkloadGenerator::new(WorkloadConfig { num_jobs: JOBS, seed: 23, ..Default::default() })
            .generate();
    let (train, held_out) = jobs.split_at(JOBS - HELD_OUT);
    let train = Dataset::build_with_pool(train, &AugmentConfig::default(), pool);
    let held_out = Dataset::build_with_pool(held_out, &AugmentConfig::default(), pool);
    assert_eq!(train.len() + held_out.len(), JOBS);

    let mut bits = 0u64;
    let (rows, targets) = train.xgb_rows();
    let booster = Booster::train_with_pool(
        &rows,
        &targets,
        &XgbRuntime::booster_config(&XgbTrainConfig { num_rounds: 20, ..Default::default() }),
        pool,
    );
    for prediction in booster.predict(&rows) {
        fold(&mut bits, prediction.to_bits());
    }
    let nn = NnPcc::train(&train, &NnTrainConfig { epochs: 10, ..Default::default() });
    fold_bytes(&mut bits, &codec::to_bytes(&nn).expect("NN serializes"));
    let gnn =
        GnnPcc::train_with_pool(&train, &GnnTrainConfig { epochs: 3, ..Default::default() }, None, pool);
    fold_bytes(&mut bits, &codec::to_bytes(&gnn).expect("GNN serializes"));

    let xgb_pl = XgboostPl::new(XgbRuntime::from_booster(booster));
    let models: [&dyn PccPredictor; 3] = [&nn, &xgb_pl, &gnn];
    for model in models {
        let row = evaluate_model(model, &held_out);
        fold(&mut bits, row.pattern_non_increase.to_bits());
        fold(&mut bits, row.mae_curve_params.map_or(u64::MAX, f64::to_bits));
        fold(&mut bits, row.median_ae_runtime.to_bits());
    }
    bits
}

#[test]
fn offline_pass_reproduces_the_parent_bits_at_every_thread_count() {
    // Three threads is the first count with two roles claiming from the
    // back of a GNN minibatch.
    for pool in [Pool::sequential(), Pool::new(2), Pool::new(3)] {
        assert_eq!(
            offline_bits(&pool),
            PARENT_BITS,
            "a trained artifact moved at {} thread(s)",
            pool.threads()
        );
    }
}
