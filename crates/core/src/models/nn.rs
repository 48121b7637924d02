//! The feed-forward NN PCC model.
//!
//! Aggregated job-level features → MLP → two raw outputs, decoded through
//! softplus heads into the power-law parameters. Monotonicity is
//! guaranteed by construction (Section 4.5). Trained with LF1/LF2/LF3.

use super::{PccPredictor, PredictedPcc, ScoringInput};
use crate::dataset::Dataset;
use crate::featurize::{FeatureScaler, JobFeatures, JOB_FEATURE_DIM};
use crate::loss::{self, LossConfig, LossSample};
use crate::pcc::{ParamScaler, PowerLawPcc};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tasq_codec::{CodecError, Wire};
use tasq_ml::matrix::Matrix;
use tasq_ml::nn::{Activation, Mlp};
use tasq_ml::optim::AdamConfig;
use tasq_ml::rand_ext;

/// NN training configuration.
#[derive(Debug, Clone)]
pub struct NnTrainConfig {
    /// Hidden layer sizes.
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Loss composition.
    pub loss: LossConfig,
    /// Seed for init + shuffling.
    pub seed: u64,
    /// Fraction of examples held out for validation (0 disables the
    /// validation split and early stopping).
    pub validation_fraction: f64,
    /// Stop after this many epochs without validation-loss improvement
    /// and restore the best weights (requires a validation split).
    pub early_stopping_patience: Option<usize>,
}

impl Default for NnTrainConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32, 16],
            epochs: 150,
            batch_size: 32,
            learning_rate: 2e-3,
            loss: LossConfig::default(),
            seed: 0,
            validation_fraction: 0.0,
            early_stopping_patience: None,
        }
    }
}

/// The trained NN model.
#[derive(Debug, Clone)]
pub struct NnPcc {
    mlp: Mlp,
    feature_scaler: FeatureScaler,
    param_scaler: ParamScaler,
    /// Mean training loss per epoch, for diagnostics.
    pub training_loss: Vec<f64>,
    /// Mean validation loss per epoch (empty without a validation split).
    pub validation_loss: Vec<f64>,
}

/// Encoded field by field, like a derived struct. The decode is written
/// out because [`NnPcc::predict_pcc`] trusts the parts to fit together:
/// a scaler that is not as wide as the job features, a network whose
/// input is not the scaler's width, or an output that is not the two
/// power-law parameters is refused as corrupt here rather than panicking
/// on every request.
impl Wire for NnPcc {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.mlp.encode(out);
        self.feature_scaler.encode(out);
        self.param_scaler.encode(out);
        self.training_loss.encode(out);
        self.validation_loss.encode(out);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let model = Self {
            mlp: Mlp::decode(input)?,
            feature_scaler: FeatureScaler::decode(input)?,
            param_scaler: ParamScaler::decode(input)?,
            training_loss: Vec::<f64>::decode(input)?,
            validation_loss: Vec::<f64>::decode(input)?,
        };
        let width = model.feature_scaler.dim();
        if width != JOB_FEATURE_DIM || model.mlp.in_dim() != width {
            return Err(CodecError::Invalid("NN input is not as wide as the job features"));
        }
        if model.mlp.out_dim() != 2 {
            return Err(CodecError::Invalid("NN output is not the two power-law parameters"));
        }
        Ok(model)
    }
}

impl NnPcc {
    /// Train without an XGBoost teacher (LF1/LF2 only).
    ///
    /// # Panics
    /// Panics if the dataset is empty or the loss is LF3 (which needs a
    /// teacher — use [`NnPcc::train_with_teacher`]).
    pub fn train(dataset: &Dataset, config: &NnTrainConfig) -> Self {
        Self::train_with_teacher(dataset, config, None)
    }

    /// Train, optionally with per-example teacher run times (XGBoost
    /// predictions at each example's observed token count) for LF3.
    pub fn train_with_teacher(
        dataset: &Dataset,
        config: &NnTrainConfig,
        teacher_runtimes: Option<&[f64]>,
    ) -> Self {
        assert!(!dataset.is_empty(), "NnPcc::train: empty dataset");
        if let Some(t) = teacher_runtimes {
            assert_eq!(t.len(), dataset.len(), "NnPcc::train: teacher length mismatch");
        }
        let raw_rows = dataset.job_feature_rows();
        let feature_scaler = FeatureScaler::fit(&raw_rows);
        let rows = feature_scaler.transform_all(&raw_rows);
        let dim = feature_scaler.dim();
        let param_scaler = ParamScaler::fit(&dataset.target_pccs());

        let samples: Vec<LossSample> = dataset
            .examples
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let (t1, t2) = param_scaler.to_targets(&e.target_pcc);
                LossSample {
                    target_t1: t1,
                    target_t2: t2,
                    observed_tokens: e.observed_tokens,
                    observed_runtime: e.observed_runtime,
                    teacher_runtime: teacher_runtimes.map(|t| t[i]),
                }
            })
            .collect();

        let n = rows.len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sizes = vec![feature_scaler.dim()];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(2);
        let mut mlp = Mlp::new(&mut rng, &sizes, Activation::Relu, Activation::Identity);
        let (mut adam, ids) = mlp.make_optimizer(AdamConfig {
            learning_rate: config.learning_rate,
            ..Default::default()
        });

        // Optional validation split: a deterministic shuffled holdout.
        let mut all: Vec<usize> = (0..n).collect();
        rand_ext::shuffle(&mut rng, &mut all);
        let holdout = ((n as f64) * config.validation_fraction.clamp(0.0, 0.5)) as usize;
        let (validation_idx, train_idx) = all.split_at(holdout);
        let mut order: Vec<usize> = train_idx.to_vec();
        if order.is_empty() {
            order = (0..n).collect();
        }
        let mut training_loss = Vec::with_capacity(config.epochs);
        let mut validation_loss = Vec::with_capacity(config.epochs);
        let mut best: Option<(f64, Mlp)> = None;
        let mut stale_epochs = 0usize;
        // Per-step buffers, reused for the whole run: the batch, the forward
        // caches, the weight transposes and the gradients.
        let (mut x, mut d_out) = (Matrix::default(), Matrix::default());
        let (mut cache, mut weights_t, mut grads) = Default::default();
        for epoch in 0..config.epochs {
            if let Some(patience) = config.early_stopping_patience {
                if stale_epochs >= patience.max(1) {
                    break;
                }
            }
            let _span = tasq_obs::span(
                tasq_obs::Level::Debug,
                "nn_epoch",
                &[
                    ("epoch", tasq_obs::FieldValue::U64(epoch as u64)),
                    ("examples", tasq_obs::FieldValue::U64(order.len() as u64)),
                ],
            );
            rand_ext::shuffle(&mut rng, &mut order);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(config.batch_size.max(1)) {
                x.reset_zeros(batch.len(), dim);
                for (bi, &i) in batch.iter().enumerate() {
                    x.row_mut(bi).copy_from_slice(&rows[i]);
                }
                let out = mlp.forward_cached(&x, &mut cache);
                d_out.reset_zeros(batch.len(), 2);
                for (bi, &i) in batch.iter().enumerate() {
                    let eval = loss::evaluate(
                        &config.loss,
                        &param_scaler,
                        out[(bi, 0)],
                        out[(bi, 1)],
                        &samples[i],
                    );
                    epoch_loss += eval.loss;
                    let inv = 1.0 / batch.len() as f64;
                    d_out[(bi, 0)] = eval.grad_o1 * inv;
                    d_out[(bi, 1)] = eval.grad_o2 * inv;
                }
                // The batch is data: nobody reads its gradient.
                mlp.transpose_weights_into(&mut weights_t);
                mlp.zero_grads(&mut grads);
                mlp.backward(&mut cache, &weights_t, &d_out, &mut grads, None);
                mlp.apply_grads(&mut adam, &ids, &grads);
            }
            training_loss.push(epoch_loss / order.len() as f64);

            if !validation_idx.is_empty() {
                let mut val_loss = 0.0;
                for &i in validation_idx {
                    let mut out = [0.0; 2];
                    mlp.forward_row(&rows[i], &mut out);
                    val_loss +=
                        loss::evaluate(&config.loss, &param_scaler, out[0], out[1], &samples[i])
                            .loss;
                }
                val_loss /= validation_idx.len() as f64;
                validation_loss.push(val_loss);
                if config.early_stopping_patience.is_some() {
                    let improved = best.as_ref().is_none_or(|(b, _)| val_loss < *b);
                    if improved {
                        best = Some((val_loss, mlp.clone()));
                        stale_epochs = 0;
                    } else {
                        stale_epochs += 1;
                    }
                }
            }
        }
        if let Some((_, best_mlp)) = best {
            mlp = best_mlp;
        }

        Self { mlp, feature_scaler, param_scaler, training_loss, validation_loss }
    }

    /// Predict the power-law PCC for job-level features. The features
    /// are scaled into a stack row and the network runs once on it
    /// ([`Mlp::forward_row`]), so a prediction allocates nothing.
    pub fn predict_pcc(&self, features: &JobFeatures) -> PowerLawPcc {
        let mut x = [0.0; JOB_FEATURE_DIM];
        self.feature_scaler.transform_into(&features.values, &mut x);
        let mut out = [0.0; 2];
        self.mlp.forward_row(&x, &mut out);
        loss::decode_outputs(out[0], out[1], &self.param_scaler)
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.mlp.param_count()
    }
}

impl PccPredictor for NnPcc {
    fn name(&self) -> &'static str {
        "NN"
    }

    fn predict(&self, input: &ScoringInput<'_>) -> PredictedPcc {
        PredictedPcc::PowerLaw(self.predict_pcc(input.features))
    }

    fn param_count(&self) -> usize {
        self.num_parameters()
    }
}

/// The allocating `predict_pcc` recipe as it stood before
/// [`Mlp::forward_row`]: a fresh scaled vector, a one-row matrix, and per
/// layer a product, a broadcast bias add and an activation map, each into
/// a new matrix. Kept as the oracle the one-row path must match bit for
/// bit.
#[cfg(test)]
mod reference {
    use super::{loss, JobFeatures, Matrix, NnPcc, PowerLawPcc};

    pub fn predict_pcc(model: &NnPcc, features: &JobFeatures) -> PowerLawPcc {
        let mut h = Matrix::row_vector(&model.feature_scaler.transform(&features.values));
        for (i, layer) in model.mlp.layers().iter().enumerate() {
            let mut pre = h.matmul(&layer.weight);
            pre.add_row_broadcast(layer.bias.as_slice());
            h = model.mlp.activation(i).apply(&pre);
        }
        loss::decode_outputs(h[(0, 0)], h[(0, 1)], &model.param_scaler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use crate::featurize::featurize_job;
    use crate::loss::LossKind;
    use rand::Rng;
    use scope_sim::{Archetype, StageGraph, WorkloadConfig, WorkloadGenerator};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let jobs =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
                .generate();
        Dataset::build(&jobs, &AugmentConfig::default())
    }

    fn quick(epochs: usize) -> NnTrainConfig {
        NnTrainConfig { epochs, ..Default::default() }
    }

    #[test]
    fn predictions_always_monotone() {
        let ds = dataset(40, 3);
        let model = NnPcc::train(&ds, &quick(20));
        for e in &ds.examples {
            let pcc = model.predict_pcc(&e.features);
            assert!(pcc.is_non_increasing(), "{pcc:?}");
            assert!(pcc.b > 0.0);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = dataset(60, 5);
        let model = NnPcc::train(&ds, &quick(60));
        let first = model.training_loss[0];
        let last = *model.training_loss.last().unwrap();
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    #[test]
    fn learns_pcc_parameters_in_sample() {
        let ds = dataset(80, 7);
        let model = NnPcc::train(&ds, &quick(120));
        let mut errors = Vec::new();
        for e in &ds.examples {
            let pred = model.predict_pcc(&e.features);
            errors.push((pred.a - e.target_pcc.a).abs());
        }
        let mae = tasq_ml::stats::mean(&errors);
        // Targets' |a| are mostly in 0..1; a coarse fit should beat 0.25.
        assert!(mae < 0.25, "curve-parameter MAE {mae}");
    }

    #[test]
    fn lf3_requires_teacher() {
        let ds = dataset(10, 9);
        let config = NnTrainConfig {
            loss: LossConfig::of_kind(LossKind::Lf3),
            epochs: 2,
            ..Default::default()
        };
        let teacher: Vec<f64> = ds.examples.iter().map(|e| e.observed_runtime).collect();
        let model = NnPcc::train_with_teacher(&ds, &config, Some(&teacher));
        assert!(model.training_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    #[should_panic(expected = "teacher length mismatch")]
    fn wrong_teacher_length_panics() {
        let ds = dataset(5, 11);
        let _ = NnPcc::train_with_teacher(&ds, &quick(1), Some(&[1.0, 2.0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset(15, 13);
        let m1 = NnPcc::train(&ds, &quick(5));
        let m2 = NnPcc::train(&ds, &quick(5));
        let p1 = m1.predict_pcc(&ds.examples[0].features);
        let p2 = m2.predict_pcc(&ds.examples[0].features);
        assert_eq!(p1, p2);
    }

    #[test]
    fn early_stopping_halts_and_tracks_validation() {
        let ds = dataset(60, 19);
        let config = NnTrainConfig {
            epochs: 200,
            validation_fraction: 0.25,
            early_stopping_patience: Some(5),
            ..Default::default()
        };
        let model = NnPcc::train(&ds, &config);
        assert!(!model.validation_loss.is_empty());
        assert!(
            model.training_loss.len() <= 200,
            "ran {} epochs",
            model.training_loss.len()
        );
        // Validation loss was computed once per executed epoch.
        assert_eq!(model.training_loss.len(), model.validation_loss.len());
        // Predictions still monotone.
        for e in &ds.examples {
            assert!(model.predict_pcc(&e.features).is_non_increasing());
        }
    }

    #[test]
    fn validation_split_off_keeps_behavior() {
        let ds = dataset(20, 23);
        let model = NnPcc::train(&ds, &quick(5));
        assert!(model.validation_loss.is_empty());
        assert_eq!(model.training_loss.len(), 5);
    }

    /// `predict_pcc` answers as the allocating recipe did, to the bit, on
    /// jobs of every generator archetype at 16 seeded sizes and
    /// allocations, for the default network and a one-hidden-layer one.
    #[test]
    fn predict_pcc_matches_the_allocating_recipe_on_every_archetype() {
        let ds = dataset(24, 23);
        let models = [
            NnPcc::train(&ds, &quick(6)),
            NnPcc::train(&ds, &NnTrainConfig { hidden: vec![64], epochs: 4, seed: 5, ..quick(0) }),
        ];
        for archetype in Archetype::ALL {
            for seed in 0..16u64 {
                let mut rng = StdRng::seed_from_u64(seed ^ ((archetype.index() as u64) << 32));
                let size_factor = rng.gen_range(0.05..20.0);
                let plan = archetype.build_plan(rng.gen(), size_factor, rng.gen_range(1..=2000));
                let features = featurize_job(&plan, StageGraph::count_stages(&plan));
                for model in &models {
                    let (got, want) =
                        (model.predict_pcc(&features), reference::predict_pcc(model, &features));
                    assert_eq!(
                        (got.a.to_bits(), got.b.to_bits()),
                        (want.a.to_bits(), want.b.to_bits()),
                        "{archetype:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_scale_parameter_count() {
        let ds = dataset(5, 17);
        let model = NnPcc::train(&ds, &quick(1));
        // 51*32+32 + 32*16+16 + 16*2+2 = 2,226 — the same ballpark as the
        // paper's 2,216 (their feature count differs slightly).
        assert_eq!(model.num_parameters(), 2226);
    }
}
