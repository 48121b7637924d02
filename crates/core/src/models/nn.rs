//! The feed-forward NN PCC model.
//!
//! Aggregated job-level features → MLP → two raw outputs, decoded through
//! softplus heads into the power-law parameters. Monotonicity is
//! guaranteed by construction (Section 4.5). Trained with LF1/LF2/LF3.

use super::{PccPredictor, PredictedPcc, ScoringInput};
use crate::dataset::Dataset;
use crate::featurize::{FeatureScaler, JobFeatures};
use crate::loss::{self, LossConfig, LossSample};
use crate::pcc::{ParamScaler, PowerLawPcc};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tasq_ml::matrix::Matrix;
use tasq_ml::nn::{Activation, Mlp};
use tasq_ml::optim::{Adam, AdamConfig, ParamId};
use tasq_ml::rand_ext;

/// NN training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Serializable snapshot of NN training captured after a completed epoch.
///
/// Holds every piece of mutable training state — weights, Adam moments,
/// RNG state, shuffle order, early-stopping bookkeeping — so a run killed
/// after any epoch and resumed via [`NnPcc::train_with_teacher_resumable`]
/// replays the remaining epochs bit-identically. The immutable inputs
/// (dataset rows, scalers, loss samples) are *not* stored; they are
/// recomputed deterministically, so a checkpoint is only valid with the
/// same dataset, config, and teacher it was captured under.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NnTrainCheckpoint {
    /// Number of epochs fully completed.
    pub epoch: usize,
    /// RNG state after the completed epoch's shuffling.
    pub rng_state: [u64; 4],
    /// Network weights after the completed epoch.
    pub mlp: Mlp,
    /// Adam optimizer moments and step count.
    pub adam: Adam,
    /// Parameter ids (weight, bias) per layer, paired with `adam`.
    pub ids: Vec<(ParamId, ParamId)>,
    /// Deterministic validation holdout row indices.
    pub validation_idx: Vec<usize>,
    /// Training row order as of the completed epoch's shuffle.
    pub order: Vec<usize>,
    /// Best validation loss and weights seen so far (early stopping).
    pub best: Option<(f64, Mlp)>,
    /// Epochs since the validation loss last improved.
    pub stale_epochs: usize,
    /// Mean training loss per completed epoch.
    pub training_loss: Vec<f64>,
    /// Mean validation loss per completed epoch (empty without a split).
    pub validation_loss: Vec<f64>,
}

/// The trained NN model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NnPcc {
    mlp: Mlp,
    feature_scaler: FeatureScaler,
    param_scaler: ParamScaler,
    /// Mean training loss per epoch, for diagnostics.
    pub training_loss: Vec<f64>,
    /// Mean validation loss per epoch (empty without a validation split).
    pub validation_loss: Vec<f64>,
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
        match Self::train_with_teacher_resumable(dataset, config, teacher_runtimes, None, &mut |_| {
            true
        }) {
            Some(model) => model,
            // lint: allow(no-panic) — the always-continue callback above can never halt training
            None => unreachable!("uninterruptible NN training halted"),
        }
    }

    /// Train with per-epoch checkpointing and optional resume.
    ///
    /// After every completed epoch an [`NnTrainCheckpoint`] is handed to
    /// `on_epoch`; returning `false` halts training and the function
    /// returns `None` (the caller keeps the checkpoint). Passing the
    /// checkpoint back as `resume` — with the *same* dataset, config and
    /// teacher — replays only the remaining epochs and produces a model
    /// bit-identical to an uninterrupted run, including the early-stopping
    /// decision and best-weights restoration.
    pub fn train_with_teacher_resumable(
        dataset: &Dataset,
        config: &NnTrainConfig,
        teacher_runtimes: Option<&[f64]>,
        resume: Option<NnTrainCheckpoint>,
        on_epoch: &mut dyn FnMut(&NnTrainCheckpoint) -> bool,
    ) -> Option<Self> {
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
        let (
            start_epoch,
            mut rng,
            mut mlp,
            mut adam,
            ids,
            validation_idx,
            mut order,
            mut training_loss,
            mut validation_loss,
            mut best,
            mut stale_epochs,
        ) = if let Some(ckpt) = resume {
            assert!(ckpt.epoch <= config.epochs, "NnPcc: checkpoint beyond configured epochs");
            assert_eq!(
                ckpt.training_loss.len(),
                ckpt.epoch,
                "NnPcc: checkpoint loss history inconsistent with epoch count"
            );
            (
                ckpt.epoch,
                StdRng::from_state(ckpt.rng_state),
                ckpt.mlp,
                ckpt.adam,
                ckpt.ids,
                ckpt.validation_idx,
                ckpt.order,
                ckpt.training_loss,
                ckpt.validation_loss,
                ckpt.best,
                ckpt.stale_epochs,
            )
        } else {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut sizes = vec![feature_scaler.dim()];
            sizes.extend_from_slice(&config.hidden);
            sizes.push(2);
            let mlp = Mlp::new(&mut rng, &sizes, Activation::Relu, Activation::Identity);
            let (adam, ids) = mlp.make_optimizer(AdamConfig {
                learning_rate: config.learning_rate,
                ..Default::default()
            });

            // Optional validation split: a deterministic shuffled holdout.
            let mut all: Vec<usize> = (0..n).collect();
            rand_ext::shuffle(&mut rng, &mut all);
            let holdout = ((n as f64) * config.validation_fraction.clamp(0.0, 0.5)) as usize;
            let (validation_idx, train_idx) = all.split_at(holdout);
            let validation_idx = validation_idx.to_vec();
            let mut order: Vec<usize> = train_idx.to_vec();
            if order.is_empty() {
                order = (0..n).collect();
            }
            (
                0,
                rng,
                mlp,
                adam,
                ids,
                validation_idx,
                order,
                Vec::with_capacity(config.epochs),
                Vec::with_capacity(config.epochs),
                None::<(f64, Mlp)>,
                0usize,
            )
        };
        // Per-step buffers, reused for the whole run: the batch, the forward
        // caches, the weight transposes and the gradients.
        let (mut x, mut d_out) = (Matrix::default(), Matrix::default());
        let (mut cache, mut weights_t, mut grads) = Default::default();
        for epoch in start_epoch..config.epochs {
            // Early stopping is checked at the top of the iteration (rather
            // than breaking mid-epoch) so a resumed run that restored
            // `stale_epochs` at the stopping point halts identically.
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
                mlp.backward(&mut cache, &weights_t, &d_out, &mut grads, None);
                mlp.apply_grads(&mut adam, &ids, &grads);
            }
            training_loss.push(epoch_loss / order.len() as f64);

            if !validation_idx.is_empty() {
                let mut val_loss = 0.0;
                for &i in &validation_idx {
                    let x = Matrix::row_vector(&rows[i]);
                    let out = mlp.forward(&x);
                    val_loss += loss::evaluate(
                        &config.loss,
                        &param_scaler,
                        out[(0, 0)],
                        out[(0, 1)],
                        &samples[i],
                    )
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

            let checkpoint = NnTrainCheckpoint {
                epoch: epoch + 1,
                rng_state: rng.state(),
                mlp: mlp.clone(),
                adam: adam.clone(),
                ids: ids.clone(),
                validation_idx: validation_idx.clone(),
                order: order.clone(),
                best: best.clone(),
                stale_epochs,
                training_loss: training_loss.clone(),
                validation_loss: validation_loss.clone(),
            };
            if !on_epoch(&checkpoint) {
                return None;
            }
        }
        if let Some((_, best_mlp)) = best {
            mlp = best_mlp;
        }

        Some(Self { mlp, feature_scaler, param_scaler, training_loss, validation_loss })
    }

    /// Predict the power-law PCC for job-level features.
    pub fn predict_pcc(&self, features: &JobFeatures) -> PowerLawPcc {
        let x = Matrix::row_vector(&self.feature_scaler.transform(&features.values));
        let out = self.mlp.forward(&x);
        loss::decode_outputs(out[(0, 0)], out[(0, 1)], &self.param_scaler)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use crate::loss::LossKind;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

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

    #[test]
    fn kill_and_resume_is_bit_identical_at_every_epoch() {
        let ds = dataset(40, 29);
        let config = NnTrainConfig {
            epochs: 12,
            validation_fraction: 0.25,
            early_stopping_patience: Some(3),
            ..Default::default()
        };
        let full = NnPcc::train(&ds, &config);
        let executed = full.training_loss.len();
        assert!(executed >= 2, "want several epochs to kill at");

        for kill_at in 1..=executed {
            let mut taken: Option<NnTrainCheckpoint> = None;
            let halted =
                NnPcc::train_with_teacher_resumable(&ds, &config, None, None, &mut |ckpt| {
                    if ckpt.epoch == kill_at {
                        taken = Some(ckpt.clone());
                        false
                    } else {
                        true
                    }
                });
            assert!(halted.is_none(), "kill at epoch {kill_at} should halt");
            let ckpt = taken.unwrap();

            // The checkpoint must survive the wire format it will be
            // persisted through.
            let bytes = crate::codec::to_bytes(&ckpt).unwrap();
            let ckpt: NnTrainCheckpoint = crate::codec::from_bytes(&bytes).unwrap();

            let resumed =
                NnPcc::train_with_teacher_resumable(&ds, &config, None, Some(ckpt), &mut |_| true)
                    .unwrap();
            assert_eq!(resumed.training_loss, full.training_loss, "kill at {kill_at}");
            assert_eq!(resumed.validation_loss, full.validation_loss, "kill at {kill_at}");
            for e in ds.examples.iter().take(8) {
                assert_eq!(
                    resumed.predict_pcc(&e.features),
                    full.predict_pcc(&e.features),
                    "kill at {kill_at}"
                );
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
