//! The GNN PCC model (paper Figure 10).
//!
//! Operator-level features + plan DAG → GCN node embeddings → attention
//! pooling (node importance vs. a learned global context) → fully-
//! connected head → two raw outputs decoded into power-law parameters,
//! monotone by construction.

use super::{PccPredictor, PredictedPcc, ScoringInput};
use crate::dataset::Dataset;
use crate::featurize::{FeatureScaler, OperatorFeatures};
use crate::loss::{self, LossConfig, LossSample};
use crate::pcc::{ParamScaler, PowerLawPcc};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tasq_codec::Wire;
use tasq_ml::gnn::{GnnModel, GraphData};
use tasq_ml::matrix::Matrix;
use tasq_ml::optim::AdamConfig;
use tasq_ml::rand_ext;
use tasq_par::Pool;

/// GNN training configuration.
#[derive(Debug, Clone)]
pub struct GnnTrainConfig {
    /// GCN layer output dims.
    pub gcn_dims: Vec<usize>,
    /// Hidden sizes of the FC head.
    pub head_hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Graphs per gradient step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Loss composition.
    pub loss: LossConfig,
    /// Seed for init + shuffling.
    pub seed: u64,
    /// Fraction of graphs held out for validation (0 disables).
    pub validation_fraction: f64,
    /// Stop after this many epochs without validation improvement and
    /// restore the best weights (requires a validation split).
    pub early_stopping_patience: Option<usize>,
}

impl Default for GnnTrainConfig {
    fn default() -> Self {
        Self {
            // Three GCN layers + 64-wide head: 19,906 parameters with the
            // 49-dim operator features — the paper's GNN has 19,210.
            gcn_dims: vec![64, 64, 64],
            head_hidden: vec![64],
            epochs: 60,
            batch_size: 16,
            learning_rate: 2e-3,
            loss: LossConfig::default(),
            seed: 0,
            validation_fraction: 0.0,
            early_stopping_patience: None,
        }
    }
}

/// The trained GNN model.
#[derive(Debug, Clone, Wire)]
pub struct GnnPcc {
    model: GnnModel,
    op_scaler: FeatureScaler,
    param_scaler: ParamScaler,
    /// Mean training loss per epoch, for diagnostics.
    pub training_loss: Vec<f64>,
    /// Mean validation loss per epoch (empty without a validation split).
    pub validation_loss: Vec<f64>,
}

impl GnnPcc {
    /// Train without an XGBoost teacher (LF1/LF2).
    pub fn train(dataset: &Dataset, config: &GnnTrainConfig) -> Self {
        Self::train_with_teacher(dataset, config, None)
    }

    /// Train, optionally with per-example teacher run times for LF3, on
    /// a pool sized to the available hardware parallelism.
    ///
    /// # Panics
    /// Panics on an empty dataset or teacher-length mismatch.
    pub fn train_with_teacher(
        dataset: &Dataset,
        config: &GnnTrainConfig,
        teacher_runtimes: Option<&[f64]>,
    ) -> Self {
        let pool = Pool::with_available_parallelism();
        Self::train_with_pool(dataset, config, teacher_runtimes, &pool)
    }

    /// [`GnnPcc::train_with_teacher`] on a caller-supplied pool. The fit
    /// runs on one crew of `pool`'s threads ([`GnnModel::train`]): the
    /// graphs of each minibatch are one round, and the epoch shuffle,
    /// validation and early stopping run on the caller between rounds.
    /// The trained model — weights, loss histories, everything
    /// serialized — is bit-identical at any thread count.
    pub fn train_with_pool(
        dataset: &Dataset,
        config: &GnnTrainConfig,
        teacher_runtimes: Option<&[f64]>,
        pool: &Pool,
    ) -> Self {
        assert!(!dataset.is_empty(), "GnnPcc::train: empty dataset");
        if let Some(t) = teacher_runtimes {
            assert_eq!(t.len(), dataset.len(), "GnnPcc::train: teacher length mismatch");
        }
        // Fit the operator-feature scaler over every node row of every job.
        let all_rows: Vec<Vec<f64>> = dataset
            .examples
            .iter()
            .flat_map(|e| e.op_features.rows.iter().cloned())
            .collect();
        let op_scaler = FeatureScaler::fit(&all_rows);
        let param_scaler = ParamScaler::fit(&dataset.target_pccs());

        let graphs: Vec<GraphData> = dataset
            .examples
            .iter()
            .map(|e| build_graph(&e.op_features, &op_scaler))
            .collect();
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

        let mut rng = StdRng::seed_from_u64(config.seed);
        let feature_dim = op_scaler.dim();
        let mut model =
            GnnModel::new(&mut rng, feature_dim, &config.gcn_dims, &config.head_hidden, 2);
        let mut opt = model.make_optimizer(AdamConfig {
            learning_rate: config.learning_rate,
            ..Default::default()
        });

        // Optional validation split (deterministic shuffled holdout).
        let n = graphs.len();
        let mut all: Vec<usize> = (0..n).collect();
        rand_ext::shuffle(&mut rng, &mut all);
        let holdout = ((n as f64) * config.validation_fraction.clamp(0.0, 0.5)) as usize;
        let (validation_idx, train_idx) = all.split_at(holdout);
        let validation_idx = validation_idx.to_vec();
        let mut order: Vec<usize> = train_idx.to_vec();
        if order.is_empty() {
            order = (0..n).collect();
        }

        let graph_loss = |i: usize, out: &[f64], d_out: &mut [f64]| {
            let eval = loss::evaluate(&config.loss, &param_scaler, out[0], out[1], &samples[i]);
            d_out.copy_from_slice(&[eval.grad_o1, eval.grad_o2]);
            eval.loss
        };
        let batch_size = config.batch_size.max(1);
        let losses = model.train(&mut opt, &graphs, batch_size, pool, graph_loss, |fit| {
            let mut training_loss = Vec::with_capacity(config.epochs);
            let mut validation_loss = Vec::with_capacity(config.epochs);
            let mut best: Option<(f64, GnnModel)> = None;
            let mut stale_epochs = 0usize;
            for _ in 0..config.epochs {
                rand_ext::shuffle(&mut rng, &mut order);
                let mut epoch_loss = 0.0;
                for batch in order.chunks(batch_size) {
                    fit.step(batch, &mut epoch_loss);
                }
                training_loss.push(epoch_loss / order.len() as f64);

                if !validation_idx.is_empty() {
                    let val_loss = fit.with_model(|model| {
                        let mut val_loss = 0.0;
                        for &i in &validation_idx {
                            let out = model.forward(&graphs[i]);
                            val_loss += loss::evaluate(
                                &config.loss,
                                &param_scaler,
                                out[(0, 0)],
                                out[(0, 1)],
                                &samples[i],
                            )
                            .loss;
                        }
                        val_loss / validation_idx.len() as f64
                    });
                    validation_loss.push(val_loss);
                    if let Some(patience) = config.early_stopping_patience {
                        let improved = best.as_ref().is_none_or(|(b, _)| val_loss < *b);
                        if improved {
                            best = Some((val_loss, fit.with_model(GnnModel::clone)));
                            stale_epochs = 0;
                        } else {
                            stale_epochs += 1;
                            if stale_epochs >= patience.max(1) {
                                break;
                            }
                        }
                    }
                }
            }
            (training_loss, validation_loss, best)
        });
        let (training_loss, validation_loss, best) = losses;
        if let Some((_, best_model)) = best {
            model = best_model;
        }

        Self { model, op_scaler, param_scaler, training_loss, validation_loss }
    }

    /// Predict the power-law PCC from operator-level features + DAG.
    pub fn predict_pcc(&self, op_features: &OperatorFeatures) -> PowerLawPcc {
        let graph = build_graph(op_features, &self.op_scaler);
        let out = self.model.forward(&graph);
        loss::decode_outputs(out[(0, 0)], out[(0, 1)], &self.param_scaler)
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.model.param_count()
    }

    /// Layer-by-layer architecture summary (paper Figure 10):
    /// `(stage, layer, parameters)` rows.
    pub fn layer_summary(&self) -> Vec<(String, String, usize)> {
        self.model.layer_summary()
    }

    /// Per-operator attention weights for one job: how much the pooling
    /// layer focuses on each plan operator when forming the graph
    /// embedding (aligned with `op_features.rows`).
    pub fn operator_attention(&self, op_features: &OperatorFeatures) -> Vec<f64> {
        let graph = build_graph(op_features, &self.op_scaler);
        self.model.attention_weights(&graph)
    }
}

/// Assemble a z-scored [`GraphData`] from operator features.
fn build_graph(op_features: &OperatorFeatures, scaler: &FeatureScaler) -> GraphData {
    let rows = scaler.transform_all(&op_features.rows);
    GraphData::new(Matrix::from_rows(&rows), &op_features.edges)
}

impl PccPredictor for GnnPcc {
    fn name(&self) -> &'static str {
        "GNN"
    }

    /// Without operator features there is nothing to predict from: the
    /// answer is a NaN power law, which fails every monotonicity check and
    /// so falls through a serving tier chain to the next tier.
    fn predict(&self, input: &ScoringInput<'_>) -> PredictedPcc {
        PredictedPcc::PowerLaw(match input.op_features {
            Some(op_features) => self.predict_pcc(op_features),
            None => PowerLawPcc { a: f64::NAN, b: f64::NAN },
        })
    }

    fn param_count(&self) -> usize {
        self.num_parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let jobs =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
                .generate();
        Dataset::build(&jobs, &AugmentConfig::default())
    }

    fn quick(epochs: usize) -> GnnTrainConfig {
        GnnTrainConfig {
            gcn_dims: vec![16, 16],
            head_hidden: vec![8],
            epochs,
            ..Default::default()
        }
    }

    #[test]
    fn predictions_always_monotone() {
        let ds = dataset(25, 41);
        let model = GnnPcc::train(&ds, &quick(8));
        for e in &ds.examples {
            let pcc = model.predict_pcc(&e.op_features);
            assert!(pcc.is_non_increasing(), "{pcc:?}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = dataset(30, 43);
        let model = GnnPcc::train(&ds, &quick(25));
        let first = model.training_loss[0];
        let last = *model.training_loss.last().unwrap();
        assert!(last < first * 0.9, "loss {first} -> {last}");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset(10, 47);
        let m1 = GnnPcc::train(&ds, &quick(3));
        let m2 = GnnPcc::train(&ds, &quick(3));
        assert_eq!(
            m1.predict_pcc(&ds.examples[0].op_features),
            m2.predict_pcc(&ds.examples[0].op_features)
        );
    }

    /// The whole artifact — weights, scalers, loss histories — serializes
    /// to the same bytes whether the minibatches ran inline or fanned out,
    /// validation split and early stopping included.
    #[test]
    fn train_with_pool_serializes_identically_at_any_thread_count() {
        for seed in [61u64, 67, 71] {
            let ds = dataset(21, seed);
            let config = GnnTrainConfig {
                batch_size: 8,
                validation_fraction: 0.2,
                early_stopping_patience: Some(2),
                seed,
                ..quick(4)
            };
            let artifact = |threads: usize| {
                let model = GnnPcc::train_with_pool(&ds, &config, None, &Pool::new(threads));
                crate::codec::to_bytes(&model).unwrap()
            };
            let sequential = artifact(1);
            for threads in [2, 3, 8] {
                assert_eq!(artifact(threads), sequential, "seed {seed}, {threads} threads");
            }
        }
    }

    #[test]
    fn has_more_parameters_than_nn_scale() {
        let ds = dataset(5, 53);
        let model = GnnPcc::train(
            &ds,
            &GnnTrainConfig { epochs: 1, ..Default::default() },
        );
        // The paper's GNN has 19,210 params vs. the NN's 2,216; our default
        // configuration preserves the same order-of-magnitude gap.
        assert!(model.num_parameters() > 10_000, "{}", model.num_parameters());
    }

    #[test]
    fn predict_via_trait_matches_direct() {
        let ds = dataset(8, 59);
        let model = GnnPcc::train(&ds, &quick(2));
        let e = &ds.examples[0];
        let input = ScoringInput {
            features: &e.features,
            op_features: Some(&e.op_features),
            reference_tokens: e.observed_tokens,
        };
        let via_trait = model.predict(&input).power_law().unwrap();
        let direct = model.predict_pcc(&e.op_features);
        assert_eq!(via_trait, direct);
    }
}
