//! XGBoost-based point prediction and the SS / PL curve constructions.
//!
//! The paper trains XGBoost with Gamma regression trees to predict run
//! time directly from (job features, token count), then forms a PCC
//! either by smoothing predictions at token counts within ±40% of the
//! reference (**XGBoost SS**) or by fitting a power law through them
//! (**XGBoost PL**). Neither construction can guarantee a monotone curve —
//! the deficiency Tables 4–6 quantify.

use super::{PccPredictor, PredictedPcc, ScoringInput};
use crate::dataset::Dataset;
use crate::pcc::PowerLawPcc;
use tasq_codec::Wire;
use tasq_ml::gbdt::{Booster, BoosterConfig, Objective};
use tasq_ml::spline::SmoothingSpline;

/// Training configuration for the run-time booster.
#[derive(Debug, Clone)]
pub struct XgbTrainConfig {
    /// Boosting rounds.
    pub num_rounds: usize,
    /// Tree depth.
    pub max_depth: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for XgbTrainConfig {
    fn default() -> Self {
        Self { num_rounds: 120, max_depth: 6, learning_rate: 0.1, subsample: 0.9, seed: 0 }
    }
}

/// The shared run-time regressor (Gamma deviance, log link).
#[derive(Debug, Clone, Wire)]
pub struct XgbRuntime {
    booster: Booster,
}

impl XgbRuntime {
    /// Train on a dataset's augmented XGBoost rows.
    pub fn train(dataset: &Dataset, config: &XgbTrainConfig) -> Self {
        let (rows, targets) = dataset.xgb_rows();
        assert!(!rows.is_empty(), "XgbRuntime::train: empty dataset");
        let booster = Booster::train(&rows, &targets, &Self::booster_config(config));
        Self { booster }
    }

    /// The [`BoosterConfig`] that [`XgbRuntime::train`] derives from a
    /// training configuration. Exposed so checkpointed trainers can drive
    /// [`Booster::train_resumable_with_pool`] round-by-round and still
    /// grow exactly the ensemble `train` would.
    pub fn booster_config(config: &XgbTrainConfig) -> BoosterConfig {
        BoosterConfig {
            objective: Objective::GammaDeviance,
            num_rounds: config.num_rounds,
            max_depth: config.max_depth,
            learning_rate: config.learning_rate,
            subsample: config.subsample,
            seed: config.seed,
            ..Default::default()
        }
    }

    /// Wrap an externally trained booster (the resumable trainer finishes
    /// the booster round-by-round, then wraps it here).
    pub fn from_booster(booster: Booster) -> Self {
        Self { booster }
    }

    /// Predict run time for job features at a token count.
    pub fn predict_runtime(&self, features: &[f64], tokens: u32) -> f64 {
        let mut row = features.to_vec();
        row.push(tokens as f64);
        self.booster.predict_row(&row).max(1.0)
    }

    /// Point predictions over token counts within ±`span` (fraction) of a
    /// reference, on a grid of `steps` points.
    pub fn local_curve(
        &self,
        features: &[f64],
        reference_tokens: u32,
        span: f64,
        steps: usize,
    ) -> Vec<(u32, f64)> {
        assert!(steps >= 2 && span > 0.0, "local_curve: bad grid");
        let reference = reference_tokens.max(1) as f64;
        let lo = (reference * (1.0 - span)).max(1.0);
        let hi = (reference * (1.0 + span)).max(lo + 1.0);
        let mut points = Vec::with_capacity(steps);
        // One scratch row reused across the grid — the score path must not
        // clone the feature vector once per sampled token count.
        let mut row = Vec::with_capacity(features.len() + 1);
        row.extend_from_slice(features);
        row.push(0.0);
        for i in 0..steps {
            let tokens = (lo + (hi - lo) * i as f64 / (steps - 1) as f64).round() as u32;
            if points.last().is_some_and(|&(t, _)| t == tokens) {
                continue;
            }
            row.pop();
            row.push(tokens as f64);
            points.push((tokens, self.booster.predict_row(&row).max(1.0)));
        }
        points
    }

    /// Total number of tree nodes (the "parameter count" analogue).
    pub fn total_nodes(&self) -> usize {
        self.booster.total_nodes()
    }
}

/// The span of the local prediction grid (the paper uses ±40% of the
/// reference token count).
pub const LOCAL_SPAN: f64 = 0.4;
/// Number of grid points for the local curve.
pub const LOCAL_STEPS: usize = 9;

/// XGBoost SS: smoothing-spline PCC over local point predictions.
#[derive(Debug, Clone)]
pub struct XgboostSs {
    /// The shared run-time model.
    pub runtime_model: XgbRuntime,
    /// Spline smoothing parameter.
    pub smoothing_lambda: f64,
}

impl XgboostSs {
    /// Wrap a trained run-time model.
    pub fn new(runtime_model: XgbRuntime) -> Self {
        Self { runtime_model, smoothing_lambda: 50.0 }
    }
}

impl PccPredictor for XgboostSs {
    fn name(&self) -> &'static str {
        "XGBoost SS"
    }

    fn predict(&self, input: &ScoringInput<'_>) -> PredictedPcc {
        let points = self.runtime_model.local_curve(
            &input.features.values,
            input.reference_tokens,
            LOCAL_SPAN,
            LOCAL_STEPS,
        );
        let xs: Vec<f64> = points.iter().map(|&(t, _)| t as f64).collect();
        let ys: Vec<f64> = points.iter().map(|&(_, r)| r).collect();
        #[expect(clippy::expect_used, reason = "a two-point grid always fits")]
        let spline = SmoothingSpline::fit(&xs, &ys, self.smoothing_lambda)
            .or_else(|| {
                // Degenerate grid (one distinct token count): serve the
                // flat line through that level instead of failing.
                let x = xs.first().copied().unwrap_or(1.0);
                let y = ys.first().copied().unwrap_or(1.0);
                SmoothingSpline::fit(&[x, x + 1.0], &[y, y], 0.0)
            })
            .expect("flat fallback spline fits");
        PredictedPcc::Curve { points, spline }
    }

    fn param_count(&self) -> usize {
        self.runtime_model.total_nodes()
    }
}

/// XGBoost PL: power law fitted through local point predictions.
#[derive(Debug, Clone)]
pub struct XgboostPl {
    /// The shared run-time model.
    pub runtime_model: XgbRuntime,
}

impl XgboostPl {
    /// Wrap a trained run-time model.
    pub fn new(runtime_model: XgbRuntime) -> Self {
        Self { runtime_model }
    }
}

impl PccPredictor for XgboostPl {
    fn name(&self) -> &'static str {
        "XGBoost PL"
    }

    fn predict(&self, input: &ScoringInput<'_>) -> PredictedPcc {
        let points = self.runtime_model.local_curve(
            &input.features.values,
            input.reference_tokens,
            LOCAL_SPAN,
            LOCAL_STEPS,
        );
        let pairs: Vec<(f64, f64)> = points.iter().map(|&(t, r)| (t as f64, r)).collect();
        // Unlike the NN/GNN, the sign of `a` is NOT constrained here —
        // whatever the point predictions imply is what the user gets
        // (27% of jobs get an increasing PCC in the paper's Table 4).
        let pcc = PowerLawPcc::fit(&pairs).unwrap_or(PowerLawPcc { a: 0.0, b: 1.0 });
        PredictedPcc::PowerLaw(pcc)
    }

    fn param_count(&self) -> usize {
        self.runtime_model.total_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn dataset(n: usize) -> Dataset {
        let jobs =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed: 31, ..Default::default() })
                .generate();
        Dataset::build(&jobs, &AugmentConfig::default())
    }

    fn quick_config() -> XgbTrainConfig {
        XgbTrainConfig { num_rounds: 30, ..Default::default() }
    }

    #[test]
    fn trains_and_predicts_positive_runtimes() {
        let ds = dataset(30);
        let model = XgbRuntime::train(&ds, &quick_config());
        for example in &ds.examples {
            let pred = model.predict_runtime(&example.features.values, example.observed_tokens);
            assert!(pred >= 1.0 && pred.is_finite());
        }
    }

    #[test]
    fn training_error_is_reasonable() {
        let ds = dataset(40);
        let model = XgbRuntime::train(&ds, &XgbTrainConfig::default());
        let preds: Vec<f64> = ds
            .examples
            .iter()
            .map(|e| model.predict_runtime(&e.features.values, e.observed_tokens))
            .collect();
        let actual: Vec<f64> = ds.examples.iter().map(|e| e.observed_runtime).collect();
        let mape = tasq_ml::stats::median_ape(&preds, &actual);
        assert!(mape < 0.35, "training median APE {mape}");
    }

    #[test]
    fn local_curve_spans_reference() {
        let ds = dataset(12);
        let model = XgbRuntime::train(&ds, &quick_config());
        let points = model.local_curve(&ds.examples[0].features.values, 100, 0.4, 9);
        assert!(points.len() >= 5);
        assert_eq!(points.first().unwrap().0, 60);
        assert_eq!(points.last().unwrap().0, 140);
    }

    #[test]
    fn ss_predicts_curve_pl_predicts_power_law() {
        let ds = dataset(15);
        let model = XgbRuntime::train(&ds, &quick_config());
        let ss = XgboostSs::new(model.clone());
        let pl = XgboostPl::new(model);
        let example = &ds.examples[0];
        let input = ScoringInput {
            features: &example.features,
            op_features: Some(&example.op_features),
            reference_tokens: example.observed_tokens,
        };
        let ss_pred = ss.predict(&input);
        assert!(ss_pred.power_law().is_none());
        assert!(ss_pred.predict(example.observed_tokens) >= 1.0);
        let pl_pred = pl.predict(&input);
        assert!(pl_pred.power_law().is_some());
    }

    #[test]
    fn resumable_wrapper_matches_train_bit_for_bit() {
        let ds = dataset(12);
        let cfg = quick_config();
        let direct = XgbRuntime::train(&ds, &cfg);
        let (rows, targets) = ds.xgb_rows();
        let booster = Booster::train(&rows, &targets, &XgbRuntime::booster_config(&cfg));
        let wrapped = XgbRuntime::from_booster(booster);
        for e in &ds.examples {
            assert_eq!(
                direct.predict_runtime(&e.features.values, e.observed_tokens).to_bits(),
                wrapped.predict_runtime(&e.features.values, e.observed_tokens).to_bits(),
            );
        }
    }

    #[test]
    fn names_match_paper() {
        let ds = dataset(8);
        let model = XgbRuntime::train(&ds, &quick_config());
        assert_eq!(XgboostSs::new(model.clone()).name(), "XGBoost SS");
        assert_eq!(XgboostPl::new(model).name(), "XGBoost PL");
    }

    #[test]
    fn tiny_reference_token_counts_work() {
        let ds = dataset(10);
        let model = XgbRuntime::train(&ds, &quick_config());
        let example = &ds.examples[0];
        let input = ScoringInput {
            features: &example.features,
            op_features: Some(&example.op_features),
            reference_tokens: 1,
        };
        let ss = XgboostSs::new(model);
        let pred = ss.predict(&input);
        assert!(pred.predict(1).is_finite());
    }
}
