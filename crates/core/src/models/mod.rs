//! The four PCC predictors the paper compares (Section 4.4):
//!
//! | Model       | Features                | Target            | Monotone?    |
//! |-------------|-------------------------|-------------------|--------------|
//! | XGBoost SS  | job-level + token count | run time          | not guaranteed |
//! | XGBoost PL  | job-level + token count | run time          | not guaranteed |
//! | NN          | job-level               | PCC parameters    | by design    |
//! | GNN         | operator-level + DAG    | PCC parameters    | by design    |
//!
//! All four implement [`PccPredictor`]; XGBoost SS predicts a smoothed
//! point-wise curve, the other three a parametric power law.

mod gnn;
mod nn;
mod xgboost;

pub use gnn::{GnnPcc, GnnTrainConfig};
pub use nn::{NnPcc, NnTrainCheckpoint, NnTrainConfig};
pub use xgboost::{XgbRuntime, XgbTrainConfig, XgboostPl, XgboostSs};

use crate::featurize::{JobFeatures, OperatorFeatures};
use crate::pcc::PowerLawPcc;
use tasq_ml::spline::SmoothingSpline;

/// Everything a predictor may need to score one job.
#[derive(Debug, Clone)]
pub struct ScoringInput<'a> {
    /// Aggregated job-level features.
    pub features: &'a JobFeatures,
    /// Operator-level features + DAG. Only the GNN reads them, and no
    /// [`crate::pipeline::ModelChoice`] deploys the GNN, so
    /// [`crate::pipeline::ScoringService::score`] passes `None` rather than
    /// build a row per operator for nobody; offline evaluation passes
    /// `Some`.
    pub op_features: Option<&'a OperatorFeatures>,
    /// Reference token count (the submitted/observed allocation); XGBoost
    /// SS/PL build their local curves around it.
    pub reference_tokens: u32,
}

/// A predicted PCC: either a closed-form power law (XGBoost PL / NN / GNN)
/// or a smoothed point-wise curve (XGBoost SS).
#[derive(Debug, Clone)]
pub enum PredictedPcc {
    /// Parametric `b * A^a`.
    PowerLaw(PowerLawPcc),
    /// Smoothing-spline curve over predicted points.
    Curve {
        /// The raw `(tokens, predicted runtime)` points.
        points: Vec<(u32, f64)>,
        /// The fitted spline.
        spline: SmoothingSpline,
    },
}

impl PredictedPcc {
    /// Predicted run time at a token count, floored at one second — no
    /// SCOPE job completes faster, and undertrained models must not
    /// serve sub-second estimates.
    pub fn predict(&self, tokens: u32) -> f64 {
        match self {
            PredictedPcc::PowerLaw(pcc) => pcc.predict(tokens).max(1.0),
            PredictedPcc::Curve { spline, .. } => spline.evaluate(tokens as f64).max(1.0),
        }
    }

    /// Whether the curve is monotone non-increasing. Power laws check the
    /// parameter signs; point-wise curves check the fitted values with the
    /// given relative tolerance.
    pub fn is_non_increasing(&self, tolerance: f64) -> bool {
        match self {
            PredictedPcc::PowerLaw(pcc) => pcc.is_non_increasing(),
            PredictedPcc::Curve { spline, .. } => spline.is_non_increasing(tolerance),
        }
    }

    /// The power-law parameters, if this is a parametric prediction.
    pub fn power_law(&self) -> Option<PowerLawPcc> {
        match self {
            PredictedPcc::PowerLaw(pcc) => Some(*pcc),
            PredictedPcc::Curve { .. } => None,
        }
    }
}

/// Common interface of the four predictors.
pub trait PccPredictor {
    /// Short display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Predict the PCC for one job.
    fn predict(&self, input: &ScoringInput<'_>) -> PredictedPcc;

    /// Predict the run time at a specific token count.
    fn predict_runtime(&self, input: &ScoringInput<'_>, tokens: u32) -> f64 {
        self.predict(input).predict(tokens)
    }

    /// Number of trainable parameters (paper Table 7).
    fn param_count(&self) -> usize;
}
