//! Evaluation metrics and workload-level analyses (paper Section 5).
//!
//! * [`ModelRow`] / [`evaluate_model`] — the three columns of Tables 4–6
//!   and 8: Pattern (fraction of jobs with a monotone non-increasing
//!   predicted PCC), MAE of the curve parameters, and the median absolute
//!   percentage error of run-time predictions at the reference token
//!   count.
//! * [`monotonicity_report`] — Section 5.1's validation that flighted jobs
//!   are run-time-monotone within tolerance.
//! * [`workload_savings`] — Section 5.4's W1/W2 analysis: token savings
//!   versus actual and predicted slowdowns against a largest-allocation
//!   baseline.

use crate::dataset::Dataset;
use crate::models::{PccPredictor, ScoringInput};
use crate::pcc::PowerLawPcc;
use scope_sim::flight::FlightedJob;
use serde::{Deserialize, Serialize};
use tasq_ml::stats;

/// Tolerance for calling a point-wise curve non-increasing (matches the
/// paper's treatment of small numeric wobbles).
pub const PATTERN_TOLERANCE: f64 = 1e-9;

/// One row of Tables 4–6 / Table 8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelRow {
    /// Model display name.
    pub model: String,
    /// Fraction of jobs whose predicted PCC is monotone non-increasing.
    pub pattern_non_increase: f64,
    /// MAE of the curve parameters vs. targets (`None` for XGBoost SS,
    /// which has no parametric curve — "NA" in the paper).
    pub mae_curve_params: Option<f64>,
    /// Median absolute percentage error of run-time prediction at each
    /// job's reference token count, as a fraction.
    pub median_ae_runtime: f64,
}

impl ModelRow {
    /// Format as a paper-style table line.
    pub fn format(&self) -> String {
        let mae = match self.mae_curve_params {
            Some(v) => format!("{v:.3}"),
            None => "NA".to_string(),
        };
        format!(
            "{:<12} {:>6.0}% {:>8} {:>7.0}%",
            self.model,
            self.pattern_non_increase * 100.0,
            mae,
            self.median_ae_runtime * 100.0
        )
    }
}

/// Evaluate a predictor on a dataset, producing one table row.
///
/// `runtime_targets` selects the ground truth for the run-time column:
/// each example's observed run time at its observed token count.
pub fn evaluate_model(model: &dyn PccPredictor, dataset: &Dataset) -> ModelRow {
    assert!(!dataset.is_empty(), "evaluate_model: empty dataset");
    let mut non_increasing = 0usize;
    let mut param_errors: Vec<f64> = Vec::new();
    let mut runtime_pred = Vec::with_capacity(dataset.len());
    let mut runtime_true = Vec::with_capacity(dataset.len());

    for example in &dataset.examples {
        let input = ScoringInput {
            features: &example.features,
            op_features: Some(&example.op_features),
            reference_tokens: example.observed_tokens,
        };
        let predicted = model.predict(&input);
        if predicted.is_non_increasing(PATTERN_TOLERANCE) {
            non_increasing += 1;
        }
        if let Some(pcc) = predicted.power_law() {
            param_errors.push(curve_param_error(&pcc, &example.target_pcc));
        }
        runtime_pred.push(predicted.predict(example.observed_tokens));
        runtime_true.push(example.observed_runtime);
    }

    ModelRow {
        model: model.name().to_string(),
        pattern_non_increase: non_increasing as f64 / dataset.len() as f64,
        mae_curve_params: if param_errors.is_empty() {
            None
        } else {
            Some(stats::mean(&param_errors))
        },
        median_ae_runtime: stats::median_ape(&runtime_pred, &runtime_true),
    }
}

/// Per-job absolute percentage errors of run-time prediction at each
/// example's reference token count — the raw sample behind the Median AE
/// column, exposed so reports can attach bootstrap confidence intervals.
pub fn runtime_ape_samples(model: &dyn PccPredictor, dataset: &Dataset) -> Vec<f64> {
    dataset
        .examples
        .iter()
        .map(|example| {
            let input = ScoringInput {
                features: &example.features,
                op_features: Some(&example.op_features),
                reference_tokens: example.observed_tokens,
            };
            let predicted = model.predict(&input).predict(example.observed_tokens);
            (predicted - example.observed_runtime).abs() / example.observed_runtime
        })
        .collect()
}

/// Mean absolute error of the two curve parameters for one job, averaged
/// over `(a, ln b)` — the natural (log-scale) parameterization in which
/// the paper's MAE magnitudes (~0.07–0.23) live.
pub fn curve_param_error(predicted: &PowerLawPcc, target: &PowerLawPcc) -> f64 {
    0.5 * ((predicted.a - target.a).abs() + (predicted.b.ln() - target.b.ln()).abs())
}

/// Section 5.1's monotonicity validation over flighted jobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonotonicityReport {
    /// Number of uniquely flighted jobs inspected.
    pub total_jobs: usize,
    /// Jobs monotone within tolerance.
    pub monotone_jobs: usize,
    /// Mean slowdown (vs. the job's minimum run time) among violators.
    pub mean_violation_slowdown: f64,
}

impl MonotonicityReport {
    /// Fraction of jobs satisfying the constraint.
    pub fn fraction_monotone(&self) -> f64 {
        if self.total_jobs == 0 {
            0.0
        } else {
            self.monotone_jobs as f64 / self.total_jobs as f64
        }
    }
}

/// Validate run-time monotonicity over flighted jobs with a relative
/// tolerance (the paper uses 10% and reports 96% compliance).
pub fn monotonicity_report(flighted: &[FlightedJob], tolerance: f64) -> MonotonicityReport {
    let mut monotone = 0usize;
    let mut violations = Vec::new();
    for fj in flighted {
        if fj.is_monotonic(tolerance) {
            monotone += 1;
        } else {
            violations.push(fj.monotonicity_violation_slowdown());
        }
    }
    MonotonicityReport {
        total_jobs: flighted.len(),
        monotone_jobs: monotone,
        mean_violation_slowdown: stats::mean(&violations),
    }
}

/// Section 5.4's workload-level savings summary.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkloadSavings {
    /// Tokens used by the workload.
    pub workload_tokens: f64,
    /// Tokens used by the baseline (largest flighted allocation per job).
    pub baseline_tokens: f64,
    /// Actual slowdown `(workload time / baseline time) - 1`.
    pub actual_slowdown: f64,
    /// Model-predicted slowdown for the same substitution.
    pub predicted_slowdown: f64,
}

impl WorkloadSavings {
    /// Fractional token savings vs. the baseline.
    pub fn token_savings(&self) -> f64 {
        1.0 - self.workload_tokens / self.baseline_tokens
    }
}

/// Compute workload savings for a set of runs.
///
/// Each entry is one run: `(allocation_used, runtime_at_allocation,
/// baseline_allocation, runtime_at_baseline, predicted_runtime_at_used,
/// predicted_runtime_at_baseline)`.
pub fn workload_savings(runs: &[WorkloadRun]) -> WorkloadSavings {
    assert!(!runs.is_empty(), "workload_savings: empty runs");
    let workload_tokens: f64 = runs.iter().map(|r| r.allocation as f64).sum();
    let baseline_tokens: f64 = runs.iter().map(|r| r.baseline_allocation as f64).sum();
    let workload_time: f64 = runs.iter().map(|r| r.runtime).sum();
    let baseline_time: f64 = runs.iter().map(|r| r.baseline_runtime).sum();
    let predicted_time: f64 = runs.iter().map(|r| r.predicted_runtime).sum();
    let predicted_baseline_time: f64 =
        runs.iter().map(|r| r.predicted_baseline_runtime).sum();
    WorkloadSavings {
        workload_tokens,
        baseline_tokens,
        actual_slowdown: workload_time / baseline_time - 1.0,
        predicted_slowdown: predicted_time / predicted_baseline_time - 1.0,
    }
}

/// One run in a workload-savings analysis.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkloadRun {
    /// Tokens this run used.
    pub allocation: u32,
    /// Measured run time at `allocation`.
    pub runtime: f64,
    /// The baseline (largest flighted) allocation for this job.
    pub baseline_allocation: u32,
    /// Measured run time at the baseline allocation.
    pub baseline_runtime: f64,
    /// Model-predicted run time at `allocation`.
    pub predicted_runtime: f64,
    /// Model-predicted run time at the baseline allocation.
    pub predicted_baseline_runtime: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use crate::models::{NnPcc, NnTrainConfig};
    use scope_sim::flight::{flight_job, FlightConfig};
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn dataset(n: usize) -> Dataset {
        let jobs =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed: 61, ..Default::default() })
                .generate();
        Dataset::build(&jobs, &AugmentConfig::default())
    }

    #[test]
    fn nn_row_has_full_pattern() {
        let ds = dataset(20);
        let model = NnPcc::train(&ds, &NnTrainConfig { epochs: 10, ..Default::default() });
        let row = evaluate_model(&model, &ds);
        assert_eq!(row.model, "NN");
        assert_eq!(row.pattern_non_increase, 1.0, "NN is monotone by design");
        assert!(row.mae_curve_params.is_some());
        assert!(row.median_ae_runtime >= 0.0);
        assert!(!row.format().is_empty());
    }

    #[test]
    fn curve_param_error_zero_for_identical() {
        let p = PowerLawPcc::new(-0.5, 1000.0);
        assert_eq!(curve_param_error(&p, &p), 0.0);
        let q = PowerLawPcc::new(-0.7, 1000.0);
        assert!((curve_param_error(&p, &q) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn monotonicity_report_on_deterministic_flights() {
        let jobs =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: 6, seed: 67, ..Default::default() })
                .generate();
        let flighted: Vec<_> = jobs
            .iter()
            .map(|j| flight_job(j, j.requested_tokens.max(5), &FlightConfig::default()).expect("flights"))
            .collect();
        let report = monotonicity_report(&flighted, 0.1);
        assert_eq!(report.total_jobs, 6);
        assert_eq!(report.fraction_monotone(), 1.0);
        assert_eq!(report.mean_violation_slowdown, 0.0);
    }

    #[test]
    fn workload_savings_arithmetic() {
        let runs = vec![
            WorkloadRun {
                allocation: 60,
                runtime: 120.0,
                baseline_allocation: 100,
                baseline_runtime: 100.0,
                predicted_runtime: 115.0,
                predicted_baseline_runtime: 100.0,
            },
            WorkloadRun {
                allocation: 40,
                runtime: 110.0,
                baseline_allocation: 50,
                baseline_runtime: 100.0,
                predicted_runtime: 105.0,
                predicted_baseline_runtime: 100.0,
            },
        ];
        let s = workload_savings(&runs);
        assert!((s.token_savings() - (1.0 - 100.0 / 150.0)).abs() < 1e-12);
        assert!((s.actual_slowdown - 0.15).abs() < 1e-12);
        assert!((s.predicted_slowdown - 0.10).abs() < 1e-12);
    }

    #[test]
    fn empty_monotonicity_report() {
        let report = monotonicity_report(&[], 0.1);
        assert_eq!(report.fraction_monotone(), 0.0);
    }
}
