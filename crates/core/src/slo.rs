//! SLO-aware allocation (extension).
//!
//! The paper notes that the PCC's monotonicity helps users "tune the
//! resource allocation based on their acceptable performance range and
//! service-level objectives (SLOs)". This module makes that concrete:
//! alongside the median run-time model, a *quantile* run-time model
//! (gradient-boosted trees with pinball loss) predicts a conservative —
//! e.g. 90th-percentile — run time per (job, token count), and the
//! allocator picks the cheapest allocation whose conservative estimate
//! still meets a deadline.

use crate::dataset::Dataset;
use tasq_ml::gbdt::{Booster, BoosterConfig, Objective};

/// Training configuration for the quantile run-time model.
#[derive(Debug, Clone)]
pub struct QuantileModelConfig {
    /// The run-time quantile to estimate (e.g. 0.9 for P90).
    pub quantile: f64,
    /// Boosting rounds.
    pub num_rounds: usize,
    /// Tree depth.
    pub max_depth: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuantileModelConfig {
    fn default() -> Self {
        Self { quantile: 0.9, num_rounds: 150, max_depth: 6, learning_rate: 0.1, seed: 0 }
    }
}

/// A quantile run-time predictor over (job features, token count) rows.
#[derive(Debug, Clone)]
pub struct QuantileRuntime {
    booster: Booster,
    quantile: f64,
}

impl QuantileRuntime {
    /// Train on a dataset's PCC augmentation rows (wide token-count
    /// support, 20%–100% of each job's request).
    ///
    /// # Panics
    /// Panics if the quantile is outside `(0, 1)` or the dataset is empty.
    pub fn train(dataset: &Dataset, config: &QuantileModelConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&config.quantile) && config.quantile > 0.0,
            "QuantileRuntime::train: quantile must be in (0, 1)"
        );
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for example in &dataset.examples {
            for point in &example.pcc_points {
                rows.push(quantile_row(
                    &example.features.values,
                    point.tokens,
                    example.observed_tokens,
                ));
                targets.push(point.runtime.max(1.0));
            }
        }
        assert!(!rows.is_empty(), "QuantileRuntime::train: empty dataset");
        let booster = Booster::train(
            &rows,
            &targets,
            &BoosterConfig {
                objective: Objective::Quantile(config.quantile),
                num_rounds: config.num_rounds,
                max_depth: config.max_depth,
                learning_rate: config.learning_rate,
                seed: config.seed,
                ..Default::default()
            },
        );
        Self { booster, quantile: config.quantile }
    }

    /// The estimated quantile.
    pub fn quantile(&self) -> f64 {
        self.quantile
    }

    /// Conservative run-time estimate for job features at a token count.
    /// `reference_tokens` is the job's requested allocation (known at
    /// submission time); the model uses the candidate's *fraction* of it
    /// as a feature so allocations generalize across job scales.
    pub fn predict_runtime(&self, features: &[f64], tokens: u32, reference_tokens: u32) -> f64 {
        let row = quantile_row(features, tokens as f64, reference_tokens);
        self.booster.predict_row(&row).max(1.0)
    }
}

/// Feature row for the quantile model: job features + the candidate token
/// count (absolute and log) + its fraction of the reference request.
fn quantile_row(features: &[f64], tokens: f64, reference_tokens: u32) -> Vec<f64> {
    let mut row = features.to_vec();
    row.push(tokens);
    row.push(tokens.max(1.0).ln());
    row.push(tokens / reference_tokens.max(1) as f64);
    row
}

/// Outcome of an SLO-aware allocation decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloDecision {
    /// The SLO can be met; allocate this many tokens.
    Feasible {
        /// Cheapest allocation whose conservative run time meets the SLO.
        tokens: u32,
        /// The conservative run-time estimate at that allocation.
        predicted_runtime: f64,
    },
    /// Even the maximum allocation cannot meet the deadline; the caller
    /// should escalate rather than silently miss.
    Infeasible {
        /// Best achievable conservative run time (at `max_tokens`).
        best_runtime: f64,
    },
}

/// Pick the cheapest allocation whose conservative (quantile) run-time
/// estimate meets `deadline_secs`, scanning a geometric token grid between
/// the bounds. Quantile predictions are not guaranteed monotone in tokens,
/// so a scan (not bisection) is used.
pub fn allocate_for_slo(
    model: &QuantileRuntime,
    features: &[f64],
    reference_tokens: u32,
    deadline_secs: f64,
    min_tokens: u32,
    max_tokens: u32,
) -> SloDecision {
    assert!(min_tokens >= 1 && max_tokens >= min_tokens, "allocate_for_slo: bad bounds");
    assert!(deadline_secs > 0.0, "allocate_for_slo: bad deadline");
    let mut tokens = min_tokens;
    let mut best_runtime = f64::INFINITY;
    loop {
        let runtime = model.predict_runtime(features, tokens, reference_tokens);
        best_runtime = best_runtime.min(runtime);
        if runtime <= deadline_secs {
            return SloDecision::Feasible { tokens, predicted_runtime: runtime };
        }
        if tokens >= max_tokens {
            return SloDecision::Infeasible { best_runtime };
        }
        tokens = ((tokens as f64 * 1.25).ceil() as u32).min(max_tokens);
    }
}

/// Conformal-style calibration for PCC-based SLO decisions: the factor by
/// which predictions must be inflated so that, at the chosen confidence
/// quantile, actual run times on a calibration set fall at or below the
/// inflated prediction.
///
/// `calibration_factor` returns the `quantile`-quantile of the
/// `actual / predicted` ratios (at least 1.0 — deflating predictions is
/// never safer).
pub fn calibration_factor(predicted: &[f64], actual: &[f64], quantile: f64) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "calibration_factor: length mismatch");
    assert!((0.0..=1.0).contains(&quantile), "calibration_factor: bad quantile");
    let ratios: Vec<f64> = predicted
        .iter()
        .zip(actual)
        .filter(|(p, _)| **p > 0.0)
        .map(|(p, a)| a / p)
        .collect();
    tasq_ml::stats::quantile(&ratios, quantile).max(1.0)
}

/// Pick the cheapest allocation whose *calibrated* PCC prediction meets a
/// deadline: `inflation * pcc.predict(tokens) <= deadline`, in closed form
/// via [`crate::pcc::PowerLawPcc::min_tokens_for_deadline`].
pub fn allocate_for_slo_with_pcc(
    pcc: &crate::pcc::PowerLawPcc,
    inflation: f64,
    deadline_secs: f64,
    min_tokens: u32,
    max_tokens: u32,
) -> SloDecision {
    assert!(inflation >= 1.0, "allocate_for_slo_with_pcc: inflation must be >= 1");
    match pcc.min_tokens_for_deadline(deadline_secs / inflation, min_tokens, max_tokens) {
        Some(tokens) => SloDecision::Feasible {
            tokens,
            predicted_runtime: inflation * pcc.predict(tokens),
        },
        None => SloDecision::Infeasible {
            best_runtime: inflation * pcc.predict(max_tokens),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn dataset(n: usize) -> Dataset {
        let jobs =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed: 77, ..Default::default() })
                .generate();
        Dataset::build(&jobs, &AugmentConfig::default())
    }

    #[test]
    fn p90_predictions_sit_above_median_model() {
        let ds = dataset(150);
        let p50 = QuantileRuntime::train(
            &ds,
            &QuantileModelConfig { quantile: 0.5, num_rounds: 80, ..Default::default() },
        );
        let p90 = QuantileRuntime::train(
            &ds,
            &QuantileModelConfig { quantile: 0.9, num_rounds: 80, ..Default::default() },
        );
        let mut above = 0usize;
        for e in &ds.examples {
            let lo = p50.predict_runtime(&e.features.values, e.observed_tokens, e.observed_tokens);
            let hi = p90.predict_runtime(&e.features.values, e.observed_tokens, e.observed_tokens);
            if hi >= lo {
                above += 1;
            }
        }
        let frac = above as f64 / ds.len() as f64;
        assert!(frac > 0.8, "P90 should usually exceed P50, got {frac}");
    }

    #[test]
    fn slo_allocator_finds_cheapest_feasible() {
        let ds = dataset(120);
        let model = QuantileRuntime::train(&ds, &QuantileModelConfig::default());
        let example = &ds.examples[0];
        // A very generous deadline is feasible at minimal tokens.
        let generous =
            allocate_for_slo(&model, &example.features.values, example.observed_tokens, 1e9, 1, 6287);
        match generous {
            SloDecision::Feasible { tokens, .. } => assert_eq!(tokens, 1),
            other => panic!("expected feasible, got {other:?}"),
        }
        // An impossible deadline is reported infeasible, not silently missed.
        let impossible =
            allocate_for_slo(&model, &example.features.values, example.observed_tokens, 1e-3, 1, 6287);
        assert!(matches!(impossible, SloDecision::Infeasible { .. }));
    }

    #[test]
    fn tighter_deadline_never_needs_fewer_tokens() {
        let ds = dataset(120);
        let model = QuantileRuntime::train(&ds, &QuantileModelConfig::default());
        let example = &ds.examples[1];
        let tokens_for = |deadline: f64| -> Option<u32> {
            match allocate_for_slo(&model, &example.features.values, example.observed_tokens, deadline, 1, 6287) {
                SloDecision::Feasible { tokens, .. } => Some(tokens),
                SloDecision::Infeasible { .. } => None,
            }
        };
        let loose = tokens_for(1e8);
        let tight = tokens_for(example.observed_runtime.max(2.0));
        if let (Some(loose), Some(tight)) = (loose, tight) {
            assert!(tight >= loose, "tight {tight} vs loose {loose}");
        }
    }

    #[test]
    fn calibration_factor_covers_quantile() {
        let predicted = vec![100.0; 100];
        let actual: Vec<f64> = (0..100).map(|i| 80.0 + i as f64).collect(); // 80..180
        let factor = calibration_factor(&predicted, &actual, 0.9);
        // 90% of actuals must fall under predicted * factor.
        let covered = actual.iter().filter(|&&a| a <= 100.0 * factor).count();
        assert!((88..=93).contains(&covered), "covered {covered} at factor {factor}");
        // Never below 1.
        let optimistic = calibration_factor(&[100.0, 100.0], &[10.0, 20.0], 0.9);
        assert_eq!(optimistic, 1.0);
    }

    #[test]
    fn pcc_slo_allocation_respects_inflation() {
        let pcc = crate::pcc::PowerLawPcc::new(-0.8, 5000.0);
        let deadline = 400.0;
        let plain = allocate_for_slo_with_pcc(&pcc, 1.0, deadline, 1, 6287);
        let inflated = allocate_for_slo_with_pcc(&pcc, 1.5, deadline, 1, 6287);
        let tokens_of = |d: SloDecision| match d {
            SloDecision::Feasible { tokens, .. } => tokens,
            SloDecision::Infeasible { .. } => panic!("feasible expected"),
        };
        let plain_tokens = tokens_of(plain);
        let inflated_tokens = tokens_of(inflated);
        assert!(
            inflated_tokens > plain_tokens,
            "calibration must buy safety with tokens: {inflated_tokens} vs {plain_tokens}"
        );
        assert!(1.5 * pcc.predict(inflated_tokens) <= deadline + 1e-9);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn invalid_quantile_panics() {
        let ds = dataset(10);
        let _ = QuantileRuntime::train(
            &ds,
            &QuantileModelConfig { quantile: 1.5, ..Default::default() },
        );
    }
}
