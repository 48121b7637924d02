//! AREPAS-driven training-data augmentation (paper Section 3).
//!
//! Historical telemetry has each job's run time at a *single* token count.
//! To learn run time as a function of tokens, AREPAS synthesizes the
//! skyline — and hence the run time — of the same job at other
//! allocations, and a power-law PCC is fitted through the (observed +
//! synthetic) points. The observed point can be weighted more heavily so
//! the simulator acts as an inductive bias rather than the only teacher.

use crate::pcc::PowerLawPcc;
use arepas::simulate_runtime;
use scope_sim::Skyline;

/// One augmented observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugmentedPoint {
    /// Token allocation of this (real or synthetic) observation.
    pub tokens: f64,
    /// Run time in seconds.
    pub runtime: f64,
    /// True for the actually-observed execution; false for AREPAS output.
    pub is_ground_truth: bool,
}

/// Augmentation configuration.
#[derive(Debug, Clone)]
pub struct AugmentConfig {
    /// Fractions of the observed token count at which to synthesize run
    /// times for the PCC target fit (1.0 = the observed point itself).
    pub pcc_fractions: Vec<f64>,
    /// Weight of the ground-truth point in the PCC fit relative to
    /// simulated points (>= 1.0 keeps the simulator an inductive bias,
    /// not the only teacher).
    pub ground_truth_weight: f64,
    /// Fractions of the observed tokens for XGBoost's extra training rows
    /// below the observation (the paper uses 80% and 60%).
    pub xgb_below_fractions: Vec<f64>,
    /// Fractions of the *peak* usage for XGBoost's extra rows above the
    /// peak, run time floored at the peak-allocation run time (the paper
    /// uses 120% and 140%).
    pub xgb_above_peak_fractions: Vec<f64>,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        Self {
            pcc_fractions: vec![1.0, 0.8, 0.6, 0.4, 0.2],
            ground_truth_weight: 3.0,
            xgb_below_fractions: vec![0.8, 0.6],
            xgb_above_peak_fractions: vec![1.2, 1.4],
        }
    }
}

/// Synthesize the PCC sample for one job from its observed skyline.
///
/// Returns one point per configured fraction (deduplicated token counts,
/// each at least 1), with the `1.0` fraction marked as ground truth at the
/// *observed* run time.
pub fn augment_pcc_points(
    skyline: &Skyline,
    observed_tokens: u32,
    observed_runtime: f64,
    config: &AugmentConfig,
) -> Vec<AugmentedPoint> {
    assert!(observed_tokens >= 1, "augment_pcc_points: bad token count");
    assert!(observed_runtime > 0.0, "augment_pcc_points: bad run time");
    let mut points: Vec<AugmentedPoint> = Vec::with_capacity(config.pcc_fractions.len());
    for &fraction in &config.pcc_fractions {
        let tokens = ((observed_tokens as f64 * fraction).round()).max(1.0);
        #[expect(clippy::float_cmp, reason = "token counts are rounded to whole numbers")]
        if points.iter().any(|p| p.tokens == tokens) {
            continue;
        }
        if (fraction - 1.0).abs() < 1e-12 {
            points.push(AugmentedPoint {
                tokens,
                runtime: observed_runtime,
                is_ground_truth: true,
            });
        } else {
            let runtime = simulate_runtime(skyline.samples(), tokens).max(1) as f64;
            points.push(AugmentedPoint { tokens, runtime, is_ground_truth: false });
        }
    }
    points
}

/// Fit the target PCC through augmented points, weighting ground truth by
/// `config.ground_truth_weight`. Returns `None` when the fit is impossible
/// (fewer than two distinct token counts).
pub fn fit_target_pcc(points: &[AugmentedPoint], config: &AugmentConfig) -> Option<PowerLawPcc> {
    let pairs: Vec<(f64, f64)> = points.iter().map(|p| (p.tokens, p.runtime)).collect();
    let weights: Vec<f64> = points
        .iter()
        .map(|p| if p.is_ground_truth { config.ground_truth_weight } else { 1.0 })
        .collect();
    let pcc = PowerLawPcc::fit_weighted(&pairs, &weights)?;
    // Clamp to the monotone regime: AREPAS can only slow jobs down at
    // lower allocations, so a positive slope is numerical noise.
    Some(if pcc.a > 0.0 { PowerLawPcc { a: 0.0, ..pcc } } else { pcc })
}

/// The XGBoost training rows for one job:
/// `(tokens, runtime, is_ground_truth)` per the paper's Section 4.4
/// augmentation — the observation, AREPAS points below it, and flat points
/// above the peak for over-allocated jobs.
pub fn augment_xgb_points(
    skyline: &Skyline,
    observed_tokens: u32,
    observed_runtime: f64,
    config: &AugmentConfig,
) -> Vec<AugmentedPoint> {
    let mut points = vec![AugmentedPoint {
        tokens: observed_tokens as f64,
        runtime: observed_runtime,
        is_ground_truth: true,
    }];
    for &fraction in &config.xgb_below_fractions {
        let tokens = ((observed_tokens as f64) * fraction).round().max(1.0);
        #[expect(clippy::float_cmp, reason = "token counts are rounded to whole numbers")]
        if points.iter().any(|p| p.tokens == tokens) {
            continue;
        }
        let runtime = simulate_runtime(skyline.samples(), tokens).max(1) as f64;
        points.push(AugmentedPoint { tokens, runtime, is_ground_truth: false });
    }
    let peak = skyline.peak();
    if peak > 0.0 && peak < observed_tokens as f64 {
        // Over-allocated: allocations above the peak leave the skyline
        // unchanged, so the run time is floored at the observed run time.
        for &fraction in &config.xgb_above_peak_fractions {
            let tokens = (peak * fraction).round().max(1.0);
            #[expect(clippy::float_cmp, reason = "token counts are rounded to whole numbers")]
            if tokens > observed_tokens as f64 || points.iter().any(|p| p.tokens == tokens) {
                continue;
            }
            points.push(AugmentedPoint {
                tokens,
                runtime: observed_runtime,
                is_ground_truth: false,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skyline() -> Skyline {
        // Peak 40, valleys at 5, area 40*10 + 5*20 = 500.
        let mut s = vec![5.0; 30];
        for sample in s.iter_mut().take(20).skip(10) {
            *sample = 40.0;
        }
        Skyline::new(s)
    }

    #[test]
    fn pcc_points_cover_fractions() {
        let sky = skyline();
        let config = AugmentConfig::default();
        let points = augment_pcc_points(&sky, 50, 30.0, &config);
        assert_eq!(points.len(), 5);
        assert!(points[0].is_ground_truth);
        assert_eq!(points[0].tokens, 50.0);
        assert_eq!(points[0].runtime, 30.0);
        assert!(points[1..].iter().all(|p| !p.is_ground_truth));
        // Lower allocations never run faster.
        for w in points.windows(2) {
            assert!(w[1].tokens < w[0].tokens);
            assert!(w[1].runtime >= w[0].runtime - 1e-9);
        }
    }

    #[test]
    fn pcc_points_dedupe_tiny_token_counts() {
        let sky = skyline();
        let config = AugmentConfig {
            pcc_fractions: vec![1.0, 0.4, 0.2, 0.1],
            ..Default::default()
        };
        // With 3 observed tokens, 0.4/0.2/0.1 all round to 1.
        let points = augment_pcc_points(&sky, 3, 25.0, &config);
        let tokens: Vec<f64> = points.iter().map(|p| p.tokens).collect();
        let mut deduped = tokens.clone();
        deduped.dedup();
        assert_eq!(tokens, deduped);
    }

    #[test]
    fn target_pcc_is_monotone() {
        let sky = skyline();
        let config = AugmentConfig::default();
        let points = augment_pcc_points(&sky, 45, 32.0, &config);
        let pcc = fit_target_pcc(&points, &config).unwrap();
        assert!(pcc.is_non_increasing(), "{pcc:?}");
        assert!(pcc.b > 0.0);
    }

    #[test]
    fn ground_truth_weight_pulls_fit() {
        // Simulated points say one thing; ground truth says another.
        let points = vec![
            AugmentedPoint { tokens: 100.0, runtime: 200.0, is_ground_truth: true },
            AugmentedPoint { tokens: 50.0, runtime: 220.0, is_ground_truth: false },
            AugmentedPoint { tokens: 25.0, runtime: 260.0, is_ground_truth: false },
        ];
        let low_weight = AugmentConfig { ground_truth_weight: 1.0, ..Default::default() };
        let high_weight = AugmentConfig { ground_truth_weight: 50.0, ..Default::default() };
        let p_low = fit_target_pcc(&points, &low_weight).unwrap();
        let p_high = fit_target_pcc(&points, &high_weight).unwrap();
        // Heavier ground truth pulls the curve closer to the observed point.
        let err_low = (p_low.predict(100) - 200.0).abs();
        let err_high = (p_high.predict(100) - 200.0).abs();
        assert!(err_high < err_low, "{err_high} vs {err_low}");
    }

    #[test]
    fn xgb_points_include_flat_region_for_overallocated() {
        let sky = skyline(); // peak 40
        let config = AugmentConfig::default();
        let points = augment_xgb_points(&sky, 100, 30.0, &config);
        // 1 observed (100) + 2 below (80, 60) + 2 above-peak (48, 56).
        assert_eq!(points.len(), 5);
        let tokens: Vec<f64> = points.iter().map(|p| p.tokens).collect();
        assert!(tokens.contains(&48.0) && tokens.contains(&56.0), "{tokens:?}");
        // The above-peak points are floored at the observed run time.
        for p in points.iter().filter(|p| p.tokens == 48.0 || p.tokens == 56.0) {
            assert_eq!(p.runtime, 30.0);
            assert!(!p.is_ground_truth);
        }
    }

    #[test]
    fn xgb_points_skip_above_peak_when_not_overallocated() {
        let sky = skyline(); // peak 40
        let config = AugmentConfig::default();
        let points = augment_xgb_points(&sky, 40, 30.0, &config);
        // No above-peak points (peak == observed).
        assert_eq!(points.len(), 3);
    }

    #[test]
    fn xgb_above_peak_never_exceeds_observed_tokens() {
        let sky = skyline(); // peak 40; 1.4*40 = 56 > 50 is fine, but cap at observed
        let config = AugmentConfig::default();
        let points = augment_xgb_points(&sky, 50, 30.0, &config);
        assert!(points.iter().all(|p| p.tokens <= 50.0), "{points:?}");
    }

    #[test]
    fn fit_fails_gracefully_on_single_point() {
        let points =
            vec![AugmentedPoint { tokens: 10.0, runtime: 100.0, is_ground_truth: true }];
        // Single distinct token count -> degenerate flat fit (a = 0).
        let pcc = fit_target_pcc(&points, &AugmentConfig::default()).unwrap();
        assert_eq!(pcc.a, 0.0);
    }
}
