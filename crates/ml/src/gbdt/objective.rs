//! Boosting objectives: per-sample gradient/hessian of the loss with
//! respect to the raw (margin) score.

use tasq_codec::Wire;

/// Training objective for the booster.
#[derive(Debug, Clone, Copy, PartialEq, Wire)]
pub enum Objective {
    /// `0.5 * (raw - y)^2`; predictions are the raw scores.
    SquaredError,
    /// Gamma deviance with log link: the model predicts `mu = exp(raw)` and
    /// minimizes the Gamma negative log-likelihood `y/mu + ln(mu)` (up to
    /// terms constant in `raw`). This matches XGBoost's `reg:gamma` and is
    /// the objective the paper uses for run-time regression.
    GammaDeviance,
    /// Pinball (quantile) loss for the given quantile `q in (0, 1)`:
    /// predictions estimate the conditional q-quantile of the target.
    /// Used by the SLO extension to predict conservative (e.g. P90) run
    /// times. The hessian is constant 1 (the loss is piecewise linear).
    Quantile(f64),
}

impl Objective {
    /// Initial raw score fitted on the targets (the optimal constant).
    pub fn base_score(self, targets: &[f64]) -> f64 {
        let mean = if targets.is_empty() {
            0.0
        } else {
            targets.iter().sum::<f64>() / targets.len() as f64
        };
        match self {
            Objective::SquaredError => mean,
            Objective::GammaDeviance => mean.max(f64::MIN_POSITIVE).ln(),
            Objective::Quantile(q) => crate::stats::quantile(targets, q),
        }
    }

    /// Gradient of the loss w.r.t. the raw score.
    #[inline]
    pub fn gradient(self, raw: f64, target: f64) -> f64 {
        match self {
            Objective::SquaredError => raw - target,
            // d/draw [ y*exp(-raw) + raw ] = 1 - y*exp(-raw)
            Objective::GammaDeviance => 1.0 - target * (-raw).exp(),
            // Pinball: -q below the target, (1-q) above it.
            Objective::Quantile(q) => {
                if raw < target {
                    -q
                } else {
                    1.0 - q
                }
            }
        }
    }

    /// Hessian (second derivative) of the loss w.r.t. the raw score.
    #[inline]
    pub fn hessian(self, raw: f64, target: f64) -> f64 {
        match self {
            Objective::SquaredError => 1.0,
            // d^2/draw^2 = y*exp(-raw)
            Objective::GammaDeviance => (target * (-raw).exp()).max(1e-12),
            // Piecewise-linear loss: use a unit surrogate hessian.
            Objective::Quantile(_) => 1.0,
        }
    }

    /// [`Objective::gradient`] and [`Objective::hessian`] at once, to the
    /// same bits: the Gamma objective computes `target * exp(-raw)` once
    /// for both.
    #[inline]
    pub fn gradient_hessian(self, raw: f64, target: f64) -> (f64, f64) {
        match self {
            Objective::GammaDeviance => {
                let scaled = target * (-raw).exp();
                (1.0 - scaled, scaled.max(1e-12))
            }
            Objective::SquaredError | Objective::Quantile(_) => {
                (self.gradient(raw, target), self.hessian(raw, target))
            }
        }
    }

    /// Transform a raw score into the prediction space.
    #[inline]
    pub fn transform(self, raw: f64) -> f64 {
        match self {
            Objective::SquaredError | Objective::Quantile(_) => raw,
            Objective::GammaDeviance => raw.exp(),
        }
    }

    /// Whether targets must be strictly positive.
    pub fn requires_positive_targets(self) -> bool {
        matches!(self, Objective::GammaDeviance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_error_grad_is_residual() {
        let o = Objective::SquaredError;
        assert_eq!(o.gradient(3.0, 5.0), -2.0);
        assert_eq!(o.hessian(3.0, 5.0), 1.0);
        assert_eq!(o.transform(4.2), 4.2);
    }

    #[test]
    fn gamma_gradient_zero_at_optimum() {
        // At raw = ln(y), gradient must vanish.
        let o = Objective::GammaDeviance;
        let y = 7.5_f64;
        let raw = y.ln();
        assert!(o.gradient(raw, y).abs() < 1e-12);
        assert!(o.hessian(raw, y) > 0.0);
    }

    #[test]
    fn gamma_grad_matches_finite_difference() {
        let o = Objective::GammaDeviance;
        let loss = |raw: f64, y: f64| y * (-raw).exp() + raw;
        let h = 1e-6;
        for &(raw, y) in &[(0.5, 2.0), (2.0, 10.0), (-1.0, 0.3)] {
            let numeric = (loss(raw + h, y) - loss(raw - h, y)) / (2.0 * h);
            assert!((numeric - o.gradient(raw, y)).abs() < 1e-5);
            // Wider step for the second derivative: the central second
            // difference cancels catastrophically at h = 1e-6.
            let h2 = 1e-4;
            let numeric2 =
                (loss(raw + h2, y) - 2.0 * loss(raw, y) + loss(raw - h2, y)) / (h2 * h2);
            assert!((numeric2 - o.hessian(raw, y)).abs() < 1e-3);
        }
    }

    /// The fused form gives the separate forms' bits for every objective,
    /// including raw scores whose `exp` overflows or underflows.
    #[test]
    fn gradient_hessian_matches_the_separate_forms_to_the_bit() {
        let objectives =
            [Objective::SquaredError, Objective::GammaDeviance, Objective::Quantile(0.9)];
        let raws = [-800.0, -3.5, -1e-300, -0.0, 0.0, 0.25, 2.0, 40.0, 800.0];
        let targets = [1e-9, 0.3, 1.0, 7.5, 1e6];
        for o in objectives {
            for raw in raws {
                for y in targets {
                    let (g, h) = o.gradient_hessian(raw, y);
                    let want = (o.gradient(raw, y).to_bits(), o.hessian(raw, y).to_bits());
                    assert_eq!((g.to_bits(), h.to_bits()), want, "{o:?} raw={raw} y={y}");
                }
            }
        }
    }

    #[test]
    fn base_scores() {
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(Objective::SquaredError.base_score(&ys), 2.0);
        assert!((Objective::GammaDeviance.base_score(&ys) - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(Objective::SquaredError.base_score(&[]), 0.0);
    }

    #[test]
    fn gamma_transform_is_exp() {
        assert!((Objective::GammaDeviance.transform(0.0) - 1.0).abs() < 1e-12);
        assert!((Objective::GammaDeviance.transform(2.0) - 2.0f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn quantile_gradient_signs() {
        let o = Objective::Quantile(0.9);
        assert_eq!(o.gradient(5.0, 10.0), -0.9, "below target pushes up");
        assert!((o.gradient(15.0, 10.0) - 0.1).abs() < 1e-12, "above target pushes down gently");
        assert_eq!(o.hessian(0.0, 1.0), 1.0);
        assert_eq!(o.transform(3.5), 3.5);
    }

    #[test]
    fn quantile_base_score_is_empirical_quantile() {
        let ys: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let base = Objective::Quantile(0.9).base_score(&ys);
        assert!((89.0..=91.0).contains(&base), "{base}");
    }
}
