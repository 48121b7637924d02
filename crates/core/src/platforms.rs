//! Platform adaptations (paper Section 2.3).
//!
//! The general TASQ recipe — model a performance characteristic curve
//! with a parametric function, learn the parameters from compile-time
//! features, augment training data by simulation — carries to other
//! platforms; the platform-specific pieces are the functional form and
//! the resource unit. The companion AutoExecutor work applies it to Spark
//! SQL with *executors* as the unit and a scaled-inverse (Amdahl-form)
//! curve. This module provides that alternative form and a comparison
//! helper for choosing the better-fitting family per platform.

use crate::pcc::PowerLawPcc;
use tasq_codec::Wire;
use tasq_ml::linreg;

/// A scaled-inverse PCC: `runtime = serial + parallel / units`
/// (Amdahl's law with learnable serial and parallel fractions; the form
/// AutoExecutor uses for Spark SQL executor counts).
#[derive(Debug, Clone, Copy, PartialEq, Wire)]
pub struct ScaledInversePcc {
    /// Serial seconds (the asymptote at infinite resources).
    pub serial: f64,
    /// Parallel token/executor-seconds.
    pub parallel: f64,
}

impl ScaledInversePcc {
    /// Construct directly.
    ///
    /// # Panics
    /// Panics on non-finite or negative components.
    pub fn new(serial: f64, parallel: f64) -> Self {
        assert!(
            serial.is_finite() && parallel.is_finite() && serial >= 0.0 && parallel >= 0.0,
            "ScaledInversePcc: components must be finite and non-negative"
        );
        Self { serial, parallel }
    }

    /// Predicted run time at a resource count.
    ///
    /// # Panics
    /// Panics if `units == 0`.
    pub fn predict(&self, units: u32) -> f64 {
        assert!(units > 0, "ScaledInversePcc::predict: units must be positive");
        self.serial + self.parallel / units as f64
    }

    /// Always monotone non-increasing by construction.
    pub fn is_non_increasing(&self) -> bool {
        true
    }

    /// Fit by least squares on the basis `1/units` (clamping negative
    /// components to zero). Returns `None` with fewer than two distinct
    /// unit counts.
    pub fn fit(points: &[(f64, f64)]) -> Option<Self> {
        let mut xs = Vec::with_capacity(points.len());
        let mut ys = Vec::with_capacity(points.len());
        for &(units, runtime) in points {
            if units > 0.0 && runtime > 0.0 {
                xs.push(1.0 / units);
                ys.push(runtime);
            }
        }
        let fit = linreg::simple_ols(&xs, &ys)?;
        Some(Self { serial: fit.intercept.max(0.0), parallel: fit.slope.max(0.0) })
    }

    /// The smallest unit count where adding one more unit still improves
    /// run time by at least `min_improvement` (relative).
    pub fn optimal_units(&self, min_improvement: f64, min_units: u32, max_units: u32) -> u32 {
        assert!(min_units >= 1 && max_units >= min_units, "optimal_units: bad bounds");
        if self.parallel <= 0.0 {
            return min_units;
        }
        // Marginal improvement decreases in units: scan geometrically then
        // refine linearly around the crossing.
        let mut best = min_units;
        for units in min_units..max_units {
            let gain = 1.0 - self.predict(units + 1) / self.predict(units);
            if gain >= min_improvement {
                best = units + 1;
            } else {
                break;
            }
        }
        best
    }
}

/// Which functional family fits a measured performance curve better
/// (sum of squared log-residuals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CurveFamily {
    /// The SCOPE/TASQ power law `b * A^a`.
    PowerLaw,
    /// The Spark/AutoExecutor scaled inverse `s + p/A`.
    ScaledInverse,
}

/// Fit both families to a curve and report which has the lower sum of
/// squared log-residuals, with the per-family errors.
pub fn compare_families(points: &[(f64, f64)]) -> Option<(CurveFamily, f64, f64)> {
    let power = PowerLawPcc::fit(points)?;
    let inverse = ScaledInversePcc::fit(points)?;
    let sse = |predict: &dyn Fn(u32) -> f64| -> f64 {
        points
            .iter()
            .filter(|&&(u, r)| u >= 1.0 && r > 0.0)
            .map(|&(u, r)| {
                let e = predict(u as u32).max(1e-9).ln() - r.ln();
                e * e
            })
            .sum()
    };
    let power_err = sse(&|u| power.predict(u));
    let inverse_err = sse(&|u| inverse.predict(u));
    let family =
        if power_err <= inverse_err { CurveFamily::PowerLaw } else { CurveFamily::ScaledInverse };
    Some((family, power_err, inverse_err))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_and_asymptote() {
        let pcc = ScaledInversePcc::new(30.0, 3000.0);
        assert_eq!(pcc.predict(1), 3030.0);
        assert_eq!(pcc.predict(100), 60.0);
        assert!(pcc.predict(1_000_000) < 31.0);
        assert!(pcc.is_non_increasing());
    }

    #[test]
    fn fit_recovers_exact_curve() {
        let truth = ScaledInversePcc::new(45.0, 9000.0);
        let points: Vec<(f64, f64)> =
            [1u32, 2, 5, 10, 50, 200].iter().map(|&u| (u as f64, truth.predict(u))).collect();
        let fit = ScaledInversePcc::fit(&points).unwrap();
        assert!((fit.serial - 45.0).abs() < 1e-6);
        assert!((fit.parallel - 9000.0).abs() < 1e-6);
    }

    #[test]
    fn fit_clamps_negative_components() {
        // Increasing runtime with units would imply negative parallel work.
        let points = [(1.0, 10.0), (10.0, 100.0), (100.0, 1000.0)];
        let fit = ScaledInversePcc::fit(&points).unwrap();
        assert!(fit.parallel >= 0.0 && fit.serial >= 0.0);
    }

    #[test]
    fn optimal_units_matches_marginal_condition() {
        let pcc = ScaledInversePcc::new(20.0, 5000.0);
        let optimal = pcc.optimal_units(0.01, 1, 10_000);
        let gain = |u: u32| 1.0 - pcc.predict(u + 1) / pcc.predict(u);
        assert!(gain(optimal - 1) >= 0.01 - 1e-9 || optimal == 1);
        assert!(gain(optimal) < 0.01 + 1e-9);
    }

    #[test]
    fn family_comparison_identifies_generating_form() {
        // Pure Amdahl data prefers the scaled inverse.
        let amdahl = ScaledInversePcc::new(50.0, 4000.0);
        let points: Vec<(f64, f64)> =
            [1u32, 2, 4, 8, 16, 64, 256].iter().map(|&u| (u as f64, amdahl.predict(u))).collect();
        let (family, p_err, i_err) = compare_families(&points).unwrap();
        assert_eq!(family, CurveFamily::ScaledInverse, "power {p_err} vs inverse {i_err}");

        // Pure power-law data prefers the power law.
        let power = PowerLawPcc::new(-0.6, 4000.0);
        let points: Vec<(f64, f64)> =
            [1u32, 2, 4, 8, 16, 64, 256].iter().map(|&u| (u as f64, power.predict(u))).collect();
        let (family, p_err, i_err) = compare_families(&points).unwrap();
        assert_eq!(family, CurveFamily::PowerLaw, "power {p_err} vs inverse {i_err}");
    }
}
