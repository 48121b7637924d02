//! The performance characteristic curve (PCC).
//!
//! The paper models the relationship between run time and token allocation
//! as a power law (Section 4.1):
//!
//! ```text
//! runtime = b * A^a          <=>   log runtime = log b + a * log A
//! ```
//!
//! Amdahl's law is the special case `a = -1`. The curve is monotonically
//! non-increasing exactly when `a` and `b` have opposite signs (here:
//! `b > 0`, `a < 0`).

use tasq_codec::Wire;
use tasq_ml::linreg;

/// A power-law PCC `runtime = b * tokens^a`.
///
/// # Examples
///
/// ```
/// use tasq::pcc::PowerLawPcc;
///
/// // Fit a curve through measured (tokens, runtime) points...
/// let points = [(10.0, 950.0), (20.0, 540.0), (40.0, 300.0), (80.0, 170.0)];
/// let pcc = PowerLawPcc::fit(&points).unwrap();
/// assert!(pcc.is_non_increasing());
///
/// // ...then pick the allocation where the marginal gain drops below 1%.
/// let optimal = pcc.optimal_tokens(0.01, 1, 6287);
/// assert!(optimal > 10 && optimal < 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Wire)]
pub struct PowerLawPcc {
    /// Exponent (negative for a well-behaved, decreasing curve).
    pub a: f64,
    /// Scale (run time at one token), strictly positive.
    pub b: f64,
}

impl PowerLawPcc {
    /// Construct directly from parameters.
    ///
    /// # Panics
    /// Panics if `b <= 0` or either parameter is non-finite.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a.is_finite() && b.is_finite(), "PowerLawPcc: parameters must be finite");
        assert!(b > 0.0, "PowerLawPcc: b must be positive");
        Self { a, b }
    }

    /// Predicted run time at a token count.
    ///
    /// # Panics
    /// Panics if `tokens == 0`.
    pub fn predict(&self, tokens: u32) -> f64 {
        assert!(tokens > 0, "PowerLawPcc::predict: tokens must be positive");
        // Clamp the exponent so extreme parameters cannot overflow to inf.
        let log_rt = (self.b.ln() + self.a * (tokens as f64).ln()).clamp(-30.0, 30.0);
        log_rt.exp()
    }

    /// Predicted run times over a range of token counts.
    pub fn predict_range(&self, tokens: impl IntoIterator<Item = u32>) -> Vec<(u32, f64)> {
        tokens.into_iter().map(|t| (t, self.predict(t))).collect()
    }

    /// Whether the curve is monotonically non-increasing in tokens
    /// (`a` and `b` have inconsistent signs; with `b > 0` that is `a <= 0`).
    pub fn is_non_increasing(&self) -> bool {
        self.a <= 0.0
    }

    /// Fit by ordinary least squares in log-log space.
    ///
    /// Points with non-positive tokens or run time are skipped. Returns
    /// `None` when fewer than two usable distinct token counts remain. If
    /// all run times are equal (zero slope) the fit degenerates to `a = 0`.
    pub fn fit(points: &[(f64, f64)]) -> Option<Self> {
        let weights = vec![1.0; points.len()];
        Self::fit_weighted(points, &weights)
    }

    /// Weighted log-log fit; lets ground-truth points outweigh simulated
    /// (augmented) points.
    pub fn fit_weighted(points: &[(f64, f64)], weights: &[f64]) -> Option<Self> {
        assert_eq!(points.len(), weights.len(), "fit_weighted: length mismatch");
        let mut xs = Vec::with_capacity(points.len());
        let mut ys = Vec::with_capacity(points.len());
        let mut ws = Vec::with_capacity(points.len());
        for (&(tokens, runtime), &w) in points.iter().zip(weights) {
            if tokens > 0.0 && runtime > 0.0 && w > 0.0 {
                xs.push(tokens.ln());
                ys.push(runtime.ln());
                ws.push(w);
            }
        }
        match linreg::weighted_simple_ols(&xs, &ys, &ws) {
            Some(fit) => {
                // Snap numerically-zero slopes (constant run times) to an
                // exact flat curve.
                let a = if fit.slope.abs() < 1e-12 { 0.0 } else { fit.slope };
                Some(Self { a, b: fit.intercept.exp() })
            }
            None if !ys.is_empty() => {
                // Degenerate: constant run time or single distinct token
                // count -> flat curve through the mean log-runtime.
                let mean_ly = ys.iter().sum::<f64>() / ys.len() as f64;
                Some(Self { a: 0.0, b: mean_ly.exp() })
            }
            None => None,
        }
    }

    /// The optimal token count per the paper's Section 2.1: the smallest
    /// allocation beyond which the marginal gain drops below the
    /// threshold, i.e. the largest `A` where adding one token still
    /// improves run time by at least `min_improvement` (e.g. `0.01` = 1%).
    ///
    /// The marginal relative improvement of the power law is
    /// `1 - ((A+1)/A)^a`, decreasing in `A`, so the answer is found in
    /// closed form and clamped to `[min_tokens, max_tokens]`.
    pub fn optimal_tokens(&self, min_improvement: f64, min_tokens: u32, max_tokens: u32) -> u32 {
        assert!(min_tokens >= 1 && max_tokens >= min_tokens, "optimal_tokens: bad bounds");
        if self.a >= 0.0 {
            return min_tokens; // no gain from parallelism at all
        }
        // Find the largest A with 1 - ((A+1)/A)^a >= min_improvement.
        // ((A+1)/A)^a <= 1 - min_improvement
        // a * ln(1 + 1/A) <= ln(1 - min_improvement)
        // ln(1 + 1/A) >= ln(1 - min_improvement)/a        (a < 0 flips)
        let rhs = (1.0 - min_improvement.clamp(1e-6, 0.999_999)).ln() / self.a;
        // 1 + 1/A >= e^rhs  =>  A <= 1 / (e^rhs - 1)
        let bound = rhs.exp() - 1.0;
        if bound <= 0.0 {
            return max_tokens;
        }
        let a_star = (1.0 / bound).floor();
        (a_star.max(min_tokens as f64).min(max_tokens as f64)) as u32
    }

    /// Elbow of the curve over `[lo, hi]` (the paper's Figure 3 red
    /// marker): the token count maximizing distance from the chord between
    /// the curve's endpoints, computed in normalized coordinates.
    pub fn elbow(&self, lo: u32, hi: u32) -> u32 {
        assert!(lo >= 1 && hi > lo, "elbow: bad range");
        let r_lo = self.predict(lo);
        let r_hi = self.predict(hi);
        let span_t = (hi - lo) as f64;
        let span_r = (r_lo - r_hi).abs().max(1e-12);
        let mut best = (lo, 0.0f64);
        for t in lo..=hi {
            let x = (t - lo) as f64 / span_t;
            let chord = r_lo + (r_hi - r_lo) * x;
            let dist = (chord - self.predict(t)).abs() / span_r;
            if dist > best.1 {
                best = (t, dist);
            }
        }
        best.0
    }

    /// Relative slowdown predicted when moving from `from_tokens` to
    /// `to_tokens`: `runtime(to)/runtime(from) - 1`.
    pub fn slowdown(&self, from_tokens: u32, to_tokens: u32) -> f64 {
        self.predict(to_tokens) / self.predict(from_tokens) - 1.0
    }

    /// The smallest token count whose predicted run time meets a deadline,
    /// in closed form: `b·A^a <= deadline  =>  A >= (deadline/b)^(1/a)`
    /// for `a < 0`. Returns `None` when no allocation in
    /// `[min_tokens, max_tokens]` meets it (including flat curves whose
    /// constant run time exceeds the deadline).
    pub fn min_tokens_for_deadline(
        &self,
        deadline_secs: f64,
        min_tokens: u32,
        max_tokens: u32,
    ) -> Option<u32> {
        assert!(deadline_secs > 0.0, "min_tokens_for_deadline: bad deadline");
        assert!(min_tokens >= 1 && max_tokens >= min_tokens, "min_tokens_for_deadline: bad bounds");
        if self.a >= 0.0 {
            // Flat (or pathological increasing) curve: min tokens if the
            // constant level already meets the deadline.
            return (self.predict(min_tokens) <= deadline_secs).then_some(min_tokens);
        }
        let required = (deadline_secs / self.b).powf(1.0 / self.a);
        let tokens = required.ceil().max(min_tokens as f64) as u32;
        // Guard against floating-point edge cases at the boundary.
        let tokens = if self.predict(tokens) <= deadline_secs {
            tokens
        } else {
            tokens.saturating_add(1)
        };
        (tokens <= max_tokens && self.predict(tokens) <= deadline_secs).then_some(tokens)
    }
}

/// Scaler that puts the two PCC parameters on comparable scales for the
/// loss function (the paper scales them "so that neither of the two would
/// dominate").
///
/// Targets are expressed as `t1 = -a` (positive for decreasing curves) and
/// `t2 = ln b`; each is divided by its training-set mean absolute value.
#[derive(Debug, Clone, Copy, Wire)]
pub struct ParamScaler {
    /// Scale (mean absolute value) of `-a`.
    pub scale_neg_a: f64,
    /// Scale (mean absolute value) of `ln b`.
    pub scale_log_b: f64,
}

impl ParamScaler {
    /// Fit from training PCCs.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn fit(pccs: &[PowerLawPcc]) -> Self {
        assert!(!pccs.is_empty(), "ParamScaler::fit: empty");
        let n = pccs.len() as f64;
        let scale_neg_a = (pccs.iter().map(|p| p.a.abs()).sum::<f64>() / n).max(1e-6);
        let scale_log_b = (pccs.iter().map(|p| p.b.ln().abs()).sum::<f64>() / n).max(1e-6);
        Self { scale_neg_a, scale_log_b }
    }

    /// Scaled targets `(t1, t2)` for a PCC.
    pub fn to_targets(&self, pcc: &PowerLawPcc) -> (f64, f64) {
        ((-pcc.a) / self.scale_neg_a, pcc.b.ln() / self.scale_log_b)
    }

    /// Invert scaled model outputs back to a PCC. `t1` is clamped to be
    /// non-negative so the result is always monotone non-increasing.
    pub fn from_targets(&self, t1: f64, t2: f64) -> PowerLawPcc {
        let neg_a = (t1 * self.scale_neg_a).max(0.0);
        let log_b = (t2 * self.scale_log_b).clamp(-30.0, 30.0);
        PowerLawPcc { a: -neg_a, b: log_b.exp() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_known_values() {
        let pcc = PowerLawPcc::new(-1.0, 1000.0); // Amdahl
        assert!((pcc.predict(1) - 1000.0).abs() < 1e-9);
        assert!((pcc.predict(10) - 100.0).abs() < 1e-9);
        assert!((pcc.predict(100) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_exact_power_law() {
        let truth = PowerLawPcc::new(-0.62, 4200.0);
        let points: Vec<(f64, f64)> =
            [5u32, 10, 20, 50, 100, 200].iter().map(|&t| (t as f64, truth.predict(t))).collect();
        let fit = PowerLawPcc::fit(&points).unwrap();
        assert!((fit.a - truth.a).abs() < 1e-9, "a {}", fit.a);
        assert!((fit.b / truth.b - 1.0).abs() < 1e-9, "b {}", fit.b);
    }

    #[test]
    fn fit_weighted_downweights_outlier() {
        let truth = PowerLawPcc::new(-0.5, 1000.0);
        let mut points: Vec<(f64, f64)> =
            [4u32, 8, 16, 32].iter().map(|&t| (t as f64, truth.predict(t))).collect();
        points.push((64.0, 10_000.0)); // wild outlier
        let weights = [1.0, 1.0, 1.0, 1.0, 0.0];
        let fit = PowerLawPcc::fit_weighted(&points, &weights).unwrap();
        assert!((fit.a - truth.a).abs() < 1e-9);
    }

    #[test]
    fn fit_degenerate_constant_runtime() {
        let points = [(10.0, 500.0), (20.0, 500.0), (40.0, 500.0)];
        let fit = PowerLawPcc::fit(&points).unwrap();
        assert_eq!(fit.a, 0.0);
        assert!((fit.b - 500.0).abs() < 1e-6);
        assert!(fit.is_non_increasing());
    }

    #[test]
    fn fit_single_token_count_degenerates() {
        let points = [(10.0, 500.0), (10.0, 520.0)];
        let fit = PowerLawPcc::fit(&points).unwrap();
        assert_eq!(fit.a, 0.0);
    }

    #[test]
    fn fit_rejects_unusable_points() {
        assert!(PowerLawPcc::fit(&[(0.0, 5.0), (-3.0, 4.0)]).is_none());
        assert!(PowerLawPcc::fit(&[]).is_none());
    }

    #[test]
    fn monotonicity_by_sign() {
        assert!(PowerLawPcc::new(-0.5, 100.0).is_non_increasing());
        assert!(PowerLawPcc::new(0.0, 100.0).is_non_increasing());
        assert!(!PowerLawPcc::new(0.3, 100.0).is_non_increasing());
    }

    #[test]
    fn optimal_tokens_closed_form_matches_scan() {
        let pcc = PowerLawPcc::new(-0.8, 5000.0);
        let optimal = pcc.optimal_tokens(0.01, 1, 10_000);
        // Verify against a brute-force scan of the marginal condition.
        let marginal = |a: u32| 1.0 - pcc.predict(a + 1) / pcc.predict(a);
        assert!(marginal(optimal) >= 0.01 - 1e-9, "at {optimal}: {}", marginal(optimal));
        assert!(marginal(optimal + 1) < 0.01 + 1e-9);
    }

    #[test]
    fn optimal_tokens_flat_curve_is_minimum() {
        let pcc = PowerLawPcc::new(0.0, 100.0);
        assert_eq!(pcc.optimal_tokens(0.01, 2, 500), 2);
    }

    #[test]
    fn optimal_tokens_respects_bounds() {
        let pcc = PowerLawPcc::new(-0.99, 1e6);
        assert_eq!(pcc.optimal_tokens(1e-6, 1, 50), 50);
        assert_eq!(pcc.optimal_tokens(0.5, 10, 50), 10);
    }

    #[test]
    fn elbow_is_interior_for_curved_pcc() {
        let pcc = PowerLawPcc::new(-1.0, 2500.0);
        let elbow = pcc.elbow(10, 200);
        assert!(elbow > 10 && elbow < 200, "elbow {elbow}");
    }

    #[test]
    fn slowdown_signs() {
        let pcc = PowerLawPcc::new(-0.7, 1000.0);
        assert!(pcc.slowdown(100, 50) > 0.0, "halving tokens slows down");
        assert!(pcc.slowdown(50, 100) < 0.0, "doubling tokens speeds up");
        assert_eq!(pcc.slowdown(64, 64), 0.0);
    }

    #[test]
    fn min_tokens_for_deadline_closed_form() {
        let pcc = PowerLawPcc::new(-0.75, 6000.0);
        let deadline = 300.0;
        let tokens = pcc.min_tokens_for_deadline(deadline, 1, 6287).unwrap();
        assert!(pcc.predict(tokens) <= deadline, "at {tokens}: {}", pcc.predict(tokens));
        if tokens > 1 {
            assert!(pcc.predict(tokens - 1) > deadline, "not minimal: {tokens}");
        }
    }

    #[test]
    fn min_tokens_for_deadline_infeasible() {
        let pcc = PowerLawPcc::new(-0.3, 1e6);
        // Even at the cap the run time is ~ 1e6 * 6287^-0.3 ≈ 72k s.
        assert!(pcc.min_tokens_for_deadline(10.0, 1, 6287).is_none());
        // Flat curve above the deadline.
        let flat = PowerLawPcc::new(0.0, 100.0);
        assert!(flat.min_tokens_for_deadline(50.0, 1, 100).is_none());
        assert_eq!(flat.min_tokens_for_deadline(200.0, 3, 100), Some(3));
    }

    #[test]
    fn scaler_roundtrip() {
        let pccs = vec![
            PowerLawPcc::new(-0.4, 300.0),
            PowerLawPcc::new(-0.9, 8000.0),
            PowerLawPcc::new(-0.6, 1200.0),
        ];
        let scaler = ParamScaler::fit(&pccs);
        for pcc in &pccs {
            let (t1, t2) = scaler.to_targets(pcc);
            let back = scaler.from_targets(t1, t2);
            assert!((back.a - pcc.a).abs() < 1e-9);
            assert!((back.b / pcc.b - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scaler_guarantees_monotone_reconstruction() {
        let scaler = ParamScaler { scale_neg_a: 0.5, scale_log_b: 5.0 };
        // Even a negative t1 (which would mean a > 0) is clamped.
        let pcc = scaler.from_targets(-2.0, 1.0);
        assert!(pcc.is_non_increasing());
        assert_eq!(pcc.a, 0.0);
    }

    #[test]
    #[should_panic(expected = "b must be positive")]
    fn non_positive_b_panics() {
        let _ = PowerLawPcc::new(-0.5, 0.0);
    }
}
