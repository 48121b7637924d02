//! Natural cubic smoothing spline (Reinsch algorithm).
//!
//! The paper's "XGBoost SS" variant smooths a set of run-time point
//! predictions at nearby token counts into a curve (Section 4.4). This
//! module implements the classic penalized regression spline: minimize
//! `sum (y_i - f(x_i))^2 + lambda * integral f''(t)^2 dt` over natural
//! cubic splines `f`. Following Green & Silverman, the solution solves the
//! pentadiagonal system `(R + lambda Q^T Q) gamma = Q^T y` for the interior
//! second derivatives `gamma`, after which the fitted values are
//! `f = y - lambda Q gamma`.

/// A fitted natural cubic smoothing spline.
///
/// # Examples
///
/// ```
/// use tasq_ml::spline::SmoothingSpline;
///
/// let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
/// let ys = [10.0, 7.6, 6.1, 5.2, 4.9];
/// // lambda = 0 interpolates; larger values smooth toward a line.
/// let spline = SmoothingSpline::fit(&xs, &ys, 0.5).unwrap();
/// let mid = spline.evaluate(1.5);
/// assert!(mid > 6.1 && mid < 7.6);
/// ```
#[derive(Debug, Clone)]
pub struct SmoothingSpline {
    /// Knot locations (strictly increasing).
    knots: Vec<f64>,
    /// Fitted values at the knots.
    values: Vec<f64>,
    /// Second derivatives at the knots (zero at the boundary — "natural").
    second_derivs: Vec<f64>,
}

impl SmoothingSpline {
    /// Fit a smoothing spline to `(xs, ys)` with smoothing parameter
    /// `lambda >= 0` (`0` interpolates; large values approach the least
    /// squares line).
    ///
    /// Points are sorted internally; duplicate `x` values are averaged.
    /// Returns `None` if fewer than 2 distinct `x` values remain.
    pub fn fit(xs: &[f64], ys: &[f64], lambda: f64) -> Option<Self> {
        assert_eq!(xs.len(), ys.len(), "SmoothingSpline::fit: length mismatch");
        assert!(lambda >= 0.0, "SmoothingSpline::fit: lambda must be non-negative");
        let (knots, mut y) = dedup_sorted(xs, ys);
        let n = knots.len();
        if n < 2 {
            return None;
        }
        if n == 2 {
            // A natural spline through two points is the connecting line.
            return Some(Self { knots, values: y, second_derivs: vec![0.0, 0.0] });
        }

        let h: Vec<f64> = knots.windows(2).map(|w| w[1] - w[0]).collect();
        let m = n - 2; // interior knots

        // R (m x m, tridiagonal) and Q^T Q (m x m, pentadiagonal), stored as
        // symmetric bands: band0 = diagonal, band1 = first sub-diagonal,
        // band2 = second sub-diagonal.
        let mut band0 = vec![0.0; m];
        let mut band1 = vec![0.0; m.saturating_sub(1)];
        let mut band2 = vec![0.0; m.saturating_sub(2)];

        // Column j of Q (j = 0..m-1, corresponding to interior knot j+1) has
        // entries at rows j, j+1, j+2:
        //   q[j][j]   =  1/h[j]
        //   q[j+1][j] = -1/h[j] - 1/h[j+1]
        //   q[j+2][j] =  1/h[j+1]
        let q_col = |j: usize| -> [f64; 3] {
            [1.0 / h[j], -1.0 / h[j] - 1.0 / h[j + 1], 1.0 / h[j + 1]]
        };

        for j in 0..m {
            let qj = q_col(j);
            // R diagonal and off-diagonal.
            band0[j] += (h[j] + h[j + 1]) / 3.0;
            if j + 1 < m {
                band1[j] += h[j + 1] / 6.0;
            }
            // lambda * Q^T Q contributions.
            band0[j] += lambda * qj.iter().map(|v| v * v).sum::<f64>();
            if j + 1 < m {
                let qn = q_col(j + 1);
                // Columns j and j+1 overlap at rows j+1 and j+2.
                band1[j] += lambda * (qj[1] * qn[0] + qj[2] * qn[1]);
            }
            if j + 2 < m {
                let qn = q_col(j + 2);
                // Columns j and j+2 overlap at row j+2 only.
                band2[j] += lambda * qj[2] * qn[0];
            }
        }

        // rhs = Q^T y  (second divided differences of y).
        let rhs: Vec<f64> = (0..m)
            .map(|j| {
                let qj = q_col(j);
                qj[0] * y[j] + qj[1] * y[j + 1] + qj[2] * y[j + 2]
            })
            .collect();

        let gamma_interior = solve_banded_ldl(&band0, &band1, &band2, &rhs)?;

        // f = y - lambda * Q * gamma.
        for (j, &g) in gamma_interior.iter().enumerate() {
            let qj = q_col(j);
            y[j] -= lambda * qj[0] * g;
            y[j + 1] -= lambda * qj[1] * g;
            y[j + 2] -= lambda * qj[2] * g;
        }

        let mut second_derivs = Vec::with_capacity(n);
        second_derivs.push(0.0);
        second_derivs.extend(gamma_interior);
        second_derivs.push(0.0);

        Some(Self { knots, values: y, second_derivs })
    }

    /// Fitted values at the (deduplicated, sorted) knots.
    pub fn fitted_values(&self) -> &[f64] {
        &self.values
    }

    /// Knot locations.
    pub fn knots(&self) -> &[f64] {
        &self.knots
    }

    /// Evaluate the spline at `x`. Outside the knot range the natural
    /// spline extrapolates linearly (second derivative is zero at the
    /// boundary).
    pub fn evaluate(&self, x: f64) -> f64 {
        let n = self.knots.len();
        if n == 1 {
            return self.values[0];
        }
        // Linear extrapolation using the boundary derivative.
        if x <= self.knots[0] {
            let d = self.derivative_at_knot(0);
            return self.values[0] + d * (x - self.knots[0]);
        }
        if x >= self.knots[n - 1] {
            let d = self.derivative_at_knot(n - 1);
            return self.values[n - 1] + d * (x - self.knots[n - 1]);
        }
        let i = match self.knots.binary_search_by(|k| k.total_cmp(&x)) {
            Ok(i) => return self.values[i],
            Err(i) => i - 1,
        };
        let h = self.knots[i + 1] - self.knots[i];
        let a = (self.knots[i + 1] - x) / h;
        let b = (x - self.knots[i]) / h;
        a * self.values[i]
            + b * self.values[i + 1]
            + ((a * a * a - a) * self.second_derivs[i]
                + (b * b * b - b) * self.second_derivs[i + 1])
                * h
                * h
                / 6.0
    }

    /// First derivative at knot `i` (one-sided at the boundaries).
    fn derivative_at_knot(&self, i: usize) -> f64 {
        if i == 0 {
            let h = self.knots[1] - self.knots[0];
            (self.values[1] - self.values[0]) / h
                - h / 6.0 * (2.0 * self.second_derivs[0] + self.second_derivs[1])
        } else {
            let h = self.knots[i] - self.knots[i - 1];
            (self.values[i] - self.values[i - 1]) / h
                + h / 6.0 * (self.second_derivs[i - 1] + 2.0 * self.second_derivs[i])
        }
    }

    /// True if the fitted values are non-increasing across the knots
    /// (within `tolerance` of relative slack). Used by the paper's
    /// "Pattern" metric for XGBoost SS predictions.
    pub fn is_non_increasing(&self, tolerance: f64) -> bool {
        self.values.windows(2).all(|w| w[1] <= w[0] * (1.0 + tolerance) + tolerance)
    }
}

/// Average ys at duplicate x values and return sorted arrays.
fn dedup_sorted(xs: &[f64], ys: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut pairs: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out_x = Vec::with_capacity(pairs.len());
    let mut out_y = Vec::with_capacity(pairs.len());
    let mut i = 0;
    while i < pairs.len() {
        let x = pairs[i].0;
        let mut sum = 0.0;
        let mut count = 0usize;
        #[expect(clippy::float_cmp, reason = "groups repeated knots, which are exact copies")]
        while i < pairs.len() && pairs[i].0 == x {
            sum += pairs[i].1;
            count += 1;
            i += 1;
        }
        out_x.push(x);
        out_y.push(sum / count as f64);
    }
    (out_x, out_y)
}

/// Solve a symmetric positive-definite pentadiagonal system via LDL^T.
///
/// `band0` is the diagonal (length m), `band1` the first sub-diagonal
/// (length m-1), `band2` the second sub-diagonal (length m-2).
fn solve_banded_ldl(
    band0: &[f64],
    band1: &[f64],
    band2: &[f64],
    rhs: &[f64],
) -> Option<Vec<f64>> {
    let m = band0.len();
    if m == 0 {
        return Some(Vec::new());
    }
    // Factor A = L D L^T with L unit-lower-triangular, bandwidth 2.
    let mut d = vec![0.0; m]; // D diagonal
    let mut l1 = vec![0.0; m.saturating_sub(1)]; // L sub-diagonal 1
    let mut l2 = vec![0.0; m.saturating_sub(2)]; // L sub-diagonal 2

    for i in 0..m {
        let mut di = band0[i];
        if i >= 1 {
            di -= l1[i - 1] * l1[i - 1] * d[i - 1];
        }
        if i >= 2 {
            di -= l2[i - 2] * l2[i - 2] * d[i - 2];
        }
        if di <= 0.0 || !di.is_finite() {
            return None; // not SPD (should not happen for valid inputs)
        }
        d[i] = di;
        if i + 1 < m {
            let mut v = band1[i];
            if i >= 1 {
                v -= l2[i - 1] * l1[i - 1] * d[i - 1];
            }
            l1[i] = v / di;
        }
        if i + 2 < m {
            l2[i] = band2[i] / di;
        }
    }

    // Forward solve L z = rhs.
    let mut z = rhs.to_vec();
    for i in 0..m {
        if i >= 1 {
            z[i] -= l1[i - 1] * z[i - 1];
        }
        if i >= 2 {
            z[i] -= l2[i - 2] * z[i - 2];
        }
    }
    // Diagonal solve.
    for i in 0..m {
        z[i] /= d[i];
    }
    // Backward solve L^T x = z.
    for i in (0..m).rev() {
        if i + 1 < m {
            z[i] -= l1[i] * z[i + 1];
        }
        if i + 2 < m {
            z[i] -= l2[i] * z[i + 2];
        }
    }
    Some(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_zero_interpolates() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 3.0, 2.0, 5.0, 4.0];
        let s = SmoothingSpline::fit(&xs, &ys, 0.0).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!((s.evaluate(x) - y).abs() < 1e-9, "at {x}: {} vs {y}", s.evaluate(x));
        }
    }

    #[test]
    fn large_lambda_approaches_line() {
        // Noisy line: with huge smoothing the fit should be nearly linear.
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + if (*x as usize).is_multiple_of(2) { 0.5 } else { -0.5 }).collect();
        let s = SmoothingSpline::fit(&xs, &ys, 1e9).unwrap();
        // Check near-linearity: second differences of fitted values ~ 0.
        let f = s.fitted_values();
        for w in f.windows(3) {
            let second_diff = w[2] - 2.0 * w[1] + w[0];
            assert!(second_diff.abs() < 1e-3, "second diff {second_diff}");
        }
        // And slope near 2.
        let slope = (f[19] - f[0]) / 19.0;
        assert!((slope - 2.0).abs() < 0.05, "slope {slope}");
    }

    #[test]
    fn smoothing_reduces_roughness() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| (-0.5 * x).exp() * 100.0 + if i % 2 == 0 { 4.0 } else { -4.0 })
            .collect();
        let rough = |vals: &[f64]| -> f64 {
            vals.windows(3).map(|w| (w[2] - 2.0 * w[1] + w[0]).powi(2)).sum()
        };
        let s0 = SmoothingSpline::fit(&xs, &ys, 0.0).unwrap();
        let s1 = SmoothingSpline::fit(&xs, &ys, 10.0).unwrap();
        assert!(rough(s1.fitted_values()) < rough(s0.fitted_values()) * 0.5);
    }

    #[test]
    fn evaluate_between_knots_is_continuous() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 4.0, 9.0];
        let s = SmoothingSpline::fit(&xs, &ys, 0.1).unwrap();
        // Sample densely; adjacent evaluations must stay close.
        let mut prev = s.evaluate(0.0);
        let mut x = 0.0;
        while x < 3.0 {
            x += 0.01;
            let v = s.evaluate(x);
            assert!((v - prev).abs() < 0.5, "jump at {x}: {prev} -> {v}");
            prev = v;
        }
    }

    #[test]
    fn extrapolates_linearly() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.0, 2.0];
        let s = SmoothingSpline::fit(&xs, &ys, 0.0).unwrap();
        assert!((s.evaluate(-1.0) + 1.0).abs() < 1e-9);
        assert!((s.evaluate(5.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_x_values_averaged() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 5.0, 6.0];
        let s = SmoothingSpline::fit(&xs, &ys, 0.0).unwrap();
        assert_eq!(s.knots(), &[1.0, 2.0, 3.0]);
        assert!((s.evaluate(1.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn too_few_points_returns_none() {
        assert!(SmoothingSpline::fit(&[1.0], &[2.0], 0.0).is_none());
        assert!(SmoothingSpline::fit(&[], &[], 0.0).is_none());
        assert!(SmoothingSpline::fit(&[1.0, 1.0], &[2.0, 3.0], 0.0).is_none());
    }

    #[test]
    fn two_points_gives_line() {
        let s = SmoothingSpline::fit(&[0.0, 2.0], &[0.0, 4.0], 1.0).unwrap();
        assert!((s.evaluate(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn monotonicity_check() {
        let dec = SmoothingSpline::fit(&[1.0, 2.0, 3.0], &[5.0, 3.0, 1.0], 0.0).unwrap();
        assert!(dec.is_non_increasing(0.0));
        let inc = SmoothingSpline::fit(&[1.0, 2.0, 3.0], &[1.0, 3.0, 5.0], 0.0).unwrap();
        assert!(!inc.is_non_increasing(0.0));
    }
}
