//! Ordinary least squares, including the simple (single-feature) case used
//! for power-law PCC fitting in log-log space.
//!
//! The paper (Section 4.1) fits `log(runtime) = log(b) + a * log(tokens)`
//! with linear regression; [`simple_ols`] is that fit, and
//! [`weighted_simple_ols`] supports the weighted variants used when
//! augmented points should count less than ground truth.

/// Result of a simple (one-feature) least-squares fit `y = intercept + slope*x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (0 when `y` is constant).
    pub r_squared: f64,
}

impl SimpleFit {
    /// Predict `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fit `y = intercept + slope * x` by least squares.
///
/// Returns `None` when fewer than 2 points are given or all `x` are equal
/// (the slope would be undefined).
pub fn simple_ols(xs: &[f64], ys: &[f64]) -> Option<SimpleFit> {
    let weights = vec![1.0; xs.len()];
    weighted_simple_ols(xs, ys, &weights)
}

/// Weighted least squares for `y = intercept + slope * x`.
///
/// Weights must be non-negative; points with zero weight are ignored.
/// Returns `None` when the fit is degenerate.
pub fn weighted_simple_ols(xs: &[f64], ys: &[f64], weights: &[f64]) -> Option<SimpleFit> {
    assert_eq!(xs.len(), ys.len(), "weighted_simple_ols: length mismatch");
    assert_eq!(xs.len(), weights.len(), "weighted_simple_ols: weights length mismatch");
    let w_total: f64 = weights.iter().sum();
    if xs.len() < 2 || w_total <= 0.0 {
        return None;
    }
    let mean_x = xs.iter().zip(weights).map(|(x, w)| x * w).sum::<f64>() / w_total;
    let mean_y = ys.iter().zip(weights).map(|(y, w)| y * w).sum::<f64>() / w_total;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for ((&x, &y), &w) in xs.iter().zip(ys).zip(weights) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += w * dx * dx;
        sxy += w * dx * dy;
        syy += w * dy * dy;
    }
    if sxx <= f64::EPSILON * w_total {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy > 0.0 { (sxy * sxy / (sxx * syy)).clamp(0.0, 1.0) } else { 0.0 };
    Some(SimpleFit { slope, intercept, r_squared })
}

/// Multiple linear regression via normal equations with ridge damping.
///
/// Solves `min ||X beta - y||^2 + lambda ||beta||^2` where `X` includes a
/// leading column of ones added internally for the intercept. Returns the
/// coefficient vector `[intercept, beta_1, ..., beta_p]`, or `None` if the
/// system is singular even after damping.
pub fn ridge_regression(rows: &[Vec<f64>], ys: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert_eq!(rows.len(), ys.len(), "ridge_regression: length mismatch");
    let n = rows.len();
    if n == 0 {
        return None;
    }
    let p = rows[0].len() + 1; // + intercept
    // Build X^T X and X^T y with the implicit ones column.
    let mut xtx = vec![vec![0.0; p]; p];
    let mut xty = vec![0.0; p];
    for (row, &y) in rows.iter().zip(ys) {
        assert_eq!(row.len() + 1, p, "ridge_regression: ragged rows");
        let mut full = Vec::with_capacity(p);
        full.push(1.0);
        full.extend_from_slice(row);
        for i in 0..p {
            xty[i] += full[i] * y;
            for j in 0..p {
                xtx[i][j] += full[i] * full[j];
            }
        }
    }
    for (i, row) in xtx.iter_mut().enumerate() {
        if i > 0 {
            row[i] += lambda; // do not penalize the intercept
        }
    }
    solve_gaussian(xtx, xty)
}

/// Solve a dense linear system by Gaussian elimination with partial
/// pivoting. Returns `None` if the matrix is (numerically) singular.
#[allow(clippy::needless_range_loop)] // row/column index arithmetic
fn solve_gaussian(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            // Exact-zero skip of a no-op elimination row; any nonzero factor
            // must be applied.
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let fit = simple_ols(&xs, &ys).unwrap();
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(simple_ols(&[1.0], &[2.0]).is_none());
        assert!(simple_ols(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(simple_ols(&[], &[]).is_none());
    }

    #[test]
    fn weighted_fit_ignores_zero_weight_outlier() {
        let xs = [1.0, 2.0, 3.0, 10.0];
        let ys = [1.0, 2.0, 3.0, 100.0]; // last point is a wild outlier
        let weights = [1.0, 1.0, 1.0, 0.0];
        let fit = weighted_simple_ols(&xs, &ys, &weights).unwrap();
        assert!((fit.slope - 1.0).abs() < 1e-9);
        assert!(fit.intercept.abs() < 1e-9);
    }

    #[test]
    fn power_law_in_log_space() {
        // runtime = 500 * tokens^-0.7
        let tokens = [10.0, 20.0, 50.0, 100.0, 200.0];
        let log_t: Vec<f64> = tokens.iter().map(|t: &f64| t.ln()).collect();
        let log_r: Vec<f64> =
            tokens.iter().map(|t| (500.0 * t.powf(-0.7)).ln()).collect();
        let fit = simple_ols(&log_t, &log_r).unwrap();
        assert!((fit.slope + 0.7).abs() < 1e-9, "a = {}", fit.slope);
        assert!((fit.intercept.exp() - 500.0).abs() < 1e-6, "b = {}", fit.intercept.exp());
    }

    #[test]
    fn ridge_recovers_plane() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 + 2.0 * r[0] - 0.5 * r[1]).collect();
        let beta = ridge_regression(&rows, &ys, 1e-9).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-6);
        assert!((beta[1] - 2.0).abs() < 1e-6);
        assert!((beta[2] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn ridge_handles_singular_with_damping() {
        // Duplicate feature columns: singular without lambda.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * 4.0).collect();
        let beta = ridge_regression(&rows, &ys, 1e-3).unwrap();
        // Coefficients split the weight but predictions stay accurate.
        let pred = beta[0] + beta[1] * 5.0 + beta[2] * 5.0;
        assert!((pred - 20.0).abs() < 0.1, "pred {pred}");
    }

    #[test]
    fn r_squared_zero_for_constant_y() {
        let fit = simple_ols(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.r_squared, 0.0);
        assert_eq!(fit.slope, 0.0);
    }
}
