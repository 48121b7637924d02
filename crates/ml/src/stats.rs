//! Statistics helpers: order statistics, the two-sample Kolmogorov–Smirnov
//! test (used to validate job-subset selection, paper Section 5.1), and the
//! error metrics reported in the paper's evaluation (MAE of curve
//! parameters, median/mean absolute percentage error of run times).

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; 0.0 for inputs shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median (linear interpolation between the two middle order statistics for
/// even lengths); 0.0 for empty input.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile with linear interpolation; `q` is clamped to `[0, 1]`.
/// Returns 0.0 for empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&sorted, q)
}

/// Quantile over data already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Mean absolute error between paired predictions and targets.
///
/// # Panics
/// Panics on length mismatch.
pub fn mean_absolute_error(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "mean_absolute_error: length mismatch");
    mean(&predictions.iter().zip(targets).map(|(p, t)| (p - t).abs()).collect::<Vec<_>>())
}

/// Absolute percentage errors `|pred - target| / |target|`, one per pair.
/// Pairs whose target is (numerically) zero are skipped — an exact-zero
/// test would still divide by denormal targets and blow the ratio up.
pub fn absolute_percentage_errors(predictions: &[f64], targets: &[f64]) -> Vec<f64> {
    assert_eq!(predictions.len(), targets.len(), "absolute_percentage_errors: length mismatch");
    predictions
        .iter()
        .zip(targets)
        .filter(|(_, t)| t.abs() > 1e-12)
        .map(|(p, t)| ((p - t) / t).abs())
        .collect()
}

/// Median absolute percentage error (the paper's "Median AE" for run times),
/// as a fraction (0.39 == 39%).
pub fn median_ape(predictions: &[f64], targets: &[f64]) -> f64 {
    median(&absolute_percentage_errors(predictions, targets))
}

/// Mean absolute percentage error, as a fraction.
pub fn mean_ape(predictions: &[f64], targets: &[f64]) -> f64 {
    mean(&absolute_percentage_errors(predictions, targets))
}

/// Empirical CDF evaluated at `x` over the sample `xs`.
pub fn empirical_cdf(xs: &[f64], x: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&v| v <= x).count() as f64 / xs.len() as f64
}

/// Result of a two-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic: the supremum distance between the two empirical
    /// CDFs.
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution approximation).
    pub p_value: f64,
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// Used to check that a stratified job subset matches the population
/// distribution (lower statistic = closer match). Returns a statistic of 1
/// and p-value of 0 when either sample is empty.
pub fn ks_two_sample(sample_a: &[f64], sample_b: &[f64]) -> KsResult {
    if sample_a.is_empty() || sample_b.is_empty() {
        return KsResult { statistic: 1.0, p_value: 0.0 };
    }
    let mut a: Vec<f64> = sample_a.to_vec();
    let mut b: Vec<f64> = sample_b.to_vec();
    a.sort_by(|x, y| x.total_cmp(y));
    b.sort_by(|x, y| x.total_cmp(y));

    let (na, nb) = (a.len() as f64, b.len() as f64);
    let d = ks_statistic(&a, &b);

    let en = (na * nb / (na + nb)).sqrt();
    let lambda = (en + 0.12 + 0.11 / en) * d;
    KsResult { statistic: d, p_value: kolmogorov_survival(lambda) }
}

/// The raw KS statistic over two ascending-sorted samples.
///
/// Ties are handled by advancing both cursors past the tied value before
/// measuring the CDF gap, so identical samples yield a statistic of zero.
fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < a.len() && j < b.len() {
        let v = a[i].min(b[j]);
        while i < a.len() && a[i] <= v {
            i += 1;
        }
        while j < b.len() && b[j] <= v {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// Survival function of the Kolmogorov distribution,
/// `Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2)`.
fn kolmogorov_survival(lambda: f64) -> f64 {
    if lambda < 1e-3 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// A bootstrap confidence interval for a statistic of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// The statistic on the full sample.
    pub point: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
}

/// Percentile-bootstrap confidence interval for an arbitrary statistic.
///
/// Resamples `xs` with replacement `iterations` times (deterministic given
/// `seed`), computes `statistic` on each resample, and returns the
/// `[alpha/2, 1-alpha/2]` percentile interval (e.g. `alpha = 0.05` for a
/// 95% CI). Returns a degenerate zero interval for empty input.
pub fn bootstrap_ci(
    xs: &[f64],
    statistic: impl Fn(&[f64]) -> f64,
    iterations: usize,
    alpha: f64,
    seed: u64,
) -> BootstrapCi {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    if xs.is_empty() {
        return BootstrapCi { point: 0.0, lower: 0.0, upper: 0.0 };
    }
    let point = statistic(xs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut resample = vec![0.0; xs.len()];
    let mut stats: Vec<f64> = (0..iterations.max(1))
        .map(|_| {
            for slot in &mut resample {
                *slot = xs[rng.gen_range(0..xs.len())];
            }
            statistic(&resample)
        })
        .collect();
    stats.sort_by(|a, b| a.total_cmp(b));
    let alpha = alpha.clamp(1e-6, 0.5);
    BootstrapCi {
        point,
        lower: quantile_sorted(&stats, alpha / 2.0),
        upper: quantile_sorted(&stats, 1.0 - alpha / 2.0),
    }
}

/// Histogram of `xs` into `bins` equal-width buckets over `[lo, hi]`.
/// Values outside the range are clamped into the edge buckets.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0 && hi > lo, "histogram: invalid configuration");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        let idx = (((x - lo) / width).floor() as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), 2.5);
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
    }

    #[test]
    fn mae_and_ape() {
        let pred = [11.0, 18.0];
        let target = [10.0, 20.0];
        assert!((mean_absolute_error(&pred, &target) - 1.5).abs() < 1e-12);
        let apes = absolute_percentage_errors(&pred, &target);
        assert!((apes[0] - 0.1).abs() < 1e-12);
        assert!((apes[1] - 0.1).abs() < 1e-12);
        assert!((median_ape(&pred, &target) - 0.1).abs() < 1e-12);
        assert!((mean_ape(&pred, &target) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ape_skips_zero_targets() {
        let apes = absolute_percentage_errors(&[1.0, 5.0], &[0.0, 10.0]);
        assert_eq!(apes.len(), 1);
        assert!((apes[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_identical_samples_is_zero() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let r = ks_two_sample(&xs, &xs);
        assert!(r.statistic < 1e-12);
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (100..150).map(|i| i as f64).collect();
        let r = ks_two_sample(&a, &b);
        assert!((r.statistic - 1.0).abs() < 1e-12);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn ks_detects_shift() {
        // Same shape, shifted: statistic should be meaningful but < 1.
        let a: Vec<f64> = (0..200).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..200).map(|i| i as f64 * 0.1 + 5.0).collect();
        let r = ks_two_sample(&a, &b);
        assert!(r.statistic > 0.2 && r.statistic <= 1.0);
    }

    #[test]
    fn ks_empty_sample_degenerate() {
        let r = ks_two_sample(&[], &[1.0]);
        assert_eq!(r.statistic, 1.0);
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn empirical_cdf_monotone() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(empirical_cdf(&xs, 0.5), 0.0);
        assert_eq!(empirical_cdf(&xs, 2.0), 0.5);
        assert_eq!(empirical_cdf(&xs, 10.0), 1.0);
    }

    #[test]
    fn histogram_counts() {
        let xs = [0.1, 0.2, 0.55, 0.9, 1.5, -0.5];
        let h = histogram(&xs, 0.0, 1.0, 2);
        // -0.5 clamps into bucket 0; 1.5 clamps into bucket 1.
        assert_eq!(h, vec![3, 3]);
    }

    #[test]
    fn bootstrap_ci_brackets_the_median() {
        // Sample from a known distribution; the CI must contain the point
        // estimate and be deterministic given the seed.
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 100) as f64).collect();
        let ci = bootstrap_ci(&xs, median, 500, 0.05, 7);
        assert!(ci.lower <= ci.point && ci.point <= ci.upper, "{ci:?}");
        assert!(ci.upper - ci.lower < 30.0, "CI absurdly wide: {ci:?}");
        let again = bootstrap_ci(&xs, median, 500, 0.05, 7);
        assert_eq!(ci, again);
    }

    #[test]
    fn bootstrap_ci_narrows_with_sample_size() {
        let small: Vec<f64> = (0..20).map(|i| (i % 10) as f64).collect();
        let large: Vec<f64> = (0..2000).map(|i| (i % 10) as f64).collect();
        let ci_small = bootstrap_ci(&small, mean, 400, 0.05, 1);
        let ci_large = bootstrap_ci(&large, mean, 400, 0.05, 1);
        assert!(
            ci_large.upper - ci_large.lower < ci_small.upper - ci_small.lower,
            "{ci_small:?} vs {ci_large:?}"
        );
    }

    #[test]
    fn bootstrap_ci_empty_is_degenerate() {
        let ci = bootstrap_ci(&[], median, 100, 0.05, 0);
        assert_eq!((ci.point, ci.lower, ci.upper), (0.0, 0.0, 0.0));
    }

    #[test]
    fn variance_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }
}
