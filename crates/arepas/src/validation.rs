//! Validation analyses for AREPAS (paper Section 5.2, Figures 12–13,
//! Table 3).
//!
//! The core assumption — token-seconds stay constant across allocations —
//! is checked by comparing the area under the skyline across pairs of
//! flights of the same job; the simulator's accuracy is summarized with
//! mean/median absolute percentage errors against re-executed ground
//! truth.

/// Relative area difference between two flights' skylines:
/// `|a - b| / max(a, b)`.
pub fn relative_area_difference(area_a: f64, area_b: f64) -> f64 {
    let hi = area_a.max(area_b);
    if hi <= 0.0 {
        0.0
    } else {
        (area_a - area_b).abs() / hi
    }
}

/// For the C(n,2) execution pairs of each job, the fraction whose relative
/// area difference is within `tolerance` (one point of the paper's
/// Figure 12 CDF).
pub fn area_match_fraction(job_areas: &[Vec<f64>], tolerance: f64) -> f64 {
    let mut total_pairs = 0usize;
    let mut matches = 0usize;
    for areas in job_areas {
        for i in 0..areas.len() {
            for j in i + 1..areas.len() {
                total_pairs += 1;
                if relative_area_difference(areas[i], areas[j]) <= tolerance {
                    matches += 1;
                }
            }
        }
    }
    if total_pairs == 0 {
        0.0
    } else {
        matches as f64 / total_pairs as f64
    }
}

/// Count outliers per job: an execution is an outlier if it fails the area
/// tolerance against the *majority* of the job's other executions
/// (paper Figure 12 bottom: "number of outliers per job that violate the
/// constant-area assumption").
pub fn count_outliers_per_job(areas: &[f64], tolerance: f64) -> usize {
    let n = areas.len();
    if n < 2 {
        return 0;
    }
    (0..n)
        .filter(|&i| {
            let mismatches = (0..n)
                .filter(|&j| {
                    j != i && relative_area_difference(areas[i], areas[j]) > tolerance
                })
                .count();
            mismatches * 2 > n - 1
        })
        .count()
}

/// Full area-conservation report over a set of flighted jobs
/// (the paper's Figure 12).
#[derive(Debug, Clone)]
pub struct AreaConservationReport {
    /// `(tolerance, fraction of execution pairs matching)` — the CDF.
    pub match_cdf: Vec<(f64, f64)>,
    /// Histogram of outlier counts per job at each reported tolerance:
    /// `(tolerance, counts[num_outliers] = num_jobs)`.
    pub outlier_histograms: Vec<(f64, Vec<usize>)>,
}

impl AreaConservationReport {
    /// Build the report from per-job lists of flight areas.
    pub fn build(job_areas: &[Vec<f64>], tolerances: &[f64]) -> Self {
        let match_cdf = tolerances
            .iter()
            .map(|&t| (t, area_match_fraction(job_areas, t)))
            .collect();
        let max_flights = job_areas.iter().map(Vec::len).max().unwrap_or(0);
        let outlier_histograms = tolerances
            .iter()
            .map(|&t| {
                let mut hist = vec![0usize; max_flights + 1];
                for areas in job_areas {
                    hist[count_outliers_per_job(areas, t)] += 1;
                }
                (t, hist)
            })
            .collect();
        Self { match_cdf, outlier_histograms }
    }

    /// Fraction of jobs with at most `k` outliers at the given tolerance
    /// (the paper reports 83% of jobs have <=1 outlier at 30% tolerance).
    pub fn fraction_with_at_most(&self, tolerance: f64, k: usize) -> Option<f64> {
        self.outlier_histograms
            .iter()
            .find(|(t, _)| (*t - tolerance).abs() < 1e-12)
            .map(|(_, hist)| {
                let total: usize = hist.iter().sum();
                if total == 0 {
                    return 0.0;
                }
                let within: usize = hist.iter().take(k + 1).sum();
                within as f64 / total as f64
            })
    }
}

/// Percent-error summary of simulated vs. ground-truth run times
/// (the paper's Table 3: MedianAPE 9% / MeanAPE 14% on the non-anomalous
/// subset).
#[derive(Debug, Clone, Copy)]
pub struct ErrorSummary {
    /// Number of (simulation, ground-truth) comparisons.
    pub n: usize,
    /// Median absolute percentage error, as a fraction.
    pub median_ape: f64,
    /// Mean absolute percentage error, as a fraction.
    pub mean_ape: f64,
    /// Worst-case absolute percentage error, as a fraction.
    pub max_ape: f64,
}

impl ErrorSummary {
    /// Summarize predictions against ground truth. Pairs whose ground
    /// truth is (numerically) zero are skipped — an exact-zero test would
    /// still divide by denormal values and blow the percentage up.
    pub fn from_pairs(predicted: &[f64], actual: &[f64]) -> Self {
        assert_eq!(predicted.len(), actual.len(), "ErrorSummary: length mismatch");
        let mut apes: Vec<f64> = predicted
            .iter()
            .zip(actual)
            .filter(|(_, a)| a.abs() > 1e-12)
            .map(|(p, a)| ((p - a) / a).abs())
            .collect();
        apes.sort_by(|a, b| a.total_cmp(b));
        let n = apes.len();
        let median_ape = if n == 0 {
            0.0
        } else if n % 2 == 1 {
            apes[n / 2]
        } else {
            0.5 * (apes[n / 2 - 1] + apes[n / 2])
        };
        let mean_ape = if n == 0 { 0.0 } else { apes.iter().sum::<f64>() / n as f64 };
        let max_ape = apes.last().copied().unwrap_or(0.0);
        Self { n, median_ape, mean_ape, max_ape }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference_symmetric() {
        assert_eq!(relative_area_difference(100.0, 100.0), 0.0);
        assert!((relative_area_difference(100.0, 80.0) - 0.2).abs() < 1e-12);
        assert_eq!(
            relative_area_difference(80.0, 100.0),
            relative_area_difference(100.0, 80.0)
        );
        assert_eq!(relative_area_difference(0.0, 0.0), 0.0);
    }

    #[test]
    fn match_fraction_counts_pairs() {
        // One job with 3 flights: areas 100, 101, 150.
        // Pairs: (100,101) diff ~1%, (100,150) ~33%, (101,150) ~32.7%.
        let jobs = vec![vec![100.0, 101.0, 150.0]];
        assert!((area_match_fraction(&jobs, 0.05) - 1.0 / 3.0).abs() < 1e-12);
        assert!((area_match_fraction(&jobs, 0.40) - 1.0).abs() < 1e-12);
        assert_eq!(area_match_fraction(&[], 0.5), 0.0);
    }

    #[test]
    fn outlier_detection() {
        // Three consistent flights + one wild one.
        let areas = [100.0, 102.0, 98.0, 300.0];
        assert_eq!(count_outliers_per_job(&areas, 0.1), 1);
        // All consistent.
        assert_eq!(count_outliers_per_job(&[100.0, 101.0], 0.1), 0);
        // Single flight cannot be an outlier.
        assert_eq!(count_outliers_per_job(&[55.0], 0.1), 0);
    }

    #[test]
    fn report_cdf_is_monotone_in_tolerance() {
        let jobs = vec![
            vec![100.0, 110.0, 95.0, 140.0],
            vec![50.0, 52.0, 49.0, 51.0],
            vec![10.0, 20.0, 10.5, 11.0],
        ];
        let tolerances = [0.05, 0.1, 0.3, 0.5, 1.0];
        let report = AreaConservationReport::build(&jobs, &tolerances);
        for w in report.match_cdf.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be monotone: {:?}", report.match_cdf);
        }
        assert!((report.match_cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_with_at_most_outliers() {
        let jobs = vec![
            vec![100.0, 100.0, 100.0, 100.0], // 0 outliers
            vec![100.0, 100.0, 100.0, 400.0], // 1 outlier
        ];
        let report = AreaConservationReport::build(&jobs, &[0.1]);
        assert_eq!(report.fraction_with_at_most(0.1, 0), Some(0.5));
        assert_eq!(report.fraction_with_at_most(0.1, 1), Some(1.0));
        assert_eq!(report.fraction_with_at_most(0.99, 1), None);
    }

    #[test]
    fn error_summary_known_values() {
        let predicted = [110.0, 90.0, 100.0];
        let actual = [100.0, 100.0, 100.0];
        let s = ErrorSummary::from_pairs(&predicted, &actual);
        assert_eq!(s.n, 3);
        assert!((s.median_ape - 0.1).abs() < 1e-12);
        assert!((s.mean_ape - 0.2 / 3.0).abs() < 1e-12);
        assert!((s.max_ape - 0.1).abs() < 1e-12);
    }

    #[test]
    fn error_summary_empty() {
        let s = ErrorSummary::from_pairs(&[], &[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.median_ape, 0.0);
    }
}
