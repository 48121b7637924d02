//! Allocation policies and over-allocation analysis (paper Figures 1–2).
//!
//! * **Default allocation** — the constant amount the user requested.
//! * **Peak allocation** — a constant equal to the job's actual peak usage
//!   (AutoToken's target).
//! * **Adaptive peak allocation** — at each instant, the maximum usage over
//!   the job's *remaining* lifetime (the progressive give-up policy of
//!   Bag et al.): a non-increasing staircase hugging future peaks.
//!
//! The token-request-reduction analysis behind Figure 2 asks, per job: how
//! many fewer tokens could have been requested while keeping the estimated
//! run time within a given performance-loss budget (estimated with
//! AREPAS)?

use arepas::simulate_runtime;
use scope_sim::Skyline;

/// A per-second allocation series produced by a policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationSeries {
    /// Allocated tokens at each second.
    pub levels: Vec<f64>,
}

impl AllocationSeries {
    /// Total allocated token-seconds.
    pub fn total(&self) -> f64 {
        self.levels.iter().sum()
    }

    /// Total idle (allocated-but-unused) token-seconds against a skyline.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn idle_against(&self, skyline: &Skyline) -> f64 {
        assert_eq!(
            self.levels.len(),
            skyline.runtime_secs(),
            "idle_against: length mismatch"
        );
        self.levels
            .iter()
            .zip(skyline.samples())
            .map(|(&alloc, &used)| (alloc - used).max(0.0))
            .sum()
    }
}

/// The three allocation policies of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Constant at the user-requested amount.
    Default,
    /// Constant at the job's peak usage.
    Peak,
    /// Non-increasing staircase at the remaining-lifetime peak.
    AdaptivePeak,
}

impl AllocationPolicy {
    /// The allocation series this policy yields for a job with the given
    /// observed skyline and requested tokens.
    pub fn series(self, skyline: &Skyline, requested_tokens: u32) -> AllocationSeries {
        let n = skyline.runtime_secs();
        let levels = match self {
            AllocationPolicy::Default => vec![requested_tokens as f64; n],
            AllocationPolicy::Peak => vec![skyline.peak(); n],
            AllocationPolicy::AdaptivePeak => {
                // Suffix maxima of the skyline.
                let samples = skyline.samples();
                let mut levels = vec![0.0; n];
                let mut running = 0.0f64;
                for i in (0..n).rev() {
                    running = running.max(samples[i]);
                    levels[i] = running;
                }
                levels
            }
        };
        AllocationSeries { levels }
    }
}

/// Performance-loss scenarios of Figure 2.
pub const FIGURE2_LOSS_BUDGETS: [f64; 3] = [0.0, 0.05, 0.10];

/// Reduction buckets of Figure 2 (fractions of the original request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionBucket {
    /// No reduction possible.
    None,
    /// Up to 25% fewer tokens.
    UpTo25,
    /// 25%–50% fewer tokens.
    From25To50,
    /// More than 50% fewer tokens.
    Over50,
}

impl ReductionBucket {
    /// Classify a fractional reduction.
    pub fn of(reduction: f64) -> Self {
        if reduction <= 0.0 {
            ReductionBucket::None
        } else if reduction <= 0.25 {
            ReductionBucket::UpTo25
        } else if reduction <= 0.50 {
            ReductionBucket::From25To50
        } else {
            ReductionBucket::Over50
        }
    }
}

/// The smallest allocation (in tokens) whose AREPAS-estimated run time
/// stays within `loss_budget` of the run time at `requested_tokens`,
/// searched by bisection over `1..=requested_tokens`.
pub fn min_tokens_within_loss(
    skyline: &Skyline,
    requested_tokens: u32,
    loss_budget: f64,
) -> u32 {
    assert!(requested_tokens >= 1, "min_tokens_within_loss: bad request");
    let samples = skyline.samples();
    let baseline = simulate_runtime(samples, requested_tokens as f64).max(1);
    let limit = baseline as f64 * (1.0 + loss_budget);
    let fits = |tokens: u32| simulate_runtime(samples, tokens as f64) as f64 <= limit;
    if !fits(requested_tokens) {
        return requested_tokens;
    }
    // Bisect the smallest token count that still fits (simulated run time
    // is non-increasing in tokens, so feasibility is monotone).
    let (mut lo, mut hi) = (1u32, requested_tokens);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Per-job potential token-request reduction at a loss budget:
/// `1 - min_tokens/requested`.
pub fn potential_reduction(skyline: &Skyline, requested_tokens: u32, loss_budget: f64) -> f64 {
    let min = min_tokens_within_loss(skyline, requested_tokens, loss_budget);
    1.0 - min as f64 / requested_tokens as f64
}

/// Figure 2's aggregate: for each loss budget, the fraction of jobs in
/// each reduction bucket. Rows are budgets, columns the four buckets
/// `[None, UpTo25, From25To50, Over50]`.
pub fn reduction_histogram(
    jobs: &[(Skyline, u32)],
    loss_budgets: &[f64],
) -> Vec<(f64, [f64; 4])> {
    loss_budgets
        .iter()
        .map(|&budget| {
            let mut counts = [0usize; 4];
            for (skyline, requested) in jobs {
                let bucket = ReductionBucket::of(potential_reduction(skyline, *requested, budget));
                let idx = match bucket {
                    ReductionBucket::None => 0,
                    ReductionBucket::UpTo25 => 1,
                    ReductionBucket::From25To50 => 2,
                    ReductionBucket::Over50 => 3,
                };
                counts[idx] += 1;
            }
            let total = jobs.len().max(1) as f64;
            (budget, [0, 1, 2, 3].map(|i| counts[i] as f64 / total))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peaky_skyline() -> Skyline {
        // Low baseline with a short spike: peak 50, mostly 5.
        let mut s = vec![5.0; 40];
        for sample in s.iter_mut().take(25).skip(20) {
            *sample = 50.0;
        }
        Skyline::new(s)
    }

    #[test]
    fn default_policy_is_constant_request() {
        let sky = peaky_skyline();
        let series = AllocationPolicy::Default.series(&sky, 125);
        assert!(series.levels.iter().all(|&l| l == 125.0));
        assert_eq!(series.levels.len(), 40);
    }

    #[test]
    fn peak_policy_tracks_peak() {
        let sky = peaky_skyline();
        let series = AllocationPolicy::Peak.series(&sky, 125);
        assert!(series.levels.iter().all(|&l| l == 50.0));
    }

    #[test]
    fn adaptive_peak_is_non_increasing_staircase() {
        let sky = peaky_skyline();
        let series = AllocationPolicy::AdaptivePeak.series(&sky, 125);
        for w in series.levels.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // Before the spike it must hold the future peak; after, drop to 5.
        assert_eq!(series.levels[0], 50.0);
        assert_eq!(series.levels[30], 5.0);
    }

    #[test]
    fn policies_order_by_over_allocation() {
        let sky = peaky_skyline();
        let idle_default = AllocationPolicy::Default.series(&sky, 125).idle_against(&sky);
        let idle_peak = AllocationPolicy::Peak.series(&sky, 125).idle_against(&sky);
        let idle_adaptive = AllocationPolicy::AdaptivePeak.series(&sky, 125).idle_against(&sky);
        assert!(idle_default > idle_peak, "{idle_default} vs {idle_peak}");
        assert!(idle_peak > idle_adaptive, "{idle_peak} vs {idle_adaptive}");
        assert!(idle_adaptive > 0.0);
    }

    #[test]
    fn min_tokens_zero_loss_is_peak_or_less() {
        let sky = peaky_skyline();
        // At zero loss the minimum cannot exceed the peak (allocating the
        // peak reproduces the skyline exactly).
        let min = min_tokens_within_loss(&sky, 125, 0.0);
        assert!(min <= 50, "min {min}");
        assert!(min >= 1);
    }

    #[test]
    fn min_tokens_decreases_with_loss_budget() {
        let sky = peaky_skyline();
        let m0 = min_tokens_within_loss(&sky, 125, 0.0);
        let m10 = min_tokens_within_loss(&sky, 125, 0.10);
        assert!(m10 <= m0, "{m10} vs {m0}");
    }

    #[test]
    fn bisection_matches_linear_scan() {
        let sky = peaky_skyline();
        for budget in [0.0, 0.05, 0.2] {
            let fast = min_tokens_within_loss(&sky, 60, budget);
            // Linear scan reference.
            let baseline = simulate_runtime(sky.samples(), 60.0).max(1) as f64;
            let mut slow = 60;
            for t in (1..=60).rev() {
                if simulate_runtime(sky.samples(), t as f64) as f64 <= baseline * (1.0 + budget) {
                    slow = t;
                } else {
                    break;
                }
            }
            assert_eq!(fast, slow, "budget {budget}");
        }
    }

    #[test]
    fn reduction_buckets_classify() {
        assert_eq!(ReductionBucket::of(0.0), ReductionBucket::None);
        assert_eq!(ReductionBucket::of(0.1), ReductionBucket::UpTo25);
        assert_eq!(ReductionBucket::of(0.3), ReductionBucket::From25To50);
        assert_eq!(ReductionBucket::of(0.7), ReductionBucket::Over50);
    }

    #[test]
    fn histogram_rows_sum_to_one() {
        let jobs: Vec<(Skyline, u32)> =
            (0..5).map(|i| (peaky_skyline(), 60 + i * 20)).collect();
        let hist = reduction_histogram(&jobs, &FIGURE2_LOSS_BUDGETS);
        assert_eq!(hist.len(), 3);
        for (_, row) in &hist {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row sums to {sum}");
        }
    }

    #[test]
    fn bigger_loss_budget_never_shrinks_reduction() {
        let sky = peaky_skyline();
        let r0 = potential_reduction(&sky, 100, 0.0);
        let r10 = potential_reduction(&sky, 100, 0.10);
        assert!(r10 >= r0);
        assert!(r0 > 0.0, "over-requested job must show some reduction");
    }
}
