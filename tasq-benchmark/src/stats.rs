//! Statistics the benchmark reports with: exact quantiles, the
//! quiet-quintile estimator, and the seeded generators (arrival schedule,
//! Zipf ranks) that turn `--seed` into traffic.
//!
//! Nothing here touches the program under test, so the estimator can be
//! unit-tested on planted data.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates: larger is better.
    Higher,
    /// Times and sizes: smaller is better.
    Lower,
}

/// Exact `q`-quantile of `values` (any order), linearly interpolated
/// between order statistics (`q = 0` is the minimum, `q = 1` the
/// maximum). Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// One metric estimated over the segments of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The reported value: the quiet quintile across segments.
    pub value: f64,
    /// Plain median across segments, printed beside the value.
    pub median: f64,
    /// First quartile across segments.
    pub q1: f64,
    /// Third quartile across segments.
    pub q3: f64,
    /// Number of segments.
    pub segments: usize,
}

/// Share of segments assumed undisturbed. Interference on a shared
/// machine only ever slows a segment, so the estimate is read this far
/// in from the fast end of the per-segment distribution.
pub const QUIET_SHARE: f64 = 0.2;

/// The quiet-quintile estimate of a per-segment metric: the 80th
/// percentile segment for rates, the 20th percentile segment for times.
pub fn quiet_quintile(per_segment: &[f64], better: Better) -> Estimate {
    let mut sorted = per_segment.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = match better {
        Better::Higher => 1.0 - QUIET_SHARE,
        Better::Lower => QUIET_SHARE,
    };
    Estimate {
        value: quantile_sorted(&sorted, q),
        median: quantile_sorted(&sorted, 0.5),
        q1: quantile_sorted(&sorted, 0.25),
        q3: quantile_sorted(&sorted, 0.75),
        segments: sorted.len(),
    }
}

/// The benchmark's own generator (splitmix64), so its inputs depend on
/// `--seed` alone and not on any random-number code of the program.
#[derive(Debug, Clone)]
pub struct SeededRng(u64);

impl SeededRng {
    /// Generator for `seed`; `stream` separates independent uses of one
    /// seed (plan choice, arrivals, oracle sampling).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Intended send instants of an open-loop window, in nanoseconds from the
/// window's start: Poisson arrivals at `rate_per_s` for `window_ns`.
pub fn poisson_schedule(rng: &mut SeededRng, rate_per_s: f64, window_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut schedule = Vec::with_capacity((window_ns as f64 / mean_gap_ns) as usize + 16);
    let mut at = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u keeps the argument positive.
        at += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if at >= window_ns as f64 {
            return schedule;
        }
        schedule.push(at as u64);
    }
}

/// Zipf(s) ranks over `0..n` by inverse CDF on a precomputed table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Draw a rank (0 is the most popular).
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_exact_on_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        // Between order statistics: position 0.2 * 4 = 0.8 -> 1 + 0.8.
        assert!((quantile(&v, 0.2) - 1.8).abs() < 1e-12);
        assert_eq!(quantile(&[7.5], 0.9), 7.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((quantile(&[10.0, 20.0], 0.5) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_quintile_reads_the_fast_end_for_rates_and_times() {
        let segments: Vec<f64> = (1..=11).map(f64::from).collect();
        let rate = quiet_quintile(&segments, Better::Higher);
        let time = quiet_quintile(&segments, Better::Lower);
        assert_eq!(rate.value, 9.0, "80th percentile of 1..=11");
        assert_eq!(time.value, 3.0, "20th percentile of 1..=11");
        assert_eq!(rate.median, 6.0);
        assert_eq!((rate.q1, rate.q3), (3.5, 8.5));
        assert_eq!(rate.segments, 11);
    }

    #[test]
    fn planted_slowdown_of_two_fifths_of_segments_moves_the_estimate_under_3_percent() {
        // 60 segments of a 1000/s rate with 1 % jitter; 40 % of them then
        // lose 30 % to a noisy neighbour.
        let mut rng = SeededRng::new(11, 0);
        let clean: Vec<f64> = (0..60)
            .map(|_| 1000.0 * (0.99 + 0.02 * rng.next_f64()))
            .collect();
        let mut disturbed = clean.clone();
        for (index, rate) in disturbed.iter_mut().enumerate() {
            if index % 5 < 2 {
                *rate *= 0.7;
            }
        }
        let before = quiet_quintile(&clean, Better::Higher).value;
        let after = quiet_quintile(&disturbed, Better::Higher).value;
        assert!(
            (after - before).abs() / before < 0.03,
            "{before} -> {after}"
        );
        // The plain mean, by contrast, moves by about 12 %.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&clean) - mean(&disturbed)) / mean(&clean) > 0.10);

        // Same for a time metric: slow segments take 1/0.7 as long.
        let times: Vec<f64> = disturbed.iter().map(|r| 1e6 / r).collect();
        let clean_times: Vec<f64> = clean.iter().map(|r| 1e6 / r).collect();
        let before = quiet_quintile(&clean_times, Better::Lower).value;
        let after = quiet_quintile(&times, Better::Lower).value;
        assert!(
            (after - before).abs() / before < 0.03,
            "{before} -> {after}"
        );
    }

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_keeps_its_rate() {
        let draw = |seed| poisson_schedule(&mut SeededRng::new(seed, 3), 5000.0, 1_000_000_000);
        let first = draw(42);
        assert_eq!(first, draw(42));
        assert_ne!(first, draw(43));
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        assert!(first.iter().all(|&t| t < 1_000_000_000));
        let n = first.len() as f64;
        assert!(
            (n - 5000.0).abs() < 4.0 * 5000f64.sqrt(),
            "{n} arrivals in one second"
        );
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = SeededRng::new(5, 1);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let top10 = draws.iter().filter(|&&r| r < 10).count() as f64 / draws.len() as f64;
        // H_10 / H_1000 = 2.929 / 7.485 = 0.391.
        assert!((top10 - 0.391).abs() < 0.02, "{top10}");
    }
}
