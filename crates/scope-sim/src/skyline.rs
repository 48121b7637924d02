//! Resource skylines: token usage over time at one-second granularity.
//!
//! The paper calls the time series of a job's resource (token) usage its
//! *skyline* (Figure 1). A 1x1 square under the skyline is one
//! token-second; the area under the skyline is the job's total work in
//! token-seconds, the quantity AREPAS preserves.

use tasq_codec::Wire;

/// A job's resource-usage time series, sampled once per second.
///
/// `samples[t]` is the (possibly fractional) number of tokens in use during
/// second `t`.
#[derive(Debug, Clone, PartialEq, Wire)]
pub struct Skyline {
    samples: Vec<f64>,
}

/// Utilization level of one second of a skyline relative to an allocation,
/// matching the color-coded sections of the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Utilization {
    /// Near-minimum utilization (red in the paper): under 20% of allocation.
    Minimum,
    /// Low utilization (pink): 20%–60% of allocation.
    Low,
    /// Moderate-to-high utilization (green): over 60% of allocation.
    High,
}

impl Skyline {
    /// Build from raw per-second samples.
    ///
    /// # Panics
    /// Panics if any sample is negative or non-finite.
    pub fn new(samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|s| s.is_finite() && *s >= 0.0),
            "Skyline::new: samples must be finite and non-negative"
        );
        Self { samples }
    }

    /// The per-second samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Run time in seconds (number of samples).
    pub fn runtime_secs(&self) -> usize {
        self.samples.len()
    }

    /// Area under the skyline = total token-seconds of work.
    pub fn area(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Peak token usage.
    pub fn peak(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Mean token usage over the job's lifetime.
    pub fn mean_usage(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.area() / self.samples.len() as f64
        }
    }

    /// Total over-allocation (idle token-seconds) under a constant
    /// allocation: `sum(max(0, allocation - usage))`.
    pub fn over_allocation(&self, allocation: f64) -> f64 {
        self.samples.iter().map(|&s| (allocation - s).max(0.0)).sum()
    }

    /// Classify each second's utilization relative to `allocation`
    /// (Figure 5's red/pink/green sections).
    pub fn utilization_sections(&self, allocation: f64) -> Vec<Utilization> {
        assert!(allocation > 0.0, "utilization_sections: allocation must be positive");
        self.samples
            .iter()
            .map(|&s| {
                let frac = s / allocation;
                if frac < 0.2 {
                    Utilization::Minimum
                } else if frac < 0.6 {
                    Utilization::Low
                } else {
                    Utilization::High
                }
            })
            .collect()
    }

    /// Fraction of run time spent at each utilization level:
    /// `(minimum, low, high)`.
    pub fn utilization_breakdown(&self, allocation: f64) -> (f64, f64, f64) {
        let sections = self.utilization_sections(allocation);
        let n = sections.len().max(1) as f64;
        let count = |u: Utilization| sections.iter().filter(|&&s| s == u).count() as f64 / n;
        (count(Utilization::Minimum), count(Utilization::Low), count(Utilization::High))
    }

    /// "Peakiness": coefficient of variation of the samples. Peaky jobs
    /// (deep valleys, tall spikes) score high; flat jobs score near zero.
    pub fn peakiness(&self) -> f64 {
        let mean = self.mean_usage();
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .samples
            .iter()
            .map(|&s| (s - mean) * (s - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt() / mean
    }

    /// Render a small ASCII plot (for examples and experiment output).
    pub fn ascii_plot(&self, width: usize, height: usize) -> String {
        if self.samples.is_empty() || width == 0 || height == 0 {
            return String::new();
        }
        let peak = self.peak().max(1e-9);
        let bucket = (self.samples.len() as f64 / width as f64).max(1.0);
        let cols: Vec<f64> = (0..width.min(self.samples.len()))
            .map(|c| {
                let lo = (c as f64 * bucket) as usize;
                let hi = (((c + 1) as f64 * bucket) as usize).min(self.samples.len()).max(lo + 1);
                self.samples[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect();
        let mut out = String::new();
        for row in (0..height).rev() {
            let threshold = peak * (row as f64 + 0.5) / height as f64;
            for &v in &cols {
                out.push(if v >= threshold { '█' } else { ' ' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Skyline {
        Skyline::new(vec![1.0, 3.0, 5.0, 5.0, 2.0, 1.0])
    }

    #[test]
    fn area_peak_mean() {
        let s = sample();
        assert_eq!(s.area(), 17.0);
        assert_eq!(s.peak(), 5.0);
        assert_eq!(s.runtime_secs(), 6);
        assert!((s.mean_usage() - 17.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn over_allocation_counts_idle() {
        let s = sample();
        // alloc 5: idle = 4+2+0+0+3+4 = 13
        assert_eq!(s.over_allocation(5.0), 13.0);
        assert_eq!(s.over_allocation(0.0), 0.0);
    }

    #[test]
    fn utilization_sections_classify() {
        let s = Skyline::new(vec![0.5, 3.0, 9.0]);
        let sections = s.utilization_sections(10.0);
        assert_eq!(
            sections,
            vec![Utilization::Minimum, Utilization::Low, Utilization::High]
        );
        let (min, low, high) = s.utilization_breakdown(10.0);
        assert!((min - 1.0 / 3.0).abs() < 1e-12);
        assert!((low - 1.0 / 3.0).abs() < 1e-12);
        assert!((high - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peakiness_orders_flat_vs_peaky() {
        let flat = Skyline::new(vec![10.0; 20]);
        let mut spiky = vec![1.0; 20];
        spiky[5] = 50.0;
        spiky[15] = 60.0;
        let peaky = Skyline::new(spiky);
        assert!(flat.peakiness() < 1e-12);
        assert!(peaky.peakiness() > 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sample_panics() {
        let _ = Skyline::new(vec![1.0, -2.0]);
    }

    #[test]
    fn empty_skyline_is_safe() {
        let s = Skyline::new(vec![]);
        assert_eq!(s.area(), 0.0);
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.mean_usage(), 0.0);
        assert_eq!(s.peakiness(), 0.0);
    }

    #[test]
    fn ascii_plot_dimensions() {
        let s = sample();
        let plot = s.ascii_plot(6, 4);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.chars().count() == 6));
        // The tallest column (index 2 or 3) should be filled top row.
        assert!(lines[0].contains('█'));
    }
}
