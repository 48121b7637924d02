//! The AREPAS skyline simulator (the paper's Algorithm 1).

use crate::sections::{split_sections, SectionKind};

/// Result of simulating a skyline at a new allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedSkyline {
    /// The simulated per-second token usage.
    pub samples: Vec<f64>,
    /// The allocation threshold the simulation ran at.
    pub allocation: f64,
}

impl SimulatedSkyline {
    /// Simulated run time in seconds.
    pub fn runtime_secs(&self) -> usize {
        self.samples.len()
    }

    /// Area (token-seconds) of the simulated skyline.
    pub fn area(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Peak of the simulated skyline.
    pub fn peak(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

/// Simulate the skyline of the same job at a new token allocation.
///
/// Sections of the input skyline at or under `new_allocation` are copied
/// unchanged; sections over it are flattened to the allocation and
/// lengthened to preserve their area (the paper's area-preservation design
/// choice). The paper's pseudo-code truncates the new section length with
/// `int(secArea/Nt)`, which silently drops up to one allocation-second of
/// work per section; this implementation instead emits `floor(area/Nt)`
/// full seconds plus one fractional-usage second, so the total area is
/// preserved *exactly* (the property Section 5.2 validates).
///
/// # Examples
///
/// ```
/// // A job that used up to 7 tokens, re-simulated with only 3.
/// let skyline = [2.0, 7.0, 7.0, 2.0];
/// let sim = arepas::simulate(&skyline, 3.0);
/// assert_eq!(sim.peak(), 3.0);                  // never exceeds the allocation
/// assert_eq!(sim.area(), 18.0);                 // token-seconds preserved
/// assert!(sim.runtime_secs() > skyline.len());  // the job got slower
/// ```
///
/// # Panics
/// Panics if `new_allocation <= 0` or any sample is negative/non-finite.
pub fn simulate(skyline: &[f64], new_allocation: f64) -> SimulatedSkyline {
    assert!(
        new_allocation > 0.0 && new_allocation.is_finite(),
        "simulate: allocation must be positive and finite"
    );
    assert!(
        skyline.iter().all(|s| s.is_finite() && *s >= 0.0),
        "simulate: skyline samples must be finite and non-negative"
    );

    let mut samples = Vec::with_capacity(skyline.len());
    for section in split_sections(skyline, new_allocation) {
        match section.kind {
            SectionKind::Under => samples.extend_from_slice(&section.samples),
            SectionKind::Over => {
                let area = section.area();
                let full_seconds = (area / new_allocation).floor() as usize;
                let remainder = area - full_seconds as f64 * new_allocation;
                samples.extend(std::iter::repeat_n(new_allocation, full_seconds));
                if remainder > 1e-9 {
                    samples.push(remainder);
                }
            }
        }
    }
    SimulatedSkyline { samples, allocation: new_allocation }
}

/// Shortcut: only the simulated run time in seconds.
pub fn simulate_runtime(skyline: &[f64], new_allocation: f64) -> usize {
    simulate(skyline, new_allocation).runtime_secs()
}

/// The paper's *literal* Algorithm 1: over-sections are replaced by
/// `int(secArea/Nt)` seconds at the allocation, truncating the fractional
/// tail — so up to one allocation-second of work is silently dropped per
/// over-section. Kept for the rounding ablation
/// (`experiments/ablation_arepas_rounding`); production code should use
/// [`simulate`], which preserves area exactly.
pub fn simulate_truncating(skyline: &[f64], new_allocation: f64) -> SimulatedSkyline {
    assert!(
        new_allocation > 0.0 && new_allocation.is_finite(),
        "simulate_truncating: allocation must be positive and finite"
    );
    let mut samples = Vec::with_capacity(skyline.len());
    for section in split_sections(skyline, new_allocation) {
        match section.kind {
            SectionKind::Under => samples.extend_from_slice(&section.samples),
            SectionKind::Over => {
                let new_len = (section.area() / new_allocation) as usize;
                samples.extend(std::iter::repeat_n(new_allocation, new_len));
            }
        }
    }
    SimulatedSkyline { samples, allocation: new_allocation }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_above_peak_is_identity() {
        let skyline = [2.0, 5.0, 3.0, 1.0];
        let sim = simulate(&skyline, 10.0);
        assert_eq!(sim.samples, skyline.to_vec());
        assert_eq!(sim.runtime_secs(), 4);
    }

    #[test]
    fn area_is_preserved_exactly() {
        let skyline = [1.0, 8.0, 7.0, 2.0, 9.0, 1.0, 4.0];
        let original_area: f64 = skyline.iter().sum();
        for alloc in [1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 20.0] {
            let sim = simulate(&skyline, alloc);
            assert!(
                (sim.area() - original_area).abs() < 1e-9,
                "alloc {alloc}: area {} vs {original_area}",
                sim.area()
            );
        }
    }

    #[test]
    fn never_exceeds_allocation() {
        let skyline = [1.0, 8.0, 7.0, 2.0, 9.0, 1.0];
        for alloc in [1.5, 3.0, 5.0] {
            let sim = simulate(&skyline, alloc);
            assert!(sim.peak() <= alloc + 1e-12, "alloc {alloc}, peak {}", sim.peak());
        }
    }

    #[test]
    fn runtime_non_decreasing_as_allocation_shrinks() {
        let skyline = [3.0, 10.0, 12.0, 4.0, 1.0, 9.0, 2.0];
        let mut prev = 0usize;
        for alloc in [12.0, 9.0, 6.0, 4.0, 2.0, 1.0] {
            let rt = simulate_runtime(&skyline, alloc);
            assert!(rt >= prev, "alloc {alloc}: runtime {rt} < previous {prev}");
            prev = rt;
        }
    }

    /// The paper's Figure 7 example: an over section of area ~2x the new
    /// allocation takes a bit more than twice as long.
    #[test]
    fn figure7_redistribution() {
        // 4 seconds at 7 tokens = 28 token-secs, new allocation 3.
        let skyline = [7.0, 7.0, 7.0, 7.0];
        let sim = simulate(&skyline, 3.0);
        // floor(28/3) = 9 full seconds + remainder 1.0 => 10 seconds.
        assert_eq!(sim.runtime_secs(), 10);
        assert!((sim.area() - 28.0).abs() < 1e-12);
        assert_eq!(sim.samples[..9], [3.0; 9]);
        assert!((sim.samples[9] - 1.0).abs() < 1e-12);
    }

    /// Figure 6: sections already under the allocation are untouched.
    #[test]
    fn under_sections_unchanged() {
        let skyline = [2.0, 1.0, 9.0, 9.0, 1.0, 2.0];
        let sim = simulate(&skyline, 3.0);
        // Leading and trailing under-sections appear verbatim.
        assert_eq!(&sim.samples[..2], &[2.0, 1.0]);
        let n = sim.samples.len();
        assert_eq!(&sim.samples[n - 2..], &[1.0, 2.0]);
    }

    /// Figure 8's observation: cutting each job to 50% of its own peak,
    /// a flat job slows down ~2x while a peaky job (short tall spike over
    /// a long low baseline) barely slows at all.
    #[test]
    fn peaky_jobs_tolerate_reduction_better_than_flat() {
        // Flat job: constant 10 tokens for 100 s.
        let flat: Vec<f64> = vec![10.0; 100];
        // Peaky job: 90 s at 1 token + a 10 s spike at 100 tokens.
        let mut peaky: Vec<f64> = vec![1.0; 90];
        peaky.extend(std::iter::repeat_n(100.0, 10));

        let flat_slowdown =
            simulate_runtime(&flat, 5.0) as f64 / flat.len() as f64; // 50% of peak 10
        let peaky_slowdown =
            simulate_runtime(&peaky, 50.0) as f64 / peaky.len() as f64; // 50% of peak 100
        assert!((flat_slowdown - 2.0).abs() < 0.05, "flat {flat_slowdown}");
        assert!(peaky_slowdown < 1.2, "peaky {peaky_slowdown}");
    }

    #[test]
    fn empty_skyline_gives_empty_result() {
        let sim = simulate(&[], 5.0);
        assert!(sim.samples.is_empty());
        assert_eq!(sim.runtime_secs(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_allocation_panics() {
        let _ = simulate(&[1.0], 0.0);
    }

    #[test]
    fn truncating_variant_drops_fractional_area() {
        // 28 token-secs over at alloc 3: int(28/3) = 9 seconds, area 27.
        let skyline = [7.0, 7.0, 7.0, 7.0];
        let truncated = simulate_truncating(&skyline, 3.0);
        assert_eq!(truncated.runtime_secs(), 9);
        assert!((truncated.area() - 27.0).abs() < 1e-12, "one token-second dropped");
        // The exact variant keeps all 28.
        assert!((simulate(&skyline, 3.0).area() - 28.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic() {
        let skyline = [4.0, 9.0, 2.0, 8.0];
        assert_eq!(simulate(&skyline, 3.0), simulate(&skyline, 3.0));
    }
}
