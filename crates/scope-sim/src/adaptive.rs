//! Online adaptive token release (the paper's "Adaptive Peak Allocation").
//!
//! Figure 1's third policy comes from prior work (Bag et al., HotCloud
//! 2020) that progressively gives up tokens the job can no longer use:
//! during execution, the scheduler re-estimates the *remaining lifetime's*
//! peak requirement and releases everything above it. Unlike TASQ it
//! cannot reclaim tokens more aggressively than the remaining peak, and it
//! needs continuous communication with the scheduler — but it is a strong
//! baseline for over-allocation waste.
//!
//! In SCOPE the plan (and therefore each remaining stage's task width) is
//! known at run time, so the remaining-peak estimate here is exact: at any
//! instant the job can never use more tokens than
//! `max(running tasks + queued tasks, width of any not-yet-started
//! stage)`. [`adaptive_release_series`] replays an execution and computes
//! the resulting non-increasing grant series.

use crate::exec::{ExecutionConfig, ExecutionResult, Executor};
use crate::faults::SimError;

/// The grant level over time under a release policy, at one-second
/// granularity (parallel to the execution's skyline).
#[derive(Debug, Clone, PartialEq)]
pub struct GrantSeries {
    /// Granted tokens during each second of the run.
    pub levels: Vec<f64>,
}

impl GrantSeries {
    /// Total granted token-seconds.
    pub fn total(&self) -> f64 {
        self.levels.iter().sum()
    }

    /// Idle (granted-but-unused) token-seconds against the execution's
    /// skyline.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn idle_against(&self, result: &ExecutionResult) -> f64 {
        assert_eq!(
            self.levels.len(),
            result.skyline.runtime_secs(),
            "GrantSeries::idle_against: length mismatch"
        );
        self.levels
            .iter()
            .zip(result.skyline.samples())
            .map(|(&grant, &used)| (grant - used).max(0.0))
            .sum()
    }
}

/// Execute the job at `allocation` and compute the online adaptive-release
/// grant series: each second's grant is the minimum of the initial
/// allocation and the job's maximum possible future concurrency
/// (held tokens can only be released, never re-acquired, so the series is
/// non-increasing).
///
/// Returns the execution result together with the grant series, or the
/// execution's error (invalid allocation, fault-retry exhaustion).
pub fn adaptive_release_series(
    executor: &Executor,
    allocation: u32,
    config: &ExecutionConfig,
) -> Result<(ExecutionResult, GrantSeries), SimError> {
    let result = executor.run(allocation, config)?;

    // At second `t` the job can still need as many tokens as it ever uses
    // from `t` onward — the suffix peak of the skyline. This is exactly
    // the remaining-lifetime peak the controller estimates (in SCOPE the
    // plan's remaining stage widths are known at run time, so the
    // estimate is achievable online). Suffix maxima are non-increasing by
    // construction, so grants only ever shrink.
    let samples = result.skyline.samples();
    let mut levels = vec![0.0; samples.len()];
    let mut suffix_peak = 0.0f64;
    for (i, &usage) in samples.iter().enumerate().rev() {
        suffix_peak = suffix_peak.max(usage);
        levels[i] = suffix_peak.ceil().min(allocation as f64);
    }
    Ok((result, GrantSeries { levels }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};

    fn executor() -> Executor {
        let job = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 40,
            seed: 101,
            ..Default::default()
        })
        .generate()
        .into_iter()
        .max_by(|a, b| {
            let peakiness = |j: &crate::generator::Job| {
                j.executor()
                    .run(j.requested_tokens, &ExecutionConfig::default())
                    .expect("fault-free execution cannot fail")
                    .skyline
                    .peakiness()
            };
            peakiness(a).total_cmp(&peakiness(b))
        })
        .expect("non-empty workload");
        job.executor()
    }

    #[test]
    fn grants_are_non_increasing_and_cover_usage() {
        let exec = executor();
        let alloc = 100;
        let (result, grants) =
            adaptive_release_series(&exec, alloc, &ExecutionConfig::default()).expect("runs");
        assert_eq!(grants.levels.len(), result.skyline.runtime_secs());
        for w in grants.levels.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "grants must only shrink");
        }
        for (grant, used) in grants.levels.iter().zip(result.skyline.samples()) {
            assert!(grant + 1e-9 >= *used, "grant {grant} below usage {used}");
        }
        assert!(grants.levels.iter().all(|&g| g <= alloc as f64 + 1e-9));
    }

    #[test]
    fn adaptive_wastes_less_than_constant_grant() {
        let exec = executor();
        let alloc = 100;
        let (result, grants) =
            adaptive_release_series(&exec, alloc, &ExecutionConfig::default()).expect("runs");
        let constant_idle = result.skyline.over_allocation(alloc as f64);
        let adaptive_idle = grants.idle_against(&result);
        assert!(
            adaptive_idle < constant_idle,
            "adaptive {adaptive_idle} vs constant {constant_idle}"
        );
    }

    #[test]
    fn release_never_alters_the_execution() {
        // The policy releases only tokens above the remaining suffix peak,
        // so the execution (and its skyline) is byte-identical to a plain
        // run at the same allocation.
        let exec = executor();
        let plain = exec.run(64, &ExecutionConfig::default()).expect("runs");
        let (adaptive, _) =
            adaptive_release_series(&exec, 64, &ExecutionConfig::default()).expect("runs");
        assert_eq!(plain.skyline, adaptive.skyline);
        assert_eq!(plain.runtime_secs, adaptive.runtime_secs);
    }
}
