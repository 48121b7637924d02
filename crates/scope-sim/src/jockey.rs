//! The Jockey simulator baseline (paper Section 6.3).
//!
//! Jockey (Ferguson et al., EuroSys 2012) predicts a job's run time at a
//! candidate allocation by simulating its stages using *statistics
//! aggregated over prior runs of the same job*: task run-time
//! distributions, initialization latency, failure probabilities. TASQ
//! criticizes two properties, both reproduced faithfully here:
//!
//! 1. **No coverage for fresh jobs** — the model can only be built from a
//!    prior run of the same (recurring) job; [`JockeyModel::from_prior_run`]
//!    takes that prior instance's stage statistics.
//! 2. **Input-size variation is not captured** — the prior run's task
//!    durations are replayed as-is, so when the new instance's inputs have
//!    drifted the prediction drifts with them.

use crate::exec::{ExecutionConfig, Executor};
use crate::generator::Job;
use crate::stage::StageGraph;

/// A stage-level run-time model built from one prior run of a job.
#[derive(Debug, Clone)]
pub struct JockeyModel {
    /// The prior instance's stage graph (its task durations stand in for
    /// Jockey's aggregated per-stage statistics).
    prior: StageGraph,
}

impl JockeyModel {
    /// Build from a prior run's stage graph.
    pub fn from_prior_run(prior: StageGraph) -> Self {
        Self { prior }
    }

    /// Build from a prior instance of a recurring job (convenience).
    pub fn from_prior_job(prior: &Job) -> Self {
        Self::from_prior_run(StageGraph::from_plan(&prior.plan, prior.seed))
    }

    /// Predicted run time at `tokens`: list-schedule the prior run's
    /// per-stage tasks at the candidate allocation (Jockey's offline
    /// `C(progress, allocation)` simulation collapsed to the start of the
    /// job, which is the compile-time prediction TASQ compares against).
    /// An invalid candidate (zero tokens) predicts an infinite run time.
    pub fn predict_runtime(&self, tokens: u32) -> f64 {
        match Executor::new(self.prior.clone()).run(tokens, &ExecutionConfig::default()) {
            Ok(result) => result.runtime_secs,
            Err(_) => f64::INFINITY,
        }
    }

    /// Number of stage-level statistics the model stores (per-task
    /// durations across stages) — the paper's "large number of stage-level
    /// parameters".
    pub fn num_parameters(&self) -> usize {
        self.prior.stages.iter().map(|s| s.task_durations.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Archetype, WorkloadConfig, WorkloadGenerator};

    #[test]
    fn exact_when_inputs_do_not_drift() {
        // A Jockey model built from the *same* instance predicts its run
        // times exactly (the best case: a perfectly stable recurring job).
        let job = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 1,
            seed: 51,
            ..Default::default()
        })
        .generate()
        .remove(0);
        let model = JockeyModel::from_prior_job(&job);
        let executor = job.executor();
        for tokens in [4u32, 16, 64] {
            let actual =
                executor.run(tokens, &ExecutionConfig::default()).expect("runs").runtime_secs;
            let predicted = model.predict_runtime(tokens);
            assert!((predicted - actual).abs() < 1e-9, "tokens {tokens}");
        }
    }

    #[test]
    fn input_drift_degrades_predictions() {
        // Two instances of the same template with different input sizes:
        // predictions from the small instance underestimate the large one.
        let arch = Archetype::EtlIngest;
        let small_plan = arch.build_plan(99, 0.5, 64);
        let large_plan = arch.build_plan(99, 3.0, 64);
        let small = StageGraph::from_plan(&small_plan, 1);
        let large = StageGraph::from_plan(&large_plan, 1);
        let model = JockeyModel::from_prior_run(small);
        let actual =
            Executor::new(large).run(32, &ExecutionConfig::default()).expect("runs").runtime_secs;
        let predicted = model.predict_runtime(32);
        assert!(
            predicted < actual * 0.5,
            "6x input growth must hurt Jockey: predicted {predicted} vs actual {actual}"
        );
    }

    #[test]
    fn parameter_count_is_stage_level() {
        let job = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 1,
            seed: 53,
            ..Default::default()
        })
        .generate()
        .remove(0);
        let model = JockeyModel::from_prior_job(&job);
        let graph = StageGraph::from_plan(&job.plan, job.seed);
        let expected: usize = graph.stages.iter().map(|s| s.task_durations.len()).sum();
        assert_eq!(model.num_parameters(), expected);
        assert!(model.num_parameters() > 2, "richer than the Amdahl model");
    }
}
