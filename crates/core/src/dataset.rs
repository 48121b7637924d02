//! Training datasets: execute jobs once, augment with AREPAS, featurize.
//!
//! This is the in-process equivalent of the paper's training-data
//! preparation (Cosmos job repository → clean tabular data on ADLS):
//! each job is executed once at its requested tokens to obtain the
//! "historical" observation, AREPAS synthesizes the remaining PCC points,
//! and both feature representations (job-level and operator-level) are
//! extracted. Job preparation is embarrassingly parallel and fans out over
//! worker threads.

use crate::augment::{
    augment_pcc_points, augment_xgb_points, fit_target_pcc, AugmentConfig, AugmentedPoint,
};
use crate::featurize::{featurize_job, featurize_operators, JobFeatures, OperatorFeatures};
use crate::pcc::PowerLawPcc;
use scope_sim::{ExecutionConfig, Job, StageGraph};

/// One prepared training example.
#[derive(Debug, Clone)]
pub struct TrainingExample {
    /// Source job id.
    pub job_id: u64,
    /// Aggregated job-level features (XGBoost / NN input).
    pub features: JobFeatures,
    /// Operator-level features + DAG (GNN input).
    pub op_features: OperatorFeatures,
    /// The token count the job actually ran with.
    pub observed_tokens: u32,
    /// The observed run time at that token count, in seconds.
    pub observed_runtime: f64,
    /// Peak token usage of the observed skyline.
    pub peak_tokens: f64,
    /// Augmented PCC sample (observed + AREPAS points).
    pub pcc_points: Vec<AugmentedPoint>,
    /// XGBoost training rows (observed + below + above-peak points).
    pub xgb_points: Vec<AugmentedPoint>,
    /// The fitted target PCC (the NN/GNN regression target).
    pub target_pcc: PowerLawPcc,
}

/// A prepared dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The examples, in job order.
    pub examples: Vec<TrainingExample>,
}

impl Dataset {
    /// Build a dataset from jobs: execute each once (deterministically) at
    /// its requested tokens, augment, featurize. Work fans out over a
    /// [`tasq_par::Pool`] sized to the available hardware
    /// parallelism ([`tasq_par::Pool::with_available_parallelism`]).
    pub fn build(jobs: &[Job], config: &AugmentConfig) -> Self {
        Self::build_with_pool(jobs, config, &tasq_par::Pool::with_available_parallelism())
    }

    /// [`Dataset::build`] on a caller-supplied pool. Example order always
    /// matches job order regardless of thread count, and a panic inside
    /// job preparation resumes on the caller's stack (as the old scoped-
    /// thread fan-out did). Workers claim small chunks of jobs from a
    /// shared cursor, so one job whose plan is much larger than the rest
    /// holds up only its own worker — the static chunking this replaces
    /// stalled the whole build on its slowest chunk.
    pub fn build_with_pool(jobs: &[Job], config: &AugmentConfig, pool: &tasq_par::Pool) -> Self {
        let prepared = pool
            .par_map(jobs, |_, job| Self::prepare_example(job, config))
            .unwrap_or_else(|e| match e {
                tasq_par::ParError::TaskPanicked { message, .. } => {
                    std::panic::resume_unwind(Box::new(message))
                }
                other => std::panic::resume_unwind(Box::new(other.to_string())),
            });
        Self { examples: prepared.into_iter().flatten().collect() }
    }

    /// Prepare a single example (returns `None` if the PCC target cannot
    /// be fitted, which only happens for degenerate jobs).
    pub fn prepare_example(job: &Job, config: &AugmentConfig) -> Option<TrainingExample> {
        let stage_graph = StageGraph::from_plan(&job.plan, job.seed);
        let num_stages = stage_graph.num_stages();
        let executor = scope_sim::Executor::new(stage_graph);
        let result = executor.run(job.requested_tokens, &ExecutionConfig::default()).ok()?;
        let observed_runtime = result.runtime_secs.max(1.0);

        let pcc_points =
            augment_pcc_points(&result.skyline, job.requested_tokens, observed_runtime, config);
        let target_pcc = fit_target_pcc(&pcc_points, config)?;
        let xgb_points =
            augment_xgb_points(&result.skyline, job.requested_tokens, observed_runtime, config);

        Some(TrainingExample {
            job_id: job.id,
            features: featurize_job(&job.plan, num_stages),
            op_features: featurize_operators(&job.plan),
            observed_tokens: job.requested_tokens,
            observed_runtime,
            peak_tokens: result.skyline.peak(),
            pcc_points,
            xgb_points,
            target_pcc,
        })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// All target PCCs (for fitting the parameter scaler).
    pub fn target_pccs(&self) -> Vec<PowerLawPcc> {
        self.examples.iter().map(|e| e.target_pcc).collect()
    }

    /// Job-level feature rows.
    pub fn job_feature_rows(&self) -> Vec<Vec<f64>> {
        self.examples.iter().map(|e| e.features.values.clone()).collect()
    }

    /// XGBoost regression rows: job features with the token count appended
    /// as the final feature, paired with run-time targets. One row per
    /// augmented point per job.
    pub fn xgb_rows(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for example in &self.examples {
            for point in &example.xgb_points {
                let mut row = example.features.values.clone();
                row.push(point.tokens);
                rows.push(row);
                targets.push(point.runtime.max(1.0));
            }
        }
        (rows, targets)
    }

    /// Split into (train, test) by index: examples with
    /// `index % modulus == remainder` go to test.
    pub fn split(&self, modulus: usize, remainder: usize) -> (Dataset, Dataset) {
        assert!(modulus >= 2, "split: modulus must be at least 2");
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, e) in self.examples.iter().enumerate() {
            if i % modulus == remainder % modulus {
                test.push(e.clone());
            } else {
                train.push(e.clone());
            }
        }
        (Dataset { examples: train }, Dataset { examples: test })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn jobs(n: usize) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed: 19, ..Default::default() })
            .generate()
    }

    #[test]
    fn builds_one_example_per_job() {
        let jobs = jobs(12);
        let ds = Dataset::build(&jobs, &AugmentConfig::default());
        assert_eq!(ds.len(), 12);
        for (job, example) in jobs.iter().zip(&ds.examples) {
            assert_eq!(job.id, example.job_id);
            assert_eq!(job.requested_tokens, example.observed_tokens);
            assert!(example.observed_runtime >= 1.0);
            assert!(example.target_pcc.is_non_increasing());
            assert!(example.pcc_points.len() >= 2);
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let jobs = jobs(10);
        let config = AugmentConfig::default();
        let parallel = Dataset::build(&jobs, &config);
        let sequential: Vec<TrainingExample> =
            jobs.iter().filter_map(|j| Dataset::prepare_example(j, &config)).collect();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.examples.iter().zip(&sequential) {
            assert_eq!(p.job_id, s.job_id);
            assert_eq!(p.observed_runtime, s.observed_runtime);
            assert_eq!(p.target_pcc, s.target_pcc);
        }
    }

    #[test]
    fn pool_builds_bit_identical_across_thread_counts() {
        let jobs = jobs(9);
        let config = AugmentConfig::default();
        let baseline = Dataset::build_with_pool(&jobs, &config, &tasq_par::Pool::sequential());
        for threads in [2usize, 4, 8] {
            let ds = Dataset::build_with_pool(&jobs, &config, &tasq_par::Pool::new(threads));
            assert_eq!(ds.len(), baseline.len());
            for (a, b) in ds.examples.iter().zip(&baseline.examples) {
                assert_eq!(a.job_id, b.job_id);
                assert_eq!(a.observed_runtime.to_bits(), b.observed_runtime.to_bits());
                assert_eq!(a.features.values, b.features.values);
                assert_eq!(a.target_pcc, b.target_pcc);
                assert_eq!(a.pcc_points.len(), b.pcc_points.len());
            }
        }
    }

    #[test]
    fn xgb_rows_append_token_feature() {
        let jobs = jobs(4);
        let ds = Dataset::build(&jobs, &AugmentConfig::default());
        let (rows, targets) = ds.xgb_rows();
        assert_eq!(rows.len(), targets.len());
        assert!(rows.len() >= ds.len() * 3, "at least 3 points per job");
        let dim = crate::featurize::JOB_FEATURE_DIM + 1;
        assert!(rows.iter().all(|r| r.len() == dim));
        assert!(targets.iter().all(|&t| t >= 1.0));
    }

    #[test]
    fn split_partitions_examples() {
        let ds = Dataset::build(&jobs(10), &AugmentConfig::default());
        let (train, test) = ds.split(5, 0);
        assert_eq!(train.len() + test.len(), 10);
        assert_eq!(test.len(), 2);
        // No overlap.
        for te in &test.examples {
            assert!(!train.examples.iter().any(|tr| tr.job_id == te.job_id));
        }
    }

    #[test]
    fn observed_runtime_matches_execution() {
        let jobs = jobs(3);
        let ds = Dataset::build(&jobs, &AugmentConfig::default());
        for (job, example) in jobs.iter().zip(&ds.examples) {
            let r = job
                .executor()
                .run(job.requested_tokens, &ExecutionConfig::default())
                .expect("runs");
            assert!((r.runtime_secs.max(1.0) - example.observed_runtime).abs() < 1e-9);
        }
    }
}
