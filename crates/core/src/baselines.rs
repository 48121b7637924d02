//! Baselines from the paper's related work, implemented for head-to-head
//! comparison with TASQ.
//!
//! **AutoToken** (Sen et al., VLDB 2020) groups *recurring* jobs by plan
//! signature and trains one small model per group to predict the group's
//! peak token usage from compile-time job metadata. It achieves the "Peak
//! Allocation" policy of Figure 1, but — as the paper stresses — it
//! cannot score ad-hoc jobs (40–60% of SCOPE jobs are new), cannot answer
//! what-if questions below the peak, and ignores the plan's shape.

use crate::dataset::{Dataset, TrainingExample};
use crate::featurize::{NUM_CONTINUOUS, NUM_DISCRETE};
use scope_sim::plan::JobPlan;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use tasq_ml::linreg;

/// A recurring-job signature, standing in for AutoToken's normalized
/// script hash: the plan structure (operator kinds in topological order
/// plus the edge list) combined with input-size-*independent* node
/// constants (schema-derived average row lengths). Instances of the same
/// template share it even as input cardinalities drift; distinct ad-hoc
/// scripts differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobSignature(u64);

impl JobSignature {
    /// Compute the signature of a plan.
    pub fn of(plan: &JobPlan) -> Self {
        let mut hasher = DefaultHasher::new();
        #[expect(clippy::expect_used, reason = "`JobPlan::new` rejects cyclic edge sets")]
        let order = plan.topological_order().expect("plans are validated acyclic");
        for &i in &order {
            let node = &plan.operators[i];
            node.op.one_hot_index().hash(&mut hasher);
            node.partitioning.one_hot_index().hash(&mut hasher);
            // Row lengths come from the schema, not the input volume:
            // stable across recurring instances, distinct across scripts.
            ((node.avg_row_length * 1e6).round() as i64).hash(&mut hasher);
        }
        let mut edges = plan.edges.clone();
        edges.sort_unstable();
        edges.hash(&mut hasher);
        Self(hasher.finish())
    }
}

/// Per-signature peak-token model: ridge regression from the continuous
/// and discrete job-level features to the observed peak.
#[derive(Debug, Clone)]
struct GroupModel {
    /// Ridge coefficients `[intercept, beta...]`, or `None` when the group
    /// was too small to regress (falls back to the mean peak).
    coefficients: Option<Vec<f64>>,
    mean_peak: f64,
}

/// The AutoToken baseline: signature-grouped peak predictors.
#[derive(Debug, Clone)]
pub struct AutoToken {
    groups: HashMap<JobSignature, GroupModel>,
}

/// The features AutoToken uses: aggregate job-level characteristics (the
/// means of the continuous + discrete columns), not plan shape.
fn autotoken_features(example: &TrainingExample) -> Vec<f64> {
    example.features.values[..NUM_CONTINUOUS + NUM_DISCRETE].to_vec()
}

impl AutoToken {
    /// Train one model per signature group over the dataset. Groups need
    /// at least `min_group_size` members; smaller groups are skipped
    /// (AutoToken's coverage is limited to recurring jobs with history).
    pub fn train(dataset: &Dataset, jobs: &[scope_sim::Job], min_group_size: usize) -> Self {
        assert_eq!(dataset.len(), jobs.len(), "AutoToken::train: dataset/jobs mismatch");
        let mut by_signature: HashMap<JobSignature, Vec<usize>> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            by_signature.entry(JobSignature::of(&job.plan)).or_default().push(i);
        }
        let groups = by_signature
            .into_iter()
            .filter(|(_, members)| members.len() >= min_group_size.max(1))
            .map(|(signature, members)| {
                let rows: Vec<Vec<f64>> = members
                    .iter()
                    .map(|&i| autotoken_features(&dataset.examples[i]))
                    .collect();
                let peaks: Vec<f64> =
                    members.iter().map(|&i| dataset.examples[i].peak_tokens).collect();
                let mean_peak =
                    peaks.iter().sum::<f64>() / peaks.len() as f64;
                let coefficients = if members.len() >= 3 {
                    linreg::ridge_regression(&rows, &peaks, 1.0)
                } else {
                    None
                };
                (signature, GroupModel { coefficients, mean_peak })
            })
            .collect();
        Self { groups }
    }

    /// Number of signature groups with a model.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Predict the peak token count for a job, or `None` when its
    /// signature was never seen (ad-hoc jobs — AutoToken's coverage gap).
    pub fn predict_peak(&self, job: &scope_sim::Job, example: &TrainingExample) -> Option<u32> {
        let group = self.groups.get(&JobSignature::of(&job.plan))?;
        let features = autotoken_features(example);
        let raw = match &group.coefficients {
            Some(beta) => {
                let mut value = beta[0];
                for (b, x) in beta[1..].iter().zip(&features) {
                    value += b * x;
                }
                value
            }
            None => group.mean_peak,
        };
        // Peak predictions below 1 or wildly off fall back to the group
        // mean (AutoToken clamps with safety margins in production).
        let value = if raw.is_finite() && raw >= 1.0 { raw } else { group.mean_peak };
        Some((value.round() as u32).clamp(1, 6287))
    }

    /// Fraction of the given jobs that AutoToken can cover.
    pub fn coverage(&self, jobs: &[scope_sim::Job]) -> f64 {
        if jobs.is_empty() {
            return 0.0;
        }
        let covered = jobs
            .iter()
            .filter(|j| self.groups.contains_key(&JobSignature::of(&j.plan)))
            .count();
        covered as f64 / jobs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn workload(n: usize, seed: u64) -> (Vec<scope_sim::Job>, Dataset) {
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed,
            ..Default::default()
        })
        .generate();
        let dataset = Dataset::build(&jobs, &AugmentConfig::default());
        (jobs, dataset)
    }

    #[test]
    fn signature_stable_across_instances_of_one_template() {
        use scope_sim::Archetype;
        let a = Archetype::StarJoinAgg.build_plan(5, 1.0, 64);
        let b = Archetype::StarJoinAgg.build_plan(5, 2.5, 64); // input drift only
        assert_eq!(JobSignature::of(&a), JobSignature::of(&b));
        let c = Archetype::StarJoinAgg.build_plan(6, 1.0, 64); // different structure
        assert_ne!(JobSignature::of(&a), JobSignature::of(&c));
    }

    #[test]
    fn covers_recurring_but_not_all_adhoc() {
        let (jobs, dataset) = workload(300, 61);
        let model = AutoToken::train(&dataset, &jobs, 2);
        assert!(model.num_groups() > 0);
        let coverage = model.coverage(&jobs);
        // Roughly half the workload is recurring; coverage should be
        // meaningfully below 100% (the paper's 40-60% ad-hoc claim).
        assert!(
            (0.2..0.95).contains(&coverage),
            "coverage {coverage} should reflect the ad-hoc gap"
        );
    }

    #[test]
    fn peak_predictions_are_reasonable_for_covered_jobs() {
        let (jobs, dataset) = workload(400, 63);
        let model = AutoToken::train(&dataset, &jobs, 3);
        let mut errors = Vec::new();
        for (job, example) in jobs.iter().zip(&dataset.examples) {
            if let Some(predicted) = model.predict_peak(job, example) {
                errors.push((predicted as f64 - example.peak_tokens).abs()
                    / example.peak_tokens.max(1.0));
            }
        }
        assert!(!errors.is_empty());
        let median = tasq_ml::stats::median(&errors);
        assert!(median < 0.45, "median peak error {median}");
    }

    #[test]
    fn unseen_signature_returns_none() {
        let (jobs, dataset) = workload(50, 65);
        let model = AutoToken::train(&dataset, &jobs, 2);
        // A plan from an unrelated seed space.
        let fresh = scope_sim::Archetype::MlScoring.build_plan(0xDEAD_BEEF, 1.0, 31);
        let fresh_job = scope_sim::Job {
            id: 9999,
            plan: fresh,
            requested_tokens: 31,
            seed: 1,
            meta: jobs[0].meta.clone(),
        };
        let example = Dataset::prepare_example(&fresh_job, &AugmentConfig::default()).unwrap();
        // Either covered by coincidence (same archetype structure) or not;
        // with a distinct structure seed the chain lengths almost surely
        // differ. We assert it does not panic and respects the Option.
        let _ = model.predict_peak(&fresh_job, &example);
    }
}
