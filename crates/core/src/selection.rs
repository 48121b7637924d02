//! Job-subset selection for flighting (paper Section 5.1, Figure 11).
//!
//! Production resources are scarce, so only a small subset of jobs can be
//! re-executed at multiple token counts. The subset should match the
//! population distribution. The paper's four-step procedure:
//!
//! 1. **Job filtering** — constrain the candidate pool (token range, time
//!    frame, virtual cluster).
//! 2. **Job clustering** — k-means over the population's features.
//! 3. **Stratified sampling** — random under-sampling within each
//!    cluster, proportional to the cluster's share of the population,
//!    with a cap on how often one job type is selected.
//! 4. **Quality evaluation** — a Kolmogorov–Smirnov test confirming the
//!    subset is closer to the population than the pre-selected pool was.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tasq_ml::kmeans::{KMeans, KMeansConfig};
use tasq_ml::matrix::Matrix;
use tasq_ml::rand_ext;
use tasq_ml::stats::{ks_two_sample, KsResult};

/// Filtering constraints for the pre-selected pool (step 1).
#[derive(Debug, Clone)]
pub struct JobFilter {
    /// Minimum observed token count.
    pub min_tokens: u32,
    /// Maximum observed token count.
    pub max_tokens: u32,
    /// Minimum observed run time in seconds.
    pub min_runtime_secs: f64,
    /// Maximum observed run time in seconds.
    pub max_runtime_secs: f64,
}

impl Default for JobFilter {
    fn default() -> Self {
        Self {
            min_tokens: 2,
            max_tokens: 6287,
            min_runtime_secs: 10.0,
            max_runtime_secs: 24.0 * 3600.0,
        }
    }
}

impl JobFilter {
    /// Indices of dataset examples passing the filter.
    pub fn apply(&self, dataset: &Dataset) -> Vec<usize> {
        dataset
            .examples
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                (self.min_tokens..=self.max_tokens).contains(&e.observed_tokens)
                    && (self.min_runtime_secs..=self.max_runtime_secs)
                        .contains(&e.observed_runtime)
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Selection configuration.
#[derive(Debug, Clone)]
pub struct SelectionConfig {
    /// Candidate-pool filter.
    pub filter: JobFilter,
    /// Number of k-means clusters (the paper's population splits into 8).
    pub num_clusters: usize,
    /// Total jobs to select.
    pub sample_size: usize,
    /// Cap on selections per job (per unique job id) — the paper limits
    /// how many times each type of job can be picked.
    pub max_per_job: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self {
            filter: JobFilter::default(),
            num_clusters: 8,
            sample_size: 200,
            max_per_job: 1,
            seed: 0,
        }
    }
}

/// Result of subset selection.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Indices (into the dataset) of the selected jobs.
    pub selected: Vec<usize>,
    /// Cluster assignment of every population example.
    pub population_clusters: Vec<usize>,
    /// Cluster proportions of the population.
    pub population_proportions: Vec<f64>,
    /// Cluster proportions of the pre-selected (filtered) pool.
    pub pool_proportions: Vec<f64>,
    /// Cluster proportions of the selected subset.
    pub selected_proportions: Vec<f64>,
    /// KS test: pre-selection pool vs. population (on observed run times).
    pub ks_pool: KsResult,
    /// KS test: selected subset vs. population.
    pub ks_selected: KsResult,
}

/// Cluster proportions of a set of assignments.
fn proportions(assignments: &[usize], k: usize) -> Vec<f64> {
    let mut counts = vec![0usize; k];
    for &a in assignments {
        counts[a] += 1;
    }
    let total = assignments.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

/// Run the four-step selection procedure over a prepared dataset (which
/// stands in for the historical population).
#[allow(clippy::needless_range_loop)] // quota lookup is per cluster id
pub fn select_jobs(dataset: &Dataset, config: &SelectionConfig) -> SelectionResult {
    assert!(!dataset.is_empty(), "select_jobs: empty dataset");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Step 2: cluster the full population on its job-level features.
    let rows = dataset.job_feature_rows();
    let data = Matrix::from_rows(&rows);
    // Assignment distances are computed on a `tasq_par` pool;
    // `kmeans_with_pool` is bit-identical to the sequential fit at any
    // thread count, so selection stays fully deterministic.
    let model: KMeans = tasq_ml::kmeans::kmeans_with_pool(
        &mut rng,
        &data,
        &KMeansConfig { k: config.num_clusters, ..Default::default() },
        &tasq_par::Pool::with_available_parallelism(),
    );
    let population_clusters = model.assignments.clone();
    let k = model.k();

    // Step 1: filter to the candidate pool.
    let pool = config.filter.apply(dataset);
    let pool_clusters: Vec<usize> = pool.iter().map(|&i| population_clusters[i]).collect();

    // Step 3: stratified under-sampling proportional to population shares.
    let pop_props = proportions(&population_clusters, k);
    let mut selected: Vec<usize> = Vec::new();
    let mut picks_per_job: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for cluster in 0..k {
        let quota =
            ((config.sample_size as f64) * pop_props[cluster]).round() as usize;
        let mut members: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&i| population_clusters[i] == cluster)
            .collect();
        rand_ext::shuffle(&mut rng, &mut members);
        let mut taken = 0usize;
        for idx in members {
            if taken >= quota {
                break;
            }
            let job_id = dataset.examples[idx].job_id;
            let count = picks_per_job.entry(job_id).or_insert(0);
            if *count >= config.max_per_job {
                continue;
            }
            *count += 1;
            selected.push(idx);
            taken += 1;
        }
    }

    // Step 4: KS quality evaluation on the observed run-time distribution.
    let population_rt: Vec<f64> =
        dataset.examples.iter().map(|e| e.observed_runtime).collect();
    let pool_rt: Vec<f64> = pool.iter().map(|&i| dataset.examples[i].observed_runtime).collect();
    let selected_rt: Vec<f64> =
        selected.iter().map(|&i| dataset.examples[i].observed_runtime).collect();

    let selected_clusters: Vec<usize> =
        selected.iter().map(|&i| population_clusters[i]).collect();

    SelectionResult {
        population_proportions: pop_props,
        pool_proportions: proportions(&pool_clusters, k),
        selected_proportions: proportions(&selected_clusters, k),
        ks_pool: ks_two_sample(&pool_rt, &population_rt),
        ks_selected: ks_two_sample(&selected_rt, &population_rt),
        population_clusters,
        selected,
    }
}

impl SelectionResult {
    /// Largest absolute gap between subset and population cluster shares.
    pub fn max_proportion_gap(&self) -> f64 {
        self.selected_proportions
            .iter()
            .zip(&self.population_proportions)
            .map(|(s, p)| (s - p).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn dataset(n: usize) -> Dataset {
        let jobs =
            WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed: 71, ..Default::default() })
                .generate();
        Dataset::build(&jobs, &AugmentConfig::default())
    }

    #[test]
    fn selects_requested_sample_size_approximately() {
        let ds = dataset(300);
        let config = SelectionConfig { sample_size: 60, ..Default::default() };
        let result = select_jobs(&ds, &config);
        // Rounding and caps may cost a few slots; stay within 20%.
        assert!(
            (48..=66).contains(&result.selected.len()),
            "selected {}",
            result.selected.len()
        );
        // No duplicates beyond the cap.
        let mut ids: Vec<u64> =
            result.selected.iter().map(|&i| ds.examples[i].job_id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "max_per_job = 1 forbids duplicates");
    }

    #[test]
    fn subset_matches_population_proportions() {
        let ds = dataset(300);
        let result = select_jobs(&ds, &SelectionConfig { sample_size: 80, ..Default::default() });
        assert!(
            result.max_proportion_gap() < 0.12,
            "proportion gap {} too large:\n pop {:?}\n sel {:?}",
            result.max_proportion_gap(),
            result.population_proportions,
            result.selected_proportions
        );
    }

    #[test]
    fn ks_improves_or_matches_after_selection() {
        let ds = dataset(250);
        // Bias the pool with a narrow token filter so stratification has
        // something to fix.
        let config = SelectionConfig {
            filter: JobFilter { min_tokens: 10, max_tokens: 400, ..Default::default() },
            sample_size: 60,
            ..Default::default()
        };
        let result = select_jobs(&ds, &config);
        assert!(
            result.ks_selected.statistic <= result.ks_pool.statistic + 0.1,
            "selected KS {} should not be much worse than pool KS {}",
            result.ks_selected.statistic,
            result.ks_pool.statistic
        );
    }

    #[test]
    fn filter_respects_bounds() {
        let ds = dataset(100);
        let filter = JobFilter { min_tokens: 50, max_tokens: 200, ..Default::default() };
        for &i in &filter.apply(&ds) {
            let t = ds.examples[i].observed_tokens;
            assert!((50..=200).contains(&t));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset(120);
        let config = SelectionConfig { sample_size: 30, seed: 9, ..Default::default() };
        let r1 = select_jobs(&ds, &config);
        let r2 = select_jobs(&ds, &config);
        assert_eq!(r1.selected, r2.selected);
    }
}
