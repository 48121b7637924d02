//! Synthetic workload generation.
//!
//! Substitutes for the closed 85K-job Microsoft production workload. Jobs
//! are drawn from eight archetypes (ETL ingest, star-join aggregation,
//! window analytics, featurization, reporting roll-up, log mining, data
//! copy, ML scoring) whose DAG shapes produce the peaky/flat skyline
//! variety the paper shows; job sizes follow right-skewed lognormals
//! calibrated to the published population statistics (run times 33 s–21 h,
//! median ≈3 min; peak tokens 1–6,287, median ≈54).
//!
//! Jobs are either *recurring* (instances of a per-archetype template with
//! input-size drift — the population AutoToken-style approaches can cover)
//! or *ad-hoc* (freshly sampled structure — the population only a global
//! model like TASQ's can cover).

mod archetypes;
mod builder;

pub use archetypes::Archetype;
pub use builder::PlanBuilder;

use crate::exec::Executor;
use crate::plan::JobPlan;
use crate::stage::StageGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tasq_codec::Wire;
use tasq_ml::rand_ext;

/// Metadata the generator attaches to each job.
#[derive(Debug, Clone, Wire)]
pub struct JobMeta {
    /// The archetype this job was drawn from.
    pub archetype: Archetype,
    /// `Some(template_id)` for recurring jobs; `None` for ad-hoc jobs.
    pub recurring_template: Option<u64>,
    /// Size multiplier applied to the archetype's base plan.
    pub size_factor: f64,
}

/// A generated job: plan, requested allocation, and metadata.
#[derive(Debug, Clone, Wire)]
pub struct Job {
    /// Unique job id.
    pub id: u64,
    /// The compile-time query plan.
    pub plan: JobPlan,
    /// Tokens the user requested (the paper's "default allocation" —
    /// typically comfortably above what the job can use).
    pub requested_tokens: u32,
    /// Seed controlling this job's deterministic execution details
    /// (task-size skew).
    pub seed: u64,
    /// Generator metadata.
    pub meta: JobMeta,
}

impl Job {
    /// Build the executor for this job (stage extraction + task layout).
    pub fn executor(&self) -> Executor {
        Executor::new(StageGraph::from_plan(&self.plan, self.seed))
    }

    /// Number of stages (a job-level feature in the paper).
    pub fn num_stages(&self) -> usize {
        StageGraph::count_stages(&self.plan)
    }
}

/// Workload generation parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Master seed.
    pub seed: u64,
    /// Fraction of jobs instantiated from recurring templates (the paper
    /// reports 40–60% of SCOPE jobs are new/ad-hoc).
    pub fraction_recurring: f64,
    /// Number of recurring templates per archetype.
    pub templates_per_archetype: usize,
    /// Lognormal mu of the job size factor (1.0 = archetype base size).
    pub size_mu: f64,
    /// Lognormal sigma of the job size factor (right-skew strength).
    pub size_sigma: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_jobs: 1000,
            seed: 0,
            fraction_recurring: 0.5,
            templates_per_archetype: 8,
            size_mu: 0.0,
            size_sigma: 1.1,
        }
    }
}

/// Generates [`Job`]s according to a [`WorkloadConfig`].
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
}

impl WorkloadGenerator {
    /// Create a generator.
    pub fn new(config: WorkloadConfig) -> Self {
        Self { config }
    }

    /// Generate the full workload.
    pub fn generate(&self) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // Pre-draw template descriptors: (archetype, structure_seed,
        // base_tokens). Recurring instances share these and only drift in
        // size.
        let templates: Vec<(Archetype, u64, u32)> = Archetype::ALL
            .iter()
            .flat_map(|&a| {
                (0..self.config.templates_per_archetype)
                    .map(|_| (a, rng.gen::<u64>(), sample_tokens(&mut rng)))
                    .collect::<Vec<_>>()
            })
            .collect();

        (0..self.config.num_jobs)
            .map(|i| {
                let id = i as u64;
                let recurring = rng.gen_bool(self.config.fraction_recurring.clamp(0.0, 1.0));
                let size_factor = rand_ext::lognormal_clamped(
                    &mut rng,
                    self.config.size_mu,
                    self.config.size_sigma,
                    0.05,
                    60.0,
                );
                let (archetype, structure_seed, base_tokens, template) = if recurring {
                    let t = rng.gen_range(0..templates.len());
                    let (a, s, tok) = templates[t];
                    (a, s, tok, Some(t as u64))
                } else {
                    let a = Archetype::ALL[rng.gen_range(0..Archetype::ALL.len())];
                    (a, rng.gen::<u64>(), sample_tokens(&mut rng), None)
                };
                // Requested tokens drift mildly for recurring instances.
                let requested_tokens = ((base_tokens as f64)
                    * rng.gen_range(0.9f64..1.15)
                    * size_factor.sqrt().clamp(0.5, 3.0))
                .round()
                .clamp(1.0, 6287.0) as u32;
                let plan = archetype.build_plan(structure_seed, size_factor, requested_tokens);
                let job = Job {
                    id,
                    plan,
                    requested_tokens,
                    seed: structure_seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    meta: JobMeta { archetype, recurring_template: template, size_factor },
                };
                // Every archetype must satisfy the semantic invariants in
                // `crate::validate`; a violation here is a generator bug.
                debug_assert!(
                    crate::validate::validate_job(&job).is_ok(),
                    "generator produced an invalid job {}: {:?}",
                    job.id,
                    crate::validate::validate_job(&job).err()
                );
                job
            })
            .collect()
    }
}

/// Serving-traffic parameters for [`replay_traffic`].
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Total number of score requests to emit.
    pub requests: usize,
    /// Probability that a request is an exact resubmission of an earlier
    /// request (a recurring job run again on the same inputs). Production
    /// serving traffic is dominated by such repeats — LeJOT-style
    /// orchestration reports recurring pipelines resubmitting the same
    /// plans daily.
    pub repeat_fraction: f64,
    /// RNG seed for repeat choices.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self { requests: 1000, repeat_fraction: 0.8, seed: 0 }
    }
}

/// Expand a base workload into a serving-traffic stream.
///
/// Each emitted request is, with probability `repeat_fraction`, a
/// bit-identical resubmission of a uniformly chosen earlier request;
/// otherwise it is the next base job, cycling through the base workload
/// when it is exhausted (a finite daily job population replayed over
/// time). Every request gets a fresh unique `id` — resubmissions differ
/// from their original *only* in `id`, which is what makes them cache
/// hits for a plan-signature keyed cache while still being distinct
/// requests to the server.
pub fn replay_traffic(base: &[Job], config: &TrafficConfig) -> Vec<Job> {
    assert!(!base.is_empty(), "replay_traffic: empty base workload");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7261_6666_6963);
    let mut stream: Vec<Job> = Vec::with_capacity(config.requests);
    let mut next_fresh = 0usize;
    for i in 0..config.requests {
        let repeat = !stream.is_empty()
            && rng.gen_bool(config.repeat_fraction.clamp(0.0, 1.0));
        let mut job = if repeat {
            stream[rng.gen_range(0..stream.len())].clone()
        } else {
            let job = base[next_fresh % base.len()].clone();
            next_fresh += 1;
            job
        };
        job.id = 1_000_000 + i as u64;
        stream.push(job);
    }
    stream
}

/// Sample a requested token count from the paper's published distribution
/// shape (median ≈54, mean ≈154, max 6,287 — strongly right-skewed).
fn sample_tokens<R: Rng + ?Sized>(rng: &mut R) -> u32 {
    // sigma 1.44 gives mean/median ~= exp(sigma^2/2) ~= 2.8, matching the
    // published 154/54 ratio.
    let t = rand_ext::lognormal_clamped(rng, 54.0f64.ln(), 1.44, 1.0, 6287.0);
    t.round().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload(n: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
            .generate()
    }

    #[test]
    fn replayed_traffic_repeats_earlier_plans_exactly() {
        let base = small_workload(20, 9);
        let config = TrafficConfig { requests: 400, repeat_fraction: 0.8, seed: 4 };
        let stream = replay_traffic(&base, &config);
        assert_eq!(stream.len(), 400);
        // Unique request ids throughout.
        let mut ids: Vec<u64> = stream.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
        // Repeats are exact: count requests whose (plan, tokens, seed)
        // already appeared earlier in the stream.
        let mut seen: Vec<&Job> = Vec::new();
        let mut repeats = 0usize;
        for job in &stream {
            if seen.iter().any(|s| {
                s.seed == job.seed
                    && s.requested_tokens == job.requested_tokens
                    && s.plan.num_operators() == job.plan.num_operators()
            }) {
                repeats += 1;
            }
            seen.push(job);
        }
        // ~80% direct repeats plus base-cycling repeats (400 requests over
        // at most 20 distinct base jobs).
        assert!(repeats >= 300, "expected a repeat-heavy stream, got {repeats}/400");
        // Deterministic for a fixed seed.
        let again = replay_traffic(&base, &config);
        assert!(stream.iter().zip(&again).all(|(a, b)| a.id == b.id && a.seed == b.seed));
    }

    #[test]
    fn generates_requested_count_with_unique_ids() {
        let jobs = small_workload(50, 1);
        assert_eq!(jobs.len(), 50);
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_workload(20, 7);
        let b = small_workload(20, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.requested_tokens, y.requested_tokens);
            assert_eq!(x.plan.num_operators(), y.plan.num_operators());
        }
    }

    #[test]
    fn token_distribution_is_right_skewed() {
        let jobs = small_workload(2000, 3);
        let mut tokens: Vec<f64> = jobs.iter().map(|j| j.requested_tokens as f64).collect();
        tokens.sort_by(|a, b| a.total_cmp(b));
        let median = tokens[tokens.len() / 2];
        let mean = tokens.iter().sum::<f64>() / tokens.len() as f64;
        assert!(mean > median * 1.3, "right skew expected: mean {mean}, median {median}");
        // Median in the right ballpark of the paper's 54.
        assert!((20.0..160.0).contains(&median), "median {median}");
        assert!(tokens.iter().all(|&t| (1.0..=6287.0).contains(&t)));
    }

    #[test]
    fn mixes_recurring_and_adhoc() {
        let jobs = small_workload(400, 5);
        let recurring = jobs.iter().filter(|j| j.meta.recurring_template.is_some()).count();
        assert!(
            (100..300).contains(&recurring),
            "roughly half should be recurring, got {recurring}/400"
        );
    }

    #[test]
    fn recurring_jobs_share_structure() {
        let jobs = small_workload(600, 11);
        use std::collections::HashMap;
        let mut by_template: HashMap<u64, Vec<&Job>> = HashMap::new();
        for j in &jobs {
            if let Some(t) = j.meta.recurring_template {
                by_template.entry(t).or_default().push(j);
            }
        }
        let group = by_template.values().find(|v| v.len() >= 2).expect("some repeated template");
        let first = &group[0];
        for j in group {
            assert_eq!(j.meta.archetype, first.meta.archetype);
            assert_eq!(j.plan.num_operators(), first.plan.num_operators());
        }
    }

    #[test]
    fn all_archetypes_appear() {
        let jobs = small_workload(800, 13);
        use std::collections::HashSet;
        let seen: HashSet<Archetype> = jobs.iter().map(|j| j.meta.archetype).collect();
        assert_eq!(seen.len(), Archetype::ALL.len(), "missing archetypes: {seen:?}");
    }

    #[test]
    fn jobs_execute_end_to_end() {
        let jobs = small_workload(10, 17);
        for job in &jobs {
            let exec = job.executor();
            let result = exec
                .run(job.requested_tokens, &crate::exec::ExecutionConfig::default())
                .expect("runs");
            assert!(result.runtime_secs > 0.0);
            assert!(result.skyline.peak() <= job.requested_tokens as f64 + 1e-9);
        }
    }
}
