//! Deterministic plan signatures.
//!
//! The serving cache is keyed by a 64-bit hash (FNV-seeded, splitmix-style
//! word mixing) over exactly the
//! compile-time information the featurizer reads from a submitted job:
//! every operator's categorical identity (operator + partitioning one-hot
//! indices), its discrete features, the bit patterns of its continuous
//! estimates, the DAG edge list, the requested token count, and the job's
//! execution seed (which fixes stage extraction). Two submissions hash
//! identically **iff** the scoring service would featurize them
//! identically — so recurring jobs resubmitted on the same inputs are
//! exact signature matches while any drift in cardinalities, costs, plan
//! shape, or requested allocation produces a different key.
//!
//! The job `id` is deliberately excluded: it names the request, not the
//! plan, and the cache patches it back into cached responses.

use scope_sim::plan::JobPlan;
use scope_sim::Job;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A deterministic 64-bit signature of a featurized operator DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanSignature(pub u64);

/// Streaming hasher over the plan's feature-relevant words. Each u64 is
/// folded in with a full splitmix64 finalizer round, which avalanches
/// well enough for shard selection while staying a handful of multiplies
/// per word — this sits on the serving fast path, where a byte-at-a-time
/// hash would dominate cache-hit latency.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn write_u64(&mut self, value: u64) {
        let mut x = self.0 ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }

    fn write_f64(&mut self, value: f64) {
        // Bit pattern, with -0.0 folded into +0.0 so numerically equal
        // plans cannot diverge on the sign of zero.
        // lint: allow(float-eq) — exact-bit canonicalization of signed zero.
        let canonical = if value == 0.0 { 0.0f64 } else { value };
        self.write_u64(canonical.to_bits());
    }
}

impl PlanSignature {
    /// Signature of a submitted job (plan + requested tokens + seed).
    pub fn of_job(job: &Job) -> Self {
        let mut fnv = Fnv::new();
        hash_plan(&mut fnv, &job.plan);
        fnv.write_u64(job.requested_tokens as u64);
        fnv.write_u64(job.seed);
        Self(fnv.0)
    }

    /// Signature of a bare plan (no request context); useful for
    /// plan-level dedup in analysis tooling.
    pub fn of_plan(plan: &JobPlan) -> Self {
        let mut fnv = Fnv::new();
        hash_plan(&mut fnv, plan);
        Self(fnv.0)
    }

    /// Mix a model-registry generation into the signature, producing the
    /// cache key. Entries cached under an old generation become
    /// unreachable the moment a hot-swap lands, without any coordinated
    /// invalidation: they are never probed again and age out of the cache.
    pub fn cache_key(self, generation: u64) -> u64 {
        let mut fnv = Fnv::new();
        fnv.write_u64(self.0);
        fnv.write_u64(generation);
        fnv.0
    }
}

fn hash_plan(fnv: &mut Fnv, plan: &JobPlan) {
    fnv.write_u64(plan.operators.len() as u64);
    for node in &plan.operators {
        fnv.write_u64(node.op.one_hot_index() as u64);
        fnv.write_u64(node.partitioning.one_hot_index() as u64);
        fnv.write_u64(node.num_partitions as u64);
        fnv.write_u64(node.num_partitioning_columns as u64);
        fnv.write_u64(node.num_sort_columns as u64);
        fnv.write_f64(node.est_output_cardinality);
        fnv.write_f64(node.est_leaf_input_cardinality);
        fnv.write_f64(node.est_children_input_cardinality);
        fnv.write_f64(node.avg_row_length);
        fnv.write_f64(node.est_subtree_cost);
        fnv.write_f64(node.est_exclusive_cost);
        fnv.write_f64(node.est_total_cost);
    }
    fnv.write_u64(plan.edges.len() as u64);
    for &(child, parent) in &plan.edges {
        fnv.write_u64(child as u64);
        fnv.write_u64(parent as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};

    fn jobs(n: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() })
            .generate()
    }

    #[test]
    fn identical_resubmissions_share_a_signature() {
        let job = jobs(1, 21).remove(0);
        let mut resubmitted = job.clone();
        resubmitted.id = 999_999;
        assert_eq!(PlanSignature::of_job(&job), PlanSignature::of_job(&resubmitted));
    }

    #[test]
    fn distinct_jobs_get_distinct_signatures() {
        let population = jobs(60, 23);
        let mut signatures: Vec<u64> =
            population.iter().map(|j| PlanSignature::of_job(j).0).collect();
        signatures.sort_unstable();
        signatures.dedup();
        assert_eq!(signatures.len(), 60, "no collisions across a workload");
    }

    #[test]
    fn request_context_is_part_of_the_signature() {
        let job = jobs(1, 25).remove(0);
        let mut more_tokens = job.clone();
        more_tokens.requested_tokens += 1;
        assert_ne!(PlanSignature::of_job(&job), PlanSignature::of_job(&more_tokens));
        let mut other_seed = job.clone();
        other_seed.seed ^= 1;
        assert_ne!(PlanSignature::of_job(&job), PlanSignature::of_job(&other_seed));
    }

    #[test]
    fn plan_drift_changes_the_signature() {
        let job = jobs(1, 27).remove(0);
        let mut drifted = job.clone();
        drifted.plan.operators[0].est_output_cardinality *= 1.5;
        assert_ne!(PlanSignature::of_job(&job), PlanSignature::of_job(&drifted));
    }

    #[test]
    fn generation_changes_the_cache_key_but_not_the_signature() {
        let signature = PlanSignature::of_job(&jobs(1, 29).remove(0));
        assert_ne!(signature.cache_key(1), signature.cache_key(2));
        assert_eq!(signature.cache_key(3), signature.cache_key(3));
    }

    #[test]
    fn negative_zero_folds_into_zero() {
        let job = jobs(1, 31).remove(0);
        let mut signed = job.clone();
        signed.plan.operators[0].est_subtree_cost = -0.0;
        let mut unsigned = job.clone();
        unsigned.plan.operators[0].est_subtree_cost = 0.0;
        assert_eq!(PlanSignature::of_job(&signed), PlanSignature::of_job(&unsigned));
    }
}
