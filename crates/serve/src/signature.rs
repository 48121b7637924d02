//! Deterministic plan signatures.
//!
//! The serving cache is keyed by a 64-bit hash (three lanes, each folding
//! a pair of words with one 64×64→128-bit multiply) over exactly the
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

/// Nonzero constants (hex digits of π), one per lane, xored into each
/// pair's second word, so that a zero word does not zero a lane's product.
const PAIR_KEYS: [u64; 3] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0];

/// Fold one word into a hash state with a full splitmix64 finalizer
/// round: three dependent multiplies, which avalanche every input bit.
/// Kept where the avalanche matters — the lanes' final fold and the
/// cache key, whose low bits pick the shard.
#[inline]
fn mix(state: u64, value: u64) -> u64 {
    let mut x = state ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bit pattern of an estimate, with -0.0 folded into +0.0 so numerically
/// equal plans cannot diverge on the sign of zero.
#[inline]
fn canonical_bits(value: f64) -> u64 {
    // Exact-bit canonicalization of signed zero.
    let canonical = if value == 0.0 { 0.0f64 } else { value };
    canonical.to_bits()
}

/// The high and low halves of the full 128-bit product, xored: every
/// bit of either factor reaches the middle bits of the result.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Streaming hasher over the plan's feature-relevant words, six words
/// at a time into three independent lanes: each lane folds a pair of
/// words into its state with one wide multiply, `state = fold(state ^ a,
/// b ^ key)`. The three multiply chains overlap in the pipeline, and an
/// operator's twelve words take two rounds of each; this sits on every
/// request's path, hit or miss. The lanes fold into one word at the end,
/// two of them by one more wide multiply and the third by a splitmix
/// round.
struct Lanes([u64; 3]);

impl Lanes {
    fn new() -> Self {
        Self([FNV_OFFSET, FNV_OFFSET ^ PAIR_KEYS[0], FNV_OFFSET ^ PAIR_KEYS[1]])
    }

    #[inline]
    fn write(&mut self, [a, b, c, d, e, f]: [u64; 6]) {
        let [k0, k1, k2] = PAIR_KEYS;
        self.0[0] = folded_multiply(self.0[0] ^ a, b ^ k0);
        self.0[1] = folded_multiply(self.0[1] ^ c, d ^ k1);
        self.0[2] = folded_multiply(self.0[2] ^ e, f ^ k2);
    }

    fn finish(&self) -> u64 {
        let [a, b, c] = self.0;
        mix(folded_multiply(a ^ PAIR_KEYS[0], b ^ PAIR_KEYS[1]), c)
    }
}

impl PlanSignature {
    /// Signature of a submitted job (plan + requested tokens + seed).
    pub fn of_job(job: &Job) -> Self {
        let mut lanes = Lanes::new();
        hash_plan(&mut lanes, &job.plan);
        lanes.write([job.requested_tokens as u64, job.seed, 0, 0, 0, 0]);
        Self(lanes.finish())
    }

    /// Mix a model-registry generation into the signature, producing the
    /// cache key. Entries cached under an old generation become
    /// unreachable the moment a hot-swap lands, without any coordinated
    /// invalidation: they are never probed again and age out of the cache.
    pub fn cache_key(self, generation: u64) -> u64 {
        mix(mix(FNV_OFFSET, self.0), generation)
    }
}

fn hash_plan(lanes: &mut Lanes, plan: &JobPlan) {
    lanes.write([plan.operators.len() as u64, plan.edges.len() as u64, 0, 0, 0, 0]);
    for node in &plan.operators {
        lanes.write([
            node.op.one_hot_index() as u64,
            node.partitioning.one_hot_index() as u64,
            node.num_partitions as u64,
            node.num_partitioning_columns as u64,
            node.num_sort_columns as u64,
            canonical_bits(node.est_output_cardinality),
        ]);
        lanes.write([
            canonical_bits(node.est_leaf_input_cardinality),
            canonical_bits(node.est_children_input_cardinality),
            canonical_bits(node.avg_row_length),
            canonical_bits(node.est_subtree_cost),
            canonical_bits(node.est_exclusive_cost),
            canonical_bits(node.est_total_cost),
        ]);
    }
    // Three edges a write; the edge count above tells a short last write's
    // zero padding from edges.
    for edges in plan.edges.chunks(3) {
        let mut words = [0u64; 6];
        for (pair, &(child, parent)) in words.chunks_exact_mut(2).zip(edges) {
            pair.copy_from_slice(&[child as u64, parent as u64]);
        }
        lanes.write(words);
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
        // The size of the benchmark's ad-hoc plan pool.
        let population = jobs(2048, 23);
        let mut signatures: Vec<u64> =
            population.iter().map(|j| PlanSignature::of_job(j).0).collect();
        signatures.sort_unstable();
        signatures.dedup();
        assert_eq!(signatures.len(), 2048, "no collisions across a workload");
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
