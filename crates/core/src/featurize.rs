//! Featurization (paper Tables 1 and 2).
//!
//! Two representations are extracted from a compile-time [`JobPlan`]:
//!
//! * **Aggregated job-level features** (`P_J = 51`), for XGBoost and the
//!   NN: means of the continuous and discrete per-operator features,
//!   frequency counts of the 35 operator and 4 partitioning one-hot
//!   categories, plus operator and stage counts.
//! * **Operator-level features** (`N x P_O`, `P_O = 49`) plus the plan
//!   DAG, for the GNN, avoiding aggregation loss.
//!
//! Continuous magnitudes (cardinalities, costs, row lengths) span many
//! orders of magnitude, so they are `log1p`-compressed at extraction,
//! with `tasq_ml`'s [`log1p`] (glibc's generic `log1p`, to the bit, with
//! no call into libm; [`featurize_job`] runs it lane-wise); a
//! [`FeatureScaler`] (fit on training data) z-scores inputs for the neural
//! models. Tree models consume the raw vectors.

use scope_sim::operators::ALL_OPERATORS;
use scope_sim::plan::{JobPlan, OperatorNode};
use tasq_codec::{CodecError, Wire};
use tasq_ml::{log1p, log1p_then_divide};

/// Number of continuous per-operator features.
pub const NUM_CONTINUOUS: usize = 7;
/// Number of discrete per-operator features.
pub const NUM_DISCRETE: usize = 3;
/// One-hot width: 35 operators + 4 partitioning methods.
pub const NUM_ONEHOT: usize = 39;
/// Per-operator feature dimensionality (`P_O`).
pub const OP_FEATURE_DIM: usize = NUM_CONTINUOUS + NUM_DISCRETE + NUM_ONEHOT;
/// Job-level feature dimensionality (`P_J`): aggregated operator features
/// plus operator and stage counts.
pub const JOB_FEATURE_DIM: usize = OP_FEATURE_DIM + 2;

/// Aggregated job-level feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFeatures {
    /// The `P_J`-dimensional vector.
    pub values: Vec<f64>,
}

/// Operator-level features plus graph structure (GNN input).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorFeatures {
    /// `N x P_O` row-major feature rows, one per operator.
    pub rows: Vec<Vec<f64>>,
    /// Plan edges `(child, parent)`.
    pub edges: Vec<(usize, usize)>,
}

/// Number of per-operator features that aggregate by mean.
const NUM_SCALAR: usize = NUM_CONTINUOUS + NUM_DISCRETE;

/// Operators [`featurize_job`] fills its stack buffers with before each
/// [`log1p_then_divide`] call: one call covers a plan of up to 16.
const CHUNK: usize = 16;

/// The continuous features of one operator before compression, clamped
/// at zero (`NaN` and negatives read `0.0`).
fn continuous_inputs(node: &OperatorNode) -> [f64; NUM_CONTINUOUS] {
    [
        node.est_output_cardinality.max(0.0),
        node.est_leaf_input_cardinality.max(0.0),
        node.est_children_input_cardinality.max(0.0),
        node.avg_row_length.max(0.0),
        node.est_subtree_cost.max(0.0),
        node.est_exclusive_cost.max(0.0),
        node.est_total_cost.max(0.0),
    ]
}

/// The discrete features of one operator.
fn discrete_features(node: &OperatorNode) -> [f64; NUM_DISCRETE] {
    [
        node.num_partitions as f64,
        node.num_partitioning_columns as f64,
        node.num_sort_columns as f64,
    ]
}

/// Row positions of the two one-hot bits an operator sets: its physical
/// operator and its partitioning method.
fn one_hot_positions(node: &OperatorNode) -> [usize; 2] {
    [
        NUM_SCALAR + node.op.one_hot_index(),
        NUM_SCALAR + ALL_OPERATORS.len() + node.partitioning.one_hot_index(),
    ]
}

/// The continuous + discrete + one-hot row for a single operator.
fn operator_row(node: &OperatorNode) -> Vec<f64> {
    let mut row = vec![0.0; OP_FEATURE_DIM];
    for (feature, x) in row.iter_mut().zip(continuous_inputs(node)) {
        *feature = log1p(x);
    }
    row[NUM_CONTINUOUS..NUM_SCALAR].copy_from_slice(&discrete_features(node));
    for position in one_hot_positions(node) {
        row[position] = 1.0;
    }
    row
}

/// Extract operator-level features (GNN input) from a plan.
pub fn featurize_operators(plan: &JobPlan) -> OperatorFeatures {
    OperatorFeatures {
        rows: plan.operators.iter().map(operator_row).collect(),
        edges: plan.edges.clone(),
    }
}

/// Extract the aggregated job-level feature vector.
///
/// Continuous and discrete features aggregate by mean; one-hot categories
/// aggregate by frequency count; operator and stage counts are appended.
/// Works [`CHUNK`] operators at a time: their inputs go into stack
/// buffers, one [`log1p_then_divide`] call compresses and divides them
/// all lane-wise, and the quotients are added into the means operator by
/// operator, feature by feature, from `0.0`. Those are the additions a
/// sum over [`featurize_operators`] rows would make, in the same order
/// (a one-hot zero adds nothing, and both use the one [`log1p`]), so the
/// vector is bit-identical to that sum.
pub fn featurize_job(plan: &JobPlan, num_stages: usize) -> JobFeatures {
    let n = plan.operators.len().max(1) as f64;
    let mut values = vec![0.0; JOB_FEATURE_DIM];
    let mut logs = [0.0; CHUNK * NUM_CONTINUOUS];
    let mut plain = [0.0; CHUNK * NUM_DISCRETE];
    for chunk in plan.operators.chunks(CHUNK) {
        let logs = &mut logs[..chunk.len() * NUM_CONTINUOUS];
        let plain = &mut plain[..chunk.len() * NUM_DISCRETE];
        let inputs = logs.chunks_exact_mut(NUM_CONTINUOUS);
        for (node, (continuous, discrete)) in
            chunk.iter().zip(inputs.zip(plain.chunks_exact_mut(NUM_DISCRETE)))
        {
            continuous.copy_from_slice(&continuous_inputs(node));
            discrete.copy_from_slice(&discrete_features(node));
        }
        log1p_then_divide(logs, plain, n);
        let quotients = logs.chunks_exact(NUM_CONTINUOUS).zip(plain.chunks_exact(NUM_DISCRETE));
        for (node, (continuous, discrete)) in chunk.iter().zip(quotients) {
            let features = continuous.iter().chain(discrete);
            for (mean, &feature) in values[..NUM_SCALAR].iter_mut().zip(features) {
                *mean += feature;
            }
            for position in one_hot_positions(node) {
                values[position] += 1.0;
            }
        }
    }
    values[OP_FEATURE_DIM] = plan.operators.len() as f64;
    values[OP_FEATURE_DIM + 1] = num_stages as f64;
    JobFeatures { values }
}

/// Z-score feature scaler (fit on the training set only).
#[derive(Debug, Clone)]
pub struct FeatureScaler {
    means: Vec<f64>,
    /// Inverse standard deviations (0 for constant features, which scale
    /// to exactly zero).
    inv_stds: Vec<f64>,
}

/// Encoded field by field, like a derived struct. The decode is written
/// out to refuse, as corrupt, a scaler whose means and inverse standard
/// deviations differ in length: [`FeatureScaler::transform`] zips the
/// two, so it would return a row of the wrong width.
impl Wire for FeatureScaler {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.means.encode(out);
        self.inv_stds.encode(out);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let scaler = Self { means: Vec::decode(input)?, inv_stds: Vec::decode(input)? };
        if scaler.means.len() != scaler.inv_stds.len() {
            return Err(CodecError::Invalid("scaler means and deviations differ in width"));
        }
        Ok(scaler)
    }
}

impl FeatureScaler {
    /// Fit means and standard deviations per column.
    ///
    /// # Panics
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "FeatureScaler::fit: empty");
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for row in rows {
            assert_eq!(row.len(), dim, "FeatureScaler::fit: ragged rows");
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut vars = vec![0.0; dim];
        for row in rows {
            for ((var, &v), &m) in vars.iter_mut().zip(row).zip(&means) {
                *var += (v - m) * (v - m) / n;
            }
        }
        let inv_stds = vars
            .iter()
            .map(|&v| {
                let sd = v.sqrt();
                if sd > 1e-9 {
                    1.0 / sd
                } else {
                    0.0
                }
            })
            .collect();
        Self { means, inv_stds }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Scale one row into a new vector.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.transform_into(row, &mut out);
        out
    }

    /// Scale one row into `out`.
    ///
    /// # Panics
    /// Panics if `row` or `out` is not [`FeatureScaler::dim`] wide.
    pub(crate) fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.dim(), "FeatureScaler::transform: dim mismatch");
        assert_eq!(out.len(), self.dim(), "FeatureScaler::transform: output dim mismatch");
        for (o, (&v, (&m, &inv))) in
            out.iter_mut().zip(row.iter().zip(self.means.iter().zip(&self.inv_stds)))
        {
            *o = (v - m) * inv;
        }
    }

    /// Scale many rows.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

/// The scalar loop [`featurize_job`] replaced: one operator at a time,
/// its ten mean features computed and divided one by one, with the
/// scalar [`log1p`] where it called libm's `ln_1p`. Kept as the oracle
/// the chunked, lane-wise path must match bit for bit.
#[cfg(test)]
mod reference {
    use super::{log1p, one_hot_positions, JobFeatures, JOB_FEATURE_DIM, NUM_SCALAR, OP_FEATURE_DIM};
    use super::{JobPlan, OperatorFeatures, OperatorNode};

    fn scalar_features(node: &OperatorNode) -> [f64; NUM_SCALAR] {
        [
            log1p(node.est_output_cardinality.max(0.0)),
            log1p(node.est_leaf_input_cardinality.max(0.0)),
            log1p(node.est_children_input_cardinality.max(0.0)),
            log1p(node.avg_row_length.max(0.0)),
            log1p(node.est_subtree_cost.max(0.0)),
            log1p(node.est_exclusive_cost.max(0.0)),
            log1p(node.est_total_cost.max(0.0)),
            node.num_partitions as f64,
            node.num_partitioning_columns as f64,
            node.num_sort_columns as f64,
        ]
    }

    pub fn featurize_operators(plan: &JobPlan) -> OperatorFeatures {
        let row = |node: &OperatorNode| {
            let mut row = vec![0.0; OP_FEATURE_DIM];
            row[..NUM_SCALAR].copy_from_slice(&scalar_features(node));
            for position in one_hot_positions(node) {
                row[position] = 1.0;
            }
            row
        };
        let rows = plan.operators.iter().map(row).collect();
        OperatorFeatures { rows, edges: plan.edges.clone() }
    }

    pub fn featurize_job(plan: &JobPlan, num_stages: usize) -> JobFeatures {
        let n = plan.operators.len().max(1) as f64;
        let mut values = vec![0.0; JOB_FEATURE_DIM];
        for node in &plan.operators {
            for (mean, feature) in values.iter_mut().zip(scalar_features(node)) {
                *mean += feature / n;
            }
            for position in one_hot_positions(node) {
                values[position] += 1.0;
            }
        }
        values[OP_FEATURE_DIM] = plan.operators.len() as f64;
        values[OP_FEATURE_DIM + 1] = num_stages as f64;
        JobFeatures { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::operators::{PartitioningMethod, PhysicalOperator as Op};
    use scope_sim::plan::OperatorNode;

    fn sample_plan() -> JobPlan {
        let mut scan = OperatorNode::with_op(Op::TableScan);
        scan.est_output_cardinality = 1e6;
        scan.est_exclusive_cost = 100.0;
        scan.num_partitions = 8;
        let mut filt = OperatorNode::with_op(Op::Filter);
        filt.est_output_cardinality = 1e5;
        filt.num_partitions = 8;
        let mut agg = OperatorNode::with_op(Op::HashAggregate);
        agg.partitioning = PartitioningMethod::Range;
        agg.num_partitions = 2;
        let mut plan = JobPlan::new(vec![scan, filt, agg], vec![(0, 1), (1, 2)]);
        plan.recompute_rollups();
        plan
    }

    #[test]
    fn op_feature_dimensions() {
        let plan = sample_plan();
        let feats = featurize_operators(&plan);
        assert_eq!(feats.rows.len(), 3);
        assert!(feats.rows.iter().all(|r| r.len() == OP_FEATURE_DIM));
        assert_eq!(OP_FEATURE_DIM, 49);
        assert_eq!(feats.edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn one_hot_encodes_operator_and_partitioning() {
        let plan = sample_plan();
        let feats = featurize_operators(&plan);
        let onehot_base = NUM_CONTINUOUS + NUM_DISCRETE;
        // Row 0 is a TableScan with Hash partitioning.
        let row = &feats.rows[0];
        assert_eq!(row[onehot_base + Op::TableScan.one_hot_index()], 1.0);
        let hash_idx = onehot_base + 35 + PartitioningMethod::Hash.one_hot_index();
        assert_eq!(row[hash_idx], 1.0);
        // Exactly two bits set.
        let ones: f64 = row[onehot_base..].iter().sum();
        assert_eq!(ones, 2.0);
    }

    #[test]
    fn job_features_shape_and_counts() {
        let plan = sample_plan();
        let jf = featurize_job(&plan, 2);
        assert_eq!(jf.values.len(), JOB_FEATURE_DIM);
        assert_eq!(JOB_FEATURE_DIM, 51);
        // Operator count and stage count trail the vector.
        assert_eq!(jf.values[OP_FEATURE_DIM], 3.0);
        assert_eq!(jf.values[OP_FEATURE_DIM + 1], 2.0);
        // One-hot frequencies: one TableScan, one Filter, one HashAggregate.
        let base = NUM_CONTINUOUS + NUM_DISCRETE;
        assert_eq!(jf.values[base + Op::TableScan.one_hot_index()], 1.0);
        assert_eq!(jf.values[base + Op::Filter.one_hot_index()], 1.0);
        // Two Hash + one Range partitionings.
        assert_eq!(jf.values[base + 35 + PartitioningMethod::Hash.one_hot_index()], 2.0);
        assert_eq!(jf.values[base + 35 + PartitioningMethod::Range.one_hot_index()], 1.0);
    }

    #[test]
    fn continuous_features_are_log_compressed() {
        let plan = sample_plan();
        let feats = featurize_operators(&plan);
        // ln(1 + 1e6) ~ 13.8, not 1e6.
        assert!((feats.rows[0][0] - (1e6f64).ln_1p()).abs() < 1e-9);
        assert!(feats.rows[0][0] < 20.0);
    }

    #[test]
    fn means_aggregate_continuous() {
        let plan = sample_plan();
        let jf = featurize_job(&plan, 1);
        let ops = featurize_operators(&plan);
        let expected: f64 = ops.rows.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!((jf.values[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn scaler_zero_mean_unit_variance() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let scaler = FeatureScaler::fit(&rows);
        let out = scaler.transform_all(&rows);
        let mean0: f64 = out.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        let var0: f64 = out.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        assert!((var0 - 1.0).abs() < 1e-9);
        // Constant column scales to zero, not NaN.
        assert!(out.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn scaler_rejects_wrong_width() {
        let scaler = FeatureScaler::fit(&[vec![1.0, 2.0]]);
        let _ = scaler.transform(&[1.0]);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Job features as the sum of operator rows: each mean feature
    /// `row / n` added row by row from `0.0`, each one-hot bit counted.
    fn sum_of_rows(rows: &[Vec<f64>], num_stages: f64) -> Vec<f64> {
        let n = rows.len().max(1) as f64;
        let mut values = vec![0.0; JOB_FEATURE_DIM];
        for row in rows {
            for (i, &feature) in row.iter().enumerate() {
                values[i] += if i < NUM_SCALAR { feature / n } else { feature };
            }
        }
        values[OP_FEATURE_DIM] = rows.len() as f64;
        values[OP_FEATURE_DIM + 1] = num_stages;
        values
    }

    /// Generated plans of every archetype, and random plans of 1, 15, 16,
    /// 17, 64 and 1 000 operators (either side of each 16-operator chunk)
    /// whose continuous inputs are hostile one time in three: NaN, `±inf`,
    /// negatives, `±0.0`, subnormals and the largest finite value.
    fn plans() -> Vec<JobPlan> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use scope_sim::operators::ALL_PARTITIONINGS;
        use scope_sim::Archetype;
        let mut rng = StdRng::seed_from_u64(0x6665_6174);
        let mut plans = Vec::new();
        for archetype in Archetype::ALL {
            for _ in 0..4 {
                let size_factor = rng.gen_range(0.05..20.0);
                plans.push(archetype.build_plan(rng.gen(), size_factor, rng.gen_range(1..=2000)));
            }
        }
        let hostile = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -3e9,
            -0.0,
            0.0,
            4e-324,
            1e-310,
            f64::MAX,
        ];
        for len in [1, 15, 16, 17, 64, 1000] {
            let nodes = (0..len)
                .map(|_| {
                    let op = ALL_OPERATORS[rng.gen_range(0..ALL_OPERATORS.len())];
                    let mut node = OperatorNode::with_op(op);
                    node.partitioning =
                        ALL_PARTITIONINGS[rng.gen_range(0..ALL_PARTITIONINGS.len())];
                    for field in [
                        &mut node.est_output_cardinality,
                        &mut node.est_leaf_input_cardinality,
                        &mut node.est_children_input_cardinality,
                        &mut node.avg_row_length,
                        &mut node.est_subtree_cost,
                        &mut node.est_exclusive_cost,
                        &mut node.est_total_cost,
                    ] {
                        *field = if rng.gen_range(0..3) == 0 {
                            hostile[rng.gen_range(0..hostile.len())]
                        } else {
                            10f64.powf(rng.gen_range(-3.0..15.0))
                        };
                    }
                    node.num_partitions = rng.gen_range(0..=4000);
                    node.num_partitioning_columns = rng.gen_range(0..=6);
                    node.num_sort_columns = rng.gen_range(0..=6);
                    node
                })
                .collect();
            let edges = (1..len).map(|i| (i - 1, i)).collect();
            plans.push(JobPlan::new(nodes, edges));
        }
        plans
    }

    #[test]
    fn featurize_matches_the_scalar_reference_bit_for_bit() {
        for (p, plan) in plans().iter().enumerate() {
            let what = format!("plan {p} of {} operators", plan.operators.len());
            let stages = p % 7;
            let (got, want) = (featurize_job(plan, stages), reference::featurize_job(plan, stages));
            assert_eq!(bits(&got.values), bits(&want.values), "{what}: job features");
            let (got, want) = (featurize_operators(plan), reference::featurize_operators(plan));
            assert_eq!(got.edges, want.edges, "{what}");
            for (r, (row, reference_row)) in got.rows.iter().zip(&want.rows).enumerate() {
                assert_eq!(bits(row), bits(reference_row), "{what}: operator row {r}");
            }
            assert_eq!(got.rows.len(), want.rows.len(), "{what}");
        }
    }

    #[test]
    fn job_features_are_the_sum_of_operator_rows() {
        for (p, plan) in plans().iter().enumerate() {
            let rows = featurize_operators(plan).rows;
            assert_eq!(
                bits(&featurize_job(plan, p).values),
                bits(&sum_of_rows(&rows, p as f64)),
                "plan {p} of {} operators",
                plan.operators.len()
            );
        }
    }
}
