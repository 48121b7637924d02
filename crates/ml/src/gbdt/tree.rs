//! A single regression tree grown with histogram-based exact-gain splits.

use super::binning::{BinMapper, BinnedDataset};
use serde::{Deserialize, Serialize};
use tasq_par::Pool;

/// Below this many (sample x feature) histogram accumulations the split
/// search of a node runs sequentially even on a multi-thread pool.
///
/// Derived from the pool's dispatch cost, not tuned: one fan-out is a
/// scoped spawn + join, measured at ≈ 55 µs per call with two threads
/// (≈ 85 µs with four) on the 2-vCPU reference box, and the sequential
/// scan does an accumulation in ≈ 1.5 ns. Two threads break even at
/// `2 x 55 µs / 1.5 ns ≈ 73k` accumulations and only with both vCPUs
/// schedulable; when the second is stolen the whole dispatch is loss.
/// At `2^19` (≈ 0.8 ms of scan, 14 dispatches) the fanned-out arm returns
/// ≥ 1.7x on two threads and costs ≤ 7 % when it gets no second thread.
/// The old value, 4096, sent 6 µs scans through an 80 µs dispatch at
/// every node of every tree (`par.ratio.gbdt` 0.34–0.50). A paper-sized
/// fit (2 400 rows x 51 features = 122k at the root) now never fans out.
const PAR_SPLIT_MIN_WORK: usize = 1 << 19;

/// Whether a node of `rows` samples searches its split on `pool`'s
/// threads (one task per feature) or on the caller alone.
pub(super) fn split_search_fans_out(pool: &Pool, rows: usize, num_features: usize) -> bool {
    pool.threads() > 1 && rows * num_features >= PAR_SPLIT_MIN_WORK
}

/// A node in a [`Tree`]. Leaves carry a weight; internal nodes carry a
/// split on `feature <= threshold`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Node {
    /// Internal split node: samples with `value <= threshold` descend left.
    Split {
        /// Feature index.
        feature: usize,
        /// Raw-value threshold (left if `value <= threshold`).
        threshold: f64,
        /// Bin threshold used during training (left if `bin <= bin_threshold`).
        bin_threshold: u8,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child.
        right: usize,
    },
    /// Terminal node with an output weight (pre-shrinkage).
    Leaf {
        /// Leaf output value.
        weight: f64,
    },
}

/// A regression tree stored as a node arena (index 0 is the root).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
}

/// Growth hyper-parameters for a single tree.
#[derive(Debug, Clone, Copy)]
pub struct GrowthParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularization on leaf weights (XGBoost lambda).
    pub lambda: f64,
    /// Minimum loss reduction to split (XGBoost gamma).
    pub min_split_gain: f64,
    /// Minimum hessian sum in each child (XGBoost min_child_weight).
    pub min_child_weight: f64,
}

struct SplitCandidate {
    feature: usize,
    bin_threshold: u8,
    gain: f64,
    left_grad: f64,
    left_hess: f64,
}

/// Reorder `indices` so the ones `goes_left` accepts come first, and
/// return how many there are. The partition is stable: both sides keep
/// their original order, as `Iterator::partition` would, which the
/// ordered `total_grad` / `total_hess` sums of the children depend on.
/// Accepted indices are compacted forward in place (the write position
/// never passes the read position); the rest wait in `scratch`, whose
/// allocation every node of the tree reuses.
fn stable_partition(
    indices: &mut [usize],
    scratch: &mut Vec<usize>,
    goes_left: impl Fn(usize) -> bool,
) -> usize {
    scratch.clear();
    let mut n_left = 0;
    for r in 0..indices.len() {
        let i = indices[r];
        if goes_left(i) {
            indices[n_left] = i;
            n_left += 1;
        } else {
            scratch.push(i);
        }
    }
    indices[n_left..].copy_from_slice(scratch);
    n_left
}

impl Tree {
    /// Grow a tree on the given (possibly subsampled) sample indices.
    ///
    /// `grads`/`hess` are indexed by absolute sample id; `samples` selects
    /// which rows participate.
    pub fn grow(
        data: &BinnedDataset,
        mapper: &BinMapper,
        grads: &[f64],
        hess: &[f64],
        samples: &[usize],
        params: &GrowthParams,
    ) -> Self {
        Self::grow_with_pool(data, mapper, grads, hess, samples, params, &Pool::sequential())
    }

    /// [`Tree::grow`] with the per-feature histogram/split search fanned
    /// out over `pool`. Per-feature candidates are reduced in ascending
    /// feature order with the same strict-greater tie-break as the
    /// sequential scan, so the grown tree is bit-identical at any thread
    /// count.
    #[allow(clippy::too_many_arguments)]
    pub fn grow_with_pool(
        data: &BinnedDataset,
        mapper: &BinMapper,
        grads: &[f64],
        hess: &[f64],
        samples: &[usize],
        params: &GrowthParams,
        pool: &Pool,
    ) -> Self {
        let mut tree = Tree { nodes: Vec::new() };
        // One index buffer for the whole tree: each node owns a contiguous
        // slice of it, which a split partitions in place into its
        // children's slices.
        let mut indices: Vec<usize> = samples.to_vec();
        let mut scratch = Vec::new();
        tree.nodes.push(Node::Leaf { weight: 0.0 });
        tree.grow_node(0, data, mapper, grads, hess, &mut indices, &mut scratch, 0, params, pool);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn grow_node(
        &mut self,
        node_id: usize,
        data: &BinnedDataset,
        mapper: &BinMapper,
        grads: &[f64],
        hess: &[f64],
        indices: &mut [usize],
        scratch: &mut Vec<usize>,
        depth: usize,
        params: &GrowthParams,
        pool: &Pool,
    ) {
        let total_grad: f64 = indices.iter().map(|&i| grads[i]).sum();
        let total_hess: f64 = indices.iter().map(|&i| hess[i]).sum();
        let leaf_weight = -total_grad / (total_hess + params.lambda);

        let make_leaf = |tree: &mut Tree| {
            tree.nodes[node_id] = Node::Leaf { weight: leaf_weight };
        };

        if depth >= params.max_depth || indices.len() < 2 {
            make_leaf(self);
            return;
        }

        let best = Self::find_best_split(
            data, mapper, grads, hess, indices, total_grad, total_hess, params, pool,
        );
        let Some(split) = best else {
            make_leaf(self);
            return;
        };
        if split.gain <= params.min_split_gain {
            make_leaf(self);
            return;
        }

        let n_left = stable_partition(indices, scratch, |i| {
            data.bin(split.feature, i) <= split.bin_threshold
        });
        debug_assert!(n_left > 0 && n_left < indices.len());
        let (left_idx, right_idx) = indices.split_at_mut(n_left);

        let left = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 });
        let right = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 });
        self.nodes[node_id] = Node::Split {
            feature: split.feature,
            threshold: mapper.threshold_value(split.feature, split.bin_threshold),
            bin_threshold: split.bin_threshold,
            left,
            right,
        };
        self.grow_node(left, data, mapper, grads, hess, left_idx, scratch, depth + 1, params, pool);
        self.grow_node(right, data, mapper, grads, hess, right_idx, scratch, depth + 1, params, pool);
    }

    /// Histogram scan of a single feature: fill `hist_grad`/`hist_hess`
    /// and return the best candidate for that feature alone (first bin
    /// wins ties via the strict-greater comparison).
    #[allow(clippy::too_many_arguments)]
    fn best_split_for_feature(
        data: &BinnedDataset,
        mapper: &BinMapper,
        grads: &[f64],
        hess: &[f64],
        indices: &[usize],
        total_grad: f64,
        total_hess: f64,
        params: &GrowthParams,
        f: usize,
        hist_grad: &mut [f64],
        hist_hess: &mut [f64],
    ) -> Option<SplitCandidate> {
        let parent_score = total_grad * total_grad / (total_hess + params.lambda);
        let nbins = mapper.num_bins(f);
        if nbins < 2 {
            return None;
        }
        hist_grad[..nbins].iter_mut().for_each(|x| *x = 0.0);
        hist_hess[..nbins].iter_mut().for_each(|x| *x = 0.0);
        let bins = data.feature_bins(f);
        for &i in indices {
            let b = bins[i] as usize;
            hist_grad[b] += grads[i];
            hist_hess[b] += hess[i];
        }
        let mut best: Option<SplitCandidate> = None;
        let mut left_grad = 0.0;
        let mut left_hess = 0.0;
        // Split candidates: "bin <= b" for b in 0..nbins-1.
        for b in 0..nbins - 1 {
            left_grad += hist_grad[b];
            left_hess += hist_hess[b];
            let right_grad = total_grad - left_grad;
            let right_hess = total_hess - left_hess;
            if left_hess < params.min_child_weight || right_hess < params.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (left_grad * left_grad / (left_hess + params.lambda)
                    + right_grad * right_grad / (right_hess + params.lambda)
                    - parent_score);
            if best.as_ref().is_none_or(|s| gain > s.gain) {
                best = Some(SplitCandidate {
                    feature: f,
                    bin_threshold: b as u8,
                    gain,
                    left_grad,
                    left_hess,
                });
            }
        }
        best
    }

    #[allow(clippy::too_many_arguments)]
    fn find_best_split(
        data: &BinnedDataset,
        mapper: &BinMapper,
        grads: &[f64],
        hess: &[f64],
        indices: &[usize],
        total_grad: f64,
        total_hess: f64,
        params: &GrowthParams,
        pool: &Pool,
    ) -> Option<SplitCandidate> {
        let num_features = data.num_features();
        let max_bins = (0..num_features).map(|f| mapper.num_bins(f)).max()?;

        let mut best: Option<SplitCandidate> = None;
        if split_search_fans_out(pool, indices.len(), num_features) {
            // One task per feature, each with its own histogram buffers;
            // candidates come back in feature order for the deterministic
            // lowest-feature-wins reduction below.
            let features: Vec<usize> = (0..num_features).collect();
            let per_feature = match pool.par_map_grain(&features, 1, |_, &f| {
                let mut hist_grad = vec![0.0f64; max_bins];
                let mut hist_hess = vec![0.0f64; max_bins];
                Self::best_split_for_feature(
                    data, mapper, grads, hess, indices, total_grad, total_hess, params, f,
                    &mut hist_grad, &mut hist_hess,
                )
            }) {
                Ok(v) => v,
                // The scan cannot panic on valid binned data; runtime bug.
                Err(e) => std::panic::resume_unwind(Box::new(e.to_string())),
            };
            for cand in per_feature.into_iter().flatten() {
                if best.as_ref().is_none_or(|s| cand.gain > s.gain) {
                    best = Some(cand);
                }
            }
        } else {
            // Reusable histogram buffers sized for the largest feature.
            let mut hist_grad = vec![0.0f64; max_bins];
            let mut hist_hess = vec![0.0f64; max_bins];
            for f in 0..num_features {
                let cand = Self::best_split_for_feature(
                    data, mapper, grads, hess, indices, total_grad, total_hess, params, f,
                    &mut hist_grad, &mut hist_hess,
                );
                if let Some(cand) = cand {
                    if best.as_ref().is_none_or(|s| cand.gain > s.gain) {
                        best = Some(cand);
                    }
                }
            }
        }
        // Reject splits that would leave a child empty of samples (possible
        // when all mass sits in one side's hessians but min_child_weight is 0).
        if let Some(s) = &best {
            // An empty child accumulates an exact 0.0 gradient sum;
            // approximate comparison would misclassify genuinely tiny but
            // populated children.
            if s.left_hess <= 0.0 && s.left_grad == 0.0 {
                return None;
            }
        }
        best
    }

    /// Number of nodes (internal + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Predict the raw leaf weight for a feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut id = 0usize;
        loop {
            match &self.nodes[id] {
                Node::Leaf { weight } => return *weight,
                Node::Split { feature, threshold, left, right, .. } => {
                    id = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Accumulate `feature -> number of splits` into `counts`.
    pub fn accumulate_split_counts(&self, counts: &mut [usize]) {
        for node in &self.nodes {
            if let Node::Split { feature, .. } = node {
                counts[*feature] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> GrowthParams {
        GrowthParams { max_depth: 4, lambda: 1.0, min_split_gain: 0.0, min_child_weight: 0.0 }
    }

    /// With squared-error style grads (g = pred - y at pred=0, h = 1), a
    /// tree on a step function should recover the step exactly.
    #[test]
    fn learns_step_function() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mapper = BinMapper::fit(&rows, 64);
        let data = BinnedDataset::new(&mapper, &rows);
        let grads: Vec<f64> = targets.iter().map(|y| -y).collect();
        let hess = vec![1.0; 100];
        let samples: Vec<usize> = (0..100).collect();
        let tree = Tree::grow(&data, &mapper, &grads, &hess, &samples, &params());
        // Predictions should separate the two levels (lambda shrinks slightly).
        let low = tree.predict_row(&[10.0]);
        let high = tree.predict_row(&[90.0]);
        assert!((low - 1.0).abs() < 0.2, "low {low}");
        assert!((high - 5.0).abs() < 0.2, "high {high}");
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let mapper = BinMapper::fit(&rows, 8);
        let data = BinnedDataset::new(&mapper, &rows);
        let grads = vec![-2.0; 10];
        let hess = vec![1.0; 10];
        let samples: Vec<usize> = (0..10).collect();
        let p = GrowthParams { max_depth: 0, ..params() };
        let tree = Tree::grow(&data, &mapper, &grads, &hess, &samples, &p);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.num_leaves(), 1);
        // Optimal leaf: -G/(H+lambda) = 20/(10+1)
        assert!((tree.predict_row(&[0.0]) - 20.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn min_split_gain_prunes() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        // Nearly constant target: any split gain is tiny.
        let grads: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { -1.0 } else { -1.001 }).collect();
        let hess = vec![1.0; 100];
        let mapper = BinMapper::fit(&rows, 64);
        let data = BinnedDataset::new(&mapper, &rows);
        let samples: Vec<usize> = (0..100).collect();
        let p = GrowthParams { min_split_gain: 10.0, ..params() };
        let tree = Tree::grow(&data, &mapper, &grads, &hess, &samples, &p);
        assert_eq!(tree.num_leaves(), 1, "large min gain should produce a stump");
    }

    #[test]
    fn min_child_weight_blocks_unbalanced_splits() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let grads = vec![-1.0; 10];
        let hess = vec![0.1; 10];
        let mapper = BinMapper::fit(&rows, 16);
        let data = BinnedDataset::new(&mapper, &rows);
        let samples: Vec<usize> = (0..10).collect();
        // Total hess = 1.0; requiring 0.6 per child is unsatisfiable.
        let p = GrowthParams { min_child_weight: 0.6, ..params() };
        let tree = Tree::grow(&data, &mapper, &grads, &hess, &samples, &p);
        assert_eq!(tree.num_leaves(), 1);
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..256).map(|i| (i % 7) as f64).collect();
        let grads: Vec<f64> = targets.iter().map(|y| -y).collect();
        let hess = vec![1.0; 256];
        let mapper = BinMapper::fit(&rows, 256);
        let data = BinnedDataset::new(&mapper, &rows);
        let samples: Vec<usize> = (0..256).collect();
        let p = GrowthParams { max_depth: 3, ..params() };
        let tree = Tree::grow(&data, &mapper, &grads, &hess, &samples, &p);
        assert!(tree.num_leaves() <= 8, "2^3 leaves max, got {}", tree.num_leaves());
    }

    #[test]
    fn split_counts_accumulate() {
        let rows: Vec<Vec<f64>> =
            (0..100).map(|i| vec![i as f64, 0.0]).collect(); // feature 1 constant
        let targets: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let grads: Vec<f64> = targets.iter().map(|y| -y).collect();
        let hess = vec![1.0; 100];
        let mapper = BinMapper::fit(&rows, 32);
        let data = BinnedDataset::new(&mapper, &rows);
        let samples: Vec<usize> = (0..100).collect();
        let tree = Tree::grow(&data, &mapper, &grads, &hess, &samples, &params());
        let mut counts = vec![0usize; 2];
        tree.accumulate_split_counts(&mut counts);
        assert!(counts[0] >= 1, "informative feature must be used");
        assert_eq!(counts[1], 0, "constant feature must never split");
    }

    #[test]
    fn stable_partition_matches_iterator_partition() {
        let mut scratch = vec![99; 3];
        for n in [0, 1, 2, 7, 64] {
            let base: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % 101).collect();
            for m in 1..5 {
                let goes_left = |i: usize| i.is_multiple_of(m);
                let (left, right): (Vec<usize>, Vec<usize>) =
                    base.iter().partition(|&&i| goes_left(i));
                let mut idx = base.clone();
                let n_left = stable_partition(&mut idx, &mut scratch, goes_left);
                assert_eq!(n_left, left.len());
                assert_eq!(idx[..n_left], left[..]);
                assert_eq!(idx[n_left..], right[..]);
            }
        }
    }
}
