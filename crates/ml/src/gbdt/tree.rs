//! A single regression tree grown with histogram-based exact-gain splits.

use super::binning::{BinMapper, BinnedDataset};
use std::ops::Range;
use tasq_codec::Wire;
use tasq_par::Pool;

/// Below this many (sample x feature) histogram accumulations the split
/// search of a node runs sequentially even on a multi-thread pool.
///
/// Derived from the pool's dispatch cost, not tuned. On the 2-vCPU
/// reference box (release, min or median of repeated runs) one fan-out
/// costs ≈ 38 µs with two threads (≈ 75 µs with four), and the one-pass
/// row-major scan does an accumulation in ≈ 1.05 ns (a 2 400 x 51 root
/// in ≈ 130 µs). When the second vCPU is stolen the whole dispatch is
/// loss, so the threshold keeps that loss ≤ 7 %: `38 µs / (0.07 x
/// 1.05 ns) ≈ 517k`, rounded up to `2^19` (≈ 0.55 ms of scan, 14
/// dispatches). The ratio of the two costs barely moved from the
/// per-feature scan (55 µs / 1.5 ns), so neither did the constant. The
/// fanned-out arm returns ≈ 1.06x at `2^19` and 1.2–1.6x at `2^20` on
/// two threads: each task re-reads every row of the node for its own
/// features. The value before `2^19`, 4096, sent 6 µs scans through an
/// 80 µs dispatch at every node of every tree (`par.ratio.gbdt`
/// 0.34–0.50). A paper-sized fit (122k at the root) never fans out.
const PAR_SPLIT_MIN_WORK: usize = 1 << 19;

/// Whether a node of `rows` samples searches its split on `pool`'s
/// threads (one contiguous feature range per thread) or on the caller
/// alone.
pub(super) fn split_search_fans_out(pool: &Pool, rows: usize, num_features: usize) -> bool {
    pool.threads() > 1 && rows * num_features >= PAR_SPLIT_MIN_WORK
}

/// A node in a [`Tree`]. Leaves carry a weight; internal nodes carry a
/// split on `feature <= threshold`.
#[derive(Debug, Clone, Wire)]
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
#[derive(Debug, Clone, Wire)]
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

/// The histograms of a contiguous run of features, laid end to end in
/// one buffer: feature `features.start + k` owns the bins
/// `offsets[k]..offsets[k + 1]`, each a `[gradient sum, hessian sum]`.
struct Histograms {
    features: Range<usize>,
    offsets: Vec<usize>,
    sums: Vec<[f64; 2]>,
}

impl Histograms {
    fn new(mapper: &BinMapper, features: Range<usize>) -> Self {
        let mut offsets = vec![0];
        for f in features.clone() {
            offsets.push(offsets[offsets.len() - 1] + mapper.num_bins(f));
        }
        let sums = vec![[0.0; 2]; offsets[offsets.len() - 1]];
        Self { features, offsets, sums }
    }

    /// Refill every bin from the samples in `indices`, in one pass over
    /// them: each sample's row of bins is read once, and every
    /// (feature, bin) still adds its samples in index order, starting
    /// from `+0.0`.
    fn fill(&mut self, data: &BinnedDataset, grads: &[f64], hess: &[f64], indices: &[usize]) {
        self.sums.fill([0.0; 2]);
        let offsets = &self.offsets[..self.offsets.len() - 1];
        for &i in indices {
            let (g, h) = (grads[i], hess[i]);
            for (&offset, &b) in offsets.iter().zip(&data.row(i)[self.features.clone()]) {
                let sum = &mut self.sums[offset + b as usize];
                sum[0] += g;
                sum[1] += h;
            }
        }
    }

    /// The best split of each feature, in feature order (`None` for a
    /// feature that has none).
    fn best_splits<'a>(
        &'a self,
        total_grad: f64,
        total_hess: f64,
        params: &'a GrowthParams,
    ) -> impl Iterator<Item = Option<SplitCandidate>> + 'a {
        self.offsets.windows(2).zip(self.features.clone()).map(move |(w, f)| {
            best_split_for_feature(f, &self.sums[w[0]..w[1]], total_grad, total_hess, params)
        })
    }
}

/// The gain scan of one feature's histogram: the best "bin <= b" split
/// (the first bin wins ties via the strict-greater comparison).
///
/// A candidate that leaves either child without samples is no split.
/// Every objective's hessian is positive, so a bin holds samples exactly
/// when its hessian sum is `> 0`: the left child is empty while
/// `left_hess` is still `0.0`, and the right one from the last occupied
/// bin on, where `total - left` is rounding noise, not zero.
fn best_split_for_feature(
    f: usize,
    hist: &[[f64; 2]],
    total_grad: f64,
    total_hess: f64,
    params: &GrowthParams,
) -> Option<SplitCandidate> {
    let last_occupied = hist.iter().rposition(|&[_, h]| h > 0.0)?;
    let parent_score = total_grad * total_grad / (total_hess + params.lambda);
    let mut best: Option<SplitCandidate> = None;
    let mut left_grad = 0.0;
    let mut left_hess = 0.0;
    for (b, &[g, h]) in hist[..last_occupied].iter().enumerate() {
        left_grad += g;
        left_hess += h;
        let right_grad = total_grad - left_grad;
        let right_hess = total_hess - left_hess;
        if left_hess <= 0.0
            || left_hess < params.min_child_weight
            || right_hess < params.min_child_weight
        {
            continue;
        }
        let gain = 0.5
            * (left_grad * left_grad / (left_hess + params.lambda)
                + right_grad * right_grad / (right_hess + params.lambda)
                - parent_score);
        if best.as_ref().is_none_or(|s| gain > s.gain) {
            best = Some(SplitCandidate { feature: f, bin_threshold: b as u8, gain });
        }
    }
    best
}

/// The per-feature candidates reduced in the order given: the first of
/// the highest gains wins.
fn best_of(candidates: impl Iterator<Item = Option<SplitCandidate>>) -> Option<SplitCandidate> {
    let mut best: Option<SplitCandidate> = None;
    for cand in candidates.flatten() {
        if best.as_ref().is_none_or(|s| cand.gain > s.gain) {
            best = Some(cand);
        }
    }
    best
}

/// What every node of one tree reads.
struct Grower<'a> {
    data: &'a BinnedDataset,
    mapper: &'a BinMapper,
    grads: &'a [f64],
    hess: &'a [f64],
    params: &'a GrowthParams,
    pool: &'a Pool,
}

/// The buffers every node of one tree reuses.
struct Buffers {
    /// The right side of a partition, while the left is compacted.
    partition: Vec<usize>,
    /// Every feature's histogram, for a node searched on the caller.
    hist: Histograms,
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

    /// [`Tree::grow`] with the histogram/split search of a large node
    /// fanned out over `pool`, one contiguous feature range per task.
    /// Per-feature candidates are reduced in ascending feature order with
    /// the same strict-greater tie-break as the sequential scan, so the
    /// grown tree is bit-identical at any thread count.
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
        let grower = Grower { data, mapper, grads, hess, params, pool };
        let mut tree = Tree { nodes: vec![Node::Leaf { weight: 0.0 }] };
        // One index buffer for the whole tree: each node owns a contiguous
        // slice of it, which a split partitions in place into its
        // children's slices.
        let mut indices: Vec<usize> = samples.to_vec();
        let mut buffers = Buffers {
            partition: Vec::new(),
            hist: Histograms::new(mapper, 0..data.num_features()),
        };
        grower.grow_node(&mut tree, 0, &mut indices, &mut buffers, 0);
        tree
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

impl Grower<'_> {
    fn grow_node(
        &self,
        tree: &mut Tree,
        node_id: usize,
        indices: &mut [usize],
        buffers: &mut Buffers,
        depth: usize,
    ) {
        let total_grad: f64 = indices.iter().map(|&i| self.grads[i]).sum();
        let total_hess: f64 = indices.iter().map(|&i| self.hess[i]).sum();
        tree.nodes[node_id] =
            Node::Leaf { weight: -total_grad / (total_hess + self.params.lambda) };

        if depth >= self.params.max_depth || indices.len() < 2 {
            return;
        }
        let Some(split) = self.find_best_split(indices, total_grad, total_hess, &mut buffers.hist)
        else {
            return;
        };
        if split.gain <= self.params.min_split_gain {
            return;
        }

        let n_left = stable_partition(indices, &mut buffers.partition, |i| {
            self.data.bin(split.feature, i) <= split.bin_threshold
        });
        debug_assert!(n_left > 0 && n_left < indices.len());
        let (left_idx, right_idx) = indices.split_at_mut(n_left);

        let left = tree.nodes.len();
        tree.nodes.push(Node::Leaf { weight: 0.0 });
        let right = tree.nodes.len();
        tree.nodes.push(Node::Leaf { weight: 0.0 });
        tree.nodes[node_id] = Node::Split {
            feature: split.feature,
            threshold: self.mapper.threshold_value(split.feature, split.bin_threshold),
            bin_threshold: split.bin_threshold,
            left,
            right,
        };
        self.grow_node(tree, left, left_idx, buffers, depth + 1);
        self.grow_node(tree, right, right_idx, buffers, depth + 1);
    }

    /// The node's best split over every feature. On the caller, `hist`
    /// takes every feature's histogram in one pass over `indices`; a
    /// fanned-out search gives each task a contiguous feature range and
    /// its own buffer, and the candidates come back in feature order for
    /// the same lowest-feature-wins reduction.
    fn find_best_split(
        &self,
        indices: &[usize],
        total_grad: f64,
        total_hess: f64,
        hist: &mut Histograms,
    ) -> Option<SplitCandidate> {
        let Grower { data, mapper, grads, hess, params, pool } = *self;
        let num_features = data.num_features();
        if !split_search_fans_out(pool, indices.len(), num_features) {
            hist.fill(data, grads, hess, indices);
            return best_of(hist.best_splits(total_grad, total_hess, params));
        }
        let per_task = num_features.div_ceil(pool.threads());
        let ranges: Vec<Range<usize>> = (0..num_features)
            .step_by(per_task)
            .map(|lo| lo..(lo + per_task).min(num_features))
            .collect();
        let per_range = match pool.par_map_grain(&ranges, 1, |_, features| {
            let mut hist = Histograms::new(mapper, features.clone());
            hist.fill(data, grads, hess, indices);
            hist.best_splits(total_grad, total_hess, params).collect::<Vec<_>>()
        }) {
            Ok(v) => v,
            // The scan cannot panic on valid binned data; runtime bug.
            Err(e) => std::panic::resume_unwind(Box::new(e.to_string())),
        };
        best_of(per_range.into_iter().flatten())
    }
}

/// The split search as it stood at 62d94b6, kept as the oracle the
/// row-major search must match bit for bit: for each feature in turn, one
/// pass over the node's indices into a histogram sized for the widest
/// feature, then its gain scan; candidates reduced in feature order; the
/// children split with `Iterator::partition`. One deliberate change: a
/// candidate that leaves a child without samples is rejected, judged
/// here by counting the samples on each side rather than by hessian
/// sums, so the oracle checks that rule as well.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn grow(
        data: &BinnedDataset,
        mapper: &BinMapper,
        grads: &[f64],
        hess: &[f64],
        samples: &[usize],
        params: &GrowthParams,
    ) -> Tree {
        let grower = Grower { data, mapper, grads, hess, params, pool: &Pool::sequential() };
        let mut tree = Tree { nodes: vec![Node::Leaf { weight: 0.0 }] };
        grow_node(&grower, &mut tree, 0, &mut samples.to_vec(), 0);
        tree
    }

    fn grow_node(g: &Grower, tree: &mut Tree, node_id: usize, indices: &mut [usize], depth: usize) {
        let total_grad: f64 = indices.iter().map(|&i| g.grads[i]).sum();
        let total_hess: f64 = indices.iter().map(|&i| g.hess[i]).sum();
        tree.nodes[node_id] = Node::Leaf { weight: -total_grad / (total_hess + g.params.lambda) };
        if depth >= g.params.max_depth || indices.len() < 2 {
            return;
        }
        let Some(split) = find_best_split(g, indices, total_grad, total_hess) else {
            return;
        };
        if split.gain <= g.params.min_split_gain {
            return;
        }
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| g.data.bin(split.feature, i) <= split.bin_threshold);
        let (left_slice, right_slice) = indices.split_at_mut(left_idx.len());
        left_slice.copy_from_slice(&left_idx);
        right_slice.copy_from_slice(&right_idx);

        let left = tree.nodes.len();
        tree.nodes.push(Node::Leaf { weight: 0.0 });
        let right = tree.nodes.len();
        tree.nodes.push(Node::Leaf { weight: 0.0 });
        tree.nodes[node_id] = Node::Split {
            feature: split.feature,
            threshold: g.mapper.threshold_value(split.feature, split.bin_threshold),
            bin_threshold: split.bin_threshold,
            left,
            right,
        };
        grow_node(g, tree, left, left_slice, depth + 1);
        grow_node(g, tree, right, right_slice, depth + 1);
    }

    pub fn find_best_split(
        g: &Grower,
        indices: &[usize],
        total_grad: f64,
        total_hess: f64,
    ) -> Option<SplitCandidate> {
        let num_features = g.data.num_features();
        let max_bins = (0..num_features).map(|f| g.mapper.num_bins(f)).max()?;
        let mut hist = vec![(0.0, 0.0, 0usize); max_bins];
        let mut best: Option<SplitCandidate> = None;
        for f in 0..num_features {
            let cand = best_split_for_feature(g, indices, total_grad, total_hess, f, &mut hist);
            if let Some(cand) = cand {
                if best.as_ref().is_none_or(|s| cand.gain > s.gain) {
                    best = Some(cand);
                }
            }
        }
        best
    }

    fn best_split_for_feature(
        g: &Grower,
        indices: &[usize],
        total_grad: f64,
        total_hess: f64,
        f: usize,
        hist: &mut [(f64, f64, usize)],
    ) -> Option<SplitCandidate> {
        let params = g.params;
        let parent_score = total_grad * total_grad / (total_hess + params.lambda);
        let nbins = g.mapper.num_bins(f);
        if nbins < 2 {
            return None;
        }
        hist[..nbins].iter_mut().for_each(|x| *x = (0.0, 0.0, 0));
        for &i in indices {
            let bin = &mut hist[g.data.bin(f, i) as usize];
            bin.0 += g.grads[i];
            bin.1 += g.hess[i];
            bin.2 += 1;
        }
        let mut best: Option<SplitCandidate> = None;
        let (mut left_grad, mut left_hess, mut left_count) = (0.0, 0.0, 0);
        for (b, &(grad, hess, count)) in hist[..nbins - 1].iter().enumerate() {
            left_grad += grad;
            left_hess += hess;
            left_count += count;
            let right_grad = total_grad - left_grad;
            let right_hess = total_hess - left_hess;
            if left_count == 0 || left_count == indices.len() {
                continue;
            }
            if left_hess < params.min_child_weight || right_hess < params.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (left_grad * left_grad / (left_hess + params.lambda)
                    + right_grad * right_grad / (right_hess + params.lambda)
                    - parent_score);
            if best.as_ref().is_none_or(|s| gain > s.gain) {
                best = Some(SplitCandidate { feature: f, bin_threshold: b as u8, gain });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_ext;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Every node's fields, bit for bit.
    fn node_bits(tree: &Tree) -> Vec<[u64; 5]> {
        let node = |n: &Node| match *n {
            Node::Split { feature, threshold, bin_threshold, left, right } => {
                let bin = bin_threshold.into();
                [feature as u64, threshold.to_bits(), bin, left as u64, right as u64]
            }
            Node::Leaf { weight } => [u64::MAX, weight.to_bits(), 0, 0, 0],
        };
        tree.nodes.iter().map(node).collect()
    }

    /// A random column of 1, 2 or up to 64 distinct values.
    fn column(rng: &mut StdRng, n: usize) -> Vec<f64> {
        match rng.gen_range(0..3) {
            0 => vec![rng.gen_range(-1.0..1.0); n],
            1 => (0..n).map(|_| f64::from(rng.gen_range(0..2u8))).collect(),
            _ => (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect(),
        }
    }

    /// The row-major, one-pass split search grows the same trees as the
    /// per-feature scan it replaced: random shapes with 1-, 2- and
    /// 64-bin features, all rows or a shuffled subsample, unit or varied
    /// hessians, on pools of 1, 2 and 4 threads, with roots on both sides
    /// of the fan-out threshold. Node bits cover the node count, the
    /// split counts and every prediction; predictions are checked too.
    #[test]
    fn row_major_split_search_matches_the_per_feature_reference() {
        let mut rng = StdRng::seed_from_u64(0x7472_6565);
        let pools = [Pool::new(1), Pool::new(2), Pool::new(4)];
        for case in 0..40 {
            let (n, nf) = match case {
                0 => (8300, 64),
                1 => (2600, 202),
                _ => (rng.gen_range(2..400), rng.gen_range(1..12)),
            };
            let fans_out = n * nf >= PAR_SPLIT_MIN_WORK;
            assert_eq!(split_search_fans_out(&pools[1], n, nf), fans_out);
            assert_eq!(fans_out, case < 2, "case {case}: {n}x{nf}");
            let columns: Vec<Vec<f64>> = (0..nf).map(|_| column(&mut rng, n)).collect();
            let rows: Vec<Vec<f64>> =
                (0..n).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
            let mapper = BinMapper::fit(&rows, 64);
            let data = BinnedDataset::new(&mapper, &rows);
            let grads: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let hess: Vec<f64> = match case % 2 {
                0 => vec![1.0; n],
                _ => (0..n).map(|_| rng.gen_range(0.01..2.0)).collect(),
            };
            let samples = match case % 3 {
                0 => (0..n).collect(),
                _ => rand_ext::sample_indices(&mut rng, n, (n * 2).div_ceil(3)),
            };
            let params = GrowthParams {
                max_depth: if case < 2 { 3 } else { rng.gen_range(1..7) },
                lambda: [1.0, 0.1, 0.0][case % 3],
                min_split_gain: [0.0, 0.05][case % 2],
                min_child_weight: [0.0, 1.0, 0.3][(case / 2) % 3],
            };
            let oracle = reference::grow(&data, &mapper, &grads, &hess, &samples, &params);
            let predictions = |t: &Tree| -> Vec<u64> {
                rows.iter().map(|r| t.predict_row(r).to_bits()).collect()
            };
            // A tree only shows a histogram's rounding when it flips a
            // split, so the root's winning gain is compared to the bit too.
            let (total_grad, total_hess) =
                samples.iter().fold((0.0, 0.0), |(g, h), &i| (g + grads[i], h + hess[i]));
            let grower = |pool| Grower {
                data: &data,
                mapper: &mapper,
                grads: &grads,
                hess: &hess,
                params: &params,
                pool,
            };
            let bits = |c: Option<SplitCandidate>| {
                c.map(|c| (c.feature, c.bin_threshold, c.gain.to_bits()))
            };
            let oracle_root = bits(reference::find_best_split(
                &grower(&pools[0]),
                &samples,
                total_grad,
                total_hess,
            ));
            for pool in &pools {
                let tree =
                    Tree::grow_with_pool(&data, &mapper, &grads, &hess, &samples, &params, pool);
                let what = format!("case {case}: {n}x{nf}, {} threads", pool.threads());
                assert_eq!(node_bits(&tree), node_bits(&oracle), "{what}");
                assert_eq!(predictions(&tree), predictions(&oracle), "{what}");
                let mut hist = Histograms::new(&mapper, 0..nf);
                let root =
                    grower(pool).find_best_split(&samples, total_grad, total_hess, &mut hist);
                assert_eq!(bits(root), oracle_root, "{what}");
            }
        }
    }

    /// No split leaves a child without training samples, even with
    /// `min_child_weight` 0, where a candidate at or above a node's last
    /// occupied bin has only rounding noise for a right child and can win
    /// on that noise. Every node must be reached by some sample.
    #[test]
    fn no_split_leaves_a_child_without_samples() {
        let mut rng = StdRng::seed_from_u64(0x656d_7074);
        let p =
            GrowthParams { max_depth: 4, lambda: 1.0, min_split_gain: 0.0, min_child_weight: 0.0 };
        for case in 0..400 {
            let n = rng.gen_range(2..16);
            let rows: Vec<Vec<f64>> =
                (0..n).map(|_| vec![f64::from(rng.gen_range(0..6u8))]).collect();
            let grads: Vec<f64> =
                (0..n).map(|_| [-0.1, -0.2, -0.3, 0.7][rng.gen_range(0..4usize)]).collect();
            let hess = vec![1.0; n];
            let mapper = BinMapper::fit(&rows, 8);
            let data = BinnedDataset::new(&mapper, &rows);
            let samples: Vec<usize> = (0..n).collect();
            let tree = Tree::grow(&data, &mapper, &grads, &hess, &samples, &p);
            let mut visits = vec![0usize; tree.num_nodes()];
            for row in &rows {
                let mut id = 0;
                visits[id] += 1;
                while let Node::Split { feature, threshold, left, right, .. } = tree.nodes[id] {
                    id = if row[feature] <= threshold { left } else { right };
                    visits[id] += 1;
                }
            }
            assert!(!visits.contains(&0), "case {case}: a node without samples: {:?}", tree.nodes);
        }
    }
}
