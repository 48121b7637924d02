//! The full GNN: stacked GCN layers, attention pooling, and an MLP head.

use super::attention::{AttentionCache, AttentionPool};
use super::gcn::{GcnCache, GcnLayer};
use super::graph::GraphData;
use crate::matrix::Matrix;
use crate::nn::{Activation, Mlp, MlpCache, MlpGrads};
use crate::optim::{Adam, AdamConfig, ParamId};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use tasq_codec::Wire;
use tasq_obs::sync::{Mutex, Rank};
use tasq_par::Pool;

/// GNN architecture: `GCN+ -> attention pool -> MLP head`.
#[derive(Debug, Clone, Wire)]
pub struct GnnModel {
    gcn_layers: Vec<GcnLayer>,
    pool: AttentionPool,
    head: Mlp,
}

/// Reusable per-graph training buffers: the forward caches of every
/// stage, the backward scratch, and the graph's gradients. Everything
/// takes its shape from the graph at hand and keeps its allocation for
/// the next one, so [`GnnModel::train_batch`] allocates nothing per
/// graph; reuse never changes a result.
#[derive(Debug, Clone, Default)]
struct GnnWorkspace {
    gcn: Vec<GcnCache>,
    pool: AttentionCache,
    head: MlpCache,
    /// Gradient w.r.t. the graph embedding (the head's input gradient).
    d_embedding: Matrix,
    /// Gradient w.r.t. node embeddings, walked back through the GCN stack.
    d_h: Matrix,
    scratch: Matrix,
    grads: GnnGrads,
}

/// `W^T` of every weight the backward pass multiplies by (see
/// [`Matrix::matmul_t`]). Taken once per optimizer step and shared,
/// read-only, by every graph of the step.
#[derive(Debug, Clone, Default)]
struct GnnTransposed {
    gcn: Vec<Matrix>,
    pool: Matrix,
    head: Vec<Matrix>,
}

/// Gradients for every parameter tensor in the model.
#[derive(Debug, Clone, Default)]
struct GnnGrads {
    /// `(dW, db)` per GCN layer.
    gcn: Vec<(Matrix, Matrix)>,
    /// Gradient of the attention context weight.
    pool: Matrix,
    /// `(dW, db)` per head layer.
    head: MlpGrads,
}

impl GnnGrads {
    /// Zero-initialized gradients matching a model's shapes.
    fn zeros_like(model: &GnnModel) -> Self {
        let zeros = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
        let pairs = |w: &Matrix, b: &Matrix| (zeros(w), zeros(b));
        Self {
            gcn: model.gcn_layers.iter().map(|l| pairs(&l.weight, &l.bias)).collect(),
            pool: zeros(&model.pool.context_weight),
            head: model.head.layers().iter().map(|l| pairs(&l.weight, &l.bias)).collect(),
        }
    }

    fn tensors(&self) -> impl Iterator<Item = &Matrix> {
        let gcn = self.gcn.iter().flat_map(|(w, b)| [w, b]);
        gcn.chain([&self.pool]).chain(self.head.iter().flat_map(|(w, b)| [w, b]))
    }

    fn tensors_mut(&mut self) -> impl Iterator<Item = &mut Matrix> {
        let Self { gcn, pool, head } = self;
        let gcn = gcn.iter_mut().flat_map(|(w, b)| [w, b]);
        gcn.chain([pool]).chain(head.iter_mut().flat_map(|(w, b)| [w, b]))
    }

    /// Accumulate another gradient set (for mini-batch averaging).
    fn accumulate(&mut self, other: &GnnGrads) {
        for (mine, theirs) in self.tensors_mut().zip(other.tensors()) {
            mine.axpy(1.0, theirs);
        }
    }

    /// Scale all gradients (e.g. by `1/batch_size`).
    fn scale(&mut self, alpha: f64) {
        self.tensors_mut().for_each(|t| t.scale_inplace(alpha));
    }

    /// Zero every gradient, keeping shapes and allocations.
    fn fill_zero(&mut self) {
        self.tensors_mut().for_each(Matrix::fill_zero);
    }
}

/// One in-flight graph of a minibatch: its workspace, the upstream
/// gradient its loss produced, and the loss itself.
#[derive(Debug, Clone, Default)]
struct Slot {
    workspace: GnnWorkspace,
    d_output: Matrix,
    loss: f64,
}

impl Slot {
    /// Add this graph's loss and gradients to a minibatch's running sums.
    fn add_to(&self, grads: &mut GnnGrads, loss_sum: &mut f64) {
        *loss_sum += self.loss;
        grads.accumulate(&self.workspace.grads);
    }
}

/// Everything a training run of a [`GnnModel`] keeps between steps: the
/// Adam state with the registered parameter ids, and the buffers
/// [`GnnModel::train_batch`] reuses.
#[derive(Debug, Clone)]
pub struct GnnOptimizer {
    adam: Adam,
    gcn_ids: Vec<(ParamId, ParamId)>,
    pool_id: ParamId,
    head_ids: Vec<(ParamId, ParamId)>,
    transposed: GnnTransposed,
    /// The front role's slot, reused for every graph it claims.
    front: Slot,
    /// One slot per batch position, for the graphs the back roles claim.
    slots: Vec<Slot>,
    batch_grads: GnnGrads,
}

impl GnnModel {
    /// Build a GNN.
    ///
    /// * `feature_dim` — per-node input features.
    /// * `gcn_dims` — output dims of each GCN layer (at least one).
    /// * `head_hidden` — hidden sizes of the MLP head.
    /// * `out_dim` — final output size (2 for the PCC parameters).
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        feature_dim: usize,
        gcn_dims: &[usize],
        head_hidden: &[usize],
        out_dim: usize,
    ) -> Self {
        assert!(!gcn_dims.is_empty(), "GnnModel::new: need at least one GCN layer");
        let mut gcn_layers = Vec::with_capacity(gcn_dims.len());
        let mut in_dim = feature_dim;
        for &dim in gcn_dims {
            gcn_layers.push(GcnLayer::new(rng, in_dim, dim, Activation::Relu));
            in_dim = dim;
        }
        let pool = AttentionPool::new(rng, in_dim);
        let mut head_sizes = vec![in_dim];
        head_sizes.extend_from_slice(head_hidden);
        head_sizes.push(out_dim);
        let head = Mlp::new(rng, &head_sizes, Activation::Relu, Activation::Identity);
        Self { gcn_layers, pool, head }
    }

    /// Total trainable parameters (paper Table 7 reports 19,210 for their
    /// configuration).
    pub fn param_count(&self) -> usize {
        self.gcn_layers.iter().map(GcnLayer::param_count).sum::<usize>()
            + self.pool.param_count()
            + self.head.param_count()
    }

    /// Output dimensionality of the head.
    pub fn out_dim(&self) -> usize {
        self.head.out_dim()
    }

    /// Layer-by-layer summary: `(stage, layer description, parameters)` —
    /// the paper's Figure 10 stages (node-level embedding via GCN, graph
    /// embedding via attention, curve prediction via the FC head).
    pub fn layer_summary(&self) -> Vec<(String, String, usize)> {
        let mut rows = Vec::new();
        for (i, layer) in self.gcn_layers.iter().enumerate() {
            rows.push((
                "node embedding".to_string(),
                format!(
                    "GCN {} ({} -> {}, {:?})",
                    i + 1,
                    layer.weight.rows(),
                    layer.weight.cols(),
                    layer.activation
                ),
                layer.param_count(),
            ));
        }
        rows.push((
            "graph embedding".to_string(),
            format!("attention pool (context {}x{})", self.pool.dim(), self.pool.dim()),
            self.pool.param_count(),
        ));
        for (i, layer) in self.head.layers().iter().enumerate() {
            rows.push((
                "curve prediction".to_string(),
                format!("FC {} ({} -> {})", i + 1, layer.in_dim(), layer.out_dim()),
                layer.param_count(),
            ));
        }
        rows
    }

    /// Forward pass for one graph; returns a `1 x out_dim` row.
    pub fn forward(&self, graph: &GraphData) -> Matrix {
        let mut h = graph.features.clone();
        for layer in &self.gcn_layers {
            h = layer.forward(&graph.norm_adjacency, &h);
        }
        let embedding = self.pool.forward(&h);
        let mut out = Matrix::zeros(1, self.head.out_dim());
        self.head.forward_row(embedding.as_slice(), out.as_mut_slice());
        out
    }

    /// Per-node attention weights for one graph (the pooling layer's
    /// node-importance scores, in `[0, 1]`). Exposes the interpretability
    /// the paper attributes to the attention mechanism: which operators
    /// the model focuses on when predicting.
    pub fn attention_weights(&self, graph: &GraphData) -> Vec<f64> {
        let mut h = graph.features.clone();
        for layer in &self.gcn_layers {
            h = layer.forward(&graph.norm_adjacency, &h);
        }
        let mut cache = AttentionCache::default();
        self.pool.forward_cached(&h, &mut cache);
        AttentionPool::weights_of(&cache).to_vec()
    }

    /// Forward pass for one graph keeping in `workspace` what
    /// [`GnnModel::backward`] needs; returns the `1 x out_dim` output.
    fn forward_cached<'w>(
        &self,
        graph: &GraphData,
        workspace: &'w mut GnnWorkspace,
    ) -> &'w Matrix {
        let GnnWorkspace { gcn, pool, head, .. } = workspace;
        gcn.resize_with(self.gcn_layers.len(), GcnCache::default);
        let mut h = &graph.features;
        for (layer, cache) in self.gcn_layers.iter().zip(gcn.iter_mut()) {
            h = layer.forward_cached(&graph.norm_adjacency, h, cache);
        }
        let embedding = self.pool.forward_cached(h, pool);
        self.head.forward_cached(embedding, head)
    }

    /// `W^T` of every layer into `out`; refresh after every optimizer
    /// step, before the next [`GnnModel::backward`].
    fn transpose_weights_into(&self, out: &mut GnnTransposed) {
        out.gcn.resize_with(self.gcn_layers.len(), Matrix::default);
        for (t, layer) in out.gcn.iter_mut().zip(&self.gcn_layers) {
            layer.weight.transpose_into(t);
        }
        self.pool.context_weight.transpose_into(&mut out.pool);
        self.head.transpose_weights_into(&mut out.head);
    }

    /// Backward pass for the graph last run through
    /// [`GnnModel::forward_cached`] on `workspace`, given
    /// `d_output: 1 x out_dim`; the gradients land in `workspace.grads`.
    /// The first GCN layer's input gradient — the gradient w.r.t. the
    /// graph's features — is not computed.
    fn backward(
        &self,
        graph: &GraphData,
        transposed: &GnnTransposed,
        workspace: &mut GnnWorkspace,
        d_output: &Matrix,
    ) {
        let GnnWorkspace { gcn, pool, head, d_embedding, d_h, scratch, grads } = workspace;
        self.head.backward(head, &transposed.head, d_output, &mut grads.head, Some(d_embedding));
        let last = self.gcn_layers.len() - 1;
        let embeddings = gcn[last].output();
        self.pool.backward(embeddings, pool, &transposed.pool, d_embedding, &mut grads.pool, d_h);
        grads.gcn.resize_with(self.gcn_layers.len(), Default::default);
        let adj = &graph.norm_adjacency;
        for (i, layer) in self.gcn_layers.iter().enumerate().rev() {
            let weight_t = (i > 0).then(|| &transposed.gcn[i]);
            layer.backward(adj, &gcn[i], weight_t, d_h, scratch, &mut grads.gcn[i]);
        }
    }

    /// Create an Adam optimizer registered against this model's parameters.
    pub fn make_optimizer(&self, config: AdamConfig) -> GnnOptimizer {
        let mut adam = Adam::new(config);
        let gcn_ids = self
            .gcn_layers
            .iter()
            .map(|l| {
                let w = adam.register(l.weight.rows(), l.weight.cols());
                let b = adam.register(1, l.bias.cols());
                (w, b)
            })
            .collect();
        let pool_id = adam.register(self.pool.dim(), self.pool.dim());
        let head_ids = self.head.register_params(&mut adam);
        GnnOptimizer {
            adam,
            gcn_ids,
            pool_id,
            head_ids,
            transposed: GnnTransposed::default(),
            front: Slot::default(),
            slots: Vec::new(),
            batch_grads: GnnGrads::zeros_like(self),
        }
    }

    /// One minibatch step: forward, loss and backward for every graph of
    /// `batch` (indices into `graphs`), then one Adam update with the mean
    /// gradient.
    ///
    /// `loss(i, output, d_output)` evaluates graph `i`: it reads the
    /// model's output row, writes dLoss/dOutput, and returns the loss,
    /// which is added to `loss_sum`.
    ///
    /// The graphs are independent given the weights, so they fan out over
    /// `min(pool.threads(), batch.len())` roles sharing one cursor over
    /// the batch positions. Role 0, the front, claims positions from the
    /// start and adds each graph's loss and gradients into the sums as
    /// soon as it has them, while they are still in its cache. Every other
    /// role claims from the end and leaves its results in that position's
    /// slot. Whichever role finishes last adds those slots, in order,
    /// after the front's share. Every sum therefore runs in batch order,
    /// as on one thread, and the update and `loss_sum` are bit-identical
    /// at every thread count. No role ever waits for another, and a task
    /// panic (the loss callback's, say) resumes on the caller.
    pub fn train_batch<L>(
        &mut self,
        opt: &mut GnnOptimizer,
        graphs: &[GraphData],
        batch: &[usize],
        pool: &Pool,
        loss: L,
        loss_sum: &mut f64,
    ) where
        L: Fn(usize, &[f64], &mut [f64]) -> f64 + Sync,
    {
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let GnnOptimizer { transposed, front, slots, batch_grads, .. } = opt;
        self.transpose_weights_into(transposed);
        batch_grads.fill_zero();
        if slots.len() < n {
            slots.resize_with(n, Slot::default);
        }
        let fanned = {
            let (model, transposed) = (&*self, &*transposed);
            let run = |slot: &mut Slot, at: usize| {
                let graph = &graphs[batch[at]];
                let output = model.forward_cached(graph, &mut slot.workspace);
                slot.d_output.reset_zeros(1, output.cols());
                slot.loss = loss(batch[at], output.as_slice(), slot.d_output.as_mut_slice());
                model.backward(graph, transposed, &mut slot.workspace, &slot.d_output);
            };
            // The positions nobody has claimed yet.
            let unclaimed = Mutex::new(Rank::GnnUnclaimed, 0..n);
            let claim_front = || unclaimed.lock().next();
            let claim_back = || unclaimed.lock().next_back();
            let front = Mutex::new(Rank::GnnFront, (front, &mut *batch_grads, loss_sum));
            let slots: Vec<Mutex<&mut Slot>> =
                slots[..n].iter_mut().map(|slot| Mutex::new(Rank::GnnSlot, slot)).collect();
            let roles = pool.threads().min(n);
            let finished = AtomicUsize::new(0);
            pool.par_map_grain(&vec![(); roles], 1, |role, ()| {
                if role == 0 {
                    let (slot, grads, loss_sum) = &mut *front.lock();
                    while let Some(at) = claim_front() {
                        run(slot, at);
                        slot.add_to(grads, loss_sum);
                    }
                } else {
                    while let Some(at) = claim_back() {
                        run(&mut slots[at].lock(), at);
                    }
                }
                // A role that panicked never counts itself, so then nobody
                // adds the back's slots and the error surfaces below.
                if finished.fetch_add(1, Ordering::AcqRel) + 1 == roles {
                    // Every position is claimed: the cursors met here.
                    let met = unclaimed.lock().start;
                    let (_, grads, loss_sum) = &mut *front.lock();
                    for slot in &slots[met..] {
                        slot.lock().add_to(grads, loss_sum);
                    }
                }
            })
        };
        if let Err(e) = fanned {
            std::panic::resume_unwind(Box::new(e.to_string()));
        }
        batch_grads.scale(1.0 / n as f64);
        self.apply_grads(opt);
    }

    /// Apply one optimizer step with `opt.batch_grads`.
    fn apply_grads(&mut self, opt: &mut GnnOptimizer) {
        let grads = &opt.batch_grads;
        let mut pairs: Vec<(ParamId, &mut Matrix, &Matrix)> = Vec::new();
        for (layer, (&(wid, bid), (gw, gb))) in
            self.gcn_layers.iter_mut().zip(opt.gcn_ids.iter().zip(&grads.gcn))
        {
            pairs.push((wid, &mut layer.weight, gw));
            pairs.push((bid, &mut layer.bias, gb));
        }
        pairs.push((opt.pool_id, &mut self.pool.context_weight, &grads.pool));
        for (layer, (&(wid, bid), (gw, gb))) in
            self.head.layers_mut().iter_mut().zip(opt.head_ids.iter().zip(&grads.head))
        {
            pairs.push((wid, &mut layer.weight, gw));
            pairs.push((bid, &mut layer.bias, gb));
        }
        opt.adam.step(&mut pairs);
    }
}

/// The allocating per-graph recipe as it stood at b3c2ea3 —
/// `forward_cached` → `backward` → `accumulate`, graph after graph on one
/// thread, every cache, temporary and gradient a fresh matrix — kept as
/// the oracle [`GnnModel::train_batch`] must match bit for bit. Built on
/// the layers' own `reference` modules.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::gnn::{attention, gcn};
    use crate::nn::mlp;

    pub struct Cache {
        gcn: Vec<gcn::reference::Cache>,
        pool: attention::reference::Cache,
        head: mlp::reference::Cache,
    }

    pub fn forward_cached(model: &GnnModel, graph: &GraphData) -> (Matrix, Cache) {
        let mut h = graph.features.clone();
        let mut gcn_caches = Vec::new();
        for layer in &model.gcn_layers {
            let (out, cache) = gcn::reference::forward_cached(layer, &graph.norm_adjacency, &h);
            gcn_caches.push(cache);
            h = out;
        }
        let (embedding, pool) = attention::reference::forward_cached(&model.pool, &h);
        let (out, head) = mlp::reference::forward_cached(&model.head, &embedding);
        (out, Cache { gcn: gcn_caches, pool, head })
    }

    pub fn backward(
        model: &GnnModel,
        graph: &GraphData,
        cache: &Cache,
        d_output: &Matrix,
    ) -> GnnGrads {
        let head = mlp::reference::backward(&model.head, &cache.head, d_output);
        let (d_wc, mut d_h) = attention::reference::backward(&model.pool, &cache.pool, &head.input);
        let mut gcn_grads = Vec::new();
        for (i, layer) in model.gcn_layers.iter().enumerate().rev() {
            let (dw, db, dh_prev) =
                gcn::reference::backward(layer, &graph.norm_adjacency, &cache.gcn[i], &d_h);
            gcn_grads.push((dw, db));
            d_h = dh_prev;
        }
        gcn_grads.reverse();
        GnnGrads { gcn: gcn_grads, pool: d_wc, head: head.layers }
    }

    /// The parent's minibatch step, fresh `batch_grads` included.
    pub fn train_batch(
        model: &mut GnnModel,
        opt: &mut GnnOptimizer,
        graphs: &[GraphData],
        batch: &[usize],
        loss: impl Fn(usize, &[f64], &mut [f64]) -> f64,
        loss_sum: &mut f64,
    ) {
        let mut batch_grads = GnnGrads::zeros_like(model);
        for &i in batch {
            let (out, cache) = forward_cached(model, &graphs[i]);
            let mut d = Matrix::zeros(1, out.cols());
            *loss_sum += loss(i, out.as_slice(), d.as_mut_slice());
            batch_grads.accumulate(&backward(model, &graphs[i], &cache, &d));
        }
        batch_grads.scale(1.0 / batch.len() as f64);
        opt.batch_grads = batch_grads;
        model.apply_grads(opt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph(rng: &mut StdRng, n: usize, dim: usize) -> GraphData {
        let features = Matrix::from_fn(n, dim, |_, _| rng.gen_range(-1.0..1.0));
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        GraphData::new(features, &edges)
    }

    /// Every parameter of the model, as bits, in a fixed order: what a
    /// serialized artifact holds.
    fn param_bits(model: &GnnModel) -> Vec<u64> {
        let gcn = model.gcn_layers.iter().flat_map(|l| [&l.weight, &l.bias]);
        let head = model.head.layers().iter().flat_map(|l| [&l.weight, &l.bias]);
        gcn.chain([&model.pool.context_weight])
            .chain(head)
            .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
            .collect()
    }

    /// Workspace training — at 1, 2, 3 and 8 threads — equals the
    /// allocating sequential reference bit for bit: the running loss after
    /// every batch and every parameter at the end, over graphs of 1 to 40
    /// nodes, a ragged last batch and a batch of one graph.
    #[test]
    fn train_batch_is_bit_identical_to_the_allocating_reference_at_any_thread_count() {
        for seed in [11u64, 12, 13] {
            let mut rng = StdRng::seed_from_u64(seed);
            let initial = GnnModel::new(&mut rng, 7, &[16, 16, 16], &[12], 2);
            let graphs: Vec<GraphData> = (0..37)
                .map(|i| {
                    let n = [1, 3, 5, 8, 13, 40][i % 6];
                    toy_graph(&mut rng, n, 7)
                })
                .collect();
            let targets: Vec<[f64; 2]> = graphs
                .iter()
                .map(|g| [g.features.sum(), g.num_nodes() as f64 * 0.1])
                .collect();
            let loss = |i: usize, out: &[f64], d: &mut [f64]| -> f64 {
                let mut total = 0.0;
                for ((o, t), g) in out.iter().zip(targets[i]).zip(d.iter_mut()) {
                    *g = 2.0 * (o - t);
                    total += (o - t) * (o - t);
                }
                total
            };
            let mut order: Vec<usize> = (0..graphs.len()).collect();
            let mut batches: Vec<Vec<usize>> = Vec::new();
            for _ in 0..3 {
                crate::rand_ext::shuffle(&mut rng, &mut order);
                batches.extend(order.chunks(16).map(<[usize]>::to_vec));
            }
            // One role takes a one-graph batch at any thread count.
            batches.push(vec![order[0]]);

            // Replays the batches through one step function; the running
            // loss after every batch and the final parameters, as bits.
            type Step<'a> = &'a mut dyn FnMut(&mut GnnModel, &mut GnnOptimizer, &[usize], &mut f64);
            let run = |step: Step<'_>| {
                let mut model = initial.clone();
                let mut opt = model
                    .make_optimizer(AdamConfig { learning_rate: 0.01, ..Default::default() });
                let (mut loss_sum, mut losses) = (0.0, Vec::new());
                for batch in &batches {
                    step(&mut model, &mut opt, batch, &mut loss_sum);
                    losses.push(loss_sum.to_bits());
                }
                (losses, param_bits(&model))
            };
            let expected =
                run(&mut |m, o, b, sum| reference::train_batch(m, o, &graphs, b, loss, sum));
            assert_ne!(expected.1, param_bits(&initial), "training moved the weights");
            for threads in [1, 2, 3, 8] {
                let pool = Pool::new(threads);
                let got = run(&mut |m, o, b, sum| m.train_batch(o, &graphs, b, &pool, loss, sum));
                assert_eq!(got, expected, "seed {seed}, {threads} threads");
            }
        }
    }

    /// A loss callback that panics on the first graph of a batch, or on
    /// its last, surfaces as a panic on the caller at every thread count.
    /// No role ever waits for another, so a panicking role cannot hang the
    /// fan-out: this test finishing is the proof.
    #[test]
    fn a_panicking_loss_resumes_on_the_caller_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let initial = GnnModel::new(&mut rng, 4, &[8], &[6], 2);
        let graphs: Vec<GraphData> = (0..16).map(|i| toy_graph(&mut rng, 2 + i % 5, 4)).collect();
        // Reversed, so the first graph of the batch is graph 15.
        let batch: Vec<usize> = (0..graphs.len()).rev().collect();
        for threads in [1, 2, 3, 8] {
            for bad in [batch[0], batch[batch.len() - 1]] {
                let (pool, mut model) = (Pool::new(threads), initial.clone());
                let mut opt = model.make_optimizer(AdamConfig::default());
                let loss = |i: usize, out: &[f64], d: &mut [f64]| -> f64 {
                    assert!(i != bad, "loss failed on graph {i}");
                    d.copy_from_slice(out);
                    0.0
                };
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    model.train_batch(&mut opt, &graphs, &batch, &pool, loss, &mut 0.0);
                }));
                let payload = caught.expect_err("the loss panic must reach the caller");
                let message = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    message.contains(&format!("loss failed on graph {bad}")),
                    "{threads} threads, graph {bad}: {message}"
                );
            }
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = GnnModel::new(&mut rng, 6, &[8, 8], &[16], 2);
        let g = toy_graph(&mut rng, 5, 6);
        let out = model.forward(&g);
        assert_eq!(out.shape(), (1, 2));
    }

    #[test]
    fn param_count_arithmetic() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = GnnModel::new(&mut rng, 4, &[8], &[6], 2);
        // GCN: 4*8+8 = 40; pool: 8*8 = 64; head: 8*6+6 + 6*2+2 = 68.
        assert_eq!(model.param_count(), 40 + 64 + 68);
    }

    /// Gradient check through the entire network.
    #[test]
    fn full_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = GnnModel::new(&mut rng, 3, &[4], &[5], 2);
        let g = toy_graph(&mut rng, 4, 3);

        let loss = |model: &GnnModel| -> f64 {
            model.forward(&g).as_slice().iter().map(|v| v * v).sum()
        };
        let (mut workspace, mut transposed) = (GnnWorkspace::default(), GnnTransposed::default());
        let d_output = model.forward_cached(&g, &mut workspace).scale(2.0);
        model.transpose_weights_into(&mut transposed);
        model.backward(&g, &transposed, &mut workspace, &d_output);
        let grads = &workspace.grads;

        let h = 1e-6;
        // GCN layer 0 weight.
        for i in 0..model.gcn_layers[0].weight.len() {
            let orig = model.gcn_layers[0].weight.as_slice()[i];
            model.gcn_layers[0].weight.as_mut_slice()[i] = orig + h;
            let up = loss(&model);
            model.gcn_layers[0].weight.as_mut_slice()[i] = orig - h;
            let down = loss(&model);
            model.gcn_layers[0].weight.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!(
                (numeric - grads.gcn[0].0.as_slice()[i]).abs() < 1e-4,
                "gcn dW[{i}]: {numeric} vs {}",
                grads.gcn[0].0.as_slice()[i]
            );
        }
        // Pool weight.
        for i in 0..model.pool.context_weight.len() {
            let orig = model.pool.context_weight.as_slice()[i];
            model.pool.context_weight.as_mut_slice()[i] = orig + h;
            let up = loss(&model);
            model.pool.context_weight.as_mut_slice()[i] = orig - h;
            let down = loss(&model);
            model.pool.context_weight.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!(
                (numeric - grads.pool.as_slice()[i]).abs() < 1e-4,
                "pool dWc[{i}]"
            );
        }
    }

    /// Train on a toy regression: output should fit the target for a fixed
    /// set of small graphs.
    #[test]
    fn learns_graph_regression() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = GnnModel::new(&mut rng, 3, &[8], &[8], 1);
        // Target: sum of all node features (a graph-level statistic).
        let graphs: Vec<GraphData> =
            (0..20).map(|i| toy_graph(&mut rng, 3 + i % 4, 3)).collect();
        let targets: Vec<f64> = graphs.iter().map(|g| g.features.sum()).collect();

        let mut opt = model.make_optimizer(AdamConfig { learning_rate: 0.01, ..Default::default() });
        let total_loss = |model: &GnnModel| -> f64 {
            graphs
                .iter()
                .zip(&targets)
                .map(|(g, &t)| {
                    let e = model.forward(g)[(0, 0)] - t;
                    e * e
                })
                .sum::<f64>()
                / graphs.len() as f64
        };
        let initial = total_loss(&model);
        let everything: Vec<usize> = (0..graphs.len()).collect();
        let squared_error = |i: usize, out: &[f64], d: &mut [f64]| {
            d[0] = 2.0 * (out[0] - targets[i]);
            (out[0] - targets[i]).powi(2)
        };
        for _ in 0..300 {
            let pool = Pool::sequential();
            model.train_batch(&mut opt, &graphs, &everything, &pool, squared_error, &mut 0.0);
        }
        let final_loss = total_loss(&model);
        assert!(
            final_loss < initial * 0.05,
            "GNN should fit: {initial} -> {final_loss}"
        );
    }
}
