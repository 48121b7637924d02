//! The full GNN: stacked GCN layers, attention pooling, and an MLP head.

use super::attention::{AttentionCache, AttentionPool};
use super::gcn::{GcnCache, GcnLayer};
use super::graph::GraphData;
use crate::matrix::Matrix;
use crate::nn::{Activation, Mlp, MlpCache, MlpGrads};
use crate::optim::{Adam, AdamConfig, ParamId};
use rand::Rng;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use tasq_codec::Wire;
use tasq_obs::sync::{Mutex, Rank, RwLock};
use tasq_par::{Crew, Pool};

/// GNN architecture: `GCN+ -> attention pool -> MLP head`.
#[derive(Debug, Clone, Wire)]
pub struct GnnModel {
    gcn_layers: Vec<GcnLayer>,
    pool: AttentionPool,
    head: Mlp,
}

/// Reusable per-graph training buffers: the forward caches of every
/// stage and the backward scratch. Everything takes its shape from the
/// graph at hand and keeps its allocation for the next one, so a role
/// runs every graph it claims in one workspace and allocates nothing per
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
        let mut grads = Self::default();
        grads.zero_like(model);
        grads
    }

    /// Shape every gradient as `model`'s parameters and zero it, keeping
    /// the allocations.
    fn zero_like(&mut self, model: &GnnModel) {
        let zero = |g: &mut Matrix, like: &Matrix| g.reset_zeros(like.rows(), like.cols());
        self.gcn.resize_with(model.gcn_layers.len(), Default::default);
        for ((dw, db), layer) in self.gcn.iter_mut().zip(&model.gcn_layers) {
            zero(dw, &layer.weight);
            zero(db, &layer.bias);
        }
        zero(&mut self.pool, &model.pool.context_weight);
        model.head.zero_grads(&mut self.head);
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

/// The Adam state of a training run of a [`GnnModel`], with the
/// registered parameter ids.
#[derive(Debug, Clone)]
pub struct GnnOptimizer {
    adam: Adam,
    gcn_ids: Vec<(ParamId, ParamId)>,
    pool_id: ParamId,
    head_ids: Vec<(ParamId, ParamId)>,
}

/// One role's buffers for a whole fit: its workspace, reused for every
/// graph it claims, and the upstream gradient of the graph at hand.
#[derive(Debug, Default)]
struct RoleBuffers {
    workspace: GnnWorkspace,
    d_output: Matrix,
}

/// The model and its weight transposes: what every role reads during a
/// round, and what the caller's optimizer step writes between rounds.
struct Weights<'m> {
    model: &'m mut GnnModel,
    transposed: GnnTransposed,
}

/// The round's minibatch, and who has taken what of it.
#[derive(Debug, Default)]
struct Claims {
    /// Graph indices, in batch order.
    batch: Vec<usize>,
    /// The positions nobody has claimed yet: the front role takes from
    /// the start, the back roles from the end.
    unclaimed: Range<usize>,
    /// Back roles done with the round.
    finished: usize,
}

/// A minibatch's running sums, added in batch order.
#[derive(Debug)]
struct Sums {
    grads: GnnGrads,
    loss: f64,
}

/// A graph a back role ran: its gradients and loss, waiting to be added
/// to the sums in batch order.
#[derive(Debug, Default)]
struct Slot {
    grads: GnnGrads,
    loss: f64,
}

impl Slot {
    /// Add this graph's loss and gradients to a minibatch's running sums.
    fn add_to(&self, sums: &mut Sums) {
        sums.loss += self.loss;
        sums.grads.accumulate(&self.grads);
    }
}

/// Everything the roles of one fit share, borrowed by the crew's work for
/// the whole fit. The caller sets the round's claims and zeroes the sums
/// before a round, and steps the optimizer after it.
struct FitState<'m> {
    weights: RwLock<Weights<'m>>,
    /// One per role.
    roles: Vec<Mutex<RoleBuffers>>,
    sums: Mutex<Sums>,
    claims: Mutex<Claims>,
    /// One per batch position, for the graphs the back roles claim.
    slots: Vec<Mutex<Slot>>,
    /// Set once the front has added its last graph into the sums, or has
    /// unwound (see [`FrontDone`]).
    front_done: AtomicBool,
}

/// Sets the flag when dropped: when the front's share of a round ends,
/// whether it returns or panics, so the back role waiting on it never
/// waits forever.
struct FrontDone<'a>(&'a AtomicBool);

impl Drop for FrontDone<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

impl FitState<'_> {
    /// The next position `take` claims from the unclaimed range, with its
    /// graph.
    fn claim(
        &self,
        take: impl FnOnce(&mut Range<usize>) -> Option<usize>,
    ) -> Option<(usize, usize)> {
        let mut claims = self.claims.lock();
        let at = take(&mut claims.unclaimed)?;
        Some((at, claims.batch[at]))
    }

    /// Role `role`'s share of a round. Role 0, the front, claims
    /// positions from the start and its kernels add each graph's loss and
    /// gradients straight into the sums. Every other role claims from the
    /// end and leaves each graph's gradients in that position's slot. The
    /// last back role to finish waits for the front's share to end (the
    /// front holds the sums lock for all of it), then adds those slots, in
    /// order, after it, so every sum runs in batch order, as on one
    /// thread; with one back role its slots are still in its cache. That
    /// wait is the only one, and it ends: the front never waits, and marks
    /// its share done when it returns or unwinds. A back role that panics
    /// never counts itself finished, so then nobody adds the slots, and
    /// the crew reports the panic.
    fn run_role<L>(&self, role: usize, graphs: &[GraphData], loss: &L)
    where
        L: Fn(usize, &[f64], &mut [f64]) -> f64,
    {
        let weights = self.weights.read();
        let (model, transposed) = (&*weights.model, &weights.transposed);
        let buffers = &mut *self.roles[role].lock();
        if role == 0 {
            let _done = FrontDone(&self.front_done);
            let sums = &mut *self.sums.lock();
            while let Some((_, i)) = self.claim(Iterator::next) {
                let grads = &mut sums.grads;
                sums.loss += model.train_graph(&graphs[i], i, transposed, buffers, grads, loss);
            }
            return;
        }
        while let Some((at, i)) = self.claim(DoubleEndedIterator::next_back) {
            let slot = &mut *self.slots[at].lock();
            slot.grads.zero_like(model);
            let grads = &mut slot.grads;
            slot.loss = model.train_graph(&graphs[i], i, transposed, buffers, grads, loss);
        }
        let back = {
            let mut claims = self.claims.lock();
            claims.finished += 1;
            // Every position is claimed: the cursors met at `start`.
            let last = claims.finished + 1 == self.roles.len();
            last.then(|| claims.unclaimed.start..claims.batch.len())
        };
        if let Some(back) = back {
            // The front holds the sums for all of its share, so the lock
            // alone orders this add after it. The front is at most one
            // graph from done: spinning until it is keeps this role from
            // sleeping in the lock and waiting out a wakeup.
            while !self.front_done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let sums = &mut *self.sums.lock();
            for slot in &self.slots[back] {
                slot.lock().add_to(sums);
            }
        }
    }
}

/// A fit in progress: the handle [`GnnModel::train`]'s body steps
/// minibatches through, and reads the model through between steps.
pub struct GnnTrainer<'f, 'm> {
    crew: &'f Crew<'f>,
    state: &'f FitState<'m>,
    opt: &'f mut GnnOptimizer,
}

impl GnnTrainer<'_, '_> {
    /// One minibatch step: forward, loss and backward for every graph of
    /// `batch` (indices into the fit's graphs) on the crew, one round,
    /// then one Adam update with the mean gradient on the caller. Each
    /// graph's loss is added to `loss_sum` in batch order.
    ///
    /// The update and `loss_sum` are bit-identical at every thread count:
    /// every sum runs in batch order (see the front and back claims of
    /// [`GnnModel::train`]). A panic in the loss callback, on any role,
    /// ends the fit and resumes on the caller of [`GnnModel::train`].
    ///
    /// # Panics
    /// Panics if `batch` is longer than the fit's `max_batch`.
    pub fn step(&mut self, batch: &[usize], loss_sum: &mut f64) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let state = self.state;
        assert!(n <= state.slots.len(), "GnnTrainer::step: batch longer than the fit's max_batch");
        {
            let mut claims = state.claims.lock();
            claims.batch.clear();
            claims.batch.extend_from_slice(batch);
            claims.unclaimed = 0..n;
            claims.finished = 0;
        }
        state.front_done.store(false, Ordering::Relaxed);
        {
            let mut sums = state.sums.lock();
            sums.grads.fill_zero();
            sums.loss = *loss_sum;
        }
        self.crew.round();
        let weights = &mut *state.weights.write();
        let sums = &mut *state.sums.lock();
        *loss_sum = sums.loss;
        sums.grads.scale(1.0 / n as f64);
        weights.model.apply_grads(self.opt, &sums.grads);
        weights.model.transpose_weights_into(&mut weights.transposed);
    }

    /// `f` on the model as the last step left it (validation, a copy of
    /// the best weights).
    pub fn with_model<T>(&self, f: impl FnOnce(&GnnModel) -> T) -> T {
        f(self.state.weights.read().model)
    }
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
    /// `d_output: 1 x out_dim`: adds the graph's gradients into `grads`
    /// (shaped as the model's), each summed fresh first, so a role passes
    /// its minibatch sums and no per-graph gradient set is written and
    /// read back. The first GCN layer's input gradient — the gradient
    /// w.r.t. the graph's features — is not computed.
    fn backward(
        &self,
        graph: &GraphData,
        transposed: &GnnTransposed,
        workspace: &mut GnnWorkspace,
        d_output: &Matrix,
        grads: &mut GnnGrads,
    ) {
        let GnnWorkspace { gcn, pool, head, d_embedding, d_h, scratch } = workspace;
        self.head.backward(head, &transposed.head, d_output, &mut grads.head, Some(d_embedding));
        let last = self.gcn_layers.len() - 1;
        let embeddings = gcn[last].output();
        self.pool.backward(embeddings, pool, &transposed.pool, d_embedding, &mut grads.pool, d_h);
        let adj = &graph.norm_adjacency;
        for (i, layer) in self.gcn_layers.iter().enumerate().rev() {
            let weight_t = (i > 0).then(|| &transposed.gcn[i]);
            layer.backward(adj, &gcn[i], weight_t, d_h, scratch, &mut grads.gcn[i]);
        }
    }

    /// Forward, loss and backward for graph `i` on one role's buffers:
    /// adds its gradients into `grads` and returns its loss.
    fn train_graph<L>(
        &self,
        graph: &GraphData,
        i: usize,
        transposed: &GnnTransposed,
        buffers: &mut RoleBuffers,
        grads: &mut GnnGrads,
        loss: &L,
    ) -> f64
    where
        L: Fn(usize, &[f64], &mut [f64]) -> f64,
    {
        let RoleBuffers { workspace, d_output } = buffers;
        let output = self.forward_cached(graph, workspace);
        d_output.reset_zeros(1, output.cols());
        let graph_loss = loss(i, output.as_slice(), d_output.as_mut_slice());
        self.backward(graph, transposed, workspace, d_output, grads);
        graph_loss
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
        GnnOptimizer { adam, gcn_ids, pool_id, head_ids }
    }

    /// Train on `graphs` with one crew for the whole fit: `body` runs on
    /// the caller with a [`GnnTrainer`] and steps minibatches of at most
    /// `max_batch` graphs through it ([`GnnTrainer::step`]); the RNG, the
    /// epoch order, validation and early stopping stay in `body`, between
    /// steps. `loss(i, output, d_output)` evaluates graph `i`: it reads
    /// the model's output row, writes dLoss/dOutput, and returns the loss.
    ///
    /// The graphs of a minibatch are independent given the weights, so
    /// each step is one round of a crew of `min(pool.threads(),
    /// max_batch)` roles ([`Pool::crew`]), whose helpers are spawned once
    /// here and joined before this returns. Role 0, the front, is the
    /// caller: it claims positions from the start of the batch and adds
    /// each graph's loss and gradients into the sums as it computes them.
    /// The other roles claim from the end, each in one workspace, into
    /// per-position gradient slots, and the last of them to finish adds
    /// those in order once the front's share is done. Adam, the `1/n` scale and
    /// the weight transposes run on the caller between rounds. Every
    /// result is bit-identical at every thread count. A panic in `loss`
    /// or in `body` ends the crew and resumes on the caller.
    pub fn train<L, R>(
        &mut self,
        opt: &mut GnnOptimizer,
        graphs: &[GraphData],
        max_batch: usize,
        pool: &Pool,
        loss: L,
        body: impl FnOnce(&mut GnnTrainer<'_, '_>) -> R,
    ) -> R
    where
        L: Fn(usize, &[f64], &mut [f64]) -> f64 + Sync,
    {
        let max_batch = max_batch.max(1);
        let crew = Pool::new(pool.threads().min(max_batch));
        let mut transposed = GnnTransposed::default();
        self.transpose_weights_into(&mut transposed);
        let sums = Sums { grads: GnnGrads::zeros_like(self), loss: 0.0 };
        let state = FitState {
            weights: RwLock::new(Rank::CrewWeights, Weights { model: self, transposed }),
            roles: (0..crew.threads())
                .map(|_| Mutex::new(Rank::CrewRole, RoleBuffers::default()))
                .collect(),
            sums: Mutex::new(Rank::CrewSums, sums),
            claims: Mutex::new(Rank::CrewClaims, Claims::default()),
            slots: (0..max_batch).map(|_| Mutex::new(Rank::CrewSlot, Slot::default())).collect(),
            front_done: AtomicBool::new(false),
        };
        let fitted = crew.crew(
            |role, _| state.run_role(role, graphs, &loss),
            |crew| body(&mut GnnTrainer { crew, state: &state, opt }),
        );
        fitted.unwrap_or_else(|e| std::panic::resume_unwind(Box::new(e.to_string())))
    }

    /// Apply one optimizer step with the minibatch's mean `grads`.
    fn apply_grads(&mut self, opt: &mut GnnOptimizer, grads: &GnnGrads) {
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
/// the oracle [`GnnTrainer::step`] must match bit for bit. Built on
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
        model.apply_grads(opt, &batch_grads);
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

    /// Crew training — at 1, 2, 3 and 8 threads, every batch one round
    /// of one fit — equals the allocating sequential reference bit for
    /// bit: the running loss after every batch and every parameter at the
    /// end, over graphs of 1 to 40 nodes, a ragged last batch and a batch
    /// of one graph.
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

            let fresh = || {
                let model = initial.clone();
                let opt = model
                    .make_optimizer(AdamConfig { learning_rate: 0.01, ..Default::default() });
                (model, opt)
            };
            // Replays the batches through one step function; the running
            // loss after every batch, as bits.
            let replay = |step: &mut dyn FnMut(&[usize], &mut f64)| {
                let (mut loss_sum, mut losses) = (0.0, Vec::new());
                for batch in &batches {
                    step(batch, &mut loss_sum);
                    losses.push(loss_sum.to_bits());
                }
                losses
            };
            let expected = {
                let (mut model, mut opt) = fresh();
                let losses = replay(&mut |batch, sum| {
                    reference::train_batch(&mut model, &mut opt, &graphs, batch, loss, sum);
                });
                (losses, param_bits(&model))
            };
            assert_ne!(expected.1, param_bits(&initial), "training moved the weights");
            for threads in [1, 2, 3, 8] {
                let (pool, (mut model, mut opt)) = (Pool::new(threads), fresh());
                let losses = model.train(&mut opt, &graphs, 16, &pool, loss, |fit| {
                    replay(&mut |batch, sum| fit.step(batch, sum))
                });
                let got = (losses, param_bits(&model));
                assert_eq!(got, expected, "seed {seed}, {threads} threads");
            }
        }
    }

    /// A loss callback that panics on the first graph of a batch, or on
    /// its last, surfaces as a panic on the caller at every thread count,
    /// with every helper of the fit joined. The one wait within a round,
    /// the last back role's for the front, ends when the front returns or
    /// unwinds, so a panicking role cannot hang the crew: this test
    /// finishing is the proof.
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
                    model.train(&mut opt, &graphs, batch.len(), &pool, loss, |fit| {
                        fit.step(&batch, &mut 0.0);
                    });
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
        let grads = &mut GnnGrads::zeros_like(&model);
        model.backward(&g, &transposed, &mut workspace, &d_output, grads);

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
        let pool = Pool::sequential();
        model.train(&mut opt, &graphs, everything.len(), &pool, squared_error, |fit| {
            for _ in 0..300 {
                fit.step(&everything, &mut 0.0);
            }
        });
        let final_loss = total_loss(&model);
        assert!(
            final_loss < initial * 0.05,
            "GNN should fit: {initial} -> {final_loss}"
        );
    }
}
