//! Graph neural network: GCN layers + SimGNN-style attention pooling.
//!
//! The paper's GNN (Section 4.4, Figure 10) has three stages:
//!
//! 1. **Node-level embedding** — graph convolution networks (Kipf &
//!    Welling): `H' = act(Â H W + b)` with the symmetric-normalized
//!    adjacency `Â = D^-1/2 (A + I) D^-1/2`.
//! 2. **Graph embedding** — an attention layer where each node's weight is
//!    its similarity to a learned nonlinear transform of the mean node
//!    embedding (the "global context"), as in SimGNN (Bai et al. 2019).
//! 3. **Curve prediction** — a fully-connected head mapping the graph
//!    embedding to the two PCC parameters.
//!
//! All gradients are computed manually; `GnnModel::backward` mirrors the
//! forward pass in reverse and adds each graph's gradients into the sums
//! it is handed, inside the kernels that compute them.
//! [`GnnModel::train`] runs a whole fit on one crew of threads
//! (`tasq_par::Pool::crew`), spawned once and joined before it returns;
//! each minibatch is one round. The front role (the caller) takes graphs
//! from the start of the batch and adds them into the batch sums as it
//! goes; every other role runs the graphs it takes from the end in one
//! workspace of its own, into per-position gradient slots, and the last
//! of them to finish adds those slots in order once the front is done, so
//! every sum keeps its batch order at every thread count. Adam runs on
//! the caller between rounds.

mod attention;
mod gcn;
mod graph;
mod model;

pub use attention::{AttentionCache, AttentionPool};
pub use gcn::{GcnCache, GcnLayer};
pub use graph::GraphData;
pub use model::{GnnModel, GnnOptimizer, GnnTrainer};
