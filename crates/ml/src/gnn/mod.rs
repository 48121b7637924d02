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
//! All gradients are computed manually; [`GnnModel::backward`] mirrors the
//! forward pass in reverse. Training runs through reusable buffers (one
//! workspace per in-flight graph) and [`GnnModel::train_batch`] fans the
//! graphs of a minibatch out over a pool.

mod attention;
mod gcn;
mod graph;
mod model;

pub use attention::{AttentionCache, AttentionPool};
pub use gcn::{GcnCache, GcnLayer};
pub use graph::GraphData;
pub use model::{GnnModel, GnnOptimizer};
