//! Feed-forward neural networks with manual reverse-mode gradients.
//!
//! The paper's NN model (Section 4.4) is a small multi-layer fully-connected
//! network (2,216 parameters in Table 7) that maps aggregated job-level
//! features to the two power-law PCC parameters. The building blocks here —
//! [`Linear`] layers, [`Activation`] functions, and the [`Mlp`] container —
//! keep forward caches explicitly so gradients can be computed without an
//! autodiff tape.

mod activation;
mod linear;
pub(crate) mod mlp;

pub use activation::{sigmoid, softplus, softplus_inverse, Activation};
pub use linear::Linear;
pub use mlp::{Mlp, MlpCache, MlpGrads};
