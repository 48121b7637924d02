//! SimGNN-style attention pooling: node embeddings -> graph embedding.
//!
//! Given node embeddings `H` (N x d):
//!
//! * mean      `m = (1/N) * sum_i h_i`
//! * context   `c = tanh(m W_c)` (the "global context", `W_c` learnable)
//! * scores    `s_i = h_i . c`
//! * weights   `a_i = sigmoid(s_i)` (node's similarity to the context)
//! * embedding `e = sum_i a_i h_i`

use crate::matrix::Matrix;
use crate::nn::Activation;
use crate::rand_ext;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Attention pooling layer with a learnable `d x d` context transform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttentionPool {
    /// Context weight matrix, `d x d`.
    pub context_weight: Matrix,
}

/// Reusable buffers for one graph: the forward values
/// [`AttentionPool::backward`] reads (the node embeddings themselves stay
/// with whoever produced them) and its scratch. They take their shape from
/// each graph and keep their allocation between graphs.
#[derive(Debug, Clone, Default)]
pub struct AttentionCache {
    mean: Matrix,
    pre_tanh: Matrix,
    context: Matrix,
    scores: Vec<f64>,
    weights: Vec<f64>,
    embedding: Matrix,
    d_context: Matrix,
    d_mean: Matrix,
}

impl AttentionPool {
    /// Glorot-initialized pooling layer for embedding dimension `dim`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Self {
        let scale = (1.0 / dim.max(1) as f64).sqrt();
        let context_weight =
            Matrix::from_fn(dim, dim, |_, _| rand_ext::standard_normal(rng) * scale);
        Self { context_weight }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.context_weight.rows()
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.context_weight.len()
    }

    /// Pool node embeddings `h: N x d` into a `1 x d` graph embedding.
    pub fn forward(&self, h: &Matrix) -> Matrix {
        let mut cache = AttentionCache::default();
        self.forward_cached(h, &mut cache);
        cache.embedding
    }

    /// Forward pass into `cache`; returns the graph embedding.
    pub fn forward_cached<'c>(&self, h: &Matrix, cache: &'c mut AttentionCache) -> &'c Matrix {
        let n = h.rows();
        assert!(n > 0, "AttentionPool: empty graph");
        h.col_means_into(&mut cache.mean);
        cache.mean.matmul_into(&self.context_weight, &mut cache.pre_tanh);
        Activation::Tanh.apply_into(&cache.pre_tanh, &mut cache.context);
        cache.scores.clear();
        cache.weights.clear();
        cache.embedding.reset_zeros(1, h.cols());
        for i in 0..n {
            let s: f64 = h.row(i).iter().zip(cache.context.as_slice()).map(|(a, b)| a * b).sum();
            let a = Activation::Sigmoid.apply_scalar(s);
            cache.scores.push(s);
            cache.weights.push(a);
            for (e, &x) in cache.embedding.as_mut_slice().iter_mut().zip(h.row(i)) {
                *e += a * x;
            }
        }
        &cache.embedding
    }

    /// Backward pass for the embeddings `h` last run through
    /// [`AttentionPool::forward_cached`] on `cache`, given
    /// `d_embedding: 1 x d` and the current transpose of the context
    /// weight: writes `dW_c` into `d_wc` and `dH` into `d_h`.
    pub fn backward(
        &self,
        h: &Matrix,
        cache: &mut AttentionCache,
        context_weight_t: &Matrix,
        d_embedding: &Matrix,
        d_wc: &mut Matrix,
        d_h: &mut Matrix,
    ) {
        let n = h.rows();
        let d = h.cols();
        d_h.reset_zeros(n, d);
        cache.d_context.reset_zeros(1, d);

        for i in 0..n {
            let a_i = cache.weights[i];
            // Direct term: e = sum a_i h_i -> dH_i += a_i * de.
            for (g, &de) in d_h.row_mut(i).iter_mut().zip(d_embedding.as_slice()) {
                *g += a_i * de;
            }
            // Through the attention weight: da_i = de . h_i.
            let da: f64 =
                d_embedding.as_slice().iter().zip(h.row(i)).map(|(x, y)| x * y).sum();
            // ds_i = da_i * sigmoid'(s_i).
            let ds = da * Activation::Sigmoid.derivative_scalar(cache.scores[i]);
            // s_i = h_i . c -> dH_i += ds * c ; dc += ds * h_i.
            for (g, &c) in d_h.row_mut(i).iter_mut().zip(cache.context.as_slice()) {
                *g += ds * c;
            }
            for (dc, &x) in cache.d_context.as_mut_slice().iter_mut().zip(h.row(i)) {
                *dc += ds * x;
            }
        }

        // c = tanh(m W_c): du = dc * tanh'(pre), dW_c = m^T du, dm = du W_c^T.
        Activation::Tanh.scale_by_derivative(&cache.pre_tanh, &mut cache.d_context);
        cache.mean.t_matmul_into(&cache.d_context, d_wc);
        cache.d_context.matmul_into(context_weight_t, &mut cache.d_mean);
        // m = (1/N) sum h_i -> dH_i += (1/N) dm.
        let inv_n = 1.0 / n as f64;
        for i in 0..n {
            for (g, &dm) in d_h.row_mut(i).iter_mut().zip(cache.d_mean.as_slice()) {
                *g += inv_n * dm;
            }
        }
    }

    /// Attention weights from the last forward pass (useful for
    /// interpretability: which operators dominate the prediction).
    pub fn weights_of(cache: &AttentionCache) -> &[f64] {
        &cache.weights
    }
}

/// The allocating forward/backward as it stood at b3c2ea3; see
/// `nn::mlp::reference`.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Activation, AttentionPool, Matrix};

    pub struct Cache {
        node_embeddings: Matrix,
        mean: Matrix,
        pre_tanh: Matrix,
        context: Matrix,
        scores: Vec<f64>,
        weights: Vec<f64>,
    }

    pub fn forward_cached(pool: &AttentionPool, h: &Matrix) -> (Matrix, Cache) {
        let n = h.rows();
        let mean = Matrix::row_vector(&h.col_means());
        let pre_tanh = mean.matmul(&pool.context_weight);
        let context = Activation::Tanh.apply(&pre_tanh);
        let mut scores = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        let mut embedding = Matrix::zeros(1, h.cols());
        for i in 0..n {
            let s: f64 = h.row(i).iter().zip(context.as_slice()).map(|(a, b)| a * b).sum();
            let a = Activation::Sigmoid.apply_scalar(s);
            scores.push(s);
            weights.push(a);
            for (e, &x) in embedding.as_mut_slice().iter_mut().zip(h.row(i)) {
                *e += a * x;
            }
        }
        (embedding, Cache { node_embeddings: h.clone(), mean, pre_tanh, context, scores, weights })
    }

    /// Returns `(dW_c, dH)`.
    pub fn backward(pool: &AttentionPool, cache: &Cache, d_embedding: &Matrix) -> (Matrix, Matrix) {
        let h = &cache.node_embeddings;
        let n = h.rows();
        let d = h.cols();
        let mut d_h = Matrix::zeros(n, d);
        let mut d_context = Matrix::zeros(1, d);
        for i in 0..n {
            let a_i = cache.weights[i];
            for (g, &de) in d_h.row_mut(i).iter_mut().zip(d_embedding.as_slice()) {
                *g += a_i * de;
            }
            let da: f64 =
                d_embedding.as_slice().iter().zip(h.row(i)).map(|(x, y)| x * y).sum();
            let ds = da * Activation::Sigmoid.derivative_scalar(cache.scores[i]);
            for (g, &c) in d_h.row_mut(i).iter_mut().zip(cache.context.as_slice()) {
                *g += ds * c;
            }
            for (dc, &x) in d_context.as_mut_slice().iter_mut().zip(h.row(i)) {
                *dc += ds * x;
            }
        }
        let d_pre = d_context.hadamard(&Activation::Tanh.derivative(&cache.pre_tanh));
        let d_wc = cache.mean.t_matmul(&d_pre);
        let d_mean = d_pre.matmul_t(&pool.context_weight);
        let inv_n = 1.0 / n as f64;
        for i in 0..n {
            for (g, &dm) in d_h.row_mut(i).iter_mut().zip(d_mean.as_slice()) {
                *g += inv_n * dm;
            }
        }
        (d_wc, d_h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_weight_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool = AttentionPool::new(&mut rng, 4);
        let h = Matrix::from_fn(6, 4, |_, _| rng.gen_range(-1.0..1.0));
        let mut cache = AttentionCache::default();
        assert_eq!(pool.forward_cached(&h, &mut cache).shape(), (1, 4));
        assert!(AttentionPool::weights_of(&cache).iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pool = AttentionPool::new(&mut rng, 3);
        let h = Matrix::from_fn(5, 3, |_, _| rng.gen_range(-1.0..1.0));

        let loss = |pool: &AttentionPool, h: &Matrix| -> f64 {
            pool.forward(h).as_slice().iter().map(|v| v * v).sum()
        };

        let (mut cache, mut dwc, mut dh) = Default::default();
        let d_embedding = pool.forward_cached(&h, &mut cache).scale(2.0);
        let context_weight_t = pool.context_weight.transpose();
        pool.backward(&h, &mut cache, &context_weight_t, &d_embedding, &mut dwc, &mut dh);

        let step = 1e-6;
        for i in 0..pool.context_weight.len() {
            let orig = pool.context_weight.as_slice()[i];
            pool.context_weight.as_mut_slice()[i] = orig + step;
            let up = loss(&pool, &h);
            pool.context_weight.as_mut_slice()[i] = orig - step;
            let down = loss(&pool, &h);
            pool.context_weight.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * step);
            assert!(
                (numeric - dwc.as_slice()[i]).abs() < 1e-4,
                "dWc[{i}]: {numeric} vs {}",
                dwc.as_slice()[i]
            );
        }
        let mut hp = h.clone();
        for i in 0..hp.len() {
            let orig = hp.as_slice()[i];
            hp.as_mut_slice()[i] = orig + step;
            let up = loss(&pool, &hp);
            hp.as_mut_slice()[i] = orig - step;
            let down = loss(&pool, &hp);
            hp.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * step);
            assert!(
                (numeric - dh.as_slice()[i]).abs() < 1e-4,
                "dH[{i}]: {numeric} vs {}",
                dh.as_slice()[i]
            );
        }
    }

    #[test]
    fn single_node_graph_pools_to_weighted_node() {
        let mut rng = StdRng::seed_from_u64(3);
        let pool = AttentionPool::new(&mut rng, 2);
        let h = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let mut cache = AttentionCache::default();
        let e = pool.forward_cached(&h, &mut cache).clone();
        let a = AttentionPool::weights_of(&cache)[0];
        assert!((e[(0, 0)] - a * 1.0).abs() < 1e-12);
        assert!((e[(0, 1)] - a * -2.0).abs() < 1e-12);
    }
}
