//! A single graph-convolution layer (Kipf & Welling).

use crate::matrix::Matrix;
use crate::nn::Activation;
use crate::rand_ext;
use rand::Rng;
use tasq_codec::Wire;

/// Graph convolution: `out = act(Â H W + b)`.
#[derive(Debug, Clone, Wire)]
pub struct GcnLayer {
    /// Weight, `in_dim x out_dim`.
    pub weight: Matrix,
    /// Bias row, `1 x out_dim`.
    pub bias: Matrix,
    /// Activation applied element-wise.
    pub activation: Activation,
}

/// Reusable forward buffers for one graph: what [`GcnLayer::backward`]
/// reads, plus the layer output itself (the next layer's input). They take
/// their shape from each graph and keep their allocation between graphs.
#[derive(Debug, Clone, Default)]
pub struct GcnCache {
    /// `Â H` — the aggregated input (N x in_dim).
    aggregated: Matrix,
    /// Pre-activation `Â H W + b` (N x out_dim).
    pre_activation: Matrix,
    /// `act(Â H W + b)` (N x out_dim).
    output: Matrix,
}

impl GcnCache {
    /// The layer output of the last [`GcnLayer::forward_cached`].
    pub fn output(&self) -> &Matrix {
        &self.output
    }
}

impl GcnLayer {
    /// Glorot-initialized layer.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        let scale = (2.0 / (in_dim + out_dim) as f64).sqrt();
        let weight = Matrix::from_fn(in_dim, out_dim, |_, _| rand_ext::standard_normal(rng) * scale);
        Self { weight, bias: Matrix::zeros(1, out_dim), activation }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Forward pass: `act(Â H W + b)`.
    pub fn forward(&self, norm_adj: &Matrix, h: &Matrix) -> Matrix {
        let mut cache = GcnCache::default();
        self.forward_cached(norm_adj, h, &mut cache);
        cache.output
    }

    /// Forward pass into `cache`; returns the layer output.
    pub fn forward_cached<'c>(
        &self,
        norm_adj: &Matrix,
        h: &Matrix,
        cache: &'c mut GcnCache,
    ) -> &'c Matrix {
        norm_adj.matmul_into(h, &mut cache.aggregated);
        cache.aggregated.matmul_into(&self.weight, &mut cache.pre_activation);
        cache.pre_activation.add_row_broadcast(self.bias.as_slice());
        self.activation.apply_into(&cache.pre_activation, &mut cache.output);
        &cache.output
    }

    /// Backward pass, in place on the gradient buffer `d`.
    ///
    /// On entry `d` is the gradient w.r.t. the layer output. `(dW, db)`
    /// are written into `grads`. With `weight_t` (this layer's `W^T`) the
    /// gradient w.r.t. the layer's *input* node embeddings is left in `d`
    /// (`scratch` holds the intermediate `d(ÂH)`), using the symmetry of
    /// `Â` (so `Â^T = Â`); the first layer of a model, whose input is the
    /// graph's features, passes `None` and skips both products.
    pub fn backward(
        &self,
        norm_adj: &Matrix,
        cache: &GcnCache,
        weight_t: Option<&Matrix>,
        d: &mut Matrix,
        scratch: &mut Matrix,
        grads: &mut (Matrix, Matrix),
    ) {
        self.activation.scale_by_derivative(&cache.pre_activation, d);
        cache.aggregated.t_matmul_into(d, &mut grads.0);
        d.col_sums_into(&mut grads.1);
        if let Some(weight_t) = weight_t {
            // d(ÂH) = d_pre W^T ; dH = Â^T d(ÂH) = Â d(ÂH).
            d.matmul_into(weight_t, scratch);
            norm_adj.matmul_into(scratch, d);
        }
    }
}

/// The allocating forward/backward as it stood at b3c2ea3; see
/// `nn::mlp::reference`.
#[cfg(test)]
pub(crate) mod reference {
    use super::{GcnLayer, Matrix};

    pub struct Cache {
        aggregated: Matrix,
        pre_activation: Matrix,
    }

    pub fn forward_cached(layer: &GcnLayer, norm_adj: &Matrix, h: &Matrix) -> (Matrix, Cache) {
        let aggregated = norm_adj.matmul(h);
        let mut pre = aggregated.matmul(&layer.weight);
        pre.add_row_broadcast(layer.bias.as_slice());
        let out = layer.activation.apply(&pre);
        (out, Cache { aggregated, pre_activation: pre })
    }

    /// Returns `(dW, db, dH)`.
    pub fn backward(
        layer: &GcnLayer,
        norm_adj: &Matrix,
        cache: &Cache,
        d_out: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let d_pre = d_out.hadamard(&layer.activation.derivative(&cache.pre_activation));
        let d_weight = cache.aggregated.t_matmul(&d_pre);
        let d_bias = Matrix::row_vector(&d_pre.col_sums());
        let d_aggregated = d_pre.matmul_t(&layer.weight);
        let d_h = norm_adj.matmul(&d_aggregated);
        (d_weight, d_bias, d_h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn::graph::GraphData;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph(rng: &mut StdRng) -> GraphData {
        let features = Matrix::from_fn(4, 3, |_, _| rng.gen_range(-1.0..1.0));
        GraphData::new(features, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = toy_graph(&mut rng);
        let layer = GcnLayer::new(&mut rng, 3, 5, Activation::Relu);
        let out = layer.forward(&g.norm_adjacency, &g.features);
        assert_eq!(out.shape(), (4, 5));
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = toy_graph(&mut rng);
        let mut layer = GcnLayer::new(&mut rng, 3, 2, Activation::Tanh);
        let loss = |layer: &GcnLayer, h: &Matrix| -> f64 {
            layer
                .forward(&g.norm_adjacency, h)
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum()
        };

        let (mut cache, mut scratch, mut grads) = Default::default();
        let mut dh = layer.forward_cached(&g.norm_adjacency, &g.features, &mut cache).scale(2.0);
        let weight_t = layer.weight.transpose();
        let adj = &g.norm_adjacency;
        layer.backward(adj, &cache, Some(&weight_t), &mut dh, &mut scratch, &mut grads);
        let (dw, db) = grads;

        let h = 1e-6;
        for i in 0..layer.weight.len() {
            let orig = layer.weight.as_slice()[i];
            layer.weight.as_mut_slice()[i] = orig + h;
            let up = loss(&layer, &g.features);
            layer.weight.as_mut_slice()[i] = orig - h;
            let down = loss(&layer, &g.features);
            layer.weight.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - dw.as_slice()[i]).abs() < 1e-4, "dW[{i}]");
        }
        for i in 0..layer.bias.len() {
            let orig = layer.bias.as_slice()[i];
            layer.bias.as_mut_slice()[i] = orig + h;
            let up = loss(&layer, &g.features);
            layer.bias.as_mut_slice()[i] = orig - h;
            let down = loss(&layer, &g.features);
            layer.bias.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - db.as_slice()[i]).abs() < 1e-4, "db[{i}]");
        }
        let mut feat = g.features.clone();
        for i in 0..feat.len() {
            let orig = feat.as_slice()[i];
            feat.as_mut_slice()[i] = orig + h;
            let up = loss(&layer, &feat);
            feat.as_mut_slice()[i] = orig - h;
            let down = loss(&layer, &feat);
            feat.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - dh.as_slice()[i]).abs() < 1e-4, "dH[{i}]");
        }
    }

    #[test]
    fn isolated_nodes_only_see_themselves() {
        let mut rng = StdRng::seed_from_u64(3);
        // Two disconnected nodes: each output row depends only on its own
        // features (Â is diagonal).
        let features = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let g = GraphData::new(features, &[]);
        let layer = GcnLayer::new(&mut rng, 2, 3, Activation::Identity);
        let out = layer.forward(&g.norm_adjacency, &g.features);
        // Row 0 = W row 0 + bias, row 1 = W row 1 + bias.
        for c in 0..3 {
            assert!((out[(0, c)] - layer.weight[(0, c)]).abs() < 1e-12);
            assert!((out[(1, c)] - layer.weight[(1, c)]).abs() < 1e-12);
        }
    }
}
