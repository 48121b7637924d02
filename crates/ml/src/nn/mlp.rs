//! Multi-layer perceptron composed of [`Linear`] layers and activations.

use super::activation::Activation;
use super::linear::Linear;
use crate::matrix::Matrix;
use crate::optim::{Adam, AdamConfig, ParamId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward network: alternating affine layers and activations.
///
/// The activation after the final layer is configurable (use
/// [`Activation::Identity`] for raw outputs; the TASQ PCC heads apply
/// softplus transforms *outside* the MLP so the loss can see the raw
/// pre-activations).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

/// Reusable training buffers for one batch: the forward caches
/// [`Mlp::backward`] reads and the scratch it writes. Buffers take their
/// shape from each call and keep their allocation between calls, so a
/// trainer that holds one cache allocates nothing per step; reuse never
/// changes a result.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `acts[i]` is the input of layer `i` (`acts[0]` the batch itself);
    /// the last entry is the network output.
    acts: Vec<Matrix>,
    /// Pre-activation of each layer.
    pre: Vec<Matrix>,
    /// The gradient flowing backwards, and the buffer its next value is
    /// computed into.
    d: Matrix,
    d_next: Matrix,
}

/// `(dW, db)` per layer, front to back. Like [`MlpCache`], reused across
/// steps: [`Mlp::backward`] shapes the entries itself.
pub type MlpGrads = Vec<(Matrix, Matrix)>;

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[51, 32, 16, 2]`.
    ///
    /// Hidden layers use He initialization when the hidden activation is
    /// ReLU and Xavier otherwise.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        assert!(sizes.len() >= 2, "Mlp::new: need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| match hidden_activation {
                Activation::Relu => Linear::he_init(rng, w[0], w[1]),
                _ => Linear::xavier_init(rng, w[0], w[1]),
            })
            .collect();
        Self { layers, hidden_activation, output_activation }
    }

    /// Number of affine layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_dim)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers (needed by composite models — e.g. the
    /// GNN — that own an `Mlp` head and drive a shared optimizer).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    fn activation(&self, layer: usize) -> Activation {
        if layer + 1 == self.layers.len() {
            self.output_activation
        } else {
            self.hidden_activation
        }
    }

    /// Forward pass for a batch `x: batch x in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = self.activation(i).apply(&layer.forward(&h));
        }
        h
    }

    /// Forward pass keeping in `cache` what [`Mlp::backward`] needs;
    /// returns the output (which lives in the cache).
    pub fn forward_cached<'c>(&self, x: &Matrix, cache: &'c mut MlpCache) -> &'c Matrix {
        let n = self.layers.len();
        cache.acts.resize_with(n + 1, Matrix::default);
        cache.pre.resize_with(n, Matrix::default);
        cache.acts[0].copy_from(x);
        for (i, layer) in self.layers.iter().enumerate() {
            let (input, output) = cache.acts.split_at_mut(i + 1);
            layer.forward_into(&input[i], &mut cache.pre[i]);
            self.activation(i).apply_into(&cache.pre[i], &mut output[0]);
        }
        &cache.acts[n]
    }

    /// `W^T` of every layer into `out`. [`Mlp::backward`] multiplies by
    /// these instead of walking `W` column-wise (see
    /// [`Matrix::matmul_t`]); a trainer refreshes them once per optimizer
    /// step, however many backward passes share the step.
    pub fn transpose_weights_into(&self, out: &mut Vec<Matrix>) {
        out.resize_with(self.layers.len(), Matrix::default);
        for (t, layer) in out.iter_mut().zip(&self.layers) {
            layer.weight.transpose_into(t);
        }
    }

    /// Backward pass for the batch last run through
    /// [`Mlp::forward_cached`] on `cache`, given the upstream gradient
    /// w.r.t. the network output and the current
    /// [`Mlp::transpose_weights_into`]. Writes `(dW, db)` per layer into
    /// `grads`, and dLoss/dInput into `d_input` for callers that read it
    /// (the GNN feeds it to its pooling layer); a trainer whose input is
    /// data passes `None` and the first layer's `d · W^T` is never
    /// computed.
    pub fn backward(
        &self,
        cache: &mut MlpCache,
        weights_t: &[Matrix],
        d_output: &Matrix,
        grads: &mut MlpGrads,
        mut d_input: Option<&mut Matrix>,
    ) {
        assert_eq!(weights_t.len(), self.layers.len(), "Mlp::backward: stale transposes");
        grads.resize_with(self.layers.len(), Default::default);
        let MlpCache { acts, pre, d, d_next } = cache;
        d.copy_from(d_output);
        for i in (0..self.layers.len()).rev() {
            // d becomes the gradient w.r.t. the pre-activation; then
            // dW = x^T d, db = column sums of d, dX = d W^T.
            self.activation(i).scale_by_derivative(&pre[i], d);
            let (d_weight, d_bias) = &mut grads[i];
            acts[i].t_matmul_into(d, d_weight);
            d.col_sums_into(d_bias);
            if i > 0 {
                d.matmul_into(&weights_t[i], d_next);
                std::mem::swap(d, d_next);
            } else if let Some(d_input) = d_input.take() {
                d.matmul_into(&weights_t[0], d_input);
            }
        }
    }

    /// Register all parameters with an Adam optimizer; returns the ids in
    /// layer order as `(weight_id, bias_id)` pairs.
    pub fn register_params(&self, adam: &mut Adam) -> Vec<(ParamId, ParamId)> {
        self.layers
            .iter()
            .map(|l| {
                let w = adam.register(l.weight.rows(), l.weight.cols());
                let b = adam.register(l.bias.rows(), l.bias.cols());
                (w, b)
            })
            .collect()
    }

    /// Apply one optimizer step with the given per-layer gradients.
    pub fn apply_grads(&mut self, adam: &mut Adam, ids: &[(ParamId, ParamId)], grads: &MlpGrads) {
        assert_eq!(ids.len(), self.layers.len());
        assert_eq!(grads.len(), self.layers.len());
        let mut pairs: Vec<(ParamId, &mut Matrix, &Matrix)> = Vec::new();
        for (layer, (&(wid, bid), (gw, gb))) in self.layers.iter_mut().zip(ids.iter().zip(grads)) {
            pairs.push((wid, &mut layer.weight, gw));
            pairs.push((bid, &mut layer.bias, gb));
        }
        adam.step(&mut pairs);
    }

    /// Convenience: default Adam optimizer wired to this network.
    pub fn make_optimizer(&self, config: AdamConfig) -> (Adam, Vec<(ParamId, ParamId)>) {
        let mut adam = Adam::new(config);
        let ids = self.register_params(&mut adam);
        (adam, ids)
    }
}

/// The allocating forward/backward recipe as it stood before the reusable
/// [`MlpCache`] (commit b3c2ea3): a fresh matrix per cache entry, per
/// temporary and per gradient, `d · W^T` through [`Matrix::matmul_t`], and
/// an input gradient whether or not anyone reads it. Kept as the oracle
/// the cache-backed path must match bit for bit (here and, as the GNN's
/// head, in `gnn::model`).
#[cfg(test)]
pub(crate) mod reference {
    use super::{Matrix, Mlp};

    pub struct Cache {
        inputs: Vec<Matrix>,
        pre_activations: Vec<Matrix>,
    }

    pub struct Grads {
        pub layers: Vec<(Matrix, Matrix)>,
        pub input: Matrix,
    }

    pub fn forward_cached(mlp: &Mlp, x: &Matrix) -> (Matrix, Cache) {
        let mut h = x.clone();
        let mut cache = Cache { inputs: Vec::new(), pre_activations: Vec::new() };
        for (i, layer) in mlp.layers.iter().enumerate() {
            cache.inputs.push(h.clone());
            let mut pre = h.matmul(&layer.weight);
            pre.add_row_broadcast(layer.bias.as_slice());
            h = mlp.activation(i).apply(&pre);
            cache.pre_activations.push(pre);
        }
        (h, cache)
    }

    pub fn backward(mlp: &Mlp, cache: &Cache, d_output: &Matrix) -> Grads {
        let mut layers = Vec::new();
        let mut d = d_output.clone();
        for (i, layer) in mlp.layers.iter().enumerate().rev() {
            let d_pre = d.hadamard(&mlp.activation(i).derivative(&cache.pre_activations[i]));
            let weight = cache.inputs[i].t_matmul(&d_pre);
            let bias = Matrix::row_vector(&d_pre.col_sums());
            d = d_pre.matmul_t(&layer.weight);
            layers.push((weight, bias));
        }
        layers.reverse();
        Grads { layers, input: d }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One forward/backward on fresh buffers: `(per-layer grads, dInput)`
    /// for the upstream gradient `d_of(output)`.
    fn gradients(mlp: &Mlp, x: &Matrix, d_of: impl Fn(&Matrix) -> Matrix) -> (MlpGrads, Matrix) {
        let (mut cache, mut weights_t) = (MlpCache::default(), Vec::new());
        let (mut grads, mut d_input) = (MlpGrads::new(), Matrix::default());
        let d_output = d_of(mlp.forward_cached(x, &mut cache));
        mlp.transpose_weights_into(&mut weights_t);
        mlp.backward(&mut cache, &weights_t, &d_output, &mut grads, Some(&mut d_input));
        (grads, d_input)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Training through one reused cache equals the allocating reference
    /// bit for bit — every gradient of every step and the weights at the
    /// end — over batches that change shape between steps (so stale buffer
    /// contents would show) and with the input gradient both read and
    /// skipped.
    #[test]
    fn cached_training_is_bit_identical_to_the_allocating_reference() {
        for seed in [1u64, 2, 3] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cached =
                Mlp::new(&mut rng, &[51, 32, 16, 2], Activation::Relu, Activation::Identity);
            let mut allocating = cached.clone();
            let config = AdamConfig { learning_rate: 0.01, ..Default::default() };
            let (mut adam, ids) = cached.make_optimizer(config.clone());
            let (mut ref_adam, ref_ids) = allocating.make_optimizer(config);

            let (mut cache, mut weights_t) = (MlpCache::default(), Vec::new());
            let (mut grads, mut d_input) = (MlpGrads::new(), Matrix::default());
            for step in 0..40 {
                let rows = [32, 1, 17, 32, 8][step % 5];
                let x = Matrix::from_fn(rows, 51, |_, _| rng.gen_range(-2.0..2.0));
                let target = Matrix::from_fn(rows, 2, |_, _| rng.gen_range(-1.0..1.0));

                let (y, ref_cache) = reference::forward_cached(&allocating, &x);
                let expected = reference::backward(&allocating, &ref_cache, &y.sub(&target));

                let d_output = cached.forward_cached(&x, &mut cache).sub(&target);
                assert_eq!(bits(&d_output), bits(&y.sub(&target)), "seed {seed} step {step}");
                cached.transpose_weights_into(&mut weights_t);
                let want_input = step % 2 == 0;
                cached.backward(
                    &mut cache,
                    &weights_t,
                    &d_output,
                    &mut grads,
                    want_input.then_some(&mut d_input),
                );
                if want_input {
                    assert_eq!(bits(&d_input), bits(&expected.input), "seed {seed} step {step}");
                }
                for (got, want) in grads.iter().zip(&expected.layers) {
                    assert_eq!(got.0.shape(), want.0.shape());
                    assert_eq!(bits(&got.0), bits(&want.0), "seed {seed} step {step}");
                    assert_eq!(bits(&got.1), bits(&want.1), "seed {seed} step {step}");
                }
                cached.apply_grads(&mut adam, &ids, &grads);
                allocating.apply_grads(&mut ref_adam, &ref_ids, &expected.layers);
            }
            for (a, b) in cached.layers.iter().zip(&allocating.layers) {
                assert_eq!(bits(&a.weight), bits(&b.weight), "seed {seed}");
                assert_eq!(bits(&a.bias), bits(&b.bias), "seed {seed}");
            }
        }
    }

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&mut rng, &[5, 8, 2], Activation::Relu, Activation::Identity);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 2);
        // (5*8 + 8) + (8*2 + 2) = 48 + 18 = 66
        assert_eq!(mlp.param_count(), 66);
        let x = Matrix::zeros(3, 5);
        assert_eq!(mlp.forward(&x).shape(), (3, 2));
    }

    /// The paper's NN has 2,216 parameters (Table 7); our default TASQ NN
    /// topology must be in the same ballpark (we verify the arithmetic
    /// rather than the exact paper value since the feature count differs).
    #[test]
    fn paper_scale_topology() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&mut rng, &[51, 32, 16, 2], Activation::Relu, Activation::Identity);
        assert_eq!(mlp.param_count(), 51 * 32 + 32 + 32 * 16 + 16 + 16 * 2 + 2);
    }

    /// End-to-end gradient check through two hidden layers.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mlp = Mlp::new(&mut rng, &[3, 4, 2], Activation::Tanh, Activation::Identity);
        let x = Matrix::from_fn(2, 3, |_, _| rng.gen_range(-1.0..1.0));

        let loss =
            |mlp: &Mlp, x: &Matrix| -> f64 { mlp.forward(x).as_slice().iter().map(|v| v * v).sum() };

        let (grads, _) = gradients(&mlp, &x, |y| y.scale(2.0));

        let h = 1e-6;
        for (li, (d_weight, d_bias)) in grads.iter().enumerate() {
            for i in 0..mlp.layers[li].weight.len() {
                let orig = mlp.layers[li].weight.as_slice()[i];
                mlp.layers[li].weight.as_mut_slice()[i] = orig + h;
                let up = loss(&mlp, &x);
                mlp.layers[li].weight.as_mut_slice()[i] = orig - h;
                let down = loss(&mlp, &x);
                mlp.layers[li].weight.as_mut_slice()[i] = orig;
                let numeric = (up - down) / (2.0 * h);
                let analytic = d_weight.as_slice()[i];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "layer {li} weight[{i}]: {numeric} vs {analytic}"
                );
            }
            for i in 0..mlp.layers[li].bias.len() {
                let orig = mlp.layers[li].bias.as_slice()[i];
                mlp.layers[li].bias.as_mut_slice()[i] = orig + h;
                let up = loss(&mlp, &x);
                mlp.layers[li].bias.as_mut_slice()[i] = orig - h;
                let down = loss(&mlp, &x);
                mlp.layers[li].bias.as_mut_slice()[i] = orig;
                let numeric = (up - down) / (2.0 * h);
                let analytic = d_bias.as_slice()[i];
                assert!((numeric - analytic).abs() < 1e-4);
            }
        }
    }

    /// Train on a simple synthetic regression problem; loss must drop
    /// dramatically.
    #[test]
    fn learns_simple_function() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut mlp = Mlp::new(&mut rng, &[2, 16, 1], Activation::Relu, Activation::Identity);
        let (mut adam, ids) = mlp.make_optimizer(AdamConfig { learning_rate: 0.01, ..Default::default() });

        // Target: y = x0 + 2*x1
        let x = Matrix::from_fn(64, 2, |_, _| rng.gen_range(-1.0..1.0));
        let target = Matrix::from_fn(64, 1, |r, _| x[(r, 0)] + 2.0 * x[(r, 1)]);

        let mse = |mlp: &Mlp| {
            let y = mlp.forward(&x);
            y.sub(&target).as_slice().iter().map(|e| e * e).sum::<f64>() / 64.0
        };
        let initial = mse(&mlp);
        let (mut cache, mut weights_t, mut grads) = (MlpCache::default(), Vec::new(), Vec::new());
        for _ in 0..500 {
            let d = mlp.forward_cached(&x, &mut cache).sub(&target).scale(2.0 / 64.0);
            mlp.transpose_weights_into(&mut weights_t);
            mlp.backward(&mut cache, &weights_t, &d, &mut grads, None);
            mlp.apply_grads(&mut adam, &ids, &grads);
        }
        let final_loss = mse(&mlp);
        assert!(
            final_loss < initial * 0.01,
            "loss should drop 100x: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn input_gradient_flows() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&mut rng, &[3, 5, 2], Activation::Relu, Activation::Identity);
        let x = Matrix::from_fn(1, 3, |_, _| rng.gen_range(-1.0..1.0));
        let (_, d_input) = gradients(&mlp, &x, |y| y.scale(2.0));
        assert_eq!(d_input.shape(), (1, 3));

        let h = 1e-6;
        let loss =
            |x: &Matrix| -> f64 { mlp.forward(x).as_slice().iter().map(|v| v * v).sum() };
        let mut xp = x.clone();
        for i in 0..xp.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + h;
            let up = loss(&xp);
            xp.as_mut_slice()[i] = orig - h;
            let down = loss(&xp);
            xp.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - d_input.as_slice()[i]).abs() < 1e-4);
        }
    }
}
