//! Fully-connected (affine) layer. The backward pass of `y = x W + b` is
//! three products — `dW = x^T dy`, `db` = column sums of `dy`,
//! `dx = dy W^T` — which [`super::Mlp::backward`] runs per layer straight
//! on its reusable buffers; the gradient check below pins the formulas.

use crate::matrix::Matrix;
use crate::rand_ext;
use rand::Rng;
use tasq_codec::Wire;

/// An affine layer `y = x W + b` with `W: in x out`, `b: 1 x out`.
#[derive(Debug, Clone, Wire)]
pub struct Linear {
    /// Weight matrix, `in_dim x out_dim`.
    pub weight: Matrix,
    /// Bias row vector, `1 x out_dim`.
    pub bias: Matrix,
}

impl Linear {
    /// He-uniform initialization, appropriate for ReLU-family activations.
    pub fn he_init<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        let scale = (2.0 / in_dim.max(1) as f64).sqrt();
        let weight =
            Matrix::from_fn(in_dim, out_dim, |_, _| rand_ext::standard_normal(rng) * scale);
        Self { weight, bias: Matrix::zeros(1, out_dim) }
    }

    /// Xavier/Glorot-uniform initialization, appropriate for tanh/sigmoid.
    pub fn xavier_init<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        let bound = (6.0 / (in_dim + out_dim).max(1) as f64).sqrt();
        let weight = Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-bound..bound));
        Self { weight, bias: Matrix::zeros(1, out_dim) }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Number of trainable parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Forward pass: `x W + b` for a batch `x: batch x in_dim`, written
    /// into `out`, reusing its allocation.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weight, out);
        out.add_row_broadcast(self.bias.as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn forward(layer: &Linear, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        layer.forward_into(x, &mut out);
        out
    }

    #[test]
    fn forward_known_values() {
        let layer = Linear {
            weight: Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            bias: Matrix::from_vec(1, 2, vec![0.5, -0.5]),
        };
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = forward(&layer, &x);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::he_init(&mut rng, 10, 4);
        assert_eq!(layer.param_count(), 44);
    }

    /// Full gradient check against central finite differences on a random
    /// layer, random batch, and loss = sum of outputs squared.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Linear::xavier_init(&mut rng, 3, 2);
        let x = Matrix::from_fn(4, 3, |_, _| rng.gen_range(-1.0..1.0));

        let loss = |layer: &Linear, x: &Matrix| -> f64 {
            forward(layer, x).as_slice().iter().map(|v| v * v).sum()
        };
        let d_out = forward(&layer, &x).scale(2.0); // d(sum y^2)/dy = 2y
        let grads =
            (x.t_matmul(&d_out), d_out.col_sums(), d_out.matmul(&layer.weight.transpose()));

        let h = 1e-6;
        // Weight gradients.
        for i in 0..layer.weight.len() {
            let orig = layer.weight.as_slice()[i];
            layer.weight.as_mut_slice()[i] = orig + h;
            let up = loss(&layer, &x);
            layer.weight.as_mut_slice()[i] = orig - h;
            let down = loss(&layer, &x);
            layer.weight.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!(
                (numeric - grads.0.as_slice()[i]).abs() < 1e-4,
                "weight[{i}]: numeric {numeric} vs {}",
                grads.0.as_slice()[i]
            );
        }
        // Bias gradients.
        for i in 0..layer.bias.len() {
            let orig = layer.bias.as_slice()[i];
            layer.bias.as_mut_slice()[i] = orig + h;
            let up = loss(&layer, &x);
            layer.bias.as_mut_slice()[i] = orig - h;
            let down = loss(&layer, &x);
            layer.bias.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - grads.1[i]).abs() < 1e-4);
        }
        // Input gradients.
        let mut x_pert = x.clone();
        for i in 0..x_pert.len() {
            let orig = x_pert.as_slice()[i];
            x_pert.as_mut_slice()[i] = orig + h;
            let up = loss(&layer, &x_pert);
            x_pert.as_mut_slice()[i] = orig - h;
            let down = loss(&layer, &x_pert);
            x_pert.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - grads.2.as_slice()[i]).abs() < 1e-4);
        }
    }
}
