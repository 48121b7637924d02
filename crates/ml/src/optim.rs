//! Adam optimizer with bias correction and global-norm gradient clipping.
//!
//! The optimizer owns one slot of first/second-moment state per parameter
//! tensor; callers register tensors once (getting back a [`ParamId`]) and
//! then call [`Adam::step`] with matching gradients each iteration.

use crate::kernels::{self, AdamCoeffs, AdamUpdate};
use crate::matrix::Matrix;

/// Handle to a parameter tensor registered with an [`Adam`] optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(usize);

/// Hyper-parameters for [`Adam`].
#[derive(Debug, Clone)]
pub struct AdamConfig {
    /// Learning rate (alpha).
    pub learning_rate: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability constant.
    pub epsilon: f64,
    /// If set, gradients are rescaled so their global L2 norm does not
    /// exceed this value.
    pub clip_global_norm: Option<f64>,
    /// Decoupled weight decay (AdamW style); 0 disables.
    pub weight_decay: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            learning_rate: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            clip_global_norm: Some(5.0),
            weight_decay: 0.0,
        }
    }
}

/// Adam optimizer state over a set of registered parameter tensors.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    first_moments: Vec<Matrix>,
    second_moments: Vec<Matrix>,
    step_count: u64,
}

impl Adam {
    /// Create an optimizer with the given configuration and no registered
    /// parameters.
    pub fn new(config: AdamConfig) -> Self {
        Self { config, first_moments: Vec::new(), second_moments: Vec::new(), step_count: 0 }
    }

    /// Register a parameter tensor shape; returns its id.
    pub fn register(&mut self, rows: usize, cols: usize) -> ParamId {
        let id = ParamId(self.first_moments.len());
        self.first_moments.push(Matrix::zeros(rows, cols));
        self.second_moments.push(Matrix::zeros(rows, cols));
        id
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Mutable access to the configuration (e.g. for learning-rate decay).
    pub fn config_mut(&mut self) -> &mut AdamConfig {
        &mut self.config
    }

    /// Number of `step` calls so far.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Apply one Adam update.
    ///
    /// `params_and_grads` pairs each registered parameter (by id) with its
    /// parameter matrix and gradient. Gradients are clipped jointly by
    /// global norm if configured.
    ///
    /// # Panics
    /// Panics if a gradient shape does not match the registered shape.
    pub fn step(&mut self, params_and_grads: &mut [(ParamId, &mut Matrix, &Matrix)]) {
        self.step_count += 1;
        let t = self.step_count as i32;

        let clip_scale = match self.config.clip_global_norm {
            Some(max_norm) => {
                let total_sq: f64 = params_and_grads
                    .iter()
                    .map(|(_, _, g)| g.as_slice().iter().map(|x| x * x).sum::<f64>())
                    .sum();
                let norm = total_sq.sqrt();
                if norm > max_norm && norm > 0.0 {
                    max_norm / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };

        let c = AdamCoeffs {
            clip_scale,
            beta1: self.config.beta1,
            beta2: self.config.beta2,
            bias1: 1.0 - self.config.beta1.powi(t),
            bias2: 1.0 - self.config.beta2.powi(t),
            learning_rate: self.config.learning_rate,
            epsilon: self.config.epsilon,
            weight_decay: self.config.weight_decay,
        };

        for (id, param, grad) in params_and_grads.iter_mut() {
            let m = &mut self.first_moments[id.0];
            let v = &mut self.second_moments[id.0];
            assert_eq!(m.shape(), grad.shape(), "Adam::step: gradient shape mismatch");
            assert_eq!(m.shape(), param.shape(), "Adam::step: parameter shape mismatch");
            kernels::run(AdamUpdate {
                c,
                m: m.as_mut_slice(),
                v: v.as_mut_slice(),
                p: param.as_mut_slice(),
                g: grad.as_slice(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = (x - 3)^2 should converge to x = 3.
    #[test]
    fn converges_on_quadratic() {
        let mut adam = Adam::new(AdamConfig { learning_rate: 0.1, ..Default::default() });
        let id = adam.register(1, 1);
        let mut x = Matrix::from_vec(1, 1, vec![-4.0]);
        for _ in 0..500 {
            let grad = Matrix::from_vec(1, 1, vec![2.0 * (x[(0, 0)] - 3.0)]);
            adam.step(&mut [(id, &mut x, &grad)]);
        }
        assert!((x[(0, 0)] - 3.0).abs() < 1e-3, "x = {}", x[(0, 0)]);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 1.0,
            clip_global_norm: Some(1.0),
            ..Default::default()
        });
        let id = adam.register(1, 2);
        let mut x = Matrix::zeros(1, 2);
        let grad = Matrix::from_vec(1, 2, vec![1e6, 1e6]);
        adam.step(&mut [(id, &mut x, &grad)]);
        // With clipping, the effective gradient has norm 1, so the Adam
        // update is bounded by roughly the learning rate.
        assert!(x.as_slice().iter().all(|&v| v.abs() <= 1.1), "{x:?}");
    }

    #[test]
    fn multiple_params_update_independently() {
        let mut adam = Adam::new(AdamConfig { learning_rate: 0.05, ..Default::default() });
        let id_a = adam.register(1, 1);
        let id_b = adam.register(1, 1);
        let mut a = Matrix::from_vec(1, 1, vec![0.0]);
        let mut b = Matrix::from_vec(1, 1, vec![0.0]);
        for _ in 0..800 {
            let ga = Matrix::from_vec(1, 1, vec![2.0 * (a[(0, 0)] - 1.0)]);
            let gb = Matrix::from_vec(1, 1, vec![2.0 * (b[(0, 0)] + 2.0)]);
            adam.step(&mut [(id_a, &mut a, &ga), (id_b, &mut b, &gb)]);
        }
        assert!((a[(0, 0)] - 1.0).abs() < 1e-2);
        assert!((b[(0, 0)] + 2.0).abs() < 1e-2);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 0.01,
            weight_decay: 0.5,
            clip_global_norm: None,
            ..Default::default()
        });
        let id = adam.register(1, 1);
        let mut x = Matrix::from_vec(1, 1, vec![10.0]);
        for _ in 0..2000 {
            // Zero loss gradient; only decay acts.
            let grad = Matrix::zeros(1, 1);
            adam.step(&mut [(id, &mut x, &grad)]);
        }
        assert!(x[(0, 0)].abs() < 1.0, "decay should shrink x, got {}", x[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let mut adam = Adam::new(AdamConfig::default());
        let id = adam.register(2, 2);
        let mut x = Matrix::zeros(2, 2);
        let grad = Matrix::zeros(1, 2);
        adam.step(&mut [(id, &mut x, &grad)]);
    }
}
