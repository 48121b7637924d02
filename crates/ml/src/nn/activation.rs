//! Element-wise activation functions and their derivatives.

use crate::kernels::{self, Activate, ScaleByDerivative};
use crate::matrix::Matrix;
use tasq_codec::Wire;

/// Element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Wire)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// `ln(1 + e^x)` — smooth, strictly positive; used for the
    /// sign-constrained PCC output heads.
    Softplus,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Pass-through.
    Identity,
}

impl Activation {
    /// Apply the activation to a scalar.
    #[inline]
    pub fn apply_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Softplus => softplus(x),
            Activation::Sigmoid => sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// Derivative with respect to the *pre-activation* input, expressed in
    /// terms of that input.
    #[inline]
    pub fn derivative_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            // d/dx softplus(x) = sigmoid(x)
            Activation::Softplus => sigmoid(x),
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Identity => 1.0,
        }
    }

    /// Apply element-wise to a matrix.
    pub fn apply(self, m: &Matrix) -> Matrix {
        m.map(|x| self.apply_scalar(x))
    }

    /// Element-wise derivative matrix given the pre-activation matrix.
    pub fn derivative(self, pre: &Matrix) -> Matrix {
        pre.map(|x| self.derivative_scalar(x))
    }

    /// `out = act(pre)`, reusing `out`'s allocation.
    pub fn apply_into(self, pre: &Matrix, out: &mut Matrix) {
        out.copy_from(pre);
        kernels::run(Activate { act: self, x: out.as_mut_slice() });
    }

    /// `d[i] *= act'(pre[i])`: the backward step
    /// `d.hadamard(&act.derivative(pre))` without its two temporaries.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn scale_by_derivative(self, pre: &Matrix, d: &mut Matrix) {
        assert_eq!(pre.shape(), d.shape(), "scale_by_derivative: shape mismatch");
        kernels::run(ScaleByDerivative { act: self, pre: pre.as_slice(), d: d.as_mut_slice() });
    }
}

/// Numerically stable softplus: `ln(1 + e^x)`.
#[inline]
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse of softplus: returns `x` such that `softplus(x) = y` for `y > 0`.
#[inline]
pub fn softplus_inverse(y: f64) -> f64 {
    debug_assert!(y > 0.0);
    if y > 30.0 {
        y
    } else {
        (y.exp() - 1.0).max(f64::MIN_POSITIVE).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_basics() {
        assert_eq!(Activation::Relu.apply_scalar(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(3.0), 3.0);
        assert_eq!(Activation::Relu.derivative_scalar(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative_scalar(1.0), 1.0);
    }

    #[test]
    fn softplus_is_positive_and_stable() {
        assert!(softplus(-100.0) >= 0.0);
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!((softplus(0.0) - 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn softplus_inverse_roundtrips() {
        for &y in &[0.01, 0.5, 1.0, 3.0, 40.0] {
            let x = softplus_inverse(y);
            assert!((softplus(x) - y).abs() < 1e-9, "y={y}");
        }
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[-5.0, -1.0, 0.0, 2.0, 7.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    /// Check each derivative against a central finite difference.
    #[test]
    fn derivatives_match_finite_differences() {
        let acts = [
            Activation::Relu,
            Activation::Tanh,
            Activation::Softplus,
            Activation::Sigmoid,
            Activation::Identity,
        ];
        let h = 1e-6;
        for act in acts {
            for &x in &[-2.3, -0.7, 0.4, 1.9] {
                let numeric = (act.apply_scalar(x + h) - act.apply_scalar(x - h)) / (2.0 * h);
                let analytic = act.derivative_scalar(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn matrix_apply_matches_scalar() {
        let m = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let out = Activation::Tanh.apply(&m);
        for (o, &x) in out.as_slice().iter().zip(m.as_slice()) {
            assert!((o - x.tanh()).abs() < 1e-15);
        }
    }
}
