//! The dense training kernels, compiled twice and picked at runtime.
//!
//! Each kernel is a struct of its operands whose [`Kernel::run`] holds
//! the loop, `#[inline(always)]`, so the loop is compiled into two arms:
//! once for the portable baseline target (SSE2, two `f64` lanes, on
//! `x86_64`) and once inside [`run_avx2`], a
//! `#[target_feature(enable = "avx2")]` function in which the same loop
//! vectorises over four lanes. [`run`] is the one dispatch: the AVX2 arm
//! when `is_x86_feature_detected!("avx2")` says the CPU has it (std
//! probes CPUID once per process and caches the answer), the portable
//! arm otherwise and on every other architecture. There is no knob.
//!
//! The two arms produce the same bits:
//! - every kernel vectorises across independent output elements (the
//!   columns of an output row, or the elements of a tensor); each element
//!   still adds its terms in the same `k` order, starting from `+0.0`,
//!   with the same exact-zero skips;
//! - IEEE `mul`, `add`, `div` and `sqrt` round the same in a ymm lane as
//!   in scalar code;
//! - rustc never contracts `a * b + c` into an FMA, the arm enables
//!   `avx2` only (not `fma`), and no kernel calls `mul_add`;
//! - serial reductions are not kernels here and stay serial: Adam's
//!   clip-norm sum of squares, and every `.sum()`.
//!
//! The tests below run every kernel on both arms and compare the bits.

use crate::nn::Activation;

/// A kernel: its operands, and the loop that runs over them.
pub(crate) trait Kernel {
    /// The loop. Every impl is `#[inline(always)]`, so the body is
    /// compiled into each arm rather than called from it.
    fn run(self);
}

/// Run `k` on the widest arm this CPU supports.
#[cfg(target_arch = "x86_64")]
#[expect(unsafe_code, reason = "the call into the AVX2 arm after runtime detection")]
pub(crate) fn run(k: impl Kernel) {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `run_avx2` needs the CPU to support AVX2, and the
        // detection above has just reported that it does.
        unsafe { run_avx2(k) }
    } else {
        k.run();
    }
}

/// Run `k` on the portable arm: the only one off `x86_64`.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn run(k: impl Kernel) {
    k.run();
}

/// The AVX2 arm: `k`'s loop, compiled for four-lane `f64` vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(k: impl Kernel) {
    k.run();
}

/// `out += a * b` for row-major `a` (`rows x a_cols`) and `b`
/// (`a_cols x b_cols`), `ikj` ordered so the inner loop streams a row of
/// `b` and a row of `out`. A zero in `a` skips its whole row of `b`.
pub(crate) struct Matmul<'a> {
    pub rows: usize,
    pub a: &'a [f64],
    pub a_cols: usize,
    pub b: &'a [f64],
    pub b_cols: usize,
    pub out: &'a mut [f64],
}

impl Kernel for Matmul<'_> {
    #[inline(always)]
    fn run(self) {
        let Matmul { rows, a, a_cols, b, b_cols, out } = self;
        for i in 0..rows {
            let out_row = &mut out[i * b_cols..(i + 1) * b_cols];
            for k in 0..a_cols {
                let x = a[i * a_cols + k];
                // Exact-zero skip: bit-identical results, just fewer
                // multiply-adds on sparse rows.
                if x == 0.0 {
                    continue;
                }
                let b_row = &b[k * b_cols..(k + 1) * b_cols];
                for (o, &y) in out_row.iter_mut().zip(b_row) {
                    *o += x * y;
                }
            }
        }
    }
}

/// `out += a^T * b` for row-major `a` (`rows x a_cols`) and `b`
/// (`rows x b_cols`), without materialising the transpose.
pub(crate) struct TMatmul<'a> {
    pub rows: usize,
    pub a: &'a [f64],
    pub a_cols: usize,
    pub b: &'a [f64],
    pub b_cols: usize,
    pub out: &'a mut [f64],
}

impl Kernel for TMatmul<'_> {
    #[inline(always)]
    fn run(self) {
        let TMatmul { rows, a, a_cols, b, b_cols, out } = self;
        for i in 0..rows {
            let a_row = &a[i * a_cols..(i + 1) * a_cols];
            let b_row = &b[i * b_cols..(i + 1) * b_cols];
            for (k, &x) in a_row.iter().enumerate() {
                // Exact-zero skip, as in `Matmul`.
                if x == 0.0 {
                    continue;
                }
                let out_row = &mut out[k * b_cols..(k + 1) * b_cols];
                for (o, &y) in out_row.iter_mut().zip(b_row) {
                    *o += x * y;
                }
            }
        }
    }
}

/// `y += alpha * x`, element-wise.
pub(crate) struct Axpy<'a> {
    pub y: &'a mut [f64],
    pub alpha: f64,
    pub x: &'a [f64],
}

impl Kernel for Axpy<'_> {
    #[inline(always)]
    fn run(self) {
        for (a, &b) in self.y.iter_mut().zip(self.x) {
            *a += self.alpha * b;
        }
    }
}

/// `x *= alpha`, element-wise.
pub(crate) struct Scale<'a> {
    pub x: &'a mut [f64],
    pub alpha: f64,
}

impl Kernel for Scale<'_> {
    #[inline(always)]
    fn run(self) {
        for x in self.x {
            *x *= self.alpha;
        }
    }
}

/// Add `row` to each of the `rows` rows of the row-major `m`.
pub(crate) struct AddRowBroadcast<'a> {
    pub rows: usize,
    pub m: &'a mut [f64],
    pub row: &'a [f64],
}

impl Kernel for AddRowBroadcast<'_> {
    #[inline(always)]
    fn run(self) {
        let cols = self.row.len();
        for r in 0..self.rows {
            for (x, &b) in self.m[r * cols..(r + 1) * cols].iter_mut().zip(self.row) {
                *x += b;
            }
        }
    }
}

/// `out[c] += m[r][c]` over the rows of the row-major `m`, in row order.
pub(crate) struct ColSums<'a> {
    pub m: &'a [f64],
    pub out: &'a mut [f64],
}

impl Kernel for ColSums<'_> {
    #[inline(always)]
    fn run(self) {
        for row in self.m.chunks_exact(self.out.len().max(1)) {
            for (s, &x) in self.out.iter_mut().zip(row) {
                *s += x;
            }
        }
    }
}

/// `x = act(x)`, element-wise.
pub(crate) struct Activate<'a> {
    pub act: Activation,
    pub x: &'a mut [f64],
}

impl Kernel for Activate<'_> {
    #[inline(always)]
    fn run(self) {
        for x in self.x {
            *x = self.act.apply_scalar(*x);
        }
    }
}

/// `d *= act'(pre)`, element-wise.
pub(crate) struct ScaleByDerivative<'a> {
    pub act: Activation,
    pub pre: &'a [f64],
    pub d: &'a mut [f64],
}

impl Kernel for ScaleByDerivative<'_> {
    #[inline(always)]
    fn run(self) {
        for (g, &x) in self.d.iter_mut().zip(self.pre) {
            *g *= self.act.derivative_scalar(x);
        }
    }
}

/// The scalars of one Adam step, shared by every tensor it updates.
#[derive(Clone, Copy)]
pub(crate) struct AdamCoeffs {
    /// Global-norm clipping factor for the gradients (1 when unclipped).
    pub clip_scale: f64,
    pub beta1: f64,
    pub beta2: f64,
    /// `1 - beta1^t` and `1 - beta2^t`.
    pub bias1: f64,
    pub bias2: f64,
    pub learning_rate: f64,
    pub epsilon: f64,
    pub weight_decay: f64,
}

/// One Adam update of a tensor `p` with gradient `g` and moments `m`, `v`.
pub(crate) struct AdamUpdate<'a> {
    pub c: AdamCoeffs,
    pub m: &'a mut [f64],
    pub v: &'a mut [f64],
    pub p: &'a mut [f64],
    pub g: &'a [f64],
}

impl Kernel for AdamUpdate<'_> {
    #[inline(always)]
    fn run(self) {
        let AdamUpdate { c, m, v, p, g } = self;
        let (b1, b2) = (c.beta1, c.beta2);
        // Zipped slices: one bounds check per tensor instead of five per
        // element.
        let moments = m.iter_mut().zip(v);
        let values = p.iter_mut().zip(g);
        for ((mi, vi), (p, &g)) in moments.zip(values) {
            let g = g * c.clip_scale;
            *mi = b1 * *mi + (1.0 - b1) * g;
            *vi = b2 * *vi + (1.0 - b2) * g * g;
            let m_hat = *mi / c.bias1;
            let v_hat = *vi / c.bias2;
            *p -= c.learning_rate * (m_hat / (v_hat.sqrt() + c.epsilon) + c.weight_decay * *p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Which compiled arm a test runs a kernel on.
    #[derive(Clone, Copy)]
    enum Arm {
        Portable,
        Avx2,
    }

    impl Arm {
        /// Run `k` on this arm; false if this CPU cannot run it.
        fn run(self, k: impl Kernel) -> bool {
            match self {
                Arm::Portable => {
                    k.run();
                    true
                }
                Arm::Avx2 => avx2_arm(k),
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[expect(unsafe_code, reason = "the call into the AVX2 arm after runtime detection")]
    fn avx2_arm(k: impl Kernel) -> bool {
        if !is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: the CPU has just reported AVX2.
        unsafe { run_avx2(k) };
        true
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn avx2_arm(_: impl Kernel) -> bool {
        false
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Run `kernel` on both arms, each from its own copy of `init`, and
    /// require the same bits. A CPU without AVX2 runs the portable arm
    /// alone and prints a note instead of failing.
    fn same_bits(what: &str, init: &[f64], kernel: impl Fn(Arm, &mut [f64]) -> bool) {
        let mut portable = init.to_vec();
        assert!(kernel(Arm::Portable, &mut portable));
        let mut avx2 = init.to_vec();
        if !kernel(Arm::Avx2, &mut avx2) {
            println!("note: this CPU lacks AVX2; only the portable arm of {what} ran");
            return;
        }
        assert_eq!(bits(&portable), bits(&avx2), "{what}: the arms disagree");
    }

    /// The kinds of values a training step feeds its kernels.
    #[derive(Clone, Copy, Debug)]
    enum Fill {
        Dense,
        /// ReLU output: about half the entries exactly `+0.0`.
        ReluSparse,
        /// `±0.0`, subnormals, and values whose products underflow.
        Edge,
    }

    fn random(rng: &mut StdRng, n: usize, fill: Fill) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let x: f64 = rng.gen_range(-2.0..2.0);
                match fill {
                    Fill::Dense => x,
                    Fill::ReluSparse => x.max(0.0),
                    Fill::Edge => match rng.gen_range(0..7) {
                        0 => -0.0,
                        1 => 0.0,
                        2 => x * f64::MIN_POSITIVE * 1e-3,
                        3 => x * 1e-160,
                        _ => x,
                    },
                }
            })
            .collect()
    }

    const ACTIVATIONS: [Activation; 5] = [
        Activation::Relu,
        Activation::Tanh,
        Activation::Softplus,
        Activation::Sigmoid,
        Activation::Identity,
    ];

    /// Every kernel, on both arms, to the bit: widths that leave a tail
    /// after the four-lane loop, one-row shapes as in serving inference,
    /// and dense, ReLU-sparse and `±0.0` / subnormal operands.
    #[test]
    fn avx2_and_portable_arms_agree_to_the_bit() {
        let mut rng = StdRng::seed_from_u64(0x6176_7832);
        for case in 0..180 {
            let (n, k, m) = match case {
                0 => (136, 64, 64),
                1 => (1, 64, 64),
                2 => (1, 7, 5),
                3 => (1, 1, 1),
                _ => (rng.gen_range(1..=40), rng.gen_range(1..=19), rng.gen_range(1..=19)),
            };
            let fill = [Fill::Dense, Fill::ReluSparse, Fill::Edge][case % 3];
            let what = |kernel: &str| format!("{kernel} {n}x{k}x{m} {fill:?}");
            let a = random(&mut rng, n * k, fill);
            let b = random(&mut rng, k * m, if case % 2 == 0 { Fill::Dense } else { fill });
            let d = random(&mut rng, n * m, fill);
            let zeros = |len: usize| vec![0.0; len];

            same_bits(&what("matmul"), &zeros(n * m), |arm, out| {
                arm.run(Matmul { rows: n, a: &a, a_cols: k, b: &b, b_cols: m, out })
            });
            same_bits(&what("t_matmul"), &zeros(k * m), |arm, out| {
                arm.run(TMatmul { rows: n, a: &a, a_cols: k, b: &d, b_cols: m, out })
            });
            let alpha = rng.gen_range(-2.0..2.0);
            let e = random(&mut rng, n * m, fill);
            same_bits(&what("axpy"), &d, |arm, y| arm.run(Axpy { y, alpha, x: &e }));
            same_bits(&what("scale"), &d, |arm, x| arm.run(Scale { x, alpha }));
            same_bits(&what("add_row_broadcast"), &d, |arm, mat| {
                arm.run(AddRowBroadcast { rows: n, m: mat, row: &b[..m] })
            });
            same_bits(&what("col_sums"), &zeros(m), |arm, out| {
                arm.run(ColSums { m: &d, out })
            });
            let pre = random(&mut rng, n * m, fill);
            for act in ACTIVATIONS {
                same_bits(&what(&format!("{act:?}")), &pre, |arm, x| {
                    arm.run(Activate { act, x })
                });
                same_bits(&what(&format!("{act:?}'")), &d, |arm, g| {
                    arm.run(ScaleByDerivative { act, pre: &pre, d: g })
                });
            }
        }
    }

    /// Adam's update on both arms, unclipped and clipped, over several
    /// steps so the moments carry state from one step into the next.
    #[test]
    fn adam_update_arms_agree_to_the_bit() {
        let mut rng = StdRng::seed_from_u64(0x6164_616d);
        for (case, clip_scale) in [1.0, 0.37, 1e-3].into_iter().enumerate() {
            for len in [1, 3, 4, 5, 13, 64 * 64 + 3] {
                let fill = [Fill::Dense, Fill::ReluSparse, Fill::Edge][(case + len) % 3];
                // m, v, p laid end to end in one buffer.
                let mut init = vec![0.0; 2 * len];
                init.extend(random(&mut rng, len, Fill::Dense));
                for t in 1..=4 {
                    let g = random(&mut rng, len, fill);
                    let c = AdamCoeffs {
                        clip_scale,
                        beta1: 0.9,
                        beta2: 0.999,
                        bias1: 1.0 - 0.9f64.powi(t),
                        bias2: 1.0 - 0.999f64.powi(t),
                        learning_rate: 1e-3,
                        epsilon: 1e-8,
                        weight_decay: if t % 2 == 0 { 0.0 } else { 1e-4 },
                    };
                    let step = |arm: Arm, state: &mut [f64]| {
                        let (m, rest) = state.split_at_mut(len);
                        let (v, p) = rest.split_at_mut(len);
                        arm.run(AdamUpdate { c, m, v, p, g: &g })
                    };
                    let what = format!("adam len {len} clip {clip_scale} t {t} {fill:?}");
                    same_bits(&what, &init, step);
                    assert!(step(Arm::Portable, &mut init));
                }
            }
        }
    }
}
