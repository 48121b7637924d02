//! The dense kernels of training and of one-row inference, compiled
//! three times and picked at runtime.
//!
//! Each kernel is a struct of its operands whose [`Kernel::run`] holds
//! the loop, `#[inline(always)]`, so the loop is compiled into three arms:
//! once for the portable baseline target (SSE2, two `f64` lanes, on
//! `x86_64`), once inside [`run_avx2`], a
//! `#[target_feature(enable = "avx2")]` function in which the same loop
//! vectorises over four lanes, and once inside [`run_avx512`], a
//! `#[target_feature(enable = "avx512f")]` function in which it
//! vectorises over eight. [`run`] is the one dispatch: the widest arm
//! `is_x86_feature_detected!` reports (std probes CPUID once per process
//! and caches the answer), the portable arm on a CPU with neither and on
//! every other architecture. There is no knob.
//!
//! The two products, [`Matmul`] and [`TMatmul`], first compact the
//! entries of `a` that feed an output row, dropping the `±0.0` ones
//! without a branch ([`Terms::compact`]), then add the kept terms into
//! the row held in registers, 32 columns a tile and narrower tiles of
//! 16, 8, 4, 2 and 1 for the rest, storing each tile once per list
//! rather than once per term ([`Terms::add_into`]). A one-row `TMatmul`,
//! an outer product, scatters the compacted row instead. [`ForwardRow`],
//! serving's NN inference, runs a whole network on one row in one call:
//! per layer the same compaction and tiles, then the bias and the
//! activation in place. [`Log1pThenDivide`], featurization's, runs glibc's
//! generic `log1p` ([`log1p`]) and a division in every lane, with
//! no branch and no call into libm.
//!
//! The three arms produce the same bits:
//! - every kernel vectorises across independent output elements (the
//!   columns of an output row, or the elements of a tensor); each element
//!   still adds its terms in ascending `k`, starting from its prior value
//!   (`+0.0` for a fresh product), and skips exactly the terms whose `a`
//!   entry is `±0.0`, whether the loop branches on it or compacts it
//!   away, and whether the running sum sits in a register or in memory;
//! - IEEE `mul`, `add`, `div` and `sqrt` round the same in a ymm or zmm
//!   lane as in scalar code, and so does `i32`-to-`f64` conversion (it is
//!   exact);
//! - integer operations on a float's bits (shifts, masks, adds,
//!   compares) and selects are exact in any lane width: a lane-wise
//!   select that keeps one of two computed values gives the value a
//!   branch would have taken, whatever the other lane computed (a NaN or
//!   infinity in a discarded path traps nowhere, since Rust runs with
//!   floating-point exceptions masked);
//! - rustc never contracts `a * b + c` into an FMA: neither arm enables
//!   `fma` by name, and although `avx512f` implies it (the instructions
//!   are there), LLVM only fuses when asked, and no kernel calls `mul_add`;
//! - serial reductions are not kernels here and stay serial: Adam's
//!   clip-norm sum of squares, and every `.sum()`.
//!
//! The tests below run every kernel on every arm the CPU has and compare
//! the bits; [`log1p`] is also held to a table of glibc's generic
//! `log1p` that reaches each of its paths, and to libm itself.

use crate::nn::{Activation, Linear};

/// A kernel: its operands, and the loop that runs over them.
pub(crate) trait Kernel {
    /// The loop. Every impl is `#[inline(always)]`, so the body is
    /// compiled into each arm rather than called from it.
    fn run(self);
}

/// Run `k` on the widest arm this CPU supports.
#[cfg(target_arch = "x86_64")]
#[expect(unsafe_code, reason = "the calls into the wide arms after runtime detection")]
pub(crate) fn run(k: impl Kernel) {
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: `run_avx512` needs the CPU to support AVX-512F (and
        // what it implies: AVX2, FMA, F16C), and the detection above has
        // just reported AVX-512F, which no CPU ships without the rest.
        unsafe { run_avx512(k) }
    } else if is_x86_feature_detected!("avx2") {
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

/// The AVX-512 arm: `k`'s loop, compiled for eight-lane `f64` vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512(k: impl Kernel) {
    k.run();
}

/// Output columns the widest tile of [`Terms::add_into`] accumulates in
/// registers across a whole compacted term list: 32 `f64`, four zmm on
/// the AVX-512 arm (eight ymm on AVX2).
const TILE: usize = 32;

/// Terms one compaction collects into its stack buffers before the tiles
/// consume them, so a kernel never allocates however long `k` is.
const CHUNK: usize = 64;

/// A compacted list of at most [`CHUNK`] terms: the entries of `a` that
/// feed one output row, in ascending `k`, with the `±0.0` ones left out,
/// each beside the offset of the row of `b` it multiplies.
struct Terms {
    xs: [f64; CHUNK],
    offsets: [usize; CHUNK],
    len: usize,
}

impl Terms {
    /// An empty list. Its buffers are zeroed once per kernel call and
    /// reused by every compaction.
    #[inline(always)]
    fn new() -> Terms {
        Terms { xs: [0.0; CHUNK], offsets: [0; CHUNK], len: 0 }
    }

    /// Replace the list with the first [`CHUNK`] entries of `xs` that are
    /// not `±0.0`; the `j`-th entry multiplies the row of `b` at
    /// `offset + j * step`. Branch-free: every entry is written, and the
    /// count only advances past a kept one, so the next write overwrites
    /// a skipped entry. `x != 0.0` is exactly `!(x == 0.0)`: it skips
    /// `±0.0` and keeps NaN.
    #[inline(always)]
    fn compact(&mut self, xs: impl Iterator<Item = f64>, mut offset: usize, step: usize) {
        self.len = 0;
        for x in xs.take(CHUNK) {
            // `len` is at most the number of entries read before this
            // one, so below `CHUNK`; the mask lets the compiler see it.
            let slot = self.len % CHUNK;
            self.xs[slot] = x;
            self.offsets[slot] = offset;
            self.len += usize::from(x != 0.0);
            offset += step;
        }
    }

    /// `out_row += a_row * b` for row-major `b` (`a_row.len() x
    /// out_row.len()`): `a_row` compacted [`CHUNK`] entries at a time, and
    /// each chunk's terms added into the row in registers.
    #[inline(always)]
    fn product_row(&mut self, a_row: &[f64], b: &[f64], out_row: &mut [f64]) {
        let b_cols = out_row.len();
        for (c, chunk) in a_row.chunks(CHUNK).enumerate() {
            self.compact(chunk.iter().copied(), c * CHUNK * b_cols, b_cols);
            self.add_into(b, out_row);
        }
    }

    /// `out_row[j] += x * b[offset + j]` for each term, in list order,
    /// with the whole row in registers: each [`TILE`] columns, then at
    /// most one tile each of 16, 8, 4, 2 and 1 columns for what is left,
    /// every tile loaded and stored once for the whole list.
    #[inline(always)]
    fn add_into(&self, b: &[f64], out_row: &mut [f64]) {
        if self.len == 0 {
            return;
        }
        let tiled = out_row.len() - out_row.len() % TILE;
        let (tiles, mut tail) = out_row.split_at_mut(tiled);
        for (t, tile) in tiles.chunks_exact_mut(TILE).enumerate() {
            self.add_tile::<TILE>(b, t * TILE, tile);
        }
        let mut col = tiled;
        self.add_narrow::<16>(b, &mut col, &mut tail);
        self.add_narrow::<8>(b, &mut col, &mut tail);
        self.add_narrow::<4>(b, &mut col, &mut tail);
        self.add_narrow::<2>(b, &mut col, &mut tail);
        self.add_narrow::<1>(b, &mut col, &mut tail);
    }

    /// The terms into the first `W` columns of `tail`, which start at
    /// output column `col`, if `tail` has that many; then step past them.
    #[inline(always)]
    fn add_narrow<const W: usize>(&self, b: &[f64], col: &mut usize, tail: &mut &mut [f64]) {
        if tail.len() >= W {
            let (tile, rest) = std::mem::take(tail).split_at_mut(W);
            self.add_tile::<W>(b, *col, tile);
            *tail = rest;
            *col += W;
        }
    }

    /// The terms into `tile`, the `W` output columns from `col` on, held
    /// in a `[f64; W]` from the load to the store.
    #[inline(always)]
    fn add_tile<const W: usize>(&self, b: &[f64], col: usize, tile: &mut [f64]) {
        let mut acc = [0.0; W];
        acc.copy_from_slice(tile);
        for (&x, &offset) in self.xs[..self.len].iter().zip(&self.offsets[..self.len]) {
            for (o, &y) in acc.iter_mut().zip(&b[offset + col..][..W]) {
                *o += x * y;
            }
        }
        tile.copy_from_slice(&acc);
    }

    /// `out[offset + j] += x * b_row[j]` for each term: one row of `b`
    /// into a different output row per term, in place.
    #[inline(always)]
    fn scatter_into(&self, b_row: &[f64], out: &mut [f64]) {
        for (&x, &offset) in self.xs[..self.len].iter().zip(&self.offsets[..self.len]) {
            for (o, &y) in out[offset..][..b_row.len()].iter_mut().zip(b_row) {
                *o += x * y;
            }
        }
    }
}

/// `out += a * b` for row-major `a` (`rows x a_cols`) and `b`
/// (`a_cols x b_cols`). Each row of `a` is compacted [`CHUNK`] entries at
/// a time ([`Terms::compact`]), and each tile of the output row adds the
/// kept terms' rows of `b` in registers ([`Terms::add_into`]). A `±0.0`
/// in `a` skips its whole row of `b`, and each output element adds its
/// terms in ascending `k`, starting from its prior value.
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
        let mut terms = Terms::new();
        for i in 0..rows {
            let a_row = &a[i * a_cols..(i + 1) * a_cols];
            terms.product_row(a_row, b, &mut out[i * b_cols..(i + 1) * b_cols]);
        }
    }
}

/// One row through a whole network: for each layer in turn,
/// `row = act(input * W + b)`, where `input` is `x` for the first layer
/// and the previous layer's row after it. The hidden rows ping-pong
/// between the two halves of `scratch`, and the last layer writes `out`,
/// so nothing is allocated. Each layer's row starts at `+0.0`, adds its
/// terms as [`Matmul`] does (the `±0.0` entries of `input` skipped, the
/// rest in ascending `k`), then its bias, then the activation: the bits
/// of the batch path's [`Matmul`], [`AddRowBroadcast`] and [`Activate`]
/// on a one-row batch.
pub(crate) struct ForwardRow<'a> {
    pub layers: &'a [Linear],
    pub hidden: Activation,
    pub output: Activation,
    pub x: &'a [f64],
    /// Two rows, end to end, each as wide as the widest hidden layer.
    pub scratch: &'a mut [f64],
    pub out: &'a mut [f64],
}

impl Kernel for ForwardRow<'_> {
    #[inline(always)]
    fn run(self) {
        let ForwardRow { layers, hidden, output, x, scratch, out } = self;
        let half = scratch.len() / 2;
        let (mut input, mut next) = scratch.split_at_mut(half);
        let mut terms = Terms::new();
        for (i, layer) in layers.iter().enumerate() {
            let from: &[f64] = if i == 0 { x } else { &input[..layer.in_dim()] };
            let (act, row) = if i + 1 == layers.len() {
                (output, &mut *out)
            } else {
                (hidden, &mut next[..layer.out_dim()])
            };
            row.fill(0.0);
            terms.product_row(from, layer.weight.as_slice(), row);
            for (o, &b) in row.iter_mut().zip(layer.bias.as_slice()) {
                *o = act.apply_scalar(*o + b);
            }
            std::mem::swap(&mut input, &mut next);
        }
    }
}

/// `out += a^T * b` for row-major `a` (`rows x a_cols`) and `b`
/// (`rows x b_cols`), without materialising the transpose. Output row
/// `k` is column `k` of `a` times `b`: the column is compacted and the
/// output row tiled as in [`Matmul`], so each output element adds its
/// terms in ascending row of `a`, skipping the `±0.0` ones. A one-row
/// `a` (the weight gradient of a one-row layer) is an outer product:
/// each output row gets at most one term, so nothing can stay in
/// registers, and the row of `a` is compacted once and scattered
/// instead ([`Terms::scatter_into`]), which on that shape costs half
/// what a compaction and a tile per column would.
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
        let mut terms = Terms::new();
        if rows == 1 {
            for (c, chunk) in a[..a_cols].chunks(CHUNK).enumerate() {
                terms.compact(chunk.iter().copied(), c * CHUNK * b_cols, b_cols);
                terms.scatter_into(&b[..b_cols], out);
            }
            return;
        }
        for k in 0..a_cols {
            let out_row = &mut out[k * b_cols..(k + 1) * b_cols];
            for i0 in (0..rows).step_by(CHUNK) {
                let column = (i0..rows).map(|i| a[i * a_cols + k]);
                terms.compact(column, i0 * b_cols, b_cols);
                terms.add_into(b, out_row);
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

/// `ln(2)` split in two, [`log1p`]'s `ln2_hi` and `ln2_lo`: `k ·
/// LN2_HI` is exact for the exponents a double reaches.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `Lp1` to `Lp7`, the minimax polynomial of [`log1p`].
const LP: [f64; 7] = [
    f64::from_bits(0x3fe5_5555_5555_5593),
    f64::from_bits(0x3fd9_9999_9997_fa04),
    f64::from_bits(0x3fd2_4924_9422_9359),
    f64::from_bits(0x3fcc_71c5_1d8e_78af),
    f64::from_bits(0x3fc7_4664_96cb_03de),
    f64::from_bits(0x3fc3_9a09_d078_c69f),
    f64::from_bits(0x3fc2_f112_df3e_5244),
];
/// The `2/3` of the `|f| < 2^-20` path, `0.66666666666666666` rounded.
const TWO_THIRDS: f64 = f64::from_bits(0x3fe5_5555_5555_5555);

/// The high 32 bits of `x`, signed, as fdlibm's `GET_HIGH_WORD`.
#[inline(always)]
fn high_word(x: f64) -> i32 {
    (x.to_bits() >> 32) as u32 as i32
}

/// `x` with its high 32 bits replaced by `hi`, as fdlibm's `SET_HIGH_WORD`.
#[inline(always)]
fn with_high_word(x: f64, hi: i32) -> f64 {
    f64::from_bits((u64::from(hi as u32) << 32) | (x.to_bits() & 0xffff_ffff))
}

/// `ln(1 + x)`: glibc 2.36's generic `log1p` (fdlibm's algorithm, its
/// polynomial grouped `R1 + z2·R2 + z4·R3 + z6·R4`, the variant glibc's
/// IFUNC resolver picks on a CPU without FMA), to the bit on every input
/// but a NaN's payload, computed here rather than in libm. It is the one
/// lane of [`log1p_then_divide`], written without a branch so that a
/// loop of it vectorises. Every lane computes each path and keeps one
/// with selects, checked in the reverse of the C code's order so the
/// first test that matches there wins here: `x ≤ −1`,
/// `|x| < 2^-29` (`|x| < 2^-54` returns `x`), NaN and `+inf`, then the
/// reduced argument's `|f| < 2^-20` (`hu == 0`) or polynomial path, with
/// `k = 0` for `−0.2929 < x < 0.41422`, `1 + x = 2^k · u` below `2^53`
/// and `x = 2^k · u` from there on. Only IEEE `+ − × ÷`, integer
/// operations on the bits and selects: no `mul_add`.
#[inline(always)]
pub fn log1p(x: f64) -> f64 {
    let hx = high_word(x);
    let ax = hx & 0x7fff_ffff;
    // `1 + x = 2^k · u` (`x` itself from 2^53 on), with a correction `c`
    // for the rounding of `1 + x`.
    let huge = hx >= 0x4340_0000;
    let u = if huge { x } else { 1.0 + x };
    let hu = high_word(u);
    let k = (hu >> 20) - 1023;
    let c = if k > 0 { 1.0 - (u - x) } else { x - (u - 1.0) } / u;
    let c = if huge { 0.0 } else { c };
    // Normalise `u` into `[sqrt(2)/2, sqrt(2))`.
    let hu = hu & 0x000f_ffff;
    let below = hu < 0x6a09e;
    let u = with_high_word(u, hu | if below { 0x3ff0_0000 } else { 0x3fe0_0000 });
    let k = if below { k } else { k + 1 };
    let hu = if below { hu } else { (0x0010_0000 - hu) >> 2 };
    // `−0.2929 < x < 0.41422` is its own reduced argument, with `k = 0`.
    // glibc keeps fdlibm's first bound, high word `0xbfd2bec3`; later
    // fdlibm derivatives use `0xbfd2bec4` and round differently there.
    let unreduced = hx < 0x3fda_827a && (hx > 0 || hx <= 0xbfd2_bec3_u32 as i32);
    let (k, f, hu) = if unreduced { (0, x, 1) } else { (k, u - 1.0, hu) };

    let dk = f64::from(k);
    let hfsq = 0.5 * f * f;
    // `|f| < 2^-20`.
    let r = hfsq * (1.0 - TWO_THIRDS * f);
    let near = if k == 0 { f - r } else { dk * LN2_HI - ((r - (dk * LN2_LO + c)) - f) };
    let exact = if k == 0 { 0.0 } else { dk * LN2_HI + (c + dk * LN2_LO) };
    let near = if f == 0.0 { exact } else { near };
    // The polynomial.
    let s = f / (2.0 + f);
    let z = s * s;
    let r1 = z * LP[0];
    let z2 = z * z;
    let r2 = LP[1] + z * LP[2];
    let z4 = z2 * z2;
    let r3 = LP[3] + z * LP[4];
    let z6 = z4 * z2;
    let r4 = LP[5] + z * LP[6];
    let r = r1 + z2 * r2 + z4 * r3 + z6 * r4;
    let far = if k == 0 {
        f - (hfsq - s * (hfsq + r))
    } else {
        dk * LN2_HI - ((hfsq - (s * (hfsq + r) + (dk * LN2_LO + c))) - f)
    };
    let y = if hu == 0 { near } else { far };
    // The paths the C code takes before the reduction.
    let y = if hx >= 0x7ff0_0000 { x + x } else { y };
    let small = if ax < 0x3c90_0000 { x } else { x - x * x * 0.5 };
    let y = if ax < 0x3e20_0000 { small } else { y };
    let minus_one = x.to_bits() == (-1.0f64).to_bits();
    #[expect(clippy::eq_op, reason = "fdlibm's NaN: the bits the hardware gives `0/0` or `x` NaN")]
    let pole = if minus_one { f64::NEG_INFINITY } else { (x - x) / (x - x) };
    if hx < 0 && ax >= 0x3ff0_0000 {
        pole
    } else {
        y
    }
}

/// `logs[i] = log1p(logs[i]) / divisor` and `plain[i] = plain[i] /
/// divisor`, lane-wise on the widest arm this CPU has: featurize's
/// per-operator means, one division and (for the continuous inputs) one
/// [`log1p`] each. Every lane gets the bits [`log1p`] and `/` give it
/// alone.
pub fn log1p_then_divide(logs: &mut [f64], plain: &mut [f64], divisor: f64) {
    run(Log1pThenDivide { logs, plain, divisor });
}

/// [`log1p_then_divide`]'s operands.
pub(crate) struct Log1pThenDivide<'a> {
    pub logs: &'a mut [f64],
    pub plain: &'a mut [f64],
    pub divisor: f64,
}

impl Kernel for Log1pThenDivide<'_> {
    #[inline(always)]
    fn run(self) {
        for x in self.logs {
            *x = log1p(*x) / self.divisor;
        }
        for x in self.plain {
            *x /= self.divisor;
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
    #[derive(Clone, Copy, Debug)]
    enum Arm {
        Portable,
        Avx2,
        Avx512,
    }

    /// The arms compared against the portable one.
    const WIDE: [Arm; 2] = [Arm::Avx2, Arm::Avx512];

    impl Arm {
        /// Run `k` on this arm; false if this CPU cannot run it.
        #[cfg(target_arch = "x86_64")]
        #[expect(unsafe_code, reason = "the calls into the wide arms after runtime detection")]
        fn run(self, k: impl Kernel) -> bool {
            match self {
                Arm::Portable => k.run(),
                Arm::Avx2 if is_x86_feature_detected!("avx2") => {
                    // SAFETY: the CPU has just reported AVX2.
                    unsafe { run_avx2(k) }
                }
                Arm::Avx512 if is_x86_feature_detected!("avx512f") => {
                    // SAFETY: the CPU has just reported AVX-512F, which no
                    // CPU ships without the AVX2, FMA and F16C it implies.
                    unsafe { run_avx512(k) }
                }
                Arm::Avx2 | Arm::Avx512 => return false,
            }
            true
        }

        /// Run `k` on this arm; false if this CPU cannot run it.
        #[cfg(not(target_arch = "x86_64"))]
        fn run(self, k: impl Kernel) -> bool {
            let portable = matches!(self, Arm::Portable);
            if portable {
                k.run();
            }
            portable
        }

        /// Whether this CPU can run the arm.
        fn available(self) -> bool {
            self.run(Scale { x: &mut [], alpha: 1.0 })
        }
    }

    /// Print which arms `test` compares: the log of a run says which
    /// ones this CPU had, and a missing arm is a note, not a failure.
    fn announce_arms(test: &str) {
        let (ran, missing): (Vec<Arm>, Vec<Arm>) = WIDE.into_iter().partition(|a| a.available());
        println!("{test}: comparing the portable arm with {ran:?}");
        for arm in missing {
            println!("note: this CPU lacks {arm:?}; {test} skips that arm");
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Run `kernel` on every arm, each from its own copy of `init`, and
    /// require the same bits as the portable arm. An arm this CPU lacks
    /// is skipped ([`announce_arms`] has said so).
    fn same_bits(what: &str, init: &[f64], kernel: impl Fn(Arm, &mut [f64]) -> bool) {
        let mut portable = init.to_vec();
        assert!(kernel(Arm::Portable, &mut portable));
        for arm in WIDE {
            let mut wide = init.to_vec();
            if kernel(arm, &mut wide) {
                assert_eq!(bits(&portable), bits(&wide), "{what}: {arm:?} disagrees with portable");
            }
        }
    }

    /// [`same_bits`], and the portable result is finite: every arm
    /// skipped the non-finite operands that only exact zeros reach.
    fn same_finite_bits(what: &str, init: &[f64], kernel: impl Fn(Arm, &mut [f64]) -> bool) {
        same_bits(what, init, &kernel);
        let mut out = init.to_vec();
        assert!(kernel(Arm::Portable, &mut out));
        assert!(out.iter().all(|v| v.is_finite()), "{what}: a zero of `a` met a poisoned row");
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

    /// Every kernel, on every arm (the name predates the AVX-512 one),
    /// to the bit: widths that leave a tail after the four- and the
    /// eight-lane loop (9, 15, and 49, the GNN's first-layer width),
    /// widths of 0, 1 and 2 32-wide tiles of the products, each with and
    /// without narrow tiles after it (31, 32, 33, 64, 97), inner lengths across the
    /// 64-entry compaction chunk (65, 130), one-row shapes as in serving
    /// inference, and dense, ReLU-sparse and `±0.0` / subnormal operands.
    /// The products also run with `±inf` / NaN in the rows of `b` that
    /// only exact zeros of `a` reach, where skipping a term and
    /// multiplying it by zero differ: every arm must still give finite
    /// results.
    #[test]
    fn avx2_and_portable_arms_agree_to_the_bit() {
        announce_arms("avx2_and_portable_arms_agree_to_the_bit");
        let mut rng = StdRng::seed_from_u64(0x6176_7832);
        for case in 0..200 {
            let (n, k, m) = match case {
                0 => (136, 64, 64),
                1 => (1, 64, 64),
                2 => (1, 7, 5),
                3 => (1, 1, 1),
                4 => (1, 49, 9),
                5 => (3, 9, 15),
                6 => (17, 15, 49),
                7 => (9, 49, 49),
                8 => (2, 65, 31),
                9 => (3, 130, 32),
                10 => (1, 65, 33),
                11 => (4, 130, 64),
                12 => (2, 20, 97),
                13 => (65, 9, 33),
                14 => (130, 4, 97),
                15 => (9, 64, 31),
                16 => (5, 33, 64),
                17 => (1, 130, 97),
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

            // Column `unit` of `a` and row `node` of `a` exactly `±0.0`;
            // the row of `b` only column `unit` reaches, and the row of
            // `d` only row `node` reaches, non-finite.
            let (unit, node) = (case % k, case % n);
            let poison = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            let mut a0 = a.clone();
            for (r, row) in a0.chunks_exact_mut(k).enumerate() {
                row[unit] = if r % 2 == 0 { 0.0 } else { -0.0 };
                if r == node {
                    row.fill(-0.0);
                }
            }
            let (mut b0, mut d0) = (b.clone(), d.clone());
            for (c, v) in b0[unit * m..(unit + 1) * m].iter_mut().enumerate() {
                *v = poison[c % 3];
            }
            for (c, v) in d0[node * m..(node + 1) * m].iter_mut().enumerate() {
                *v = poison[(c + 1) % 3];
            }
            same_finite_bits(&what("poisoned matmul"), &zeros(n * m), |arm, out| {
                arm.run(Matmul { rows: n, a: &a0, a_cols: k, b: &b0, b_cols: m, out })
            });
            same_finite_bits(&what("poisoned t_matmul"), &zeros(k * m), |arm, out| {
                arm.run(TMatmul { rows: n, a: &a0, a_cols: k, b: &d0, b_cols: m, out })
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

    /// The one-row forward on every arm, to the bit: networks of one and
    /// of three layers whose widths run over {1, 2, 3, 15, 16, 17, 31,
    /// 32, 33, 64, 65} (every narrow tile, alone and after 32-wide ones)
    /// on inputs of 51, 65 and 130 entries (one and two compaction
    /// chunks), dense, ReLU-sparse and with `±0.0` and subnormals. The
    /// weight rows only exact zeros reach are `±inf` / NaN: those of the
    /// input's zeros, and those of one hidden unit per layer whose weight
    /// column and bias are zero, so that ReLU, tanh and the identity all
    /// make it exactly `+0.0`. Every arm must still give finite results.
    #[test]
    fn one_row_forward_arms_agree_to_the_bit() {
        use crate::matrix::Matrix;
        announce_arms("one_row_forward_arms_agree_to_the_bit");
        const WIDTHS: [usize; 11] = [1, 2, 3, 15, 16, 17, 31, 32, 33, 64, 65];
        let poison = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut rng = StdRng::seed_from_u64(0x726f_7731);
        for (case, n_in) in [51, 65, 130].into_iter().enumerate() {
            for (w, &width) in WIDTHS.iter().enumerate() {
                let all = [n_in, width, WIDTHS[(w + 4) % 11], WIDTHS[(w + 7) % 11]];
                for sizes in [&all[..2], &all[..]] {
                    let fill = [Fill::Dense, Fill::ReluSparse, Fill::Edge][(case + w) % 3];
                    let hidden = [Activation::Relu, Activation::Tanh, Activation::Identity][w % 3];
                    let output = ACTIVATIONS[(case + w) % ACTIVATIONS.len()];
                    let x = random(&mut rng, n_in, fill);
                    let mut layers: Vec<Linear> = sizes
                        .windows(2)
                        .map(|p| {
                            let weight = random(&mut rng, p[0] * p[1], fill);
                            let bias = random(&mut rng, p[1], Fill::Dense);
                            Linear {
                                weight: Matrix::from_vec(p[0], p[1], weight),
                                bias: Matrix::from_vec(1, p[1], bias),
                            }
                        })
                        .collect();
                    // The rows of the first weight matrix the input's zeros reach.
                    let first = layers[0].weight.as_mut_slice();
                    for (k, _) in x.iter().enumerate().filter(|(_, v)| **v == 0.0) {
                        for (c, v) in first[k * width..(k + 1) * width].iter_mut().enumerate() {
                            *v = poison[(k + c) % 3];
                        }
                    }
                    // One dead unit per hidden layer, and the row it reaches.
                    for l in 0..layers.len() - 1 {
                        let cols = layers[l].out_dim();
                        let dead = (case + w + l) % cols;
                        for row in layers[l].weight.as_mut_slice().chunks_exact_mut(cols) {
                            row[dead] = 0.0;
                        }
                        layers[l].bias.as_mut_slice()[dead] = 0.0;
                        let next = layers[l + 1].out_dim();
                        let reached = &mut layers[l + 1].weight.as_mut_slice()[dead * next..];
                        for (c, v) in reached[..next].iter_mut().enumerate() {
                            *v = poison[(l + c) % 3];
                        }
                    }
                    let widest = sizes[1..sizes.len() - 1].iter().max().copied().unwrap_or(0);
                    let what = format!("forward_row {sizes:?} {hidden:?} -> {output:?} {fill:?}");
                    let out_dim = sizes[sizes.len() - 1];
                    same_finite_bits(&what, &vec![0.0; out_dim], |arm, out| {
                        let scratch = &mut vec![0.0; 2 * widest];
                        arm.run(ForwardRow { layers: &layers, hidden, output, x: &x, scratch, out })
                    });
                }
            }
        }
    }

    /// Adam's update on every arm, unclipped and clipped, over several
    /// steps so the moments carry state from one step into the next.
    #[test]
    fn adam_update_arms_agree_to_the_bit() {
        announce_arms("adam_update_arms_agree_to_the_bit");
        let mut rng = StdRng::seed_from_u64(0x6164_616d);
        for (case, clip_scale) in [1.0, 0.37, 1e-3].into_iter().enumerate() {
            for len in [1, 3, 4, 5, 9, 13, 15, 49, 64 * 64 + 3] {
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

    /// `(x, log1p(x))` bits of glibc 2.36's generic `log1p`, recorded from
    /// `f64::ln_1p` with glibc forced onto that variant
    /// (`GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2`), on inputs that
    /// reach every path: `±0.0` and subnormals, either side of `2^-54`,
    /// `2^-29` and the `0x3fda827a` (0.41422) boundary, of the `0x6a09e`
    /// normalisation boundary at two exponents, `2^k − 1` and its
    /// neighbours (`u` a power of two: `f == 0` or `hu == 0`), `hu == 0`
    /// with `f != 0` on either side of a power of two, either side of
    /// `2^53`, `1e300`, `f64::MAX` and `+inf`, typical plan magnitudes,
    /// and the negative paths down to `-1` (`-inf`) and below (NaN).
    const LOG1P_GOLDEN: [(u64, u64); 70] = [
        (0x0000000000000000, 0x0000000000000000), // 0e0
        (0x8000000000000000, 0x8000000000000000), // -0e0
        (0x0000000000000001, 0x0000000000000001), // 5e-324
        (0x0008000000000000, 0x0008000000000000), // 1.1125369292536007e-308
        (0x000fffffffffffff, 0x000fffffffffffff), // 2.225073858507201e-308
        (0x0010000000000000, 0x0010000000000000), // 2.2250738585072014e-308
        (0x3c8fffffffffffff, 0x3c8fffffffffffff), // 5.551115123125782e-17
        (0x3c90000000000000, 0x3c90000000000000), // 5.551115123125783e-17
        (0x3c90000000000001, 0x3c90000000000001), // 5.551115123125784e-17
        (0x3e1fffffffffffff, 0x3e1fffffff7fffff), // 1.8626451492309568e-9
        (0x3e20000000000000, 0x3e1fffffff800000), // 1.862645149230957e-9
        (0x3e20000000000001, 0x3e1fffffff800002), // 1.8626451492309574e-9
        (0x3fda8279ffffffff, 0x3fd62e43471c5d9d), // 4.1421365737915034e-1
        (0x3fda827a00000000, 0x3fd62e43471c5d9e), // 4.142136573791504e-1
        (0x3fda827a00000001, 0x3fd62e43471c5d9f), // 4.1421365737915045e-1
        (0x3fda8277fffffffc, 0x3fd62e41dd1274cb), // 4.1421318054199197e-1
        (0x3fda827800000000, 0x3fd62e41dd1274ce), // 4.142131805419922e-1
        (0x3fda827800000004, 0x3fd62e41dd1274d1), // 4.142131805419924e-1
        (0x3ffd413bfffffffe, 0x3ff0a2b1f6c1ba2a), // 1.828426361083984e0
        (0x3ffd413c00000000, 0x3ff0a2b1f6c1ba2b), // 1.8284263610839844e0
        (0x3fefffffffffffff, 0x3fe62e42fefa39ef), // 9.999999999999999e-1
        (0x3ff0000000000000, 0x3fe62e42fefa39ef), // 1e0
        (0x3ff0000000000001, 0x3fe62e42fefa39f0), // 1.0000000000000002e0
        (0x4007ffffffffffff, 0x3ff62e42fefa39ef), // 2.9999999999999996e0
        (0x4008000000000000, 0x3ff62e42fefa39ef), // 3e0
        (0x4008000000000001, 0x3ff62e42fefa39f0), // 3.0000000000000004e0
        (0x401bffffffffffff, 0x4000a2b23f3bab73), // 6.999999999999999e0
        (0x401c000000000000, 0x4000a2b23f3bab73), // 7e0
        (0x401c000000000001, 0x4000a2b23f3bab74), // 7.000000000000001e0
        (0x408ff7ffffffffff, 0x401bb9d3beb8c86b), // 1.0229999999999999e3
        (0x408ff80000000000, 0x401bb9d3beb8c86b), // 1.023e3
        (0x408ff80000000001, 0x401bb9d3beb8c86b), // 1.0230000000000001e3
        (0x412ffffdffffffff, 0x402bb9d3beb8c86b), // 1.0485749999999999e6
        (0x412ffffe00000000, 0x402bb9d3beb8c86b), // 1.048575e6
        (0x412ffffe00000001, 0x402bb9d3beb8c86b), // 1.0485750000000001e6
        (0x413ffffeffffffff, 0x402d1cb7eea86c0a), // 2.0971509999999998e6
        (0x413fffff00000000, 0x402d1cb7eea86c0a), // 2.097151e6
        (0x413fffff00000001, 0x402d1cb7eea86c0a), // 2.0971510000000002e6
        (0x426fffffffffdfff, 0x403bb9d3beb8c86b), // 1.0995116277749999e12
        (0x426fffffffffe000, 0x403bb9d3beb8c86b), // 1.099511627775e12
        (0x426fffffffffe001, 0x403bb9d3beb8c86b), // 1.0995116277750001e12
        (0x432ffffffffffffd, 0x404205966f2b4f12), // 4.5035996273704945e15
        (0x432ffffffffffffe, 0x404205966f2b4f12), // 4.503599627370495e15
        (0x432fffffffffffff, 0x404205966f2b4f12), // 4.5035996273704955e15
        (0x3ff0000004000000, 0x3fe62e4302fa39ef), // 1.0000000149011612e0
        (0x3fefffff80000000, 0x3fe62e42befa39af), // 9.999997615814209e-1
        (0x4008000010000000, 0x3ff62e4306fa39ed), // 3.0000001192092896e0
        (0x3ee4f8b588e368f1, 0x3ee4f8aea9ae7317), // 1e-5
        (0x433fffffffffffff, 0x40425e4f7b2737fa), // 9.007199254740991e15
        (0x4340000000000000, 0x40425e4f7b2737fa), // 9.007199254740992e15
        (0x4340000000000001, 0x40425e4f7b2737fa), // 9.007199254740994e15
        (0x43b0000000000000, 0x4044cb5ecf0a9650), // 1.152921504606847e18
        (0x412e848000000000, 0x402ba18abb1dedc8), // 1e6
        (0x7e37e43c8800759c, 0x4085963447f87fb5), // 1e300
        (0x7fefffffffffffff, 0x40862e42fefa39ef), // 1.7976931348623157e308
        (0x7ff0000000000000, 0x7ff0000000000000), // inf
        (0x3fe0000000000000, 0x3fd9f323ecbf984c), // 5e-1
        (0x4059000000000000, 0x401275e2271bba31), // 1e2
        (0x4020cccccccccccd, 0x4001ecf9339a2a1d), // 8.4e0
        (0x81a56e1fc2f8f359, 0x81a56e1fc2f8f359), // -1e-300
        (0xbe20000000000000, 0xbe20000000400000), // -1.862645149230957e-9
        (0xbfb999999999999a, 0xbfbaf8e8210a415e), // -1e-1
        (0xbfd2bec400000000, 0xbfd62e4420e1ff10), // -2.928934097290039e-1
        (0xbfd2bec400000001, 0xbfd62e4420e1ff10), // -2.9289340972900396e-1
        (0xbfd2bec3ffffffff, 0xbfd62e4420e1ff0f), // -2.9289340972900385e-1
        (0xbfe0000000000000, 0xbfe62e42fefa39ef), // -5e-1
        (0xbfefffffffffffff, 0xc0425e4f7b2737fa), // -9.999999999999999e-1
        (0xbff0000000000000, 0xfff0000000000000), // -1e0
        (0xc000000000000000, 0xfff8000000000000), // -2e0
        (0xfff0000000000000, 0xfff8000000000000), // -inf
    ];

    /// The same bits, or both NaN (a NaN's payload is the hardware's).
    fn same_value(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// [`log1p`] and [`Log1pThenDivide`] on every arm (dividing by 1,
    /// which is exact) give glibc's generic `log1p` on every path.
    #[test]
    fn log1p_matches_glibc_generic_on_every_path_and_arm() {
        announce_arms("log1p_matches_glibc_generic_on_every_path_and_arm");
        let xs: Vec<f64> = LOG1P_GOLDEN.iter().map(|&(x, _)| f64::from_bits(x)).collect();
        for (&x, &(_, want)) in xs.iter().zip(&LOG1P_GOLDEN) {
            let got = log1p(x);
            let want = f64::from_bits(want);
            assert!(same_value(got, want), "log1p({x:e}) = {got:e}, want {want:e}");
        }
        for arm in [Arm::Portable, Arm::Avx2, Arm::Avx512] {
            let (mut logs, mut plain) = (xs.clone(), xs.clone());
            if !arm.run(Log1pThenDivide { logs: &mut logs, plain: &mut plain, divisor: 1.0 }) {
                continue;
            }
            for ((&x, &(_, want)), (&got, &same)) in
                xs.iter().zip(&LOG1P_GOLDEN).zip(logs.iter().zip(&plain))
            {
                assert!(same_value(got, f64::from_bits(want)), "{arm:?}: log1p({x:e}) = {got:e}");
                assert!(same_value(same, x), "{arm:?}: {x:e} / 1 = {same:e}");
            }
        }
    }

    /// Inputs that reach every path of [`log1p`]: log-uniform over every
    /// finite magnitude up to `1e300` (subnormals included), uniform over
    /// `[0, 4)` (both reductions and their boundaries) and plan-like
    /// magnitudes `10^[0, 12)`, with a sign on one in four of the first.
    fn log1p_inputs(rng: &mut StdRng, len: usize, signed: bool) -> Vec<f64> {
        let top = 1e300f64.to_bits();
        (0..len)
            .map(|i| match i % 3 {
                0 if signed && i % 4 == 0 => -f64::from_bits(rng.gen_range(0..=top)),
                0 => f64::from_bits(rng.gen_range(0..=top)),
                1 => rng.gen_range(0.0..4.0),
                _ => 10f64.powf(rng.gen_range(0.0..12.0)),
            })
            .collect()
    }

    /// [`Log1pThenDivide`] on every arm, to the bit: lengths that leave a
    /// tail after the two-, four- and eight-lane loops (featurize's 7 and
    /// 3 per operator, 59 logs for 8.4 operators, a full 16-operator
    /// chunk of 112 and 48), signed inputs over every path and the
    /// special values, and divisors of one and of 1 000 operators.
    #[test]
    fn log1p_then_divide_arms_agree_to_the_bit() {
        announce_arms("log1p_then_divide_arms_agree_to_the_bit");
        let mut rng = StdRng::seed_from_u64(0x6c6f_6731);
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0, 4e-324];
        let lengths = [(1, 0), (3, 1), (7, 3), (9, 5), (15, 6), (59, 25), (112, 48)];
        for (logs_len, plain_len) in lengths {
            for divisor in [1.0, 3.0, 8.4, 1000.0] {
                let mut init = log1p_inputs(&mut rng, logs_len, true);
                for (v, &special) in init.iter_mut().step_by(5).zip(&specials) {
                    *v = special;
                }
                init.extend(log1p_inputs(&mut rng, plain_len, true));
                let what = format!("log1p_then_divide {logs_len}+{plain_len} / {divisor}");
                same_bits(&what, &init, |arm, buf| {
                    let (logs, plain) = buf.split_at_mut(logs_len);
                    arm.run(Log1pThenDivide { logs, plain, divisor })
                });
            }
        }
    }

    /// Continuous plan inputs of generated jobs (seeds 3 and 7) on which
    /// glibc 2.36's FMA variant of `log1p` rounds the other way from its
    /// generic one: `(x, generic bits)`. libm is on the generic variant
    /// exactly when it agrees on all of them.
    const FMA_PROBES: [(u64, u64); 4] = [
        (0x4066_74ac_9e6c_749e, 0x4014_c941_b4c7_6c02),
        (0x3fe1_5b7d_5b17_dd87, 0x3fdb_bc07_9f96_e4cd),
        (0x3fdb_4c25_e974_c052, 0x3fd6_bc3f_c3e3_08ee),
        (0x4144_a789_e4ee_b4b1, 0x402d_9f74_29b1_ac06),
    ];

    /// [`log1p`] against libm's own `f64::ln_1p` over 2^20 seeded inputs
    /// in `[0, 1e300]`: to the bit when libm runs its generic variant (a
    /// CPU without FMA, or glibc told `glibc.cpu.hwcaps=-FMA,-AVX2`, as
    /// one CI line does), within one ulp otherwise. The probes decide
    /// which; the test prints the verdict.
    #[test]
    fn log1p_matches_libm_to_the_bit_on_its_generic_variant() {
        // `black_box`: LLVM folds `ln_1p` of a constant with the libm
        // rustc itself runs on, which need not be the variant under test.
        let libm = |x: f64| std::hint::black_box(x).ln_1p();
        let generic = FMA_PROBES.iter().all(|&(x, want)| libm(f64::from_bits(x)).to_bits() == want);
        for &(x, want) in &FMA_PROBES {
            assert_eq!(log1p(f64::from_bits(x)).to_bits(), want, "probe {x:#x}");
        }
        let mut rng = StdRng::seed_from_u64(0x6c69_626d);
        let xs = log1p_inputs(&mut rng, 1 << 20, false);
        let mut differ = 0usize;
        for &x in &xs {
            let (ours, libm) = (log1p(x), libm(x));
            let ulps = ours.to_bits().abs_diff(libm.to_bits());
            if generic {
                assert_eq!(ulps, 0, "log1p({x:e}) = {ours:e}, libm's generic variant {libm:e}");
            }
            assert!(ulps <= 1, "log1p({x:e}) = {ours:e}, libm {libm:e}: {ulps} ulps apart");
            differ += usize::from(ulps != 0);
        }
        let variant = if generic { "generic: to the bit" } else { "not generic: within 1 ulp" };
        println!("log1p vs libm ({variant}): {differ} of {} inputs differ", xs.len());
    }
}
