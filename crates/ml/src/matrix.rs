//! Dense row-major `f64` matrices.
//!
//! This is intentionally a small, predictable linear-algebra core rather
//! than a general tensor library: the networks in this workspace are tiny
//! (thousands to tens of thousands of parameters, per the paper's Table 7),
//! so a cache-friendly row-major layout with straightforward triple loops is
//! both fast enough and easy to audit. Matmuls are written `ikj`-ordered so
//! the inner loop streams contiguous memory.
//!
//! Every kernel a training step runs has an `_into` / in-place form that
//! writes a caller-owned matrix (reshaped in place, allocation reused), so
//! a trainer that keeps its buffers in a workspace allocates nothing per
//! step. The allocating forms are thin wrappers over the same loops: there
//! is one kernel per operation, and a result never depends on which form
//! computed it.
//!
//! The loops themselves live in `crate::kernels`, compiled for the
//! portable target and for AVX2 and picked at runtime; both arms give the
//! same bits.
//!
//! The products are single-threaded by design: at this workspace's sizes
//! (≤ 136 x 64 operands, microseconds per product) a pool's per-call
//! dispatch costs more than any product; training parallelises one level
//! up, over the graphs of a minibatch.

use crate::kernels::{self, AddRowBroadcast, Axpy, ColSums, Matmul, Scale, TMatmul};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`. The default is the empty `0 x 0`
/// matrix: what a reusable buffer is before its first `_into` kernel.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Create a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Create a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: nrows, cols: ncols, data }
    }

    /// Create a 1 x n row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Create an n x 1 column vector.
    pub fn col_vector(values: &[f64]) -> Self {
        Self { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new `Vec`.
    ///
    /// Allocates on every call — hot paths should use the strided view
    /// [`Matrix::col_iter`] or reuse a buffer via [`Matrix::copy_col_into`].
    pub fn col(&self, c: usize) -> Vec<f64> {
        self.col_iter(c).collect()
    }

    /// Allocation-free view of column `c` as a strided iterator.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(c < self.cols);
        self.data.iter().skip(c).step_by(self.cols.max(1)).copied()
    }

    /// Copy column `c` into `out`, reusing `out`'s allocation.
    pub fn copy_col_into(&self, c: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.col_iter(c));
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Become a `rows x cols` matrix of zeros, reusing the allocation.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Become a copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into `out`, reusing its allocation.
    ///
    /// Tiled so both the read and write sides stay within a cache-line
    /// window per block instead of striding the full matrix per element.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const TILE: usize = 32;
        out.reset_zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TILE) {
            let r_end = (rb + TILE).min(self.rows);
            for cb in (0..self.cols).step_by(TILE) {
                let c_end = (cb + TILE).min(self.cols);
                for r in rb..r_end {
                    let row = &self.data[r * self.cols..(r + 1) * self.cols];
                    for (c, &v) in row.iter().enumerate().take(c_end).skip(cb) {
                        out.data[c * self.rows + r] = v;
                    }
                }
            }
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `self * rhs` written into `out`, reusing its allocation.
    ///
    /// With `rhs = W^T` this is also how training computes `d · W^T`
    /// (see [`Matrix::matmul_t`] for why the two agree to the bit).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: inner dimensions mismatch ({}x{} * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_zeros(self.rows, rhs.cols);
        kernels::run(Matmul {
            rows: self.rows,
            a: &self.data,
            a_cols: self.cols,
            b: &rhs.data,
            b_cols: rhs.cols,
            out: &mut out.data,
        });
    }

    /// `self^T * rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// `self^T * rhs` written into `out`, reusing its allocation.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul: dimensions mismatch ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_zeros(self.cols, rhs.cols);
        kernels::run(TMatmul {
            rows: self.rows,
            a: &self.data,
            a_cols: self.cols,
            b: &rhs.data,
            b_cols: rhs.cols,
            out: &mut out.data,
        });
    }

    /// `self * rhs^T` without materializing the transpose.
    ///
    /// Training does not call this: its `d · W^T` products run as
    /// `d.matmul_into(&W^T, ..)` over a transpose taken once per
    /// optimizer step, which vectorises across the output row where this
    /// kernel's dot products are a serial add chain, and skips the exact
    /// zeros a ReLU leaves in `d`. The two are **bit-identical** whenever
    /// `rhs` is finite. Per output element both start from `+0.0` and add
    /// the products `a[i][k] * rhs[j][k]` in ascending `k`; the only
    /// difference is that the `ikj` kernel omits the terms whose `a` is
    /// `±0.0`. Such a term is `±0.0` (finite `rhs`), and adding `±0.0`
    /// never changes a running sum that is not `-0.0` — and the sum is
    /// never `-0.0`: it starts at `+0.0`, `x + y` is `-0.0` only when both
    /// operands are, and an exact cancellation rounds to `+0.0`. An
    /// infinite or NaN weight would break this (`0 * inf` is NaN, not a
    /// zero to skip); such a model has already diverged. This kernel stays
    /// as the oracle the differential tests compare that path with.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t: dimensions mismatch {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let b_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise sum `self + rhs` into a new matrix.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// Element-wise difference `self - rhs` into a new matrix.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Element-wise product (Hadamard) into a new matrix.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// Element-wise combine with another matrix of the same shape.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += alpha * rhs` in place.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy: shape mismatch");
        kernels::run(Axpy { y: &mut self.data, alpha, x: &rhs.data });
    }

    /// Scale all elements in place.
    pub fn scale_inplace(&mut self, alpha: f64) {
        kernels::run(Scale { x: &mut self.data, alpha });
    }

    /// Scale into a new matrix.
    pub fn scale(&self, alpha: f64) -> Matrix {
        self.map(|x| x * alpha)
    }

    /// Add a 1 x cols row vector to every row (broadcast), in place.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "add_row_broadcast: width mismatch");
        kernels::run(AddRowBroadcast { rows: self.rows, m: &mut self.data, row });
    }

    /// Sum of each column as a `Vec` of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = Matrix::default();
        self.col_sums_into(&mut sums);
        sums.data
    }

    /// Sum of each column as a `1 x cols` row written into `out`.
    pub fn col_sums_into(&self, out: &mut Matrix) {
        out.reset_zeros(1, self.cols);
        kernels::run(ColSums { m: &self.data, out: &mut out.data });
    }

    /// Mean of each column as a `Vec` of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = Matrix::default();
        self.col_means_into(&mut means);
        means.data
    }

    /// Mean of each column as a `1 x cols` row written into `out`.
    pub fn col_means_into(&self, out: &mut Matrix) {
        self.col_sums_into(out);
        if self.rows > 0 {
            out.scale_inplace(1.0 / self.rows as f64);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Set all elements to zero, reusing the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.rows_iter().take(max_rows).enumerate() {
            write!(f, "  [{i}] ")?;
            for v in row.iter().take(12) {
                write!(f, "{v:>10.4} ")?;
            }
            if self.cols > 12 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let i = Matrix::identity(4);
        assert!(approx_eq(&m.matmul(&i), &m, 1e-12));
        assert!(approx_eq(&i.matmul(&m), &m, 1e-12));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c * 3) as f64);
        assert!(approx_eq(&m.transpose().transpose(), &m, 0.0));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + c) as f64 * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        assert!(approx_eq(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-12));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f64 * 0.25);
        let b = Matrix::from_fn(5, 4, |r, c| (r * 3 + c) as f64);
        assert!(approx_eq(&a.matmul_t(&b), &a.matmul(&b.transpose()), 1e-12));
    }

    #[test]
    fn broadcast_add_row() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sums_and_means() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        assert_eq!(m.col_means(), vec![2.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert!(a.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_and_zip() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn col_iter_matches_col_without_alloc() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 10 + c) as f64);
        for c in 0..3 {
            assert_eq!(m.col_iter(c).collect::<Vec<_>>(), m.col(c));
        }
        let mut buf = Vec::new();
        m.copy_col_into(2, &mut buf);
        assert_eq!(buf, m.col(2));
    }

    #[test]
    fn blocked_transpose_matches_naive() {
        // Sizes straddling the tile boundary.
        for (r, c) in [(1, 1), (7, 33), (32, 32), (33, 65), (100, 3)] {
            let m = Matrix::from_fn(r, c, |i, j| (i * 131 + j * 17) as f64);
            let t = m.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[(j, i)], m[(i, j)]);
                }
            }
        }
    }

    /// The allocating kernels as they stood before the `_into` forms
    /// (commit b3c2ea3), kept as the oracle: the wrappers now share their
    /// loops with the `_into` forms, so comparing those two would prove
    /// nothing.
    mod parent {
        use super::Matrix;

        pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for k in 0..a.cols() {
                    let x = a[(i, k)];
                    if x == 0.0 {
                        continue;
                    }
                    for j in 0..b.cols() {
                        out[(i, j)] += x * b[(k, j)];
                    }
                }
            }
            out
        }

        pub fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.cols(), b.cols());
            for i in 0..a.rows() {
                for k in 0..a.cols() {
                    let x = a[(i, k)];
                    if x == 0.0 {
                        continue;
                    }
                    for j in 0..b.cols() {
                        out[(k, j)] += x * b[(i, j)];
                    }
                }
            }
            out
        }

        pub fn col_sums(a: &Matrix) -> Vec<f64> {
            let mut sums = vec![0.0; a.cols()];
            for row in a.rows_iter() {
                for (s, &x) in sums.iter_mut().zip(row) {
                    *s += x;
                }
            }
            sums
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Seeded differential oracle for every kernel a training step runs:
    /// the `_into` / in-place form equals its allocating predecessor by
    /// `to_bits`, and `d.matmul_into(W^T)` equals `d.matmul_t(W)`, on
    /// dense, ReLU-sparse (exact `0.0`) and `-0.0`-bearing operands.
    #[test]
    fn into_kernels_are_bit_identical_to_their_allocating_predecessors() {
        use crate::nn::Activation;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        #[derive(Clone, Copy)]
        enum Fill {
            Dense,
            ReluSparse,
            SignedZeros,
        }
        fn random(rng: &mut StdRng, rows: usize, cols: usize, fill: Fill) -> Matrix {
            Matrix::from_fn(rows, cols, |_, _| {
                let x: f64 = rng.gen_range(-2.0..2.0);
                match fill {
                    Fill::Dense => x,
                    Fill::ReluSparse => x.max(0.0),
                    // Zeros of both signs, and tiny values whose pairwise
                    // products underflow to signed zeros.
                    Fill::SignedZeros => match rng.gen_range(0..6) {
                        0 | 1 => -0.0,
                        2 => 0.0,
                        3 => x * 1e-200,
                        _ => x,
                    },
                }
            })
        }

        let mut rng = StdRng::seed_from_u64(0x6b65_726e);
        // Buffers deliberately reused across shapes: a stale larger
        // allocation must never leak into a smaller result.
        let (mut out, mut wt, mut row) = (Matrix::default(), Matrix::default(), Matrix::default());
        let mut saw_negative_zero = false;
        for case in 0..240 {
            let (n, k, m) = match case {
                0 => (136, 64, 64),
                1 => (1, 64, 64),
                2 => (1, 1, 1),
                _ => (rng.gen_range(1..=136), rng.gen_range(1..=64), rng.gen_range(1..=64)),
            };
            let fill = [Fill::Dense, Fill::ReluSparse, Fill::SignedZeros][case % 3];
            let d = random(&mut rng, n, m, fill);
            let x = random(&mut rng, n, k, fill);
            let w = random(&mut rng, k, m, if case % 2 == 0 { Fill::Dense } else { fill });

            x.matmul_into(&w, &mut out);
            assert_eq!(bits(&out), bits(&parent::matmul(&x, &w)), "matmul {n}x{k}x{m}");
            x.t_matmul_into(&d, &mut out);
            assert_eq!(bits(&out), bits(&parent::t_matmul(&x, &d)), "t_matmul {n}x{k}x{m}");

            // d · W^T through the transpose: same bits as matmul_t.
            w.transpose_into(&mut wt);
            assert_eq!(wt.shape(), (m, k));
            assert!((0..k).all(|r| (0..m).all(|c| wt[(c, r)].to_bits() == w[(r, c)].to_bits())));
            d.matmul_into(&wt, &mut out);
            let oracle = d.matmul_t(&w);
            assert_eq!(bits(&out), bits(&oracle), "d·W^T {n}x{m}x{k}");
            saw_negative_zero |= d.as_slice().iter().any(|v| v.to_bits() == (-0.0f64).to_bits());
            assert!(oracle.as_slice().iter().all(|v| v.to_bits() != (-0.0f64).to_bits()));

            d.col_sums_into(&mut row);
            assert_eq!(row.shape(), (1, m));
            let sums = parent::col_sums(&d);
            assert_eq!(bits(&row), sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>());
            d.col_means_into(&mut row);
            let inv = 1.0 / n as f64;
            assert_eq!(bits(&row), sums.iter().map(|s| (s * inv).to_bits()).collect::<Vec<_>>());

            for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
                let pre = random(&mut rng, n, m, fill);
                act.apply_into(&pre, &mut out);
                assert_eq!(bits(&out), bits(&act.apply(&pre)));
                out.copy_from(&d);
                act.scale_by_derivative(&pre, &mut out);
                assert_eq!(bits(&out), bits(&d.hadamard(&act.derivative(&pre))));
            }
        }
        assert!(saw_negative_zero, "the -0.0 cases must actually occur");
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.is_finite());
        m[(1, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }
}
