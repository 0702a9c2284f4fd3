//! Dense row-major `f64` matrix with the operations the MLPs need.
//!
//! The matmul products run on the crate's two-level kernel architecture:
//! explicitly vectorized microkernels (scalar / SSE2 / AVX2 / AVX-512
//! `core::arch` lanes, or the opt-in fused FMA lanes, selected once per
//! process by [`crate::simd::active_tier`]) behind a shape split — small
//! operands go through direct axpy-shaped row kernels, each row ending in
//! one masked remainder tile, while shapes whose `B` operand overflows the
//! L1-resident tile go through a cache-blocked driver that packs `A` and
//! `B` into register-tile panels held in thread-local, grow-only buffers. The
//! backward-pass products [`Matrix::matmul_at_b`] (`Aᵀ·B`) and
//! [`Matrix::matmul_a_bt`] (`A·Bᵀ`) read their transposed operand in place
//! wherever the packed driver runs: its packs gather panels straight from
//! the stored matrix. Below the split, `Aᵀ·B` runs strided row kernels down
//! the columns of `A`, and `A·Bᵀ` copies `Bᵀ` into a per-thread buffer for
//! the row kernels. `_into` variants reuse caller-owned buffers, so the
//! training loop performs no per-step allocations on the hot path.
//!
//! `f64` is the crate's one element type. Every kernel on the bit-exact
//! tiers, packed or direct, accumulates each output element along the inner
//! dimension in ascending index order with a single accumulation chain
//! (multiply then add, never FMA), so the parallel and sequential paths,
//! the scalar, SSE2, AVX2 and AVX-512 tiers, and the `_at_b`/`_a_bt`
//! shortcuts versus their transpose-then-multiply equivalents produce
//! byte-identical
//! results on finite inputs free of signed zeros (the branchless kernels
//! add `0 · b` terms the scalar reference skips, which only diverges when
//! `b` is infinite or NaN, or through `-0.0` bookkeeping). Work is
//! parallelised over output rows (or packed row blocks) with rayon once it
//! is large enough to amortise handing chunks to the pool.
//!
//! The seed-state scalar kernels are preserved in [`mod@reference`] as the
//! oracle for equivalence tests, alongside a frozen copy of the first
//! register-tiled kernel ([`reference::tiled_matmul`]) that anchors the
//! `perf_report` speedup trajectory for the SIMD/packed kernels.

use crate::kernels::{self, Operand};
use crate::sample::standard_normal_fill;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Work threshold (output cells × inner dimension) above which matmul runs
/// in parallel.
const PAR_THRESHOLD: usize = 64 * 64 * 64;

/// Square block edge for the cache-blocked transpose.
const TRANSPOSE_BLOCK: usize = 32;

thread_local! {
    /// Per-thread, grow-only home of the transposed right operand that
    /// [`Matrix::matmul_a_bt_into`] hands the direct row kernels on shapes
    /// below the packed split, so the call allocates nothing once warm.
    static TRANSPOSED_RHS: RefCell<Matrix> = const {
        RefCell::new(Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        })
    };
}

/// Dense row-major matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major vector. Panics if the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from nested rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Matrix with i.i.d. `N(0, std²)` entries: standard-normal draws in
    /// row-major order, each scaled by `std`.
    ///
    /// # Panics
    /// If `std` is negative or not finite.
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f64, rng: &mut R) -> Self {
        assert!(
            std.is_finite() && std >= 0.0,
            "std must be finite and non-negative"
        );
        let mut m = Self::zeros(rows, cols);
        standard_normal_fill(rng, &mut m.data);
        for v in &mut m.data {
            *v *= std;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape in place to `rows × cols`, zero-filling the contents and
    /// reusing the existing allocation when it is large enough.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape to `rows × cols` of zeros, reusing the allocation — the
    /// public face of the internal reset for batch-assembly call sites that
    /// build a buffer with [`Matrix::paste`].
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.reset(rows, cols);
    }

    /// Overwrite this matrix with `src`, reusing the existing allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Select a subset of rows by index (indices may repeat).
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.take_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::take_rows`] into a caller-owned buffer, so batch assembly in
    /// a training loop reuses one allocation across steps.
    pub fn take_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &src in indices {
            out.data.extend_from_slice(self.row(src));
        }
    }

    /// Horizontally concatenate two matrices with equal row counts.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.hconcat_into(other, &mut out);
        out
    }

    /// [`Matrix::hconcat`] into a caller-owned buffer.
    pub fn hconcat_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "row count mismatch in hconcat");
        out.reset(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Copy `src` into this matrix with its top-left corner at `(r0, c0)`,
    /// so batch assembly (e.g. stacking real and fake halves of a fused
    /// discriminator batch) writes straight into a persistent buffer instead
    /// of concatenating fresh matrices.
    pub fn paste(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "paste of {}x{} at ({r0},{c0}) exceeds {}x{}",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        for r in 0..src.rows {
            let dst = (r0 + r) * self.cols + c0;
            self.data[dst..dst + src.cols].copy_from_slice(src.row(r));
        }
    }

    /// Slice a contiguous range of columns.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "column slice out of range"
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Cache-blocked transpose: both source and destination are walked in
    /// `32×32` tiles so each tile's rows stay cache-resident while its
    /// columns are scattered, instead of striding the whole destination per
    /// source row.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-owned buffer.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for r0 in (0..self.rows).step_by(TRANSPOSE_BLOCK) {
            let r1 = (r0 + TRANSPOSE_BLOCK).min(self.rows);
            for c0 in (0..self.cols).step_by(TRANSPOSE_BLOCK) {
                let c1 = (c0 + TRANSPOSE_BLOCK).min(self.cols);
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
    }

    /// Run `kernel` over every output row, in parallel above the work
    /// threshold and sequentially (same kernel, same chunk order) below it.
    fn for_each_out_row(out: &mut Matrix, work: usize, kernel: impl Fn(usize, &mut [f64]) + Sync) {
        let n = out.cols.max(1);
        if work >= PAR_THRESHOLD {
            out.data
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(r, out_row)| kernel(r, out_row));
        } else {
            out.data
                .chunks_mut(n)
                .enumerate()
                .for_each(|(r, out_row)| kernel(r, out_row));
        }
    }

    /// Matrix product `self × other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned buffer.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset(self.rows, other.cols);
        self.accumulate_product(other, out);
    }

    /// Accumulate `self × other` on top of whatever `out` already holds
    /// (zeros or a broadcast bias), choosing the packed driver for large
    /// shapes and the direct row kernels otherwise.
    fn accumulate_product(&self, other: &Matrix, out: &mut Matrix) {
        let (m, n, k) = (self.rows, other.cols, self.cols);
        let work = m * n * k;
        if kernels::use_packed(m, k, n) {
            kernels::packed_matmul(
                Operand::stored(&self.data),
                Operand::stored(&other.data),
                m,
                k,
                n,
                &mut out.data,
                work >= PAR_THRESHOLD,
            );
        } else {
            Self::for_each_out_row(out, work, |r, out_row| {
                kernels::strided_row(&self.data, r * k, 1, k, &other.data, n, out_row);
            });
        }
    }

    /// Bench/test hook: run the cache-blocked packed driver unconditionally
    /// with an explicit `parallel` flag, bypassing the packed/direct shape
    /// split and the work threshold. This is how `perf_report` measures
    /// the multi-threaded packed legs against their own single-threaded tier
    /// within one process; it is not part of the stable API.
    #[doc(hidden)]
    pub fn matmul_packed_with(&self, other: &Matrix, parallel: bool) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::packed_matmul(
            Operand::stored(&self.data),
            Operand::stored(&other.data),
            self.rows,
            self.cols,
            other.cols,
            &mut out.data,
            parallel,
        );
        out
    }

    /// Sequential matrix product through the direct (unpacked) row kernels —
    /// the oracle for the parallel- and packed-determinism tests and the
    /// `perf_report` baselines.
    pub fn matmul_seq(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let (n, k) = (other.cols, self.cols);
        for (r, out_row) in out.data.chunks_mut(n.max(1)).enumerate() {
            kernels::strided_row(&self.data, r * k, 1, k, &other.data, n, out_row);
        }
        out
    }

    /// Fused affine map `self × other + bias` (bias broadcast over rows): the
    /// output is seeded with the bias and the product accumulates on top, so
    /// no separate broadcast pass or intermediate allocation is needed.
    pub fn matmul_bias(&self, other: &Matrix, bias: &[f64]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_bias_into(other, bias, &mut out);
        out
    }

    /// [`Matrix::matmul_bias`] into a caller-owned buffer.
    pub fn matmul_bias_into(&self, other: &Matrix, bias: &[f64], out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(bias.len(), other.cols, "bias width mismatch");
        out.rows = self.rows;
        out.cols = other.cols;
        out.data.clear();
        for _ in 0..self.rows {
            out.data.extend_from_slice(bias);
        }
        self.accumulate_product(other, out);
    }

    /// Fully fused affine + activation: `act(self × other + bias)` into a
    /// caller-owned buffer. On the direct path the activation is applied to
    /// each output row in the same pass that computes it, while the row is
    /// still cache-hot; the packed path applies it in one trailing sweep.
    /// The affine part is bit-identical to [`Matrix::matmul_bias_into`].
    pub fn matmul_bias_act_into(
        &self,
        other: &Matrix,
        bias: &[f64],
        act: impl Fn(f64) -> f64 + Sync,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(bias.len(), other.cols, "bias width mismatch");
        out.rows = self.rows;
        out.cols = other.cols;
        out.data.clear();
        for _ in 0..self.rows {
            out.data.extend_from_slice(bias);
        }
        let (m, n, k) = (self.rows, other.cols, self.cols);
        if kernels::use_packed(m, k, n) {
            self.accumulate_product(other, out);
            for v in &mut out.data {
                *v = act(*v);
            }
        } else {
            let work = m * n * k;
            Self::for_each_out_row(out, work, |r, out_row| {
                kernels::strided_row(&self.data, r * k, 1, k, &other.data, n, out_row);
                for v in out_row.iter_mut() {
                    *v = act(*v);
                }
            });
        }
    }

    /// `selfᵀ × other` computed directly from the untransposed operands
    /// (`self` is `m×k`, `other` is `m×p`, result is `k×p`). Equivalent to
    /// `self.transpose().matmul(other)` without materializing the transpose.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_b_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_at_b`] into a caller-owned buffer. Above the packed
    /// split the driver packs its `Aᵀ` panels straight from `self`; below
    /// it, each output row is a strided row kernel down one column of
    /// `self`.
    pub fn matmul_at_b_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b dimension mismatch: {}x{} ᵀ× {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset(self.cols, other.cols);
        let (ka, p, m) = (self.cols, other.cols, self.rows);
        let work = ka * p * m;
        if kernels::use_packed(ka, m, p) {
            kernels::packed_matmul(
                Operand::transposed(&self.data),
                Operand::stored(&other.data),
                ka,
                m,
                p,
                &mut out.data,
                work >= PAR_THRESHOLD,
            );
        } else {
            Self::for_each_out_row(out, work, |i, out_row| {
                kernels::strided_row(&self.data, i, ka, m, &other.data, p, out_row);
            });
        }
    }

    /// `self × otherᵀ` (`self` is `m×k`, `other` is `p×k`, result `m×p`),
    /// bit-equivalent to `self.matmul(&other.transpose())`.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_a_bt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_a_bt`] into a caller-owned buffer. Above the packed
    /// split the driver packs its `Bᵀ` panels straight from `other`. Below
    /// it, `other` is transposed into a per-thread buffer that feeds the
    /// direct `A·B` row kernels: a direct dot-product kernel would be
    /// latency-bound, since each output element's fixed ascending chain
    /// serialises on add latency, whereas the row kernels vectorise across
    /// output columns. Either way nothing is allocated once the buffers are
    /// warm.
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt dimension mismatch: {}x{} ×ᵀ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset(self.rows, other.rows);
        let (m, k, p) = (self.rows, self.cols, other.rows);
        let work = m * p * k;
        if kernels::use_packed(m, k, p) {
            kernels::packed_matmul(
                Operand::stored(&self.data),
                Operand::transposed(&other.data),
                m,
                k,
                p,
                &mut out.data,
                work >= PAR_THRESHOLD,
            );
        } else {
            TRANSPOSED_RHS.with(|rhs| {
                let mut rhs = rhs.borrow_mut();
                other.transpose_into(&mut rhs);
                let rhs = &rhs.data;
                Self::for_each_out_row(out, work, |r, out_row| {
                    kernels::strided_row(&self.data, r * k, 1, k, rhs, p, out_row);
                });
            });
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise map into a caller-owned buffer, reusing its allocation.
    pub fn map_into(&self, f: impl Fn(f64) -> f64, out: &mut Matrix) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().map(|&v| f(v)));
    }

    /// Element-wise map in place.
    pub fn map_assign(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise binary operation with another matrix of the same shape.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.rows, other.rows, "zip shape mismatch");
        assert_eq!(self.cols, other.cols, "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise binary operation in place: `self[i] = f(self[i], other[i])`.
    pub fn zip_assign(&mut self, other: &Matrix, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(self.rows, other.rows, "zip shape mismatch");
        assert_eq!(self.cols, other.cols, "zip shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise addition in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.zip_assign(other, |a, b| a + b);
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product).
    pub fn mul(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Scalar multiplication.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Scalar multiplication in place.
    pub fn scale_assign(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Add a row vector (1 × cols) to every row.
    pub fn add_row_vector(&self, bias: &[f64]) -> Matrix {
        let mut out = self.clone();
        out.add_row_vector_assign(bias);
        out
    }

    /// Add a row vector (1 × cols) to every row, in place.
    pub fn add_row_vector_assign(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        for row in self.data.chunks_mut(self.cols.max(1)) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }

    /// Column-wise sum into a caller-owned buffer, resized to `cols`.
    pub fn sum_rows_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }
}

/// Frozen baseline kernels: the seed-state scalar kernels kept verbatim as
/// (a) the oracle the property tests compare the dispatched kernels against
/// and (b) the anchor of the `perf_report` speedup trajectory, plus a
/// verbatim copy of the first register-tiled kernel
/// ([`tiled_matmul`](reference::tiled_matmul)) so the
/// SIMD/packed kernels of this round are measured against their immediate
/// predecessor rather than only the seed. Nothing here may be optimised:
/// any change silently drags every recorded speedup along with it.
pub mod reference {
    use super::Matrix;

    /// Register-tile width of the frozen PR 2 kernel.
    const REG_TILE: usize = 8;

    /// The PR 2 register-tiled, branchless row kernel, frozen verbatim: one
    /// 8-wide accumulator tile per output segment, ascending-`k`
    /// broadcast-multiply-accumulate.
    #[inline]
    fn tiled_row_kernel(a_row: &[f64], b: &[f64], n: usize, out_row: &mut [f64]) {
        let mut j0 = 0;
        while j0 + REG_TILE <= n {
            let mut acc = [0.0f64; REG_TILE];
            acc.copy_from_slice(&out_row[j0..j0 + REG_TILE]);
            for (kk, &a) in a_row.iter().enumerate() {
                let b_tile = &b[kk * n + j0..kk * n + j0 + REG_TILE];
                for (t, o) in acc.iter_mut().enumerate() {
                    *o += a * b_tile[t];
                }
            }
            out_row[j0..j0 + REG_TILE].copy_from_slice(&acc);
            j0 += REG_TILE;
        }
        if j0 < n {
            let rem = n - j0;
            let mut acc = [0.0f64; REG_TILE];
            acc[..rem].copy_from_slice(&out_row[j0..]);
            for (kk, &a) in a_row.iter().enumerate() {
                let b_tile = &b[kk * n + j0..kk * n + n];
                for (t, &bv) in b_tile.iter().enumerate() {
                    acc[t] += a * bv;
                }
            }
            out_row[j0..].copy_from_slice(&acc[..rem]);
        }
    }

    /// The PR 2 register-tiled matmul (sequential; on the 1-core CI
    /// container the parallel path degenerated to this), frozen as the
    /// baseline the SIMD-dispatched and packed kernels are measured against
    /// in `perf_report` and `BENCH_nn.json`.
    pub fn tiled_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let (n, k) = (b.cols(), a.cols());
        for (r, out_row) in out.data.chunks_mut(n.max(1)).enumerate() {
            tiled_row_kernel(&a.data()[r * k..(r + 1) * k], b.data(), n, out_row);
        }
        out
    }

    /// Naive single-row-accumulate matmul (the seed kernel).
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let n = b.cols();
        let k = a.cols();
        for r in 0..a.rows() {
            let a_row = &a.data()[r * k..(r + 1) * k];
            let out_row = &mut out.data[r * n..(r + 1) * n];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.data()[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Strided-scatter transpose (the seed kernel).
    pub fn transpose(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), a.rows());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                out.data[c * a.rows() + r] = a.data()[r * a.cols() + c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The byte-for-byte pins against the frozen scalar reference only hold
    /// on the bit-exact tiers; under a forced `SURROGATE_SIMD=fma` run
    /// those contracts are covered by the tolerance oracle in
    /// `tests/simd_kernels.rs` instead.
    fn bit_exact_tier() -> bool {
        let exact = crate::simd::active_tier().bit_exact();
        if !exact {
            eprintln!("skipping byte-identity pin: fused tier active");
        }
        exact
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Matrix::randn(7, 5, 1.0, &mut rng);
        let mut eye = Matrix::zeros(5, 5);
        for i in 0..5 {
            eye.set(i, i, 1.0);
        }
        let b = a.matmul(&eye);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_parallel_matches_sequential() {
        // Big enough to trip the parallel path; the parallel product must be
        // byte-identical to the sequential kernel, not merely close.
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::randn(80, 70, 1.0, &mut rng);
        let b = Matrix::randn(70, 90, 1.0, &mut rng);
        const { assert!(80 * 70 * 90 >= super::PAR_THRESHOLD) }; // covers the parallel path
        let par = a.matmul(&b);
        let seq = a.matmul_seq(&b);
        assert_eq!(par.rows(), 80);
        assert_eq!(par.cols(), 90);
        assert_eq!(
            par, seq,
            "parallel and sequential products must be byte-identical"
        );
        // And both must agree exactly with the pre-PR reference kernel.
        if bit_exact_tier() {
            assert_eq!(seq, reference::matmul(&a, &b));
        }
    }

    #[test]
    fn blocked_kernel_matches_reference_across_shapes() {
        // Odd shapes straddle every unroll/tile boundary: k ∈ {1..5, 127,
        // 128, 129} exercises the 4-wide remainder, n=513 exercises the
        // column-tile seam.
        if !bit_exact_tier() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 2, 5),
            (5, 4, 3),
            (7, 5, 9),
            (16, 127, 33),
            (9, 128, 17),
            (8, 129, 16),
            (2, 64, 513),
        ] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            assert_eq!(
                a.matmul(&b),
                reference::matmul(&a, &b),
                "shape {m}x{k}x{n} diverged from the reference kernel"
            );
        }
    }

    #[test]
    fn matmul_at_b_matches_transpose_then_matmul() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, p) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 4),
            (5, 7, 3),
            (33, 9, 21),
            (65, 13, 5),
            (127, 6, 31),
        ] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(m, p, 1.0, &mut rng);
            assert_eq!(
                a.matmul_at_b(&b),
                a.transpose().matmul(&b),
                "Aᵀ·B shape {m}x{k} / {m}x{p} diverged"
            );
        }
    }

    #[test]
    fn matmul_a_bt_matches_matmul_of_transpose() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(m, k, p) in &[
            (1usize, 1usize, 1usize),
            (4, 3, 2),
            (7, 5, 9),
            (21, 33, 9),
            (5, 65, 13),
            (31, 127, 6),
        ] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(p, k, 1.0, &mut rng);
            assert_eq!(
                a.matmul_a_bt(&b),
                a.matmul(&b.transpose()),
                "A·Bᵀ shape {m}x{k} / {p}x{k} diverged"
            );
        }
    }

    #[test]
    fn matmul_bias_matches_matmul_plus_broadcast() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (4, 5, 3), (9, 127, 33)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let bias: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 1.0).collect();
            // The fused kernel seeds the output with the bias and accumulates
            // the product on top, so the rounding order differs from
            // product-then-broadcast; compare to machine precision instead of
            // bit equality.
            let fused = a.matmul_bias(&b, &bias);
            let unfused = a.matmul(&b).add_row_vector(&bias);
            for (x, y) in fused.data().iter().zip(unfused.data()) {
                assert!(
                    (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
                    "fused affine shape {m}x{k}x{n} diverged: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn into_variants_reuse_buffers_and_match() {
        let mut rng = StdRng::seed_from_u64(19);
        let a = Matrix::randn(6, 5, 1.0, &mut rng);
        let b = Matrix::randn(5, 4, 1.0, &mut rng);
        // Deliberately wrong-shaped scratch: the _into call must fix it up.
        let mut out = Matrix::randn(2, 9, 1.0, &mut rng);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        let c = Matrix::randn(6, 3, 1.0, &mut rng);
        a.matmul_at_b_into(&c, &mut out);
        assert_eq!(out, a.transpose().matmul(&c));
        let d = Matrix::randn(7, 5, 1.0, &mut rng);
        a.matmul_a_bt_into(&d, &mut out);
        assert_eq!(out, a.matmul(&d.transpose()));
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
    }

    #[test]
    fn packed_path_is_bit_identical_to_reference() {
        // 130x520x130 comfortably crosses the packed threshold (k·n = 67600)
        // and straddles the MR/NR/KC/MC panel seams; the packed driver must
        // still be byte-identical to the seed reference on finite data.
        if !bit_exact_tier() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(47);
        let a = Matrix::randn(130, 520, 1.0, &mut rng);
        let b = Matrix::randn(520, 130, 1.0, &mut rng);
        assert!(super::kernels::use_packed(130, 520, 130));
        assert_eq!(a.matmul(&b), reference::matmul(&a, &b));
        assert_eq!(a.matmul(&b), reference::tiled_matmul(&a, &b));
        assert_eq!(a.matmul(&b), a.matmul_seq(&b));
    }

    #[test]
    fn fused_affine_activation_matches_composition() {
        let mut rng = StdRng::seed_from_u64(53);
        for &(m, k, n) in &[(5usize, 7usize, 9usize), (64, 80, 160)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let bias: Vec<f64> = (0..n).map(|i| i as f64 * 0.1 - 0.5).collect();
            let mut fused = Matrix::randn(2, 2, 1.0, &mut rng);
            a.matmul_bias_act_into(&b, &bias, |v| v.max(0.0), &mut fused);
            let unfused = a.matmul_bias(&b, &bias).map(|v| v.max(0.0));
            assert_eq!(fused, unfused, "fused act shape {m}x{k}x{n} diverged");
        }
    }

    #[test]
    fn paste_writes_blocks_in_place() {
        let mut out = Matrix::zeros(4, 5);
        let top = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let bottom = Matrix::from_rows(&[vec![5.0, 6.0, 7.0]]);
        out.paste(0, 1, &top);
        out.paste(3, 2, &bottom);
        assert_eq!(out.row(0), &[0.0, 1.0, 2.0, 0.0, 0.0]);
        assert_eq!(out.row(1), &[0.0, 3.0, 4.0, 0.0, 0.0]);
        assert_eq!(out.row(3), &[0.0, 0.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn paste_out_of_bounds_panics() {
        let mut out = Matrix::zeros(2, 2);
        let src = Matrix::zeros(2, 2);
        out.paste(1, 0, &src);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_at_b dimension mismatch")]
    fn matmul_at_b_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let _ = a.matmul_at_b(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_a_bt dimension mismatch")]
    fn matmul_a_bt_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let _ = a.matmul_a_bt(&b);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::randn(4, 9, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(5, 2), a.get(2, 5));
    }

    #[test]
    fn blocked_transpose_matches_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for &(m, n) in &[
            (1usize, 1usize),
            (31, 33),
            (32, 32),
            (33, 31),
            (100, 7),
            (7, 100),
        ] {
            let a = Matrix::randn(m, n, 1.0, &mut rng);
            assert_eq!(
                a.transpose(),
                reference::transpose(&a),
                "transpose {m}x{n} diverged"
            );
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::filled(2, 2, 2.0);
        assert_eq!(a.add(&b).data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-1.0, 0.0, 1.0, 2.0]);
        assert_eq!(a.mul(&b).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.scale(0.5).data(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn in_place_ops_match_pure_ops() {
        let mut rng = StdRng::seed_from_u64(29);
        let a = Matrix::randn(5, 7, 1.0, &mut rng);
        let b = Matrix::randn(5, 7, 1.0, &mut rng);
        let bias: Vec<f64> = (0..7).map(|i| i as f64).collect();

        let mut x = a.clone();
        x.add_assign(&b);
        assert_eq!(x, a.add(&b));

        let mut x = a.clone();
        x.scale_assign(0.3);
        assert_eq!(x, a.scale(0.3));

        let mut x = a.clone();
        x.zip_assign(&b, |u, v| u * v - 1.0);
        assert_eq!(x, a.zip(&b, |u, v| u * v - 1.0));

        let mut x = a.clone();
        x.map_assign(|v| v.tanh());
        assert_eq!(x, a.map(|v| v.tanh()));

        let mut x = a.clone();
        x.add_row_vector_assign(&bias);
        assert_eq!(x, a.add_row_vector(&bias));
    }

    #[test]
    fn copy_from_reuses_and_matches() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = Matrix::randn(4, 6, 1.0, &mut rng);
        let mut buf = Matrix::zeros(9, 2);
        buf.copy_from(&a);
        assert_eq!(buf, a);
    }

    #[test]
    fn bias_and_sums() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let with_bias = a.add_row_vector(&[10.0, 20.0]);
        assert_eq!(with_bias.data(), &[11.0, 22.0, 13.0, 24.0]);
        let mut sums = vec![9.0; 5];
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, vec![4.0, 6.0]);
        assert!((a.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn row_selection_and_concat() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let sub = a.take_rows(&[2, 0]);
        assert_eq!(sub.data(), &[5.0, 6.0, 1.0, 2.0]);
        let mut buf = Matrix::zeros(1, 1);
        a.take_rows_into(&[1, 1, 0], &mut buf);
        assert_eq!(buf.data(), &[3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
        let b = Matrix::from_rows(&[vec![7.0], vec![8.0], vec![9.0]]);
        let cat = a.hconcat(&b);
        assert_eq!(cat.cols(), 3);
        assert_eq!(cat.row(1), &[3.0, 4.0, 8.0]);
        let cols = cat.slice_cols(1, 3);
        assert_eq!(cols.row(0), &[2.0, 7.0]);
    }

    #[test]
    fn randn_is_seeded() {
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(
            Matrix::randn(3, 3, 1.0, &mut r1),
            Matrix::randn(3, 3, 1.0, &mut r2)
        );
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panics() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
