//! Dense row-major `f32` matrix for the inference/sampling tier.
//!
//! Training stays in `f64` ([`crate::matrix::Matrix`]); sampling a fitted
//! generator is a forward-only workload where `f32` halves memory traffic
//! and doubles SIMD lanes (see [`crate::simd::SimdTier::lanes_f32`]), so the
//! models down-convert their fitted weights once
//! ([`crate::mlp::Mlp::to_f32`]) and run the whole reverse/decoder pass in
//! single precision. The products here run on the *same* generic two-level
//! kernels as the `f64` path — direct row kernels for small shapes, the
//! cache-blocked packed driver above the [`crate::kernels::use_packed`]
//! threshold, rayon-parallel over row blocks past the work threshold — just
//! instantiated with `f32` lanes.
//!
//! This type is deliberately minimal: it carries exactly the operations the
//! forward/sampling paths need (affine map + activation, element-wise
//! loops, `f64` round-trips at the decode boundary) and no serde — fitted
//! checkpoints remain `f64`, and the `f32` mirror is always derived from
//! them at load time. Like the `f64` kernels, every output element
//! accumulates along one fixed ascending chain, so `f32` products are
//! byte-identical run-to-run, across thread counts, and across the
//! packed/direct split on bit-exact tiers; accuracy vs the `f64` path is
//! validated end-to-end by distribution deltas in the model tests, not
//! bitwise.

use crate::kernels;
use crate::matrix::{Matrix, PAR_THRESHOLD};
use rayon::prelude::*;

/// Dense row-major `f32` matrix (inference tier).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix32 {
    /// Matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major vector. Panics if the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Down-convert an `f64` matrix (round-to-nearest per element).
    pub fn from_f64(m: &Matrix) -> Self {
        let mut out = Self::default();
        out.copy_from_f64(m);
        out
    }

    /// [`Matrix32::from_f64`] into this buffer, reusing its allocation.
    pub fn copy_from_f64(&mut self, m: &Matrix) {
        self.rows = m.rows();
        self.cols = m.cols();
        self.data.clear();
        self.data.extend(m.data().iter().map(|&v| v as f32));
    }

    /// Up-convert to `f64` (exact: every `f32` is representable).
    pub fn to_f64(&self) -> Matrix {
        let mut out = Matrix::default();
        self.to_f64_into(&mut out);
        out
    }

    /// [`Matrix32::to_f64`] into a caller-owned buffer, reusing its
    /// allocation.
    pub fn to_f64_into(&self, out: &mut Matrix) {
        out.assign(self.rows, self.cols, self.data.iter().map(|&v| v as f64));
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
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape to `rows × cols` of zeros, reusing the allocation.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Element-wise map in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Matrix product `self × other`.
    pub fn matmul(&self, other: &Matrix32) -> Matrix32 {
        let mut out = Matrix32::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix32::matmul`] into a caller-owned buffer.
    pub fn matmul_into(&self, other: &Matrix32, out: &mut Matrix32) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_zeroed(self.rows, other.cols);
        self.accumulate_product(other, out);
    }

    /// Sequential product through the direct (unpacked) row kernels — the
    /// oracle for the `f32` packed/parallel determinism tests.
    pub fn matmul_seq(&self, other: &Matrix32) -> Matrix32 {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix32::zeros(self.rows, other.cols);
        let (n, k) = (other.cols, self.cols);
        for (r, out_row) in out.data.chunks_mut(n.max(1)).enumerate() {
            kernels::strided_row_elem::<f32>(&self.data, r * k, 1, k, &other.data, n, out_row);
        }
        out
    }

    /// Bench/test hook: the packed driver with an explicit `parallel` flag,
    /// bypassing the shape split (the `f32` twin of
    /// `Matrix::matmul_packed_with`).
    #[doc(hidden)]
    pub fn matmul_packed_with(&self, other: &Matrix32, parallel: bool) -> Matrix32 {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix32::zeros(self.rows, other.cols);
        kernels::packed_matmul::<f32>(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            parallel,
        );
        out
    }

    /// Accumulate `self × other` on top of whatever `out` already holds,
    /// choosing the packed driver for large shapes and the direct row
    /// kernels otherwise (same shape split as the `f64` path).
    fn accumulate_product(&self, other: &Matrix32, out: &mut Matrix32) {
        let (m, n, k) = (self.rows, other.cols, self.cols);
        let work = m * n * k;
        if kernels::use_packed(m, k, n) {
            kernels::packed_matmul::<f32>(
                &self.data,
                m,
                k,
                &other.data,
                n,
                &mut out.data,
                work >= PAR_THRESHOLD,
            );
        } else {
            Self::for_each_out_row(out, work, |r, out_row| {
                kernels::strided_row_elem::<f32>(&self.data, r * k, 1, k, &other.data, n, out_row);
            });
        }
    }

    /// Run `kernel` over every output row, in parallel above the work
    /// threshold and sequentially (same kernel, same chunk order) below it.
    fn for_each_out_row(
        out: &mut Matrix32,
        work: usize,
        kernel: impl Fn(usize, &mut [f32]) + Sync,
    ) {
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

    /// Fully fused affine + activation: `act(self × other + bias)` into a
    /// caller-owned buffer — the `f32` twin of
    /// `Matrix::matmul_bias_act_into`, which is the whole forward pass of a
    /// linear layer.
    pub fn matmul_bias_act_into(
        &self,
        other: &Matrix32,
        bias: &[f32],
        act: impl Fn(f32) -> f32 + Sync,
        out: &mut Matrix32,
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
                kernels::strided_row_elem::<f32>(&self.data, r * k, 1, k, &other.data, n, out_row);
                for v in out_row.iter_mut() {
                    *v = act(*v);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `f32` product vs the `f64` product of the same (f32-representable)
    /// operands: the only divergence is accumulation rounding, bounded by
    /// roughly `k · eps_f32` relative.
    fn assert_tracks_f64(label: &str, got: &Matrix32, want: &Matrix, k: usize) {
        assert_eq!(got.rows(), want.rows(), "{label}: row mismatch");
        assert_eq!(got.cols(), want.cols(), "{label}: col mismatch");
        let tol = 1e-6 * (k as f64).max(1.0);
        for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
            let err = (g as f64 - w).abs();
            assert!(
                err <= tol * (1.0 + w.abs()),
                "{label}: element {i} diverged: {g} vs {w} (err {err:.3e})"
            );
        }
    }

    #[test]
    fn f32_matmul_tracks_f64_across_the_shape_split() {
        let mut rng = StdRng::seed_from_u64(61);
        // Direct, packed-sequential and packed-parallel shapes.
        for &(m, k, n) in &[
            (3usize, 5usize, 4usize),
            (16, 300, 64),
            (130, 520, 130),
            (97, 61, 113),
        ] {
            let a64 = Matrix::randn(m, k, 1.0, &mut rng);
            let b64 = Matrix::randn(k, n, 1.0, &mut rng);
            let a32 = Matrix32::from_f64(&a64);
            let b32 = Matrix32::from_f64(&b64);
            // Compare against the f64 product of the *rounded* operands so
            // operand quantization does not pollute the kernel error bound.
            let want = a32.to_f64().matmul(&b32.to_f64());
            assert_tracks_f64(&format!("matmul {m}x{k}x{n}"), &a32.matmul(&b32), &want, k);
        }
    }

    #[test]
    fn f32_packed_and_parallel_paths_match_sequential() {
        let mut rng = StdRng::seed_from_u64(67);
        let a = Matrix32::from_f64(&Matrix::randn(130, 260, 1.0, &mut rng));
        let b = Matrix32::from_f64(&Matrix::randn(260, 140, 1.0, &mut rng));
        let seq = a.matmul_seq(&b);
        let packed_seq = a.matmul_packed_with(&b, false);
        let packed_par = a.matmul_packed_with(&b, true);
        // Parallelism never changes f32 results: fixed accumulation chains.
        assert_eq!(
            packed_seq, packed_par,
            "f32 packed parallel vs sequential drifted"
        );
        if crate::simd::active_tier().bit_exact() {
            assert_eq!(seq, packed_seq, "f32 packed vs direct drifted");
        }
        // Run-to-run determinism of the dispatched path.
        assert_eq!(a.matmul(&b), a.matmul(&b));
    }

    #[test]
    fn f32_fused_affine_matches_composition() {
        let mut rng = StdRng::seed_from_u64(71);
        let a = Matrix32::from_f64(&Matrix::randn(9, 7, 1.0, &mut rng));
        let b = Matrix32::from_f64(&Matrix::randn(7, 5, 1.0, &mut rng));
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.25 - 0.5).collect();
        let mut fused = Matrix32::default();
        a.matmul_bias_act_into(&b, &bias, |v| v.max(0.0), &mut fused);
        let mut unfused = a.matmul(&b);
        for r in 0..unfused.rows() {
            for (v, &bv) in unfused.row_mut(r).iter_mut().zip(&bias) {
                *v += bv;
            }
        }
        unfused.map_assign(|v| v.max(0.0));
        for (i, (&f, &u)) in fused.data().iter().zip(unfused.data()).enumerate() {
            assert!(
                (f - u).abs() <= 1e-5 * (1.0 + u.abs()),
                "fused f32 affine diverged at {i}: {f} vs {u}"
            );
        }
    }

    #[test]
    fn round_trip_conversions() {
        let mut rng = StdRng::seed_from_u64(73);
        let m64 = Matrix::randn(6, 4, 1.0, &mut rng);
        let m32 = Matrix32::from_f64(&m64);
        assert_eq!(m32.rows(), 6);
        assert_eq!(m32.cols(), 4);
        // f32 -> f64 -> f32 is lossless.
        assert_eq!(Matrix32::from_f64(&m32.to_f64()), m32);
        for (&lo, &hi) in m32.data().iter().zip(m64.data()) {
            assert!((lo as f64 - hi).abs() <= 1e-7 * (1.0 + hi.abs()));
        }
    }
}
