//! Property tests for the SIMD-dispatched, packed matmul kernels, with a
//! **dual oracle**: on bit-exact tiers (scalar/SSE2/AVX2 — the default) the
//! dispatched kernels must match the frozen seed reference *byte-for-byte*;
//! on the opt-in fused tiers (`SURROGATE_SIMD=fma`/`avx512`) a fused
//! multiply-add necessarily rounds differently than the mul-then-add scalar
//! chain, so the same assertions drop to a ≤1e-8 relative tolerance against
//! the same reference. Determinism (run-to-run, and parallel vs sequential
//! within one path) stays byte-exact on *every* tier: fused kernels differ
//! from the scalar reference, never from themselves.
//!
//! Randomized shapes include ragged edges that straddle every lane and
//! panel boundary, for both the `f64` training kernels and the `f32`
//! inference instantiation (which doubles the lane count and therefore has
//! its own seams).

use nn::matrix::reference;
use nn::{Matrix, Matrix32};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether the active tier promises byte-identity with the scalar chain.
fn bit_exact() -> bool {
    nn::active_tier().bit_exact()
}

/// Dual oracle for pure products: byte-for-byte on bit-exact tiers, ≤1e-8
/// relative on the fused (FMA/AVX-512) tiers.
fn assert_kernel_match(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.rows(), want.rows(), "{label}: row mismatch");
    assert_eq!(got.cols(), want.cols(), "{label}: col mismatch");
    if bit_exact() {
        assert_eq!(
            got.data(),
            want.data(),
            "{label}: bit-exact tier diverged from the reference"
        );
        return;
    }
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        let tol = 1e-8 * (1.0 + w.abs());
        assert!(
            (g - w).abs() <= tol,
            "{label}: element {i} outside fused-tier tolerance: {g} vs {w}"
        );
    }
}

/// Tolerance oracle for comparisons whose rounding *order* legitimately
/// differs (e.g. bias-seeded vs product-then-broadcast): tight on bit-exact
/// tiers, 1e-8 on fused tiers.
fn assert_close(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.rows(), want.rows(), "{label}: row mismatch");
    assert_eq!(got.cols(), want.cols(), "{label}: col mismatch");
    let rel = if bit_exact() { 1e-10 } else { 1e-8 };
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        let tol = rel * (1.0 + w.abs());
        assert!(
            (g - w).abs() <= tol,
            "{label}: element {i} diverged: {g} vs {w}"
        );
    }
}

/// Random shape in `1..=max` per dimension, biased so roughly half the draws
/// cross the packed-path threshold.
fn random_shape(rng: &mut StdRng, max: usize) -> (usize, usize, usize) {
    (
        rng.gen_range(1..=max),
        rng.gen_range(1..=max),
        rng.gen_range(1..=max),
    )
}

#[test]
fn dispatched_matmul_matches_reference_on_random_shapes() {
    let mut rng = StdRng::seed_from_u64(101);
    // Fixed ragged shapes that straddle lane (up to 8 f64 / 16 f32), tile,
    // panel (MR=4, NR=2·lanes) and stripe (KC=256, MC=128, NC=512)
    // boundaries, plus the packed large shapes the bench tracks.
    let fixed: &[(usize, usize, usize)] = &[
        (97, 61, 113),
        (1, 1, 1),
        (3, 5, 2),
        (8, 257, 33),
        (16, 300, 515),
        (129, 129, 129),
        (130, 520, 17),
        (96, 64, 640),
        (200, 80, 200),
    ];
    for &(m, k, n) in fixed {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        assert_kernel_match(
            &format!("matmul {m}x{k}x{n}"),
            &a.matmul(&b),
            &reference::matmul(&a, &b),
        );
    }
    for round in 0..20 {
        let (m, k, n) = random_shape(&mut rng, 160);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        assert_kernel_match(
            &format!("matmul round {round} {m}x{k}x{n}"),
            &a.matmul(&b),
            &reference::matmul(&a, &b),
        );
    }
}

#[test]
fn dispatched_backward_products_match_reference_on_random_shapes() {
    let mut rng = StdRng::seed_from_u64(202);
    // Fixed shapes on the packed side of the split (`m ≥ 8`, `k·n > 8192`
    // in product terms), where `Aᵀ·B` packs its `A` panels and `A·Bᵀ` its
    // `B` panels straight from the stored operand: the paper-width TabDDPM
    // shapes, ragged shapes whose output tiles are partial in both
    // directions at every lane width, and inner dimensions of 300, above
    // the 256-deep stripe, so a second stripe accumulates onto the first.
    // `at_b` pairs are (rows, cols of A, cols of B); `a_bt` triples are
    // (rows of A, shared cols, rows of B).
    let at_b_fixed: &[(usize, usize, usize)] = &[
        (256, 81, 256),
        (256, 256, 79),
        (37, 83, 229),
        (300, 64, 150),
    ];
    for &(m, k, p) in at_b_fixed {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(m, p, 1.0, &mut rng);
        assert_kernel_match(
            &format!("at_b {m}x{k}/{m}x{p}"),
            &a.matmul_at_b(&b),
            &reference::matmul(&reference::transpose(&a), &b),
        );
    }
    let a_bt_fixed: &[(usize, usize, usize)] = &[(256, 79, 256), (37, 101, 83), (40, 300, 50)];
    for &(m, k, p) in a_bt_fixed {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let c = Matrix::randn(p, k, 1.0, &mut rng);
        assert_kernel_match(
            &format!("a_bt {m}x{k}/{p}x{k}"),
            &a.matmul_a_bt(&c),
            &reference::matmul(&a, &reference::transpose(&c)),
        );
    }
    for round in 0..15 {
        let (m, k, p) = random_shape(&mut rng, 120);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(m, p, 1.0, &mut rng);
        assert_kernel_match(
            &format!("at_b round {round} {m}x{k}/{m}x{p}"),
            &a.matmul_at_b(&b),
            &reference::matmul(&reference::transpose(&a), &b),
        );
        let c = Matrix::randn(p, k, 1.0, &mut rng);
        assert_kernel_match(
            &format!("a_bt round {round} {m}x{k}/{p}x{k}"),
            &a.matmul_a_bt(&c),
            &reference::matmul(&a, &reference::transpose(&c)),
        );
    }
}

#[test]
fn dispatched_fused_affine_matches_reference_on_random_shapes() {
    let mut rng = StdRng::seed_from_u64(303);
    for round in 0..10 {
        let (m, k, n) = random_shape(&mut rng, 140);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let bias: Vec<f64> = (0..n).map(|j| (j as f64).sin()).collect();
        let want = reference::matmul(&a, &b).add_row_vector(&bias);
        assert_close(
            &format!("bias round {round} {m}x{k}x{n}"),
            &a.matmul_bias(&b, &bias),
            &want,
        );
        let mut fused = Matrix::default();
        a.matmul_bias_act_into(&b, &bias, |v| v.tanh(), &mut fused);
        assert_close(
            &format!("bias_act round {round} {m}x{k}x{n}"),
            &fused,
            &want.map(f64::tanh),
        );
    }
}

#[test]
fn dispatched_path_is_deterministic_run_to_run() {
    // For a fixed seed the whole pipeline — operand generation, the
    // dispatched (possibly packed + parallel) product, and the sequential
    // oracle — must produce byte-identical results every run, on every
    // tier including the fused ones.
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        // Large enough for the packed driver *and* the parallel threshold.
        let a = Matrix::randn(300, 200, 1.0, &mut rng);
        let b = Matrix::randn(200, 260, 1.0, &mut rng);
        (a.matmul(&b), a.matmul_seq(&b))
    };
    let (first_par, first_seq) = run(7);
    // The packed/parallel product vs the direct sequential kernels: byte
    // equality on bit-exact tiers, tolerance on fused tiers (the direct
    // kernels' scalar column tails keep separate roundings while the packed
    // tiles fuse).
    assert_kernel_match("packed/parallel vs sequential", &first_par, &first_seq);
    for _ in 0..3 {
        let (par, seq) = run(7);
        assert_eq!(par, first_par, "run-to-run drift in the dispatched path");
        assert_eq!(seq, first_seq, "run-to-run drift in the sequential path");
    }
    let (other_par, _) = run(8);
    assert_ne!(other_par, first_par, "different seeds must differ");
}

#[test]
fn packed_parallel_is_byte_identical_to_packed_sequential() {
    // The tentpole contract of the multi-threaded packed driver: with an
    // explicit parallel flag, fanning row blocks over the pool must be
    // byte-identical to the same packed path run sequentially — on every
    // tier (fused tiers differ from scalar, never from themselves), at
    // every thread count, including shapes with ragged final blocks.
    let mut rng = StdRng::seed_from_u64(505);
    for &(m, k, n) in &[
        (300usize, 200usize, 260usize),
        (130, 520, 130),
        (97, 300, 515),
        (513, 64, 129),
    ] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let seq = a.matmul_packed_with(&b, false);
        let par = a.matmul_packed_with(&b, true);
        assert_eq!(
            seq.data(),
            par.data(),
            "packed parallel vs sequential drifted at {m}x{k}x{n} \
             (threads={})",
            rayon::current_num_threads()
        );
    }
}

#[test]
fn f32_dispatched_matmul_tracks_the_f64_reference() {
    // The f32 instantiation doubles the lane count, so its seams sit at
    // different column offsets; sweep ragged shapes and compare against the
    // f64 reference of the rounded operands within single-precision
    // accumulation error.
    let mut rng = StdRng::seed_from_u64(606);
    let fixed: &[(usize, usize, usize)] = &[
        (97, 61, 113),
        (1, 1, 1),
        (3, 5, 2),
        (8, 257, 33),
        (16, 300, 515),
        (130, 520, 17),
    ];
    for &(m, k, n) in fixed {
        let a64 = Matrix::randn(m, k, 1.0, &mut rng);
        let b64 = Matrix::randn(k, n, 1.0, &mut rng);
        let a32 = Matrix32::from_f64(&a64);
        let b32 = Matrix32::from_f64(&b64);
        let want = reference::matmul(&a32.to_f64(), &b32.to_f64());
        let got = a32.matmul(&b32);
        let tol = 1e-6 * (k as f64).max(1.0);
        for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                (g as f64 - w).abs() <= tol * (1.0 + w.abs()),
                "f32 matmul {m}x{k}x{n} element {i}: {g} vs {w}"
            );
        }
    }
}

#[test]
fn f32_packed_parallel_is_byte_identical_to_sequential() {
    let mut rng = StdRng::seed_from_u64(707);
    let a = Matrix32::from_f64(&Matrix::randn(301, 200, 1.0, &mut rng));
    let b = Matrix32::from_f64(&Matrix::randn(200, 261, 1.0, &mut rng));
    let seq = a.matmul_packed_with(&b, false);
    let par = a.matmul_packed_with(&b, true);
    assert_eq!(seq, par, "f32 packed parallel vs sequential drifted");
    // Run-to-run determinism of the dispatched f32 path.
    assert_eq!(a.matmul(&b), a.matmul(&b));
}

#[test]
fn buffer_reuse_across_shape_changes_is_clean() {
    // The packed driver's per-thread pack buffers are grow-only, reused
    // across calls, and — since the no-re-zero change — only their padding
    // lanes are cleared; interleaving shapes (and element types, which use
    // separate buffers) must never leak state between calls.
    let mut rng = StdRng::seed_from_u64(404);
    let shapes = [(64, 200, 80), (9, 3, 7), (128, 130, 520), (33, 65, 17)];
    for &(m, k, n) in shapes.iter().chain(shapes.iter().rev()) {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        assert_kernel_match(
            &format!("interleaved {m}x{k}x{n}"),
            &a.matmul(&b),
            &reference::matmul(&a, &b),
        );
        // Interleave an f32 product of a *different* ragged shape so both
        // buffer families see mismatched panel extents back-to-back.
        let a32 = Matrix32::from_f64(&Matrix::randn(n, m, 1.0, &mut rng));
        let b32 = Matrix32::from_f64(&Matrix::randn(m, k, 1.0, &mut rng));
        let got = a32.matmul(&b32);
        let want = reference::matmul(&a32.to_f64(), &b32.to_f64());
        let tol = 1e-6 * (m as f64).max(1.0);
        for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                (g as f64 - w).abs() <= tol * (1.0 + w.abs()),
                "interleaved f32 {n}x{m}x{k} element {i}: {g} vs {w}"
            );
        }
    }
}
