//! Contention stress test for the packed matmul driver on the rayon shim:
//! many pool tasks each running packed matmuls (which themselves fan row
//! blocks across the same pool — nested parallelism), hammering the
//! per-thread pack buffers from every executor at once. Run it under
//! `RAYON_NUM_THREADS=2` and `=4` (the CI matrix does) to pin determinism
//! at real thread counts.
//!
//! The per-thread pack buffers are thread-locals, so tasks landing on the
//! same worker reuse (and re-grow) one buffer back-to-back while tasks on
//! different workers never share one; either way every product computed
//! *under contention* must be byte-identical to the same dispatched call
//! made uncontended from the main thread — on every tier, including the
//! fused one: the kernels are deterministic per tier and tile assignment
//! is shape-only.

use nn::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Mixed ragged shapes: some above the packed threshold, some below, so
/// concurrent tasks keep resizing their thread's pack buffers up and down.
const SHAPES: &[(usize, usize, usize)] = &[
    (130, 200, 260),
    (9, 5, 7),
    (64, 300, 96),
    (33, 520, 17),
    (97, 61, 113),
    (200, 80, 200),
];

#[test]
fn concurrent_packed_matmuls_match_their_uncontended_oracles() {
    // Per-task oracles: the *same* dispatched call, made up front from the
    // main thread with no competing tasks. On bit-exact tiers also pin the
    // dispatched result against the direct sequential kernels.
    let bit_exact = nn::active_tier().bit_exact();
    let mut rng = StdRng::seed_from_u64(42);
    let cases: Vec<(Matrix, Matrix, Matrix)> = SHAPES
        .iter()
        .cycle()
        .take(24)
        .map(|&(m, k, n)| {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let want = a.matmul(&b);
            if bit_exact {
                assert_eq!(want.data(), a.matmul_seq(&b).data());
            }
            (a, b, want)
        })
        .collect();

    for round in 0..4 {
        let results: Vec<(usize, Matrix)> = cases
            .par_iter()
            .enumerate()
            .map(|(i, (a, b, _))| {
                // Inside a pool task: the thread index must be a bounded
                // worker index or None (the caller draining its own job).
                if let Some(idx) = rayon::current_thread_index() {
                    assert!(
                        idx + 1 < rayon::current_num_threads(),
                        "worker index {idx} out of range"
                    );
                }
                // Nested parallel packed product from within a pool task.
                (i, a.matmul(b))
            })
            .collect();
        for (i, got) in results {
            let (_, _, want) = &cases[i];
            assert_eq!(
                got.data(),
                want.data(),
                "round {round}, case {i}: concurrent packed product \
                 diverged from its uncontended oracle \
                 (threads={})",
                rayon::current_num_threads()
            );
        }
    }
}

#[test]
fn repeated_rounds_are_byte_identical_across_thread_counts() {
    // The same workload must produce the same bytes on every round — and,
    // because chunk boundaries are size-derived and tile assignment is
    // shape-only, the bytes are also independent of RAYON_NUM_THREADS (the
    // CI matrix runs this file at 2 and 4 to enforce that; within one
    // process we can only pin round-to-round identity).
    let make = || {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Matrix::randn(257, 192, 1.0, &mut rng);
        let b = Matrix::randn(192, 301, 1.0, &mut rng);
        let products: Vec<Matrix> = (0..6_usize)
            .into_par_iter()
            .map(|i| {
                let scaled = a.map(|v| v * (1.0 + i as f64));
                scaled.matmul(&b)
            })
            .collect();
        products
    };
    let first = make();
    for _ in 0..2 {
        assert_eq!(make(), first, "round-to-round drift under contention");
    }
}
