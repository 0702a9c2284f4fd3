//! Two-level `f64` matmul kernel architecture behind
//! [`crate::matrix::Matrix`].
//!
//! **Level 1 — vectorized microkernels.** Every inner kernel is written once,
//! generically, over a tiny lane abstraction ([`SimdVec`]) with one
//! implementation per tier: portable scalar, SSE2, AVX2, FMA and AVX-512
//! registers of `f64` lanes. The concrete instantiations live behind
//! `#[target_feature]` wrappers and the generic bodies are
//! `#[inline(always)]`, so each monomorphization compiles as one fully
//! vectorized function; the tier to run is picked once per process by
//! [`crate::simd::active_tier`].
//!
//! **Level 2 — cache-blocked panel packing.** Shapes whose `B` operand
//! exceeds the L1-resident tile ([`use_packed`]) run a blocked driver:
//! `B` is packed into contiguous `NR`-column panels and `A` into `MR`-row
//! panels (both zero-padded to full panels), and an `MR×NR` register-tile
//! microkernel sweeps `KC`-deep stripes so every packed element is read from
//! L1. Either operand may be read transposed ([`Operand::transposed`]): the
//! packs then gather their panels straight from the stored row-major matrix,
//! so `Aᵀ·B` (weight gradients) and `A·Bᵀ` (input gradients) run through the
//! same driver without a transposed copy. Partial tiles at the bottom and
//! right edges run the same microkernel on a zero-padded copy of the tile.
//! The pack buffers are **per-thread** (thread-local storage keys every
//! buffer by its owning thread, so pool workers never contend) and
//! **grow-only without re-zeroing**: packing overwrites exactly the live
//! region and explicitly zeroes only the padding lanes of partial panels, so
//! a training loop that calls the packed path repeatedly performs no
//! per-call allocations *and* no redundant memset of panel bytes it is about
//! to fill anyway.
//!
//! **Numerical contract.** On the bit-exact tiers (scalar/SSE2/AVX2) every
//! kernel — packed or direct — accumulates each output element along the
//! inner dimension in ascending index order, one `mul` + one `add` per term
//! (never FMA), starting from the value already in the output slot. Results
//! are therefore byte-identical across those tiers, across the
//! packed/direct split, across thread counts, and to the register-tiled
//! scalar kernel PR 2 shipped (frozen in `matrix::reference::tiled_matmul`
//! as the perf baseline); only the documented `±0.0`/non-finite caveat
//! against the seed reference kernel remains. The opt-in FMA/AVX-512 tiers
//! replace the `mul`+`add` pair with a fused multiply-add
//! ([`SimdVec::mul_acc`]) — one rounding per term instead of two — in every
//! vector lane, the packed edge tiles included, so they are *not* bit-equal
//! to the scalar chain and are validated against it within 1e-8 relative
//! tolerance instead (see `tests/simd_kernels.rs`); only the direct row
//! kernels' scalar column tails keep separate roundings there. They remain
//! deterministic: the accumulation chain per element is still fixed by the
//! shape alone, so fused results are byte-identical run-to-run and across
//! thread counts.

use crate::simd::{active_tier, SimdTier};
use std::cell::RefCell;

/// Rows per packed `A` panel (register-tile height of the microkernel).
pub(crate) const MR: usize = 4;
/// Inner-dimension stripe depth of the packed driver.
const KC: usize = 256;
/// Row-block height handed to one (possibly parallel) packing task.
const MC: usize = 128;
/// Column-block width packed per `B` panel sweep.
const NC: usize = 512;
/// Widest register tile any lane type uses (`2 × 8` lanes on AVX-512):
/// the column capacity of the padded edge tile.
const NR_MAX: usize = 16;

/// Shapes whose `B` operand overflows the L1-resident tile go through the
/// packed driver; small training shapes stay on the direct row kernels.
pub(crate) fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= 2 * MR && k * n > 8 * 1024
}

thread_local! {
    /// Per-thread `A`/`B` pack buffers, grow-only, keyed by owning thread
    /// via thread-local storage.
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Dispatch one strided row-kernel call on `tier`.
///
/// # Safety
///
/// Same pointer-validity contracts as [`row_kernel_v`]; `tier` must not
/// exceed what the host CPU supports.
unsafe fn row_kernel(
    tier: SimdTier,
    a_base: *const f64,
    a_stride: usize,
    depth: usize,
    b: *const f64,
    n: usize,
    out_row: *mut f64,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => row_kernel_avx512(a_base, a_stride, depth, b, n, out_row),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Fma => row_kernel_fma(a_base, a_stride, depth, b, n, out_row),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => row_kernel_avx2(a_base, a_stride, depth, b, n, out_row),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => row_kernel_v::<x86::Sse2F64>(a_base, a_stride, depth, b, n, out_row),
        _ => row_kernel_v::<Scalar1>(a_base, a_stride, depth, b, n, out_row),
    }
}

/// Dispatch one packed block-kernel call on `tier`.
///
/// # Safety
///
/// Same panel/output contracts as [`block_kernel_v`]; `tier` must not
/// exceed what the host CPU supports.
#[allow(clippy::too_many_arguments)]
unsafe fn block_kernel(
    tier: SimdTier,
    apack: &[f64],
    bpack: &[f64],
    kc: usize,
    mc: usize,
    nc: usize,
    c: *mut f64,
    ldc: usize,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => block_kernel_avx512(apack, bpack, kc, mc, nc, c, ldc),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Fma => block_kernel_fma(apack, bpack, kc, mc, nc, c, ldc),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => block_kernel_avx2(apack, bpack, kc, mc, nc, c, ldc),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => block_kernel_v::<x86::Sse2F64>(apack, bpack, kc, mc, nc, c, ldc),
        _ => block_kernel_v::<Scalar1>(apack, bpack, kc, mc, nc, c, ldc),
    }
}

// ---------------------------------------------------------------------------
// Lane abstraction.
// ---------------------------------------------------------------------------

/// A small fixed number of `f64` lanes with broadcast/load/store and a
/// multiply-accumulate.
///
/// # Safety
///
/// `load`/`store` dereference raw pointers to `LANES` consecutive elements;
/// callers guarantee validity. Implementations may use `core::arch`
/// intrinsics that are undefined behaviour on CPUs without the matching
/// feature; instantiations are only reachable through the runtime-detected
/// tier dispatch.
trait SimdVec: Copy {
    /// Lanes per register.
    const LANES: usize;
    /// Broadcast one value to all lanes.
    unsafe fn splat(v: f64) -> Self;
    /// Unaligned load of `LANES` values.
    unsafe fn load(ptr: *const f64) -> Self;
    /// Unaligned store of `LANES` values.
    unsafe fn store(self, ptr: *mut f64);
    /// `self + a·b` lane-wise. Bit-exact tiers round the multiply and the
    /// add separately; the FMA/AVX-512 tiers fuse them into one rounding.
    unsafe fn mul_acc(self, a: Self, b: Self) -> Self;
}

/// Portable one-lane fallback.
#[derive(Clone, Copy)]
struct Scalar1(f64);

impl SimdVec for Scalar1 {
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        Scalar1(v)
    }
    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        Scalar1(*ptr)
    }
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        *ptr = self.0;
    }
    #[inline(always)]
    unsafe fn mul_acc(self, a: Self, b: Self) -> Self {
        Scalar1(self.0 + a.0 * b.0)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::SimdVec;
    use core::arch::x86_64::*;

    /// Implement a lane type over one x86 register width. `$fma` selects
    /// the accumulation flavour: `sep` keeps the bit-exact separate
    /// multiply/add pair, `fused` uses the FMA intrinsic.
    macro_rules! impl_x86_lane {
        ($name:ident, $reg:ty, $lanes:expr, $set1:ident, $loadu:ident, $storeu:ident,
         sep($mul:ident, $add:ident)) => {
            #[derive(Clone, Copy)]
            pub(super) struct $name($reg);

            impl SimdVec for $name {
                const LANES: usize = $lanes;
                #[inline(always)]
                unsafe fn splat(v: f64) -> Self {
                    $name($set1(v))
                }
                #[inline(always)]
                unsafe fn load(ptr: *const f64) -> Self {
                    $name($loadu(ptr))
                }
                #[inline(always)]
                unsafe fn store(self, ptr: *mut f64) {
                    $storeu(ptr, self.0);
                }
                #[inline(always)]
                unsafe fn mul_acc(self, a: Self, b: Self) -> Self {
                    $name($add(self.0, $mul(a.0, b.0)))
                }
            }
        };
        ($name:ident, $reg:ty, $lanes:expr, $set1:ident, $loadu:ident, $storeu:ident,
         fused($fmadd:ident)) => {
            #[derive(Clone, Copy)]
            pub(super) struct $name($reg);

            impl SimdVec for $name {
                const LANES: usize = $lanes;
                #[inline(always)]
                unsafe fn splat(v: f64) -> Self {
                    $name($set1(v))
                }
                #[inline(always)]
                unsafe fn load(ptr: *const f64) -> Self {
                    $name($loadu(ptr))
                }
                #[inline(always)]
                unsafe fn store(self, ptr: *mut f64) {
                    $storeu(ptr, self.0);
                }
                #[inline(always)]
                unsafe fn mul_acc(self, a: Self, b: Self) -> Self {
                    $name($fmadd(a.0, b.0, self.0))
                }
            }
        };
    }

    // Two lanes (SSE2, baseline), four (AVX2 mul+add / FMA fused), eight
    // (AVX-512 fused).
    impl_x86_lane!(
        Sse2F64,
        __m128d,
        2,
        _mm_set1_pd,
        _mm_loadu_pd,
        _mm_storeu_pd,
        sep(_mm_mul_pd, _mm_add_pd)
    );
    impl_x86_lane!(
        Avx2F64,
        __m256d,
        4,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        sep(_mm256_mul_pd, _mm256_add_pd)
    );
    impl_x86_lane!(
        FmaF64,
        __m256d,
        4,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        fused(_mm256_fmadd_pd)
    );
    impl_x86_lane!(
        Avx512F64,
        __m512d,
        8,
        _mm512_set1_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        fused(_mm512_fmadd_pd)
    );
}

// ---------------------------------------------------------------------------
// Level 1: direct row kernels (axpy-shaped, one output row at a time).
// ---------------------------------------------------------------------------

/// One output row of a product: `out_row[j] += Σ_kk a(kk) · b[kk·n + j]`,
/// where `a(kk)` is read from `a_base` with stride `a_stride`. Stride 1 is a
/// plain `A·B` row; stride `ka` with base `col` is row `col` of `Aᵀ·B`.
///
/// Four vector accumulators per column tile keep enough independent
/// add-chains in flight to cover FP latency, and each output element still
/// accumulates as one ascending-`kk` chain.
///
/// # Safety
///
/// `a_base` must be valid for `depth` strided reads, `b` for `depth * n`
/// reads, `out_row` for `n` reads and writes; intrinsics require the lane
/// type's CPU feature.
#[inline(always)]
unsafe fn row_kernel_v<V: SimdVec>(
    a_base: *const f64,
    a_stride: usize,
    depth: usize,
    b: *const f64,
    n: usize,
    out_row: *mut f64,
) {
    let lanes = V::LANES;
    let tile = 4 * lanes;
    let mut j = 0usize;
    while j + tile <= n {
        let mut acc0 = V::load(out_row.add(j));
        let mut acc1 = V::load(out_row.add(j + lanes));
        let mut acc2 = V::load(out_row.add(j + 2 * lanes));
        let mut acc3 = V::load(out_row.add(j + 3 * lanes));
        for kk in 0..depth {
            let av = V::splat(*a_base.add(kk * a_stride));
            let brow = b.add(kk * n + j);
            acc0 = acc0.mul_acc(av, V::load(brow));
            acc1 = acc1.mul_acc(av, V::load(brow.add(lanes)));
            acc2 = acc2.mul_acc(av, V::load(brow.add(2 * lanes)));
            acc3 = acc3.mul_acc(av, V::load(brow.add(3 * lanes)));
        }
        acc0.store(out_row.add(j));
        acc1.store(out_row.add(j + lanes));
        acc2.store(out_row.add(j + 2 * lanes));
        acc3.store(out_row.add(j + 3 * lanes));
        j += tile;
    }
    while j + lanes <= n {
        let mut acc = V::load(out_row.add(j));
        for kk in 0..depth {
            let av = V::splat(*a_base.add(kk * a_stride));
            acc = acc.mul_acc(av, V::load(b.add(kk * n + j)));
        }
        acc.store(out_row.add(j));
        j += lanes;
    }
    // Scalar column tail: separate multiply and add roundings on every tier.
    while j < n {
        let mut acc = *out_row.add(j);
        for kk in 0..depth {
            acc += *a_base.add(kk * a_stride) * *b.add(kk * n + j);
        }
        *out_row.add(j) = acc;
        j += 1;
    }
}

/// Generate the `#[target_feature]` wrappers for one tier's instantiation
/// of the row and block kernels.
macro_rules! kernel_wrappers {
    ($feature:literal, $lane:ty, $row:ident, $block:ident) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $row(
            a_base: *const f64,
            a_stride: usize,
            depth: usize,
            b: *const f64,
            n: usize,
            out_row: *mut f64,
        ) {
            row_kernel_v::<$lane>(a_base, a_stride, depth, b, n, out_row);
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $block(
            apack: &[f64],
            bpack: &[f64],
            kc: usize,
            mc: usize,
            nc: usize,
            c: *mut f64,
            ldc: usize,
        ) {
            block_kernel_v::<$lane>(apack, bpack, kc, mc, nc, c, ldc);
        }
    };
}

kernel_wrappers!("avx2", x86::Avx2F64, row_kernel_avx2, block_kernel_avx2);
kernel_wrappers!("avx2,fma", x86::FmaF64, row_kernel_fma, block_kernel_fma);
kernel_wrappers!(
    "avx512f",
    x86::Avx512F64,
    row_kernel_avx512,
    block_kernel_avx512
);

/// Dispatch one strided row-kernel call through the active tier.
///
/// `a` supplies the `depth` inner-dimension coefficients starting at
/// `a_offset` with stride `a_stride`; `b` is the row-major right operand
/// with `n` columns and `depth` rows; `out_row` is accumulated in place.
#[inline]
pub(crate) fn strided_row(
    a: &[f64],
    a_offset: usize,
    a_stride: usize,
    depth: usize,
    b: &[f64],
    n: usize,
    out_row: &mut [f64],
) {
    debug_assert_eq!(out_row.len(), n);
    debug_assert!(depth == 0 || a_offset + (depth - 1) * a_stride < a.len());
    debug_assert!(b.len() >= depth * n);
    // SAFETY: every caller passes an `a_offset` inside `a` (a row start or
    // a column index of the stored matrix), so the pointer stays in bounds.
    let a_base = unsafe { a.as_ptr().add(a_offset) };
    // SAFETY: slice extents checked above; the tier is runtime-detected (or
    // clamped to) a supported feature set.
    unsafe {
        row_kernel(
            active_tier(),
            a_base,
            a_stride,
            depth,
            b.as_ptr(),
            n,
            out_row.as_mut_ptr(),
        )
    }
}

// ---------------------------------------------------------------------------
// Level 2: cache-blocked panel packing.
// ---------------------------------------------------------------------------

/// One operand of [`packed_matmul`]: a row-major buffer, read either as
/// the matrix it stores or as that matrix's transpose.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    data: &'a [f64],
    transposed: bool,
}

impl<'a> Operand<'a> {
    /// The stored matrix itself.
    pub(crate) fn stored(data: &'a [f64]) -> Self {
        Self {
            data,
            transposed: false,
        }
    }

    /// The transpose of the stored matrix.
    pub(crate) fn transposed(data: &'a [f64]) -> Self {
        Self {
            data,
            transposed: true,
        }
    }
}

/// Pack `B[pc..pc+kc, jc..jc+nc]` into `NR`-column panels: element `(kk, j)`
/// of panel `jp` lands at `(jp·kc + kk)·nr + j`. `B` is read from row-major
/// storage with leading dimension `ldb`: as stored, element `(kk, j)` is at
/// `kk·ldb + j` and each panel row is one contiguous run; transposed, it is
/// at `j·ldb + kk` and each panel column is one contiguous run. Columns past
/// `nc` are zero-padded so the microkernel always sees full panels (padded
/// lanes never reach valid output elements).
///
/// The buffer grows monotonically and is **never re-zeroed**: every slot of
/// the live `panels·kc·nr` region is either copied from `B` or explicitly
/// written with the padding zero, so stale bytes from a previous (larger)
/// call can never leak into this product.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: Operand<'_>,
    ldb: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = nc.div_ceil(nr);
    let need = panels * kc * nr;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for jp in 0..panels {
        let cols = nr.min(nc - jp * nr);
        let col0 = jc + jp * nr;
        let panel = &mut buf[jp * kc * nr..(jp + 1) * kc * nr];
        if b.transposed {
            for j in 0..cols {
                let src = (col0 + j) * ldb + pc;
                for (kk, &v) in b.data[src..src + kc].iter().enumerate() {
                    panel[kk * nr + j] = v;
                }
            }
        } else {
            for (kk, dst) in panel.chunks_exact_mut(nr).enumerate() {
                let src = (pc + kk) * ldb + col0;
                dst[..cols].copy_from_slice(&b.data[src..src + cols]);
            }
        }
        if cols < nr {
            for dst in panel.chunks_exact_mut(nr) {
                dst[cols..].fill(0.0);
            }
        }
    }
}

/// Pack `A[ic..ic+mc, pc..pc+kc]` into `MR`-row panels: element `(r, kk)` of
/// panel `ip` lands at `(ip·kc + kk)·MR + r`. `A` is read from row-major
/// storage with leading dimension `lda`: as stored, element `(r, kk)` is at
/// `r·lda + kk`; transposed, it is at `kk·lda + r`, so each `MR`-element run
/// of a panel is one contiguous copy. Rows past `mc` are zero-padded; like
/// [`pack_b`], the buffer grows monotonically and only padding slots are
/// zeroed.
fn pack_a(
    a: Operand<'_>,
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(MR);
    let need = panels * kc * MR;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for ip in 0..panels {
        let rows = MR.min(mc - ip * MR);
        let row0 = ic + ip * MR;
        let panel = &mut buf[ip * kc * MR..(ip + 1) * kc * MR];
        if a.transposed {
            for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
                let src = (pc + kk) * lda + row0;
                dst[..rows].copy_from_slice(&a.data[src..src + rows]);
            }
        } else {
            for r in 0..rows {
                let src_row = (row0 + r) * lda + pc;
                for (kk, &v) in a.data[src_row..src_row + kc].iter().enumerate() {
                    panel[kk * MR + r] = v;
                }
            }
        }
        if rows < MR {
            for dst in panel.chunks_exact_mut(MR) {
                dst[rows..].fill(0.0);
            }
        }
    }
}

/// Full `MR × 2·LANES` register-tile microkernel over one packed stripe:
/// loads the output tile, accumulates `kc` ascending-order terms per element
/// (broadcast `A`, two `B` vectors), stores the tile back.
///
/// # Safety
///
/// `ap`/`bp` must point at full packed panels of depth `kc`; `c` must be
/// valid for an `MR × 2·LANES` tile with row stride `ldc`; lane intrinsics
/// require the matching CPU feature.
#[inline(always)]
unsafe fn micro_full<V: SimdVec>(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    let lanes = V::LANES;
    let nr = 2 * lanes;
    let mut acc0 = [V::splat(0.0); MR];
    let mut acc1 = [V::splat(0.0); MR];
    for r in 0..MR {
        acc0[r] = V::load(c.add(r * ldc));
        acc1[r] = V::load(c.add(r * ldc + lanes));
    }
    for kk in 0..kc {
        let b0 = V::load(bp.add(kk * nr));
        let b1 = V::load(bp.add(kk * nr + lanes));
        for r in 0..MR {
            let av = V::splat(*ap.add(kk * MR + r));
            acc0[r] = acc0[r].mul_acc(av, b0);
            acc1[r] = acc1[r].mul_acc(av, b1);
        }
    }
    for r in 0..MR {
        acc0[r].store(c.add(r * ldc));
        acc1[r].store(c.add(r * ldc + lanes));
    }
}

/// Sweep one packed `A` block against one packed `B` stripe: all row panels
/// × all column panels through [`micro_full`]. A partial tile at the bottom
/// or right edge is copied into a zero-padded stack tile, run through the
/// same microkernel and copied back, so each of its elements keeps the one
/// ascending chain a full tile gives it (the padded lanes are discarded).
///
/// # Safety
///
/// `c` must point at the `(ic, jc)` corner of a buffer with row stride
/// `ldc` covering `mc × nc` writable elements; panels must be packed for
/// this block; lane intrinsics require the matching CPU feature.
#[inline(always)]
unsafe fn block_kernel_v<V: SimdVec>(
    apack: &[f64],
    bpack: &[f64],
    kc: usize,
    mc: usize,
    nc: usize,
    c: *mut f64,
    ldc: usize,
) {
    let nr = 2 * V::LANES;
    // The padded edge tile below holds `MR × NR_MAX` elements.
    assert!(nr <= NR_MAX, "register tile wider than the edge tile");
    let j_panels = nc.div_ceil(nr);
    let i_panels = mc.div_ceil(MR);
    for jp in 0..j_panels {
        let bpanel = bpack.as_ptr().add(jp * kc * nr);
        let nr_eff = nr.min(nc - jp * nr);
        for ip in 0..i_panels {
            let apanel = apack.as_ptr().add(ip * kc * MR);
            let mr_eff = MR.min(mc - ip * MR);
            let ctile = c.add(ip * MR * ldc + jp * nr);
            if mr_eff == MR && nr_eff == nr {
                micro_full::<V>(kc, apanel, bpanel, ctile, ldc);
            } else {
                // The copies stay inside the live `mr_eff × nr_eff` corner
                // of `c` the caller guarantees and inside the first `MR`
                // rows of stride `nr ≤ NR_MAX` of `tile`, which is all
                // `micro_full` touches.
                let mut tile = [0.0; MR * NR_MAX];
                for r in 0..mr_eff {
                    std::ptr::copy_nonoverlapping(
                        ctile.add(r * ldc),
                        tile.as_mut_ptr().add(r * nr),
                        nr_eff,
                    );
                }
                micro_full::<V>(kc, apanel, bpanel, tile.as_mut_ptr(), nr);
                for r in 0..mr_eff {
                    std::ptr::copy_nonoverlapping(
                        tile.as_ptr().add(r * nr),
                        ctile.add(r * ldc),
                        nr_eff,
                    );
                }
            }
        }
    }
}

/// Pack one `A` block into the calling thread's buffer and run the tier's
/// block kernel over the packed `B` stripe.
#[allow(clippy::too_many_arguments)]
fn process_row_block(
    tier: SimdTier,
    a: Operand<'_>,
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    bpack: &[f64],
    nc: usize,
    c_block: &mut [f64],
    ldc: usize,
    c_col: usize,
) {
    PACK_A.with(|buf| {
        let apack = &mut *buf.borrow_mut();
        pack_a(a, lda, ic, mc, pc, kc, apack);
        let live = mc.div_ceil(MR) * kc * MR;
        let c = unsafe { c_block.as_mut_ptr().add(c_col) };
        // SAFETY: `c` spans `mc` rows of stride `ldc` inside `c_block`, the
        // panels were packed for exactly this block (the buffer may be
        // larger; only the live prefix is passed), and the tier was
        // runtime-detected (or clamped to) a supported feature set.
        unsafe { block_kernel(tier, &apack[..live], bpack, kc, mc, nc, c, ldc) }
    });
}

/// Cache-blocked packed matmul: accumulate `A (m×k) · B (k×n)` into `out`
/// (row-major `m×n`, pre-seeded with zeros or a broadcast bias), where each
/// operand is read from its row-major buffer as stored or transposed (a
/// transposed `A` is stored `k×m`, a transposed `B` `n×k`). Row blocks fan
/// out over the rayon pool when `parallel` is set; every output element is
/// produced by exactly one task with a fixed accumulation chain, so the
/// parallel and sequential paths are byte-identical (on every tier — the
/// fused tiers differ from *scalar*, not from themselves), and so are the
/// transposed and as-stored reads of the same values.
pub(crate) fn packed_matmul(
    a: Operand<'_>,
    b: Operand<'_>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f64],
    parallel: bool,
) {
    use rayon::prelude::*;
    debug_assert_eq!(a.data.len(), m * k);
    debug_assert_eq!(b.data.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let lda = if a.transposed { m } else { k };
    let ldb = if b.transposed { k } else { n };
    let tier = active_tier();
    let nr = 2 * tier.lanes();
    // Row-block height: `MC` alone would hand a single block (and therefore
    // a single thread) any product with `m <= MC`, so when parallel, shrink
    // blocks until every executor gets a few to steal. The height is derived
    // only from the shape and thread count — never from runtime load — and
    // each output element keeps its fixed accumulation chain, so results
    // stay byte-identical whatever the block size.
    let block_rows = if parallel {
        MC.min(
            m.div_ceil(4 * rayon::current_num_threads())
                .next_multiple_of(MR),
        )
    } else {
        MC
    };
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            PACK_B.with(|buf| {
                let bpack_buf = &mut *buf.borrow_mut();
                pack_b(b, ldb, pc, kc, jc, nc, nr, bpack_buf);
                let live = nc.div_ceil(nr) * kc * nr;
                let bpack: &[f64] = &bpack_buf[..live];
                if parallel {
                    out.par_chunks_mut(block_rows * n)
                        .enumerate()
                        .for_each(|(blk, c_block)| {
                            let ic = blk * block_rows;
                            let mc = block_rows.min(m - ic);
                            process_row_block(
                                tier, a, lda, ic, mc, pc, kc, bpack, nc, c_block, n, jc,
                            );
                        });
                } else {
                    for (blk, c_block) in out.chunks_mut(block_rows * n).enumerate() {
                        let ic = blk * block_rows;
                        let mc = block_rows.min(m - ic);
                        process_row_block(tier, a, lda, ic, mc, pc, kc, bpack, nc, c_block, n, jc);
                    }
                }
            });
            pc += kc;
        }
        jc += nc;
    }
}
