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
//! [`crate::simd::active_tier`]. The direct row kernel ([`row_kernel_v`])
//! sweeps an output row in tiles of four vectors and ends it with one
//! remainder tile of up to four vectors whose last vector is loaded and
//! stored through a lane mask, so no output column runs as a scalar chain.
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
//! **Numerical contract.** On the bit-exact tiers (scalar/SSE2/AVX2/AVX-512)
//! every kernel — packed or direct — accumulates each output element along
//! the inner dimension in ascending index order, one `mul` + one `add` per
//! term (never FMA), starting from the value already in the output slot; a
//! masked lane computes exactly what a full one does. Results are therefore
//! byte-identical across those tiers, across the packed/direct split,
//! across thread counts, and to the register-tiled scalar kernel PR 2
//! shipped (frozen in `matrix::reference::tiled_matmul` as the perf
//! baseline); only the documented `±0.0`/non-finite caveat against the seed
//! reference kernel remains. The one opt-in fused tier, FMA, replaces the
//! `mul`+`add` pair with a fused multiply-add ([`SimdVec::mul_acc`]) — one
//! rounding per term instead of two — in every vector lane, the packed edge
//! tiles and the direct row tails included, so it is *not* bit-equal to the
//! scalar chain and is validated against it within 1e-8 relative tolerance
//! instead (see `tests/simd_kernels.rs`). It remains deterministic: the
//! accumulation chain per element is still fixed by the shape alone, so
//! fused results are byte-identical run-to-run and across thread counts.

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
/// `load`/`store` dereference raw pointers to `LANES` consecutive elements,
/// `load_partial`/`store_partial` to `count` of them; callers guarantee
/// validity. Implementations may use `core::arch` intrinsics that are
/// undefined behaviour on CPUs without the matching feature; instantiations
/// are only reachable through the runtime-detected tier dispatch.
trait SimdVec: Copy {
    /// Lanes per register.
    const LANES: usize;
    /// Broadcast one value to all lanes.
    unsafe fn splat(v: f64) -> Self;
    /// Unaligned load of `LANES` values.
    unsafe fn load(ptr: *const f64) -> Self;
    /// Unaligned store of `LANES` values.
    unsafe fn store(self, ptr: *mut f64);
    /// Load the first `count` values (`1..=LANES`) into the low lanes and
    /// zero the rest, reading nothing past `ptr + count`.
    unsafe fn load_partial(ptr: *const f64, count: usize) -> Self;
    /// Store the low `count` lanes (`1..=LANES`), writing nothing past
    /// `ptr + count`.
    unsafe fn store_partial(self, ptr: *mut f64, count: usize);
    /// `self + a·b` lane-wise. Bit-exact tiers round the multiply and the
    /// add separately; the FMA tier fuses them into one rounding.
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
    unsafe fn load_partial(ptr: *const f64, _count: usize) -> Self {
        Self::load(ptr)
    }
    #[inline(always)]
    unsafe fn store_partial(self, ptr: *mut f64, _count: usize) {
        self.store(ptr);
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

    /// Implement a lane type over one x86 register width. The closure-like
    /// last argument spells `mul_acc` on the raw registers: a separate
    /// multiply and add on the bit-exact tiers, a fused multiply-add on FMA.
    macro_rules! impl_x86_lane {
        ($name:ident, $reg:ty, $lanes:expr, $set1:ident, $loadu:ident, $storeu:ident,
         $load_partial:ident, $store_partial:ident,
         |$acc:ident, $a:ident, $b:ident| $mul_acc:expr) => {
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
                unsafe fn load_partial(ptr: *const f64, count: usize) -> Self {
                    $name($load_partial(ptr, count))
                }
                #[inline(always)]
                unsafe fn store_partial(self, ptr: *mut f64, count: usize) {
                    $store_partial(ptr, count, self.0);
                }
                #[inline(always)]
                unsafe fn mul_acc(self, a: Self, b: Self) -> Self {
                    let ($acc, $a, $b) = (self.0, a.0, b.0);
                    $name($mul_acc)
                }
            }
        };
    }

    // Partial loads and stores per register width: SSE2 moves one scalar
    // or the whole register, AVX a sign-bit lane mask, AVX-512 a `k` mask.
    // Each takes `count` in `1..=lanes` and touches only those elements at
    // `ptr`, which the caller guarantees valid; the register's CPU feature
    // is enabled by the `#[target_feature]` wrapper they inline into.
    #[inline(always)]
    unsafe fn sse2_load_partial(ptr: *const f64, count: usize) -> __m128d {
        if count == 1 {
            _mm_load_sd(ptr)
        } else {
            _mm_loadu_pd(ptr)
        }
    }

    #[inline(always)]
    unsafe fn sse2_store_partial(ptr: *mut f64, count: usize, v: __m128d) {
        if count == 1 {
            _mm_store_sd(ptr, v)
        } else {
            _mm_storeu_pd(ptr, v)
        }
    }

    /// Lane `l` of the mask has its sign bit set exactly when `l < count`.
    #[inline(always)]
    unsafe fn avx_mask(count: usize) -> __m256i {
        _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(count as i64),
            _mm256_set_epi64x(3, 2, 1, 0),
        )
    }

    #[inline(always)]
    unsafe fn avx_load_partial(ptr: *const f64, count: usize) -> __m256d {
        _mm256_maskload_pd(ptr, avx_mask(count))
    }

    #[inline(always)]
    unsafe fn avx_store_partial(ptr: *mut f64, count: usize, v: __m256d) {
        _mm256_maskstore_pd(ptr, avx_mask(count), v)
    }

    #[inline(always)]
    unsafe fn avx512_load_partial(ptr: *const f64, count: usize) -> __m512d {
        _mm512_maskz_loadu_pd(u8::MAX >> (8 - count), ptr)
    }

    #[inline(always)]
    unsafe fn avx512_store_partial(ptr: *mut f64, count: usize, v: __m512d) {
        _mm512_mask_storeu_pd(ptr, u8::MAX >> (8 - count), v)
    }

    // Two lanes (SSE2, baseline), four (AVX2 mul+add / FMA fused), eight
    // (AVX-512 mul+add).
    impl_x86_lane!(
        Sse2F64,
        __m128d,
        2,
        _mm_set1_pd,
        _mm_loadu_pd,
        _mm_storeu_pd,
        sse2_load_partial,
        sse2_store_partial,
        |acc, a, b| _mm_add_pd(acc, _mm_mul_pd(a, b))
    );
    impl_x86_lane!(
        Avx2F64,
        __m256d,
        4,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        avx_load_partial,
        avx_store_partial,
        |acc, a, b| _mm256_add_pd(acc, _mm256_mul_pd(a, b))
    );
    impl_x86_lane!(
        FmaF64,
        __m256d,
        4,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        avx_load_partial,
        avx_store_partial,
        |acc, a, b| _mm256_fmadd_pd(a, b, acc)
    );
    impl_x86_lane!(
        Avx512F64,
        __m512d,
        8,
        _mm512_set1_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        avx512_load_partial,
        avx512_store_partial,
        |acc, a, b| _mm512_add_pd(acc, _mm512_mul_pd(a, b))
    );
}

// ---------------------------------------------------------------------------
// Level 1: direct row kernels (axpy-shaped, one output row at a time).
// ---------------------------------------------------------------------------

/// One output row of a product: `out_row[j] += Σ_kk a(kk) · b[kk·n + j]`,
/// where `a(kk)` is read from `a_base` with stride `a_stride`. Stride 1 is a
/// plain `A·B` row; stride `ka` with base `col` is row `col` of `Aᵀ·B`.
///
/// The row runs as full tiles of four vectors, whose four accumulators keep
/// enough independent add-chains in flight to cover FP latency, and then
/// one remainder tile of up to four vectors whose last vector is masked to
/// the live columns, so the last columns accumulate in vector lanes too.
/// Each output element still accumulates as one ascending-`kk` chain.
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
        row_tile::<V, 4, false>(a_base, a_stride, depth, b.add(j), n, out_row.add(j), lanes);
        j += tile;
    }
    let rest = n - j;
    if rest == 0 {
        return;
    }
    let vectors = rest.div_ceil(lanes);
    let last = rest - (vectors - 1) * lanes;
    let (b, out) = (b.add(j), out_row.add(j));
    match vectors {
        1 => row_tile::<V, 1, true>(a_base, a_stride, depth, b, n, out, last),
        2 => row_tile::<V, 2, true>(a_base, a_stride, depth, b, n, out, last),
        3 => row_tile::<V, 3, true>(a_base, a_stride, depth, b, n, out, last),
        _ => row_tile::<V, 4, true>(a_base, a_stride, depth, b, n, out, last),
    }
}

/// `NV` adjacent vectors of one output row, starting at `out` (and at `b`
/// in the first row of `B`): each vector keeps its own accumulator across
/// the `depth` terms. With `MASK_LAST`, the last vector holds only its low
/// `last` lanes and is loaded and stored through a mask.
///
/// # Safety
///
/// As [`row_kernel_v`], for the `(NV - 1)·LANES + last` columns the tile
/// covers.
#[inline(always)]
unsafe fn row_tile<V: SimdVec, const NV: usize, const MASK_LAST: bool>(
    a_base: *const f64,
    a_stride: usize,
    depth: usize,
    b: *const f64,
    n: usize,
    out: *mut f64,
    last: usize,
) {
    let lanes = V::LANES;
    let mut acc = [V::splat(0.0); NV];
    for (v, acc) in acc.iter_mut().enumerate() {
        let ptr = out.add(v * lanes);
        *acc = if MASK_LAST && v == NV - 1 {
            V::load_partial(ptr, last)
        } else {
            V::load(ptr)
        };
    }
    for kk in 0..depth {
        let av = V::splat(*a_base.add(kk * a_stride));
        let brow = b.add(kk * n);
        for (v, acc) in acc.iter_mut().enumerate() {
            let ptr = brow.add(v * lanes);
            let bv = if MASK_LAST && v == NV - 1 {
                V::load_partial(ptr, last)
            } else {
                V::load(ptr)
            };
            *acc = acc.mul_acc(av, bv);
        }
    }
    for (v, acc) in acc.into_iter().enumerate() {
        let ptr = out.add(v * lanes);
        if MASK_LAST && v == NV - 1 {
            acc.store_partial(ptr, last);
        } else {
            acc.store(ptr);
        }
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
/// fused tier differs from *scalar*, not from itself), and so are the
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
