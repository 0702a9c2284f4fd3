//! Runtime SIMD tier selection for the matmul kernels.
//!
//! The crate's private kernel layer has five implementations of every
//! inner microkernel — portable scalar, SSE2, AVX2, FMA and AVX-512, built
//! on `core::arch` over `f64` lanes — and every matrix product dispatches
//! through the tier chosen here. The tier is
//! decided **once per process** (first use) from CPUID feature detection, so
//! the hot training loop pays one cached atomic load per kernel call and the
//! selected path is fixed for the life of the process: repeated runs with
//! the same seed are deterministic because the same tier executes every
//! time.
//!
//! **Bit-exact tiers and the fused tier.** The scalar, SSE2, AVX2 and
//! AVX-512 tiers accumulate every output element along the inner dimension
//! in ascending index order with one product added at a time (multiply then
//! add, never FMA), so switching among them never changes results on finite
//! data: the property tests in `tests/simd_kernels.rs` pin those tiers to
//! the scalar reference byte-for-byte. Automatic detection picks the widest
//! of them the host supports, so an AVX-512F host runs 8 lanes. The FMA
//! tier fuses each multiply-add into one rounding step — *not* bit-equal to
//! the scalar chain — so it is **opt-in only**: automatic detection never
//! selects it, and the property tests validate it against the reference
//! within 1e-8 relative tolerance instead of byte equality.
//!
//! The `SURROGATE_SIMD` environment variable forces a tier (`scalar`,
//! `sse2`, `avx2`, `fma` or `avx512`, case-insensitive; `auto` keeps the
//! detected tier). A recognised request the host cannot honour is clamped
//! down the exact chain `scalar < sse2 < avx2 < avx512` rather than crashing
//! on an illegal instruction: `SURROGATE_SIMD=avx512` on a host without
//! AVX-512F runs `avx2`, never the fused tier, and `fma` on a host without
//! FMA runs the best exact tier up to `avx2`. An **unrecognised** value is
//! a hard error (panic with the accepted set): silently clamping a typo
//! like `avx521` would run a different numerical contract than the one
//! asked for.

use std::sync::OnceLock;

/// Instruction-set tier the matmul microkernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar fallback (any architecture). Bit-exact.
    Scalar,
    /// 128-bit `core::arch` kernels (x86-64 baseline). Bit-exact.
    Sse2,
    /// 256-bit `core::arch` kernels, runtime-detected. Bit-exact.
    Avx2,
    /// 256-bit kernels with fused multiply-add. Opt-in, tolerance-validated.
    Fma,
    /// 512-bit `core::arch` kernels, runtime-detected. Bit-exact.
    Avx512,
}

impl SimdTier {
    /// Number of `f64` lanes per vector register on this tier.
    pub fn lanes(self) -> usize {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Sse2 => 2,
            SimdTier::Avx2 | SimdTier::Fma => 4,
            SimdTier::Avx512 => 8,
        }
    }

    /// Whether this tier keeps the bit-exact scalar accumulation contract
    /// (multiply then add, one rounding per term). Only the FMA tier fuses
    /// the multiply-add; it is validated by tolerance instead.
    pub fn bit_exact(self) -> bool {
        self != SimdTier::Fma
    }

    /// Lower-case tier name, matching what `SURROGATE_SIMD` accepts.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
            SimdTier::Fma => "fma",
            SimdTier::Avx512 => "avx512",
        }
    }
}

static TIER: OnceLock<SimdTier> = OnceLock::new();

/// The tier every kernel dispatches through, selected once per process.
///
/// # Panics
///
/// Panics (with the accepted value set) when `SURROGATE_SIMD` holds an
/// unrecognised value — a typo must not silently run a different numerical
/// contract than the one requested.
pub fn active_tier() -> SimdTier {
    *TIER.get_or_init(|| {
        match select_tier(
            std::env::var("SURROGATE_SIMD").ok().as_deref(),
            detected_auto_tier(),
            fma_supported(),
        ) {
            Ok(tier) => tier,
            Err(msg) => panic!("{msg}"),
        }
    })
}

/// Best **bit-exact** tier the host CPU supports — what runs when nothing
/// is forced, and the ceiling every request but `fma` is clamped to.
fn detected_auto_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            SimdTier::Avx512
        } else if std::is_x86_feature_detected!("avx2") {
            SimdTier::Avx2
        } else {
            // SSE2 is part of the x86-64 baseline; no detection needed.
            SimdTier::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdTier::Scalar
    }
}

/// Whether the host CPU can run the opt-in fused tier (AVX2 and FMA).
fn fma_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolve an optional `SURROGATE_SIMD` request on a host whose best
/// bit-exact tier is `exact` and which runs the fused tier when `fma`:
/// recognised exact names select that tier clamped down to `exact`, `fma`
/// selects the fused tier or else the best exact tier up to AVX2,
/// `auto`/unset keeps `exact`, and anything else is rejected with the
/// accepted set named in the message.
fn select_tier(request: Option<&str>, exact: SimdTier, fma: bool) -> Result<SimdTier, String> {
    let requested = match request.map(|r| r.trim().to_ascii_lowercase()) {
        Some(name) => match name.as_str() {
            "scalar" => SimdTier::Scalar,
            "sse2" => SimdTier::Sse2,
            "avx2" => SimdTier::Avx2,
            "fma" if fma => return Ok(SimdTier::Fma),
            "fma" => SimdTier::Avx2,
            "avx512" => SimdTier::Avx512,
            "" | "auto" => exact,
            other => {
                return Err(format!(
                    "unrecognized SURROGATE_SIMD value '{other}' \
                     (accepted: scalar, sse2, avx2, fma, avx512, auto)"
                ))
            }
        },
        None => exact,
    };
    Ok(requested.min(exact))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_order_and_lanes() {
        assert!(SimdTier::Scalar < SimdTier::Sse2);
        assert!(SimdTier::Sse2 < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Fma);
        assert!(SimdTier::Fma < SimdTier::Avx512);
        assert_eq!(SimdTier::Scalar.lanes(), 1);
        assert_eq!(SimdTier::Sse2.lanes(), 2);
        assert_eq!(SimdTier::Avx2.lanes(), 4);
        assert_eq!(SimdTier::Fma.lanes(), 4);
        assert_eq!(SimdTier::Avx512.lanes(), 8);
    }

    #[test]
    fn fused_tiers_are_not_bit_exact() {
        assert!(SimdTier::Scalar.bit_exact());
        assert!(SimdTier::Sse2.bit_exact());
        assert!(SimdTier::Avx2.bit_exact());
        assert!(!SimdTier::Fma.bit_exact());
        assert!(SimdTier::Avx512.bit_exact());
    }

    #[test]
    fn select_honours_requests_up_to_max() {
        // An AVX-512F host with FMA: every tier is available.
        let exact = SimdTier::Avx512;
        assert_eq!(
            select_tier(Some("scalar"), exact, true),
            Ok(SimdTier::Scalar)
        );
        assert_eq!(select_tier(Some("SSE2"), exact, true), Ok(SimdTier::Sse2));
        assert_eq!(select_tier(Some(" avx2 "), exact, true), Ok(SimdTier::Avx2));
        assert_eq!(select_tier(Some("fma"), exact, true), Ok(SimdTier::Fma));
        assert_eq!(
            select_tier(Some("AVX512"), exact, true),
            Ok(SimdTier::Avx512)
        );
        // Unset and `auto` pick the widest bit-exact tier, never the fused
        // one.
        assert_eq!(select_tier(None, exact, true), Ok(SimdTier::Avx512));
        assert_eq!(select_tier(Some("auto"), exact, true), Ok(SimdTier::Avx512));
    }

    #[test]
    fn select_clamps_recognised_requests_to_host_support() {
        // AVX-512 request on an AVX2+FMA host runs AVX2, not the fused tier.
        assert_eq!(
            select_tier(Some("avx512"), SimdTier::Avx2, true),
            Ok(SimdTier::Avx2)
        );
        assert_eq!(
            select_tier(Some("avx512"), SimdTier::Avx2, false),
            Ok(SimdTier::Avx2)
        );
        // The fused tier needs FMA, not AVX-512F.
        assert_eq!(
            select_tier(Some("fma"), SimdTier::Avx2, true),
            Ok(SimdTier::Fma)
        );
        // FMA request on a plain-AVX2 host clamps to AVX2, and on an
        // SSE2-only host to SSE2.
        assert_eq!(
            select_tier(Some("fma"), SimdTier::Avx2, false),
            Ok(SimdTier::Avx2)
        );
        assert_eq!(
            select_tier(Some("fma"), SimdTier::Sse2, false),
            Ok(SimdTier::Sse2)
        );
        assert_eq!(
            select_tier(Some("avx2"), SimdTier::Sse2, false),
            Ok(SimdTier::Sse2)
        );
        assert_eq!(
            select_tier(Some("sse2"), SimdTier::Scalar, false),
            Ok(SimdTier::Scalar)
        );
        assert_eq!(
            select_tier(None, SimdTier::Scalar, false),
            Ok(SimdTier::Scalar)
        );
    }

    #[test]
    fn select_rejects_unknown_values_with_the_accepted_set() {
        for bad in ["avx512-nope", "avx521", "fast", "f32", "0"] {
            let err = select_tier(Some(bad), SimdTier::Avx512, true)
                .expect_err("unknown value must be rejected");
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("accepted: scalar, sse2, avx2, fma, avx512, auto"));
        }
    }

    #[test]
    fn active_tier_is_stable_across_calls() {
        // Dispatch determinism: the process-wide tier never changes once
        // selected.
        let first = active_tier();
        for _ in 0..8 {
            assert_eq!(active_tier(), first);
        }
        if first == SimdTier::Fma {
            assert!(fma_supported());
        } else {
            assert!(first <= detected_auto_tier());
        }
    }
}
