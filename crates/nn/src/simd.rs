//! Runtime SIMD tier selection for the matmul kernels.
//!
//! The crate's private kernel layer has five implementations of every
//! inner microkernel — portable scalar, SSE2, AVX2, FMA and AVX-512, built
//! on `core::arch`, each instantiated for both `f64` and `f32` lanes — and
//! every matrix product dispatches through the tier chosen here. The tier is
//! decided **once per process** (first use) from CPUID feature detection, so
//! the hot training loop pays one cached atomic load per kernel call and the
//! selected path is fixed for the life of the process: repeated runs with
//! the same seed are deterministic because the same tier executes every
//! time.
//!
//! **Bit-exact vs tolerance tiers.** The scalar, SSE2 and AVX2 tiers
//! accumulate every output element along the inner dimension in ascending
//! index order with one product added at a time (multiply then add, never
//! FMA), so switching among them never changes results on finite data: the
//! property tests in `tests/simd_kernels.rs` pin those tiers to the scalar
//! reference byte-for-byte. The FMA and AVX-512 tiers fuse each
//! multiply-add into one rounding step — faster, but necessarily *not*
//! bit-equal to the scalar chain — so they are **opt-in only**: automatic
//! detection never selects past AVX2, and the property tests validate the
//! fused tiers against the reference within 1e-8 relative tolerance
//! instead of byte equality.
//!
//! The `SURROGATE_SIMD` environment variable forces a tier (`scalar`,
//! `sse2`, `avx2`, `fma` or `avx512`, case-insensitive; `auto` keeps the
//! detected tier). A recognised request the host cannot honour is clamped
//! down to the best supported tier rather than crashing on an illegal
//! instruction, so `SURROGATE_SIMD=avx512` on an AVX2+FMA host runs the FMA
//! tier. An **unrecognised** value is a hard error (panic with the accepted
//! set): silently clamping a typo like `avx521` would run a different
//! numerical contract than the one asked for.

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
    /// 512-bit kernels with fused multiply-add. Opt-in, tolerance-validated.
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

    /// Number of `f32` lanes per vector register on this tier (double the
    /// `f64` width everywhere except the scalar fallback).
    pub fn lanes_f32(self) -> usize {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Sse2 => 4,
            SimdTier::Avx2 | SimdTier::Fma => 8,
            SimdTier::Avx512 => 16,
        }
    }

    /// Whether this tier keeps the bit-exact scalar accumulation contract
    /// (multiply then add, one rounding per term). The FMA and AVX-512
    /// tiers fuse the multiply-add and are validated by tolerance instead.
    pub fn bit_exact(self) -> bool {
        matches!(self, SimdTier::Scalar | SimdTier::Sse2 | SimdTier::Avx2)
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
            detected_max_tier(),
        ) {
            Ok(tier) => tier,
            Err(msg) => panic!("{msg}"),
        }
    })
}

/// Best **bit-exact** tier the host CPU supports — what runs when nothing
/// is forced. Automatic selection stops at AVX2: the FMA/AVX-512 tiers
/// change rounding and must be asked for explicitly.
fn detected_auto_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
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

/// Best tier the host CPU supports at all, including the opt-in fused
/// tiers — the ceiling explicit `SURROGATE_SIMD` requests are clamped to.
fn detected_max_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            SimdTier::Avx512
        } else if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            SimdTier::Fma
        } else if std::is_x86_feature_detected!("avx2") {
            SimdTier::Avx2
        } else {
            SimdTier::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdTier::Scalar
    }
}

/// Resolve an optional `SURROGATE_SIMD` request: recognised names select
/// that tier (clamped down to what the host supports), `auto`/unset keeps
/// the detected bit-exact tier, and anything else is rejected with the
/// accepted set named in the message.
fn select_tier(request: Option<&str>, auto: SimdTier, max: SimdTier) -> Result<SimdTier, String> {
    let requested = match request.map(|r| r.trim().to_ascii_lowercase()) {
        Some(name) => match name.as_str() {
            "scalar" => SimdTier::Scalar,
            "sse2" => SimdTier::Sse2,
            "avx2" => SimdTier::Avx2,
            "fma" => SimdTier::Fma,
            "avx512" => SimdTier::Avx512,
            "" | "auto" => auto,
            other => {
                return Err(format!(
                    "unrecognized SURROGATE_SIMD value '{other}' \
                     (accepted: scalar, sse2, avx2, fma, avx512, auto)"
                ))
            }
        },
        None => auto,
    };
    Ok(requested.min(max))
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
        // The f32 instantiation doubles every vector width.
        for tier in [
            SimdTier::Sse2,
            SimdTier::Avx2,
            SimdTier::Fma,
            SimdTier::Avx512,
        ] {
            assert_eq!(tier.lanes_f32(), 2 * tier.lanes(), "{tier:?}");
        }
        assert_eq!(SimdTier::Scalar.lanes_f32(), 1);
    }

    #[test]
    fn fused_tiers_are_not_bit_exact() {
        assert!(SimdTier::Scalar.bit_exact());
        assert!(SimdTier::Sse2.bit_exact());
        assert!(SimdTier::Avx2.bit_exact());
        assert!(!SimdTier::Fma.bit_exact());
        assert!(!SimdTier::Avx512.bit_exact());
    }

    #[test]
    fn select_honours_requests_up_to_max() {
        let auto = SimdTier::Avx2;
        let max = SimdTier::Avx512;
        assert_eq!(select_tier(Some("scalar"), auto, max), Ok(SimdTier::Scalar));
        assert_eq!(select_tier(Some("SSE2"), auto, max), Ok(SimdTier::Sse2));
        assert_eq!(select_tier(Some(" avx2 "), auto, max), Ok(SimdTier::Avx2));
        assert_eq!(select_tier(Some("fma"), auto, max), Ok(SimdTier::Fma));
        assert_eq!(select_tier(Some("AVX512"), auto, max), Ok(SimdTier::Avx512));
        assert_eq!(select_tier(None, auto, max), Ok(SimdTier::Avx2));
        // `auto` and the fused tiers: auto never selects past the bit-exact
        // ceiling, even on a host that supports AVX-512.
        assert_eq!(select_tier(Some("auto"), auto, max), Ok(SimdTier::Avx2));
    }

    #[test]
    fn select_clamps_recognised_requests_to_host_support() {
        // AVX-512 request on an AVX2+FMA host runs the FMA tier.
        assert_eq!(
            select_tier(Some("avx512"), SimdTier::Avx2, SimdTier::Fma),
            Ok(SimdTier::Fma)
        );
        // FMA request on a plain-AVX2 host clamps to AVX2.
        assert_eq!(
            select_tier(Some("fma"), SimdTier::Avx2, SimdTier::Avx2),
            Ok(SimdTier::Avx2)
        );
        assert_eq!(
            select_tier(Some("avx2"), SimdTier::Sse2, SimdTier::Sse2),
            Ok(SimdTier::Sse2)
        );
        assert_eq!(
            select_tier(Some("sse2"), SimdTier::Scalar, SimdTier::Scalar),
            Ok(SimdTier::Scalar)
        );
        assert_eq!(
            select_tier(None, SimdTier::Scalar, SimdTier::Scalar),
            Ok(SimdTier::Scalar)
        );
    }

    #[test]
    fn select_rejects_unknown_values_with_the_accepted_set() {
        for bad in ["avx512-nope", "avx521", "fast", "f32", "0"] {
            let err = select_tier(Some(bad), SimdTier::Avx2, SimdTier::Avx512)
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
        assert!(first <= detected_max_tier());
    }
}
