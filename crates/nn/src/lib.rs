//! Minimal from-scratch neural-network substrate.
//!
//! The surrogate models in the paper — TVAE (variational autoencoder),
//! CTABGAN+ (conditional GAN) and TabDDPM (diffusion model with MLP
//! denoiser) — are all built out of multi-layer perceptrons. This crate
//! provides exactly the pieces those models need, with no external ML
//! framework:
//!
//! * [`matrix`] — a dense row-major `f64` matrix whose matmuls run on
//!   SIMD-dispatched (scalar/SSE2/AVX2/AVX-512, plus opt-in FMA),
//!   cache-blocked packed kernels with rayon parallelism (see [`simd`] for
//!   the once-per-process tier choice); `f64` is the one element type, for
//!   training and sampling alike,
//! * [`layer`] — linear layers and activation functions with manual
//!   forward/backward passes,
//! * [`mlp`] — a composable feed-forward network,
//! * [`loss`] — MSE, binary/softmax cross-entropy and the Gaussian KL term
//!   used by the VAE,
//! * [`optim`] — Adam, the one optimizer,
//! * [`schedule`] — cosine learning-rate decay (the schedule the paper
//!   trains with),
//! * [`sample`] — the one standard-normal generator (a ziggurat) behind
//!   every noise draw and weight initialisation.
//!
//! Everything is deterministic given an RNG seed, which the tests and the
//! experiment harness rely on.

mod kernels;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod sample;
pub mod schedule;
pub mod simd;

pub use layer::{Activation, LinearLayer};
pub use loss::{
    bce_with_logits, gaussian_kl, mse_loss, softmax_cross_entropy, softmax_rows, softmax_slice,
};
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpConfig};
pub use optim::Adam;
pub use sample::standard_normal_fill;
pub use schedule::CosineDecay;
pub use simd::{active_tier, SimdTier};
