//! Stochastic sampling helpers used by the generative models.

use rand::Rng;
use rand_distr::{Distribution, Gumbel, Normal};

use crate::loss::softmax_rows;
use crate::matrix::Matrix;
use crate::matrix32::Matrix32;

/// Overwrite `out` with i.i.d. standard-normal samples (the latent noise for
/// the VAE, GAN and diffusion models), one `Normal` draw per element in
/// order, so a sampling loop can draw each request's block straight into its
/// rows of a stacked matrix.
pub fn standard_normal_fill<R: Rng>(rng: &mut R, out: &mut [f64]) {
    let normal = Normal::new(0.0, 1.0).expect("unit normal is valid");
    for v in out {
        *v = normal.sample(rng);
    }
}

/// Fill a caller-owned buffer with i.i.d. standard-normal samples.
///
/// The training-loop variant of [`standard_normal_fill`]: reuses the
/// buffer's allocation and draws variates with the *pairwise* Box–Muller
/// transform — each uniform pair yields both the cosine and the sine
/// variate, halving the uniform draws and transcendental evaluations per
/// sample. The stream differs from `standard_normal_fill` for the same
/// RNG state, but remains fully determined by it.
pub fn standard_normal_into<R: Rng>(rows: usize, cols: usize, rng: &mut R, out: &mut Matrix) {
    out.reset(rows, cols);
    let data = out.data_mut();
    let len = data.len();
    let mut i = 0;
    while i + 2 <= len {
        let (z0, z1) = normal_pair(rng);
        data[i] = z0;
        data[i + 1] = z1;
        i += 2;
    }
    if i < len {
        data[i] = normal_pair(rng).0;
    }
}

/// Fill a caller-owned `f32` buffer with i.i.d. standard-normal samples —
/// the inference-tier twin of [`standard_normal_into`].
///
/// The variates are drawn with the *same* `f64` pairwise Box–Muller
/// transform and then rounded to `f32`, so for a given RNG state this
/// produces exactly the `f32` rounding of the `f64` stream: an `f32`
/// sampling run and an `f64` sampling run from the same seed consume
/// identical draws and differ only by precision, which is what lets the
/// end-to-end tests pin their distribution deltas tightly.
pub fn standard_normal_into_f32<R: Rng>(rows: usize, cols: usize, rng: &mut R, out: &mut Matrix32) {
    out.resize_zeroed(rows, cols);
    let data = out.data_mut();
    let len = data.len();
    let mut i = 0;
    while i + 2 <= len {
        let (z0, z1) = normal_pair(rng);
        data[i] = z0 as f32;
        data[i + 1] = z1 as f32;
        i += 2;
    }
    if i < len {
        data[i] = normal_pair(rng).0 as f32;
    }
}

/// One Box–Muller pair of independent standard-normal variates.
#[inline]
fn normal_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1 = rand::unit_f64(rng).max(f64::MIN_POSITIVE);
    let u2 = rand::unit_f64(rng);
    let radius = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (radius * theta.cos(), radius * theta.sin())
}

/// Gumbel-softmax relaxation of categorical sampling.
///
/// Adds Gumbel(0, 1) noise to the logits and applies a temperature-scaled
/// softmax, giving differentiable "almost one-hot" rows. Temperature → 0
/// recovers hard argmax sampling; CTGAN-family generators use τ ≈ 0.2.
pub fn gumbel_softmax<R: Rng>(logits: &Matrix, temperature: f64, rng: &mut R) -> Matrix {
    assert!(temperature > 0.0, "temperature must be positive");
    let gumbel = Gumbel::new(0.0, 1.0).expect("unit gumbel is valid");
    let noisy = logits.map(|_| 0.0).zip(logits, |_, l| l); // clone via zip keeps shape
    let mut noisy = noisy;
    for v in noisy.data_mut() {
        *v = (*v + gumbel.sample(rng)) / temperature;
    }
    softmax_rows(&noisy)
}

/// Sample a categorical index from each row of a probability matrix.
pub fn sample_categorical_rows<R: Rng>(probs: &Matrix, rng: &mut R) -> Vec<usize> {
    let mut out = Vec::with_capacity(probs.rows());
    for r in 0..probs.rows() {
        let row = probs.row(r);
        let total: f64 = row.iter().sum();
        let mut u = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        let mut chosen = row.len() - 1;
        for (i, &p) in row.iter().enumerate() {
            if u < p {
                chosen = i;
                break;
            }
            u -= p;
        }
        out.push(chosen);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_matrix_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Matrix::zeros(200, 50);
        standard_normal_fill(&mut rng, m.data_mut());
        let mean = m.mean();
        let var = m.data().iter().map(|v| (v - mean).powi(2)).sum::<f64>() / m.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_into_moments_reuse_and_determinism() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut buf = Matrix::zeros(1, 1);
        standard_normal_into(150, 67, &mut rng, &mut buf);
        assert_eq!((buf.rows(), buf.cols()), (150, 67));
        let mean = buf.mean();
        let var = buf.data().iter().map(|v| (v - mean).powi(2)).sum::<f64>() / buf.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        // Odd element count exercises the lone-variate tail. Same seed, same
        // stream — including into a reused, previously larger buffer.
        let mut a = StdRng::seed_from_u64(8);
        let mut b = StdRng::seed_from_u64(8);
        let mut first = Matrix::zeros(0, 0);
        standard_normal_into(3, 5, &mut a, &mut first);
        standard_normal_into(3, 5, &mut b, &mut buf);
        assert_eq!(first, buf);
    }

    #[test]
    fn f32_normal_fill_is_the_rounded_f64_stream() {
        // Same seed: the f32 fill must be exactly the f32 rounding of the
        // f64 fill, element for element (including the odd-length tail).
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut hi = Matrix::zeros(0, 0);
        let mut lo = Matrix32::zeros(4, 4);
        standard_normal_into(5, 3, &mut a, &mut hi);
        standard_normal_into_f32(5, 3, &mut b, &mut lo);
        assert_eq!((lo.rows(), lo.cols()), (5, 3));
        for (&l, &h) in lo.data().iter().zip(hi.data()) {
            assert_eq!(l, h as f32);
        }
        // And both RNGs end in the same state.
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gumbel_softmax_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(1);
        let logits = Matrix::from_rows(&[vec![2.0, 0.0, -2.0], vec![0.0, 0.0, 0.0]]);
        let soft = gumbel_softmax(&logits, 0.5, &mut rng);
        for r in 0..soft.rows() {
            let sum: f64 = soft.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gumbel_softmax_low_temperature_prefers_max_logit() {
        let mut rng = StdRng::seed_from_u64(2);
        let logits = Matrix::from_rows(&[vec![5.0, 0.0, 0.0]]);
        let mut wins = 0;
        for _ in 0..200 {
            let soft = gumbel_softmax(&logits, 0.1, &mut rng);
            let row = soft.row(0);
            if row[0] > row[1] && row[0] > row[2] {
                wins += 1;
            }
        }
        assert!(wins > 180, "wins = {wins}");
    }

    #[test]
    fn categorical_sampling_respects_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let probs = Matrix::from_rows(&[vec![0.9, 0.1, 0.0]]);
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[sample_categorical_rows(&probs, &mut rng)[0]] += 1;
        }
        assert!(counts[0] > 1600);
        assert_eq!(counts[2], 0);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = gumbel_softmax(&Matrix::zeros(1, 2), 0.0, &mut rng);
    }
}
