//! Offline stand-in for the [`rand_distr`](https://crates.io/crates/rand_distr)
//! crate: the three continuous/discrete distributions this workspace samples
//! from, implemented over the local `rand` shim.
//!
//! Sampling algorithms are chosen for determinism and simplicity rather than
//! peak throughput: Normal uses Box–Muller (one pair of uniforms per draw),
//! LogNormal exponentiates a Normal draw, and Poisson uses Knuth's
//! product-of-uniforms method with a normal approximation above λ = 64.

pub use rand::distributions::Distribution;
use rand::{unit_f64, RngCore};

/// Error returned by distribution constructors with invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamError(&'static str);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

/// Upstream-compatible error aliases.
pub type NormalError = ParamError;
/// See [`NormalError`].
pub type PoissonError = ParamError;

/// Gaussian distribution with the given mean and standard deviation.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// `std_dev` must be finite and non-negative.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, NormalError> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(ParamError("Normal requires finite mean and std_dev >= 0"));
        }
        Ok(Normal { mean, std_dev })
    }

    /// Draw one standard-normal variate via Box–Muller.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // Avoid ln(0) by nudging the first uniform away from zero.
        let u1 = unit_f64(rng).max(f64::MIN_POSITIVE);
        let u2 = unit_f64(rng);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * Normal::standard(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// `mu`/`sigma` parameterise the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(LogNormal {
            norm: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Poisson distribution with rate `lambda`, sampled as `f64` counts.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// `lambda` must be finite and positive.
    pub fn new(lambda: f64) -> Result<Self, PoissonError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(ParamError("Poisson requires lambda > 0"));
        }
        Ok(Poisson { lambda })
    }
}

impl Distribution<f64> for Poisson {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lambda < 64.0 {
            // Knuth: multiply uniforms until the product drops below e^-λ.
            let limit = (-self.lambda).exp();
            let mut product = unit_f64(rng);
            let mut count = 0.0;
            while product > limit {
                product *= unit_f64(rng);
                count += 1.0;
            }
            count
        } else {
            // Normal approximation for large λ, clamped at zero.
            let draw = self.lambda + self.lambda.sqrt() * Normal::standard(rng);
            draw.round().max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of(samples: impl Iterator<Item = f64>) -> (f64, usize) {
        let values: Vec<f64> = samples.collect();
        let n = values.len();
        (values.iter().sum::<f64>() / n as f64, n)
    }

    #[test]
    fn normal_moments() {
        let dist = Normal::new(3.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (mean, n) = mean_of((0..50_000).map(|_| dist.sample(&mut rng)));
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean} over {n}");
    }

    #[test]
    fn lognormal_is_positive() {
        let dist = LogNormal::new(0.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..1000).all(|_| dist.sample(&mut rng) > 0.0));
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        for lambda in [3.0, 120.0] {
            let dist = Poisson::new(lambda).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let (mean, _) = mean_of((0..20_000).map(|_| dist.sample(&mut rng)));
            assert!(
                (mean - lambda).abs() < lambda * 0.05 + 0.1,
                "lambda {lambda}: mean = {mean}"
            );
        }
    }

    #[test]
    fn constructors_reject_bad_parameters() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Poisson::new(0.0).is_err());
    }
}
