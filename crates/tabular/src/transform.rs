//! Numerical feature transforms.
//!
//! The paper normalises numerical columns with scikit-learn's Gaussian
//! quantile transformation before training the surrogate models. This module
//! provides that transform ([`QuantileTransformer`]) along with the standard
//! scaler, min-max scaler and a log1p transform used elsewhere in the
//! pipeline. All transforms are fit/transform/inverse-transform and are
//! serialisable so a fitted preprocessing pipeline can be persisted with a
//! trained model.

use serde::{Deserialize, Serialize};

use crate::error::TabularError;

/// Common interface of all numerical transforms.
pub trait NumericTransform {
    /// Fit the transform to the values of one column.
    fn fit(&mut self, values: &[f64]) -> Result<(), TabularError>;
    /// Map original values into the transformed space.
    fn transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError>;
    /// Map transformed values back to the original space.
    fn inverse_transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError>;

    /// Convenience: fit then transform.
    fn fit_transform(&mut self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        self.fit(values)?;
        self.transform(values)
    }
}

/// Inverse of the standard normal CDF (Acklam's rational approximation).
///
/// Maximum absolute error ≈ 1.15e-9 over the open unit interval, which is far
/// below anything the surrogate pipeline can resolve.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "p must be in (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Standard normal CDF via the complementary error function approximation.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc_scalar(-x / std::f64::consts::SQRT_2)
}

/// Complementary error function (Numerical Recipes rational Chebyshev fit,
/// fractional error < 1.2e-7 everywhere).
fn erfc_scalar(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian quantile transform: empirical CDF followed by the inverse
/// standard-normal CDF (the `output_distribution="normal"` mode of
/// scikit-learn's `QuantileTransformer`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QuantileTransformer {
    /// Sorted reference values (the fitted empirical quantiles).
    references: Vec<f64>,
    /// Clamp for the empirical CDF so the normal quantile stays finite.
    eps: f64,
}

impl QuantileTransformer {
    /// New, unfitted transformer.
    pub fn new() -> Self {
        Self {
            references: Vec::new(),
            eps: 1e-7,
        }
    }

    fn check_fitted(&self) -> Result<(), TabularError> {
        if self.references.is_empty() {
            Err(TabularError::NotFitted("QuantileTransformer"))
        } else {
            Ok(())
        }
    }

    /// Empirical CDF of `x` against the fitted references, linearly
    /// interpolated between order statistics so that
    /// `inverse_transform(transform(x)) ≈ x` for values inside the fitted
    /// range (mirroring scikit-learn's interpolation behaviour).
    fn ecdf(&self, x: f64) -> f64 {
        let n = self.references.len();
        if n == 1 {
            return 0.5;
        }
        let refs = &self.references;
        if x <= refs[0] {
            return self.eps;
        }
        if x >= refs[n - 1] {
            return 1.0 - self.eps;
        }
        // Index of the first reference strictly greater than x.
        let hi = refs.partition_point(|&r| r <= x);
        let lo = hi - 1;
        let span = refs[hi] - refs[lo];
        let frac = if span > 0.0 {
            (x - refs[lo]) / span
        } else {
            0.0
        };
        let rank = lo as f64 + frac;
        (rank / (n - 1) as f64).clamp(self.eps, 1.0 - self.eps)
    }
}

impl NumericTransform for QuantileTransformer {
    fn fit(&mut self, values: &[f64]) -> Result<(), TabularError> {
        if values.is_empty() {
            return Err(TabularError::Empty("QuantileTransformer::fit input"));
        }
        let mut refs: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if refs.is_empty() {
            return Err(TabularError::Empty("QuantileTransformer finite values"));
        }
        refs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values"));
        self.references = refs;
        Ok(())
    }

    /// A NaN has no rank, and ±inf would land in the clamped tails as a
    /// made-up extreme, so the first non-finite value is a
    /// [`TabularError::NonFinite`] naming its row.
    fn transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        self.check_fitted()?;
        if let Some(row) = values.iter().position(|x| !x.is_finite()) {
            return Err(TabularError::NonFinite {
                context: "QuantileTransformer::transform input",
                row,
            });
        }
        Ok(values
            .iter()
            .map(|&x| inverse_normal_cdf(self.ecdf(x)))
            .collect())
    }

    fn inverse_transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        self.check_fitted()?;
        let n = self.references.len();
        Ok(values
            .iter()
            .map(|&z| {
                let p = normal_cdf(z).clamp(self.eps, 1.0 - self.eps);
                // Linear interpolation between adjacent order statistics.
                let pos = p * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                let frac = pos - lo as f64;
                self.references[lo] * (1.0 - frac) + self.references[hi] * frac
            })
            .collect())
    }
}

/// Zero-mean unit-variance scaler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StandardScaler {
    mean: f64,
    std: f64,
    fitted: bool,
}

impl Default for StandardScaler {
    fn default() -> Self {
        Self::new()
    }
}

impl StandardScaler {
    /// New, unfitted scaler.
    pub fn new() -> Self {
        Self {
            mean: 0.0,
            std: 1.0,
            fitted: false,
        }
    }

    /// Fitted mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Fitted standard deviation (never zero; degenerate columns get 1.0).
    pub fn std(&self) -> f64 {
        self.std
    }
}

impl NumericTransform for StandardScaler {
    fn fit(&mut self, values: &[f64]) -> Result<(), TabularError> {
        if values.is_empty() {
            return Err(TabularError::Empty("StandardScaler::fit input"));
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        self.mean = mean;
        self.std = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
        self.fitted = true;
        Ok(())
    }

    fn transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        if !self.fitted {
            return Err(TabularError::NotFitted("StandardScaler"));
        }
        Ok(values.iter().map(|v| (v - self.mean) / self.std).collect())
    }

    fn inverse_transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        if !self.fitted {
            return Err(TabularError::NotFitted("StandardScaler"));
        }
        Ok(values.iter().map(|v| v * self.std + self.mean).collect())
    }
}

/// Min-max scaler mapping the fitted range onto `[0, 1]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinMaxScaler {
    min: f64,
    max: f64,
    fitted: bool,
}

impl Default for MinMaxScaler {
    fn default() -> Self {
        Self::new()
    }
}

impl MinMaxScaler {
    /// New, unfitted scaler.
    pub fn new() -> Self {
        Self {
            min: 0.0,
            max: 1.0,
            fitted: false,
        }
    }
}

impl NumericTransform for MinMaxScaler {
    fn fit(&mut self, values: &[f64]) -> Result<(), TabularError> {
        if values.is_empty() {
            return Err(TabularError::Empty("MinMaxScaler::fit input"));
        }
        self.min = values.iter().copied().fold(f64::INFINITY, f64::min);
        self.max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if (self.max - self.min).abs() < 1e-12 {
            self.max = self.min + 1.0;
        }
        self.fitted = true;
        Ok(())
    }

    fn transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        if !self.fitted {
            return Err(TabularError::NotFitted("MinMaxScaler"));
        }
        let span = self.max - self.min;
        Ok(values.iter().map(|v| (v - self.min) / span).collect())
    }

    fn inverse_transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        if !self.fitted {
            return Err(TabularError::NotFitted("MinMaxScaler"));
        }
        let span = self.max - self.min;
        Ok(values.iter().map(|v| v * span + self.min).collect())
    }
}

/// `ln(1 + x)` transform for heavy-tailed non-negative columns
/// (input file bytes, workload core-hours).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LogTransform {
    /// Shift applied before the logarithm so the argument stays positive.
    shift: f64,
    fitted: bool,
}

impl LogTransform {
    /// New, unfitted transform.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NumericTransform for LogTransform {
    fn fit(&mut self, values: &[f64]) -> Result<(), TabularError> {
        if values.is_empty() {
            return Err(TabularError::Empty("LogTransform::fit input"));
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        self.shift = if min < 0.0 { -min } else { 0.0 };
        self.fitted = true;
        Ok(())
    }

    fn transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        if !self.fitted {
            return Err(TabularError::NotFitted("LogTransform"));
        }
        Ok(values.iter().map(|v| (v + self.shift).ln_1p()).collect())
    }

    fn inverse_transform(&self, values: &[f64]) -> Result<Vec<f64>, TabularError> {
        if !self.fitted {
            return Err(TabularError::NotFitted("LogTransform"));
        }
        Ok(values.iter().map(|v| v.exp_m1() - self.shift).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_normal_cdf_matches_known_quantiles() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.841344746) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn normal_cdf_roundtrips_quantile() {
        for &p in &[0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let z = inverse_normal_cdf(p);
            assert!((normal_cdf(z) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn quantile_transform_is_roughly_standard_normal() {
        let values: Vec<f64> = (0..2000)
            .map(|i| (i as f64 * 0.37).sin() * 50.0 + i as f64)
            .collect();
        let mut qt = QuantileTransformer::new();
        let z = qt.fit_transform(&values).unwrap();
        let mean = z.iter().sum::<f64>() / z.len() as f64;
        let var = z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn quantile_transform_roundtrip() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64).powf(1.3) + 10.0).collect();
        let mut qt = QuantileTransformer::new();
        let z = qt.fit_transform(&values).unwrap();
        let back = qt.inverse_transform(&z).unwrap();
        for (orig, rec) in values.iter().zip(&back) {
            let tol = orig.abs() * 0.02 + 1.0;
            assert!((orig - rec).abs() < tol, "{orig} vs {rec}");
        }
    }

    #[test]
    fn quantile_transform_preserves_order() {
        let values = vec![5.0, 1.0, 3.0, 9.0, 7.0, 2.0];
        let mut qt = QuantileTransformer::new();
        let z = qt.fit_transform(&values).unwrap();
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    assert!(z[i] < z[j]);
                }
            }
        }
    }

    #[test]
    fn quantile_transform_names_the_first_non_finite_row() {
        let mut qt = QuantileTransformer::new();
        qt.fit(&[1.0, 2.0, f64::INFINITY, 3.0]).unwrap();
        for (bad, row) in [(f64::NAN, 0), (f64::INFINITY, 1), (f64::NEG_INFINITY, 2)] {
            let mut values = vec![1.5, 2.5, 3.5, f64::NAN];
            values[row] = bad;
            assert_eq!(
                qt.transform(&values),
                Err(TabularError::NonFinite {
                    context: "QuantileTransformer::transform input",
                    row,
                }),
                "{bad}"
            );
        }
    }

    #[test]
    fn standard_scaler_roundtrip() {
        let values = vec![10.0, 20.0, 30.0, 40.0];
        let mut s = StandardScaler::new();
        let z = s.fit_transform(&values).unwrap();
        let mean = z.iter().sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        let back = s.inverse_transform(&z).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn standard_scaler_degenerate_column() {
        let values = vec![3.0; 10];
        let mut s = StandardScaler::new();
        let z = s.fit_transform(&values).unwrap();
        assert!(z.iter().all(|v| v.abs() < 1e-12));
        assert_eq!(s.std(), 1.0);
    }

    #[test]
    fn minmax_scaler_bounds() {
        let values = vec![-5.0, 0.0, 5.0, 10.0];
        let mut s = MinMaxScaler::new();
        let z = s.fit_transform(&values).unwrap();
        assert_eq!(z.first().copied().unwrap(), 0.0);
        assert_eq!(z.last().copied().unwrap(), 1.0);
        let back = s.inverse_transform(&z).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn log_transform_roundtrip_nonnegative() {
        let values = vec![0.0, 1.0, 100.0, 1e9, 2.5e12];
        let mut t = LogTransform::new();
        let z = t.fit_transform(&values).unwrap();
        let back = t.inverse_transform(&z).unwrap();
        for (a, b) in values.iter().zip(&back) {
            let tol = a.abs() * 1e-9 + 1e-9;
            assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
    }

    #[test]
    fn transforms_error_before_fit() {
        assert!(QuantileTransformer::new().transform(&[1.0]).is_err());
        assert!(StandardScaler::new().transform(&[1.0]).is_err());
        assert!(MinMaxScaler::new().transform(&[1.0]).is_err());
        assert!(LogTransform::new().transform(&[1.0]).is_err());
    }

    #[test]
    fn fit_on_empty_is_error() {
        assert!(QuantileTransformer::new().fit(&[]).is_err());
        assert!(StandardScaler::new().fit(&[]).is_err());
        assert!(MinMaxScaler::new().fit(&[]).is_err());
        assert!(LogTransform::new().fit(&[]).is_err());
    }
}
