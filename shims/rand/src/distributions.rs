//! The distribution trait and weighted index sampling.

use crate::{unit_f64, RngCore};

/// Types that can produce samples of `T` given a source of randomness.
pub trait Distribution<T> {
    /// Draw one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Errors from [`WeightedIndex::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightedError {
    /// The weight iterator was empty.
    NoItem,
    /// A weight was negative, NaN or infinite.
    InvalidWeight,
    /// Every weight was zero.
    AllWeightsZero,
}

impl std::fmt::Display for WeightedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightedError::NoItem => write!(f, "no weights were provided"),
            WeightedError::InvalidWeight => write!(f, "a weight was invalid"),
            WeightedError::AllWeightsZero => write!(f, "all weights were zero"),
        }
    }
}

impl std::error::Error for WeightedError {}

/// Anything `WeightedIndex::new` accepts as a weight.
pub trait IntoWeight {
    /// The weight as `f64`.
    fn into_weight(self) -> f64;
}

macro_rules! into_weight {
    ($($t:ty),*) => {$(
        impl IntoWeight for $t {
            fn into_weight(self) -> f64 { self as f64 }
        }
        impl IntoWeight for &$t {
            fn into_weight(self) -> f64 { *self as f64 }
        }
    )*};
}

into_weight!(f64, f32, usize, u64, u32, i64, i32);

/// Samples indices `0..n` proportionally to a list of non-negative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Build the sampler from an iterator of weights.
    pub fn new<I>(weights: I) -> Result<Self, WeightedError>
    where
        I: IntoIterator,
        I::Item: IntoWeight,
    {
        let mut cumulative = Vec::new();
        let mut total = 0.0f64;
        for w in weights {
            let w = w.into_weight();
            if !w.is_finite() || w < 0.0 {
                return Err(WeightedError::InvalidWeight);
            }
            total += w;
            cumulative.push(total);
        }
        if cumulative.is_empty() {
            return Err(WeightedError::NoItem);
        }
        if total <= 0.0 {
            return Err(WeightedError::AllWeightsZero);
        }
        Ok(WeightedIndex { cumulative, total })
    }
}

impl Distribution<usize> for WeightedIndex {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let target = unit_f64(rng) * self.total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).expect("finite cumulative weight"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    #[test]
    fn weighted_index_tracks_weights() {
        let dist = WeightedIndex::new([1.0f64, 3.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[2], 0);
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn weighted_index_accepts_references() {
        let weights = vec![0.5f64, 0.5];
        assert!(WeightedIndex::new(&weights).is_ok());
    }

    #[test]
    fn weighted_index_rejects_bad_input() {
        assert_eq!(
            WeightedIndex::new(Vec::<f64>::new()).unwrap_err(),
            WeightedError::NoItem
        );
        assert_eq!(
            WeightedIndex::new([0.0f64, 0.0]).unwrap_err(),
            WeightedError::AllWeightsZero
        );
        assert_eq!(
            WeightedIndex::new([-1.0f64]).unwrap_err(),
            WeightedError::InvalidWeight
        );
    }
}
