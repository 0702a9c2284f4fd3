//! Feature matrices, binning and categorical target encoding.

use serde::{Deserialize, Serialize};

/// A dense row-major feature matrix used by the booster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMatrix {
    n_rows: usize,
    n_features: usize,
    /// Row-major values.
    values: Vec<f64>,
}

impl FeatureMatrix {
    /// Build from row-major values.
    pub fn new(n_rows: usize, n_features: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), n_rows * n_features, "shape mismatch");
        Self {
            n_rows,
            n_features,
            values,
        }
    }

    /// Build from a list of rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_features = rows.first().map_or(0, Vec::len);
        let mut values = Vec::with_capacity(n_rows * n_features);
        for row in rows {
            assert_eq!(row.len(), n_features, "ragged rows");
            values.extend_from_slice(row);
        }
        Self {
            n_rows,
            n_features,
            values,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// One row.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.values[r * self.n_features..(r + 1) * self.n_features]
    }

    /// Value of feature `f` in row `r`.
    #[inline]
    pub fn get(&self, r: usize, f: usize) -> f64 {
        self.values[r * self.n_features + f]
    }

    /// Extract one feature column as a vector.
    pub fn column(&self, f: usize) -> Vec<f64> {
        (0..self.n_rows).map(|r| self.get(r, f)).collect()
    }
}

/// Per-feature quantile bin edges used to discretise continuous features
/// before histogram-based split finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinMapper {
    /// For each feature, the sorted upper edges of its bins (len = bins - 1).
    edges: Vec<Vec<f64>>,
}

impl BinMapper {
    /// Fit quantile bins (at most `max_bins` per feature) on the data.
    pub fn fit(data: &FeatureMatrix, max_bins: usize) -> Self {
        assert!(max_bins >= 2, "need at least two bins");
        let mut edges = Vec::with_capacity(data.n_features());
        for f in 0..data.n_features() {
            let mut col = data.column(f);
            col.retain(|v| v.is_finite());
            col.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            col.dedup();
            let mut feature_edges = Vec::new();
            if col.len() > 1 {
                let n_edges = (max_bins - 1).min(col.len() - 1);
                for i in 1..=n_edges {
                    let q = i as f64 / (n_edges + 1) as f64;
                    let idx = ((col.len() - 1) as f64 * q).round() as usize;
                    let edge = col[idx];
                    if feature_edges.last().is_none_or(|&last| edge > last) {
                        feature_edges.push(edge);
                    }
                }
            }
            edges.push(feature_edges);
        }
        Self { edges }
    }

    /// Number of bins for a feature (edges + 1).
    pub fn n_bins(&self, feature: usize) -> usize {
        self.edges[feature].len() + 1
    }

    /// Map a raw value to its bin index for a feature: the number of edges
    /// it does not lie at or below. NaN lies below no edge, so it takes the
    /// last bin, and `bin(x) <= b` holds exactly when `x <= edge(b)`, for
    /// every `x` (NaN and ±inf included). A split's histogram scan and the
    /// `x <= threshold` branch it takes therefore send every row the same way.
    #[inline]
    pub fn bin(&self, feature: usize, value: f64) -> usize {
        let edges = &self.edges[feature];
        edges.partition_point(|&e| value.is_nan() || value > e)
    }

    /// Representative threshold value of a bin boundary (the edge itself).
    pub fn edge(&self, feature: usize, bin: usize) -> Option<f64> {
        self.edges[feature].get(bin).copied()
    }
}

/// Ordered target (mean) encoding for a single categorical column — the same
/// family of statistics CatBoost uses to turn categories into numbers.
///
/// Encoding value for category `c`: `(sum_target(c) + prior_weight * prior) /
/// (count(c) + prior_weight)` where `prior` is the global target mean. Unseen
/// categories encode to the prior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetEncoder {
    prior: f64,
    prior_weight: f64,
    /// Per-code smoothed mean target.
    encodings: Vec<f64>,
}

impl TargetEncoder {
    /// Fit on category codes and their targets.
    pub fn fit(codes: &[u32], targets: &[f64], prior_weight: f64) -> Self {
        assert_eq!(codes.len(), targets.len(), "codes/targets length mismatch");
        let prior = if targets.is_empty() {
            0.0
        } else {
            targets.iter().sum::<f64>() / targets.len() as f64
        };
        let cardinality = codes.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut sums = vec![0.0; cardinality];
        let mut counts = vec![0usize; cardinality];
        for (&c, &t) in codes.iter().zip(targets) {
            sums[c as usize] += t;
            counts[c as usize] += 1;
        }
        let encodings = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &n)| (s + prior_weight * prior) / (n as f64 + prior_weight))
            .collect();
        Self {
            prior,
            prior_weight,
            encodings,
        }
    }

    /// Global target mean used for unseen categories.
    pub fn prior(&self) -> f64 {
        self.prior
    }

    /// Smoothing pseudo-count.
    pub fn prior_weight(&self) -> f64 {
        self.prior_weight
    }

    /// Encode a slice of codes.
    pub fn encode(&self, codes: &[u32]) -> Vec<f64> {
        codes
            .iter()
            .map(|&c| {
                self.encodings
                    .get(c as usize)
                    .copied()
                    .unwrap_or(self.prior)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_accessors() {
        let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_features(), 2);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.row(2), &[5.0, 6.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_shape_panics() {
        let _ = FeatureMatrix::new(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn bin_mapper_is_monotone() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let m = FeatureMatrix::new(100, 1, values);
        let mapper = BinMapper::fit(&m, 8);
        assert!(mapper.n_bins(0) <= 8);
        assert!(mapper.n_bins(0) >= 2);
        let mut prev = 0;
        for i in 0..100 {
            let b = mapper.bin(0, i as f64);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn bin_at_or_below_matches_the_split_predicate() {
        // `bin(x) <= b` must hold exactly when `x <= edge(b)`: the histograms
        // score a split on the first, and the tree takes it on the second.
        let values: Vec<f64> = (0..40).map(|i| f64::from(i % 9) * 0.25 - 1.0).collect();
        let mapper = BinMapper::fit(&FeatureMatrix::new(40, 1, values), 6);
        let edges: Vec<f64> = (0..mapper.n_bins(0) - 1)
            .map(|b| mapper.edge(0, b).expect("edge below the last bin"))
            .collect();
        assert!(edges.len() >= 2, "{edges:?}");
        let mut probes = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        for pair in edges.windows(2) {
            probes.extend([pair[0], (pair[0] + pair[1]) / 2.0, pair[1]]);
        }
        probes.extend([edges[0] - 1.0, edges[edges.len() - 1] + 1.0]);
        for &x in &probes {
            for (b, &edge) in edges.iter().enumerate() {
                assert_eq!(
                    mapper.bin(0, x) <= b,
                    x <= edge,
                    "x = {x}, edge {b} = {edge}"
                );
            }
        }
    }

    #[test]
    fn bin_mapper_handles_constant_feature() {
        let m = FeatureMatrix::new(10, 1, vec![7.0; 10]);
        let mapper = BinMapper::fit(&m, 8);
        assert_eq!(mapper.n_bins(0), 1);
        assert_eq!(mapper.bin(0, 7.0), 0);
        assert_eq!(mapper.bin(0, 100.0), 0);
    }

    #[test]
    fn bin_mapper_respects_max_bins_on_few_distinct_values() {
        let m = FeatureMatrix::new(6, 1, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let mapper = BinMapper::fit(&m, 64);
        assert!(mapper.n_bins(0) <= 3);
    }

    #[test]
    fn target_encoder_orders_categories_by_mean() {
        // Category 0 has mean 10, category 1 has mean 1.
        let codes = vec![0, 0, 0, 1, 1, 1];
        let targets = vec![9.0, 10.0, 11.0, 0.0, 1.0, 2.0];
        let enc = TargetEncoder::fit(&codes, &targets, 1.0);
        let encoded = enc.encode(&[0, 1]);
        assert!(encoded[0] > encoded[1]);
        // Smoothing pulls both toward the prior (5.5).
        assert!(encoded[0] < 10.0);
        assert!(encoded[1] > 1.0);
    }

    #[test]
    fn target_encoder_unseen_category_gets_prior() {
        let enc = TargetEncoder::fit(&[0, 1], &[2.0, 4.0], 1.0);
        let encoded = enc.encode(&[99]);
        assert!((encoded[0] - enc.prior()).abs() < 1e-12);
        assert!((enc.prior() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn target_encoder_heavy_smoothing_approaches_prior() {
        let codes = vec![0, 1, 1];
        let targets = vec![100.0, 0.0, 0.0];
        let enc = TargetEncoder::fit(&codes, &targets, 1e6);
        let encoded = enc.encode(&[0, 1]);
        assert!((encoded[0] - encoded[1]).abs() < 0.01);
    }
}
