//! The gradient-boosting loop (squared loss).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::{BinMapper, FeatureMatrix};
use crate::tree::{BinnedRows, Grower, RegressionTree, TreeConfig};

/// Hyper-parameters of the boosted ensemble.
///
/// The defaults mirror the paper's MLEF probe settings: 200 iterations,
/// depth 10 and learning rate 1.0 on a root-mean-square-error objective.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Number of boosting iterations (trees).
    pub n_iterations: usize,
    /// Learning rate (shrinkage) applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Fraction of rows sampled (without replacement) per iteration.
    pub subsample: f64,
    /// Maximum histogram bins per feature.
    pub max_bins: usize,
    /// RNG seed for row subsampling.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_iterations: 200,
            learning_rate: 1.0,
            max_depth: 10,
            min_samples_leaf: 16,
            subsample: 1.0,
            max_bins: 64,
            seed: 0,
        }
    }
}

impl GbdtConfig {
    /// The exact probe configuration from the paper (§V-A-b).
    pub fn paper_mlef() -> Self {
        Self::default()
    }

    /// A small configuration for tests and quick experiments.
    pub fn fast() -> Self {
        Self {
            n_iterations: 40,
            learning_rate: 0.3,
            max_depth: 5,
            min_samples_leaf: 8,
            subsample: 0.9,
            max_bins: 32,
            seed: 0,
        }
    }
}

/// A fitted gradient-boosted regression ensemble.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbdt {
    config: GbdtConfig,
    base_prediction: f64,
    trees: Vec<RegressionTree>,
}

impl Gbdt {
    /// Fit the ensemble on `(data, targets)`.
    pub fn fit(data: &FeatureMatrix, targets: &[f64], config: GbdtConfig) -> Self {
        assert_eq!(data.n_rows(), targets.len(), "data/target length mismatch");
        assert!(data.n_rows() > 0, "cannot fit on an empty dataset");
        let n = data.n_rows();
        let mapper = BinMapper::fit(data, config.max_bins);
        let binned = BinnedRows::new(data, &mapper);
        let base_prediction = targets.iter().sum::<f64>() / n as f64;
        let mut predictions = vec![base_prediction; n];
        let mut residuals = vec![0.0; n];
        let mut rows: Vec<usize> = (0..n).collect();
        let mut trees = Vec::with_capacity(config.n_iterations);
        let tree_config = TreeConfig {
            max_depth: config.max_depth,
            min_samples_leaf: config.min_samples_leaf,
            min_gain: 1e-9,
            max_bins: config.max_bins,
        };
        let mut grower = Grower::new(&binned, &mapper, tree_config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let subsample = config.subsample < 1.0;
        let drawn = if subsample {
            ((n as f64) * config.subsample).round().max(1.0) as usize
        } else {
            n
        };

        for _ in 0..config.n_iterations {
            // Squared loss: negative gradient = residual.
            for ((residual, target), prediction) in
                residuals.iter_mut().zip(targets).zip(&predictions)
            {
                *residual = target - prediction;
            }

            // Every draw starts from the rows in their original order.
            for (r, row) in rows.iter_mut().enumerate() {
                *row = r;
            }
            if subsample {
                rows.shuffle(&mut rng);
            }
            let (in_sample, left_out) = rows.split_at_mut(drawn);

            let tree = grower.grow(&residuals, in_sample);
            // A drawn row lies in the span of the leaf `predict_row` takes
            // it to; only the rows left out of the draw walk the tree.
            for leaf in grower.leaves() {
                let step = config.learning_rate * leaf.value;
                for &r in &in_sample[leaf.rows.clone()] {
                    predictions[r] += step;
                }
            }
            for &r in left_out.iter() {
                predictions[r] += config.learning_rate * tree.predict_row(data.row(r));
            }
            trees.push(tree);
        }

        Self {
            config,
            base_prediction,
            trees,
        }
    }

    /// Predict every row of a feature matrix.
    pub fn predict(&self, data: &FeatureMatrix) -> Vec<f64> {
        let mut out = vec![self.base_prediction; data.n_rows()];
        for tree in &self.trees {
            for (r, pred) in out.iter_mut().enumerate() {
                *pred += self.config.learning_rate * tree.predict_row(data.row(r));
            }
        }
        out
    }

    /// Predict one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.base_prediction
            + self
                .trees
                .iter()
                .map(|t| self.config.learning_rate * t.predict_row(row))
                .sum::<f64>()
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Configuration used to fit the model.
    pub fn config(&self) -> GbdtConfig {
        self.config
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::eval::rmse;

    fn friedman_like(n: usize) -> (FeatureMatrix, Vec<f64>) {
        // Smooth nonlinear target over 4 features (deterministic pseudo-noise).
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                vec![
                    x,
                    (x * 7.3).fract(),
                    ((i * 13) % 17) as f64 / 17.0,
                    ((i * 29) % 23) as f64 / 23.0,
                ]
            })
            .collect();
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| {
                10.0 * (std::f64::consts::PI * r[0] * r[1]).sin()
                    + 20.0 * (r[2] - 0.5).powi(2)
                    + 5.0 * r[3]
            })
            .collect();
        (FeatureMatrix::from_rows(&rows), targets)
    }

    #[test]
    fn boosting_reduces_error_over_single_tree() {
        let (data, targets) = friedman_like(600);
        let single = Gbdt::fit(
            &data,
            &targets,
            GbdtConfig {
                n_iterations: 1,
                learning_rate: 1.0,
                max_depth: 3,
                ..GbdtConfig::fast()
            },
        );
        let boosted = Gbdt::fit(
            &data,
            &targets,
            GbdtConfig {
                n_iterations: 50,
                learning_rate: 0.3,
                max_depth: 3,
                ..GbdtConfig::fast()
            },
        );
        let e1 = rmse(&single.predict(&data), &targets);
        let e2 = rmse(&boosted.predict(&data), &targets);
        assert!(e2 < e1 * 0.5, "single {e1}, boosted {e2}");
    }

    #[test]
    fn generalises_to_held_out_rows() {
        let (data, targets) = friedman_like(800);
        let train_idx: Vec<usize> = (0..800).filter(|i| i % 5 != 0).collect();
        let test_idx: Vec<usize> = (0..800).filter(|i| i % 5 == 0).collect();
        let train_rows: Vec<Vec<f64>> = train_idx.iter().map(|&i| data.row(i).to_vec()).collect();
        let train_targets: Vec<f64> = train_idx.iter().map(|&i| targets[i]).collect();
        let test_rows: Vec<Vec<f64>> = test_idx.iter().map(|&i| data.row(i).to_vec()).collect();
        let test_targets: Vec<f64> = test_idx.iter().map(|&i| targets[i]).collect();

        let model = Gbdt::fit(
            &FeatureMatrix::from_rows(&train_rows),
            &train_targets,
            GbdtConfig::fast(),
        );
        let preds = model.predict(&FeatureMatrix::from_rows(&test_rows));
        let err = rmse(&preds, &test_targets);
        let std = {
            let m = test_targets.iter().sum::<f64>() / test_targets.len() as f64;
            (test_targets.iter().map(|t| (t - m).powi(2)).sum::<f64>() / test_targets.len() as f64)
                .sqrt()
        };
        assert!(err < std * 0.5, "rmse {err} vs target std {std}");
    }

    #[test]
    fn prediction_is_deterministic_for_fixed_seed() {
        let (data, targets) = friedman_like(200);
        let a = Gbdt::fit(&data, &targets, GbdtConfig::fast());
        let b = Gbdt::fit(&data, &targets, GbdtConfig::fast());
        assert_eq!(a.predict(&data), b.predict(&data));
    }

    #[test]
    fn constant_target_is_reproduced_exactly() {
        let (data, _) = friedman_like(100);
        let targets = vec![2.5; 100];
        let model = Gbdt::fit(&data, &targets, GbdtConfig::fast());
        for p in model.predict(&data) {
            assert!((p - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn n_trees_matches_iterations() {
        let (data, targets) = friedman_like(100);
        let model = Gbdt::fit(
            &data,
            &targets,
            GbdtConfig {
                n_iterations: 7,
                ..GbdtConfig::fast()
            },
        );
        assert_eq!(model.n_trees(), 7);
    }

    /// Rows that hold every value class the binning and the split
    /// predicate treat specially: NaN (the last bin, the right branch at a
    /// split), ±inf, exact ties, a constant column and a two-valued
    /// column. Columns 5 and 6 split the rows at the same place, so their
    /// gains tie in exact arithmetic and the rounding of the histogram sums
    /// decides which one a node splits on.
    pub(crate) fn awkward_matrix(n: usize) -> (FeatureMatrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let hash = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let x = match i % 23 {
                    0 => f64::NAN,
                    7 => f64::INFINITY,
                    13 => f64::NEG_INFINITY,
                    _ => hash as f64 / (1u64 << 24) as f64,
                };
                let ties = (i % 7) as f64 * 0.5;
                let two_valued = if i % 3 == 0 { 1.0 } else { -1.0 };
                let sparse = if i % 31 == 0 {
                    f64::NAN
                } else {
                    (i / 50) as f64
                };
                let marked = i % 4 == 0;
                let coarse = if marked { 2.0 } else { (i % 2) as f64 };
                let fine = if marked { 10.0 } else { 0.0 } + (i % 5) as f64 * 0.1;
                vec![x, ties, 3.0, two_valued, sparse, coarse, fine]
            })
            .collect();
        let targets: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let x = if r[0].is_finite() { r[0] } else { 0.5 };
                let marked = if r[5] == 2.0 { 2.0 } else { 0.0 };
                (6.0 * x).sin() + r[1] * r[3] + 0.1 * ((i * 17) % 13) as f64 + marked
            })
            .collect();
        (FeatureMatrix::from_rows(&rows), targets)
    }

    /// FNV-1a over the predictions' bit patterns.
    fn fingerprint(predictions: &[f64]) -> u64 {
        predictions
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn predictions_are_pinned_bit_for_bit() {
        // Any change to split finding, to the partition order or to the
        // order of the histogram sums moves these constants.
        let (data, targets) = awkward_matrix(700);
        // Column 5 flipped where column 6 stays: predictions on these rows
        // show which of the two tied columns each split chose.
        let flipped: Vec<Vec<f64>> = (0..data.n_rows())
            .map(|r| {
                let mut row = data.row(r).to_vec();
                row[5] = 2.0 - row[5];
                row
            })
            .collect();
        let flipped = FeatureMatrix::from_rows(&flipped);
        let pins = |config: GbdtConfig| {
            let model = Gbdt::fit(&data, &targets, config);
            [
                fingerprint(&model.predict(&data)),
                fingerprint(&model.predict(&flipped)),
            ]
        };
        assert_eq!(
            pins(GbdtConfig::paper_mlef()),
            [0xa137_b50e_2cd2_4161, 0xce27_bb2c_d7a5_89da]
        );
        assert_eq!(
            pins(GbdtConfig::fast()),
            [0x930f_9cd7_c396_f00a, 0x4e99_d3d6_02d4_9ddb]
        );
    }

    #[test]
    fn every_row_of_a_leaf_span_reaches_that_leaf() {
        // `Gbdt::fit` adds a leaf's step to the rows of its span instead of
        // walking them through the tree, on a full draw and on a subsample.
        let (data, targets) = awkward_matrix(700);
        let config = TreeConfig {
            max_depth: 10,
            min_samples_leaf: 3,
            ..TreeConfig::default()
        };
        let mapper = BinMapper::fit(&data, config.max_bins);
        let binned = BinnedRows::new(&data, &mapper);
        let mut grower = Grower::new(&binned, &mapper, config);
        let full: Vec<usize> = (0..data.n_rows()).collect();
        let mut subsample = full.clone();
        subsample.shuffle(&mut StdRng::seed_from_u64(11));
        subsample.truncate(560);
        for draw in [full, subsample] {
            let mut rows = draw.clone();
            let tree = grower.grow(&targets, &mut rows);
            assert!(tree.n_leaves() > 20, "{} leaves", tree.n_leaves());
            assert_eq!(grower.leaves().len(), tree.n_leaves());
            let mut end = 0;
            for leaf in grower.leaves() {
                assert_eq!(leaf.rows.start, end, "spans tile the row buffer");
                end = leaf.rows.end;
                for &r in &rows[leaf.rows.clone()] {
                    let (node, value) = tree.leaf(data.row(r));
                    assert_eq!(node, leaf.node, "row {r}");
                    assert_eq!(value.to_bits(), leaf.value.to_bits(), "row {r}");
                }
            }
            assert_eq!(end, draw.len());
            rows.sort_unstable();
            let mut drawn = draw;
            drawn.sort_unstable();
            assert_eq!(rows, drawn, "the partition permutes the draw");
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data = FeatureMatrix::from_rows(&[]);
        let _ = Gbdt::fit(&data, &[], GbdtConfig::fast());
    }
}
