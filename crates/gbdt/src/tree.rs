//! A single histogram-based regression tree.
//!
//! Three choices keep fitting cheap without moving a single output bit
//! away from the textbook loop (bin each row per node, partition into two
//! fresh vectors):
//!
//! * **Codes once.** `BinnedRows` maps every (row, feature) to its
//!   histogram slot with [`BinMapper::bin`] once per ensemble fit instead of
//!   by a binary search per row at every node of every tree. The bins are
//!   the mapper's, so every histogram holds the same rows.
//! * **One histogram pass.** A node fills the histograms of all features in
//!   one row-major pass into buffers reused across the tree's nodes. Each
//!   (feature, bin) sum still adds its rows' targets in node order, so every
//!   f64 sum is the same value. Sibling histograms by subtraction, or
//!   several accumulators per bin, would reorder those sums and move the
//!   low bits of the gains, so neither is used.
//! * **Stable in-place partition.** A split reorders the node's slice of
//!   one index buffer on the raw `x <= threshold` predicate, keeping each
//!   side in its original order, so each child sees its rows in the order
//!   two fresh vectors would hold them. NaN counts in bin 0 of the
//!   histograms but goes right at the split.

use serde::{Deserialize, Serialize};

use crate::dataset::{BinMapper, FeatureMatrix};

/// Hyper-parameters of one regression tree.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum variance-reduction gain required to split a node.
    pub min_gain: f64,
    /// Maximum number of histogram bins per feature.
    pub max_bins: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_leaf: 8,
            min_gain: 1e-9,
            max_bins: 64,
        }
    }
}

/// One node of the tree, stored in a flat arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Every row of a feature matrix mapped to histogram slots, once.
///
/// Only features with at least two bins can split, so only those are kept.
/// Feature `k` of the kept list owns the slots `offsets[k]..offsets[k + 1]`
/// of a node's flat histogram, and a row stores `offsets[k] +
/// BinMapper::bin(..)` for each kept feature, so a node's histograms take
/// one pass that adds each row's target into its slots. Slots are `usize`:
/// they hold every bin the mapper can emit, at any `max_bins`.
pub(crate) struct BinnedRows {
    /// Kept (splittable) features, in feature order.
    features: Vec<usize>,
    /// First slot of each kept feature, plus the total slot count.
    offsets: Vec<usize>,
    /// Row-major slots, `features.len()` per row.
    slots: Vec<usize>,
}

impl BinnedRows {
    /// Bin every row of `data` with `mapper`.
    pub(crate) fn new(data: &FeatureMatrix, mapper: &BinMapper) -> Self {
        let features: Vec<usize> = (0..data.n_features())
            .filter(|&f| mapper.n_bins(f) >= 2)
            .collect();
        let mut offsets = vec![0];
        for &f in &features {
            offsets.push(offsets[offsets.len() - 1] + mapper.n_bins(f));
        }
        let mut slots = Vec::with_capacity(data.n_rows() * features.len());
        for r in 0..data.n_rows() {
            for (&f, &offset) in features.iter().zip(&offsets) {
                slots.push(offset + mapper.bin(f, data.get(r, f)));
            }
        }
        Self {
            features,
            offsets,
            slots,
        }
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fit a tree to `(data, targets)` restricted to `row_indices`.
    pub fn fit(
        data: &FeatureMatrix,
        targets: &[f64],
        row_indices: &[usize],
        config: &TreeConfig,
        mapper: &BinMapper,
    ) -> Self {
        let binned = BinnedRows::new(data, mapper);
        Self::fit_binned(data, &binned, targets, row_indices.to_vec(), config, mapper)
    }

    /// [`RegressionTree::fit`] on rows binned once by the caller; `rows`
    /// becomes the buffer the splits partition in place.
    pub(crate) fn fit_binned(
        data: &FeatureMatrix,
        binned: &BinnedRows,
        targets: &[f64],
        mut rows: Vec<usize>,
        config: &TreeConfig,
        mapper: &BinMapper,
    ) -> Self {
        assert_eq!(data.n_rows(), targets.len(), "data/target length mismatch");
        if rows.is_empty() {
            return Self {
                nodes: vec![Node::Leaf { value: 0.0 }],
            };
        }
        let n_slots = binned.offsets[binned.offsets.len() - 1];
        let mut grower = Grower {
            data,
            binned,
            targets,
            config,
            mapper,
            nodes: Vec::new(),
            sums: vec![0.0; n_slots],
            counts: vec![0; n_slots],
            right: Vec::with_capacity(rows.len()),
        };
        grower.build(&mut rows, 0);
        Self {
            nodes: grower.nodes,
        }
    }

    /// Predict a single row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predict every row of a feature matrix.
    pub fn predict(&self, data: &FeatureMatrix) -> Vec<f64> {
        (0..data.n_rows())
            .map(|r| self.predict_row(data.row(r)))
            .collect()
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves in the tree.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }
}

/// The state of one tree fit: the arena being grown and the histogram and
/// partition buffers every node reuses.
struct Grower<'a> {
    data: &'a FeatureMatrix,
    binned: &'a BinnedRows,
    targets: &'a [f64],
    config: &'a TreeConfig,
    mapper: &'a BinMapper,
    nodes: Vec<Node>,
    /// Per-slot target sums of the node being split.
    sums: Vec<f64>,
    /// Per-slot row counts of the node being split.
    counts: Vec<usize>,
    /// Right-hand rows of a partition, before they move back behind the
    /// left-hand ones.
    right: Vec<usize>,
}

impl Grower<'_> {
    /// Recursively build the node for `rows`, returning its arena id.
    fn build(&mut self, rows: &mut [usize], depth: usize) -> usize {
        let n = rows.len();
        let sum: f64 = rows.iter().map(|&i| self.targets[i]).sum();
        let mean = sum / n as f64;

        if depth >= self.config.max_depth || n < 2 * self.config.min_samples_leaf {
            return self.push_leaf(mean);
        }

        match self.best_split(rows, sum) {
            Some((feature, threshold, gain)) if gain > self.config.min_gain => {
                let n_left = self.partition(rows, feature, threshold);
                if n_left < self.config.min_samples_leaf
                    || n - n_left < self.config.min_samples_leaf
                {
                    return self.push_leaf(mean);
                }
                // Reserve the split slot before recursing so child ids are known.
                let node_id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: mean });
                let (left_rows, right_rows) = rows.split_at_mut(n_left);
                let left = self.build(left_rows, depth + 1);
                let right = self.build(right_rows, depth + 1);
                self.nodes[node_id] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                node_id
            }
            _ => self.push_leaf(mean),
        }
    }

    fn push_leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// Best (feature, threshold, gain) via per-feature histograms of target
    /// sums. Gain is the reduction in sum of squared deviations.
    fn best_split(&mut self, rows: &[usize], total_sum: f64) -> Option<(usize, f64, f64)> {
        let binned = self.binned;
        let width = binned.features.len();
        self.sums.fill(0.0);
        self.counts.fill(0);
        for &i in rows {
            let target = self.targets[i];
            for &slot in &binned.slots[i * width..(i + 1) * width] {
                self.sums[slot] += target;
                self.counts[slot] += 1;
            }
        }

        let n = rows.len() as f64;
        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<(usize, f64, f64)> = None;
        for (k, &feature) in binned.features.iter().enumerate() {
            let bins = binned.offsets[k]..binned.offsets[k + 1];
            let bin_sum = &self.sums[bins.clone()];
            let bin_count = &self.counts[bins];
            // Scan split points between bins.
            let mut left_sum = 0.0;
            let mut left_count = 0usize;
            for b in 0..bin_sum.len() - 1 {
                left_sum += bin_sum[b];
                left_count += bin_count[b];
                let right_count = rows.len() - left_count;
                if left_count < min_leaf || right_count < min_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                // Variance-reduction gain (up to constants):
                // sum_left^2/n_left + sum_right^2/n_right - sum^2/n.
                let gain = left_sum * left_sum / left_count as f64
                    + right_sum * right_sum / right_count as f64
                    - total_sum * total_sum / n;
                if gain > best.map_or(self.config.min_gain, |(_, _, g)| g) {
                    if let Some(threshold) = self.mapper.edge(feature, b) {
                        best = Some((feature, threshold, gain));
                    }
                }
            }
        }
        best
    }

    /// Stable in-place partition of `rows` on `x <= threshold`: the rows
    /// that satisfy it move to the front and the rest follow, each side in
    /// its original order. Returns the number of left-hand rows.
    fn partition(&mut self, rows: &mut [usize], feature: usize, threshold: f64) -> usize {
        self.right.clear();
        let mut n_left = 0;
        for k in 0..rows.len() {
            let i = rows[k];
            if self.data.get(i, feature) <= threshold {
                rows[n_left] = i;
                n_left += 1;
            } else {
                self.right.push(i);
            }
        }
        rows[n_left..].copy_from_slice(&self.right);
        n_left
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data(n: usize) -> (FeatureMatrix, Vec<f64>) {
        // y = 1 if x0 > 0.5 else 0, with a second noise feature.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 37) % 11) as f64])
            .collect();
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        (FeatureMatrix::from_rows(&rows), targets)
    }

    #[test]
    fn fits_a_step_function() {
        let (data, targets) = step_data(200);
        let indices: Vec<usize> = (0..200).collect();
        let config = TreeConfig::default();
        let mapper = BinMapper::fit(&data, config.max_bins);
        let tree = RegressionTree::fit(&data, &targets, &indices, &config, &mapper);
        let preds = tree.predict(&data);
        let err: f64 = preds
            .iter()
            .zip(&targets)
            .map(|(p, t)| (p - t).powi(2))
            .sum::<f64>()
            / 200.0;
        assert!(err < 0.02, "err = {err}");
        assert!(tree.depth() >= 1);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn depth_zero_gives_single_leaf_mean() {
        let (data, targets) = step_data(50);
        let indices: Vec<usize> = (0..50).collect();
        let config = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let mapper = BinMapper::fit(&data, config.max_bins);
        let tree = RegressionTree::fit(&data, &targets, &indices, &config, &mapper);
        assert_eq!(tree.n_nodes(), 1);
        let mean = targets.iter().sum::<f64>() / 50.0;
        assert!((tree.predict_row(&[0.1, 0.0]) - mean).abs() < 1e-12);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (data, targets) = step_data(40);
        let indices: Vec<usize> = (0..40).collect();
        let config = TreeConfig {
            min_samples_leaf: 25,
            ..Default::default()
        };
        let mapper = BinMapper::fit(&data, config.max_bins);
        let tree = RegressionTree::fit(&data, &targets, &indices, &config, &mapper);
        // No split can produce two leaves of 25+ samples out of 40 rows.
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn empty_index_set_gives_zero_leaf() {
        let (data, targets) = step_data(10);
        let config = TreeConfig::default();
        let mapper = BinMapper::fit(&data, config.max_bins);
        let tree = RegressionTree::fit(&data, &targets, &[], &config, &mapper);
        assert_eq!(tree.predict_row(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let (data, _) = step_data(30);
        let targets = vec![4.2; 30];
        let indices: Vec<usize> = (0..30).collect();
        let config = TreeConfig::default();
        let mapper = BinMapper::fit(&data, config.max_bins);
        let tree = RegressionTree::fit(&data, &targets, &indices, &config, &mapper);
        for r in 0..30 {
            assert!((tree.predict_row(data.row(r)) - 4.2).abs() < 1e-9);
        }
    }

    #[test]
    fn deeper_trees_fit_better() {
        // Piecewise target with 4 levels needs depth >= 2.
        let rows: Vec<Vec<f64>> = (0..400).map(|i| vec![i as f64 / 400.0]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| (r[0] * 4.0).floor()).collect();
        let data = FeatureMatrix::from_rows(&rows);
        let indices: Vec<usize> = (0..400).collect();
        let mapper = BinMapper::fit(&data, 64);
        let shallow = RegressionTree::fit(
            &data,
            &targets,
            &indices,
            &TreeConfig {
                max_depth: 1,
                ..Default::default()
            },
            &mapper,
        );
        let deep = RegressionTree::fit(
            &data,
            &targets,
            &indices,
            &TreeConfig {
                max_depth: 4,
                ..Default::default()
            },
            &mapper,
        );
        let err = |tree: &RegressionTree| {
            tree.predict(&data)
                .iter()
                .zip(&targets)
                .map(|(p, t)| (p - t).powi(2))
                .sum::<f64>()
                / 400.0
        };
        assert!(err(&deep) < err(&shallow) * 0.5);
    }
}
