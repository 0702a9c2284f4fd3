//! A single histogram-based regression tree.
//!
//! A tree is grown on one buffer of row indices:
//!
//! * **Slots once.** `BinnedRows` maps every (row, feature) to a `u32`
//!   histogram slot with [`BinMapper::bin`] once per ensemble fit, instead
//!   of by a binary search per row at every node of every tree.
//! * **Histograms per depth, siblings by subtraction.** The root fills its
//!   histograms for all features in one row-major pass, each slot keeping
//!   its target sum and row count side by side. When a node splits, only
//!   its smaller child is filled, into the buffer of the child's depth, and
//!   the larger child's histogram is derived in place of the parent's as
//!   parent − smaller (Ke et al., LightGBM, NeurIPS 2017). A child that
//!   cannot split gets none; the smaller is filled only when the larger
//!   can split.
//! * **Empty bins skipped.** A split candidate after a bin that holds no
//!   rows splits the node exactly as the candidate before it does, so the
//!   scan skips it.
//! * **Stable partition on slots.** [`BinMapper::bin`] puts NaN in the last
//!   bin, so a row's slot is at most `offset + b` exactly when its value is
//!   at most `edge(b)`, the threshold [`RegressionTree::predict_row`] tests.
//!   A split reorders the node's slice of the row buffer on that slot test,
//!   without a branch, keeping each side in its original order.
//! * **Leaf spans.** Each leaf owns the contiguous span of the row buffer
//!   its rows were partitioned into, and those are exactly the rows that
//!   reach it under `predict_row`. [`Gbdt::fit`](crate::Gbdt::fit) adds the
//!   leaf's step to the rows of its span instead of walking them through
//!   the tree.
//!
//! What is exact: given the splits chosen, a node's rows, their order,
//! every histogram count and every leaf value (a sum of the leaf's targets
//! in row order) are those of the textbook loop (bin each row at every
//! node, fill every node's histograms, partition into two fresh vectors,
//! walk every row through every tree). What can differ is the choice of
//! split: a derived histogram's sums carry the rounding of the parent's and
//! the smaller child's, so they can differ from a direct fill in their low
//! bits, by at most about 2·n·ε·Σ|t| per level (n and Σ|t| over the
//! parent's rows in the slot). A gain moves with them, and of two
//! candidates whose gains tie or nearly tie the other can win. An emptied
//! slot can keep such a residue, but the scan skips it by its count, so a
//! residue alone never moves a threshold. Introducing the subtraction moved
//! the predictions of `gbdt`'s pin that show which of two tied columns a
//! split chose, and the fast-probe MLEF of a resampled PanDA training
//! split; it moved no Table I value.

use std::ops::Range;

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
/// BinMapper::bin(..)` for each kept feature. The same slot serves the
/// histogram fill and the partition.
pub(crate) struct BinnedRows {
    /// Kept (splittable) features, in feature order.
    features: Vec<usize>,
    /// First slot of each kept feature, plus the total slot count.
    offsets: Vec<usize>,
    /// Row-major slots, `features.len()` per row.
    slots: Vec<u32>,
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
        // A feature has at most one bin per distinct value, so the slot
        // count stays below `u32::MAX` for any matrix that fits in memory.
        assert!(
            u32::try_from(offsets[offsets.len() - 1]).is_ok(),
            "histogram slots exceed u32"
        );
        let mut slots = Vec::with_capacity(data.n_rows() * features.len());
        for r in 0..data.n_rows() {
            for (&f, &offset) in features.iter().zip(&offsets) {
                // In range: below the total slot count asserted above.
                slots.push((offset + mapper.bin(f, data.get(r, f))) as u32);
            }
        }
        Self {
            features,
            offsets,
            slots,
        }
    }

    /// Total histogram slots of a node.
    fn n_slots(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
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
        assert_eq!(data.n_rows(), targets.len(), "data/target length mismatch");
        let binned = BinnedRows::new(data, mapper);
        Grower::new(&binned, mapper, *config).grow(targets, &mut row_indices.to_vec())
    }

    /// Arena id and value of the leaf a row reaches.
    pub(crate) fn leaf(&self, row: &[f64]) -> (usize, f64) {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return (node, *value),
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

    /// Predict a single row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.leaf(row).1
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

/// A leaf of the last tree grown and its rows: `rows` indexes the row
/// buffer that [`Grower::grow`] partitioned.
pub(crate) struct LeafSpan {
    /// Arena id of the leaf, for tests to check its rows reach it.
    #[cfg(test)]
    pub(crate) node: usize,
    /// The leaf's value.
    pub(crate) value: f64,
    /// The leaf's span of the row buffer.
    pub(crate) rows: Range<usize>,
}

/// One histogram slot: the target sum and row count of a node's rows in
/// one (feature, bin).
#[derive(Debug, Clone, Copy, Default)]
struct Bin {
    sum: f64,
    count: usize,
}

/// Grows trees over one binned matrix, reusing its histogram and partition
/// buffers across nodes and trees.
pub(crate) struct Grower<'a> {
    binned: &'a BinnedRows,
    mapper: &'a BinMapper,
    config: TreeConfig,
    nodes: Vec<Node>,
    leaves: Vec<LeafSpan>,
    /// One histogram per depth, allocated when a tree first reaches it. A
    /// splittable node at depth `d` owns `hists[h]` for some `h <= d`; its
    /// smaller child is filled into `hists[d + 1]` and its larger child
    /// derived in place of `hists[h]`.
    hists: Vec<Vec<Bin>>,
    /// Right-hand rows of a partition, before they move back behind the
    /// left-hand ones.
    right: Vec<usize>,
}

impl<'a> Grower<'a> {
    pub(crate) fn new(binned: &'a BinnedRows, mapper: &'a BinMapper, config: TreeConfig) -> Self {
        Self {
            binned,
            mapper,
            config,
            nodes: Vec::new(),
            leaves: Vec::new(),
            hists: Vec::new(),
            right: Vec::new(),
        }
    }

    /// Grow a tree on `targets` over `rows`, which the splits partition in
    /// place; [`Grower::leaves`] then holds each leaf's span of `rows`.
    pub(crate) fn grow(&mut self, targets: &[f64], rows: &mut [usize]) -> RegressionTree {
        self.nodes.clear();
        self.leaves.clear();
        if rows.is_empty() {
            self.push_leaf(0.0, 0..0);
        } else {
            let hist = self.can_split(rows.len(), 0).then(|| {
                self.fill(0, targets, rows);
                0
            });
            self.build(targets, rows, 0, 0, hist);
        }
        RegressionTree {
            nodes: std::mem::take(&mut self.nodes),
        }
    }

    /// The leaves of the last tree grown, with their spans.
    pub(crate) fn leaves(&self) -> &[LeafSpan] {
        &self.leaves
    }

    /// Whether a node of `n` rows at `depth` may split.
    fn can_split(&self, n: usize, depth: usize) -> bool {
        depth < self.config.max_depth && n >= 2 * self.config.min_samples_leaf
    }

    /// Recursively build the node for `rows`, which start at `start` in the
    /// tree's row buffer, returning its arena id. `hist` indexes the node's
    /// histogram, which exactly the nodes that can split have.
    fn build(
        &mut self,
        targets: &[f64],
        rows: &mut [usize],
        start: usize,
        depth: usize,
        hist: Option<usize>,
    ) -> usize {
        let n = rows.len();
        let sum: f64 = rows.iter().map(|&i| targets[i]).sum();
        let mean = sum / n as f64;
        let span = start..start + n;

        let Some(hist) = hist else {
            return self.push_leaf(mean, span);
        };
        let Some((k, b)) = self.best_split(hist, n, sum) else {
            return self.push_leaf(mean, span);
        };
        let n_left = self.partition(rows, k, b);
        // The scan counted each side as the partition splits it.
        debug_assert!(
            n_left >= self.config.min_samples_leaf && n - n_left >= self.config.min_samples_leaf
        );
        // Reserve the split slot before recursing so child ids are known.
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        let (left_rows, right_rows) = rows.split_at_mut(n_left);
        let (left_hist, right_hist) =
            self.child_histograms(targets, hist, depth + 1, left_rows, right_rows);
        let left = self.build(targets, left_rows, start, depth + 1, left_hist);
        let right = self.build(targets, right_rows, start + n_left, depth + 1, right_hist);
        let feature = self.binned.features[k];
        self.nodes[node_id] = Node::Split {
            feature,
            threshold: self
                .mapper
                .edge(feature, b)
                .expect("a scanned bin has an upper edge"),
            left,
            right,
        };
        node_id
    }

    fn push_leaf(&mut self, value: f64, rows: Range<usize>) -> usize {
        let node = self.nodes.len();
        self.nodes.push(Node::Leaf { value });
        self.leaves.push(LeafSpan {
            #[cfg(test)]
            node,
            value,
            rows,
        });
        node
    }

    /// The histogram indices of the two children at `depth` of the node
    /// whose histogram is `hists[parent]`, `None` for a child that cannot
    /// split. The smaller child is filled into `hists[depth]`, and the
    /// larger is derived as parent − smaller in place of the parent's,
    /// which its split no longer needs (Ke et al., LightGBM, NeurIPS 2017).
    /// The larger child can split whenever the smaller can, so when it
    /// cannot, nothing is built.
    fn child_histograms(
        &mut self,
        targets: &[f64],
        parent: usize,
        depth: usize,
        left: &[usize],
        right: &[usize],
    ) -> (Option<usize>, Option<usize>) {
        let left_is_smaller = left.len() <= right.len();
        let (smaller, larger) = if left_is_smaller {
            (left, right)
        } else {
            (right, left)
        };
        if !self.can_split(larger.len(), depth) {
            return (None, None);
        }
        self.fill(depth, targets, smaller);
        self.subtract(parent, depth);
        let smaller_hist = self.can_split(smaller.len(), depth).then_some(depth);
        if left_is_smaller {
            (smaller_hist, Some(parent))
        } else {
            (Some(parent), smaller_hist)
        }
    }

    /// Fill `hists[index]` from `rows` for every kept feature, in row order.
    fn fill(&mut self, index: usize, targets: &[f64], rows: &[usize]) {
        while self.hists.len() <= index {
            self.hists.push(vec![Bin::default(); self.binned.n_slots()]);
        }
        let width = self.binned.features.len();
        let hist = &mut self.hists[index];
        hist.fill(Bin::default());
        for &i in rows {
            let target = targets[i];
            for &slot in &self.binned.slots[i * width..(i + 1) * width] {
                let bin = &mut hist[slot as usize];
                bin.sum += target;
                bin.count += 1;
            }
        }
    }

    /// `hists[parent] -= hists[child]`, slot by slot, for a child histogram
    /// deeper than its parent's. Counts stay exact. A sum carries the
    /// rounding of both operands, so it can differ from a direct fill in its
    /// low bits, and an emptied slot can keep a residue, which
    /// [`Grower::best_split`] skips with the slot.
    fn subtract(&mut self, parent: usize, child: usize) {
        let (upper, lower) = self.hists.split_at_mut(child);
        for (p, c) in upper[parent].iter_mut().zip(&lower[0]) {
            p.sum -= c.sum;
            p.count -= c.count;
        }
    }

    /// Best (kept feature, bin) to split the `n` rows of `hists[hist]` at,
    /// by variance reduction, or `None` when no candidate gains more than
    /// `min_gain`. Gain is the reduction in sum of squared deviations.
    fn best_split(&self, hist: usize, n: usize, total_sum: f64) -> Option<(usize, usize)> {
        let min_leaf = self.config.min_samples_leaf;
        let parent_score = total_sum * total_sum / n as f64;
        let mut best: Option<(usize, usize, f64)> = None;
        for (k, bins) in self.binned.offsets.windows(2).enumerate() {
            let bins = &self.hists[hist][bins[0]..bins[1]];
            // Scan split points between bins.
            let mut left_sum = 0.0;
            let mut left_count = 0usize;
            for (b, bin) in bins[..bins.len() - 1].iter().enumerate() {
                if bin.count == 0 {
                    continue;
                }
                left_sum += bin.sum;
                left_count += bin.count;
                let right_count = n - left_count;
                if right_count < min_leaf {
                    break;
                }
                if left_count < min_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                // Variance-reduction gain (up to constants):
                // sum_left^2/n_left + sum_right^2/n_right - sum^2/n.
                let gain = left_sum * left_sum / left_count as f64
                    + right_sum * right_sum / right_count as f64
                    - parent_score;
                if gain > best.map_or(self.config.min_gain, |(_, _, g)| g) {
                    best = Some((k, b, gain));
                }
            }
        }
        best.map(|(k, b, _)| (k, b))
    }

    /// Stable in-place partition of `rows` on kept feature `k` at bin `b`:
    /// the rows whose slot is at most `offsets[k] + b` (whose value is at
    /// most `edge(b)`) move to the front and the rest follow, each side in
    /// its original order. Returns the number of left-hand rows.
    fn partition(&mut self, rows: &mut [usize], k: usize, b: usize) -> usize {
        let width = self.binned.features.len();
        // In range: `BinnedRows::new` asserts every slot fits in u32.
        let threshold = (self.binned.offsets[k] + b) as u32;
        let column = &self.binned.slots[k..];
        if self.right.len() < rows.len() {
            self.right.resize(rows.len(), 0);
        }
        let right = &mut self.right[..rows.len()];
        let (mut n_left, mut n_right) = (0, 0);
        for j in 0..rows.len() {
            let i = rows[j];
            let goes_left = usize::from(column[i * width] <= threshold);
            // Write the row to both sides; only the side it belongs to
            // advances, so the other copy is overwritten or ignored.
            rows[n_left] = i;
            right[n_right] = i;
            n_left += goes_left;
            n_right += 1 - goes_left;
        }
        rows[n_left..].copy_from_slice(&right[..n_right]);
        n_left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::awkward_matrix;

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

    #[test]
    fn a_subtracted_sibling_histogram_matches_a_direct_fill() {
        // Split the awkward matrix's rows at every candidate. Derived as
        // parent − left, the right child's histogram must count exactly
        // the rows a direct fill counts, and each sum must lie within
        // 2·n·ε·Σ|t| of the direct one, n and Σ|t| taken over the parent's
        // rows in that slot: a bound on the rounding of the three fills and
        // the subtraction.
        let (data, targets) = awkward_matrix(700);
        let abs_targets: Vec<f64> = targets.iter().map(|t| t.abs()).collect();
        let config = TreeConfig::default();
        let mapper = BinMapper::fit(&data, config.max_bins);
        let binned = BinnedRows::new(&data, &mapper);
        let mut grower = Grower::new(&binned, &mapper, config);
        let all: Vec<usize> = (0..data.n_rows()).collect();
        grower.fill(3, &abs_targets, &all);
        let magnitude = grower.hists[3].clone();
        let (mut candidates, mut inexact) = (0, 0);
        for (k, bins) in binned.offsets.windows(2).enumerate() {
            for b in 0..bins[1] - bins[0] - 1 {
                let mut rows = all.clone();
                let n_left = grower.partition(&mut rows, k, b);
                let (left, right) = rows.split_at(n_left);
                grower.fill(0, &targets, &rows);
                grower.fill(1, &targets, left);
                grower.subtract(0, 1);
                grower.fill(2, &targets, right);
                let derived = &grower.hists[0];
                let direct = &grower.hists[2];
                for (slot, ((d, f), m)) in derived.iter().zip(direct).zip(&magnitude).enumerate() {
                    assert_eq!(d.count, f.count, "feature {k}, bin {b}, slot {slot}");
                    let bound = 2.0 * m.count as f64 * f64::EPSILON * m.sum;
                    assert!(
                        (d.sum - f.sum).abs() <= bound,
                        "feature {k}, bin {b}, slot {slot}: {} vs {}",
                        d.sum,
                        f.sum
                    );
                    inexact += usize::from(d.sum != f.sum);
                }
                candidates += 1;
            }
        }
        assert!(candidates > 30, "{candidates} candidates");
        // The sums are not all exact, or the bound would go untested.
        assert!(inexact > 0);
    }
}
