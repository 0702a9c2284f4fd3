//! Histogram-based gradient-boosted regression trees.
//!
//! The paper's machine-learning-efficacy (MLEF) metric trains a CatBoost
//! regressor on real or synthetic job records to predict the (log) workload
//! and scores it on a held-out test set. CatBoost is proprietary to the
//! Python/C++ ecosystem, so this crate provides the same model family —
//! gradient boosting over regression trees with native categorical handling
//! via ordered target statistics — which is what the probe actually needs:
//! a strong, deterministic tabular regressor whose test error ranks training
//! sets by how much signal they carry about the target.
//!
//! * [`dataset`] — feature matrices, per-feature binning and ordered target
//!   encoding of categorical columns,
//! * [`tree`] — a single histogram-based regression tree,
//! * [`booster`] — the boosting loop (squared loss, shrinkage, optional
//!   row subsampling),
//! * [`eval`] — RMSE / MSE / MAE helpers.
//!
//! [`Gbdt::fit`] bins every (row, feature) once with [`BinMapper::bin`],
//! fills the root's histograms for all features in a single row-major
//! pass, and then fills only the smaller child of each split, deriving the
//! larger child's histogram as parent − smaller in one buffer per depth.
//! It splits a node by a stable, branch-free partition of one row buffer on
//! the rows' histogram slots, and adds each leaf's step to the rows of its
//! span of that buffer instead of walking them through the tree. Rows,
//! their order, row counts and leaf values are exact; only the low bits of
//! derived histogram sums differ from filling each child directly, which
//! can change the winner of tied split candidates. `booster`'s pin test
//! holds the predictions to the bit (see [`tree`] for the details).

pub mod booster;
pub mod dataset;
pub mod eval;
pub mod tree;

pub use booster::{Gbdt, GbdtConfig};
pub use dataset::{BinMapper, FeatureMatrix, TargetEncoder};
pub use eval::{mae, mse, rmse};
pub use tree::{RegressionTree, TreeConfig};
