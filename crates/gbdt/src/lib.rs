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
//! fills each node's histograms for all features in a single row-major pass
//! into buffers reused across nodes, and splits a node by a stable in-place
//! partition of one index buffer on the raw `x <= threshold` predicate.
//! The bins are the mapper's, every histogram sum adds the same targets in
//! the same row order, and each child keeps its rows in their original
//! relative order, so predictions are bit-identical to binning each row at
//! every node and partitioning into fresh `Vec`s; `booster`'s pin test
//! holds them to the bit (see [`tree`] for the details).

pub mod booster;
pub mod dataset;
pub mod eval;
pub mod tree;

pub use booster::{Gbdt, GbdtConfig};
pub use dataset::{BinMapper, FeatureMatrix, TargetEncoder};
pub use eval::{mae, mse, rmse};
pub use tree::{RegressionTree, TreeConfig};
