//! Columnar mixed-type tabular data substrate.
//!
//! The PanDA job records studied in the paper are structured tables mixing
//! categorical columns (job status, computing site, project, production step,
//! data type) and numerical columns (workload, creation time, number of input
//! files, input byte size). This crate provides the data structures and
//! preprocessing steps every other crate in the workspace builds on:
//!
//! * [`schema`] — feature kinds and table schemas,
//! * [`table`] — the columnar [`Table`] container,
//! * [`encode`] — one-hot / label encodings for categorical columns,
//! * [`transform`] — numerical transforms (Gaussian quantile, standard,
//!   min-max, log1p) mirroring the scikit-learn preprocessing the paper uses,
//! * [`split`] — deterministic train/test splitting,
//! * [`stats`] — histograms, value counts and per-column summaries.

pub mod encode;
pub mod error;
pub mod schema;
pub mod split;
pub mod stats;
pub mod table;
pub mod transform;

pub use encode::{LabelEncoder, OneHotEncoder};
pub use error::TabularError;
pub use schema::{FeatureKind, FeatureSpec, Schema};
pub use split::{train_test_split, SplitOptions};
pub use stats::{histogram, value_counts, ColumnSummary, Histogram};
pub use table::{Column, Table};
pub use transform::{
    LogTransform, MinMaxScaler, NumericTransform, QuantileTransformer, StandardScaler,
};
