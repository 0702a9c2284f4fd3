//! Evaluation metrics for tabular generative models (§IV-B of the paper).
//!
//! Five quantities make up the paper's Table I:
//!
//! * **WD** — mean 1-D Wasserstein distance across numerical features
//!   (computed on min-max-normalised values so features are comparable),
//! * **JSD** — mean Jensen–Shannon divergence across categorical features,
//! * **diff-CORR** — mean element-wise L2 difference between the real and
//!   synthetic association matrices (Pearson for numerical–numerical,
//!   correlation ratio for categorical–numerical, Theil's U for
//!   categorical–categorical),
//! * **DCR** — mean distance to the closest training record (privacy proxy;
//!   higher is safer),
//! * **diff-MLEF** — machine-learning efficacy gap: test MSE of a
//!   gradient-boosted regressor trained on synthetic data minus the test MSE
//!   of the same regressor trained on real data.
//!
//! SMOTE's neighbour lists and DCR share one exact nearest-neighbour search
//! over mixed-type rows, [`neighbors`].
//!
//! [`report::evaluate_surrogate`] computes all five at once,
//! [`report::evaluate_against`] does the same against an MLEF baseline
//! shared by every table scored on one split, and
//! [`report::SurrogateReport`] renders a Table-I-style row.

pub mod correlation;
pub mod dcr;
pub mod error;
pub mod jsd;
pub mod mlef;
pub mod neighbors;
pub mod report;
pub mod wasserstein;

pub use correlation::{
    association_matrix, correlation_ratio, diff_corr, pearson, theils_u, AssociationMatrix,
};
pub use dcr::{distance_to_closest_record, DcrConfig};
pub use error::MetricError;
pub use jsd::column_jsd;
pub use jsd::{jensen_shannon_divergence, mean_jsd};
pub use mlef::{diff_mlef, mlef_mse, MlefBaseline, MlefConfig};
pub use neighbors::{MixedRows, NeighborIndex, Term};
pub use report::{
    evaluate_against, evaluate_surrogate, mean_report, EvaluationConfig, SurrogateReport,
};
pub use wasserstein::{mean_wasserstein, wasserstein_1d, wasserstein_1d_normalized};
