//! Typed errors for the metric kernels.
//!
//! The kernels used to `assert!` on degenerate inputs (empty samples, a
//! synthetic table sharing no columns with the reference), which turned one
//! bad synthetic table into a process-wide panic. Each degenerate input is
//! now a [`MetricError`] variant, so callers — the sweep runtime above all —
//! can confine the failure to the cell that produced it.

use std::fmt;

/// Why a metric could not be computed from the given inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricError {
    /// A sample slice was empty.
    EmptySample,
    /// A sample contained no finite values.
    NoFiniteSamples,
    /// The reference table has no numerical columns to compare.
    NoNumericalColumns,
    /// The synthetic table shares no numerical columns with the reference.
    NoSharedNumericalColumns,
    /// The reference table has no categorical columns to compare.
    NoCategoricalColumns,
    /// The synthetic table shares no categorical columns with the reference.
    NoSharedCategoricalColumns,
    /// The synthetic table lacks a column of the training table.
    MissingColumn {
        /// Name of the training column.
        name: String,
    },
    /// The synthetic table has a column the training table lacks.
    ExtraColumn {
        /// Name of the synthetic column.
        name: String,
    },
    /// A synthetic column is numerical where the training column is
    /// categorical, or the other way round.
    ColumnKindMismatch {
        /// Name of the column.
        name: String,
    },
    /// The synthetic table has fewer than the two rows a correlation needs.
    TooFewRows {
        /// Rows the synthetic table has.
        rows: usize,
    },
    /// A synthetic categorical code has no label in its column's vocabulary.
    CodeOutOfVocabulary {
        /// Name of the column.
        name: String,
        /// First row holding such a code.
        row: usize,
    },
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::EmptySample => write!(f, "empty sample"),
            MetricError::NoFiniteSamples => write!(f, "no finite samples"),
            MetricError::NoNumericalColumns => {
                write!(f, "no numerical columns to compare")
            }
            MetricError::NoSharedNumericalColumns => {
                write!(f, "synthetic table shares no numerical columns")
            }
            MetricError::NoCategoricalColumns => {
                write!(f, "no categorical columns to compare")
            }
            MetricError::NoSharedCategoricalColumns => {
                write!(f, "synthetic table shares no categorical columns")
            }
            MetricError::MissingColumn { name } => {
                write!(f, "synthetic table lacks training column '{name}'")
            }
            MetricError::ExtraColumn { name } => {
                write!(f, "synthetic column '{name}' is not a training column")
            }
            MetricError::ColumnKindMismatch { name } => {
                write!(
                    f,
                    "synthetic column '{name}' differs in kind from the training column"
                )
            }
            MetricError::TooFewRows { rows } => {
                write!(
                    f,
                    "synthetic table has {rows} row(s), at least 2 are needed"
                )
            }
            MetricError::CodeOutOfVocabulary { name, row } => {
                write!(
                    f,
                    "synthetic column '{name}' holds a code outside its vocabulary at row {row}"
                )
            }
        }
    }
}

impl std::error::Error for MetricError {}
