//! Error type shared across the tabular substrate.

use std::fmt;

/// Errors raised by table construction, encoding and transformation.
#[derive(Debug, Clone, PartialEq)]
pub enum TabularError {
    /// Two columns (or a column and the table) disagree on the number of rows.
    LengthMismatch {
        /// What was being combined when the mismatch was detected.
        context: &'static str,
        /// Expected number of rows.
        expected: usize,
        /// Number of rows actually supplied.
        found: usize,
    },
    /// A column name was not present in the table.
    UnknownColumn(String),
    /// A column had the wrong kind for the requested operation.
    KindMismatch {
        /// Column name.
        column: String,
        /// What kind the operation required.
        expected: &'static str,
    },
    /// A categorical code was outside the column's vocabulary.
    InvalidCode {
        /// Column name.
        column: String,
        /// Offending code.
        code: u32,
        /// Vocabulary size.
        cardinality: usize,
    },
    /// A transform was used before being fitted.
    NotFitted(&'static str),
    /// An empty table or column where data was required.
    Empty(&'static str),
    /// A table with fewer rows than the operation needs.
    TooFewRows {
        /// What needed the rows.
        context: &'static str,
        /// Rows present.
        rows: usize,
        /// Rows needed.
        needed: usize,
    },
    /// A NaN or ±inf where a transform needs a finite value.
    NonFinite {
        /// What was being transformed.
        context: &'static str,
        /// Index of the first non-finite value.
        row: usize,
    },
}

impl fmt::Display for TabularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TabularError::LengthMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "length mismatch in {context}: expected {expected} rows, found {found}"
            ),
            TabularError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            TabularError::KindMismatch { column, expected } => {
                write!(f, "column `{column}` is not {expected}")
            }
            TabularError::InvalidCode {
                column,
                code,
                cardinality,
            } => write!(
                f,
                "code {code} out of range for column `{column}` (cardinality {cardinality})"
            ),
            TabularError::NotFitted(what) => write!(f, "{what} used before fit"),
            TabularError::Empty(what) => write!(f, "{what} is empty"),
            TabularError::TooFewRows {
                context,
                rows,
                needed,
            } => write!(f, "{context} has {rows} row(s), needs at least {needed}"),
            TabularError::NonFinite { context, row } => {
                write!(f, "non-finite value at row {row} of {context}")
            }
        }
    }
}

impl std::error::Error for TabularError {}
