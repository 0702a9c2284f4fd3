//! The common interface of all surrogate models. Every model samples
//! through one path, [`TabularGenerator::sample_batch`], whose network
//! forward passes run in `f64`.

use std::fmt;
use std::ops::Range;

use tabular::{Table, TabularError};

use crate::fault::FitControl;

/// Errors raised while fitting or sampling a surrogate model.
#[derive(Debug, Clone, PartialEq)]
pub enum SurrogateError {
    /// The model was asked to sample before being fitted.
    NotFitted(&'static str),
    /// The training table was unusable (empty, wrong schema, …).
    InvalidTrainingData(String),
    /// An underlying tabular operation failed.
    Tabular(TabularError),
    /// The fit was cancelled by its [`crate::fault::CellBudget`] after
    /// completing this many epochs.
    BudgetExceeded {
        /// Epochs that finished before the budget tripped.
        completed_epochs: usize,
    },
    /// Training diverged: the mean loss of this epoch was NaN or infinite.
    NonFiniteLoss {
        /// 0-based epoch whose mean loss was non-finite.
        epoch: usize,
    },
    /// The fit panicked; the panic was captured and lowered to this error so
    /// one poisoned model never takes down a parallel run.
    Panicked {
        /// The panic payload, rendered as a string.
        message: String,
    },
}

impl fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurrogateError::NotFitted(model) => write!(f, "{model} sampled before fit"),
            SurrogateError::InvalidTrainingData(msg) => {
                write!(f, "invalid training data: {msg}")
            }
            SurrogateError::Tabular(e) => write!(f, "tabular error: {e}"),
            SurrogateError::BudgetExceeded { completed_epochs } => {
                write!(f, "budget exceeded after {completed_epochs} epochs")
            }
            SurrogateError::NonFiniteLoss { epoch } => {
                write!(f, "non-finite training loss at epoch {epoch}")
            }
            SurrogateError::Panicked { message } => {
                write!(f, "fit panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SurrogateError {}

impl From<TabularError> for SurrogateError {
    fn from(value: TabularError) -> Self {
        SurrogateError::Tabular(value)
    }
}

/// One sampling request inside a [`TabularGenerator::sample_batch`] call:
/// how many rows to draw and under which seed.
///
/// Each spec is its own deterministic RNG stream — batching specs together
/// never changes any spec's output relative to a standalone
/// [`TabularGenerator::sample`] call with the same `(rows, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Synthetic rows to draw for this request.
    pub rows: usize,
    /// Seed of this request's RNG stream.
    pub seed: u64,
}

impl SampleSpec {
    /// Bundle a row count with its sampling seed.
    pub fn new(rows: usize, seed: u64) -> Self {
        Self { rows, seed }
    }

    /// Total rows across a batch of specs.
    pub fn total_rows(specs: &[SampleSpec]) -> usize {
        specs.iter().map(|s| s.rows).sum()
    }

    /// Each spec's row range in the batch's stacked matrix, in spec order.
    pub(crate) fn row_ranges(specs: &[SampleSpec]) -> impl Iterator<Item = Range<usize>> + '_ {
        specs.iter().scan(0, |end, spec| {
            let start = *end;
            *end += spec.rows;
            Some(start..*end)
        })
    }
}

/// The table of a one-spec batch. Every sampler answers a batch with one
/// table per spec, so the batch of one holds exactly one.
fn single_table(mut tables: Vec<Table>) -> Table {
    tables.swap_remove(0)
}

/// A generative model over mixed-type tabular data.
///
/// Implementations are deterministic given the seeds in their configuration,
/// so experiments are reproducible end to end. Each verb has one required
/// method — [`TabularGenerator::fit_with_control`] and
/// [`TabularGenerator::sample_batch`] — and the other methods wrap them.
pub trait TabularGenerator {
    /// Human-readable model name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Fit the model to a training table under a cooperative cancellation
    /// token.
    ///
    /// Models with epoch loops call [`FitControl::check_epoch`] once per
    /// epoch, so a [`crate::fault::CellBudget`] can stop a runaway fit with
    /// a typed [`SurrogateError::BudgetExceeded`]. Near-instant fits like
    /// SMOTE ignore the token, where a budget is a documented no-op.
    fn fit_with_control(
        &mut self,
        train: &Table,
        control: &FitControl,
    ) -> Result<(), SurrogateError>;

    /// Fit the model to a training table with no budget.
    fn fit(&mut self, train: &Table) -> Result<(), SurrogateError> {
        self.fit_with_control(train, &FitControl::unlimited())
    }

    /// Sample several independent requests in one call, one output table per
    /// spec, in spec order — the one sampling implementation of every model.
    ///
    /// The contract is **byte-identity**: `sample_batch(specs)[i]` equals
    /// `sample_batch(&[specs[i]])[0]` exactly, for every spec and every
    /// batch composition. MLP-backed generators draw each spec's noise from
    /// its own RNG stream into one stacked matrix of exactly the total rows,
    /// run a *single* packed-kernel forward pass per network step over it,
    /// and decode each spec's row range in place — the serving loop's
    /// micro-batching rides on this. Identity holds because every kernel on
    /// the path computes each output row from its input row alone, with a
    /// row-count-independent reduction order.
    fn sample_batch(&self, specs: &[SampleSpec]) -> Result<Vec<Table>, SurrogateError>;

    /// Sample `n` synthetic rows with the same schema as the training table:
    /// a batch of one.
    fn sample(&self, n: usize, seed: u64) -> Result<Table, SurrogateError> {
        self.sample_batch(&[SampleSpec::new(n, seed)])
            .map(single_table)
    }
}
