//! The single fit→sample→evaluate experiment runtime shared by every
//! experiment binary, example and integration test.
//!
//! This module owns the orchestration that used to live in the `bench`
//! crate: preparing the synthetic PanDA dataset ([`prepare_data`]) and
//! fitting/sampling the paper's four surrogate models. Two properties are
//! load-bearing:
//!
//! * **Parallelism** — [`fit_all`] fans the four [`ModelKind`] fits out
//!   across threads with rayon. Each model owns its own seeded RNG (derived
//!   only from the experiment seed), so parallel and sequential execution
//!   produce byte-identical synthetic tables; `tests/experiment.rs` asserts
//!   this.
//! * **Failure isolation** — a diverging model surfaces as a per-model
//!   `Err` in its [`ModelRun`] instead of panicking, so one bad fit no
//!   longer kills a whole Table-I run; callers keep going with
//!   [`FitReport::successes`] and count [`FitReport::failures`].
//!
//! [`fit_all`] is the one runner; [`fit_models_with`] is the same
//! orchestration with an injected fitter and an explicit
//! [`ExecutionMode`], the seam tests use.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rayon::prelude::*;

use pandasim::{records_to_table, FilterFunnel, GeneratorConfig, WorkloadGenerator};
use tabular::{train_test_split, SplitOptions, Table};

use crate::fault::panic_message;
use crate::pipeline::{fit_and_sample, ModelKind, TrainingBudget};
use crate::traits::SurrogateError;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Number of gross PanDA records to simulate before filtering.
    pub gross_records: usize,
    /// Length of the simulated collection window in days.
    pub days: f64,
    /// Training budget for the neural surrogates.
    pub budget: TrainingBudget,
    /// Base RNG seed.
    pub seed: u64,
    /// Optional path to write a JSON artifact with the experiment's series.
    pub output_json: Option<String>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            gross_records: 30_000,
            days: 150.0,
            budget: TrainingBudget::Standard,
            seed: 2024,
            output_json: None,
        }
    }
}

/// The prepared dataset every experiment starts from: the gross stream, the
/// filtering funnel, and the 80/20 train/test split of the modelling table.
pub struct PreparedData {
    /// The workload generator (kept for its site catalogue).
    pub generator: WorkloadGenerator,
    /// The filtering funnel including the surviving records.
    pub funnel: FilterFunnel,
    /// The full (unsplit) nine-feature modelling table, in funnel order.
    pub table: Table,
    /// Training split of the nine-feature modelling table.
    pub train: Table,
    /// Test split of the nine-feature modelling table.
    pub test: Table,
}

/// Generate, filter and split the synthetic PanDA dataset.
pub fn prepare_data(options: &ExperimentOptions) -> PreparedData {
    prepare_data_from_config(&GeneratorConfig {
        gross_records: options.gross_records,
        days: options.days,
        seed: options.seed,
        ..GeneratorConfig::default()
    })
}

/// [`prepare_data`] for an arbitrary generator configuration (scenario
/// sweeps drive this directly with preset variants). The train/test split
/// derives its seed from the generator seed, so the whole prepared dataset
/// is a pure function of `config`.
pub fn prepare_data_from_config(config: &GeneratorConfig) -> PreparedData {
    let generator = WorkloadGenerator::new(config.clone());
    let gross = generator.generate();
    let funnel = FilterFunnel::apply(&gross);
    let table = records_to_table(&funnel.records);
    let (train, test) = train_test_split(
        &table,
        SplitOptions {
            train_fraction: 0.8,
            shuffle: true,
            seed: config.seed,
        },
    )
    .expect("non-empty modelling table");
    PreparedData {
        generator,
        funnel,
        table,
        train,
        test,
    }
}

/// Whether [`fit_models_with`] fans the model fits out across threads or
/// runs them one after another. The two modes are byte-identical in output;
/// `Sequential` exists for determinism tests and for debugging with clean
/// stack traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One rayon task per model (the default).
    Parallel,
    /// One model after another on the calling thread.
    Sequential,
}

/// The outcome of fitting and sampling one surrogate model.
#[derive(Debug)]
pub struct ModelRun {
    /// Which model this run fitted.
    pub kind: ModelKind,
    /// The synthetic table, or why the model could not produce one.
    pub outcome: Result<Table, SurrogateError>,
}

/// Every model's run from one experiment, in the paper's Table-I order.
#[derive(Debug)]
pub struct FitReport {
    /// One entry per requested model, order preserved.
    pub runs: Vec<ModelRun>,
}

impl FitReport {
    /// The models that produced a synthetic table, as `(name, table)`.
    pub fn successes(&self) -> impl Iterator<Item = (&'static str, &Table)> {
        self.runs.iter().filter_map(|run| {
            run.outcome
                .as_ref()
                .ok()
                .map(|table| (run.kind.name(), table))
        })
    }

    /// The models that failed, with their errors.
    pub fn failures(&self) -> impl Iterator<Item = (ModelKind, &SurrogateError)> {
        self.runs
            .iter()
            .filter_map(|run| run.outcome.as_ref().err().map(|e| (run.kind, e)))
    }

    /// Print every failed model run to stderr and return how many failed.
    ///
    /// Callers keep going with the surviving models — the point of the
    /// `Result`-based runtime is that one diverging GAN no longer kills a
    /// whole Table-I run — but can compare the count against
    /// `runs.len()` to bail out when nothing succeeded.
    pub fn report_failures(&self) -> usize {
        let mut failed = 0;
        for (kind, error) in self.failures() {
            eprintln!("warning: {} failed to fit/sample: {error}", kind.name());
            failed += 1;
        }
        failed
    }
}

/// Fit the requested models through an arbitrary fitter. This is the
/// orchestration core that [`fit_all`] wraps: tests inject failing fitters
/// here to exercise the error-aggregation path.
///
/// Each fit runs under [`catch_unwind`], so a panicking model is lowered to
/// a per-model [`SurrogateError::Panicked`] outcome instead of poisoning the
/// work queue (under rayon a propagated panic would abort every sibling
/// fit).
pub fn fit_models_with<F>(kinds: &[ModelKind], mode: ExecutionMode, fitter: F) -> FitReport
where
    F: Fn(ModelKind) -> Result<Table, SurrogateError> + Sync,
{
    let run_one = |kind: ModelKind| ModelRun {
        kind,
        outcome: catch_unwind(AssertUnwindSafe(|| fitter(kind))).unwrap_or_else(|payload| {
            Err(SurrogateError::Panicked {
                message: panic_message(payload),
            })
        }),
    };
    let runs = match mode {
        ExecutionMode::Parallel => kinds.par_iter().map(|&kind| run_one(kind)).collect(),
        ExecutionMode::Sequential => kinds.iter().map(|&kind| run_one(kind)).collect(),
    };
    FitReport { runs }
}

/// Fit every surrogate model on `train` concurrently and sample as many
/// rows as the training set holds, in the paper's Table-I order.
/// Per-model determinism is seed-derived, so the result is identical to a
/// sequential run.
pub fn fit_all(train: &Table, budget: TrainingBudget, seed: u64) -> FitReport {
    fit_models_with(&ModelKind::ALL, ExecutionMode::Parallel, |kind| {
        fit_and_sample(kind, train, train.n_rows(), budget, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_data_produces_consistent_split() {
        let options = ExperimentOptions {
            gross_records: 3_000,
            ..Default::default()
        };
        let data = prepare_data(&options);
        assert!(data.funnel.surviving() > 500);
        assert_eq!(
            data.train.n_rows() + data.test.n_rows(),
            data.funnel.surviving()
        );
        assert_eq!(data.train.n_cols(), 9);
        // 80/20 within rounding.
        let ratio = data.train.n_rows() as f64 / data.funnel.surviving() as f64;
        assert!((ratio - 0.8).abs() < 0.01);
    }

    #[test]
    fn fit_report_separates_successes_from_failures() {
        let report = fit_models_with(&ModelKind::ALL, ExecutionMode::Sequential, |kind| {
            if kind == ModelKind::CtabGan {
                Err(SurrogateError::InvalidTrainingData("injected".to_string()))
            } else {
                Ok(Table::new())
            }
        });
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.successes().count(), 3);
        let failures: Vec<ModelKind> = report.failures().map(|(kind, _)| kind).collect();
        assert_eq!(failures, vec![ModelKind::CtabGan]);
    }

    #[test]
    fn panicking_fitter_is_isolated_to_its_own_model() {
        for mode in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
            let report = fit_models_with(&ModelKind::ALL, mode, |kind| {
                if kind == ModelKind::TabDdpm {
                    panic!("injected panic in {}", kind.name());
                }
                Ok(Table::new())
            });
            assert_eq!(report.successes().count(), 3, "{mode:?}");
            let failures: Vec<(ModelKind, &SurrogateError)> = report.failures().collect();
            assert_eq!(failures.len(), 1, "{mode:?}");
            assert_eq!(failures[0].0, ModelKind::TabDdpm);
            assert_eq!(
                failures[0].1,
                &SurrogateError::Panicked {
                    message: "injected panic in TabDDPM".to_string()
                },
                "{mode:?}"
            );
        }
    }
}
