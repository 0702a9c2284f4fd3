//! Shared plumbing for the experiment, sweep, serving, simulator and
//! `perf_report` binaries.
//!
//! The experiment binaries in `src/bin/` each regenerate one table or figure
//! of the paper's evaluation section. They all share the same
//! dataset-preparation path so that Table I, Fig. 4 and Fig. 5 are computed
//! over exactly the same train/test split and the same fitted models.
//!
//! The orchestration itself lives in [`surrogate::experiment`] — the single
//! fit→sample→evaluate runtime for the whole workspace (parallel model fits,
//! per-model error isolation). This crate only re-exports it so the binaries
//! keep their `bench::` imports, and adds [`cli`], the one command-line
//! layer of every binary.

pub mod cli;

pub use surrogate::experiment::{
    fit_all, fit_models_with, try_prepare_data, ExecutionMode, ExperimentOptions, FitReport,
    ModelRun, PreparedData,
};
