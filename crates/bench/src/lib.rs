//! Shared plumbing for the experiment binaries and Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (see DESIGN.md §3 for the index). They all share the
//! same dataset-preparation path so that Table I, Fig. 4 and Fig. 5 are
//! computed over exactly the same train/test split and the same fitted
//! models.
//!
//! The orchestration itself lives in [`surrogate::experiment`] — the single
//! fit→sample→evaluate runtime for the whole workspace (parallel model fits,
//! per-model error isolation). This crate only re-exports it so the binaries
//! keep their `bench::` imports, and adds [`options_or_exit`] and
//! [`report_failures`], the shared ways binaries read their flags and
//! surface partially failed runs.

pub use surrogate::experiment::{
    fit_all, fit_models_with, maybe_write_json, prepare_data, ExecutionMode, ExperimentOptions,
    FitReport, ModelRun, PreparedData,
};

/// Parse the process arguments into [`ExperimentOptions`]; on a bad flag
/// value, print the error and exit with status 2.
pub fn options_or_exit() -> ExperimentOptions {
    ExperimentOptions::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Print every failed model run to stderr and return how many failed.
///
/// The binaries keep going with the surviving models — the point of the
/// `Result`-based runtime is that one diverging GAN no longer kills a whole
/// Table-I run — but they still exit non-zero when nothing succeeded.
pub fn report_failures(report: &FitReport) -> usize {
    let mut failed = 0;
    for (kind, error) in report.failures() {
        eprintln!("warning: {} failed to fit/sample: {error}", kind.name());
        failed += 1;
    }
    failed
}
