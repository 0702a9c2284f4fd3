//! Integration tests for the parallel experiment runtime
//! (`surrogate::experiment`): parallel and sequential fits must be
//! byte-identical for the same seed, and one failing model must not take
//! the other three down with it.

use panda_surrogate::surrogate::{
    fit_all, fit_and_sample, fit_models_with, prepare_data, ExecutionMode, ExperimentOptions,
    ModelKind, SurrogateError, TrainingBudget,
};
use panda_surrogate::tabular::Table;

fn small_train() -> Table {
    let data = prepare_data(&ExperimentOptions {
        gross_records: 2_500,
        seed: 31,
        ..ExperimentOptions::default()
    });
    data.train
}

#[test]
fn parallel_and_sequential_fits_are_byte_identical() {
    let train = small_train();
    let fit = |mode| {
        fit_models_with(&ModelKind::ALL, mode, |kind| {
            fit_and_sample(kind, &train, train.n_rows(), TrainingBudget::Smoke, 17)
        })
    };
    let parallel = fit(ExecutionMode::Parallel);
    let sequential = fit(ExecutionMode::Sequential);

    assert_eq!(parallel.runs.len(), 4);
    assert_eq!(sequential.runs.len(), 4);
    for (p, s) in parallel.runs.iter().zip(&sequential.runs) {
        // Table-I order is preserved by both modes.
        assert_eq!(p.kind, s.kind);
        let p_table = p.outcome.as_ref().unwrap_or_else(|e| {
            panic!("{} failed in parallel mode: {e}", p.kind.name());
        });
        let s_table = s.outcome.as_ref().unwrap_or_else(|e| {
            panic!("{} failed in sequential mode: {e}", s.kind.name());
        });
        // Byte-identical synthetic tables: each model derives its RNG only
        // from the experiment seed, never from scheduling order.
        assert_eq!(p_table, s_table, "{} diverged across modes", p.kind.name());
    }
}

#[test]
fn fit_all_matches_the_single_model_pipeline() {
    let train = small_train();
    let report = fit_all(&train, TrainingBudget::Smoke, 3);
    for run in &report.runs {
        let direct = fit_and_sample(run.kind, &train, train.n_rows(), TrainingBudget::Smoke, 3)
            .expect("direct fit succeeds");
        assert_eq!(run.outcome.as_ref().unwrap(), &direct);
    }
}

#[test]
fn failing_model_is_isolated_from_the_other_three() {
    let train = small_train();
    let report = fit_models_with(&ModelKind::ALL, ExecutionMode::Parallel, |kind| {
        if kind == ModelKind::CtabGan {
            // Stand-in for a diverging GAN.
            Err(SurrogateError::InvalidTrainingData(
                "injected divergence".to_string(),
            ))
        } else {
            fit_and_sample(kind, &train, train.n_rows(), TrainingBudget::Smoke, 5)
        }
    });

    // The other three models completed normally…
    assert_eq!(report.successes().count(), 3);
    assert!(report
        .successes()
        .all(|(_, table)| table.n_rows() == train.n_rows()));
    // …and the failure is reported against the right model.
    let failures: Vec<ModelKind> = report.failures().map(|(kind, _)| kind).collect();
    assert_eq!(failures, vec![ModelKind::CtabGan]);
}

#[test]
fn sample_all_models_returns_tables_in_table_one_order() {
    let train = small_train();
    let report = fit_all(&train, TrainingBudget::Smoke, 9);
    assert_eq!(report.failures().count(), 0, "all models fit");
    let tables: Vec<(&str, &Table)> = report.successes().collect();
    let names: Vec<&str> = tables.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, vec!["TVAE", "CTABGAN+", "SMOTE", "TabDDPM"]);
    for (name, table) in &tables {
        assert_eq!(table.n_rows(), train.n_rows(), "{name}");
        assert_eq!(table.names(), train.names(), "{name}");
    }
}
