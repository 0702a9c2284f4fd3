//! Experiment E4 — reproduce **Fig. 5**: pair-wise feature association
//! matrices for the ground truth and every surrogate model, plus the
//! element-wise difference against the ground truth.
//!
//! ```text
//! cargo run -p bench --release --bin fig5_correlations -- --rows 30000
//! ```

use std::collections::BTreeMap;

use bench::cli::{experiment, experiment_options, Command};
use bench::{fit_all, try_prepare_data};
use metrics::{association_matrix, AssociationMatrix};
use serde::Serialize;
use tabular::Table;

const CLI: Command = experiment("fig5_correlations", "Fig. 5: associations vs ground truth");

#[derive(Serialize)]
struct Fig5Artifact {
    ground_truth: AssociationMatrix,
    /// model -> (association matrix, diff-CORR scalar).
    models: BTreeMap<String, (AssociationMatrix, f64)>,
}

fn print_matrix(matrix: &AssociationMatrix) {
    print!("{:<16}", "");
    for name in &matrix.names {
        print!("{:>8}", truncate(name, 7));
    }
    println!();
    for (i, row) in matrix.values.iter().enumerate() {
        print!("{:<16}", truncate(&matrix.names[i], 15));
        for &v in row {
            print!("{v:>8.2}");
        }
        println!();
    }
}

fn truncate(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}

/// An association matrix needs two rows: Pearson's r is undefined on one.
const MIN_ROWS: usize = 2;

/// The association matrix of `synthetic` over the training columns, or why
/// there is none: a training column it lacks, or fewer than [`MIN_ROWS`]
/// rows.
fn correlate(train: &Table, synthetic: &Table) -> Result<AssociationMatrix, String> {
    let names: Vec<&str> = train.names().iter().map(String::as_str).collect();
    let aligned = synthetic.select(&names).map_err(|e| e.to_string())?;
    if aligned.n_rows() < MIN_ROWS {
        return Err(format!(
            "its sample has {} row(s), fewer than {MIN_ROWS}",
            aligned.n_rows()
        ));
    }
    Ok(association_matrix(&aligned))
}

fn main() {
    let options = CLI.check(experiment_options(&CLI.parse()));
    let data = try_prepare_data(&options)
        .unwrap_or_else(|e| CLI.fail(format_args!("cannot prepare the dataset: {e}")));
    if data.train.n_rows() < MIN_ROWS {
        CLI.fail(format!(
            "the training split has {} row(s), fewer than the {MIN_ROWS} an association \
             matrix needs; raise --rows",
            data.train.n_rows()
        ));
    }

    println!("== Fig. 5(a): ground-truth association matrix ==");
    let gt = association_matrix(&data.train);
    print_matrix(&gt);

    let mut artifact = Fig5Artifact {
        ground_truth: gt.clone(),
        models: BTreeMap::new(),
    };

    println!("\n== Fig. 5(b): synthetic data correlations and diff vs GT ==");
    let fits = fit_all(&data.train, options.budget, options.seed);
    if fits.report_failures() == fits.runs.len() {
        CLI.fail("every surrogate model failed — nothing to correlate");
    }
    for (name, synthetic) in fits.successes() {
        let matrix = match correlate(&data.train, synthetic) {
            Ok(matrix) => matrix,
            Err(e) => {
                eprintln!("warning: {name} could not be correlated: {e}");
                continue;
            }
        };
        let diff = gt.l2_diff(&matrix);
        println!("\n--- {name} (diff-CORR = {diff:.3}) ---");
        print_matrix(&matrix);
        artifact.models.insert(name.to_string(), (matrix, diff));
    }
    if artifact.models.is_empty() {
        CLI.fail("no surrogate model could be correlated");
    }

    println!("\npaper reference diff-CORR: TVAE 0.653, CTABGAN+ 0.658, SMOTE 0.011, TabDDPM 0.036");
    CLI.maybe_write_json(options.output_json.as_deref(), &artifact);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn table(rows: usize) -> Table {
        let mut table = Table::new();
        let values: Vec<f64> = (0..rows).map(|r| r as f64).collect();
        table
            .push_column("a", Column::Numerical(values.clone()))
            .unwrap();
        table
            .push_column("b", Column::Numerical(values.iter().map(|v| -v).collect()))
            .unwrap();
        table
    }

    #[test]
    fn a_sample_below_two_rows_or_without_a_training_column_is_refused() {
        let train = table(5);
        assert_eq!(correlate(&train, &table(2)).unwrap().names, ["a", "b"]);
        for rows in [0, 1] {
            let error = correlate(&train, &table(rows)).unwrap_err();
            assert_eq!(error, format!("its sample has {rows} row(s), fewer than 2"));
        }
        let mut narrow = Table::new();
        narrow
            .push_column("a", Column::Numerical(vec![0.0, 1.0, 2.0]))
            .unwrap();
        assert!(correlate(&train, &narrow).unwrap_err().contains('b'));
    }
}
