//! Experiment E4 — reproduce **Fig. 5**: pair-wise feature association
//! matrices for the ground truth and every surrogate model, plus the
//! element-wise difference against the ground truth.
//!
//! ```text
//! cargo run -p bench --release --bin fig5_correlations -- --rows 30000
//! ```

use std::collections::BTreeMap;

use bench::cli::{experiment, experiment_options, Command};
use bench::{fit_all, prepare_data};
use metrics::{association_matrix, AssociationMatrix};
use serde::Serialize;

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

fn main() {
    let options = CLI.check(experiment_options(&CLI.parse()));
    let data = prepare_data(&options);

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
        let aligned = synthetic
            .select(
                &data
                    .train
                    .names()
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>(),
            )
            .expect("synthetic table has the training columns");
        let matrix = association_matrix(&aligned);
        let diff = gt.l2_diff(&matrix);
        println!("\n--- {name} (diff-CORR = {diff:.3}) ---");
        print_matrix(&matrix);
        artifact.models.insert(name.to_string(), (matrix, diff));
    }

    println!("\npaper reference diff-CORR: TVAE 0.653, CTABGAN+ 0.658, SMOTE 0.011, TabDDPM 0.036");
    CLI.maybe_write_json(options.output_json.as_deref(), &artifact);
}
