//! Compare all four surrogate models (TVAE, CTABGAN+, SMOTE, TabDDPM) on a
//! small simulated PanDA dataset — a miniature of the paper's Table I.
//!
//! ```text
//! cargo run --release --example model_comparison
//! ```

use panda_surrogate::metrics::{evaluate_against, EvaluationConfig, MlefBaseline, SurrogateReport};
use panda_surrogate::surrogate::{fit_all, prepare_data, ExperimentOptions, TrainingBudget};

fn main() {
    let options = ExperimentOptions {
        gross_records: 10_000,
        budget: TrainingBudget::Smoke,
        seed: 7,
        ..ExperimentOptions::default()
    };
    let data = prepare_data(&options);

    println!(
        "training rows: {}, test rows: {}\n",
        data.train.n_rows(),
        data.test.n_rows()
    );
    println!("{}", SurrogateReport::table_header());

    // The four fits run concurrently; a model that diverges shows up as a
    // warning instead of killing the comparison.
    let fits = fit_all(&data.train, options.budget, options.seed);
    fits.report_failures();
    // Every model is scored against one MLEF(train → test) baseline.
    let baseline = MlefBaseline::default();
    let mut reports = Vec::new();
    for (name, synthetic) in fits.successes() {
        let report = evaluate_against(
            name,
            &data.train,
            &data.test,
            synthetic,
            &EvaluationConfig::fast(),
            &baseline,
        )
        .expect("synthetic table is evaluable");
        println!("{}", report.table_row());
        reports.push(report);
    }

    // The qualitative ordering the paper reports: SMOTE has the worst privacy
    // (lowest DCR) while remaining highly faithful; TabDDPM balances both.
    let smote = reports.iter().find(|r| r.model == "SMOTE").unwrap();
    let ddpm = reports.iter().find(|r| r.model == "TabDDPM").unwrap();
    println!(
        "\nSMOTE DCR = {:.4} vs TabDDPM DCR = {:.4} (higher = less memorisation)",
        smote.dcr, ddpm.dcr
    );
    println!("see EXPERIMENTS.md for the full-scale run and the paper's reference values");
}
