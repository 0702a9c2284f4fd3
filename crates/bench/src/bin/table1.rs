//! Experiment E5 — reproduce **Table I**: WD, JSD, diff-CORR, DCR and
//! diff-MLEF for TVAE, CTABGAN+, SMOTE and TabDDPM.
//!
//! ```text
//! cargo run -p bench --release --bin table1 -- --rows 30000 --budget standard
//! ```

use bench::cli::{experiment, experiment_options, Command};
use bench::{fit_all, prepare_data};
use metrics::{evaluate_against, EvaluationConfig, MlefBaseline, SurrogateReport};

const CLI: Command = experiment(
    "table1",
    "Table I: WD, JSD, diff-CORR, DCR, diff-MLEF per model",
);

fn main() {
    let options = CLI.check(experiment_options(&CLI.parse()));
    println!("== Table I: performance comparisons on surrogate models ==");
    println!(
        "simulated gross records: {}, window: {} days, budget: {:?}",
        options.gross_records, options.days, options.budget
    );

    let data = prepare_data(&options);
    println!("\nfiltering funnel (Fig. 3b):");
    for line in data.funnel.render() {
        println!("  {line}");
    }
    println!(
        "train rows: {}, test rows: {}",
        data.train.n_rows(),
        data.test.n_rows()
    );

    let evaluation = EvaluationConfig::paper();
    let mut reports: Vec<SurrogateReport> = Vec::new();

    let fits = fit_all(&data.train, options.budget, options.seed);
    if fits.report_failures() == fits.runs.len() {
        CLI.fail("every surrogate model failed — nothing to evaluate");
    }

    // MLEF(train → test) is fitted once, by the first evaluation, and
    // shared by all four models.
    let baseline = MlefBaseline::default();
    println!("\n{}", SurrogateReport::table_header());
    for (name, synthetic) in fits.successes() {
        match evaluate_against(
            name,
            &data.train,
            &data.test,
            synthetic,
            &evaluation,
            &baseline,
        ) {
            Ok(report) => {
                println!("{}", report.table_row());
                reports.push(report);
            }
            Err(e) => eprintln!("warning: {name} could not be scored: {e}"),
        }
    }
    if reports.is_empty() {
        CLI.fail("no surrogate model could be scored");
    }

    println!("\npaper reference values (Table I):");
    println!("  TVAE      WD 0.961  JSD 0.806  diff-CORR 0.653  DCR 0.143  diff-MLEF  5.875");
    println!("  CTABGAN+  WD 1.000  JSD 0.820  diff-CORR 0.658  DCR 0.105  diff-MLEF 10.464");
    println!("  SMOTE     WD 0.871  JSD 0.799  diff-CORR 0.011  DCR 0.001  diff-MLEF  0.058");
    println!("  TabDDPM   WD 0.874  JSD 0.799  diff-CORR 0.036  DCR 0.025  diff-MLEF  0.826");

    CLI.maybe_write_json(options.output_json.as_deref(), &reports);
}
