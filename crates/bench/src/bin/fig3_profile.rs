//! Experiment E1 — reproduce **Fig. 3**: the dataset profile (feature kinds
//! and unique-entry counts) and the record-filtering funnel.
//!
//! ```text
//! cargo run -p bench --release --bin fig3_profile -- --rows 60000
//! ```

use bench::cli::{experiment, experiment_options, Command};
use bench::prepare_data;
use serde::Serialize;
use tabular::stats::summarize;

const CLI: Command = experiment(
    "fig3_profile",
    "Fig. 3: dataset profile and filtering funnel",
);

#[derive(Serialize)]
struct Fig3Artifact {
    funnel: Vec<pandasim::FunnelStage>,
    profile: Vec<tabular::ColumnSummary>,
}

fn main() {
    let options = CLI.check(experiment_options(&CLI.parse()));
    let data = prepare_data(&options);

    println!("== Fig. 3(a): dataset profile ==");
    println!("{:<18} {:>4} {:>10}", "feature", "kind", "# unique");
    let merged = data
        .train
        .vstack(&data.test)
        .expect("train and test share a schema");
    let profile = summarize(&merged);
    for column in &profile {
        println!(
            "{:<18} {:>4} {:>10}",
            column.name, column.kind, column.unique
        );
    }

    println!("\n== Fig. 3(b): filtering diagram ==");
    for line in data.funnel.render() {
        println!("  {line}");
    }
    let surviving = data.funnel.surviving();
    println!(
        "  train/test split (80/20)                 {:>10} / {}",
        data.train.n_rows(),
        data.test.n_rows()
    );
    println!("\npaper reference: 2.08M gross records -> 1,648,759 modelling rows (1,319,007 train / 329,752 test)");
    println!(
        "this run:        {} gross records -> {} modelling rows ({} train / {} test)",
        options.gross_records,
        surviving,
        data.train.n_rows(),
        data.test.n_rows()
    );

    CLI.maybe_write_json(
        options.output_json.as_deref(),
        &Fig3Artifact {
            funnel: data.funnel.stages.clone(),
            profile,
        },
    );
}
