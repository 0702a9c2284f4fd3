//! Experiments E2/E3 — reproduce **Fig. 4**: per-feature distributional
//! comparisons between ground truth and each surrogate model.
//!
//! (a) histograms of the four numerical features, (b) normalised counts of
//! the top categorical entries.
//!
//! ```text
//! cargo run -p bench --release --bin fig4_distributions -- --rows 30000
//! ```

use std::collections::BTreeMap;

use bench::cli::{experiment, experiment_options, Command};
use bench::{fit_all, prepare_data};
use metrics::{column_jsd, wasserstein_1d_normalized};
use serde::Serialize;
use tabular::stats::{histogram_with_range, top_k_frequencies};

const CLI: Command = experiment("fig4_distributions", "Fig. 4: marginals vs ground truth");

const NUMERICAL: [&str; 4] = [
    "workload",
    "creationtime",
    "ninputdatafiles",
    "inputfilebytes",
];
const CATEGORICAL: [&str; 4] = ["jobstatus", "computingsite", "project", "datatype"];
const BINS: usize = 24;
const TOP_K: usize = 5;

#[derive(Serialize)]
struct Fig4Artifact {
    /// feature -> model -> normalised histogram (ground truth under "GT").
    numerical: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// feature -> model -> top-k (label, frequency) pairs.
    categorical: BTreeMap<String, BTreeMap<String, Vec<(String, f64)>>>,
}

fn main() {
    let options = CLI.check(experiment_options(&CLI.parse()));
    let data = prepare_data(&options);
    let fits = fit_all(&data.train, options.budget, options.seed);
    if fits.report_failures() == fits.runs.len() {
        CLI.fail("every surrogate model failed — nothing to compare");
    }
    let models: Vec<(&str, &tabular::Table)> = fits.successes().collect();

    let mut artifact = Fig4Artifact {
        numerical: BTreeMap::new(),
        categorical: BTreeMap::new(),
    };

    println!("== Fig. 4(a): numerical feature distributions ==");
    for feature in NUMERICAL {
        let gt = data.train.numerical(feature).expect("numerical feature");
        // Log-scale the two heavy-tailed features so the histogram is readable.
        let log_scale = feature == "workload" || feature == "inputfilebytes";
        let gt_values: Vec<f64> = if log_scale {
            gt.iter().map(|v| v.max(1e-9).ln()).collect()
        } else {
            gt.to_vec()
        };
        let min = gt_values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = gt_values.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 1e-9;

        let mut per_model = BTreeMap::new();
        per_model.insert(
            "GT".to_string(),
            histogram_with_range(&gt_values, BINS, min, max).pmf(),
        );
        println!(
            "\n[{feature}{}]",
            if log_scale { ", log scale" } else { "" }
        );
        println!("  {:<10} {}", "GT", sparkline(&per_model["GT"]));
        for (name, synthetic) in &models {
            let values = synthetic.numerical(feature).expect("numerical feature");
            let values: Vec<f64> = if log_scale {
                values.iter().map(|v| v.max(1e-9).ln()).collect()
            } else {
                values.to_vec()
            };
            let pmf = histogram_with_range(&values, BINS, min, max).pmf();
            let wd = wasserstein_1d_normalized(gt, synthetic.numerical(feature).unwrap())
                .expect("non-degenerate samples");
            println!("  {:<10} {}  (WD = {:.3})", name, sparkline(&pmf), wd);
            per_model.insert((*name).to_string(), pmf);
        }
        artifact.numerical.insert(feature.to_string(), per_model);
    }

    println!("\n== Fig. 4(b): categorical feature distributions (top {TOP_K}) ==");
    for feature in CATEGORICAL {
        let gt_top =
            top_k_frequencies(data.train.column(feature).expect("column"), TOP_K).expect("counts");
        let mut per_model = BTreeMap::new();
        println!("\n[{feature}]");
        print!("  {:<10}", "GT");
        for (label, freq) in &gt_top {
            print!("  {label}={freq:.3}");
        }
        println!();
        per_model.insert("GT".to_string(), gt_top.clone());
        for (name, synthetic) in &models {
            let jsd = column_jsd(&data.train, synthetic, feature);
            let top = top_k_frequencies(synthetic.column(feature).expect("column"), TOP_K)
                .unwrap_or_default();
            print!("  {:<10}", name);
            for (label, freq) in &top {
                print!("  {label}={freq:.3}");
            }
            println!("  (JSD = {jsd:.3})");
            per_model.insert((*name).to_string(), top);
        }
        artifact.categorical.insert(feature.to_string(), per_model);
    }

    CLI.maybe_write_json(options.output_json.as_deref(), &artifact);
}

/// Render a probability mass function as a unicode sparkline.
fn sparkline(pmf: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = pmf.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
    pmf.iter()
        .map(|&p| {
            let idx = ((p / max) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}
