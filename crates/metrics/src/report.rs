//! Aggregated Table-I-style evaluation of a synthetic table.

use serde::{Deserialize, Serialize};
use tabular::{Column, Table};

use crate::correlation::diff_corr;
use crate::dcr::{distance_to_closest_record, DcrConfig};
use crate::error::MetricError;
use crate::jsd::mean_jsd;
use crate::mlef::{mlef_mse, MlefBaseline, MlefConfig};
use crate::wasserstein::mean_wasserstein;

/// Configuration of the full surrogate evaluation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EvaluationConfig {
    /// DCR options.
    pub dcr: DcrConfig,
    /// MLEF options. Set to `None` to skip the (slow) MLEF probe.
    pub mlef: Option<MlefConfig>,
}

impl EvaluationConfig {
    /// Full paper configuration (all five metrics, paper probe settings).
    pub fn paper() -> Self {
        Self {
            dcr: DcrConfig::default(),
            mlef: Some(MlefConfig::default()),
        }
    }

    /// Fast configuration for tests and examples.
    pub fn fast() -> Self {
        Self {
            dcr: DcrConfig {
                max_synthetic_rows: 500,
                max_train_rows: 2_000,
            },
            mlef: Some(MlefConfig::fast()),
        }
    }

    /// Distribution-only metrics (WD, JSD, diff-CORR, DCR) without MLEF.
    pub fn without_mlef() -> Self {
        Self {
            dcr: DcrConfig::default(),
            mlef: None,
        }
    }
}

/// One row of the paper's Table I for a single surrogate model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateReport {
    /// Model name (e.g. "TabDDPM").
    pub model: String,
    /// Mean normalised Wasserstein distance over numerical features (↓).
    pub wd: f64,
    /// Mean Jensen–Shannon divergence over categorical features (↓).
    pub jsd: f64,
    /// Mean L2 difference between association matrices (↓).
    pub diff_corr: f64,
    /// Mean distance to the closest training record (↑ = better privacy).
    pub dcr: f64,
    /// MLEF(synthetic) − MLEF(train); `None` when the probe was skipped (↓).
    pub diff_mlef: Option<f64>,
}

impl SurrogateReport {
    /// Header matching the paper's Table I column order.
    pub fn table_header() -> String {
        format!(
            "{:<12} {:>8} {:>8} {:>10} {:>8} {:>10}",
            "Model", "WD↓", "JSD↓", "diff-CORR↓", "DCR↑", "diff-MLEF↓"
        )
    }

    /// Render this report as one row of Table I.
    pub fn table_row(&self) -> String {
        let mlef = self
            .diff_mlef
            .map_or_else(|| "   n/a".to_string(), |v| format!("{v:10.3}"));
        format!(
            "{:<12} {:>8.3} {:>8.3} {:>10.3} {:>8.3} {}",
            self.model, self.wd, self.jsd, self.diff_corr, self.dcr, mlef
        )
    }

    /// Header matching [`SurrogateReport::csv_row`], for sweep artifacts and
    /// spreadsheet-style exports.
    pub fn csv_header() -> &'static str {
        "model,wd,jsd,diff_corr,dcr,diff_mlef"
    }

    /// Render this report as one comma-separated row (full precision; the
    /// MLEF column is empty when the probe was skipped).
    pub fn csv_row(&self) -> String {
        let mlef = self.diff_mlef.map_or_else(String::new, |v| v.to_string());
        format!(
            "{},{},{},{},{},{}",
            self.model, self.wd, self.jsd, self.diff_corr, self.dcr, mlef
        )
    }
}

/// Element-wise mean of several reports — e.g. one model's rows across the
/// seed axis of a sweep. Returns `None` for an empty slice. The `diff_mlef`
/// mean is taken over the rows that carried one, or `None` if none did.
pub fn mean_report(model: &str, reports: &[SurrogateReport]) -> Option<SurrogateReport> {
    if reports.is_empty() {
        return None;
    }
    let n = reports.len() as f64;
    let mlef: Vec<f64> = reports.iter().filter_map(|r| r.diff_mlef).collect();
    Some(SurrogateReport {
        model: model.to_string(),
        wd: reports.iter().map(|r| r.wd).sum::<f64>() / n,
        jsd: reports.iter().map(|r| r.jsd).sum::<f64>() / n,
        diff_corr: reports.iter().map(|r| r.diff_corr).sum::<f64>() / n,
        dcr: reports.iter().map(|r| r.dcr).sum::<f64>() / n,
        diff_mlef: if mlef.is_empty() {
            None
        } else {
            Some(mlef.iter().sum::<f64>() / mlef.len() as f64)
        },
    })
}

/// Evaluate a synthetic table against the real train/test split, producing
/// one Table-I row: [`evaluate_against`] with a baseline of its own. Callers
/// that score several tables against one split should hold one
/// [`MlefBaseline`] and call [`evaluate_against`], so MLEF(train → test)
/// runs once.
pub fn evaluate_surrogate(
    model_name: &str,
    train: &Table,
    test: &Table,
    synthetic: &Table,
    config: &EvaluationConfig,
) -> Result<SurrogateReport, MetricError> {
    evaluate_against(
        model_name,
        train,
        test,
        synthetic,
        config,
        &MlefBaseline::default(),
    )
}

/// Evaluate a synthetic table against the real train/test split, taking
/// MLEF(train → test) from `baseline`, which must only ever be used with
/// this `train`, `test` and `config.mlef`. A degenerate synthetic table
/// (empty, too short, lacking a training column or its kind, or holding a
/// column the training table lacks) comes back as a typed [`MetricError`]
/// instead of a panic, so callers like the sweep runtime can confine the
/// failure to the cell that produced it.
pub fn evaluate_against(
    model_name: &str,
    train: &Table,
    test: &Table,
    synthetic: &Table,
    config: &EvaluationConfig,
    baseline: &MlefBaseline,
) -> Result<SurrogateReport, MetricError> {
    let wd = mean_wasserstein(train, synthetic)?;
    let jsd = mean_jsd(train, synthetic)?;
    check_scorable(train, synthetic)?;
    let corr = diff_corr(train, synthetic);
    let dcr = distance_to_closest_record(train, synthetic, config.dcr);
    let diff_mlef = config.mlef.as_ref().map(|mlef_config| {
        let base = baseline.mse(train, test, mlef_config);
        let synth = mlef_mse(synthetic, test, mlef_config);
        synth - base
    });
    Ok(SurrogateReport {
        model: model_name.to_string(),
        wd,
        jsd,
        diff_corr: corr,
        dcr,
        diff_mlef,
    })
}

/// What diff-CORR, DCR and MLEF assume of a synthetic table: every training
/// column, with the training column's kind, no column the training table
/// lacks (MLEF fits on the synthetic table's columns and then reads them
/// from the test table), the two rows a Pearson correlation needs, and a
/// label for every categorical code (DCR and MLEF match categories by
/// label). The code check comes last, so a table that fails an earlier
/// check reports that one.
fn check_scorable(train: &Table, synthetic: &Table) -> Result<(), MetricError> {
    for feature in train.schema().features() {
        let name = || feature.name.clone();
        match synthetic.column(&feature.name) {
            Err(_) => return Err(MetricError::MissingColumn { name: name() }),
            Ok(column) if column.kind() != feature.kind => {
                return Err(MetricError::ColumnKindMismatch { name: name() })
            }
            Ok(_) => {}
        }
    }
    if let Some(extra) = synthetic
        .schema()
        .features()
        .iter()
        .find(|feature| train.schema().index_of(&feature.name).is_err())
    {
        return Err(MetricError::ExtraColumn {
            name: extra.name.clone(),
        });
    }
    if synthetic.n_rows() < 2 {
        return Err(MetricError::TooFewRows {
            rows: synthetic.n_rows(),
        });
    }
    for name in train.schema().categorical_names() {
        if let Ok(Column::Categorical { codes, vocab }) = synthetic.column(name) {
            if let Some(row) = codes.iter().position(|&c| c as usize >= vocab.len()) {
                return Err(MetricError::CodeOutOfVocabulary {
                    name: name.to_string(),
                    row,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tabular::Column;

    fn toy(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = ["BNL", "CERN", "SLAC"];
        let mut labels = Vec::new();
        let mut workload = Vec::new();
        let mut nfiles = Vec::new();
        for _ in 0..n {
            let s = rng.gen_range(0..3);
            let f = rng.gen_range(1.0..50.0f64);
            labels.push(sites[s]);
            nfiles.push(f);
            workload.push((s as f64 + 1.0) * 10.0 * f * rng.gen_range(0.8..1.2));
        }
        let mut t = Table::new();
        t.push_column("computingsite", Column::from_labels(&labels))
            .unwrap();
        t.push_column("ninputdatafiles", Column::Numerical(nfiles))
            .unwrap();
        t.push_column("workload", Column::Numerical(workload))
            .unwrap();
        t
    }

    #[test]
    fn perfect_copy_scores_perfectly_except_privacy() {
        let train = toy(400, 1);
        let test = toy(150, 2);
        let report =
            evaluate_surrogate("copy", &train, &test, &train, &EvaluationConfig::fast()).unwrap();
        assert!(report.wd < 1e-9);
        assert!(report.jsd < 1e-9);
        assert!(report.diff_corr < 1e-9);
        assert!(report.dcr < 1e-9, "copying training rows has no privacy");
        assert!(report.diff_mlef.unwrap().abs() < 1e-9);
    }

    #[test]
    fn independent_resample_beats_noise_on_fidelity() {
        let train = toy(400, 3);
        let test = toy(150, 4);
        // A fresh draw from the same process (good surrogate).
        let fresh = toy(400, 5);
        // Pure noise: shuffle workload against the rest (bad surrogate).
        let mut noise = fresh.clone();
        if let Column::Numerical(v) = noise.column_mut("workload").unwrap() {
            v.reverse();
        }
        let cfg = EvaluationConfig::fast();
        let good = evaluate_surrogate("fresh", &train, &test, &fresh, &cfg).unwrap();
        let bad = evaluate_surrogate("noise", &train, &test, &noise, &cfg).unwrap();
        assert!(good.diff_corr < bad.diff_corr);
        assert!(good.diff_mlef.unwrap() < bad.diff_mlef.unwrap());
        // The fresh draw does not copy training rows.
        assert!(good.dcr > 1e-3);
    }

    #[test]
    fn report_rendering_contains_all_columns() {
        let header = SurrogateReport::table_header();
        assert!(header.contains("WD"));
        assert!(header.contains("diff-MLEF"));
        let report = SurrogateReport {
            model: "TVAE".to_string(),
            wd: 0.961,
            jsd: 0.806,
            diff_corr: 0.653,
            dcr: 0.143,
            diff_mlef: Some(5.875),
        };
        let row = report.table_row();
        assert!(row.contains("TVAE"));
        assert!(row.contains("0.961"));
        assert!(row.contains("5.875"));
        let no_mlef = SurrogateReport {
            diff_mlef: None,
            ..report
        };
        assert!(no_mlef.table_row().contains("n/a"));
    }

    #[test]
    fn csv_row_matches_header_shape_and_mean_aggregates() {
        let a = SurrogateReport {
            model: "TabDDPM".to_string(),
            wd: 0.2,
            jsd: 0.1,
            diff_corr: 0.4,
            dcr: 0.6,
            diff_mlef: Some(1.0),
        };
        let b = SurrogateReport {
            wd: 0.4,
            diff_mlef: None,
            ..a.clone()
        };
        let columns = SurrogateReport::csv_header().split(',').count();
        assert_eq!(a.csv_row().split(',').count(), columns);
        // The skipped MLEF probe leaves an empty trailing cell.
        assert!(b.csv_row().ends_with(','));
        assert_eq!(b.csv_row().split(',').count(), columns);

        let mean = mean_report("TabDDPM", &[a.clone(), b]).unwrap();
        assert!((mean.wd - 0.3).abs() < 1e-12);
        assert!((mean.jsd - 0.1).abs() < 1e-12);
        // Only one row carried an MLEF value; the mean is over that one.
        assert_eq!(mean.diff_mlef, Some(1.0));
        assert!(mean_report("empty", &[]).is_none());
    }

    #[test]
    fn without_mlef_skips_probe() {
        let train = toy(200, 6);
        let test = toy(80, 7);
        let report = evaluate_surrogate(
            "copy",
            &train,
            &test,
            &train,
            &EvaluationConfig::without_mlef(),
        )
        .unwrap();
        assert!(report.diff_mlef.is_none());
    }

    #[test]
    fn shared_baseline_matches_one_shot_evaluation() {
        let train = toy(300, 10);
        let test = toy(100, 11);
        let cfg = EvaluationConfig::fast();
        let baseline = MlefBaseline::default();
        for seed in [12, 13] {
            let synthetic = toy(300, seed);
            let shared = evaluate_against("m", &train, &test, &synthetic, &cfg, &baseline).unwrap();
            let one_shot = evaluate_surrogate("m", &train, &test, &synthetic, &cfg).unwrap();
            assert_eq!(shared, one_shot);
        }
    }

    #[test]
    fn one_row_synthetic_table_yields_typed_error() {
        let train = toy(100, 14);
        let test = toy(40, 15);
        let one_row = toy(1, 16);
        let error = evaluate_surrogate("one", &train, &test, &one_row, &EvaluationConfig::fast())
            .unwrap_err();
        assert_eq!(error, MetricError::TooFewRows { rows: 1 });
    }

    #[test]
    fn missing_training_column_yields_typed_error() {
        let train = toy(100, 17);
        let test = toy(40, 18);
        let partial = toy(100, 19).select(&["computingsite", "workload"]).unwrap();
        let error = evaluate_surrogate(
            "partial",
            &train,
            &test,
            &partial,
            &EvaluationConfig::fast(),
        )
        .unwrap_err();
        assert_eq!(
            error,
            MetricError::MissingColumn {
                name: "ninputdatafiles".to_string()
            }
        );
        assert!(error.to_string().contains("'ninputdatafiles'"));
    }

    #[test]
    fn extra_synthetic_column_yields_typed_error() {
        let train = toy(100, 27);
        let test = toy(40, 28);
        let cfg = EvaluationConfig::fast();
        // MLEF would fit on the synthetic table's columns and then find the
        // extra one missing from the test table; the check names it first,
        // whichever kind it is.
        for (name, extra) in [
            ("cpu_hours", Column::Numerical(vec![1.5; 100])),
            ("queue", Column::from_labels(&vec!["short"; 100])),
        ] {
            let mut wider = toy(100, 29);
            wider.push_column(name, extra).unwrap();
            let error = evaluate_surrogate("wider", &train, &test, &wider, &cfg).unwrap_err();
            assert_eq!(
                error,
                MetricError::ExtraColumn {
                    name: name.to_string()
                }
            );
            assert!(error.to_string().contains(&format!("'{name}'")), "{error}");
        }
    }

    #[test]
    fn column_of_the_wrong_kind_yields_typed_error() {
        let train = toy(100, 20);
        let test = toy(40, 21);
        let cfg = EvaluationConfig::fast();
        // A numerical training column arrives categorical: WD and JSD skip
        // it, and the check names it before DCR or MLEF read it.
        let mut relabelled = toy(100, 22);
        *relabelled.column_mut("ninputdatafiles").unwrap() =
            Column::from_labels(&vec!["many"; 100]);
        assert_eq!(
            evaluate_surrogate("relabelled", &train, &test, &relabelled, &cfg),
            Err(MetricError::ColumnKindMismatch {
                name: "ninputdatafiles".to_string()
            })
        );
        // A categorical training column arrives numerical: it is not shared,
        // so JSD (whose only column it was) rejects the table first.
        let mut numbered = toy(100, 23);
        *numbered.column_mut("computingsite").unwrap() = Column::Numerical(vec![1.0; 100]);
        assert_eq!(
            evaluate_surrogate("numbered", &train, &test, &numbered, &cfg),
            Err(MetricError::NoSharedCategoricalColumns)
        );
    }

    #[test]
    fn code_outside_the_vocabulary_yields_typed_error() {
        let train = toy(100, 24);
        let test = toy(40, 25);
        let mut bad = toy(100, 26);
        if let Column::Categorical { codes, vocab } = bad.column_mut("computingsite").unwrap() {
            codes[7] = vocab.len() as u32;
        }
        let error =
            evaluate_surrogate("bad", &train, &test, &bad, &EvaluationConfig::fast()).unwrap_err();
        assert_eq!(
            error,
            MetricError::CodeOutOfVocabulary {
                name: "computingsite".to_string(),
                row: 7
            }
        );
        assert!(error.to_string().contains("'computingsite'"));
        // Earlier checks keep their precedence: a missing column is named
        // first.
        let partial = bad.select(&["computingsite", "workload"]).unwrap();
        assert_eq!(
            evaluate_surrogate(
                "partial",
                &train,
                &test,
                &partial,
                &EvaluationConfig::fast()
            ),
            Err(MetricError::MissingColumn {
                name: "ninputdatafiles".to_string()
            })
        );
    }

    #[test]
    fn empty_synthetic_table_yields_typed_error() {
        let train = toy(100, 8);
        let test = toy(40, 9);
        let empty = Table::new();
        assert_eq!(
            evaluate_surrogate(
                "empty",
                &train,
                &test,
                &empty,
                &EvaluationConfig::without_mlef()
            ),
            Err(MetricError::NoSharedNumericalColumns)
        );
    }
}
