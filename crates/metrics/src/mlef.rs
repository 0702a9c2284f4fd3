//! Machine-learning efficacy (MLEF).
//!
//! A gradient-boosted regressor (the CatBoost substitute from the `gbdt`
//! crate) is trained to predict the natural log of the `workload` column from
//! all remaining features, once on the real training table and once on each
//! synthetic table, and every model is scored on the same real test table.
//! MLEF is the test MSE; the paper reports `diff-MLEF = MLEF_synthetic −
//! MLEF_train`, which is near zero when the synthetic data carry as much
//! signal about the workload as the real data.
//!
//! MLEF(train → test) is the same for every synthetic table scored against
//! one split, so the evaluation path ([`crate::evaluate_against`]) takes it
//! from an [`MlefBaseline`] that computes it once per dataset: Table I and
//! the example comparison hold one for their four models, and a sweep holds
//! one per prepared `(seed, variant)` dataset.

use std::sync::OnceLock;

use gbdt::{FeatureMatrix, Gbdt, GbdtConfig, TargetEncoder};
use serde::{Deserialize, Serialize};
use tabular::{FeatureKind, Table};

/// Configuration of the MLEF probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlefConfig {
    /// Name of the numerical target column (the paper predicts `workload`).
    pub target: String,
    /// Natural-log-transform the target before regression (the paper does, to
    /// avoid scale-dependent instability).
    pub log_target: bool,
    /// Regressor hyper-parameters.
    pub gbdt: GbdtConfig,
    /// Smoothing pseudo-count for the categorical target encoding.
    pub target_encoding_prior_weight: f64,
}

impl Default for MlefConfig {
    fn default() -> Self {
        Self {
            target: "workload".to_string(),
            log_target: true,
            gbdt: GbdtConfig::paper_mlef(),
            target_encoding_prior_weight: 10.0,
        }
    }
}

impl MlefConfig {
    /// A configuration with a small, fast regressor for tests.
    pub fn fast() -> Self {
        Self {
            gbdt: GbdtConfig::fast(),
            ..Default::default()
        }
    }
}

fn transform_target(values: &[f64], log: bool) -> Vec<f64> {
    if log {
        values.iter().map(|v| v.max(1e-9).ln()).collect()
    } else {
        values.to_vec()
    }
}

/// Build the design matrix for a table: numerical columns pass through,
/// categorical columns are target-encoded using statistics fitted on the
/// *fitting* table (so train and test share the same encoding).
struct Design {
    numeric_names: Vec<String>,
    cat_names: Vec<String>,
    encoders: Vec<TargetEncoder>,
}

impl Design {
    /// Fit on the feature columns of `table` that `test` also holds with the
    /// same kind; the probe could not be scored on any other column.
    fn fit(table: &Table, test: &Table, target: &str, targets: &[f64], prior_weight: f64) -> Self {
        let schema = table.schema();
        let in_test = |name: &str, kind| test.column(name).is_ok_and(|c| c.kind() == kind);
        let numeric_names: Vec<String> = schema
            .numerical_names()
            .into_iter()
            .filter(|n| *n != target && in_test(n, FeatureKind::Numerical))
            .map(str::to_string)
            .collect();
        let cat_names: Vec<String> = schema
            .categorical_names()
            .into_iter()
            .filter(|n| in_test(n, FeatureKind::Categorical))
            .map(str::to_string)
            .collect();
        let encoders = cat_names
            .iter()
            .map(|name| {
                // Codes outside the vocabulary share the one slot past it, so
                // a corrupt code cannot size the encoder; `encode` maps them
                // to the prior.
                let cardinality = table.vocab(name).expect("categorical column").len() as u32;
                let codes: Vec<u32> = table
                    .codes(name)
                    .expect("categorical column")
                    .iter()
                    .map(|&c| c.min(cardinality))
                    .collect();
                TargetEncoder::fit(&codes, targets, prior_weight)
            })
            .collect();
        Self {
            numeric_names,
            cat_names,
            encoders,
        }
    }

    /// Encode a table (train or test) into a feature matrix. Categorical
    /// codes are matched by label against the fitting table's vocabulary; a
    /// label the fitting table lacks, or a code outside `table`'s own
    /// vocabulary, is unseen and encodes to the prior.
    fn encode(&self, table: &Table, reference: &Table) -> FeatureMatrix {
        let n = table.n_rows();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for name in &self.numeric_names {
            columns.push(table.numerical(name).expect("numeric column").to_vec());
        }
        for (name, encoder) in self.cat_names.iter().zip(&self.encoders) {
            let ref_vocab = reference.vocab(name).expect("categorical column");
            let remap: Vec<u32> = table
                .vocab(name)
                .expect("categorical column")
                .iter()
                .map(|label| {
                    ref_vocab
                        .iter()
                        .position(|v| v == label)
                        .map_or(u32::MAX, |i| i as u32)
                })
                .collect();
            let codes: Vec<u32> = table
                .codes(name)
                .expect("categorical column")
                .iter()
                .map(|&c| remap.get(c as usize).copied().unwrap_or(u32::MAX))
                .collect();
            columns.push(encoder.encode(&codes));
        }
        let n_features = columns.len();
        let mut values = vec![0.0; n * n_features];
        for (f, col) in columns.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                values[r * n_features + f] = v;
            }
        }
        FeatureMatrix::new(n, n_features, values)
    }
}

/// Train the probe regressor on `fit_table` and return its MSE on
/// `test_table` (both must contain the target column). The features are the
/// columns of `fit_table` that `test_table` holds with the same kind.
pub fn mlef_mse(fit_table: &Table, test_table: &Table, config: &MlefConfig) -> f64 {
    let fit_target_raw = fit_table
        .numerical(&config.target)
        .expect("target column present in fit table");
    let test_target_raw = test_table
        .numerical(&config.target)
        .expect("target column present in test table");
    let fit_targets = transform_target(fit_target_raw, config.log_target);
    let test_targets = transform_target(test_target_raw, config.log_target);

    let design = Design::fit(
        fit_table,
        test_table,
        &config.target,
        &fit_targets,
        config.target_encoding_prior_weight,
    );
    let x_fit = design.encode(fit_table, fit_table);
    let x_test = design.encode(test_table, fit_table);

    let model = Gbdt::fit(&x_fit, &fit_targets, config.gbdt);
    let predictions = model.predict(&x_test);
    gbdt::mse(&predictions, &test_targets)
}

/// MLEF(train → test) for one train/test split under one [`MlefConfig`],
/// computed on first use and shared by every synthetic table scored against
/// that split. A baseline belongs to the split and config it was first used
/// with: hold one per prepared dataset.
#[derive(Debug, Default)]
pub struct MlefBaseline(OnceLock<f64>);

impl MlefBaseline {
    /// MLEF(train → test): fitted on the first call, reused after it. A
    /// first call that panics leaves the baseline unset, so the next caller
    /// runs (and fails) the same fit.
    pub fn mse(&self, train: &Table, test: &Table, config: &MlefConfig) -> f64 {
        *self.0.get_or_init(|| mlef_mse(train, test, config))
    }
}

/// `diff-MLEF` of a synthetic table: MLEF(synthetic → test) − MLEF(train → test).
pub fn diff_mlef(train: &Table, test: &Table, synthetic: &Table, config: &MlefConfig) -> f64 {
    let base = mlef_mse(train, test, config);
    let synth = mlef_mse(synthetic, test, config);
    synth - base
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tabular::Column;

    /// Synthetic mixed table where workload is a deterministic function of
    /// the other columns plus noise.
    fn toy_table(n: usize, seed: u64, shuffle_target: bool) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = ["BNL", "CERN", "SLAC"];
        let mut site_labels = Vec::with_capacity(n);
        let mut nfiles = Vec::with_capacity(n);
        let mut workload = Vec::with_capacity(n);
        for _ in 0..n {
            let site = rng.gen_range(0..3);
            let files = rng.gen_range(1.0..100.0f64);
            let base = match site {
                0 => 50.0,
                1 => 20.0,
                _ => 5.0,
            };
            let w = base * files * rng.gen_range(0.9..1.1);
            site_labels.push(sites[site]);
            nfiles.push(files);
            workload.push(w);
        }
        if shuffle_target {
            // Destroy the relationship between features and target.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                workload.swap(i, j);
            }
        }
        let mut t = Table::new();
        t.push_column("computingsite", Column::from_labels(&site_labels))
            .unwrap();
        t.push_column("ninputdatafiles", Column::Numerical(nfiles))
            .unwrap();
        t.push_column("workload", Column::Numerical(workload))
            .unwrap();
        t
    }

    #[test]
    fn informative_features_give_low_mse() {
        let train = toy_table(600, 1, false);
        let test = toy_table(200, 2, false);
        let mse = mlef_mse(&train, &test, &MlefConfig::fast());
        // Target spans ~ln(5..5000); an informative model should be well
        // under the target variance.
        let targets: Vec<f64> = test
            .numerical("workload")
            .unwrap()
            .iter()
            .map(|v| v.ln())
            .collect();
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;
        let var = targets.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / targets.len() as f64;
        assert!(mse < var * 0.3, "mse {mse} vs var {var}");
    }

    #[test]
    fn shuffled_synthetic_data_has_positive_diff_mlef() {
        let train = toy_table(600, 3, false);
        let test = toy_table(200, 4, false);
        let garbage = toy_table(600, 5, true);
        let diff = diff_mlef(&train, &test, &garbage, &MlefConfig::fast());
        assert!(diff > 0.1, "diff = {diff}");
    }

    #[test]
    fn training_data_itself_has_zero_diff_mlef() {
        let train = toy_table(400, 6, false);
        let test = toy_table(150, 7, false);
        let diff = diff_mlef(&train, &test, &train, &MlefConfig::fast());
        assert!(diff.abs() < 1e-12);
    }

    /// `table` with row 0 of `computingsite` set to `code`, after appending
    /// `label` (if any) to the column's vocabulary.
    fn with_site_code(table: &Table, code: u32, label: Option<&str>) -> Table {
        let mut table = table.clone();
        let Column::Categorical { codes, vocab } = table.column_mut("computingsite").unwrap()
        else {
            unreachable!("computingsite is categorical");
        };
        vocab.extend(label.map(str::to_string));
        codes[0] = code;
        table
    }

    #[test]
    fn extra_columns_and_out_of_vocabulary_codes_are_scored() {
        let config = MlefConfig::fast();
        let train = toy_table(400, 10, false);
        let test = toy_table(150, 11, false);
        let baseline = mlef_mse(&train, &test, &config);

        // Columns the test table lacks, or holds with another kind, are left
        // out of the design, so the probe is the baseline's bit for bit.
        let mut extra = train.clone();
        extra
            .push_column("cpu", Column::Numerical(vec![2.0; 400]))
            .unwrap();
        extra
            .push_column("queue", Column::from_labels(&["short"; 400]))
            .unwrap();
        extra
            .push_column("mixed", Column::from_labels(&["a"; 400]))
            .unwrap();
        let mut test_mixed = test.clone();
        test_mixed
            .push_column("mixed", Column::Numerical(vec![1.0; 150]))
            .unwrap();
        let probe = mlef_mse(&extra, &test_mixed, &config);
        assert_eq!(probe.to_bits(), baseline.to_bits(), "{probe} vs {baseline}");

        // A test code outside the vocabulary encodes as unseen, exactly like
        // a label the fitting table never saw.
        let n_sites = test.vocab("computingsite").unwrap().len() as u32;
        let out_of_vocab = mlef_mse(&train, &with_site_code(&test, n_sites + 4, None), &config);
        let unseen = mlef_mse(
            &train,
            &with_site_code(&test, n_sites, Some("NOWHERE")),
            &config,
        );
        assert_eq!(out_of_vocab.to_bits(), unseen.to_bits());
        // One in the fitting table is scored too.
        let fit_out_of_vocab = mlef_mse(&with_site_code(&train, n_sites + 4, None), &test, &config);
        assert!(fit_out_of_vocab.is_finite(), "{fit_out_of_vocab}");
    }

    #[test]
    fn log_transform_is_applied() {
        let train = toy_table(300, 8, false);
        let test = toy_table(100, 9, false);
        let with_log = mlef_mse(&train, &test, &MlefConfig::fast());
        let without_log = mlef_mse(
            &train,
            &test,
            &MlefConfig {
                log_target: false,
                ..MlefConfig::fast()
            },
        );
        // Raw workloads are in the hundreds-to-thousands range so the raw-MSE
        // is orders of magnitude larger than the log-MSE.
        assert!(without_log > with_log * 100.0);
    }
}
