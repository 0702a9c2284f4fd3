//! Distance to Closest Record (DCR) — the paper's privacy proxy.
//!
//! For every synthetic row we find the nearest training row under a mixed
//! metric (squared difference of min-max-normalised numerical features plus a
//! 0/1 mismatch indicator per categorical feature) and average those nearest
//! distances. A *small* DCR means synthetic rows sit on top of real rows —
//! good fidelity, bad privacy; the paper reports DCR with ↑ "higher is
//! better" because it reads the column as privacy risk.
//!
//! The search is [`crate::neighbors`] with `k = 1`. Its distance is the
//! ordered sum this metric defines — the numerical terms in schema order,
//! then `1.0` per mismatched categorical column — and it keeps the minimum
//! by `(distance, row)`, never a NaN. Its bound (one per mismatched column)
//! never exceeds that sum, so the value is the minimum a full scan with a
//! strict `<` finds, bit for bit.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tabular::Table;

use crate::neighbors::{MixedRows, NeighborIndex, Term};

/// Options for the DCR computation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DcrConfig {
    /// Cap on the number of synthetic rows scored (subsampled evenly if the
    /// table is larger); keeps the O(n·m) scan tractable on big tables.
    pub max_synthetic_rows: usize,
    /// Cap on the number of training rows scanned against.
    pub max_train_rows: usize,
}

impl Default for DcrConfig {
    fn default() -> Self {
        Self {
            max_synthetic_rows: 2_000,
            max_train_rows: 20_000,
        }
    }
}

fn subsample_indices(n: usize, cap: usize) -> Vec<usize> {
    if n <= cap {
        (0..n).collect()
    } else {
        // Deterministic even subsample.
        (0..cap).map(|i| i * n / cap).collect()
    }
}

/// Row `row` of `columns`, each min-max normalised by its `(min, span)`.
fn normalised<'a>(
    columns: &'a [&[f64]],
    scales: &'a [(f64, f64)],
    row: usize,
) -> impl Iterator<Item = f64> + 'a {
    columns
        .iter()
        .zip(scales)
        .map(move |(column, &(min, span))| (column[row] - min) / span)
}

/// Mean distance from each synthetic row to its closest training record.
///
/// Numerical columns are min-max normalised with the training table's
/// finite range. Categorical vocabularies are compared by *label*:
/// synthetic codes are remapped onto the training vocabulary first so a
/// synthetic "BNL_PROD" matches a training "BNL_PROD" even if their integer
/// codes differ, and a label unseen in training, like a synthetic code
/// outside its own vocabulary, matches no training row.
///
/// # Panics
/// If either table is empty, or the synthetic table lacks a training
/// column or has it with another kind ([`crate::evaluate_against`] checks
/// all of these first).
pub fn distance_to_closest_record(train: &Table, synthetic: &Table, config: DcrConfig) -> f64 {
    assert!(train.n_rows() > 0, "empty training table");
    assert!(synthetic.n_rows() > 0, "empty synthetic table");
    let schema = train.schema();
    let numeric_names = schema.numerical_names();
    let cat_names = schema.categorical_names();
    let train_numeric: Vec<&[f64]> = numeric_names
        .iter()
        .map(|name| train.numerical(name).expect("numeric column present"))
        .collect();
    // Training-set min/max per numerical column, as an offset and a span.
    let scales: Vec<(f64, f64)> = train_numeric
        .iter()
        .map(|v| {
            let min = v
                .iter()
                .copied()
                .filter(|x| x.is_finite())
                .fold(f64::INFINITY, f64::min);
            let max = v
                .iter()
                .copied()
                .filter(|x| x.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
            let span = if (max - min).abs() < 1e-300 {
                1.0
            } else {
                max - min
            };
            (min, span)
        })
        .collect();
    let synthetic_numeric: Vec<&[f64]> = numeric_names
        .iter()
        .map(|name| {
            synthetic
                .numerical(name)
                .expect("synthetic table must contain the training columns")
        })
        .collect();
    let train_codes: Vec<&[u32]> = cat_names
        .iter()
        .map(|name| train.codes(name).expect("categorical column present"))
        .collect();
    // Each synthetic code's training code, by label; `u32::MAX` (no training
    // code) for a label unseen in training and, below, for a code outside
    // the synthetic vocabulary.
    let synthetic_codes: Vec<(&[u32], Vec<u32>)> = cat_names
        .iter()
        .map(|name| {
            let train_vocab = train.vocab(name).expect("categorical column present");
            let to_train = synthetic
                .vocab(name)
                .expect("synthetic table must contain the training columns")
                .iter()
                .map(|label| {
                    train_vocab
                        .iter()
                        .position(|v| v == label)
                        .map_or(u32::MAX, |i| i as u32)
                })
                .collect();
            (synthetic.codes(name).expect("categorical column"), to_train)
        })
        .collect();

    let terms: Vec<Term> = numeric_names
        .iter()
        .map(|_| Term::Numeric)
        .chain(cat_names.iter().map(|_| Term::Categorical))
        .collect();
    let mut reference = MixedRows::new(terms.clone(), 1);
    for t in subsample_indices(train.n_rows(), config.max_train_rows) {
        reference.push_row(
            normalised(&train_numeric, &scales, t),
            train_codes.iter().map(|codes| codes[t]),
        );
    }
    let mut queries = MixedRows::new(terms, 1);
    for s in subsample_indices(synthetic.n_rows(), config.max_synthetic_rows) {
        queries.push_row(
            normalised(&synthetic_numeric, &scales, s),
            synthetic_codes.iter().map(|(codes, to_train)| {
                to_train.get(codes[s] as usize).copied().unwrap_or(u32::MAX)
            }),
        );
    }

    let index = NeighborIndex::new(&reference);
    let total: f64 = (0..queries.len())
        .into_par_iter()
        .map(|q| {
            let nearest = index.nearest(&queries, q, 1, None);
            nearest.first().map_or(f64::INFINITY, |&(d, _)| d).sqrt()
        })
        .sum();

    total / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn table(values: &[f64], labels: &[&str]) -> Table {
        let mut t = Table::new();
        t.push_column("x", Column::Numerical(values.to_vec()))
            .unwrap();
        t.push_column("s", Column::from_labels(labels)).unwrap();
        t
    }

    #[test]
    fn copying_training_data_gives_zero_dcr() {
        let train = table(&[0.0, 1.0, 2.0, 3.0], &["a", "b", "a", "b"]);
        let dcr = distance_to_closest_record(&train, &train, DcrConfig::default());
        assert!(dcr < 1e-12);
    }

    #[test]
    fn far_synthetic_rows_give_large_dcr() {
        let train = table(&[0.0, 1.0, 2.0, 3.0], &["a", "b", "a", "b"]);
        let synthetic = table(&[30.0, 40.0], &["zzz", "zzz"]);
        let dcr = distance_to_closest_record(&train, &synthetic, DcrConfig::default());
        // Numerical distance is normalised by the training range (3), plus a
        // categorical mismatch of 1 per row.
        assert!(dcr > 3.0, "dcr = {dcr}");
    }

    #[test]
    fn interpolated_rows_sit_between() {
        let train = table(&[0.0, 10.0], &["a", "a"]);
        let near = table(&[0.1], &["a"]);
        let mid = table(&[5.0], &["a"]);
        let d_near = distance_to_closest_record(&train, &near, DcrConfig::default());
        let d_mid = distance_to_closest_record(&train, &mid, DcrConfig::default());
        assert!(d_near < d_mid);
        assert!(d_mid <= 0.5 + 1e-9);
    }

    #[test]
    fn label_alignment_is_by_name_not_code() {
        // Same labels but different vocabulary order: codes differ yet the
        // rows are identical, so DCR must be ~0.
        let train = table(&[1.0, 2.0], &["a", "b"]);
        let synthetic = table(&[2.0, 1.0], &["b", "a"]);
        let dcr = distance_to_closest_record(&train, &synthetic, DcrConfig::default());
        assert!(dcr < 1e-12, "dcr = {dcr}");
    }

    #[test]
    fn out_of_vocabulary_codes_match_no_training_row() {
        // A synthetic code at or past its vocabulary's end scores like a
        // label training never saw.
        let train = table(&[0.0, 1.0, 2.0, 3.0], &["a", "b", "a", "b"]);
        let unseen = table(&[1.0, 2.0], &["a", "zzz"]);
        let want = distance_to_closest_record(&train, &unseen, DcrConfig::default());
        for code in [2, 7, u32::MAX] {
            let mut synthetic = table(&[1.0, 2.0], &["a", "b"]);
            let Column::Categorical { codes, .. } = synthetic.column_mut("s").unwrap() else {
                unreachable!("s is categorical");
            };
            codes[1] = code;
            let got = distance_to_closest_record(&train, &synthetic, DcrConfig::default());
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "code {code}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn subsampling_keeps_result_finite() {
        let n = 500;
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let train = table(&values, &labels);
        let config = DcrConfig {
            max_synthetic_rows: 50,
            max_train_rows: 100,
        };
        let dcr = distance_to_closest_record(&train, &train, config);
        assert!(dcr.is_finite());
    }
}
