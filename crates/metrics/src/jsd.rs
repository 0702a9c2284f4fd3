//! Jensen–Shannon divergence between categorical distributions.

use std::collections::BTreeMap;

use tabular::{Column, Table};

use crate::error::MetricError;

/// Jensen–Shannon divergence (natural log, so bounded by ln 2) between two
/// discrete distributions given as `(label, probability)` maps. Labels absent
/// from one distribution are treated as probability zero.
pub fn jensen_shannon_divergence(p: &BTreeMap<String, f64>, q: &BTreeMap<String, f64>) -> f64 {
    let mut labels: Vec<&String> = p.keys().chain(q.keys()).collect();
    labels.sort();
    labels.dedup();
    let mut jsd = 0.0;
    for label in labels {
        let pi = p.get(label).copied().unwrap_or(0.0);
        let qi = q.get(label).copied().unwrap_or(0.0);
        let mi = 0.5 * (pi + qi);
        if pi > 0.0 {
            jsd += 0.5 * pi * (pi / mi).ln();
        }
        if qi > 0.0 {
            jsd += 0.5 * qi * (qi / mi).ln();
        }
    }
    jsd.max(0.0)
}

/// Normalised frequency map of a categorical column keyed by label.
fn distribution(column: &Column) -> BTreeMap<String, f64> {
    let codes = column.as_codes().expect("categorical column");
    let vocab = column.vocab().expect("categorical column");
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for &c in codes {
        if let Some(label) = vocab.get(c as usize) {
            *counts.entry(label.clone()).or_insert(0.0) += 1.0;
        }
    }
    let total: f64 = counts.values().sum();
    if total > 0.0 {
        for v in counts.values_mut() {
            *v /= total;
        }
    }
    counts
}

/// JSD between the same-named categorical column of two tables.
pub fn column_jsd(real: &Table, synthetic: &Table, name: &str) -> f64 {
    let a = distribution(real.column(name).expect("column exists in real table"));
    let b = distribution(
        synthetic
            .column(name)
            .expect("column exists in synthetic table"),
    );
    jensen_shannon_divergence(&a, &b)
}

/// Mean JSD across all categorical columns shared by the two tables — the
/// "JSD" column of the paper's Table I. A synthetic column of the same name
/// that is numerical is not shared. Degenerate table pairs (no categorical
/// columns, or none shared) come back as a typed [`MetricError`] instead of
/// a panic.
pub fn mean_jsd(real: &Table, synthetic: &Table) -> Result<f64, MetricError> {
    let schema = real.schema();
    let cats = schema.categorical_names();
    if cats.is_empty() {
        return Err(MetricError::NoCategoricalColumns);
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for name in cats {
        if synthetic.codes(name).is_ok() {
            total += column_jsd(real, synthetic, name);
            count += 1;
        }
    }
    if count == 0 {
        return Err(MetricError::NoSharedCategoricalColumns);
    }
    Ok(total / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn identical_distributions_have_zero_jsd() {
        let p = dist(&[("a", 0.5), ("b", 0.5)]);
        assert!(jensen_shannon_divergence(&p, &p) < 1e-12);
    }

    #[test]
    fn disjoint_distributions_reach_ln2() {
        let p = dist(&[("a", 1.0)]);
        let q = dist(&[("b", 1.0)]);
        assert!((jensen_shannon_divergence(&p, &q) - 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn jsd_is_symmetric_and_bounded() {
        let p = dist(&[("a", 0.7), ("b", 0.2), ("c", 0.1)]);
        let q = dist(&[("a", 0.1), ("b", 0.3), ("d", 0.6)]);
        let pq = jensen_shannon_divergence(&p, &q);
        let qp = jensen_shannon_divergence(&q, &p);
        assert!((pq - qp).abs() < 1e-12);
        assert!(pq > 0.0 && pq <= 2f64.ln() + 1e-12);
    }

    #[test]
    fn closer_distributions_have_smaller_jsd() {
        let p = dist(&[("a", 0.5), ("b", 0.5)]);
        let close = dist(&[("a", 0.55), ("b", 0.45)]);
        let far = dist(&[("a", 0.95), ("b", 0.05)]);
        assert!(jensen_shannon_divergence(&p, &close) < jensen_shannon_divergence(&p, &far));
    }

    #[test]
    fn table_level_jsd() {
        let mut real = Table::new();
        real.push_column("s", Column::from_labels(&["x", "x", "y", "z"]))
            .unwrap();
        let synthetic_same = real.clone();
        assert!(mean_jsd(&real, &synthetic_same).unwrap() < 1e-12);

        let mut skewed = Table::new();
        skewed
            .push_column("s", Column::from_labels(&["x", "x", "x", "x"]))
            .unwrap();
        assert!(mean_jsd(&real, &skewed).unwrap() > 0.05);
    }

    #[test]
    fn unseen_labels_in_synthetic_are_penalised() {
        let mut real = Table::new();
        real.push_column("s", Column::from_labels(&["a", "a", "b"]))
            .unwrap();
        let mut synthetic = Table::new();
        synthetic
            .push_column("s", Column::from_labels(&["a", "weird", "weird"]))
            .unwrap();
        assert!(mean_jsd(&real, &synthetic).unwrap() > 0.2);
    }

    #[test]
    fn degenerate_tables_yield_typed_errors() {
        let mut numeric_only = Table::new();
        numeric_only
            .push_column("x", Column::Numerical(vec![1.0, 2.0]))
            .unwrap();
        assert_eq!(
            mean_jsd(&numeric_only, &numeric_only),
            Err(MetricError::NoCategoricalColumns)
        );

        let mut real = Table::new();
        real.push_column("s", Column::from_labels(&["a", "b"]))
            .unwrap();
        let mut disjoint = Table::new();
        disjoint
            .push_column("t", Column::from_labels(&["a", "b"]))
            .unwrap();
        assert_eq!(
            mean_jsd(&real, &disjoint),
            Err(MetricError::NoSharedCategoricalColumns)
        );
    }
}
