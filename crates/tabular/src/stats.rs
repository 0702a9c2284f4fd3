//! Column statistics: histograms, value counts and summaries.
//!
//! These feed the Fig. 3(a) dataset profile, the Fig. 4 per-feature
//! distribution plots, and the metric kernels in the `metrics` crate.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::TabularError;
use crate::table::{Column, Table};

/// A fixed-width histogram over a numerical column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub min: f64,
    /// Right edge of the last bin.
    pub max: f64,
    /// Raw bin counts.
    pub counts: Vec<u64>,
    /// Total number of finite samples binned.
    pub total: u64,
}

impl Histogram {
    /// Counts normalised to a probability mass function (sums to 1 when any
    /// samples were binned).
    pub fn pmf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

/// Compute a histogram of `values` with `bins` bins over an explicit range.
///
/// Values outside the range are clamped into the first/last bin; non-finite
/// values are ignored.
pub fn histogram_with_range(values: &[f64], bins: usize, min: f64, max: f64) -> Histogram {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(max > min, "histogram range must be non-degenerate");
    let mut counts = vec![0u64; bins];
    let mut total = 0u64;
    let scale = bins as f64 / (max - min);
    for &v in values {
        if !v.is_finite() {
            continue;
        }
        let mut idx = ((v - min) * scale).floor() as i64;
        if idx < 0 {
            idx = 0;
        }
        if idx >= bins as i64 {
            idx = bins as i64 - 1;
        }
        counts[idx as usize] += 1;
        total += 1;
    }
    Histogram {
        min,
        max,
        counts,
        total,
    }
}

/// Compute a histogram with the range taken from the data itself.
pub fn histogram(values: &[f64], bins: usize) -> Result<Histogram, TabularError> {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return Err(TabularError::Empty("histogram input"));
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let mut max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < f64::EPSILON {
        max = min + 1.0;
    }
    Ok(histogram_with_range(&finite, bins, min, max))
}

/// Count occurrences of each category label, sorted by descending count
/// (ties broken by label for determinism).
pub fn value_counts(column: &Column) -> Result<Vec<(String, u64)>, TabularError> {
    match column {
        Column::Categorical { codes, vocab } => {
            let mut counts = vec![0u64; vocab.len()];
            for &c in codes {
                if (c as usize) < counts.len() {
                    counts[c as usize] += 1;
                }
            }
            let mut out: Vec<(String, u64)> = vocab.iter().cloned().zip(counts).collect();
            out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            Ok(out)
        }
        Column::Numerical(_) => Err(TabularError::KindMismatch {
            column: "<value_counts>".to_string(),
            expected: "categorical",
        }),
    }
}

/// Normalised category frequencies keyed by label.
pub fn frequency_map(column: &Column) -> Result<HashMap<String, f64>, TabularError> {
    let counts = value_counts(column)?;
    let total: u64 = counts.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return Err(TabularError::Empty("frequency_map input"));
    }
    Ok(counts
        .into_iter()
        .map(|(label, c)| (label, c as f64 / total as f64))
        .collect())
}

/// Summary statistics of one column, matching the dataset profile in
/// Fig. 3(a) of the paper (kind + number of unique entries), extended with
/// basic moments for numerical columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSummary {
    /// Column name.
    pub name: String,
    /// "N" or "C" per the paper's notation.
    pub kind: String,
    /// Number of distinct values.
    pub unique: usize,
    /// Mean (numerical columns only).
    pub mean: Option<f64>,
    /// Standard deviation (numerical columns only).
    pub std: Option<f64>,
    /// Minimum (numerical columns only).
    pub min: Option<f64>,
    /// Maximum (numerical columns only).
    pub max: Option<f64>,
}

/// Summarise every column of a table.
pub fn summarize(table: &Table) -> Vec<ColumnSummary> {
    table
        .names()
        .iter()
        .zip(table.columns())
        .map(|(name, col)| match col {
            Column::Numerical(v) => {
                let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
                let n = finite.len().max(1) as f64;
                let mean = finite.iter().sum::<f64>() / n;
                let var = finite.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                ColumnSummary {
                    name: name.clone(),
                    kind: "N".to_string(),
                    unique: col.cardinality(),
                    mean: Some(mean),
                    std: Some(var.sqrt()),
                    min: finite.iter().copied().fold(None, |acc: Option<f64>, x| {
                        Some(acc.map_or(x, |a| a.min(x)))
                    }),
                    max: finite.iter().copied().fold(None, |acc: Option<f64>, x| {
                        Some(acc.map_or(x, |a| a.max(x)))
                    }),
                }
            }
            Column::Categorical { .. } => ColumnSummary {
                name: name.clone(),
                kind: "C".to_string(),
                unique: col.cardinality(),
                mean: None,
                std: None,
                min: None,
                max: None,
            },
        })
        .collect()
}

/// Top-`k` most frequent labels of a categorical column with normalised
/// frequencies, as plotted in Fig. 4(b).
pub fn top_k_frequencies(column: &Column, k: usize) -> Result<Vec<(String, f64)>, TabularError> {
    let counts = value_counts(column)?;
    let total: u64 = counts.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return Err(TabularError::Empty("top_k_frequencies input"));
    }
    Ok(counts
        .into_iter()
        .take(k)
        .map(|(label, c)| (label, c as f64 / total as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;

    #[test]
    fn histogram_counts_and_pmf() {
        let values = vec![0.0, 0.1, 0.2, 0.9, 1.0];
        let h = histogram(&values, 2).unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), 5);
        assert_eq!(h.total, 5);
        let pmf = h.pmf();
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(h.counts[0], 3);
        assert_eq!(h.counts[1], 2);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let values = vec![1.0, f64::NAN, 2.0, f64::INFINITY];
        let h = histogram(&values, 4).unwrap();
        assert_eq!(h.total, 2);
    }

    #[test]
    fn histogram_with_range_clamps() {
        let h = histogram_with_range(&[-10.0, 0.5, 10.0], 2, 0.0, 1.0);
        assert_eq!(h.counts, vec![1, 2]);
    }

    #[test]
    fn histogram_degenerate_column() {
        let h = histogram(&[5.0; 8], 4).unwrap();
        assert_eq!(h.total, 8);
        assert_eq!(h.counts.iter().sum::<u64>(), 8);
    }

    #[test]
    fn histogram_empty_errors() {
        assert!(histogram(&[], 4).is_err());
        assert!(histogram(&[f64::NAN], 4).is_err());
    }

    #[test]
    fn value_counts_sorted_desc() {
        let col = Column::from_labels(&["a", "b", "a", "c", "a", "b"]);
        let counts = value_counts(&col).unwrap();
        assert_eq!(counts[0], ("a".to_string(), 3));
        assert_eq!(counts[1], ("b".to_string(), 2));
        assert_eq!(counts[2], ("c".to_string(), 1));
    }

    #[test]
    fn value_counts_on_numeric_errors() {
        assert!(value_counts(&Column::Numerical(vec![1.0])).is_err());
    }

    #[test]
    fn top_k_frequencies_normalised() {
        let col = Column::from_labels(&["x", "x", "y", "z"]);
        let top = top_k_frequencies(&col, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert!((top[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frequency_map_sums_to_one() {
        let col = Column::from_labels(&["a", "b", "b", "c"]);
        let freq = frequency_map(&col).unwrap();
        let sum: f64 = freq.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_mixed_table() {
        let mut t = Table::new();
        t.push_column("w", Column::Numerical(vec![1.0, 2.0, 3.0]))
            .unwrap();
        t.push_column("s", Column::from_labels(&["a", "b", "a"]))
            .unwrap();
        let summary = summarize(&t);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].kind, "N");
        assert_eq!(summary[0].unique, 3);
        assert!((summary[0].mean.unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(summary[1].kind, "C");
        assert_eq!(summary[1].unique, 2);
        assert!(summary[1].mean.is_none());
    }
}
