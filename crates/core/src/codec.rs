//! The shared table ↔ dense-matrix codec.
//!
//! Following §V-A of the paper, numerical columns are normalised with a
//! Gaussian quantile transformation and categorical columns are expanded into
//! one-hot blocks. The encoded representation is a dense `f64` matrix in
//! which every model operates; decoding inverts the quantile transform and
//! takes the arg-max of each one-hot block.

use std::ops::Range;

use nn::Matrix;
use serde::{Deserialize, Serialize};
use tabular::{Column, FeatureKind, NumericTransform, OneHotEncoder, QuantileTransformer, Table};

use crate::traits::SurrogateError;

/// Where one original column lives inside the encoded matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSpan {
    /// Original column name.
    pub name: String,
    /// Column kind.
    pub kind: FeatureKind,
    /// First encoded column of the block.
    pub start: usize,
    /// Width of the block (1 for numerical, cardinality for categorical).
    pub width: usize,
}

/// Fitted encoder/decoder between a [`Table`] and a dense matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableCodec {
    spans: Vec<ColumnSpan>,
    quantile: Vec<QuantileTransformer>,
    one_hot: Vec<OneHotEncoder>,
    vocabs: Vec<Vec<String>>,
    encoded_width: usize,
}

impl TableCodec {
    /// Fit the codec on a training table.
    pub fn fit(train: &Table) -> Result<Self, SurrogateError> {
        if train.n_rows() == 0 || train.n_cols() == 0 {
            return Err(SurrogateError::InvalidTrainingData(
                "empty training table".to_string(),
            ));
        }
        let mut spans = Vec::new();
        let mut quantile = Vec::new();
        let mut one_hot = Vec::new();
        let mut vocabs = Vec::new();
        let mut cursor = 0usize;

        for (name, column) in train.names().iter().zip(train.columns()) {
            match column {
                Column::Numerical(values) => {
                    let mut qt = QuantileTransformer::new();
                    qt.fit(values)?;
                    spans.push(ColumnSpan {
                        name: name.clone(),
                        kind: FeatureKind::Numerical,
                        start: cursor,
                        width: 1,
                    });
                    quantile.push(qt);
                    cursor += 1;
                }
                Column::Categorical { codes, vocab } => {
                    let encoder = OneHotEncoder::new(vocab.len());
                    // Validate codes are in range.
                    if codes.iter().any(|&c| c as usize >= vocab.len()) {
                        return Err(SurrogateError::InvalidTrainingData(format!(
                            "column `{name}` has codes outside its vocabulary"
                        )));
                    }
                    spans.push(ColumnSpan {
                        name: name.clone(),
                        kind: FeatureKind::Categorical,
                        start: cursor,
                        width: vocab.len(),
                    });
                    cursor += vocab.len();
                    one_hot.push(encoder);
                    vocabs.push(vocab.clone());
                }
            }
        }

        Ok(Self {
            spans,
            quantile,
            one_hot,
            vocabs,
            encoded_width: cursor,
        })
    }

    /// Width of the encoded representation.
    pub fn encoded_width(&self) -> usize {
        self.encoded_width
    }

    /// Column layout of the encoded matrix.
    pub fn spans(&self) -> &[ColumnSpan] {
        &self.spans
    }

    /// Number of numerical columns.
    pub fn n_numerical(&self) -> usize {
        self.quantile.len()
    }

    /// Number of categorical columns.
    pub fn n_categorical(&self) -> usize {
        self.one_hot.len()
    }

    /// Encode a table into a dense matrix (rows × encoded_width).
    pub fn encode(&self, table: &Table) -> Result<Matrix, SurrogateError> {
        let n = table.n_rows();
        let mut out = Matrix::zeros(n, self.encoded_width);
        let mut num_idx = 0usize;
        let mut cat_idx = 0usize;
        for span in &self.spans {
            match span.kind {
                FeatureKind::Numerical => {
                    let values = table.numerical(&span.name)?;
                    let transformed = self.quantile[num_idx].transform(values)?;
                    for (r, v) in transformed.iter().enumerate() {
                        out.set(r, span.start, *v);
                    }
                    num_idx += 1;
                }
                FeatureKind::Categorical => {
                    // Remap labels onto the training vocabulary so tables with
                    // differently ordered vocabularies encode consistently.
                    let vocab = &self.vocabs[cat_idx];
                    for r in 0..n {
                        let label = table.label(&span.name, r)?;
                        if let Some(code) = vocab.iter().position(|v| v == label) {
                            out.set(r, span.start + code, 1.0);
                        }
                    }
                    cat_idx += 1;
                }
            }
        }
        Ok(out)
    }

    /// Decode a dense matrix back into a table with the training schema.
    /// Numerical blocks go through the inverse quantile transform; categorical
    /// blocks are decoded by arg-max.
    pub fn decode(&self, encoded: &Matrix) -> Result<Table, SurrogateError> {
        self.decode_rows(encoded, 0..encoded.rows())
    }

    /// [`TableCodec::decode`] of the row range `rows` alone, read in place —
    /// how a sampling loop splits one stacked batch back into per-request
    /// tables without copying each block out first.
    pub(crate) fn decode_rows(
        &self,
        encoded: &Matrix,
        rows: Range<usize>,
    ) -> Result<Table, SurrogateError> {
        if encoded.cols() != self.encoded_width || rows.end > encoded.rows() {
            return Err(SurrogateError::InvalidTrainingData(format!(
                "cannot decode rows {rows:?} of a {}x{} matrix with a codec of width {}",
                encoded.rows(),
                encoded.cols(),
                self.encoded_width
            )));
        }
        let mut table = Table::new();
        let mut num_idx = 0usize;
        let mut cat_idx = 0usize;
        for span in &self.spans {
            match span.kind {
                FeatureKind::Numerical => {
                    let raw: Vec<f64> = rows.clone().map(|r| encoded.get(r, span.start)).collect();
                    let values = self.quantile[num_idx].inverse_transform(&raw)?;
                    table.push_column(&span.name, Column::Numerical(values))?;
                    num_idx += 1;
                }
                FeatureKind::Categorical => {
                    let vocab = &self.vocabs[cat_idx];
                    let mut codes = Vec::with_capacity(rows.len());
                    for r in rows.clone() {
                        let block = &encoded.row(r)[span.start..span.start + span.width];
                        let mut best = 0usize;
                        let mut best_v = f64::NEG_INFINITY;
                        for (i, &v) in block.iter().enumerate() {
                            if v > best_v {
                                best_v = v;
                                best = i;
                            }
                        }
                        codes.push(best as u32);
                    }
                    table.push_column(
                        &span.name,
                        Column::Categorical {
                            codes,
                            vocab: vocab.clone(),
                        },
                    )?;
                    cat_idx += 1;
                }
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_table() -> Table {
        let mut t = Table::new();
        t.push_column(
            "workload",
            Column::Numerical(vec![1.0, 5.0, 20.0, 100.0, 400.0, 1000.0]),
        )
        .unwrap();
        t.push_column(
            "site",
            Column::from_labels(&["BNL", "CERN", "BNL", "SLAC", "BNL", "CERN"]),
        )
        .unwrap();
        t.push_column(
            "nfiles",
            Column::Numerical(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        )
        .unwrap();
        t
    }

    #[test]
    fn encoded_width_counts_one_hot_blocks() {
        let codec = TableCodec::fit(&toy_table()).unwrap();
        // 2 numerical + 3 categories = 5 encoded columns.
        assert_eq!(codec.encoded_width(), 5);
        assert_eq!(codec.n_numerical(), 2);
        assert_eq!(codec.n_categorical(), 1);
        assert_eq!(codec.spans().len(), 3);
    }

    #[test]
    fn roundtrip_recovers_categories_exactly_and_numerics_approximately() {
        let table = toy_table();
        let codec = TableCodec::fit(&table).unwrap();
        let encoded = codec.encode(&table).unwrap();
        assert_eq!(encoded.rows(), 6);
        let decoded = codec.decode(&encoded).unwrap();
        // Categorical round-trip is exact.
        for r in 0..6 {
            assert_eq!(
                decoded.label("site", r).unwrap(),
                table.label("site", r).unwrap()
            );
        }
        // Numerical round-trip is approximate (quantile interpolation).
        let orig = table.numerical("workload").unwrap();
        let back = decoded.numerical("workload").unwrap();
        for (a, b) in orig.iter().zip(back) {
            assert!((a - b).abs() < a.abs() * 0.1 + 1.0, "{a} vs {b}");
        }
    }

    #[test]
    fn encoded_numerics_are_roughly_standard_normal() {
        let mut values = Vec::new();
        for i in 0..500 {
            values.push((i as f64).powf(1.7) + 3.0);
        }
        let mut t = Table::new();
        t.push_column("x", Column::Numerical(values)).unwrap();
        let codec = TableCodec::fit(&t).unwrap();
        let encoded = codec.encode(&t).unwrap();
        let mean = encoded.mean();
        let var = encoded
            .data()
            .iter()
            .map(|v| (v - mean).powi(2))
            .sum::<f64>()
            / encoded.len() as f64;
        assert!(mean.abs() < 0.05);
        assert!((var - 1.0).abs() < 0.15);
    }

    #[test]
    fn one_hot_blocks_are_valid() {
        let table = toy_table();
        let codec = TableCodec::fit(&table).unwrap();
        let encoded = codec.encode(&table).unwrap();
        let span = &codec.spans()[1];
        assert_eq!(span.kind, FeatureKind::Categorical);
        for r in 0..encoded.rows() {
            let block = &encoded.row(r)[span.start..span.start + span.width];
            let sum: f64 = block.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn decode_soft_categorical_takes_argmax() {
        let table = toy_table();
        let codec = TableCodec::fit(&table).unwrap();
        let mut soft = Matrix::zeros(1, codec.encoded_width());
        // workload slot, then site block (BNL, CERN, SLAC), then nfiles slot.
        soft.set(0, 0, 0.0);
        soft.set(0, 1, 0.2);
        soft.set(0, 2, 0.7);
        soft.set(0, 3, 0.1);
        soft.set(0, 4, 0.0);
        let decoded = codec.decode(&soft).unwrap();
        assert_eq!(decoded.label("site", 0).unwrap(), "CERN");
    }

    #[test]
    fn empty_table_rejected() {
        assert!(TableCodec::fit(&Table::new()).is_err());
    }

    #[test]
    fn wrong_width_decode_rejected() {
        let codec = TableCodec::fit(&toy_table()).unwrap();
        assert!(codec.decode(&Matrix::zeros(2, 3)).is_err());
    }
}
