//! Categorical encodings.
//!
//! The surrogate models in the paper represent every categorical entry as a
//! one-hot vector; the MLEF probe uses integer label codes. Both encoders are
//! fitted on training data and reusable on synthetic data so unseen labels are
//! handled consistently.

use serde::{Deserialize, Serialize};

use crate::error::TabularError;

/// Maps string labels to dense integer codes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LabelEncoder {
    vocab: Vec<String>,
}

impl LabelEncoder {
    /// New, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fit the vocabulary from labels, in first-appearance order.
    pub fn fit<S: AsRef<str>>(&mut self, labels: &[S]) {
        self.vocab.clear();
        for label in labels {
            let label = label.as_ref();
            if !self.vocab.iter().any(|v| v == label) {
                self.vocab.push(label.to_string());
            }
        }
    }

    /// Vocabulary size.
    pub fn cardinality(&self) -> usize {
        self.vocab.len()
    }

    /// The fitted vocabulary.
    pub fn vocab(&self) -> &[String] {
        &self.vocab
    }

    /// Code of a label, if known.
    pub fn code(&self, label: &str) -> Option<u32> {
        self.vocab.iter().position(|v| v == label).map(|i| i as u32)
    }

    /// Label of a code.
    pub fn label(&self, code: u32) -> Result<&str, TabularError> {
        self.vocab
            .get(code as usize)
            .map(String::as_str)
            .ok_or(TabularError::InvalidCode {
                column: "<label-encoder>".to_string(),
                code,
                cardinality: self.vocab.len(),
            })
    }

    /// Encode labels to codes; unknown labels map to a fresh code appended to
    /// the vocabulary only if `extend` is true, otherwise they error.
    pub fn encode<S: AsRef<str>>(
        &mut self,
        labels: &[S],
        extend: bool,
    ) -> Result<Vec<u32>, TabularError> {
        let mut out = Vec::with_capacity(labels.len());
        for label in labels {
            let label = label.as_ref();
            match self.code(label) {
                Some(c) => out.push(c),
                None if extend => {
                    self.vocab.push(label.to_string());
                    out.push((self.vocab.len() - 1) as u32);
                }
                None => {
                    return Err(TabularError::UnknownColumn(format!(
                        "unknown label `{label}`"
                    )))
                }
            }
        }
        Ok(out)
    }
}

/// One-hot encoder over integer category codes.
///
/// The encoder is defined by the cardinality fixed at fit time; codes at or
/// above the cardinality (e.g. labels only present in synthetic data) encode
/// to the all-zeros vector, mirroring scikit-learn's
/// `handle_unknown="ignore"`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OneHotEncoder {
    cardinality: usize,
}

impl OneHotEncoder {
    /// Encoder for a column with the given number of categories.
    pub fn new(cardinality: usize) -> Self {
        Self { cardinality }
    }

    /// Fit from codes (cardinality = max code + 1).
    pub fn fit(&mut self, codes: &[u32]) -> Result<(), TabularError> {
        if codes.is_empty() {
            return Err(TabularError::Empty("OneHotEncoder::fit input"));
        }
        self.cardinality = codes.iter().copied().max().unwrap_or(0) as usize + 1;
        Ok(())
    }

    /// Width of the one-hot block.
    pub fn width(&self) -> usize {
        self.cardinality
    }

    /// Encode a slice of codes into a dense row-major matrix
    /// (`codes.len()` × `width()`).
    pub fn encode(&self, codes: &[u32]) -> Vec<f64> {
        let mut out = vec![0.0; codes.len() * self.cardinality];
        for (row, &code) in codes.iter().enumerate() {
            let code = code as usize;
            if code < self.cardinality {
                out[row * self.cardinality + code] = 1.0;
            }
        }
        out
    }

    /// Decode one-hot (or soft probability) rows back to codes by argmax.
    pub fn decode(&self, rows: &[f64]) -> Result<Vec<u32>, TabularError> {
        if self.cardinality == 0 {
            return Err(TabularError::NotFitted("OneHotEncoder"));
        }
        if !rows.len().is_multiple_of(self.cardinality) {
            return Err(TabularError::LengthMismatch {
                context: "OneHotEncoder::decode",
                expected: self.cardinality,
                found: rows.len(),
            });
        }
        Ok(rows
            .chunks_exact(self.cardinality)
            .map(|chunk| {
                let mut best = 0usize;
                let mut best_v = f64::NEG_INFINITY;
                for (i, &v) in chunk.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best as u32
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_encoder_roundtrip() {
        let labels = ["finished", "failed", "finished", "cancelled"];
        let mut enc = LabelEncoder::new();
        enc.fit(&labels);
        assert_eq!(enc.cardinality(), 3);
        let codes = enc.encode(&labels, false).unwrap();
        assert_eq!(codes, vec![0, 1, 0, 2]);
        assert_eq!(enc.label(1).unwrap(), "failed");
        assert_eq!(enc.code("cancelled"), Some(2));
        assert!(enc.label(9).is_err());
    }

    #[test]
    fn label_encoder_unknown_handling() {
        let mut enc = LabelEncoder::new();
        enc.fit(&["a", "b"]);
        assert!(enc.encode(&["c"], false).is_err());
        let codes = enc.encode(&["c", "a"], true).unwrap();
        assert_eq!(codes, vec![2, 0]);
        assert_eq!(enc.cardinality(), 3);
    }

    #[test]
    fn one_hot_roundtrip() {
        let codes = vec![0u32, 2, 1, 2];
        let mut enc = OneHotEncoder::default();
        enc.fit(&codes).unwrap();
        assert_eq!(enc.width(), 3);
        let dense = enc.encode(&codes);
        assert_eq!(dense.len(), 12);
        assert_eq!(&dense[0..3], &[1.0, 0.0, 0.0]);
        assert_eq!(&dense[3..6], &[0.0, 0.0, 1.0]);
        let decoded = enc.decode(&dense).unwrap();
        assert_eq!(decoded, codes);
    }

    #[test]
    fn one_hot_soft_decode_is_argmax() {
        let enc = OneHotEncoder::new(3);
        let soft = vec![0.1, 0.7, 0.2, 0.5, 0.3, 0.2];
        assert_eq!(enc.decode(&soft).unwrap(), vec![1, 0]);
    }

    #[test]
    fn one_hot_out_of_range_code_encodes_to_zeros() {
        let enc = OneHotEncoder::new(2);
        let dense = enc.encode(&[5]);
        assert_eq!(dense, vec![0.0, 0.0]);
    }

    #[test]
    fn one_hot_decode_shape_errors() {
        let enc = OneHotEncoder::new(3);
        assert!(enc.decode(&[0.0, 1.0]).is_err());
        let unfitted = OneHotEncoder::new(0);
        assert!(unfitted.decode(&[]).is_err());
    }
}
