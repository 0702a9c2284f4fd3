//! SMOTE-style nearest-neighbour interpolation sampler.
//!
//! The paper's only non-learning baseline: a synthetic row is formed by
//! picking a random training row, finding its `k` nearest neighbours in the
//! encoded space, and interpolating towards one of them with a uniform random
//! mixing factor. Numerical coordinates interpolate linearly; one-hot blocks
//! interpolate too and are resolved back to a single category by arg-max at
//! decode time (which amounts to "keep the base row's category unless the
//! interpolation passes the midpoint").
//!
//! Because every synthetic row lies on a segment between two real rows,
//! SMOTE achieves excellent distributional fidelity but almost no privacy —
//! the behaviour the paper's DCR column exposes.
//!
//! The neighbour search is [`metrics::neighbors`] over compact anchors: one
//! value per numerical span and the hot position of each one-hot block. Its
//! distance walks the codec's spans in order, adding `(a − b)²` per
//! numerical span and `1.0` twice per mismatched block, which is the dense
//! squared distance over the encoded rows to the bit (a matching block adds
//! only `+0.0`). Its bound (two per mismatched block) never exceeds that sum,
//! and it keeps neighbours by `(distance, index)`: the lists equal a stable
//! sort of every other anchor by dense distance, truncated to `k`.

use metrics::{MixedRows, NeighborIndex, Term};
use nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tabular::{FeatureKind, Table};

use crate::codec::TableCodec;
use crate::fault::FitControl;
use crate::traits::{SampleSpec, SurrogateError, TabularGenerator};

/// SMOTE hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SmoteConfig {
    /// Number of nearest neighbours considered for interpolation (paper: 5).
    pub k_neighbors: usize,
    /// Cap on the number of training rows kept as interpolation anchors;
    /// larger tables are evenly subsampled. Bounds the O(n²) neighbour search.
    pub max_anchor_rows: usize,
}

impl Default for SmoteConfig {
    fn default() -> Self {
        Self {
            k_neighbors: 5,
            max_anchor_rows: 20_000,
        }
    }
}

/// The fitted SMOTE sampler.
///
/// Serializable in full (config, fitted codec, anchor matrix and
/// neighbour lists) so a fitted sampler checkpoints and reloads with
/// byte-identical sampling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmoteSampler {
    config: SmoteConfig,
    codec: Option<TableCodec>,
    anchors: Option<Matrix>,
    /// Pre-computed k-nearest-neighbour indices per anchor row.
    neighbors: Vec<Vec<usize>>,
}

impl SmoteSampler {
    /// New, unfitted sampler.
    pub fn new(config: SmoteConfig) -> Self {
        Self {
            config,
            codec: None,
            anchors: None,
            neighbors: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> SmoteConfig {
        self.config
    }

    /// The fitted codec and anchors. A hand-edited checkpoint can hold the
    /// codec without the anchors (or without one neighbour list per
    /// anchor), so a missing part is [`SurrogateError::NotFitted`], not a
    /// panic.
    fn fitted(&self) -> Result<(&TableCodec, &Matrix), SurrogateError> {
        let anchors = self
            .anchors
            .as_ref()
            .filter(|a| a.rows() == self.neighbors.len());
        self.codec
            .as_ref()
            .zip(anchors)
            .ok_or(SurrogateError::NotFitted("SMOTE"))
    }

    fn subsample_rows(n: usize, cap: usize) -> Vec<usize> {
        if n <= cap {
            (0..n).collect()
        } else {
            (0..cap).map(|i| i * n / cap).collect()
        }
    }

    /// `anchors` in the neighbour search's layout: the codec's spans in
    /// order, each one-hot block as the position of its 1 (every block of an
    /// encoded training row holds exactly one).
    fn neighbor_rows(codec: &TableCodec, anchors: &Matrix) -> MixedRows {
        let spans = codec.spans();
        let terms = spans
            .iter()
            .map(|span| match span.kind {
                FeatureKind::Numerical => Term::Numeric,
                FeatureKind::Categorical => Term::Categorical,
            })
            .collect();
        let of_kind = |kind| spans.iter().filter(move |span| span.kind == kind);
        let mut rows = MixedRows::new(terms, 2);
        for r in 0..anchors.rows() {
            let row = anchors.row(r);
            rows.push_row(
                of_kind(FeatureKind::Numerical).map(|span| row[span.start]),
                of_kind(FeatureKind::Categorical).map(|span| {
                    let block = &row[span.start..span.start + span.width];
                    block
                        .iter()
                        .position(|&v| v == 1.0)
                        .expect("one-hot block of an encoded training row")
                        as u32
                }),
            );
        }
        rows
    }
}

impl TabularGenerator for SmoteSampler {
    fn name(&self) -> &'static str {
        "SMOTE"
    }

    /// The fit has no epochs to check a budget between, so `control` is a
    /// documented no-op here.
    fn fit_with_control(
        &mut self,
        train: &Table,
        _control: &FitControl,
    ) -> Result<(), SurrogateError> {
        if train.n_rows() < 2 {
            return Err(SurrogateError::InvalidTrainingData(
                "SMOTE needs at least two training rows".to_string(),
            ));
        }
        let codec = TableCodec::fit(train)?;
        let encoded = codec.encode(train)?;
        let keep = Self::subsample_rows(encoded.rows(), self.config.max_anchor_rows);
        let anchors = encoded.take_rows(&keep);

        let k = self.config.k_neighbors.min(anchors.rows() - 1).max(1);
        // Exact kNN, parallel over anchor rows; each list is built at its
        // own length.
        let rows = Self::neighbor_rows(&codec, &anchors);
        let index = NeighborIndex::new(&rows);
        let neighbors: Vec<Vec<usize>> = (0..anchors.rows())
            .into_par_iter()
            .map(|i| {
                let nearest = index.nearest(&rows, i, k, Some(i));
                nearest.iter().map(|&(_, j)| j).collect()
            })
            .collect();

        self.codec = Some(codec);
        self.anchors = Some(anchors);
        self.neighbors = neighbors;
        Ok(())
    }

    /// The one sampling loop: each spec's rows are interpolated from its own
    /// RNG stream into its range of one stacked matrix, and each range
    /// decodes in place.
    fn sample_batch(&self, specs: &[SampleSpec]) -> Result<Vec<Table>, SurrogateError> {
        let (codec, anchors) = self.fitted()?;
        let mut out = Matrix::zeros(SampleSpec::total_rows(specs), codec.encoded_width());
        for (spec, rows) in specs.iter().zip(SampleSpec::row_ranges(specs)) {
            let mut rng = StdRng::seed_from_u64(spec.seed);
            for r in rows {
                let base = rng.gen_range(0..anchors.rows());
                let neighbor_list = &self.neighbors[base];
                let neighbor = neighbor_list[rng.gen_range(0..neighbor_list.len())];
                let lambda: f64 = rng.gen_range(0.0..1.0);
                let (base_row, nb_row) = (anchors.row(base), anchors.row(neighbor));
                for ((o, &b), &nb) in out.row_mut(r).iter_mut().zip(base_row).zip(nb_row) {
                    *o = b + lambda * (nb - b);
                }
            }
        }
        SampleSpec::row_ranges(specs)
            .map(|rows| codec.decode_rows(&out, rows))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn toy(n: usize) -> Table {
        let mut t = Table::new();
        let values: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 1.37).sin() * 10.0 + i as f64)
            .collect();
        let labels: Vec<&str> = (0..n)
            .map(|i| match i % 3 {
                0 => "BNL",
                1 => "CERN",
                _ => "SLAC",
            })
            .collect();
        t.push_column("workload", Column::Numerical(values))
            .unwrap();
        t.push_column("site", Column::from_labels(&labels)).unwrap();
        t
    }

    #[test]
    fn fit_and_sample_shape() {
        let train = toy(60);
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        smote.fit(&train).unwrap();
        let synthetic = smote.sample(25, 7).unwrap();
        assert_eq!(synthetic.n_rows(), 25);
        assert_eq!(synthetic.names(), train.names());
        // All synthetic categories come from the training vocabulary.
        for r in 0..25 {
            let label = synthetic.label("site", r).unwrap();
            assert!(["BNL", "CERN", "SLAC"].contains(&label));
        }
    }

    #[test]
    fn samples_stay_within_training_range() {
        let train = toy(80);
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        smote.fit(&train).unwrap();
        let synthetic = smote.sample(200, 3).unwrap();
        let train_vals = train.numerical("workload").unwrap();
        let min = train_vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = train_vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &v in synthetic.numerical("workload").unwrap() {
            assert!(
                v >= min - 1.0 && v <= max + 1.0,
                "{v} outside [{min}, {max}]"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let train = toy(40);
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        smote.fit(&train).unwrap();
        assert_eq!(smote.sample(10, 1).unwrap(), smote.sample(10, 1).unwrap());
        assert_ne!(smote.sample(10, 1).unwrap(), smote.sample(10, 2).unwrap());
    }

    #[test]
    fn neighbour_lists_equal_a_stable_sort_over_the_encoded_anchors() {
        // Every row three times over, so most distances tie.
        let base = toy(12);
        let mut train = Table::new();
        train
            .push_column(
                "workload",
                Column::Numerical(base.numerical("workload").unwrap().repeat(3)),
            )
            .unwrap();
        let labels: Vec<&str> = (0..36)
            .map(|r| base.label("site", r % 12).unwrap())
            .collect();
        train
            .push_column("site", Column::from_labels(&labels))
            .unwrap();
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        smote.fit(&train).unwrap();
        let anchors = smote.anchors.as_ref().unwrap();
        for (i, list) in smote.neighbors.iter().enumerate() {
            let dense = |j: usize| -> f64 {
                let (a, b) = (anchors.row(i), anchors.row(j));
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
            };
            let mut all: Vec<usize> = (0..anchors.rows()).filter(|&j| j != i).collect();
            all.sort_by(|&a, &b| dense(a).partial_cmp(&dense(b)).unwrap());
            all.truncate(5);
            assert_eq!(list, &all, "anchor {i}");
            assert_eq!(list.capacity(), list.len(), "anchor {i}");
        }
    }

    #[test]
    fn sample_before_fit_errors() {
        let smote = SmoteSampler::new(SmoteConfig::default());
        assert!(matches!(
            smote.sample(5, 0),
            Err(SurrogateError::NotFitted(_))
        ));
    }

    #[test]
    fn tiny_training_set_rejected() {
        let mut t = Table::new();
        t.push_column("x", Column::Numerical(vec![1.0])).unwrap();
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        assert!(smote.fit(&t).is_err());
    }

    #[test]
    fn anchor_subsampling_bounds_memory() {
        let train = toy(300);
        let mut smote = SmoteSampler::new(SmoteConfig {
            k_neighbors: 3,
            max_anchor_rows: 50,
        });
        smote.fit(&train).unwrap();
        assert_eq!(smote.anchors.as_ref().unwrap().rows(), 50);
        assert!(smote.sample(20, 0).is_ok());
    }
}
