//! Deterministic train/test splitting.
//!
//! The paper splits 150 days of PanDA records 80/20 into train and test sets.
//! Splitting here is seeded and reproducible; the shuffled variant uses a
//! Fisher–Yates permutation from a caller-supplied seed, and the chronological
//! variant mirrors time-ordered splits used for temporal data.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::TabularError;
use crate::table::Table;

/// Options controlling [`train_test_split`].
#[derive(Debug, Clone, Copy)]
pub struct SplitOptions {
    /// Fraction of rows assigned to the training set, in `(0, 1)`.
    pub train_fraction: f64,
    /// Shuffle rows before splitting. If false, the first rows (chronological
    /// order for the PanDA stream) become the training set.
    pub shuffle: bool,
    /// RNG seed used when shuffling.
    pub seed: u64,
}

impl Default for SplitOptions {
    fn default() -> Self {
        Self {
            train_fraction: 0.8,
            shuffle: true,
            seed: 42,
        }
    }
}

/// Split a table into (train, test) according to `options`.
pub fn train_test_split(
    table: &Table,
    options: SplitOptions,
) -> Result<(Table, Table), TabularError> {
    if table.n_rows() < 2 {
        return Err(TabularError::TooFewRows {
            context: "train_test_split input",
            rows: table.n_rows(),
            needed: 2,
        });
    }
    if !(options.train_fraction > 0.0 && options.train_fraction < 1.0) {
        return Err(TabularError::LengthMismatch {
            context: "train_fraction must be in (0, 1)",
            expected: 1,
            found: 0,
        });
    }
    let n = table.n_rows();
    let mut indices: Vec<usize> = (0..n).collect();
    if options.shuffle {
        let mut rng = StdRng::seed_from_u64(options.seed);
        indices.shuffle(&mut rng);
    }
    let n_train = ((n as f64) * options.train_fraction).round() as usize;
    let n_train = n_train.clamp(1, n - 1);
    let train_idx = &indices[..n_train];
    let test_idx = &indices[n_train..];
    Ok((table.take(train_idx), table.take(test_idx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;

    fn table(n: usize) -> Table {
        let mut t = Table::new();
        t.push_column("x", Column::Numerical((0..n).map(|i| i as f64).collect()))
            .unwrap();
        t
    }

    #[test]
    fn split_sizes_match_fraction() {
        let t = table(100);
        let (train, test) = train_test_split(&t, SplitOptions::default()).unwrap();
        assert_eq!(train.n_rows(), 80);
        assert_eq!(test.n_rows(), 20);
    }

    #[test]
    fn one_row_cannot_be_split() {
        assert_eq!(
            train_test_split(&table(1), SplitOptions::default()).unwrap_err(),
            TabularError::TooFewRows {
                context: "train_test_split input",
                rows: 1,
                needed: 2,
            }
        );
        let (train, test) = train_test_split(&table(2), SplitOptions::default()).unwrap();
        assert_eq!((train.n_rows(), test.n_rows()), (1, 1));
    }

    #[test]
    fn split_is_deterministic_for_fixed_seed() {
        let t = table(50);
        let a = train_test_split(&t, SplitOptions::default()).unwrap();
        let b = train_test_split(&t, SplitOptions::default()).unwrap();
        assert_eq!(a.0.numerical("x").unwrap(), b.0.numerical("x").unwrap());
        let c = train_test_split(
            &t,
            SplitOptions {
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a.0.numerical("x").unwrap(), c.0.numerical("x").unwrap());
    }

    #[test]
    fn chronological_split_keeps_order() {
        let t = table(10);
        let (train, test) = train_test_split(
            &t,
            SplitOptions {
                shuffle: false,
                train_fraction: 0.7,
                seed: 0,
            },
        )
        .unwrap();
        assert_eq!(
            train.numerical("x").unwrap(),
            &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        assert_eq!(test.numerical("x").unwrap(), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn split_partitions_all_rows() {
        let t = table(37);
        let (train, test) = train_test_split(&t, SplitOptions::default()).unwrap();
        let mut all: Vec<f64> = train
            .numerical("x")
            .unwrap()
            .iter()
            .chain(test.numerical("x").unwrap())
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = (0..37).map(|i| i as f64).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let t = table(10);
        assert!(train_test_split(
            &t,
            SplitOptions {
                train_fraction: 1.5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(train_test_split(&Table::new(), SplitOptions::default()).is_err());
    }
}
