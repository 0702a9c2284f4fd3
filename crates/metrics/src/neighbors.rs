//! Exact nearest-neighbour search over mixed-type rows — the one kernel
//! behind SMOTE's neighbour lists and DCR.
//!
//! A row is stored compactly: its numerical values as `f64`s and one `u32`
//! code per categorical column. The distance between two rows is an
//! *ordered* sum over [`Term`]s: a numerical term adds `(a − b)²`, and a
//! categorical term whose codes differ adds `1.0`, `ones_per_mismatch`
//! times, one addition after the other. Choosing the term order and that
//! count reproduces a caller's arithmetic exactly, not just its value up to
//! rounding:
//!
//! * SMOTE's dense squared distance over one-hot encoded rows walks the
//!   codec's spans in order; a mismatched block adds `1.0` at one position
//!   and `1.0` again at the other, and a matching block adds only `+0.0`,
//!   which leaves a non-negative sum unchanged. So SMOTE uses the spans'
//!   order with two ones per mismatch.
//! * DCR adds its min-max-normalised numerical terms in schema order, then
//!   one `1.0` per mismatched categorical column.
//!
//! **Pruning is exact.** Every term is `≥ 0` (or NaN) and floating-point
//! addition is monotone in each operand, so a row whose codes differ from
//! the query's in `m` columns has a distance of at least
//! `m · ones_per_mismatch`, the sum of those ones alone. A row is dropped,
//! unevaluated, as soon as that bound shows it cannot beat the current
//! `k`-th best.
//!
//! **Acceptance is a total order.** A candidate is kept by `(distance,
//! index)` order, and a NaN distance is never kept. The `k` smallest rows
//! under that order do not depend on the order they are visited in, and they
//! are exactly what a stable sort by distance followed by `truncate(k)`
//! keeps (ties go to the lower index); with `k = 1` the kept distance is the
//! minimum a strict-`<` scan finds. So each query visits its own
//! categorical group first (the rows sharing its code tuple, where only
//! numerical terms count) and skips every other row once its `k`-th best
//! distance is below the cost of one mismatch. Otherwise it visits the other
//! groups one by one, each with the bound of its mismatch count, and leaves a
//! group at the first row the bound rejects: the rows ascend and the `k`-th
//! best only improves, so the bound rejects the rest too.

use std::collections::HashMap;

/// One term of the distance, in summation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// `(a − b)²` of the row's next numerical value.
    Numeric,
    /// `1.0`, added `ones_per_mismatch` times, when the row's next codes
    /// differ.
    Categorical,
}

/// Rows of one layout, stored row-major: numerical values and codes in the
/// order their [`Term`]s appear.
#[derive(Debug)]
pub struct MixedRows {
    terms: Vec<Term>,
    ones_per_mismatch: u32,
    n_numeric: usize,
    n_codes: usize,
    n_rows: usize,
    numeric: Vec<f64>,
    codes: Vec<u32>,
}

impl MixedRows {
    /// No rows yet, with the distance summed over `terms` in order and a
    /// mismatched code adding `1.0` `ones_per_mismatch` times.
    pub fn new(terms: Vec<Term>, ones_per_mismatch: u32) -> Self {
        let n_numeric = terms.iter().filter(|&&t| t == Term::Numeric).count();
        Self {
            n_codes: terms.len() - n_numeric,
            n_numeric,
            n_rows: 0,
            terms,
            ones_per_mismatch,
            numeric: Vec::new(),
            codes: Vec::new(),
        }
    }

    /// Append one row: its numerical values and its codes, each in term
    /// order.
    ///
    /// # Panics
    /// If the row does not have one value per [`Term::Numeric`] and one code
    /// per [`Term::Categorical`].
    pub fn push_row(
        &mut self,
        numeric: impl IntoIterator<Item = f64>,
        codes: impl IntoIterator<Item = u32>,
    ) {
        let row = self.n_rows;
        self.numeric.extend(numeric);
        self.codes.extend(codes);
        self.n_rows += 1;
        assert!(
            self.numeric.len() == self.n_rows * self.n_numeric
                && self.codes.len() == self.n_rows * self.n_codes,
            "row {row} does not match the layout's {} numerical and {} categorical terms",
            self.n_numeric,
            self.n_codes
        );
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.n_rows
    }

    fn numeric_row(&self, row: usize) -> &[f64] {
        &self.numeric[row * self.n_numeric..(row + 1) * self.n_numeric]
    }

    fn code_row(&self, row: usize) -> &[u32] {
        &self.codes[row * self.n_codes..(row + 1) * self.n_codes]
    }

    /// The ordered sum between a query row and row `row`.
    fn distance(&self, numeric: &[f64], codes: &[u32], row: usize) -> f64 {
        let (other_numeric, other_codes) = (self.numeric_row(row), self.code_row(row));
        let (mut n, mut c) = (0, 0);
        let mut d = 0.0;
        for term in &self.terms {
            match term {
                Term::Numeric => {
                    let diff = numeric[n] - other_numeric[n];
                    d += diff * diff;
                    n += 1;
                }
                Term::Categorical => {
                    if codes[c] != other_codes[c] {
                        for _ in 0..self.ones_per_mismatch {
                            d += 1.0;
                        }
                    }
                    c += 1;
                }
            }
        }
        d
    }

    /// The ordered sum between a query row and row `row` with the same
    /// codes: the categorical terms add nothing.
    fn numeric_distance(&self, numeric: &[f64], row: usize) -> f64 {
        let mut d = 0.0;
        for (a, b) in numeric.iter().zip(self.numeric_row(row)) {
            let diff = a - b;
            d += diff * diff;
        }
        d
    }
}

/// Reference rows indexed for exact `k`-nearest-neighbour queries.
pub struct NeighborIndex<'a> {
    rows: &'a MixedRows,
    /// Each distinct code tuple with its rows, ascending, in order of first
    /// appearance.
    groups: Vec<(&'a [u32], Vec<usize>)>,
    /// Each code tuple's position in `groups`. Used for lookups only, so the
    /// map's iteration order never reaches a result.
    group_of: HashMap<&'a [u32], usize>,
}

impl<'a> NeighborIndex<'a> {
    /// Index `rows` by their code tuples.
    pub fn new(rows: &'a MixedRows) -> Self {
        let mut groups: Vec<(&[u32], Vec<usize>)> = Vec::new();
        let mut group_of = HashMap::new();
        for row in 0..rows.len() {
            let codes = rows.code_row(row);
            let group = *group_of.entry(codes).or_insert_with(|| {
                groups.push((codes, Vec::new()));
                groups.len() - 1
            });
            groups[group].1.push(row);
        }
        Self {
            rows,
            groups,
            group_of,
        }
    }

    /// The `k` reference rows nearest to row `query` of `queries` (which
    /// shares the reference layout), leaving out reference row `skip`, as
    /// `(distance, row)` pairs sorted by distance, then row. Shorter than
    /// `k` only when fewer rows have a non-NaN distance.
    pub fn nearest(
        &self,
        queries: &MixedRows,
        query: usize,
        k: usize,
        skip: Option<usize>,
    ) -> Vec<(f64, usize)> {
        debug_assert_eq!(queries.terms, self.rows.terms, "layouts differ");
        let (numeric, codes) = (queries.numeric_row(query), queries.code_row(query));
        let mut nearest = Nearest::new(k);
        if let Some(&own) = self.group_of.get(codes) {
            for &row in &self.groups[own].1 {
                if Some(row) != skip {
                    nearest.offer(self.rows.numeric_distance(numeric, row), row);
                }
            }
        }
        let one_mismatch = f64::from(self.rows.ones_per_mismatch);
        if nearest.worst().is_some_and(|(d, _)| d < one_mismatch) {
            return nearest.best;
        }
        for (group_codes, members) in &self.groups {
            let mismatches = codes
                .iter()
                .zip(*group_codes)
                .filter(|(a, b)| a != b)
                .count();
            // `mismatches == 0` is the own group, visited above.
            if mismatches == 0 {
                continue;
            }
            let bound = mismatches as f64 * one_mismatch;
            // Rows ascend and the k-th best only improves, so once the bound
            // rejects one row it rejects the rest of the group.
            for &row in members {
                if nearest.rejects(bound, row) {
                    break;
                }
                if Some(row) != skip {
                    nearest.offer(self.rows.distance(numeric, codes, row), row);
                }
            }
        }
        nearest.best
    }
}

/// The best `k` candidates so far, sorted by `(distance, row)`.
struct Nearest {
    k: usize,
    best: Vec<(f64, usize)>,
}

impl Nearest {
    fn new(k: usize) -> Self {
        Self {
            k,
            best: Vec::new(),
        }
    }

    /// The `k`-th best, once `k` candidates are kept.
    fn worst(&self) -> Option<(f64, usize)> {
        if self.best.len() < self.k {
            None
        } else {
            self.best.last().copied()
        }
    }

    /// Whether a candidate whose distance is at least `bound` cannot be
    /// kept: `(bound, row)` comes after the `k`-th best.
    fn rejects(&self, bound: f64, row: usize) -> bool {
        self.worst()
            .is_some_and(|(d, r)| bound > d || (bound == d && row > r))
    }

    fn offer(&mut self, distance: f64, row: usize) {
        if distance.is_nan() || self.rejects(distance, row) {
            return;
        }
        let at = self
            .best
            .partition_point(|&(d, r)| d < distance || (d == distance && r < row));
        self.best.insert(at, (distance, row));
        self.best.truncate(self.k);
    }
}
