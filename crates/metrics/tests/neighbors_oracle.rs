//! The nearest-neighbour kernel against dense brute force kept here:
//! SMOTE's stable sort over the one-hot squared distance, and DCR's full
//! strict-`<` scan. Neighbour lists must be equal and distances equal to the
//! bit, on random and tie-heavy tables.

use metrics::{distance_to_closest_record, DcrConfig, MixedRows, NeighborIndex, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{Column, Table};

/// A column of a generated table: numerical values or `(codes, cardinality)`.
#[derive(Clone)]
enum Col {
    Num(Vec<f64>),
    Cat(Vec<u32>, u32),
}

fn n_rows(cols: &[Col]) -> usize {
    match &cols[0] {
        Col::Num(v) => v.len(),
        Col::Cat(c, _) => c.len(),
    }
}

/// A row one-hot encoded the way SMOTE's codec lays it out.
fn dense_row(cols: &[Col], r: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for col in cols {
        match col {
            Col::Num(v) => out.push(v[r]),
            Col::Cat(codes, card) => {
                let mut block = vec![0.0; *card as usize];
                block[codes[r] as usize] = 1.0;
                out.extend(block);
            }
        }
    }
    out
}

/// The dense squared distance SMOTE used before the kernel.
fn dense_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// SMOTE's old search: every other row by dense distance, stable-sorted,
/// truncated to `k`.
fn brute_force(dense: &[Vec<f64>], i: usize, k: usize) -> Vec<(f64, usize)> {
    let mut all: Vec<(f64, usize)> = (0..dense.len())
        .filter(|&j| j != i)
        .map(|j| (dense_distance(&dense[i], &dense[j]), j))
        .collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    all.truncate(k);
    all
}

/// The kernel with SMOTE's layout: the columns in order, two ones per
/// mismatched block.
fn smote_rows(cols: &[Col]) -> MixedRows {
    let terms = cols
        .iter()
        .map(|c| match c {
            Col::Num(_) => Term::Numeric,
            Col::Cat(..) => Term::Categorical,
        })
        .collect();
    let mut rows = MixedRows::new(terms, 2);
    for r in 0..n_rows(cols) {
        rows.push_row(
            cols.iter().filter_map(|c| match c {
                Col::Num(v) => Some(v[r]),
                Col::Cat(..) => None,
            }),
            cols.iter().filter_map(|c| match c {
                Col::Cat(codes, _) => Some(codes[r]),
                Col::Num(_) => None,
            }),
        );
    }
    rows
}

fn assert_smote_lists_match(cols: &[Col], k: usize, case: &str) {
    let n = n_rows(cols);
    let dense: Vec<Vec<f64>> = (0..n).map(|r| dense_row(cols, r)).collect();
    let rows = smote_rows(cols);
    let index = NeighborIndex::new(&rows);
    for i in 0..n {
        let want = brute_force(&dense, i, k);
        let got = index.nearest(&rows, i, k, Some(i));
        let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
            v.iter().map(|&(d, j)| (d.to_bits(), j)).collect()
        };
        assert_eq!(bits(&got), bits(&want), "{case}: row {i}, k {k}");
    }
}

fn random_numeric(rng: &mut StdRng, n: usize) -> Vec<f64> {
    // Magnitudes from 1e-3 to 1e17, so a sum that adds its terms in another
    // order, or adds 2.0 where it should add 1.0 twice, rounds differently.
    (0..n)
        .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..18)))
        .collect()
}

fn random_codes(rng: &mut StdRng, n: usize, card: u32) -> Col {
    Col::Cat((0..n).map(|_| rng.gen_range(0..card)).collect(), card)
}

fn random_cols(rng: &mut StdRng, n: usize, numeric_first: bool) -> Vec<Col> {
    let num: Vec<Col> = (0..3).map(|_| Col::Num(random_numeric(rng, n))).collect();
    let cat: Vec<Col> = [2, 3, 5].iter().map(|&c| random_codes(rng, n, c)).collect();
    if numeric_first {
        [num, cat].concat()
    } else {
        // Interleaved, starting with a categorical column.
        vec![
            cat[0].clone(),
            num[0].clone(),
            cat[1].clone(),
            num[1].clone(),
            cat[2].clone(),
            num[2].clone(),
        ]
    }
}

#[test]
fn smote_lists_match_a_stable_sort_on_random_tables() {
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(20..90);
        for numeric_first in [true, false] {
            let cols = random_cols(&mut rng, n, numeric_first);
            for k in [1, 5] {
                assert_smote_lists_match(&cols, k, &format!("seed {seed}"));
            }
        }
    }
}

#[test]
fn smote_lists_match_a_stable_sort_on_tie_heavy_tables() {
    let mut rng = StdRng::seed_from_u64(42);
    let n = 40;
    let small = |rng: &mut StdRng| -> Vec<f64> {
        (0..n).map(|_| f64::from(rng.gen_range(0..3u8))).collect()
    };
    // Every row twice, with few distinct values: many exact ties.
    let half: Vec<Col> = vec![
        Col::Num((0..n / 2).map(|i| (i % 3) as f64).collect()),
        Col::Cat((0..n / 2).map(|i| (i % 2) as u32).collect(), 2),
        Col::Num((0..n / 2).map(|i| (i % 4) as f64 * 0.5).collect()),
    ];
    let duplicated: Vec<Col> = half
        .iter()
        .map(|c| match c {
            Col::Num(v) => Col::Num([v.clone(), v.clone()].concat()),
            Col::Cat(codes, card) => Col::Cat([codes.clone(), codes.clone()].concat(), *card),
        })
        .collect();
    let cases: Vec<(&str, Vec<Col>)> = vec![
        ("duplicate rows", duplicated),
        (
            "constant numeric column",
            vec![
                Col::Num(vec![3.5; n]),
                random_codes(&mut rng, n, 3),
                Col::Num(small(&mut rng)),
            ],
        ),
        (
            "single-category column",
            vec![
                Col::Cat(vec![0; n], 1),
                Col::Num(small(&mut rng)),
                random_codes(&mut rng, n, 2),
            ],
        ),
        (
            "all rows in one group",
            vec![
                Col::Num(small(&mut rng)),
                Col::Cat(vec![1; n], 3),
                Col::Num(small(&mut rng)),
            ],
        ),
        (
            "every row in its own group",
            vec![
                Col::Num(small(&mut rng)),
                Col::Cat((0..n as u32).collect(), n as u32),
            ],
        ),
        (
            // The first half's group, at lower indices, ties the second
            // half's own-group distances at exactly one mismatch (2.0).
            "ties across groups",
            vec![
                Col::Num((0..n).map(|i| (i % 2) as f64).collect()),
                Col::Cat((0..n).map(|i| u32::from(i < n / 2)).collect(), 2),
                Col::Num((0..n).map(|i| (i / 2 % 2) as f64).collect()),
            ],
        ),
        ("no categorical column", vec![Col::Num(small(&mut rng))]),
        (
            "no numerical column",
            vec![random_codes(&mut rng, n, 2), random_codes(&mut rng, n, 3)],
        ),
    ];
    for (case, cols) in &cases {
        for k in 1..n + 2 {
            assert_smote_lists_match(cols, k, case);
        }
    }
}

#[test]
fn smote_lists_match_on_two_rows_and_k_past_the_row_count() {
    for cols in [
        vec![Col::Num(vec![1.0, 1.0]), Col::Cat(vec![0, 0], 2)],
        vec![Col::Cat(vec![0, 1], 2), Col::Num(vec![0.25, -4.0])],
    ] {
        for k in [1, 2, 7] {
            assert_smote_lists_match(&cols, k, "two rows");
        }
    }
    let mut rng = StdRng::seed_from_u64(9);
    let cols = random_cols(&mut rng, 6, false);
    for k in 5..9 {
        assert_smote_lists_match(&cols, k, "six rows");
    }
}

// ---------------------------------------------------------------------------
// DCR
// ---------------------------------------------------------------------------

/// DCR as it was computed before the kernel: every synthetic row against
/// every training row, numerical terms in schema order then one per
/// mismatched category, a partial sum at or above the best stopping the row.
fn old_dcr(train: &Table, synthetic: &Table, config: DcrConfig) -> f64 {
    let schema = train.schema();
    let numeric_names = schema.numerical_names();
    let cat_names = schema.categorical_names();
    let subsample = |n: usize, cap: usize| -> Vec<usize> {
        if n <= cap {
            (0..n).collect()
        } else {
            (0..cap).map(|i| i * n / cap).collect()
        }
    };
    let encode_numeric = |table: &Table| -> Vec<Vec<f64>> {
        numeric_names
            .iter()
            .map(|name| {
                let v = train.numerical(name).unwrap();
                let finite = || v.iter().copied().filter(|x| x.is_finite());
                let min = finite().fold(f64::INFINITY, f64::min);
                let max = finite().fold(f64::NEG_INFINITY, f64::max);
                let span = if (max - min).abs() < 1e-300 {
                    1.0
                } else {
                    max - min
                };
                table
                    .numerical(name)
                    .unwrap()
                    .iter()
                    .map(|x| (x - min) / span)
                    .collect()
            })
            .collect()
    };
    let train_num = encode_numeric(train);
    let syn_num = encode_numeric(synthetic);
    let train_cat: Vec<Vec<u32>> = cat_names
        .iter()
        .map(|name| train.codes(name).unwrap().to_vec())
        .collect();
    let syn_cat: Vec<Vec<u32>> = cat_names
        .iter()
        .map(|name| {
            let vocab = train.vocab(name).unwrap();
            (0..synthetic.n_rows())
                .map(|r| {
                    let label = synthetic.label(name, r).unwrap();
                    vocab
                        .iter()
                        .position(|v| v == label)
                        .map_or(u32::MAX, |i| i as u32)
                })
                .collect()
        })
        .collect();
    let train_rows = subsample(train.n_rows(), config.max_train_rows);
    let syn_rows = subsample(synthetic.n_rows(), config.max_synthetic_rows);
    let total: f64 = syn_rows
        .iter()
        .map(|&s| {
            let mut best = f64::INFINITY;
            for &t in &train_rows {
                let mut d = 0.0;
                for col in 0..syn_num.len() {
                    let diff = syn_num[col][s] - train_num[col][t];
                    d += diff * diff;
                    if d >= best {
                        break;
                    }
                }
                if d < best {
                    for col in 0..syn_cat.len() {
                        if syn_cat[col][s] != train_cat[col][t] {
                            d += 1.0;
                        }
                        if d >= best {
                            break;
                        }
                    }
                }
                if d < best {
                    best = d;
                }
            }
            best.sqrt()
        })
        .sum();
    total / syn_rows.len() as f64
}

const SITES: [&str; 5] = ["BNL", "CERN", "SLAC", "FNAL", "RAL"];

fn table(cols: Vec<(&str, Column)>) -> Table {
    let mut t = Table::new();
    for (name, col) in cols {
        t.push_column(name, col).unwrap();
    }
    t
}

fn random_table(rng: &mut StdRng, n: usize, numeric_first: bool, sites: usize) -> Table {
    let site: Vec<&str> = (0..n).map(|_| SITES[rng.gen_range(0..sites)]).collect();
    let kind: Vec<&str> = (0..n)
        .map(|_| if rng.gen_bool(0.3) { "user" } else { "prod" })
        .collect();
    let num = |rng: &mut StdRng| Column::Numerical(random_numeric(rng, n));
    let (a, b) = (num(rng), num(rng));
    if numeric_first {
        table(vec![
            ("a", a),
            ("b", b),
            ("site", Column::from_labels(&site)),
            ("kind", Column::from_labels(&kind)),
        ])
    } else {
        table(vec![
            ("site", Column::from_labels(&site)),
            ("a", a),
            ("kind", Column::from_labels(&kind)),
            ("b", b),
        ])
    }
}

fn assert_dcr_matches(train: &Table, synthetic: &Table, case: &str) {
    for config in [
        DcrConfig::default(),
        DcrConfig {
            max_synthetic_rows: 7,
            max_train_rows: 13,
        },
    ] {
        let want = old_dcr(train, synthetic, config);
        let got = distance_to_closest_record(train, synthetic, config);
        assert_eq!(got.to_bits(), want.to_bits(), "{case}: {got} vs {want}");
    }
}

#[test]
fn dcr_matches_the_full_scan_on_random_tables() {
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        for numeric_first in [true, false] {
            let (n_train, n_synthetic) = (rng.gen_range(20..80), rng.gen_range(10..60));
            let train = random_table(&mut rng, n_train, numeric_first, 5);
            let synthetic = random_table(&mut rng, n_synthetic, numeric_first, 5);
            assert_dcr_matches(&train, &synthetic, &format!("seed {seed}"));
            assert_dcr_matches(&train, &train, &format!("seed {seed}, self"));
        }
    }
}

#[test]
fn dcr_matches_the_full_scan_on_tie_heavy_tables() {
    let n = 30;
    let steps = |m: usize| Column::Numerical((0..n).map(|i| (i % m) as f64).collect());
    let labels = |m: usize| -> Vec<&str> { (0..n).map(|i| SITES[i % m]).collect() };
    let train = table(vec![
        ("a", steps(3)),
        ("c", Column::Numerical(vec![2.0; n])),
        ("site", Column::from_labels(&labels(2))),
        ("one", Column::from_labels(&vec!["x"; n])),
    ]);
    // Duplicates of training rows, and rows between them.
    let synthetic = table(vec![
        (
            "a",
            Column::Numerical((0..n).map(|i| (i % 5) as f64 * 0.5).collect()),
        ),
        ("c", Column::Numerical(vec![2.0; n])),
        ("site", Column::from_labels(&labels(3))),
        ("one", Column::from_labels(&vec!["x"; n])),
    ]);
    assert_dcr_matches(&train, &synthetic, "ties");
    assert_dcr_matches(&train, &train, "duplicates");
    // Every training row in its own group.
    let own = table(vec![
        ("a", steps(4)),
        (
            "id",
            Column::Categorical {
                codes: (0..n as u32).collect(),
                vocab: (0..n).map(|i| format!("r{i}")).collect(),
            },
        ),
    ]);
    assert_dcr_matches(&own, &own, "own groups");
    let two = table(vec![
        ("a", Column::Numerical(vec![0.0, 1.0])),
        ("site", Column::from_labels(&["BNL", "BNL"])),
    ]);
    assert_dcr_matches(&two, &two, "two rows");
}

#[test]
fn dcr_matches_the_full_scan_with_non_finite_values_and_unseen_labels() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut train = random_table(&mut rng, 40, true, 3);
    if let Column::Numerical(v) = train.column_mut("b").unwrap() {
        v[3] = f64::NAN;
        v[5] = f64::INFINITY;
    }
    let mut synthetic = random_table(&mut rng, 25, true, 5);
    if let Column::Numerical(v) = synthetic.column_mut("a").unwrap() {
        v[0] = f64::NAN;
        v[1] = f64::INFINITY;
        v[2] = f64::NEG_INFINITY;
    }
    // Synthetic vocabulary in another order, with labels training never saw
    // ("FNAL", "RAL" and "new").
    if let Column::Categorical { codes, vocab } = synthetic.column_mut("site").unwrap() {
        vocab.reverse();
        vocab.push("new".to_string());
        codes[4] = vocab.len() as u32 - 1;
    }
    assert_dcr_matches(&train, &synthetic, "non-finite and unseen");
    // A synthetic table of NaNs alone has no finite nearest distance.
    let all_nan = table(vec![
        ("a", Column::Numerical(vec![f64::NAN; 3])),
        ("b", Column::Numerical(vec![1.0; 3])),
        ("site", Column::from_labels(&["BNL"; 3])),
        ("kind", Column::from_labels(&["prod"; 3])),
    ]);
    assert_dcr_matches(&train, &all_nan, "all NaN");
    assert_eq!(
        distance_to_closest_record(&train, &all_nan, DcrConfig::default()),
        f64::INFINITY
    );
}
