//! Ablation studies over the design choices listed in DESIGN.md §5.
//!
//! They check that the trade-offs the paper discusses actually show up in
//! the metrics (e.g. SMOTE's privacy risk shrinking as interpolation reaches
//! further, diffusion quality improving with more timesteps).

use panda_surrogate::metrics::{distance_to_closest_record, mean_wasserstein, DcrConfig};
use panda_surrogate::nn::matrix::reference;
use panda_surrogate::nn::Matrix;
use panda_surrogate::surrogate::{
    prepare_data, ExperimentOptions, SmoteConfig, SmoteSampler, TabDdpm, TabDdpmConfig, TableCodec,
    TabularGenerator,
};
use panda_surrogate::tabular::Table;

/// The live kernels must still agree bit-for-bit with the frozen seed
/// reference on training-shaped products. Every pinned tolerance below was
/// measured through these kernels; this anchor means a future kernel change
/// that breaks bit-exactness (e.g. an FMA tier) shows up here first rather
/// than as a mysterious tolerance failure in the ablation numbers.
#[test]
fn live_kernels_match_the_seed_reference_on_training_shapes() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(77);
    for &(m, k, n) in &[(64usize, 33usize, 17usize), (97, 61, 113)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        assert_eq!(
            a.matmul(&b).data(),
            reference::matmul(&a, &b).data(),
            "live matmul drifted from nn::matrix::reference on {m}x{k}x{n}"
        );
    }
}

fn training_table(gross: usize, seed: u64) -> Table {
    // The full (unsplit) modelling table from the shared preparation path.
    let data = prepare_data(&ExperimentOptions {
        gross_records: gross,
        seed,
        ..ExperimentOptions::default()
    });
    data.table
}

#[test]
fn smote_neighbourhood_size_trades_privacy_for_fidelity() {
    let train = training_table(4_000, 21);
    let dcr_config = DcrConfig {
        max_synthetic_rows: 800,
        max_train_rows: 4_000,
    };
    let mut dcr_by_k = Vec::new();
    for k in [1usize, 15] {
        let mut smote = SmoteSampler::new(SmoteConfig {
            k_neighbors: k,
            ..SmoteConfig::default()
        });
        smote.fit(&train).unwrap();
        let synthetic = smote.sample(1_000, 5).unwrap();
        let dcr = distance_to_closest_record(&train, &synthetic, dcr_config);
        let wd = mean_wasserstein(&train, &synthetic).unwrap();
        // Fidelity stays high for any k. Re-pinned (2026-07, PR 4) from the
        // seed-era `wd < 0.15` against the bit-exact kernels: measured WD is
        // 0.0082 (k=1) / 0.0102 (k=15) at this seed, so 0.03 is a ~3x margin
        // that still fails on any real fidelity regression.
        assert!(wd < 0.03, "k={k}: WD {wd}");
        dcr_by_k.push((k, dcr));
    }
    // Interpolating towards the 15th-nearest neighbour strays further from
    // the anchor than interpolating towards the 1st-nearest one.
    assert!(
        dcr_by_k[1].1 > dcr_by_k[0].1,
        "DCR did not grow with k: {dcr_by_k:?}"
    );
}

#[test]
fn tabddpm_with_more_timesteps_is_at_least_as_faithful() {
    let train = training_table(3_000, 22);
    let mut wd_by_steps = Vec::new();
    for timesteps in [3usize, 20] {
        let mut model = TabDdpm::new(TabDdpmConfig {
            timesteps,
            ..TabDdpmConfig::fast()
        });
        model.fit(&train).unwrap();
        let synthetic = model.sample(1_500, 9).unwrap();
        wd_by_steps.push((timesteps, mean_wasserstein(&train, &synthetic).unwrap()));
    }
    // A 3-step reverse process is a very coarse sampler; 20 steps must not
    // be meaningfully worse. Re-pinned (2026-07, PR 4) from the seed-era
    // `* 1.25 + 0.02` slack against the bit-exact kernels: measured WD is
    // 0.3741 (t=3) vs 0.3765 (t=20) at this seed — a 0.7% gap — so a 5%
    // ratio plus 0.01 absolute slack is a real bound instead of a bound
    // that a 25% degradation would still have slipped through.
    assert!(
        wd_by_steps[1].1 <= wd_by_steps[0].1 * 1.05 + 0.01,
        "more timesteps degraded fidelity: {wd_by_steps:?}"
    );
}

#[test]
fn codec_one_hot_layout_matches_vocabulary_sizes() {
    let train = training_table(2_000, 23);
    let codec = TableCodec::fit(&train).unwrap();
    let expected_width: usize = train
        .columns()
        .iter()
        .map(|c| match c {
            panda_surrogate::tabular::Column::Numerical(_) => 1,
            panda_surrogate::tabular::Column::Categorical { vocab, .. } => vocab.len(),
        })
        .sum();
    assert_eq!(codec.encoded_width(), expected_width);
    // Encoding and decoding the training table must preserve every
    // categorical label (the decode is arg-max over exact one-hots).
    let encoded = codec.encode(&train).unwrap();
    let decoded = codec.decode(&encoded).unwrap();
    for column in ["jobstatus", "computingsite", "datatype"] {
        for r in (0..train.n_rows()).step_by(97) {
            assert_eq!(
                decoded.label(column, r).unwrap(),
                train.label(column, r).unwrap()
            );
        }
    }
}

#[test]
fn dcr_space_choice_numeric_only_vs_mixed() {
    // Dropping the categorical columns from the DCR computation loses the
    // mismatch penalty, so the mixed-space DCR is never smaller than the
    // numeric-only one on the same rows.
    let train = training_table(2_500, 24);
    let mut smote = SmoteSampler::new(SmoteConfig::default());
    smote.fit(&train).unwrap();
    let synthetic = smote.sample(600, 2).unwrap();

    let dcr_config = DcrConfig {
        max_synthetic_rows: 600,
        max_train_rows: 3_000,
    };
    let mixed = distance_to_closest_record(&train, &synthetic, dcr_config);

    let numeric_columns = [
        "creationtime",
        "ninputdatafiles",
        "inputfilebytes",
        "workload",
    ];
    let train_numeric = train.select(&numeric_columns).unwrap();
    let synthetic_numeric = synthetic.select(&numeric_columns).unwrap();
    let numeric_only = distance_to_closest_record(&train_numeric, &synthetic_numeric, dcr_config);

    assert!(
        mixed + 1e-9 >= numeric_only,
        "mixed {mixed} < numeric-only {numeric_only}"
    );
}
