//! MLEF(train → test) pinned bit for bit on a prepared PanDA split, under
//! the paper's probe and the fast test probe.

use metrics::{mlef_mse, MlefConfig};
use pandasim::GeneratorConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surrogate::{prepare_data_from_config, PreparedData};

fn split() -> PreparedData {
    prepare_data_from_config(&GeneratorConfig {
        gross_records: 3_000,
        ..GeneratorConfig::default()
    })
}

#[test]
fn train_to_test_mlef_is_pinned_bit_for_bit() {
    // Any change to the design matrix, or to the booster's split finding,
    // partition order or histogram summation order, can move these bits.
    let data = split();
    let paper = mlef_mse(&data.train, &data.test, &MlefConfig::default());
    let fast = mlef_mse(&data.train, &data.test, &MlefConfig::fast());
    assert_eq!(
        paper.to_bits(),
        0x4002_1181_169f_7fe0,
        "paper probe: {paper}"
    );
    assert_eq!(fast.to_bits(), 0x3ff6_22cf_12f7_9e04, "fast probe: {fast}");
}

#[test]
fn resampled_train_to_test_mlef_is_pinned_bit_for_bit() {
    // The training split resampled with replacement, seeded: a second
    // PanDA design matrix, with repeated rows, under the same two probes.
    // The booster derives the larger child's histogram as parent − smaller
    // child, whose sums can differ from a direct fill in their low bits.
    // That moves the fast probe's value on this draw, though not on the
    // split above, so this pin sees that arithmetic.
    let data = split();
    let n = data.train.n_rows();
    let mut rng = StdRng::seed_from_u64(13);
    let draw: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    let resampled = data.train.take(&draw);
    let paper = mlef_mse(&resampled, &data.test, &MlefConfig::default());
    let fast = mlef_mse(&resampled, &data.test, &MlefConfig::fast());
    assert_eq!(
        paper.to_bits(),
        0x4002_dcbf_4d62_3bfe,
        "paper probe: {paper}"
    );
    assert_eq!(fast.to_bits(), 0x3ff7_b21c_bd5a_7337, "fast probe: {fast}");
}
