//! MLEF(train → test) pinned bit for bit on a prepared PanDA split, under
//! the paper's probe and the fast test probe.

use metrics::{mlef_mse, MlefConfig};
use pandasim::GeneratorConfig;
use surrogate::prepare_data_from_config;

#[test]
fn train_to_test_mlef_is_pinned_bit_for_bit() {
    // Any change to the design matrix, or to the booster's split finding,
    // partition order or histogram summation order, can move these bits.
    let data = prepare_data_from_config(&GeneratorConfig {
        gross_records: 3_000,
        ..GeneratorConfig::default()
    });
    let paper = mlef_mse(&data.train, &data.test, &MlefConfig::default());
    let fast = mlef_mse(&data.train, &data.test, &MlefConfig::fast());
    assert_eq!(
        paper.to_bits(),
        0x4002_1181_169f_7fe0,
        "paper probe: {paper}"
    );
    assert_eq!(fast.to_bits(), 0x3ff6_22cf_12f7_9e04, "fast probe: {fast}");
}
