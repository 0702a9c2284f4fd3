//! SMOTE's neighbour lists and DCR pinned bit for bit on a prepared PanDA
//! split: both rest on one exact nearest-neighbour search, and any change
//! to its distance arithmetic, pruning or tie order can move these values.

use metrics::{distance_to_closest_record, DcrConfig};
use pandasim::GeneratorConfig;
use surrogate::{fnv1a_hex, prepare_data_from_config, SmoteConfig, SmoteSampler, TabularGenerator};

#[test]
fn smote_neighbours_and_dcr_are_pinned_bit_for_bit() {
    let data = prepare_data_from_config(&GeneratorConfig {
        gross_records: 3_000,
        ..GeneratorConfig::default()
    });
    let mut smote = SmoteSampler::new(SmoteConfig::default());
    smote.fit(&data.train).unwrap();
    // The payload holds the codec, the anchor matrix and every anchor's
    // neighbour list in order.
    let payload = serde_json::to_string(&smote).unwrap();
    assert_eq!(fnv1a_hex(payload.as_bytes()), "8ba570b2021d9505");

    let synthetic = smote.sample(data.train.n_rows(), 2025).unwrap();
    let smote_dcr = distance_to_closest_record(&data.train, &synthetic, DcrConfig::default());
    let test_dcr = distance_to_closest_record(&data.train, &data.test, DcrConfig::default());
    assert_eq!(
        smote_dcr.to_bits(),
        0x3fa6_0304_b7d8_0c24,
        "SMOTE sample: {smote_dcr}"
    );
    assert_eq!(
        test_dcr.to_bits(),
        0x3fe1_3dc6_746c_0e1d,
        "test table: {test_dcr}"
    );
}
