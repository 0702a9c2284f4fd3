//! TVAE, CTABGAN+ and TabDDPM pinned bit for bit on a prepared PanDA split.
//!
//! Each neural model is fitted at smoke budget on
//! `prepare_data_from_config`. Three things are pinned per model:
//! - the FNV-1a digest of the bytes `Checkpoint::save_to_dir` writes, which
//!   hold every trained weight, the codec and the loss history;
//! - the digests of the two tables that one `sample_batch` call returns for
//!   two specs, so the coalesced sampling path is covered;
//! - the bits of the five `metrics::evaluate_against` values (WD, JSD,
//!   diff-CORR, DCR, diff-MLEF) of the first table.
//!
//! A change to any kernel's summation order, an optimiser constant, a
//! noise draw, a schedule or the timestep embedding moves these values.
//!
//! Scope:
//! - The pins hold on the `scalar`, `sse2` and `avx2` SIMD tiers, which are
//!   bit-exact to each other. They do not hold under the opt-in `fma` and
//!   `avx512` tiers, whose fused multiply-adds round differently.
//! - They assume the host's libm for `exp`, `ln`, `sin` and `cos`, as the
//!   other pins in this workspace do. On x86-64 hosts with FMA, glibc picks
//!   separately compiled builds of those functions at load time.
//!
//! Re-pinning: a change that moves any digest here lands as one commit that
//! re-pins this file and states why in its message and in CHANGES.md.

use panda_surrogate::metrics::{evaluate_against, EvaluationConfig, MlefBaseline};
use panda_surrogate::pandasim::GeneratorConfig;
use panda_surrogate::surrogate::checkpoint::Checkpoint;
use panda_surrogate::surrogate::{
    build_payload, fnv1a_hex, prepare_data_from_config, ModelKind, SampleSpec, TrainingBudget,
};

/// What one model's run is pinned to.
struct Pins {
    /// Digest of the saved checkpoint file.
    checkpoint: &'static str,
    /// Digests of the JSON of each table of the two-spec `sample_batch`.
    tables: [&'static str; 2],
    /// Bits of WD, JSD, diff-CORR, DCR and diff-MLEF of the first table.
    metrics: [u64; 5],
}

/// The same record, as measured.
#[derive(Debug)]
struct Measured {
    checkpoint: String,
    tables: [String; 2],
    metrics: [u64; 5],
}

impl Measured {
    fn matches(&self, pins: &Pins) -> bool {
        self.checkpoint == pins.checkpoint
            && self.tables == pins.tables
            && self.metrics == pins.metrics
    }
}

const PINS: [(ModelKind, Pins); 3] = [
    (
        ModelKind::Tvae,
        Pins {
            checkpoint: "8f627e121866e723",
            tables: ["40f5c5fd1ca92826", "8a9c9f0026cfc63b"],
            metrics: [
                0x3fb4_0d66_b27d_7423,
                0x3fc3_0ab3_f71f_24a1,
                0x3fd6_39e4_b1d9_6970,
                0x3fb5_968c_db18_762b,
                0xbfb6_1d79_3f97_b400,
            ],
        },
    ),
    (
        ModelKind::CtabGan,
        Pins {
            checkpoint: "95422aaf0bd2d9c3",
            tables: ["b1acdf8d6f2881df", "2029dd5df58d23a6"],
            metrics: [
                0x3fb8_0d5b_db9e_0331,
                0x3fc9_8ae1_2122_7fba,
                0x3fc7_1e61_9703_3e89,
                0x3fea_3083_813e_5f36,
                0x3fe3_b701_56c8_8f34,
            ],
        },
    ),
    (
        ModelKind::TabDdpm,
        Pins {
            checkpoint: "abb6c7cc6a35c2a9",
            tables: ["5f42401d12f36831", "d3612aefae34e7d4"],
            metrics: [
                0x3fd9_54f4_7f4a_702c,
                0x3fc9_12cf_a364_cb08,
                0x3fbf_287c_b5c5_8669,
                0x3ffc_baef_b131_6c75,
                0x4016_8618_9494_2aae,
            ],
        },
    ),
];

#[test]
fn neural_generators_are_pinned_bit_for_bit() {
    let data = prepare_data_from_config(&GeneratorConfig {
        gross_records: 1_500,
        ..GeneratorConfig::default()
    });
    let specs = [
        SampleSpec::new(data.train.n_rows(), 2025),
        SampleSpec::new(37, 7),
    ];
    let config = EvaluationConfig::fast();
    let baseline = MlefBaseline::default();
    let dir = std::env::temp_dir().join(format!("panda_generator_pin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut mismatches = Vec::new();
    for (kind, pins) in &PINS {
        let mut payload = build_payload(*kind, TrainingBudget::Smoke, 2024);
        payload
            .generator_mut()
            .fit(&data.train)
            .unwrap_or_else(|e| panic!("{} failed to fit: {e}", kind.name()));
        let checkpoint = Checkpoint::new("default", 2024, TrainingBudget::Smoke, payload);
        let path = checkpoint.save_to_dir(&dir).unwrap();
        let saved = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let tables = checkpoint.sample_batch(&specs).unwrap();
        let digest = |i: usize| {
            let json = serde_json::to_string(&tables[i]).expect("table serializes");
            fnv1a_hex(json.as_bytes())
        };
        let report = evaluate_against(
            kind.name(),
            &data.train,
            &data.test,
            &tables[0],
            &config,
            &baseline,
        )
        .unwrap_or_else(|e| panic!("{} could not be scored: {e}", kind.name()));
        let diff_mlef = report.diff_mlef.expect("the fast config runs MLEF");
        let measured = Measured {
            checkpoint: fnv1a_hex(&saved),
            tables: [digest(0), digest(1)],
            metrics: [
                report.wd,
                report.jsd,
                report.diff_corr,
                report.dcr,
                diff_mlef,
            ]
            .map(f64::to_bits),
        };
        if !measured.matches(pins) {
            mismatches.push(format!("{}: {measured:x?}", kind.name()));
        }
    }
    std::fs::remove_dir(&dir).unwrap();
    assert!(
        mismatches.is_empty(),
        "generator pins moved:\n{}",
        mismatches.join("\n")
    );
}
