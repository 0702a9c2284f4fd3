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
//! A second leg fits each model at its `Default` (standard-budget) widths
//! and batch size for one epoch on the same split, and pins the checkpoint
//! digest and the two tables of one `sample_batch` of 37 and 301 rows. At
//! smoke widths no product is large enough for the packed matmul driver;
//! at these widths the training and sampling products run through it,
//! including its partial tiles: row counts that are not a multiple of the
//! register-tile height (the 37- and 301-row tables, TVAE's short last
//! batch) and odd column counts (the 101-wide input gradient of
//! CTABGAN+'s discriminator), so the tile edges are pinned at every lane
//! width.
//!
//! Scope:
//! - The pins hold on the `scalar`, `sse2`, `avx2` and `avx512` SIMD tiers,
//!   which are bit-exact to each other. Only the opt-in `fma` tier breaks
//!   them: its fused multiply-adds round differently.
//! - They assume the host's libm for `exp`, `ln`, `sin` and `cos`, as the
//!   other pins in this workspace do. On x86-64 hosts with FMA, glibc picks
//!   separately compiled builds of those functions at load time.
//!
//! Re-pinning: a change that moves any digest here lands as one commit that
//! re-pins this file and states why in its message and in CHANGES.md.

use panda_surrogate::metrics::{evaluate_against, EvaluationConfig, MlefBaseline};
use panda_surrogate::pandasim::GeneratorConfig;
use panda_surrogate::surrogate::checkpoint::{Checkpoint, CheckpointPayload};
use panda_surrogate::surrogate::{
    build_payload, fnv1a_hex, prepare_data_from_config, CtabGan, CtabGanConfig, ModelKind,
    PreparedData, SampleSpec, TabDdpm, TabDdpmConfig, TrainingBudget, Tvae, TvaeConfig,
};
use panda_surrogate::tabular::Table;
use std::path::Path;

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
    let data = pinned_split();
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
        let payload = build_payload(*kind, TrainingBudget::Smoke, 2024);
        let (checkpoint, tables) =
            fit_save_and_sample(*kind, payload, TrainingBudget::Smoke, &data, &dir, &specs);
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
            checkpoint,
            tables: [table_digest(&tables[0]), table_digest(&tables[1])],
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

/// The split both legs fit on.
fn pinned_split() -> PreparedData {
    prepare_data_from_config(&GeneratorConfig {
        gross_records: 1_500,
        ..GeneratorConfig::default()
    })
}

/// Fit `payload` on the training split, save it as a checkpoint into `dir`
/// and sample `specs` from it. Returns the digest of the saved file and the
/// sampled tables.
fn fit_save_and_sample(
    kind: ModelKind,
    mut payload: CheckpointPayload,
    budget: TrainingBudget,
    data: &PreparedData,
    dir: &Path,
    specs: &[SampleSpec],
) -> (String, Vec<Table>) {
    payload
        .generator_mut()
        .fit(&data.train)
        .unwrap_or_else(|e| panic!("{} failed to fit: {e}", kind.name()));
    let checkpoint = Checkpoint::new("default", 2024, budget, payload);
    let path = checkpoint.save_to_dir(dir).unwrap();
    let saved = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let tables = checkpoint.sample_batch(specs).unwrap();
    (fnv1a_hex(&saved), tables)
}

/// Digest of a table's JSON rendering.
fn table_digest(table: &Table) -> String {
    let json = serde_json::to_string(table).expect("table serializes");
    fnv1a_hex(json.as_bytes())
}

/// Paper-shape pins: checkpoint digest, then the digests of the 37-row and
/// the 301-row table.
const PAPER_PINS: [(ModelKind, [&str; 3]); 3] = [
    (
        ModelKind::Tvae,
        ["0dd446ad58aba741", "b5fcb5cd420033de", "c693b810120cf772"],
    ),
    (
        ModelKind::CtabGan,
        ["cf0e24108714fcb3", "07f1d9836069c95c", "a7b2dd76de6c860e"],
    ),
    (
        ModelKind::TabDdpm,
        ["3dae87abf9e983f8", "89cfa91d4630137c", "313431b987321b0d"],
    ),
];

/// Each neural model at its `Default` widths and batch size, one epoch.
/// TabDDPM runs 10 diffusion steps instead of 100: the step count changes
/// no product's shape, and sampling at 100 steps alone would take about
/// half a minute in a debug build.
fn paper_shape_payload(kind: ModelKind) -> CheckpointPayload {
    match kind {
        ModelKind::Tvae => CheckpointPayload::Tvae(Tvae::new(TvaeConfig {
            epochs: 1,
            seed: 2024,
            ..TvaeConfig::default()
        })),
        ModelKind::CtabGan => CheckpointPayload::CtabGan(CtabGan::new(CtabGanConfig {
            epochs: 1,
            seed: 2024,
            ..CtabGanConfig::default()
        })),
        ModelKind::TabDdpm => CheckpointPayload::TabDdpm(TabDdpm::new(TabDdpmConfig {
            epochs: 1,
            timesteps: 10,
            seed: 2024,
            ..TabDdpmConfig::default()
        })),
        ModelKind::Smote => unreachable!("SMOTE has no network"),
    }
}

#[test]
fn neural_generators_are_pinned_at_paper_shapes() {
    let data = pinned_split();
    let specs = [SampleSpec::new(37, 7), SampleSpec::new(301, 2025)];
    let dir =
        std::env::temp_dir().join(format!("panda_generator_pin_paper_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut mismatches = Vec::new();
    for (kind, pins) in &PAPER_PINS {
        let payload = paper_shape_payload(*kind);
        let (checkpoint, tables) = fit_save_and_sample(
            *kind,
            payload,
            TrainingBudget::Standard,
            &data,
            &dir,
            &specs,
        );
        let measured = [
            checkpoint,
            table_digest(&tables[0]),
            table_digest(&tables[1]),
        ];
        if measured != *pins {
            mismatches.push(format!("{}: {measured:?}", kind.name()));
        }
    }
    std::fs::remove_dir(&dir).unwrap();
    assert!(
        mismatches.is_empty(),
        "paper-shape generator pins moved:\n{}",
        mismatches.join("\n")
    );
}
