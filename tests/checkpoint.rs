//! Integration tests for crash-safe model checkpoints
//! (`surrogate::checkpoint`): a fitted generator saved, reloaded and
//! resampled must be byte-identical to the in-memory original for every
//! model kind; truncation at *every* byte offset and single-character
//! corruption must be rejected with typed errors; and a checkpoint
//! directory with damaged entries must load degraded, never fail.
//!
//! CI reruns this suite under every `SURROGATE_SIMD` tier (see the
//! simd-matrix job), so the byte-identity guarantee is pinned across
//! dispatch paths too.

use std::path::PathBuf;

use panda_surrogate::surrogate::checkpoint::{
    Checkpoint, CheckpointError, CheckpointPayload, CheckpointRegistry, CHECKPOINT_VERSION,
};
use panda_surrogate::surrogate::{
    build_payload, ModelKind, SampleSpec, SurrogateError, TrainingBudget,
};
use panda_surrogate::tabular::{Column, Table};
use serde_json::Value;

/// A deterministic mixed-type training table, small enough that all four
/// models fit in test time.
fn toy(n: usize) -> Table {
    let values: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 1.37).sin() * 40.0 + i as f64 * 0.25 + 5.0)
        .collect();
    let labels: Vec<&str> = (0..n)
        .map(|i| match i % 3 {
            0 => "BNL",
            1 => "CERN",
            _ => "SLAC",
        })
        .collect();
    let mut t = Table::new();
    t.push_column("workload", Column::Numerical(values))
        .unwrap();
    t.push_column("site", Column::from_labels(&labels)).unwrap();
    t
}

/// Fit a checkpointable payload of `kind` on the toy table.
fn fitted(kind: ModelKind, seed: u64) -> Checkpoint {
    let train = toy(90);
    let mut payload = build_payload(kind, TrainingBudget::Smoke, seed);
    payload
        .generator_mut()
        .fit(&train)
        .unwrap_or_else(|e| panic!("{} failed to fit: {e}", kind.name()));
    Checkpoint::new("small", seed, TrainingBudget::Smoke, payload)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("panda_ckpt_it_{}_{name}", std::process::id()))
}

#[test]
fn save_load_sample_is_byte_identical_for_every_model_kind() {
    for kind in ModelKind::ALL {
        let checkpoint = fitted(kind, 2024);
        let path = temp_path(&checkpoint.file_name());
        checkpoint.save(&path).unwrap();

        let loaded = Checkpoint::load(&path).unwrap_or_else(|e| {
            panic!("{} failed to reload: {e}", kind.name());
        });
        assert_eq!(loaded.model, kind);
        assert_eq!(loaded.key(), checkpoint.key());

        // The reloaded generator must sample the *same bytes* as the
        // fitted in-memory one — the property that makes "train once,
        // serve forever" sound. Table derives PartialEq, so this is a
        // full bit-level comparison of every float.
        for sample_seed in [7u64, 2025] {
            let original = checkpoint.sample(48, sample_seed).unwrap();
            let reloaded = loaded.sample(48, sample_seed).unwrap();
            assert_eq!(
                original,
                reloaded,
                "{} sampled differently after reload (seed {sample_seed})",
                kind.name()
            );
        }

        // A second save of the reloaded model is byte-identical on disk.
        let resaved = temp_path(&format!("resave-{}", checkpoint.file_name()));
        loaded.save(&resaved).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&resaved).unwrap(),
            "{} re-render is not byte-stable",
            kind.name()
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&resaved).unwrap();
    }
}

#[test]
fn half_fitted_payload_answers_not_fitted_for_every_model_kind() {
    // A hand-edited checkpoint can keep the fitted codec but lose the
    // network (SMOTE: its anchors) — the FNV fingerprint can be recomputed
    // after the edit. Every sampling entry point must then answer
    // `NotFitted` instead of panicking.
    for (kind, network) in [
        (ModelKind::Tvae, "decoder"),
        (ModelKind::CtabGan, "generator"),
        (ModelKind::Smote, "anchors"),
        (ModelKind::TabDdpm, "denoiser"),
    ] {
        let rendered = serde_json::to_string(&fitted(kind, 5).payload).unwrap();
        let mut value: Value = serde_json::from_str(&rendered).unwrap();
        let Value::Object(variant) = &mut value else {
            panic!("{}: payload is not an object", kind.name());
        };
        let Value::Object(members) = &mut variant[0].1 else {
            panic!("{}: model is not an object", kind.name());
        };
        for (key, member) in members.iter_mut() {
            if key == "codec" {
                assert_ne!(*member, Value::Null, "{}: codec must stay", kind.name());
            } else if key == network {
                *member = Value::Null;
            }
        }
        let payload: CheckpointPayload = serde_json::from_value(&value).unwrap();
        let model = payload.generator();
        let not_fitted = |result: Result<(), SurrogateError>| {
            assert_eq!(result, Err(SurrogateError::NotFitted(kind.name())));
        };
        not_fitted(model.sample(8, 1).map(drop));
        not_fitted(model.sample_batch(&[SampleSpec::new(8, 1)]).map(drop));
    }
}

#[test]
fn truncation_at_every_byte_offset_is_rejected() {
    // SMOTE keeps the artifact small enough to scan every prefix.
    let text = fitted(ModelKind::Smote, 7).render();
    assert!(Checkpoint::parse(&text).is_ok());
    for offset in 0..text.len() {
        if !text.is_char_boundary(offset) {
            continue;
        }
        let truncated = &text[..offset];
        let err = match Checkpoint::parse(truncated) {
            Ok(_) => panic!(
                "truncation to {offset} of {} bytes was accepted",
                text.len()
            ),
            Err(err) => err,
        };
        // Every truncation is typed as damage to a named section —
        // mostly Truncated (missing trailing newline / missing payload),
        // with Malformed for a torn header line cut exactly at its
        // newline.
        assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. } | CheckpointError::Malformed { .. }
            ),
            "offset {offset}: unexpected error {err:?}"
        );
    }
}

#[test]
fn single_character_corruption_is_rejected_everywhere() {
    let text = fitted(ModelKind::Smote, 11).render();
    // Swap each character for a same-class substitute (digit for digit,
    // letter for letter) at a spread of offsets: such edits usually keep
    // the line perfectly parseable JSON, so only the content fingerprint
    // can catch them.
    let mut checked = 0usize;
    for offset in (0..text.len()).step_by(97) {
        let original = text.as_bytes()[offset];
        let substitute = match original {
            b'0'..=b'8' => original + 1,
            b'9' => b'0',
            b'a'..=b'y' => original + 1,
            _ => continue,
        };
        let mut corrupted = text.clone().into_bytes();
        corrupted[offset] = substitute;
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(
            Checkpoint::parse(&corrupted).is_err(),
            "flipping byte {offset} ({:?} -> {:?}) went undetected",
            original as char,
            substitute as char
        );
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} corruption sites exercised");

    // A digit edit inside the payload line specifically must be caught by
    // the fingerprint (it stays valid JSON).
    let payload_start = text.find('\n').unwrap() + 1;
    let digit_at = (payload_start..text.len())
        .find(|&i| text.as_bytes()[i].is_ascii_digit())
        .expect("payload contains digits");
    let mut corrupted = text.clone().into_bytes();
    corrupted[digit_at] = if corrupted[digit_at] == b'9' {
        b'8'
    } else {
        b'9'
    };
    let err = Checkpoint::parse(&String::from_utf8(corrupted).unwrap()).unwrap_err();
    assert!(
        matches!(err, CheckpointError::FingerprintMismatch { .. }),
        "payload digit edit produced {err:?}, not a fingerprint mismatch"
    );
    assert_eq!(err.section(), "fingerprint");
}

#[test]
fn stale_schema_and_header_surgery_are_typed() {
    let text = fitted(ModelKind::Smote, 13).render();

    let stale = text.replace(
        &format!("{{\"checkpoint_version\":{CHECKPOINT_VERSION}"),
        "{\"checkpoint_version\":99",
    );
    assert_eq!(
        Checkpoint::parse(&stale).unwrap_err(),
        CheckpointError::SchemaVersion { found: 99 }
    );

    // Editing header metadata (the seed) leaves the payload intact but
    // still trips the fingerprint, because it covers the identity tokens.
    let reseeded = text.replace("\"seed\":13", "\"seed\":14");
    assert_ne!(reseeded, text);
    let err = Checkpoint::parse(&reseeded).unwrap_err();
    assert!(
        matches!(err, CheckpointError::FingerprintMismatch { .. }),
        "{err:?}"
    );
}

#[test]
fn registry_load_degrades_instead_of_failing() {
    let dir = temp_path("registry");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Two good checkpoints, one truncated one, and a stray staging file —
    // the only trace a kill -9 between temp-write and rename can leave.
    let smote = fitted(ModelKind::Smote, 21);
    smote.save_to_dir(&dir).unwrap();
    let ddpm = fitted(ModelKind::TabDdpm, 21);
    ddpm.save_to_dir(&dir).unwrap();
    let rendered = smote.render();
    std::fs::write(
        dir.join("s9-smoke-small-smote.ckpt"),
        &rendered.as_bytes()[..rendered.len() / 2],
    )
    .unwrap();
    std::fs::write(dir.join("killed-mid-write.ckpt.tmp"), b"{\"checkpoint_").unwrap();

    let registry = CheckpointRegistry::load_dir(&dir).unwrap();
    assert_eq!(registry.entries.len(), 2);
    assert!(registry.is_degraded());
    assert_eq!(registry.quarantined.len(), 1);
    assert_eq!(registry.quarantined[0].file, "s9-smoke-small-smote.ckpt");
    assert_eq!(registry.ignored_temp, 1);

    // The surviving entries still sample byte-identically to their
    // in-memory originals.
    let loaded_smote = registry
        .entries
        .iter()
        .find(|c| c.model == ModelKind::Smote)
        .unwrap();
    assert_eq!(
        loaded_smote.sample(32, 5).unwrap(),
        smote.sample(32, 5).unwrap()
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
