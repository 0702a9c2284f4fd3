//! End-to-end protocol tests for `bench --bin serve`: each test spawns the
//! real binary against a real checkpoint directory and drives the JSON-line
//! protocol over stdin/stdout — the process-boundary coverage the in-binary
//! unit tests cannot give.
//!
//! The batching tests pin the serving loop's core guarantee: a micro-batched
//! serve (requests coalesced into one generator pass via `batch:hold`)
//! answers byte-identical digests to an unbatched serve (`batch:split`).
//! Every digest read here must carry `"digest_v":2`, and a wire digest must
//! equal `table_digest` of the table the same checkpoint samples in process.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde_json::{Value, ValueExt};
use surrogate::checkpoint::{CheckpointPayload, CheckpointRegistry};
use surrogate::{
    table_digest, Checkpoint, ModelKind, SampleSpec, SmoteConfig, SmoteSampler, TabularGenerator,
    TrainingBudget, Tvae, TvaeConfig,
};
use tabular::{Column, Table};

fn toy_table() -> Table {
    let values: Vec<f64> = (0..48)
        .map(|i| (i as f64 * 0.37).sin() * 50.0 + 50.0)
        .collect();
    let labels: Vec<&str> = (0..48)
        .map(|i| if i % 3 == 0 { "BNL" } else { "CERN" })
        .collect();
    let mut table = Table::new();
    table
        .push_column("workload", Column::Numerical(values))
        .unwrap();
    table
        .push_column("site", Column::from_labels(&labels))
        .unwrap();
    table
}

/// Create a fresh checkpoint directory holding one fitted SMOTE and one
/// fitted TVAE checkpoint (both cheap to fit at smoke scale).
fn checkpoint_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("panda_serve_protocol_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let table = toy_table();

    let mut smote = SmoteSampler::new(SmoteConfig::default());
    smote.fit(&table).unwrap();
    Checkpoint::new(
        "small",
        2024,
        TrainingBudget::Smoke,
        CheckpointPayload::Smote(smote),
    )
    .save_to_dir(&dir)
    .unwrap();

    let mut tvae = Tvae::new(TvaeConfig {
        seed: 2024,
        ..TvaeConfig::fast()
    });
    tvae.fit(&table).unwrap();
    Checkpoint::new(
        "small",
        2024,
        TrainingBudget::Smoke,
        CheckpointPayload::Tvae(tvae),
    )
    .save_to_dir(&dir)
    .unwrap();
    dir
}

/// Spawn `serve`, write every request line, close stdin, and return the
/// response lines parsed as JSON (stdout order).
fn run_serve(dir: &Path, extra_args: &[&str], requests: &[&str]) -> Vec<Value> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--checkpoints")
        .arg(dir)
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    {
        let stdin = child.stdin.as_mut().unwrap();
        for request in requests {
            writeln!(stdin, "{request}").unwrap();
        }
    }
    drop(child.stdin.take());
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let responses: Vec<Value> = stdout
        .lines()
        .map(|line| serde_json::from_str(&line.unwrap()).expect("response line is JSON"))
        .collect();
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status}");
    responses
}

fn id(response: &Value) -> Option<u64> {
    response
        .get("id")
        .and_then(|v| v.as_f64())
        .map(|n| n as u64)
}

fn status(response: &Value) -> &str {
    response
        .get("status")
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("response has no status: {response:?}"))
}

fn detail(response: &Value) -> &str {
    response
        .get("detail")
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("response has no detail: {response:?}"))
}

/// The digest of an `ok` sample response, which must be tagged with digest
/// layout version 2 (`table_digest`).
fn digest(response: &Value) -> &str {
    assert_eq!(status(response), "ok", "{response:?}");
    assert_eq!(
        response.get("digest_v").and_then(|v| v.as_f64()),
        Some(2.0),
        "an ok sample response carries digest_v 2: {response:?}"
    );
    response
        .get("digest")
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("response has no digest: {response:?}"))
}

fn rows(response: &Value) -> Option<u64> {
    response
        .get("rows")
        .and_then(|v| v.as_f64())
        .map(|n| n as u64)
}

/// Responses sorted by correlation id, so overload sheds (emitted by the
/// reader thread) and worker responses can be compared positionally. An
/// absent id (unparseable request) sorts first.
fn by_id(mut responses: Vec<Value>) -> Vec<Value> {
    responses.sort_by_key(id);
    responses
}

#[test]
fn health_list_and_sample_over_the_wire() {
    let dir = checkpoint_dir("basic");
    let responses = run_serve(
        &dir,
        &[],
        &[
            r#"{"id":1,"op":"health"}"#,
            r#"{"id":2,"op":"list"}"#,
            r#"{"id":3,"op":"sample","model":"smote","rows":6,"sample_seed":9}"#,
            "this is not json",
            r#"{"id":5,"op":"sample","model":"mystery"}"#,
        ],
    );
    assert_eq!(responses.len(), 5);
    let responses = by_id(responses);
    // The unparseable line answers with a null id, which sorts first.
    assert_eq!(status(&responses[0]), "bad_request");
    assert_eq!(responses[0].get("id"), Some(&Value::Null));

    assert_eq!(status(&responses[1]), "ok");
    assert_eq!(
        responses[1]
            .get("models")
            .and_then(|v| v.as_array())
            .map(<[Value]>::len),
        Some(2)
    );
    assert_eq!(
        responses[1].get("quarantined").and_then(|v| v.as_f64()),
        Some(0.0)
    );
    assert_eq!(status(&responses[2]), "ok");
    assert_eq!(status(&responses[3]), "ok");
    assert_eq!(
        responses[3].get("key").and_then(|v| v.as_str()),
        Some("s2024-smoke-small-smote")
    );
    assert_eq!(rows(&responses[3]), Some(6));
    assert_eq!(digest(&responses[3]).len(), 16);
    assert_eq!(status(&responses[4]), "bad_request");
    // Only sample responses carry a digest and its version.
    for answer in [&responses[0], &responses[1], &responses[2], &responses[4]] {
        assert_eq!(answer.get("digest"), Some(&Value::Null), "{answer:?}");
        assert_eq!(answer.get("digest_v"), Some(&Value::Null), "{answer:?}");
    }
}

#[test]
fn wire_digests_are_table_digests_of_the_in_process_samples() {
    let dir = checkpoint_dir("digest");
    let responses = by_id(run_serve(
        &dir,
        &[],
        &[
            r#"{"id":1,"op":"sample","model":"tvae","rows":8,"sample_seed":7}"#,
            r#"{"id":2,"op":"sample","model":"smote","rows":5,"sample_seed":3}"#,
        ],
    ));
    let registry = CheckpointRegistry::load_dir(&dir).unwrap();
    for (response, model, spec) in [
        (&responses[0], ModelKind::Tvae, SampleSpec::new(8, 7)),
        (&responses[1], ModelKind::Smote, SampleSpec::new(5, 3)),
    ] {
        let checkpoint = registry.entries.iter().find(|c| c.model == model).unwrap();
        let tables = checkpoint.sample_batch(&[spec]).unwrap();
        assert_eq!(
            digest(response),
            table_digest(&tables[0]),
            "{model:?}: the wire digest is not the in-process table's"
        );
    }
}

#[test]
fn batched_serving_is_byte_identical_to_unbatched() {
    let dir = checkpoint_dir("batched");
    // Two TVAE requests (coalesced into one generator pass), one SMOTE
    // request, and a health check — all forced into a single batch.
    let requests = [
        r#"{"id":1,"op":"sample","model":"tvae","rows":8,"sample_seed":7}"#,
        r#"{"id":2,"op":"sample","model":"smote","rows":5,"sample_seed":3}"#,
        r#"{"id":3,"op":"sample","model":"tvae","rows":3,"sample_seed":11}"#,
        r#"{"id":4,"op":"health"}"#,
    ];
    let batched = run_serve(
        &dir,
        &["--inject", "batch:hold:4", "--batch-window-ms", "50"],
        &requests,
    );
    let unbatched = by_id(run_serve(&dir, &["--inject", "batch:split"], &requests));

    // One batch, answered in arrival order.
    let ids: Vec<Option<u64>> = batched.iter().map(id).collect();
    assert_eq!(ids, vec![Some(1), Some(2), Some(3), Some(4)]);
    for (b, u) in batched.iter().zip(&unbatched) {
        assert_eq!(status(b), "ok", "batched: {b:?}");
        assert_eq!(status(u), "ok", "unbatched: {u:?}");
    }
    for i in 0..3 {
        assert_eq!(
            digest(&batched[i]),
            digest(&unbatched[i]),
            "request {} diverged between batched and unbatched serving",
            i + 1
        );
    }
    assert_eq!(rows(&batched[0]), Some(8));
    assert_eq!(rows(&batched[2]), Some(3));
}

#[test]
fn overload_sheds_and_the_rest_are_served() {
    let dir = checkpoint_dir("overload");
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--checkpoints")
        .arg(&dir)
        .args(["--inject", "queue:hold", "--queue-depth", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    {
        let stdin = child.stdin.as_mut().unwrap();
        // The held worker dequeues the first request (the pause lets it),
        // the second fills the depth-1 queue, the third is shed.
        writeln!(stdin, r#"{{"id":1,"op":"health"}}"#).unwrap();
        stdin.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));
        writeln!(stdin, r#"{{"id":2,"op":"health"}}"#).unwrap();
        writeln!(stdin, r#"{{"id":3,"op":"health"}}"#).unwrap();
    }
    drop(child.stdin.take());
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let responses: Vec<Value> = stdout
        .lines()
        .map(|line| serde_json::from_str(&line.unwrap()).unwrap())
        .collect();
    assert!(child.wait().unwrap().success());

    let responses = by_id(responses);
    assert_eq!(responses.len(), 3);
    assert_eq!(status(&responses[0]), "ok");
    assert_eq!(status(&responses[1]), "ok");
    assert_eq!(status(&responses[2]), "overload");
    assert!(detail(&responses[2]).contains("queue full"));
}

#[test]
fn deadlines_are_enforced_after_handling_too() {
    let dir = checkpoint_dir("deadline");
    // Both requests arrive together (batch:hold:2) and each burns a real
    // 200ms injected delay against a 300ms deadline. The first passes its
    // pre-handle check but the batch takes ~400ms, so the post-handle
    // re-check fails it; the second is already late before handling.
    let responses = by_id(run_serve(
        &dir,
        &[
            "--deadline-ms",
            "300",
            "--inject",
            "request:delay:200ms,batch:hold:2",
        ],
        &[r#"{"id":1,"op":"health"}"#, r#"{"id":2,"op":"health"}"#],
    ));
    assert_eq!(status(&responses[0]), "deadline");
    assert!(
        detail(&responses[0]).contains("after handling"),
        "first request must fail the post-handle re-check: {:?}",
        responses[0]
    );
    assert_eq!(status(&responses[1]), "deadline");
}

#[test]
fn row_caps_answer_typed_rejections() {
    let dir = checkpoint_dir("rowcap");
    let responses = by_id(run_serve(
        &dir,
        &["--max-rows", "100"],
        &[
            r#"{"id":1,"op":"sample","model":"smote","rows":100,"sample_seed":1}"#,
            r#"{"id":2,"op":"sample","model":"smote","rows":101,"sample_seed":1}"#,
        ],
    ));
    assert_eq!(status(&responses[0]), "ok");
    assert_eq!(rows(&responses[0]), Some(100));
    assert_eq!(status(&responses[1]), "bad_request");
    let rejection = detail(&responses[1]);
    assert!(rejection.contains("--max-rows"), "{rejection}");
    assert!(rejection.contains("100"), "{rejection}");
}

#[test]
fn flag_shaped_values_are_usage_errors() {
    // `--checkpoints --queue-depth 1` must not be read as a directory
    // named "--queue-depth": the process exits 2 naming the bad flag pair.
    // A misspelt flag next to a loadable directory must not be ignored
    // either: serve exits 2 naming it instead of serving.
    let dir = checkpoint_dir("usage");
    let dir_arg = dir.to_str().unwrap();
    for (args, named) in [
        (
            &["--checkpoints", "--queue-depth", "1"][..],
            &["--checkpoints", "--queue-depth"][..],
        ),
        (
            &["--checkpoints", dir_arg, "--queue-dept", "1"],
            &["--queue-dept"],
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .output()
            .expect("serve spawns");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        for flag in named {
            assert!(stderr.contains(flag), "{stderr}");
        }
    }
}
