//! The command-line contract of all nine binaries, checked at the process
//! boundary: `--help`/`-h` exit 0 and list exactly the binary's flags, a
//! bad command line exits 2 naming what is wrong before any work starts,
//! and a runtime failure, such as a dataset too small to split, exits 1
//! with a `<bin>: …` message instead of a panic.
//! The flag lists are pinned, so adding, removing or renaming a flag fails
//! here first.

use std::path::PathBuf;
use std::process::{Command, Output};

const EXPERIMENT: &[&str] = &["--rows", "--days", "--budget", "--seed", "--json"];

/// Every binary, with the flags its help lists, in table order.
const BINARIES: &[(&str, &str, &[&str])] = &[
    ("table1", env!("CARGO_BIN_EXE_table1"), EXPERIMENT),
    (
        "fig3_profile",
        env!("CARGO_BIN_EXE_fig3_profile"),
        EXPERIMENT,
    ),
    (
        "fig4_distributions",
        env!("CARGO_BIN_EXE_fig4_distributions"),
        EXPERIMENT,
    ),
    (
        "fig5_correlations",
        env!("CARGO_BIN_EXE_fig5_correlations"),
        EXPERIMENT,
    ),
    ("downstream", env!("CARGO_BIN_EXE_downstream"), EXPERIMENT),
    (
        "sweep",
        env!("CARGO_BIN_EXE_sweep"),
        &[
            "--seeds",
            "--budgets",
            "--models",
            "--grid",
            "--rows",
            "--days",
            "--sample-rows",
            "--no-mlef",
            "--sequential",
            "--quick",
            "--strict",
            "--shard",
            "--resume",
            "--out",
            "--canonical-out",
            "--csv",
            "--budget-ms",
            "--max-epochs",
            "--retries",
            "--journal",
            "--inject",
            "--virtual-clock",
            "--checkpoint-dir",
            "--merge",
            "--allow-partial",
            "--drop-last",
        ],
    ),
    (
        "serve",
        env!("CARGO_BIN_EXE_serve"),
        &[
            "--checkpoints",
            "--queue-depth",
            "--deadline-ms",
            "--batch-window-ms",
            "--max-batch-rows",
            "--max-rows",
            "--inject",
            "--virtual-clock",
        ],
    ),
    (
        "simloop",
        env!("CARGO_BIN_EXE_simloop"),
        &[
            "--checkpoint-dir",
            "--model",
            "--seed",
            "--budget",
            "--preset",
            "--gross",
            "--rows",
            "--sample-seed",
            "--bins",
            "--slot-fraction",
            "--max-rel-delta",
            "--out",
        ],
    ),
    (
        "perf_report",
        env!("CARGO_BIN_EXE_perf_report"),
        &["--quick", "--check", "--out", "--threads"],
    ),
];

fn exe(name: &str) -> &'static str {
    BINARIES
        .iter()
        .find(|(bin, _, _)| *bin == name)
        .map(|(_, exe, _)| *exe)
        .unwrap()
}

/// A fresh, empty working directory per test, so whatever a binary writes
/// lands there.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("panda_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(name: &str, args: &[&str], dir: &PathBuf) -> Output {
    Command::new(exe(name))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("{name} spawns: {e}"))
}

/// Assert a usage error: exit 2, and a `<bin>: ` message naming `needles`.
fn assert_usage_error(name: &str, args: &[&str], dir: &PathBuf, needles: &[&str]) {
    let output = run(name, args, dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.starts_with(&format!("{name}: ")), "{stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{name} {args:?}: {stderr}");
    }
}

#[test]
fn help_lists_exactly_each_binarys_flags() {
    let dir = workdir("help");
    for (name, _, flags) in BINARIES {
        for help in ["--help", "-h"] {
            let output = run(name, &[help], &dir);
            assert_eq!(output.status.code(), Some(0), "{name} {help}");
            let stdout = String::from_utf8(output.stdout).unwrap();
            let listed: Vec<&str> = stdout
                .lines()
                .filter(|line| line.starts_with("  --"))
                .map(|line| line.split_whitespace().next().unwrap())
                .collect();
            assert_eq!(listed, *flags, "{name} {help}");
        }
    }
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let dir = workdir("unknown");
    for (name, _, _) in BINARIES {
        assert_usage_error(name, &["--no-such-flag"], &dir, &["'--no-such-flag'"]);
    }
}

#[test]
fn sweep_refuses_a_misspelt_flag_and_writes_nothing() {
    let dir = workdir("seed");
    assert_usage_error("sweep", &["--quick", "--seed", "9"], &dir, &["'--seed'"]);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}

#[test]
fn perf_report_refuses_the_removed_dtype_flag() {
    // Every product runs in `f64`, so there is no element type to choose:
    // the flag is unknown and nothing is timed or written.
    let dir = workdir("dtype");
    assert_usage_error("perf_report", &["--dtype", "f32"], &dir, &["'--dtype'"]);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}

#[test]
fn a_flag_in_a_value_slot_names_both_flags() {
    let dir = workdir("slot");
    assert_usage_error(
        "sweep",
        &["--quick", "--out", "--canonical-out", "c.json"],
        &dir,
        &["--out", "--canonical-out"],
    );
    assert_usage_error("perf_report", &["--out", "--quick"], &dir, &["--out"]);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}

#[test]
fn unusable_values_exit_2_before_any_work() {
    let dir = workdir("values");
    for (args, needle) in [
        (&["--days", "0"][..], "--days"),
        (&["--days", "inf"], "--days"),
        (&["--rows", "0"], "--rows"),
    ] {
        assert_usage_error("table1", args, &dir, &[needle]);
    }
    // The checkpoint directory does not exist: exiting 2 shows the flags
    // were checked before it was read.
    for (args, needle) in [
        (&["--rows", "abc"][..], "--rows"),
        (&["--preset", "smal"], "--preset"),
    ] {
        let args = [&["--checkpoint-dir", "/nonexistent"][..], args].concat();
        assert_usage_error("simloop", &args, &dir, &[needle]);
    }
}

#[test]
fn a_failed_artifact_write_exits_1() {
    let dir = workdir("write");
    let output = run(
        "fig3_profile",
        &["--rows", "300", "--json", "missing/x.json"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("fig3_profile: cannot write missing/x.json: "),
        "{stderr}"
    );
}

#[test]
fn a_two_row_table_is_reported_not_panicked_on() {
    let dir = workdir("tiny");
    let output = run("table1", &["--rows", "2", "--budget", "smoke"], &dir);
    let code = output.status.code();
    assert!(
        matches!(code, Some(0 | 1)),
        "exit {code:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The message every binary reports for a dataset it cannot split.
const UNSPLITTABLE: &str = "cannot prepare the dataset: train_test_split input has 1 row(s)";

/// Assert a runtime failure: exit 1 with a `<bin>: <message>` line.
fn assert_runtime_error(name: &str, output: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|line| line.starts_with(&format!("{name}: {message}"))),
        "{name}: {stderr}"
    );
}

#[test]
fn experiment_binaries_refuse_a_dataset_too_small_to_split() {
    let dir = workdir("unsplittable");
    for name in [
        "table1",
        "fig3_profile",
        "fig4_distributions",
        "fig5_correlations",
        "downstream",
    ] {
        let output = run(name, &["--rows", "1", "--budget", "smoke"], &dir);
        assert_runtime_error(name, &output, UNSPLITTABLE);
    }
}

#[test]
fn sweep_records_a_dataset_too_small_to_split_as_data_rows() {
    let dir = workdir("sweep_unsplittable");
    let output = run(
        "sweep",
        &["--quick", "--rows", "1", "--out", "s.json"],
        &dir,
    );
    assert_runtime_error("sweep", &output, "every cell failed");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("failed [data, 1 attempt(s)]: {UNSPLITTABLE}")),
        "{stderr}"
    );
    let artifact = std::fs::read_to_string(dir.join("s.json")).unwrap();
    assert_eq!(artifact.matches("\"error_kind\": \"data\"").count(), 8);
}

#[test]
fn simloop_refuses_a_ground_truth_too_small_to_split() {
    let dir = workdir("simloop_unsplittable");
    let output = run(
        "sweep",
        &[
            "--quick",
            "--models",
            "smote",
            "--seeds",
            "2025",
            "--checkpoint-dir",
            "ck",
            "--out",
            "s.json",
        ],
        &dir,
    );
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let output = run(
        "simloop",
        &["--checkpoint-dir", "ck", "--gross", "1", "--out", "l.json"],
        &dir,
    );
    assert_runtime_error("simloop", &output, UNSPLITTABLE);
    assert!(!dir.join("l.json").exists());
}

#[test]
fn fig5_refuses_a_one_row_training_split() {
    let dir = workdir("fig5_tiny");
    // Two gross records split into one training row: refused before any
    // association matrix or fit, with the binary's prefix and exit 1.
    let output = run(
        "fig5_correlations",
        &["--rows", "2", "--budget", "smoke"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("fig5_correlations: the training split has 1 row(s)"),
        "{stderr}"
    );
    assert!(output.stdout.is_empty(), "{stderr}");
    // Three records leave two training rows: every model is correlated,
    // none is skipped.
    let output = run(
        "fig5_correlations",
        &["--rows", "3", "--budget", "smoke"],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("could not be correlated"), "{stderr}");
    for model in ["TVAE", "CTABGAN+", "SMOTE", "TabDDPM"] {
        assert!(
            stdout.contains(&format!("--- {model} (diff-CORR")),
            "{stdout}"
        );
    }
}

#[test]
fn sweep_merge_and_drop_last_refuse_flags_they_would_ignore() {
    let dir = workdir("modes");
    // Exit 2 before the missing input is read or `zz` is created.
    for (args, flag) in [
        (
            &[
                "--merge",
                "nothere.json",
                "--seeds",
                "abc",
                "--checkpoint-dir",
                "zz",
            ][..],
            "--seeds",
        ),
        (&["--merge", "nothere.json", "--quick"], "--quick"),
        (
            &["--merge", "nothere.json", "--drop-last", "1"],
            "--drop-last",
        ),
        (
            &["--drop-last", "1", "nothere.json", "--checkpoint-dir", "zz"],
            "--checkpoint-dir",
        ),
        (
            &[
                "--drop-last",
                "1",
                "nothere.json",
                "--canonical-out",
                "c.json",
            ],
            "--canonical-out",
        ),
    ] {
        assert_usage_error("sweep", args, &dir, &[&format!("{flag} does not apply")]);
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    // The flags each mode reads pass the check and reach the input.
    for args in [
        &[
            "--merge",
            "nothere.json",
            "--out",
            "o.json",
            "--canonical-out",
            "c.json",
            "--allow-partial",
        ][..],
        &["--drop-last", "1", "nothere.json", "--out", "o.json"],
    ] {
        let output = run("sweep", args, &dir);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("sweep: cannot read nothere.json"),
            "{stderr}"
        );
    }
}
