//! Integration tests for the scenario-sweep runtime (`surrogate::sweep`):
//! any cell run standalone must be byte-identical to the same cell inside a
//! sweep, parallel and sequential sweeps must agree byte-for-byte, one
//! diverging cell must leave every other cell untouched, and the JSON
//! artifact must round-trip **typed** through the `serde_json` shim
//! (`from_str::<SweepReport>`). The durability layer is pinned here too:
//! a grid split across shards and merged must equal the unsharded run, a
//! resumed run must equal a from-scratch run without re-executing completed
//! cells, and stale artifacts must be rejected.

use std::sync::atomic::{AtomicUsize, Ordering};

use panda_surrogate::metrics::{DcrConfig, EvaluationConfig};
use panda_surrogate::surrogate::sweep::{
    run_sweep, run_sweep_with, FitContext, NamedGeneratorConfig, ShardSpec, SweepArtifactError,
    SweepGrid, SweepOptions, SweepReport,
};
use panda_surrogate::surrogate::{ExecutionMode, ModelKind, SurrogateError, TrainingBudget};

/// A named small-variant generator config cut down for test runtime.
fn variant(name: &str, gross: usize, days: f64) -> NamedGeneratorConfig {
    let mut generator = NamedGeneratorConfig::preset("small").expect("known preset");
    generator.name = name.to_string();
    generator.config.gross_records = gross;
    generator.config.days = days;
    generator
}

/// Cheap evaluation (no MLEF probe, capped DCR) so the suite stays fast.
fn test_options() -> SweepOptions {
    SweepOptions {
        evaluation: EvaluationConfig {
            dcr: DcrConfig {
                max_synthetic_rows: 300,
                max_train_rows: 1_000,
            },
            mlef: None,
        },
        keep_tables: true,
        ..SweepOptions::default()
    }
}

#[test]
fn every_model_kind_is_byte_identical_standalone_and_in_sweep() {
    let grid = SweepGrid {
        seeds: vec![41],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![variant("small", 2_000, 150.0)],
        models: ModelKind::ALL.to_vec(),
    };
    let options = test_options();
    let sweep = run_sweep(&grid, &options, None).expect("sweep runs");
    assert_eq!(sweep.runs.len(), 4);
    for run in &sweep.runs {
        let in_sweep = run.outcome.as_ref().unwrap_or_else(|e| {
            panic!("{} failed inside the sweep: {e}", run.cell.id());
        });
        // Standalone: a one-cell grid built from this cell's own axis values.
        let alone = SweepGrid {
            seeds: vec![run.cell.seed],
            budgets: vec![run.cell.budget],
            generators: vec![run.cell.generator.clone()],
            models: vec![run.cell.model],
        };
        let alone = run_sweep(&alone, &options, None).expect("one-cell sweep runs");
        let standalone = alone.runs[0].outcome.as_ref().unwrap_or_else(|e| {
            panic!("{} failed standalone: {e}", run.cell.id());
        });
        // Byte-identical synthetic tables: the cell's RNG chain depends
        // only on the cell seed, never on its neighbours or scheduling.
        assert_eq!(
            in_sweep.synthetic,
            standalone.synthetic,
            "{} diverged between sweep and standalone",
            run.cell.id()
        );
        assert_eq!(in_sweep.report, standalone.report, "{}", run.cell.id());
        assert_eq!(in_sweep.train_rows, standalone.train_rows);
    }
}

#[test]
fn parallel_and_sequential_sweeps_agree_on_a_2x2x2_grid() {
    let grid = SweepGrid {
        seeds: vec![51, 52],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![
            variant("small", 1_800, 150.0),
            variant("dense", 1_800, 30.0),
        ],
        models: vec![ModelKind::Smote, ModelKind::TabDdpm],
    };
    let parallel = run_sweep(&grid, &test_options(), None).expect("parallel sweep");
    let sequential = run_sweep(
        &grid,
        &SweepOptions {
            mode: ExecutionMode::Sequential,
            ..test_options()
        },
        None,
    )
    .expect("sequential sweep");
    assert_eq!(parallel.runs.len(), 8);
    assert_eq!(sequential.runs.len(), 8);
    for (p, s) in parallel.runs.iter().zip(&sequential.runs) {
        // Grid-expansion order is preserved by both modes.
        assert_eq!(p.cell.id(), s.cell.id());
        let p_run = p.outcome.as_ref().expect("parallel cell passed");
        let s_run = s.outcome.as_ref().expect("sequential cell passed");
        assert_eq!(
            p_run.synthetic,
            s_run.synthetic,
            "{} diverged across modes",
            p.cell.id()
        );
        assert_eq!(p_run.report, s_run.report, "{}", p.cell.id());
    }
}

#[test]
fn one_diverging_cell_leaves_every_other_cell_untouched() {
    let grid = SweepGrid {
        seeds: vec![61, 62],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![variant("small", 1_800, 150.0)],
        models: vec![ModelKind::Smote, ModelKind::TabDdpm],
    };
    let options = test_options();
    let clean = run_sweep(&grid, &options, None).expect("clean sweep");
    let poisoned_id = clean.runs[1].cell.id();

    let poisoned = run_sweep_with(&grid, &options, None, |cell, train, _: &FitContext| {
        if cell.id() == poisoned_id {
            // Stand-in for a diverging fit.
            Err(SurrogateError::InvalidTrainingData(
                "injected divergence".to_string(),
            ))
        } else {
            panda_surrogate::surrogate::fit_and_sample(
                cell.model,
                train,
                train.n_rows(),
                cell.budget,
                cell.seed,
            )
        }
    })
    .expect("poisoned sweep");

    assert_eq!(poisoned.runs.len(), clean.runs.len());
    let mut failed = 0;
    for (p, c) in poisoned.runs.iter().zip(&clean.runs) {
        assert_eq!(p.cell.id(), c.cell.id());
        if p.cell.id() == poisoned_id {
            let error = p.outcome.as_ref().expect_err("poisoned cell must fail");
            assert!(error.to_string().contains("injected divergence"));
            failed += 1;
        } else {
            // Every healthy cell's output is byte-identical to the clean run.
            let p_run = p.outcome.as_ref().expect("healthy cell passed");
            let c_run = c.outcome.as_ref().expect("clean cell passed");
            assert_eq!(p_run.synthetic, c_run.synthetic, "{}", p.cell.id());
            assert_eq!(p_run.report, c_run.report, "{}", p.cell.id());
        }
    }
    assert_eq!(failed, 1);
    assert_eq!(
        poisoned
            .runs
            .iter()
            .filter(|run| run.outcome.is_err())
            .count(),
        1
    );
    assert_eq!(poisoned.report.failed_cells, 1);
}

#[test]
fn json_artifact_round_trips_through_the_shim_parser() {
    let grid = SweepGrid {
        seeds: vec![71, 72],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![variant("small", 1_500, 150.0)],
        models: vec![ModelKind::Smote],
    };
    // Inject one failure so both row shapes (passing and failing) are
    // exercised by the round-trip.
    let outcome = run_sweep_with(
        &grid,
        &test_options(),
        None,
        |cell, train, _: &FitContext| {
            if cell.seed == 72 {
                Err(SurrogateError::NotFitted("injected"))
            } else {
                panda_surrogate::surrogate::fit_and_sample(
                    cell.model,
                    train,
                    train.n_rows(),
                    cell.budget,
                    cell.seed,
                )
            }
        },
    )
    .expect("sweep runs");
    let report = outcome.report;
    assert_eq!(report.total_cells, 2);
    assert_eq!(report.failed_cells, 1);

    let path = std::env::temp_dir().join("panda_surrogate_sweep_artifact_test.json");
    let json = serde_json::to_string_pretty(&report).expect("render");
    std::fs::write(&path, &json).expect("write artifact");
    let text = std::fs::read_to_string(&path).expect("read artifact back");
    std::fs::remove_file(&path).ok();

    // The typed read-back accepts the artifact and is lossless: every
    // field of every row survives the write → parse trip exactly (f64s
    // render in shortest-round-trip form), with no `Value` spelunking.
    let parsed: SweepReport = serde_json::from_str(&text).expect("re-parse artifact");
    assert_eq!(parsed, report, "typed round-trip drifted");
    assert_eq!(
        SweepReport::validate_artifact(&text).expect("artifact validates"),
        report.total_cells
    );

    // Spot-check the typed rows directly.
    assert_eq!(parsed.cells[0].model, "SMOTE");
    assert_eq!(parsed.cells[0].index, 0);
    assert!(parsed.cells[0].ok);
    assert!(!parsed.cells[1].ok);
    assert!(parsed.cells[1]
        .error
        .as_deref()
        .unwrap()
        .contains("injected"));
}

/// A cheap deterministic fitter (echoes the training split) so the
/// durability tests exercise the full prepare→evaluate→artifact pipeline
/// without paying for model training.
fn echo_fitter(
    _cell: &panda_surrogate::surrogate::sweep::SweepCell,
    train: &panda_surrogate::tabular::Table,
    _ctx: &FitContext,
) -> Result<panda_surrogate::tabular::Table, SurrogateError> {
    Ok(train.clone())
}

/// The small grid the durability tests share: 2 seeds × smoke × 1 variant ×
/// 2 models = 4 cells.
fn durability_grid() -> SweepGrid {
    SweepGrid {
        seeds: vec![81, 82],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![variant("small", 1_500, 150.0)],
        models: vec![ModelKind::Smote, ModelKind::TabDdpm],
    }
}

#[test]
fn sharded_runs_merge_into_the_unsharded_report() {
    let grid = durability_grid();
    let options = SweepOptions {
        keep_tables: false,
        ..test_options()
    };
    let full = run_sweep_with(&grid, &options, None, echo_fitter).expect("unsharded run");
    assert_eq!(full.report.total_cells, 4);
    assert!(full.report.is_complete());
    assert_eq!(full.report.shard, None);

    let mut parts = Vec::new();
    for index in 0..2 {
        let shard = ShardSpec { index, count: 2 };
        let sharded = SweepOptions {
            shard: Some(shard),
            ..options.clone()
        };
        let summary = run_sweep_with(&grid, &sharded, None, echo_fitter).expect("shard run");
        assert_eq!(summary.report.total_cells, 2, "round-robin split of 4");
        assert_eq!(summary.report.shard, Some(shard));
        assert!(!summary.report.is_complete());
        summary.report.validate().expect("shard artifact validates");
        parts.push(summary.report);
    }

    let merged = SweepReport::merge(&parts).expect("disjoint shards merge");
    assert!(merged.is_complete());
    merged.validate().expect("merged artifact validates");
    // The merged report is byte-identical to the unsharded run modulo
    // wall-clock: canonical forms agree at the JSON byte level.
    assert_eq!(
        serde_json::to_string_pretty(&merged.canonical()).unwrap(),
        serde_json::to_string_pretty(&full.report.canonical()).unwrap(),
        "merge of 2 shards must reproduce the unsharded artifact"
    );
    // Overlapping shards are rejected.
    assert!(matches!(
        SweepReport::merge(&[parts[0].clone(), parts[0].clone()]).unwrap_err(),
        SweepArtifactError::OverlappingCell { .. }
    ));
}

#[test]
fn resume_runs_only_the_missing_cells_and_matches_from_scratch() {
    let grid = durability_grid();
    let options = SweepOptions {
        keep_tables: false,
        ..test_options()
    };
    let full = run_sweep_with(&grid, &options, None, echo_fitter).expect("from-scratch run");

    // Truncate the artifact to drop the last two cells, as the CI resume
    // smoke does with `sweep --drop-last`.
    let mut partial = full.report.clone();
    partial.cells.truncate(2);
    partial.total_cells = 2;
    partial.failed_cells = partial.cells.iter().filter(|row| !row.ok).count();
    partial.validate().expect("truncated artifact stays valid");

    let executed = AtomicUsize::new(0);
    let resumed = run_sweep_with(
        &grid,
        &options,
        Some(&partial),
        |cell, train, ctx: &FitContext| {
            executed.fetch_add(1, Ordering::SeqCst);
            echo_fitter(cell, train, ctx)
        },
    )
    .expect("resume run");
    assert_eq!(
        executed.load(Ordering::SeqCst),
        2,
        "only the dropped cells run"
    );
    assert_eq!(resumed.runs.len(), 2);
    assert_eq!(resumed.resumed, 2);
    assert_eq!(
        serde_json::to_string_pretty(&resumed.report.canonical()).unwrap(),
        serde_json::to_string_pretty(&full.report.canonical()).unwrap(),
        "resumed run must reproduce the from-scratch artifact"
    );
}

#[test]
fn resume_with_zero_remaining_cells_is_a_noop() {
    let grid = durability_grid();
    let options = SweepOptions {
        keep_tables: false,
        ..test_options()
    };
    let full = run_sweep_with(&grid, &options, None, echo_fitter).expect("from-scratch run");
    let summary = run_sweep_with(
        &grid,
        &options,
        Some(&full.report),
        |cell, _train, _: &FitContext| -> Result<panda_surrogate::tabular::Table, SurrogateError> {
            panic!("cell {} must not be re-executed", cell.id());
        },
    )
    .expect("no-op resume");
    assert!(summary.runs.is_empty());
    assert_eq!(summary.resumed, 4);
    assert_eq!(
        summary.report.canonical(),
        full.report.canonical(),
        "no-op resume must reproduce the prior artifact"
    );
}

#[test]
fn resume_rejects_stale_or_corrupt_artifacts() {
    let grid = durability_grid();
    let options = SweepOptions {
        keep_tables: false,
        ..test_options()
    };
    let full = run_sweep_with(&grid, &options, None, echo_fitter).expect("from-scratch run");
    let reject = |prior: &SweepReport| {
        run_sweep_with(
            &grid,
            &options,
            Some(prior),
            |cell,
             _train,
             _: &FitContext|
             -> Result<panda_surrogate::tabular::Table, SurrogateError> {
                panic!("cell {} must not run from a rejected artifact", cell.id());
            },
        )
        .unwrap_err()
    };

    // A tampered fingerprint (stale artifact from an edited grid).
    let mut stale = full.report.clone();
    stale.grid_fingerprint = "ffffffffffffffff".to_string();
    assert!(matches!(
        reject(&stale),
        SweepArtifactError::FingerprintMismatch { .. }
    ));
    // An artifact of a genuinely different grid: one more seed. The
    // rejected resume leaves an existing journal byte-unchanged.
    let journal = std::env::temp_dir().join(format!(
        "panda_surrogate_rejected_resume_{}.jsonl",
        std::process::id()
    ));
    let journaled = SweepOptions {
        journal: Some(journal.clone()),
        ..options.clone()
    };
    run_sweep_with(&grid, &journaled, None, echo_fitter).expect("journaled run");
    let journal_before = std::fs::read(&journal).expect("journal written");
    let mut bigger = grid.clone();
    bigger.seeds.push(83);
    assert!(matches!(
        run_sweep_with(&bigger, &journaled, Some(&full.report), echo_fitter).unwrap_err(),
        SweepArtifactError::FingerprintMismatch { .. }
    ));
    let journal_after = std::fs::read(&journal).expect("journal still readable");
    std::fs::remove_file(&journal).ok();
    assert_eq!(
        journal_after, journal_before,
        "a rejected resume must not touch the journal"
    );
    // Changed evaluation options alone also invalidate the artifact.
    let no_dcr_cap = SweepOptions {
        evaluation: EvaluationConfig::fast(),
        ..test_options()
    };
    assert!(matches!(
        run_sweep_with(&grid, &no_dcr_cap, Some(&full.report), echo_fitter).unwrap_err(),
        SweepArtifactError::FingerprintMismatch { .. }
    ));
    // A pre-durability schema version.
    let mut old = full.report.clone();
    old.schema_version = 1;
    assert!(matches!(
        reject(&old),
        SweepArtifactError::SchemaVersion { found: 1 }
    ));
    // A row whose id does not exist in this grid.
    let mut unknown = full.report.clone();
    unknown.cells[0].id = "s9999-smoke-small-smote".to_string();
    assert!(matches!(
        reject(&unknown),
        SweepArtifactError::UnknownCell { .. }
    ));
    // A row recorded at the wrong index.
    let mut shifted = full.report.clone();
    shifted.cells[0].index = 3;
    assert!(matches!(
        reject(&shifted),
        SweepArtifactError::IndexMismatch { .. }
    ));
}

/// Kill-mid-run simulation: a journaled sweep is truncated mid-row (as a
/// SIGKILL during an append would leave it), recovered, and resumed — and
/// the resumed artifact is canonically byte-identical to the uninterrupted
/// run. The resume journals onto the torn file it resumed from, and that
/// rewritten journal keeps every completed row.
#[test]
fn torn_journal_recovers_and_resumes_into_the_uninterrupted_artifact() {
    let grid = durability_grid();
    let path = std::env::temp_dir().join(format!(
        "panda_surrogate_torn_journal_{}.jsonl",
        std::process::id()
    ));
    let options = SweepOptions {
        keep_tables: false,
        journal: Some(path.clone()),
        ..test_options()
    };
    let full = run_sweep(&grid, &options, None).expect("journaled run");
    let text = std::fs::read_to_string(&path).expect("read journal");

    // The intact journal already recovers into the full artifact.
    let recovered = SweepReport::recover_journal(&text).expect("recover intact journal");
    assert_eq!(
        serde_json::to_string_pretty(&recovered.canonical()).unwrap(),
        serde_json::to_string_pretty(&full.report.canonical()).unwrap(),
        "intact journal must recover the full artifact"
    );

    // Tear the journal mid-way through its fourth line (header + 2 complete
    // rows + half of row 3), as a crash during an append would.
    let newlines: Vec<usize> = text
        .char_indices()
        .filter(|&(_, c)| c == '\n')
        .map(|(i, _)| i)
        .collect();
    assert_eq!(newlines.len(), 5, "header + 4 rows, newline-terminated");
    let row3_start = newlines[2] + 1;
    let row3_end = newlines[3];
    let torn = &text[..row3_start + (row3_end - row3_start) / 2];
    let prior = SweepReport::recover_journal(torn).expect("recover torn journal");
    assert_eq!(prior.total_cells, 2, "the torn row is dropped");

    // Resuming from the recovered prior reproduces the uninterrupted run,
    // journaling onto the same (torn) path.
    std::fs::write(&path, torn).expect("write torn journal");
    let resumed = run_sweep(&grid, &options, Some(&prior)).expect("resume from journal");
    assert_eq!(resumed.resumed, 2);
    assert_eq!(resumed.runs.len(), 2);
    assert_eq!(
        serde_json::to_string_pretty(&resumed.report.canonical()).unwrap(),
        serde_json::to_string_pretty(&full.report.canonical()).unwrap(),
        "journal-recovered resume must equal the uninterrupted artifact"
    );

    // The rewritten journal holds the resumed rows and the fresh ones: it
    // recovers into the full artifact, and resuming from it runs nothing.
    let rewritten = std::fs::read_to_string(&path).expect("read rewritten journal");
    std::fs::remove_file(&path).ok();
    let recovered = SweepReport::recover_journal(&rewritten).expect("recover rewritten journal");
    assert_eq!(
        serde_json::to_string_pretty(&recovered.canonical()).unwrap(),
        serde_json::to_string_pretty(&full.report.canonical()).unwrap(),
        "the journal of a resume must keep every completed row"
    );
    let unjournaled = SweepOptions {
        journal: None,
        ..options
    };
    let again = run_sweep(&grid, &unjournaled, Some(&recovered)).expect("resume again");
    assert_eq!(again.runs.len(), 0, "every cell was already journaled");
    assert_eq!(again.resumed, 4);
}

/// Failed rows produced by injected faults (typed error_kind, attempts)
/// survive sharding, merging, and resuming unchanged.
#[test]
fn fault_rows_survive_shard_merge_and_resume_round_trips() {
    let grid = durability_grid();
    let options = SweepOptions {
        keep_tables: false,
        faults: panda_surrogate::surrogate::FaultPlan::parse("cell1:panic,cell3:budget")
            .expect("valid plan"),
        ..test_options()
    };
    // A cooperative fitter: polls the budget control like a real epoch
    // loop, then echoes the training split.
    let cooperative = |_cell: &panda_surrogate::surrogate::sweep::SweepCell,
                       train: &panda_surrogate::tabular::Table,
                       ctx: &FitContext|
     -> Result<panda_surrogate::tabular::Table, SurrogateError> {
        ctx.control.check_epoch(0)?;
        Ok(train.clone())
    };

    let full = run_sweep_with(&grid, &options, None, cooperative).expect("unsharded run");
    assert_eq!(full.report.failed_cells, 2);
    let kinds: Vec<Option<&str>> = full
        .report
        .cells
        .iter()
        .map(|row| row.error_kind.as_deref())
        .collect();
    assert_eq!(kinds, vec![None, Some("panic"), None, Some("budget")]);
    assert!(full.report.cells.iter().all(|row| row.attempts == 1));
    full.report
        .validate()
        .expect("artifact with failed rows validates");

    // Shard → merge reproduces the unsharded artifact, failed rows intact.
    let mut parts = Vec::new();
    for index in 0..2 {
        let sharded = SweepOptions {
            shard: Some(ShardSpec { index, count: 2 }),
            ..options.clone()
        };
        let summary = run_sweep_with(&grid, &sharded, None, cooperative).expect("shard run");
        parts.push(summary.report);
    }
    let merged = SweepReport::merge(&parts).expect("shards merge");
    assert_eq!(
        serde_json::to_string_pretty(&merged.canonical()).unwrap(),
        serde_json::to_string_pretty(&full.report.canonical()).unwrap(),
        "failed rows must survive the shard/merge round trip"
    );

    // Resume: drop the two failed rows, rerun only them, equal artifact.
    let mut partial = full.report.clone();
    partial.cells.retain(|row| row.ok);
    partial.total_cells = partial.cells.len();
    partial.failed_cells = 0;
    let resumed = run_sweep_with(&grid, &options, Some(&partial), cooperative)
        .expect("resume over failed cells");
    assert_eq!(resumed.resumed, 2);
    assert_eq!(
        serde_json::to_string_pretty(&resumed.report.canonical()).unwrap(),
        serde_json::to_string_pretty(&full.report.canonical()).unwrap(),
        "re-running the failed cells must reproduce their typed rows"
    );
}

/// Retried sweeps stay end-to-end deterministic through the real model
/// pipeline: an attempt-bounded fault fails the first attempt, the retry
/// succeeds under its derived seed, and two identical runs agree
/// canonically, byte for byte.
#[test]
fn retried_cells_are_deterministic_through_the_real_pipeline() {
    let grid = SweepGrid {
        seeds: vec![81, 82],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![variant("small", 1_500, 150.0)],
        models: vec![ModelKind::Smote],
    };
    let options = SweepOptions {
        keep_tables: false,
        retries: 1,
        faults: panda_surrogate::surrogate::FaultPlan::parse("cell0:nan:1").expect("valid plan"),
        ..test_options()
    };
    let first = run_sweep(&grid, &options, None).expect("first run");
    let second = run_sweep(&grid, &options, None).expect("second run");
    let report = first.report;
    assert_eq!(report.failed_cells, 0, "the retry must recover the cell");
    assert_eq!(report.cells[0].attempts, 2);
    assert_eq!(report.cells[1].attempts, 1);
    assert_eq!(
        serde_json::to_string_pretty(&report.canonical()).unwrap(),
        serde_json::to_string_pretty(&second.report.canonical()).unwrap(),
        "same grid, options and fault plan must reproduce the same artifact"
    );
}

/// `--checkpoint-dir` sweeps persist every fitted cell as a loadable
/// checkpoint AND stay byte-identical to plain sweeps: the checkpointing
/// fitter is the same computation with a save in the middle, and the
/// persisted artifacts resample the exact synthetic bytes the sweep
/// produced.
#[test]
fn durable_sweep_checkpoints_every_cell_and_stays_byte_identical() {
    use panda_surrogate::surrogate::checkpoint::CheckpointRegistry;

    let grid = SweepGrid {
        seeds: vec![61, 62],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![variant("small", 1_500, 150.0)],
        models: vec![ModelKind::Smote, ModelKind::TabDdpm],
    };
    let options = SweepOptions {
        sample_rows: Some(120),
        ..test_options()
    };
    let dir = std::env::temp_dir().join(format!("panda_sweep_durable_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let checkpointed = SweepOptions {
        checkpoint_dir: Some(dir.clone()),
        ..options.clone()
    };
    let durable = run_sweep(&grid, &checkpointed, None).expect("durable sweep");
    let plain = run_sweep(&grid, &options, None).expect("plain sweep");
    assert_eq!(durable.runs.len(), 4);

    let registry = CheckpointRegistry::load_dir(&dir).expect("checkpoint dir loads");
    assert!(!registry.is_degraded());
    assert_eq!(
        registry.entries.len(),
        4,
        "every fitted cell must leave a checkpoint"
    );

    for (durable_run, plain_run) in durable.runs.iter().zip(&plain.runs) {
        let cell = &durable_run.cell;
        assert_eq!(cell.id(), plain_run.cell.id());
        let durable_table = &durable_run.outcome.as_ref().expect("cell passed").synthetic;
        let plain_table = &plain_run.outcome.as_ref().expect("cell passed").synthetic;
        // Checkpointing must not perturb the sweep's own outputs...
        assert_eq!(
            durable_table,
            plain_table,
            "{} diverged under --checkpoint-dir",
            cell.id()
        );
        // ...and the persisted checkpoint must resample those exact bytes
        // (the sweep samples with the cell seed + 1 after fitting).
        let checkpoint = registry
            .entries
            .iter()
            .find(|c| c.key() == cell.id())
            .unwrap_or_else(|| panic!("no checkpoint for {}", cell.id()));
        let resampled = checkpoint
            .sample(120, cell.seed.wrapping_add(1))
            .expect("checkpoint samples");
        assert_eq!(
            Some(&resampled),
            durable_table.as_ref(),
            "{} checkpoint resample is not byte-identical",
            cell.id()
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Injected delays under a virtual clock charge the cell's wall-clock
/// accounting without sleeping: a sweep carrying 90 s of injected delay
/// finishes in real seconds, but its rows still report the delay.
#[test]
fn virtual_clock_charges_injected_delays_without_sleeping() {
    use panda_surrogate::surrogate::{FaultClock, FaultPlan};

    let grid = SweepGrid {
        seeds: vec![71],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![variant("small", 1_200, 150.0)],
        models: vec![ModelKind::Smote],
    };
    let options = SweepOptions {
        keep_tables: false,
        faults: FaultPlan::parse("cell0:delay:90000ms").expect("valid plan"),
        clock: FaultClock::Virtual,
        ..test_options()
    };
    let start = std::time::Instant::now();
    let outcome = run_sweep(&grid, &options, None).expect("sweep runs");
    let real_elapsed = start.elapsed();
    assert!(
        real_elapsed < std::time::Duration::from_secs(60),
        "virtual clock must not sleep through the 90s injected delay \
         (took {real_elapsed:?})"
    );
    let report = outcome.report;
    assert_eq!(report.failed_cells, 0);
    assert!(
        report.cells[0].wall_ms >= 90_000.0,
        "the 90s virtual delay must be charged to wall_ms, got {}",
        report.cells[0].wall_ms
    );
}
