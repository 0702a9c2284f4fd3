//! Scenario-sweep driver: expand a seeds × budgets × generator-variants ×
//! models grid, batch every cell over the shared pool
//! (`surrogate::sweep::run_sweep`), print per-cell metrics rows
//! plus per-model means, and write the `SweepReport` JSON artifact (read
//! back **typed** through the `serde_json` shim as a schema check — CI
//! smoke-runs this).
//!
//! Durability modes on top of the plain run:
//!
//! * `--shard I/N` runs one deterministic round-robin slice of the
//!   axis-major cell order, so N independent containers split one grid;
//! * `--resume PRIOR.json` loads completed cells from a prior artifact
//!   (rejected if its grid fingerprint is stale) and runs only the rest;
//! * `--merge a.json b.json …` recombines disjoint shard artifacts into the
//!   single report an unsharded run would have produced;
//! * `--canonical-out PATH` additionally writes the wall-clock-zeroed form,
//!   which CI diffs to enforce shard-merge ≡ unsharded and resumed ≡
//!   from-scratch byte-for-byte;
//! * `--drop-last K IN.json` truncates an artifact (test/CI surgery for the
//!   resume smoke).
//!
//! Fault-tolerance modes (see `surrogate::fault`):
//!
//! * `--budget-ms N` / `--max-epochs N` cap every cell's fit, turning a
//!   runaway fit into a typed `budget` row instead of a hung shard;
//! * `--retries N` re-runs a failed cell up to N times under deterministic
//!   per-attempt reseeds (budget trips never retry);
//! * `--journal PATH` appends every completed cell row to a crash-safe,
//!   fsync'd journal that starts with the resumed rows, so it stays
//!   complete even when it is the file being resumed from; `--resume`
//!   accepts either a full artifact or such a journal (sniffed by its
//!   `{"journal_version"` prefix), folding a torn tail away, so a SIGKILL'd
//!   sweep resumes from its last completed cell;
//! * `--inject SPEC` deterministically injects faults at named cells
//!   (`cell3:panic,cell7:delay:200ms,cell9:nan,cell2:budget`) so CI can
//!   exercise all of the above without timing races;
//! * `--virtual-clock` makes injected delay faults charge their duration to
//!   the cell's wall-clock accounting without actually sleeping, so a fault
//!   matrix with seconds of injected delay finishes in milliseconds;
//! * `--checkpoint-dir DIR` persists every cell whose fit succeeds as a
//!   crash-safe checkpoint artifact (`<cell-id>.ckpt`, written atomically)
//!   that `serve` loads into its model registry.
//!
//! `sweep --help` lists every flag. `--seeds` accepts a half-open range
//! (`A..B`) or a comma list. `--rows` overrides every variant's gross record
//! count (`--rows 0` keeps each preset's own value; the default is 20000 so
//! a bare run finishes on a laptop). `--quick` is the CI smoke grid: 2
//! seeds × smoke budget × the `small` preset × all four models = 8 cells at
//! 2500 gross records.

use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use std::time::Duration;

use bench::cli::{Args, Command, Positive};
use metrics::{mean_report, EvaluationConfig, SurrogateReport};
use surrogate::sweep::{
    run_sweep, NamedGeneratorConfig, ShardSpec, SweepArtifactError, SweepCellRow, SweepGrid,
    SweepOptions, SweepReport,
};
use surrogate::{CellBudget, ExecutionMode, FaultClock, FaultPlan, ModelKind, TrainingBudget};

const CLI: Command = Command {
    name: "sweep",
    about: "scenario-sweep runtime over the surrogate experiment pipeline",
    flags: "
usage: sweep [FLAGS]
       sweep --merge A.json B.json ... [--allow-partial] [--out PATH] [--canonical-out PATH]
       sweep --drop-last K IN.json [--out PATH]

run mode:
  --seeds A..B|a,b,c     seed axis (half-open range or comma list; default 2024..2026)
  --budgets LIST         training budgets: smoke|fast, standard, full|paper (default standard)
  --models LIST          model subset: tvae, ctabgan, smote, tabddpm (default all four)
  --grid LIST            generator presets: default, small, tier2_heavy, user_heavy, burst
  --rows N               gross records per variant (0 = keep preset values; default 20000)
  --days D               collection-window override in days, D > 0
  --sample-rows N        synthetic rows per cell, N >= 1 (default: training-split size)
  --no-mlef              skip the (slow) MLEF probe
  --sequential           run cells one after another (byte-identical to parallel)
  --quick                CI smoke grid: 2 seeds x smoke x small preset x 4 models (8 cells)
  --strict               exit non-zero if ANY cell fails (default: only when all do)
  --shard I/N            run only cells with index % N == I (round-robin over the
                         axis-major order); merge the N artifacts with --merge
  --resume PRIOR.json    load completed cells from a prior artifact OR a crash
                         journal of the SAME grid (fingerprint-checked) and run
                         only the rest; journals may have a torn last line
  --out PATH             JSON artifact path (default SWEEP.json)
  --canonical-out PATH   also write the artifact with wall-clock fields zeroed
                         (the form CI byte-compares across shards/resumes)
  --csv PATH             also write per-cell metrics rows as CSV (cell id in the model column)

fault tolerance:
  --budget-ms N          per-cell wall-clock budget in milliseconds, N >= 1 (use
                         --max-epochs 0 for an immediate trip); a tripped cell
                         becomes a typed 'budget' row
  --max-epochs N         per-cell training-epoch cap (0 trips immediately)
  --retries N            retry failed cells up to N times with deterministic
                         per-attempt reseeds (budget trips never retry)
  --journal PATH         append each completed cell row to a crash-safe journal
                         (fsync'd line-delimited JSON) usable with --resume
  --inject SPEC          deterministic fault injection at named cells, e.g.
                         cell3:panic,cell7:delay:200ms,cell9:nan,cell2:budget
                         (panic/nan accept :K to fail only the first K attempts)
  --virtual-clock        charge injected delays to wall-clock accounting
                         without sleeping (keeps fault matrices fast in CI)
  --checkpoint-dir DIR   persist each fitted cell as a crash-safe checkpoint
                         artifact (<cell-id>.ckpt, atomic temp+fsync+rename)
                         in DIR; created if missing, must be a writable
                         directory (not an existing file)

merge mode (--out and --canonical-out as in run mode):
  --merge                validate + recombine the disjoint shard artifacts
                         given as arguments
  --allow-partial        accept a merge that does not cover the full grid

artifact surgery:
  --drop-last K          rewrite the artifact given as argument without its last
                         K cell rows to --out (used by the CI resume smoke)
",
    operands: true,
};

/// Parse the seed axis: a half-open `A..B` range or a comma list. Every
/// malformed spelling comes back as `Err` with the offending token, so the
/// CLI exits with a message instead of panicking through `parse().unwrap()`.
fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    if let Some((start, end)) = text.split_once("..") {
        let start: u64 = start
            .trim()
            .parse()
            .map_err(|_| format!("bad range start '{}' in '{text}'", start.trim()))?;
        let end: u64 = end
            .trim()
            .parse()
            .map_err(|_| format!("bad range end '{}' in '{text}'", end.trim()))?;
        if start >= end {
            return Err(format!("empty seed range '{text}' (want start < end)"));
        }
        return Ok((start..end).collect());
    }
    let seeds: Vec<u64> = text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad seed '{s}' in '{text}'")))
        .collect::<Result<_, String>>()?;
    if seeds.is_empty() {
        return Err(format!("empty seed list '{text}'"));
    }
    Ok(seeds)
}

fn parse_list<T>(
    text: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    text.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| parse(s.trim()).ok_or_else(|| format!("unknown {what} '{}'", s.trim())))
        .collect()
}

/// Drop repeated axis values (first occurrence wins): a duplicated seed or
/// preset would expand into duplicate cell ids fitted twice and
/// double-weighted by the per-model means.
fn dedup_axis<T, K: PartialEq>(what: &str, values: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    let mut unique: Vec<T> = Vec::with_capacity(values.len());
    let mut keys: Vec<K> = Vec::with_capacity(values.len());
    let mut dropped = 0usize;
    for value in values {
        let k = key(&value);
        if keys.contains(&k) {
            dropped += 1;
        } else {
            keys.push(k);
            unique.push(value);
        }
    }
    if dropped > 0 {
        eprintln!("sweep: dropped {dropped} duplicate {what} value(s)");
    }
    unique
}

/// Validate `--checkpoint-dir DIR` up front, before any cell burns compute:
/// the path must not collide with an existing non-directory, is created if
/// missing, and must actually accept writes (probed with a throwaway file).
/// Failing any of these is a usage error — finding out after an hour-long
/// sweep that every checkpoint save failed would defeat the flag's purpose.
fn parse_checkpoint_dir(text: &str) -> Result<PathBuf, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err("bad --checkpoint-dir '' (want a directory path)".to_string());
    }
    let dir = PathBuf::from(trimmed);
    if dir.exists() && !dir.is_dir() {
        return Err(format!(
            "bad --checkpoint-dir '{trimmed}': collides with an existing non-directory"
        ));
    }
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("bad --checkpoint-dir '{trimmed}': cannot create: {e}"))?;
    let probe = dir.join(".sweep-write-probe.tmp");
    std::fs::write(&probe, b"probe\n")
        .map_err(|e| format!("bad --checkpoint-dir '{trimmed}': not writable: {e}"))?;
    let _ = std::fs::remove_file(&probe);
    Ok(dir)
}

/// Read an artifact back through the typed `Deserialize` path and check its
/// structural invariants.
fn read_report(path: &str) -> SweepReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| CLI.fail(format!("cannot read {path}: {e}")));
    let report: SweepReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| CLI.fail(format!("cannot parse {path}: {e}")));
    report
        .validate()
        .unwrap_or_else(|e| CLI.fail(format!("invalid artifact {path}: {e}")));
    report
}

/// Read a `--resume` prior: either a full JSON artifact or a crash journal.
/// Journals are sniffed by their `{"journal_version"` header prefix; a torn
/// trailing line (the mark of a mid-append crash) is folded away by
/// `SweepReport::recover_journal`.
fn read_prior(path: &str) -> SweepReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| CLI.fail(format!("cannot read {path}: {e}")));
    if text.trim_start().starts_with("{\"journal_version\"") {
        let report = SweepReport::recover_journal(&text)
            .unwrap_or_else(|e| CLI.fail(format!("cannot recover journal {path}: {e}")));
        eprintln!(
            "sweep: recovered {} completed cell(s) from journal {path}",
            report.total_cells
        );
        report
    } else {
        read_report(path)
    }
}

/// Render an artifact, write it, and prove the written bytes read back
/// through the typed parser (the writer/parser round-trip CI relies on).
fn write_report(report: &SweepReport, path: &str) {
    let json = serde_json::to_string_pretty(report).expect("render sweep report");
    CLI.write(path, json + "\n");
    match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| SweepReport::validate_artifact(&text))
    {
        Ok(cells) => eprintln!("sweep: wrote and validated {path} ({cells} cells)"),
        Err(e) => CLI.fail(format!("emitted {path} failed validation: {e}")),
    }
}

/// Write the wall-clock-zeroed canonical form when requested.
fn write_canonical(report: &SweepReport, args: &Args) {
    if let Some(path) = args.text("--canonical-out") {
        write_report(&report.canonical(), path);
    }
}

/// Per-cell Table-I row rebuilt from an artifact row (resumed cells carry
/// no in-memory `CellRun`, so means and CSV exports work off the report).
fn row_metrics(row: &SweepCellRow) -> Option<SurrogateReport> {
    if !row.ok {
        return None;
    }
    Some(SurrogateReport {
        model: row.model.clone(),
        wd: row.wd?,
        jsd: row.jsd?,
        diff_corr: row.diff_corr?,
        dcr: row.dcr?,
        diff_mlef: row.diff_mlef,
    })
}

fn main() {
    let args = CLI.parse();
    let out = args.text("--out").unwrap_or("SWEEP.json");
    if args.switch("--merge") {
        CLI.check(args.only("--merge", &["--out", "--canonical-out", "--allow-partial"]));
        merge_main(&args, out);
    } else if let Some(count) = CLI.check(args.value("--drop-last")) {
        CLI.check(args.only("--drop-last", &["--out"]));
        drop_last_main(&args, count, out);
    } else {
        run_main(&args, out);
    }
}

/// `--merge`: validate and recombine shard artifacts.
fn merge_main(args: &Args, out: &str) {
    if args.operands.is_empty() {
        CLI.reject("--merge needs at least one artifact path");
    }
    let parts: Vec<SweepReport> = args.operands.iter().map(|path| read_report(path)).collect();
    let merged =
        SweepReport::merge(&parts).unwrap_or_else(|e| CLI.fail(format!("cannot merge: {e}")));
    if !merged.is_complete() && !args.switch("--allow-partial") {
        CLI.fail(format!(
            "merged artifact covers {} of {} grid cells; pass --allow-partial to accept an \
             incomplete merge",
            merged.total_cells, merged.grid_cells
        ));
    }
    eprintln!(
        "sweep: merged {} artifact(s) into {} cells ({} failed, grid {} cells)",
        parts.len(),
        merged.total_cells,
        merged.failed_cells,
        merged.grid_cells
    );
    write_report(&merged, out);
    write_canonical(&merged, args);
}

/// `--drop-last K IN.json`: artifact surgery for the CI resume smoke.
fn drop_last_main(args: &Args, count: usize, out: &str) {
    let [input] = args.operands.as_slice() else {
        CLI.reject("--drop-last needs exactly one input artifact path");
    };
    let mut report = read_report(input);
    if count > report.cells.len() {
        CLI.fail(format!(
            "cannot drop {count} rows from a {}-row artifact",
            report.cells.len()
        ));
    }
    report.cells.truncate(report.cells.len() - count);
    report.total_cells = report.cells.len();
    report.failed_cells = report.cells.iter().filter(|row| !row.ok).count();
    eprintln!(
        "sweep: dropped the last {count} row(s) of {input} ({} remain)",
        report.total_cells
    );
    write_report(&report, out);
}

/// The grid (quick or default, then each axis flag) and the per-cell
/// options of a run.
fn run_options(args: &Args) -> Result<(SweepGrid, SweepOptions), String> {
    let quick = args.switch("--quick");
    let mut grid = SweepGrid {
        seeds: if quick {
            vec![2024, 2025]
        } else {
            (2024..2026).collect()
        },
        budgets: if quick {
            vec![TrainingBudget::Smoke]
        } else {
            vec![TrainingBudget::Standard]
        },
        generators: vec![
            NamedGeneratorConfig::preset(if quick { "small" } else { "default" })
                .expect("known preset"),
        ],
        models: ModelKind::ALL.to_vec(),
    };
    grid.seeds = args
        .value_with("--seeds", parse_seeds)?
        .unwrap_or(grid.seeds);
    grid.budgets = args
        .value_with("--budgets", |v| {
            parse_list(v, "budget", TrainingBudget::parse)
        })?
        .unwrap_or(grid.budgets);
    grid.models = args
        .value_with("--models", |v| parse_list(v, "model", ModelKind::parse))?
        .unwrap_or(grid.models);
    let preset = NamedGeneratorConfig::preset;
    grid.generators = args
        .value_with("--grid", |v| parse_list(v, "generator preset", preset))?
        .unwrap_or(grid.generators);
    let rows = args
        .value::<usize>("--rows")?
        .unwrap_or(if quick { 2_500 } else { 20_000 });
    if rows > 0 {
        for generator in &mut grid.generators {
            generator.config.gross_records = rows;
        }
    }
    if let Some(Positive(days)) = args.value("--days")? {
        for generator in &mut grid.generators {
            generator.config.days = days;
        }
    }
    grid.seeds = dedup_axis("--seeds", grid.seeds, |s| *s);
    grid.budgets = dedup_axis("--budgets", grid.budgets, |b| *b);
    grid.models = dedup_axis("--models", grid.models, |m| *m);
    grid.generators = dedup_axis("--grid", grid.generators, |g| g.name.clone());
    if grid.is_empty() {
        return Err("the grid is empty (every axis needs at least one value)".to_string());
    }

    let evaluation = if quick || args.switch("--no-mlef") {
        EvaluationConfig {
            mlef: None,
            ..EvaluationConfig::fast()
        }
    } else {
        EvaluationConfig::fast()
    };
    let options = SweepOptions {
        mode: if args.switch("--sequential") {
            ExecutionMode::Sequential
        } else {
            ExecutionMode::Parallel
        },
        evaluation,
        keep_tables: false,
        sample_rows: args.value("--sample-rows")?.map(NonZeroUsize::get),
        budget: CellBudget {
            wall_clock: args
                .value("--budget-ms")?
                .map(|ms: NonZeroU64| Duration::from_millis(ms.get())),
            max_epochs: args.value("--max-epochs")?,
        },
        retries: args.value("--retries")?.unwrap_or(0),
        faults: args
            .value_with("--inject", FaultPlan::parse)?
            .unwrap_or_else(FaultPlan::none),
        clock: if args.switch("--virtual-clock") {
            FaultClock::Virtual
        } else {
            FaultClock::Real
        },
        shard: args.value_with("--shard", ShardSpec::parse)?,
        journal: args.text("--journal").map(PathBuf::from),
        // Last, so a refused command line leaves no directory behind.
        checkpoint_dir: args
            .text("--checkpoint-dir")
            .map(parse_checkpoint_dir)
            .transpose()?,
    };
    Ok((grid, options))
}

/// Default mode: expand the grid and run it (optionally one shard of it,
/// optionally resuming from a prior artifact).
fn run_main(args: &Args, out: &str) {
    if let Some(arg) = args.operands.first() {
        CLI.reject(format!("unexpected argument '{arg}'"));
    }
    let (grid, options) = CLI.check(run_options(args));
    let prior = args.text("--resume").map(read_prior);
    eprintln!(
        "sweep: {} cells = {} seed(s) x {} budget(s) x {} generator variant(s) x {} model(s){}",
        grid.len(),
        grid.seeds.len(),
        grid.budgets.len(),
        grid.generators.len(),
        grid.models.len(),
        options
            .shard
            .map(|s| format!(", shard {s}"))
            .unwrap_or_default()
    );

    // The prior was read into memory above, so the runner may recreate the
    // journal even when it is the very file being resumed from.
    let summary = run_sweep(&grid, &options, prior.as_ref()).unwrap_or_else(|e| match e {
        SweepArtifactError::Journal { .. } => CLI.fail(e),
        _ => CLI.fail(format!("cannot resume: {e}")),
    });
    let report = &summary.report;
    if let Some(dir) = &options.checkpoint_dir {
        let saved = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
                    .count()
            })
            .unwrap_or(0);
        eprintln!(
            "sweep: checkpoint dir {} holds {saved} artifact(s)",
            dir.display()
        );
    }
    eprintln!(
        "sweep: executed {} cell(s), resumed {} from the prior artifact",
        summary.runs.len(),
        summary.resumed
    );
    let failed = report.failed_cells;
    for row in report.cells.iter().filter(|row| !row.ok) {
        eprintln!(
            "warning: cell {} failed [{}, {} attempt(s)]: {}",
            row.id,
            row.error_kind.as_deref().unwrap_or("unknown"),
            row.attempts,
            row.error.as_deref().unwrap_or("unknown error")
        );
    }

    println!(
        "{:<34} {:>8} {:>8} {:>8} {:>10} {:>8} {:>10} {:>9}",
        "cell", "rows", "WD↓", "JSD↓", "diff-CORR↓", "DCR↑", "diff-MLEF↓", "wall ms"
    );
    for row in &report.cells {
        if row.ok {
            let mlef = row
                .diff_mlef
                .map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"));
            println!(
                "{:<34} {:>8} {:>8.3} {:>8.3} {:>10.3} {:>8.3} {:>10} {:>9.0}",
                row.id,
                row.train_rows.unwrap_or(0),
                row.wd.unwrap_or(f64::NAN),
                row.jsd.unwrap_or(f64::NAN),
                row.diff_corr.unwrap_or(f64::NAN),
                row.dcr.unwrap_or(f64::NAN),
                mlef,
                row.wall_ms
            );
        } else {
            println!(
                "{:<34} FAILED: {}",
                row.id,
                row.error.as_deref().unwrap_or("unknown error")
            );
        }
    }

    // Per-model means across every passing cell (the sweep-level Table I),
    // resumed rows included — the metrics come from the artifact rows, not
    // the in-memory runs.
    println!(
        "\nper-model means over {} passing cell(s) ({} total):",
        report.total_cells - failed,
        report.total_cells
    );
    println!("{}", SurrogateReport::table_header());
    for model in &grid.models {
        let rows: Vec<SurrogateReport> = report
            .cells
            .iter()
            .filter(|row| row.model == model.name())
            .filter_map(row_metrics)
            .collect();
        match mean_report(model.name(), &rows) {
            Some(mean) => println!("{}", mean.table_row()),
            None => println!("{:<12} (no passing cells)", model.name()),
        }
    }

    if let Some(csv_path) = args.text("--csv") {
        // Per-cell metrics rows; the model column carries the full cell id
        // so one file covers every axis combination.
        let mut csv = String::from(SurrogateReport::csv_header());
        csv.push('\n');
        for row in &report.cells {
            if let Some(metrics_row) = row_metrics(row) {
                let line = SurrogateReport {
                    model: row.id.clone(),
                    ..metrics_row
                };
                csv.push_str(&line.csv_row());
                csv.push('\n');
            }
        }
        CLI.write(csv_path, csv);
        eprintln!("sweep: wrote {csv_path}");
    }

    write_report(report, out);
    write_canonical(report, args);
    eprintln!(
        "sweep: {} cells, {} failed, {:.1}s",
        report.total_cells,
        failed,
        report.wall_ms / 1e3
    );
    if failed == report.total_cells && report.total_cells > 0 {
        CLI.fail("every cell failed");
    }
    if failed > 0 && args.switch("--strict") {
        CLI.fail(format!("{failed} cell(s) failed (--strict)"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        CLI.parse_from(list.iter().map(|s| s.to_string()))
            .unwrap_or_else(|e| panic!("{list:?}: {e}"))
    }

    /// The per-cell options of `list`, or the usage error it exits 2 with.
    fn run(list: &[&str]) -> Result<SweepOptions, String> {
        run_options(&args(list)).map(|(_, options)| options)
    }

    #[test]
    fn parse_seeds_accepts_ranges_and_lists() {
        assert_eq!(parse_seeds("2024..2027").unwrap(), vec![2024, 2025, 2026]);
        assert_eq!(parse_seeds(" 7 , 9 ").unwrap(), vec![7, 9]);
        assert_eq!(parse_seeds("5").unwrap(), vec![5]);
        assert_eq!(parse_seeds("1,,2").unwrap(), vec![1, 2]);
    }

    #[test]
    fn parse_seeds_rejects_malformed_specs_with_the_offending_token() {
        for (spec, needle) in [
            ("", "empty seed list"),
            ("   ", "empty seed list"),
            ("a,2", "bad seed 'a'"),
            ("3..x", "bad range end 'x'"),
            ("x..3", "bad range start 'x'"),
            ("5..5", "empty seed range"),
            ("9..2", "empty seed range"),
            ("-1,2", "bad seed '-1'"),
            ("1.5", "bad seed '1.5'"),
        ] {
            let err = parse_seeds(spec).unwrap_err();
            assert!(
                err.contains(needle),
                "'{spec}' should fail mentioning {needle:?}, got: {err}"
            );
        }
    }

    #[test]
    fn positionals_skip_flags_and_their_values() {
        let argv = args(&[
            "--merge",
            "a.json",
            "b.json",
            "--out",
            "merged.json",
            "--allow-partial",
            "c.json",
            "--canonical-out",
            "canon.json",
        ]);
        assert_eq!(argv.operands, ["a.json", "b.json", "c.json"]);
    }

    #[test]
    fn dedup_axis_keeps_first_occurrences_in_order() {
        let deduped = dedup_axis("--seeds", vec![3u64, 1, 3, 2, 1], |s| *s);
        assert_eq!(deduped, vec![3, 1, 2]);
    }

    #[test]
    fn retries_parser_accepts_counts_and_rejects_garbage() {
        let retries = |v: &str| run(&["--retries", v]).map(|options| options.retries);
        assert_eq!(retries("0").unwrap(), 0);
        assert_eq!(retries(" 3 ").unwrap(), 3);
        for bad in ["", "-1", "two", "1.5"] {
            assert!(
                retries(bad).unwrap_err().contains("--retries"),
                "{bad:?} must be rejected with the flag name"
            );
        }
    }

    #[test]
    fn budget_ms_parser_requires_a_positive_cap() {
        let budget_ms = |v: &str| {
            run(&["--budget-ms", v]).map(|options| options.budget.wall_clock.unwrap().as_millis())
        };
        assert_eq!(budget_ms("250").unwrap(), 250);
        assert_eq!(budget_ms(" 1 ").unwrap(), 1);
        for bad in ["0", "", "-5", "fast", "1.5"] {
            assert!(
                budget_ms(bad).unwrap_err().contains("--budget-ms"),
                "{bad:?} must be rejected with the flag name"
            );
        }
    }

    #[test]
    fn max_epochs_parser_allows_zero_for_immediate_trips() {
        let max_epochs =
            |v: &str| run(&["--max-epochs", v]).map(|options| options.budget.max_epochs.unwrap());
        assert_eq!(max_epochs("0").unwrap(), 0);
        assert_eq!(max_epochs("40").unwrap(), 40);
        for bad in ["", "-1", "many"] {
            assert!(
                max_epochs(bad).unwrap_err().contains("--max-epochs"),
                "{bad:?} must be rejected with the flag name"
            );
        }
    }

    #[test]
    fn checkpoint_dir_parser_creates_and_probes_the_directory() {
        let base =
            std::env::temp_dir().join(format!("panda_sweep_ckpt_dir_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);

        // A nested, not-yet-existing path is created.
        let nested = base.join("deep/ckpts");
        let dir = parse_checkpoint_dir(nested.to_str().unwrap()).unwrap();
        assert!(dir.is_dir());
        assert!(
            !dir.join(".sweep-write-probe.tmp").exists(),
            "probe file must be cleaned up"
        );
        // Re-validating an existing directory is fine.
        assert!(parse_checkpoint_dir(nested.to_str().unwrap()).is_ok());

        // Colliding with an existing file is rejected, mentioning the flag.
        let file = base.join("artifact.json");
        std::fs::write(&file, b"{}\n").unwrap();
        let err = parse_checkpoint_dir(file.to_str().unwrap()).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        assert!(err.contains("non-directory"), "{err}");

        assert!(parse_checkpoint_dir("")
            .unwrap_err()
            .contains("--checkpoint-dir"));
        assert!(parse_checkpoint_dir("   ")
            .unwrap_err()
            .contains("--checkpoint-dir"));

        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn fault_flag_values_are_consumed_not_treated_as_positionals() {
        let argv = args(&[
            "--inject",
            "cell0:panic",
            "--retries",
            "2",
            "--journal",
            "j.jsonl",
            "--budget-ms",
            "100",
            "--max-epochs",
            "5",
            "in.json",
        ]);
        assert_eq!(argv.operands, ["in.json"]);
        assert_eq!(argv.text("--inject"), Some("cell0:panic"));
        assert_eq!(argv.text("--retries"), Some("2"));
        assert_eq!(argv.text("--journal"), Some("j.jsonl"));
    }
}
