//! Scenario-sweep runtime: many seeds × budgets × generator variants ×
//! models, batched over one work queue.
//!
//! The paper evaluates its four surrogates at a single seed and budget, but
//! the point of a surrogate is cheap *exploration* of many simulator
//! configurations. This module scales the experiment runtime in that
//! direction: a declarative [`SweepGrid`] expands into [`SweepCell`]s (one
//! per axis combination), and [`run_sweep`] executes every cell's
//! fit→sample→evaluate pipeline batched over the existing rayon pool
//! ([`run_sweep_with`] is the same runner with an injected cell fitter).
//!
//! Three properties are load-bearing, mirroring `experiment`:
//!
//! * **Flat work queue** — (scenario × model) work items are flattened into
//!   one parallel queue rather than nesting parallel loops, so the pool
//!   load-balances across the whole grid instead of fork-joining per
//!   scenario. Datasets shared by several cells (same seed + generator
//!   variant) are prepared once, up front, and their cells share one
//!   MLEF(train → test) baseline.
//! * **Per-cell determinism** — every cell derives its RNGs from its own
//!   seed axis value alone, so any cell run alone (a one-cell grid of its
//!   own axis values) is byte-identical to the same cell inside a sweep,
//!   and parallel and sequential sweeps agree byte-for-byte;
//!   `tests/sweep.rs` asserts both.
//! * **Per-cell failure isolation** — a diverging fit surfaces as that
//!   cell's `Err` (reusing the `FitReport` semantics of per-run `Result`s);
//!   every other cell's output is untouched.
//!
//! Results aggregate into a serializable [`SweepReport`] (one metrics row
//! per cell: WD / JSD / diff-CORR / DCR / diff-MLEF deltas from `metrics`,
//! wall-clock, pass/fail) that the `bench --bin sweep` binary writes as a
//! JSON artifact and reads back **typed** through the `serde_json` shim's
//! `Deserialize` path (`from_str::<SweepReport>`).
//!
//! Sweeps are also **durable**: grid campaigns only scale when partial
//! results survive (Schmid et al., arXiv:2502.12741), so [`run_sweep`] can
//!
//! * **resume** — cells already present in a prior artifact (matched by cell
//!   id under an equal [`grid_fingerprint`]) are loaded instead of re-run,
//!   and the merged report is byte-identical to a from-scratch run modulo
//!   wall-clock fields;
//! * **shard** — a [`ShardSpec`] (`i/n`) deterministically partitions the
//!   axis-major cell order round-robin so independent containers split one
//!   grid, and [`SweepReport::merge`] recombines disjoint shard artifacts
//!   (validating fingerprints and disjointness) into the single report an
//!   unsharded run would have produced.
//!
//! Durable sweeps are also **fault-tolerant** (see [`crate::fault`]): every
//! cell attempt runs under `catch_unwind` so a panicking fit is lowered to a
//! typed [`CellError::Panicked`] row instead of taking down the work queue;
//! a [`CellBudget`] in the options cancels runaway fits cooperatively (once
//! per epoch) into [`CellError::BudgetExceeded`] rows with honest partial
//! wall-clock; failures retry up to [`SweepOptions::retries`] times with
//! deterministic per-attempt reseeds; the runner appends each completed row
//! to an fsync'd journal ([`SweepOptions::journal`]) so a SIGKILL'd sweep
//! resumes from its last completed *cell* via
//! [`SweepReport::recover_journal`]; and a [`FaultPlan`] injects
//! panics/NaN losses/delays/expired budgets at named cells so all of the
//! above is CI-testable without timing races.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use metrics::{evaluate_against, EvaluationConfig, MetricError, MlefBaseline, SurrogateReport};
use pandasim::GeneratorConfig;
use tabular::{Table, TabularError};

use crate::artifact_io::{atomic_write, parse_log_rows, Fnv1a, RowError, TailPolicy};
use crate::checkpoint::Checkpoint;
use crate::experiment::{try_prepare_data_from_config, ExecutionMode, PreparedData};
use crate::fault::{
    derive_attempt_seed, panic_message, CellBudget, FaultClock, FaultKind, FaultPlan, FitControl,
};
use crate::pipeline::{build_payload, ModelKind, TrainingBudget};
use crate::traits::SurrogateError;

/// A named generator configuration — one value on the sweep's
/// generator-variant axis. The name is carried into cell ids and report
/// rows; the config's `seed` field is overridden per cell by the seed axis.
#[derive(Debug, Clone)]
pub struct NamedGeneratorConfig {
    /// Short name used in cell ids (e.g. `"tier2_heavy"`).
    pub name: String,
    /// The generator configuration this name stands for.
    pub config: GeneratorConfig,
}

impl NamedGeneratorConfig {
    /// Resolve one of the `pandasim` presets (see
    /// [`GeneratorConfig::PRESET_NAMES`]).
    pub fn preset(name: &str) -> Option<Self> {
        GeneratorConfig::preset(name).map(|config| Self {
            name: name.to_string(),
            config,
        })
    }
}

/// The declarative sweep grid: the cross product of four axes. Expansion
/// order is fixed — seeds, then budgets, then generator variants, then
/// models — so cell indices and report rows are stable for a given grid.
///
/// Axis values are taken as given: a repeated value (the same seed twice,
/// two variants with one name) expands into cells with duplicate ids that
/// are fitted twice and double-weighted by downstream means. Callers that
/// accept user input should de-duplicate first, as the `sweep` binary does.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Seed axis. Each seed drives both data generation and model training.
    pub seeds: Vec<u64>,
    /// Training-budget axis.
    pub budgets: Vec<TrainingBudget>,
    /// Generator-variant axis.
    pub generators: Vec<NamedGeneratorConfig>,
    /// Model-subset axis.
    pub models: Vec<ModelKind>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self {
            seeds: vec![2024],
            budgets: vec![TrainingBudget::Standard],
            generators: vec![NamedGeneratorConfig::preset("default").expect("known preset")],
            models: ModelKind::ALL.to_vec(),
        }
    }
}

impl SweepGrid {
    /// Number of cells the grid expands to (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.seeds.len() * self.budgets.len() * self.generators.len() * self.models.len()
    }

    /// Whether any axis is empty (the grid expands to no cells).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the grid into its cells, in the fixed axis order.
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.len());
        for &seed in &self.seeds {
            for &budget in &self.budgets {
                for generator in &self.generators {
                    for &model in &self.models {
                        // The cell's dataset is a pure function of
                        // (generator variant, seed): pin the seed here so
                        // standalone and in-sweep runs prepare identical data.
                        let mut generator = generator.clone();
                        generator.config.seed = seed;
                        cells.push(SweepCell {
                            index: cells.len(),
                            seed,
                            budget,
                            generator,
                            model,
                        });
                    }
                }
            }
        }
        cells
    }
}

/// One (scenario × model) work item of a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the expanded grid (stable for a given grid).
    pub index: usize,
    /// Seed axis value (already applied to `generator.config.seed`).
    pub seed: u64,
    /// Training-budget axis value.
    pub budget: TrainingBudget,
    /// Generator-variant axis value, seed already pinned.
    pub generator: NamedGeneratorConfig,
    /// Model axis value.
    pub model: ModelKind,
}

impl SweepCell {
    /// Human-readable unique id, e.g. `s2024-smoke-default-tabddpm`.
    pub fn id(&self) -> String {
        let model: String = self
            .model
            .name()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        format!(
            "s{}-{}-{}-{}",
            self.seed,
            self.budget.name(),
            self.generator.name,
            model
        )
    }

    /// Key identifying the prepared dataset this cell runs on. Cells share
    /// one prepared dataset inside a sweep only when both this key (seed +
    /// variant name) and the full generator config agree, so a misnamed
    /// variant can never silently run on another variant's data.
    pub fn dataset_key(&self) -> (u64, String) {
        (self.seed, self.generator.name.clone())
    }
}

/// One shard of a sweep: this container runs every cell whose axis-major
/// index is congruent to `index` modulo `count` (round-robin, so each shard
/// sees a balanced mix of seeds and models rather than a contiguous slab of
/// the heaviest axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards splitting the grid, `>= 1`.
    pub count: usize,
}

impl ShardSpec {
    /// Parse an `i/n` spec (as passed to `sweep --shard`), rejecting
    /// malformed text, `n == 0` and `i >= n` with a usable message.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("bad shard spec '{text}' (want I/N, e.g. 0/2)"))?;
        let spec = Self {
            index: index
                .trim()
                .parse()
                .map_err(|_| format!("bad shard index '{index}' in '{text}'"))?,
            count: count
                .trim()
                .parse()
                .map_err(|_| format!("bad shard count '{count}' in '{text}'"))?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the invariants (`count >= 1`, `index < count`).
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("shard count must be >= 1".to_string());
        }
        if self.index >= self.count {
            return Err(format!(
                "shard index {} out of range for {} shard(s)",
                self.index, self.count
            ));
        }
        Ok(())
    }

    /// Whether the cell at `cell_index` in the axis-major order belongs to
    /// this shard.
    pub fn contains(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// 64-bit FNV-1a over a canonical encoding of everything that determines a
/// sweep's results: the four grid axes (with each generator's full config,
/// not just its name), the per-cell sample count and the evaluation
/// configuration. Resume and merge refuse artifacts whose fingerprint
/// differs — a stale artifact from an edited grid can never be silently
/// mixed into a fresh run. Rendered as 16 lowercase hex digits.
pub fn grid_fingerprint(grid: &SweepGrid, options: &SweepOptions) -> String {
    // Length-prefixed token feed (Fnv1a::feed_token) so concatenations
    // cannot collide. Execution-only knobs (mode, keep_tables, clock,
    // shard, journal, checkpoint directory) stay out: they cannot change
    // results, so artifacts remain resumable and mergeable across them.
    let mut hash = Fnv1a::new();
    for seed in &grid.seeds {
        hash.feed_token(&format!("seed:{seed}"));
    }
    for budget in &grid.budgets {
        hash.feed_token(&format!("budget:{}", budget.name()));
    }
    for generator in &grid.generators {
        let config = serde_json::to_string(&generator.config).expect("render generator config");
        hash.feed_token(&format!("generator:{}:{config}", generator.name));
    }
    for model in &grid.models {
        hash.feed_token(&format!("model:{}", model.name()));
    }
    hash.feed_token(&format!("sample_rows:{:?}", options.sample_rows));
    let evaluation = serde_json::to_string(&options.evaluation).expect("render evaluation config");
    hash.feed_token(&format!("evaluation:{evaluation}"));
    hash.feed_token(&format!(
        "cell_budget:wall_ms={:?}:max_epochs={:?}",
        options.budget.wall_clock.map(|d| d.as_millis()),
        options.budget.max_epochs
    ));
    hash.feed_token(&format!("retries:{}", options.retries));
    hash.feed_token(&format!("faults:{}", options.faults));
    hash.finish_hex()
}

/// Options shared by every cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Parallel (default) or sequential execution; byte-identical outputs.
    pub mode: ExecutionMode,
    /// Metric configuration for the per-cell evaluation.
    pub evaluation: EvaluationConfig,
    /// Retain each cell's synthetic table in its [`CellRun`]. Off by
    /// default: a large sweep would otherwise hold every synthetic table in
    /// memory at once. Determinism tests switch this on to compare tables
    /// byte-for-byte.
    pub keep_tables: bool,
    /// Rows to sample per cell; `None` samples as many as the training
    /// split holds.
    pub sample_rows: Option<usize>,
    /// Per-cell resource budget. The wall clock spans the whole cell
    /// (across retries); the epoch cap applies to each fit. Unlimited by
    /// default, which keeps budget-free sweeps byte-identical.
    pub budget: CellBudget,
    /// How many times a failed cell is retried (0 = no retries). Each
    /// attempt reseeds deterministically via
    /// [`crate::fault::derive_attempt_seed`]; attempt 0 uses the cell seed
    /// unchanged. Budget-exceeded cells are not retried — their budget is
    /// already spent.
    pub retries: u32,
    /// Deterministic fault injection, keyed by flat cell index. Empty by
    /// default.
    pub faults: FaultPlan,
    /// How injected delay faults burn time. [`FaultClock::Virtual`] charges
    /// the delay to the cell's `wall_ms` without sleeping, so fault
    /// matrices stop wasting real CI minutes. Execution-only (like `mode`):
    /// not part of the grid fingerprint.
    pub clock: FaultClock,
    /// Run only this round-robin slice of the axis-major cell order (`None`
    /// runs every cell). Execution-only, so the shards of a grid merge.
    pub shard: Option<ShardSpec>,
    /// Crash-safe journal the runner writes: the prior's rows for this
    /// shard, then each fresh row, fsync'd as its cell completes.
    pub journal: Option<PathBuf>,
    /// Directory each fitted cell is saved into as a crash-safe
    /// [`Checkpoint`] (`<cell-id>.ckpt`) before it is sampled.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            mode: ExecutionMode::Parallel,
            evaluation: EvaluationConfig::fast(),
            keep_tables: false,
            sample_rows: None,
            budget: CellBudget::unlimited(),
            retries: 0,
            faults: FaultPlan::none(),
            clock: FaultClock::default(),
            shard: None,
            journal: None,
            checkpoint_dir: None,
        }
    }
}

/// Why a sweep cell failed. This is the typed, per-cell lowering of every
/// failure mode the executor can observe: ordinary fit errors, captured
/// panics, tripped budgets, training divergence, and degenerate synthetic
/// tables rejected by the metric kernels. `kind()` names the mode in
/// artifact rows so downstream tooling can filter without string matching.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The fit or sampling failed with an ordinary model error.
    Fit(SurrogateError),
    /// The fit panicked; captured via `catch_unwind`, never propagated.
    Panicked {
        /// The panic payload, rendered as a string.
        message: String,
    },
    /// The cell's [`CellBudget`] cancelled the fit.
    BudgetExceeded {
        /// Epochs that finished before the budget tripped.
        completed_epochs: usize,
    },
    /// Training diverged into a NaN/infinite epoch loss.
    NonFiniteLoss {
        /// 0-based epoch whose mean loss was non-finite.
        epoch: usize,
    },
    /// The synthetic table could not be evaluated (empty, or sharing no
    /// columns with the reference).
    Metric(MetricError),
    /// The cell's dataset could not be prepared (too few records survive
    /// the funnel to split), so no model was fitted.
    Data(TabularError),
}

impl CellError {
    /// Every value [`CellError::kind`] can return, for artifact validation.
    pub const KINDS: [&'static str; 6] = [
        "fit",
        "panic",
        "budget",
        "non_finite_loss",
        "metric",
        "data",
    ];

    /// Stable machine-readable name of this failure mode, written into
    /// [`SweepCellRow::error_kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Fit(_) => "fit",
            CellError::Panicked { .. } => "panic",
            CellError::BudgetExceeded { .. } => "budget",
            CellError::NonFiniteLoss { .. } => "non_finite_loss",
            CellError::Metric(_) => "metric",
            CellError::Data(_) => "data",
        }
    }
}

impl From<SurrogateError> for CellError {
    /// Promote the fault-shaped `SurrogateError` variants to their own
    /// [`CellError`] modes, so a budget tripped deep inside a model fit and
    /// one tripped by the executor report identically.
    fn from(error: SurrogateError) -> Self {
        match error {
            SurrogateError::BudgetExceeded { completed_epochs } => {
                CellError::BudgetExceeded { completed_epochs }
            }
            SurrogateError::NonFiniteLoss { epoch } => CellError::NonFiniteLoss { epoch },
            SurrogateError::Panicked { message } => CellError::Panicked { message },
            other => CellError::Fit(other),
        }
    }
}

impl From<MetricError> for CellError {
    fn from(error: MetricError) -> Self {
        CellError::Metric(error)
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Fit(e) => write!(f, "{e}"),
            CellError::Panicked { message } => write!(f, "fit panicked: {message}"),
            CellError::BudgetExceeded { completed_epochs } => {
                write!(f, "budget exceeded after {completed_epochs} epochs")
            }
            CellError::NonFiniteLoss { epoch } => {
                write!(f, "non-finite training loss at epoch {epoch}")
            }
            CellError::Metric(e) => write!(f, "metric error: {e}"),
            CellError::Data(e) => write!(f, "cannot prepare the dataset: {e}"),
        }
    }
}

impl std::error::Error for CellError {}

/// What a successfully executed cell produced.
#[derive(Debug)]
pub struct CellSuccess {
    /// The Table-I-style metrics row for this cell.
    pub report: SurrogateReport,
    /// Rows in the training split the model was fitted on.
    pub train_rows: usize,
    /// Rows sampled from the fitted model.
    pub synthetic_rows: usize,
    /// The synthetic table, kept only under
    /// [`SweepOptions::keep_tables`].
    pub synthetic: Option<Table>,
}

/// The outcome of one cell: its metrics row, or why the fit failed —
/// failure stays confined to the cell, like a failed
/// [`crate::experiment::ModelRun`] inside a `FitReport`.
#[derive(Debug)]
pub struct CellRun {
    /// The cell this run executed.
    pub cell: SweepCell,
    /// Metrics row or per-cell error.
    pub outcome: Result<CellSuccess, CellError>,
    /// Wall-clock of the fit→sample→evaluate pipeline for this cell,
    /// spanning every retry attempt.
    pub wall_ms: f64,
    /// How many attempts ran (1 + retries actually taken).
    pub attempts: u32,
}

/// One serialized row of the sweep artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCellRow {
    /// Position in the full expanded grid — the merge key across shards.
    pub index: usize,
    /// Unique cell id (see [`SweepCell::id`]).
    pub id: String,
    /// Seed axis value.
    pub seed: u64,
    /// Budget axis value (name).
    pub budget: String,
    /// Generator-variant axis value (name).
    pub generator: String,
    /// Model axis value (Table-I name).
    pub model: String,
    /// Whether the cell produced a metrics row.
    pub ok: bool,
    /// The cell's error, when `ok` is false.
    pub error: Option<String>,
    /// Machine-readable failure mode (one of [`CellError::KINDS`]), when
    /// `ok` is false.
    pub error_kind: Option<String>,
    /// Attempts the cell ran (1 + retries actually taken); at least 1.
    pub attempts: usize,
    /// Training rows the model saw (absent on failure).
    pub train_rows: Option<usize>,
    /// Synthetic rows sampled (absent on failure).
    pub synthetic_rows: Option<usize>,
    /// Cell wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Mean normalised Wasserstein distance (↓, absent on failure).
    pub wd: Option<f64>,
    /// Mean Jensen–Shannon divergence (↓, absent on failure).
    pub jsd: Option<f64>,
    /// Association-matrix delta (↓, absent on failure).
    pub diff_corr: Option<f64>,
    /// Distance to closest record (↑, absent on failure).
    pub dcr: Option<f64>,
    /// MLEF gap (↓, absent when failed or probe skipped).
    pub diff_mlef: Option<f64>,
}

impl SweepCellRow {
    fn from_run(run: &CellRun) -> Self {
        let cell = &run.cell;
        let base = Self {
            index: cell.index,
            id: cell.id(),
            seed: cell.seed,
            budget: cell.budget.name().to_string(),
            generator: cell.generator.name.clone(),
            model: cell.model.name().to_string(),
            ok: false,
            error: None,
            error_kind: None,
            attempts: run.attempts as usize,
            train_rows: None,
            synthetic_rows: None,
            wall_ms: run.wall_ms,
            wd: None,
            jsd: None,
            diff_corr: None,
            dcr: None,
            diff_mlef: None,
        };
        match &run.outcome {
            Ok(success) => Self {
                ok: true,
                train_rows: Some(success.train_rows),
                synthetic_rows: Some(success.synthetic_rows),
                wd: Some(success.report.wd),
                jsd: Some(success.report.jsd),
                diff_corr: Some(success.report.diff_corr),
                dcr: Some(success.report.dcr),
                diff_mlef: success.report.diff_mlef,
                ..base
            },
            Err(error) => Self {
                error: Some(error.to_string()),
                error_kind: Some(error.kind().to_string()),
                ..base
            },
        }
    }
}

/// Current sweep-artifact schema version. Version 2 added the typed
/// durability header (`grid_fingerprint`, `grid_cells`, `shard`) and the
/// per-row `index`; version 3 added the fault-tolerance row fields
/// (`error_kind`, `attempts`). Older artifacts are rejected by the typed
/// read-back (they lack mandatory fields) rather than mis-merged.
pub const SCHEMA_VERSION: u32 = 3;

/// Producer tag written into every artifact.
pub const GENERATED_BY: &str = "surrogate::sweep";

/// The serializable sweep artifact: header plus one row per cell. A full
/// run carries every cell; a shard or interrupted run carries a subset
/// (`total_cells < grid_cells`), recombined by [`SweepReport::merge`] or
/// completed by resuming it with [`run_sweep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Artifact schema version (this layout: [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Producer tag.
    pub generated_by: String,
    /// [`grid_fingerprint`] of the grid + options that produced this
    /// artifact; resume and merge refuse artifacts from a different grid.
    pub grid_fingerprint: String,
    /// Cell count of the **full** grid (not just the rows present here).
    pub grid_cells: usize,
    /// The shard this artifact covers, `None` for an unsharded or merged
    /// run.
    pub shard: Option<ShardSpec>,
    /// Number of cell rows present in this artifact.
    pub total_cells: usize,
    /// How many of them failed.
    pub failed_cells: usize,
    /// Whole-sweep wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Per-cell rows, ascending by `index`.
    pub cells: Vec<SweepCellRow>,
}

/// Why a sweep could not start, or artifacts could not be merged: a prior
/// artifact that does not fit the grid, an invalid shard, or a journal the
/// runner could not create.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepArtifactError {
    /// Merge was given no artifacts.
    NoParts,
    /// The artifact was written under a different schema.
    SchemaVersion {
        /// Version found in the artifact.
        found: u32,
    },
    /// The artifact's grid fingerprint does not match — it is stale
    /// (different axes, sample count or evaluation config).
    FingerprintMismatch {
        /// Fingerprint the current grid + options hash to.
        expected: String,
        /// Fingerprint carried by the artifact.
        found: String,
    },
    /// The artifact disagrees about the full grid's cell count.
    GridSize {
        /// Cell count of the current grid.
        expected: usize,
        /// Cell count claimed by the artifact.
        found: usize,
    },
    /// A row's id does not exist in the current grid.
    UnknownCell {
        /// The offending row id.
        id: String,
    },
    /// A row's recorded index disagrees with the grid's expansion order.
    IndexMismatch {
        /// The offending row id.
        id: String,
        /// Index the current grid assigns this cell.
        expected: usize,
        /// Index recorded in the artifact.
        found: usize,
    },
    /// The same cell appears more than once (overlapping shards, or a
    /// duplicated row in one artifact).
    OverlappingCell {
        /// The duplicated cell id.
        id: String,
    },
    /// The shard spec violates its invariants (`count == 0` or
    /// `index >= count`).
    InvalidShard {
        /// What [`ShardSpec::validate`] rejected.
        reason: String,
    },
    /// The journal file could not be created or written.
    Journal {
        /// The journal path.
        path: PathBuf,
        /// The I/O error, rendered.
        error: String,
    },
}

impl std::fmt::Display for SweepArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoParts => write!(f, "no artifacts to merge"),
            Self::SchemaVersion { found } => write!(
                f,
                "artifact schema_version {found} is not the supported {SCHEMA_VERSION}"
            ),
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "stale artifact: grid fingerprint {found} does not match {expected} \
                 (the grid axes, sample count or evaluation config differ)"
            ),
            Self::GridSize { expected, found } => write!(
                f,
                "artifact claims a {found}-cell grid but the current grid has {expected} cells"
            ),
            Self::UnknownCell { id } => {
                write!(f, "artifact row '{id}' does not exist in the current grid")
            }
            Self::IndexMismatch {
                id,
                expected,
                found,
            } => write!(
                f,
                "artifact row '{id}' is recorded at index {found} but the grid expands it at {expected}"
            ),
            Self::OverlappingCell { id } => write!(f, "cell '{id}' appears more than once"),
            Self::InvalidShard { reason } => write!(f, "invalid shard spec: {reason}"),
            Self::Journal { path, error } => {
                write!(f, "cannot create journal {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for SweepArtifactError {}

impl SweepReport {
    /// A current-schema report over `cells` (in grid order), with its row
    /// counts derived from the rows.
    fn from_rows(
        grid_fingerprint: String,
        grid_cells: usize,
        shard: Option<ShardSpec>,
        wall_ms: f64,
        cells: Vec<SweepCellRow>,
    ) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            generated_by: GENERATED_BY.to_string(),
            grid_fingerprint,
            grid_cells,
            shard,
            total_cells: cells.len(),
            failed_cells: cells.iter().filter(|row| !row.ok).count(),
            wall_ms,
            cells,
        }
    }

    /// Whether this artifact carries every cell of its grid.
    pub fn is_complete(&self) -> bool {
        self.total_cells == self.grid_cells
    }

    /// Copy with every wall-clock field zeroed — the canonical form two
    /// artifacts are compared in, since wall-clock is the one field an
    /// otherwise deterministic sweep cannot reproduce. CI diffs canonical
    /// forms to enforce shard-merge ≡ unsharded and resumed ≡ from-scratch.
    pub fn canonical(&self) -> SweepReport {
        let mut canonical = self.clone();
        canonical.wall_ms = 0.0;
        for row in &mut canonical.cells {
            row.wall_ms = 0.0;
        }
        canonical
    }

    /// Recombine disjoint shard artifacts of one grid into the single
    /// report an unsharded run would have produced (modulo wall-clock,
    /// which sums over the parts). Rejects mismatched fingerprints /
    /// schemas and overlapping cells; completeness is the caller's policy
    /// (see [`SweepReport::is_complete`]).
    pub fn merge(parts: &[SweepReport]) -> Result<SweepReport, SweepArtifactError> {
        let first = parts.first().ok_or(SweepArtifactError::NoParts)?;
        for part in parts {
            part.check_grid(&first.grid_fingerprint, first.grid_cells)?;
        }
        let mut cells: Vec<SweepCellRow> = parts
            .iter()
            .flat_map(|part| part.cells.iter().cloned())
            .collect();
        cells.sort_by_key(|row| row.index);
        for pair in cells.windows(2) {
            if pair[0].index == pair[1].index {
                return Err(SweepArtifactError::OverlappingCell {
                    id: pair[1].id.clone(),
                });
            }
        }
        if let Some(row) = cells.iter().find(|row| row.index >= first.grid_cells) {
            return Err(SweepArtifactError::UnknownCell { id: row.id.clone() });
        }
        Ok(SweepReport {
            generated_by: first.generated_by.clone(),
            ..SweepReport::from_rows(
                first.grid_fingerprint.clone(),
                first.grid_cells,
                None,
                parts.iter().map(|part| part.wall_ms).sum(),
                cells,
            )
        })
    }

    /// Reject an artifact written under another schema, grid fingerprint
    /// or grid size: the check both resume and merge make before trusting
    /// any row.
    fn check_grid(&self, fingerprint: &str, grid_cells: usize) -> Result<(), SweepArtifactError> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(SweepArtifactError::SchemaVersion {
                found: self.schema_version,
            });
        }
        if self.grid_fingerprint != fingerprint {
            return Err(SweepArtifactError::FingerprintMismatch {
                expected: fingerprint.to_string(),
                found: self.grid_fingerprint.clone(),
            });
        }
        if self.grid_cells != grid_cells {
            return Err(SweepArtifactError::GridSize {
                expected: grid_cells,
                found: self.grid_cells,
            });
        }
        Ok(())
    }

    /// Structural invariants of an artifact, checked after the typed parse:
    /// supported schema, header counts consistent with the rows, rows
    /// strictly ascending by index and inside the grid (and inside the
    /// declared shard), passing rows carrying finite metrics, failing rows
    /// carrying their error.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (expected {SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.total_cells != self.cells.len() {
            return Err(format!(
                "cell count mismatch: total_cells {} vs {} rows",
                self.total_cells,
                self.cells.len()
            ));
        }
        if self.total_cells > self.grid_cells {
            return Err(format!(
                "artifact carries {} rows for a {}-cell grid",
                self.total_cells, self.grid_cells
            ));
        }
        let failed = self.cells.iter().filter(|row| !row.ok).count();
        if self.failed_cells != failed {
            return Err(format!(
                "failed_cells {} disagrees with {} failing rows",
                self.failed_cells, failed
            ));
        }
        if self.grid_fingerprint.len() != 16
            || !self
                .grid_fingerprint
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            return Err(format!(
                "grid_fingerprint '{}' is not 16 lowercase hex digits",
                self.grid_fingerprint
            ));
        }
        if let Some(shard) = &self.shard {
            shard.validate()?;
        }
        let mut previous: Option<usize> = None;
        for row in &self.cells {
            if row.id.is_empty() {
                return Err(format!("cell row {} has an empty id", row.index));
            }
            if previous.is_some_and(|p| p >= row.index) {
                return Err(format!(
                    "cell rows are not strictly ascending by index at '{}'",
                    row.id
                ));
            }
            previous = Some(row.index);
            if row.index >= self.grid_cells {
                return Err(format!(
                    "cell '{}' index {} is outside the {}-cell grid",
                    row.id, row.index, self.grid_cells
                ));
            }
            if let Some(shard) = &self.shard {
                if !shard.contains(row.index) {
                    return Err(format!(
                        "cell '{}' (index {}) does not belong to shard {shard}",
                        row.id, row.index
                    ));
                }
            }
            if row.attempts == 0 {
                return Err(format!("cell '{}' claims 0 attempts", row.id));
            }
            if row.ok {
                for (field, value) in [
                    ("wd", row.wd),
                    ("jsd", row.jsd),
                    ("diff_corr", row.diff_corr),
                    ("dcr", row.dcr),
                ] {
                    match value {
                        Some(v) if v.is_finite() => {}
                        Some(_) => return Err(format!("cell field '{field}' is not finite")),
                        None => {
                            return Err(format!("passing cell missing numeric '{field}'"));
                        }
                    }
                }
                if row.error.is_some() || row.error_kind.is_some() {
                    return Err(format!("passing cell '{}' carries an error", row.id));
                }
            } else {
                if row.error.is_none() {
                    return Err(format!("failing cell '{}' missing 'error'", row.id));
                }
                match row.error_kind.as_deref() {
                    Some(kind) if CellError::KINDS.contains(&kind) => {}
                    Some(kind) => {
                        return Err(format!(
                            "failing cell '{}' has unknown error_kind '{kind}'",
                            row.id
                        ));
                    }
                    None => {
                        return Err(format!("failing cell '{}' missing 'error_kind'", row.id));
                    }
                }
            }
        }
        Ok(())
    }

    /// Parse a written artifact back into the typed struct and check its
    /// invariants, returning the cell count. This is the read-back half the
    /// `sweep` binary and `tests/sweep.rs` use to prove the JSON
    /// round-trips — it goes through the shim `Deserialize` derive, not
    /// `Value` accessors.
    pub fn validate_artifact(text: &str) -> Result<usize, String> {
        let report: SweepReport = serde_json::from_str(text).map_err(|e| e.to_string())?;
        report.validate()?;
        Ok(report.total_cells)
    }

    /// Fold a (possibly torn) journal back into a validated report that
    /// `--resume` accepts as a prior.
    ///
    /// The journal is line-delimited: a header line (journal version, grid
    /// fingerprint, grid cell count, shard), then one [`SweepCellRow`] per
    /// line — a resume's prior rows first, then fresh rows in completion
    /// order. A process killed mid-append leaves at most one torn trailing
    /// line — any strict prefix of a JSON object line fails to parse — so
    /// recovery reads rows under
    /// [`TailPolicy::DropTorn`] (shared with the checkpoint loader via
    /// [`crate::artifact_io::parse_log_rows`]): an unparseable *last* line
    /// is dropped silently. Corruption anywhere else (an interior line that
    /// fails to parse, a bad header) is an error: fsync'd interior rows
    /// can't legitimately be damaged by a crash.
    pub fn recover_journal(text: &str) -> Result<SweepReport, String> {
        let mut lines = text.split('\n');
        let header_line = lines.next().unwrap_or_default();
        let header: JournalHeader =
            serde_json::from_str(header_line).map_err(|e| format!("journal header: {e}"))?;
        if header.journal_version != JOURNAL_VERSION {
            return Err(format!(
                "unsupported journal_version {} (expected {JOURNAL_VERSION})",
                header.journal_version
            ));
        }
        let rest: Vec<&str> = lines.collect();
        let parsed = parse_log_rows(&rest, 2, TailPolicy::DropTorn, |line| {
            serde_json::from_str::<SweepCellRow>(line)
        })
        .map_err(|e| match e {
            RowError::Empty { line } => format!("journal line {line} is empty"),
            RowError::Parse { line, error } => format!("journal line {line}: {error}"),
        })?;
        let mut rows = parsed.rows;
        // Rows land in completion order (parallel cells finish when they
        // finish); the artifact invariant is grid order.
        rows.sort_by_key(|row| row.index);
        let report = SweepReport::from_rows(
            header.grid_fingerprint,
            header.grid_cells,
            header.shard,
            rows.iter().map(|row| row.wall_ms).sum(),
            rows,
        );
        report.validate()?;
        Ok(report)
    }
}

/// Per-attempt context handed to a cell fitter: which retry attempt this
/// is, the seed derived for it ([`derive_attempt_seed`] — attempt 0 is the
/// cell seed itself), and the cooperative cancellation token carrying the
/// cell budget's deadline.
#[derive(Debug, Clone, Copy)]
pub struct FitContext {
    /// 0-based attempt number (0 = first try, 1 = first retry, …).
    pub attempt: u32,
    /// The deterministic seed for this attempt.
    pub seed: u64,
    /// Cancellation token epoch loops must poll.
    pub control: FitControl,
}

/// The default cell fitter: fit the cell's model, save it when
/// [`SweepOptions::checkpoint_dir`] is set, then sample. The RNG chain
/// derives from the attempt seed exactly as [`crate::experiment::fit_all`]
/// derives it from the experiment seed, and saving does not touch it. A
/// failed save is reported on stderr but never fails the cell.
fn default_fitter(
    cell: &SweepCell,
    train: &Table,
    options: &SweepOptions,
    ctx: &FitContext,
) -> Result<Table, SurrogateError> {
    let rows = options.sample_rows.unwrap_or_else(|| train.n_rows());
    let mut payload = build_payload(cell.model, cell.budget, ctx.seed);
    payload
        .generator_mut()
        .fit_with_control(train, &ctx.control)?;
    // Checkpoint under the cell's identity (its id-forming seed), even
    // when a retry fitted with a derived attempt seed — the payload itself
    // records what it actually trained with.
    let checkpoint = Checkpoint::new(&cell.generator.name, cell.seed, cell.budget, payload);
    if let Some(dir) = &options.checkpoint_dir {
        if let Err(e) = checkpoint.save_to_dir(dir) {
            eprintln!("warning: checkpoint save failed for {}: {e}", cell.id());
        }
    }
    checkpoint.sample(rows, ctx.seed.wrapping_add(1))
}

/// One attempt of a cell's fit→sample→evaluate pipeline, with injected
/// faults applied and panics captured. `baseline` is the dataset's shared
/// MLEF(train → test), computed by the first attempt that reaches MLEF,
/// inside that attempt's unwind boundary. The `start` instant anchors the
/// budget deadline to the *cell*, not the attempt: retries never extend a
/// wall-clock budget. The second element of the return value is the
/// virtual milliseconds this attempt charged (injected delays under
/// [`FaultClock::Virtual`]); the caller folds them into `wall_ms`.
fn run_cell_attempt<F>(
    data: &PreparedData,
    baseline: &MlefBaseline,
    cell: &SweepCell,
    options: &SweepOptions,
    fitter: &F,
    attempt: u32,
    start: Instant,
) -> (Result<CellSuccess, CellError>, f64)
where
    F: Fn(&SweepCell, &Table, &FitContext) -> Result<Table, SurrogateError> + Sync,
{
    let fault = options
        .faults
        .for_cell(cell.index)
        .map(|f| f.kind)
        .filter(|kind| kind.applies(attempt));
    // An injected `budget` fault trips on the first epoch check regardless
    // of the configured budget — a timing-free way to exercise the
    // BudgetExceeded path in CI.
    let control = match fault {
        Some(FaultKind::Budget) => CellBudget {
            wall_clock: None,
            max_epochs: Some(0),
        }
        .control_from(start),
        _ => options.budget.control_from(start),
    };
    let ctx = FitContext {
        attempt,
        seed: derive_attempt_seed(cell.seed, attempt),
        control,
    };
    // Delays burn on the configured clock *outside* the unwind boundary:
    // under a virtual clock nothing sleeps and the duration is charged to
    // the cell's wall accounting instead.
    let virtual_ms = match fault {
        Some(FaultKind::Delay { ms }) => options.clock.delay_ms(ms),
        _ => 0.0,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        match fault {
            Some(FaultKind::Panic { .. }) => {
                panic!("injected fault: panic at cell{}", cell.index);
            }
            Some(FaultKind::Nan { .. }) => {
                return Err(CellError::NonFiniteLoss { epoch: 0 });
            }
            _ => {}
        }
        fitter(cell, &data.train, &ctx)
            .map_err(CellError::from)
            .and_then(|synthetic| {
                // A degenerate synthetic table (empty, wrong columns) is
                // this cell's typed Metric failure, never a sweep-wide
                // abort.
                evaluate_against(
                    cell.model.name(),
                    &data.train,
                    &data.test,
                    &synthetic,
                    &options.evaluation,
                    baseline,
                )
                .map_err(CellError::Metric)
                .map(|report| CellSuccess {
                    report,
                    train_rows: data.train.n_rows(),
                    synthetic_rows: synthetic.n_rows(),
                    synthetic: options.keep_tables.then_some(synthetic),
                })
            })
    }))
    .unwrap_or_else(|payload| {
        Err(CellError::Panicked {
            message: panic_message(payload),
        })
    });
    (result, virtual_ms)
}

/// Fit→sample→evaluate one cell against an already prepared dataset, with
/// up to [`SweepOptions::retries`] deterministic-reseed retries. Budget
/// trips are terminal (the budget spans the whole cell, so a retry would
/// just trip again); `wall_ms` spans every attempt.
fn run_cell_prepared<F>(
    data: &PreparedData,
    baseline: &MlefBaseline,
    cell: &SweepCell,
    options: &SweepOptions,
    fitter: &F,
) -> CellRun
where
    F: Fn(&SweepCell, &Table, &FitContext) -> Result<Table, SurrogateError> + Sync,
{
    let start = Instant::now();
    let mut attempt = 0u32;
    let mut virtual_ms = 0.0;
    let outcome = loop {
        let (result, attempt_virtual_ms) =
            run_cell_attempt(data, baseline, cell, options, fitter, attempt, start);
        virtual_ms += attempt_virtual_ms;
        match &result {
            Err(error)
                if attempt < options.retries
                    && !matches!(error, CellError::BudgetExceeded { .. }) =>
            {
                attempt += 1;
            }
            _ => break result,
        }
    };
    CellRun {
        cell: cell.clone(),
        outcome,
        attempts: attempt + 1,
        // Virtual delay charges count as wall time: a virtual-clock run
        // reports the delays it *would* have burned, without sleeping.
        wall_ms: start.elapsed().as_secs_f64() * 1e3 + virtual_ms,
    }
}

/// A prepared dataset and its MLEF(train → test) baseline, shared by every
/// cell that runs on the dataset.
type Dataset = (PreparedData, MlefBaseline);

/// Execute a batch of cells (a full grid, one shard, or a resume
/// remainder) over the shared pool, returning the runs in input order.
/// Each cell's row is appended to `journal` the moment that cell completes
/// (completion order, not grid order). A failed append is reported on
/// stderr but never aborts the sweep.
fn execute_cells<F>(
    cells: Vec<SweepCell>,
    options: &SweepOptions,
    fitter: &F,
    journal: Option<&JournalWriter>,
) -> Vec<CellRun>
where
    F: Fn(&SweepCell, &Table, &FitContext) -> Result<Table, SurrogateError> + Sync,
{
    // Prepare each distinct (seed, generator variant) dataset once, in
    // parallel. Cells hold an index into this list. The full config is part
    // of the identity: two variants that share a name but differ in config
    // get separate datasets, preserving standalone/in-sweep byte-identity.
    // Each dataset carries its MLEF(train → test) baseline, left for the
    // first cell that reaches MLEF to compute: every cell shares
    // `options.evaluation`, so the value is the same whichever cell does.
    let mut keys: Vec<((u64, String), GeneratorConfig)> = Vec::new();
    let dataset_of: Vec<usize> = cells
        .iter()
        .map(|cell| {
            let key = cell.dataset_key();
            keys.iter()
                .position(|(k, config)| *k == key && *config == cell.generator.config)
                .unwrap_or_else(|| {
                    keys.push((key, cell.generator.config.clone()));
                    keys.len() - 1
                })
        })
        .collect();
    let configs: Vec<GeneratorConfig> = keys.into_iter().map(|(_, config)| config).collect();
    // A dataset too small to split fails every cell on it with a typed
    // `data` row; the other datasets' cells run as usual.
    let prepare = |config| {
        try_prepare_data_from_config(config).map(|data| Arc::new((data, MlefBaseline::default())))
    };
    let datasets: Vec<Result<Arc<Dataset>, TabularError>> = match options.mode {
        ExecutionMode::Parallel => configs.par_iter().map(prepare).collect(),
        ExecutionMode::Sequential => configs.iter().map(prepare).collect(),
    };

    // One flat (scenario × model) work queue over the shared pool: no
    // nested parallel loops, so the pool balances across the whole grid.
    let work: Vec<(SweepCell, Result<Arc<Dataset>, TabularError>)> = cells
        .into_iter()
        .zip(&dataset_of)
        .map(|(cell, &dataset)| (cell, datasets[dataset].clone()))
        .collect();
    // The work items now hold the only long-lived Arcs: dropping this Vec
    // lets each dataset be freed as soon as its last cell completes,
    // bounding peak memory to in-flight cells instead of the whole grid.
    drop(datasets);
    let run_one = |cell: SweepCell, dataset: Result<Arc<Dataset>, TabularError>| {
        let run = match dataset {
            Ok(dataset) => {
                let (data, baseline) = &*dataset;
                run_cell_prepared(data, baseline, &cell, options, fitter)
            }
            Err(error) => CellRun {
                cell,
                outcome: Err(CellError::Data(error)),
                wall_ms: 0.0,
                attempts: 1,
            },
        };
        if let Some(journal) = journal {
            if let Err(e) = journal.append(&SweepCellRow::from_run(&run)) {
                eprintln!("warning: journal append failed: {e}");
            }
        }
        run
    };
    match options.mode {
        ExecutionMode::Parallel => work
            .into_par_iter()
            .map(|(cell, data)| run_one(cell, data))
            .collect(),
        ExecutionMode::Sequential => work
            .into_iter()
            .map(|(cell, data)| run_one(cell, data))
            .collect(),
    }
}

/// Version of the journal line format. Bumped when the header or row
/// framing changes incompatibly.
const JOURNAL_VERSION: u32 = 1;

/// First line of a sweep journal: identifies the grid the rows belong to.
///
/// `journal_version` is serialized first, so every journal begins with the
/// literal bytes `{"journal_version"` — the sniff the `sweep` binary uses
/// to tell a journal from a full artifact when both feed `--resume`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JournalHeader {
    /// Journal format version ([`JOURNAL_VERSION`]).
    journal_version: u32,
    /// Fingerprint of the grid + options the rows were produced under.
    grid_fingerprint: String,
    /// Total cells in the full (unsharded) grid.
    grid_cells: usize,
    /// The shard this journal's run covered, if sharded.
    shard: Option<ShardSpec>,
}

/// Crash-safe, append-only journal of completed sweep cells.
///
/// Line-delimited compact JSON: the [`JournalHeader`] line, then one
/// [`SweepCellRow`] line per completed cell, each fsync'd before `append`
/// returns, in *completion* order (recovery re-sorts by cell index). A
/// process killed mid-write leaves at most one torn trailing line, which
/// [`SweepReport::recover_journal`] drops.
#[derive(Debug)]
struct JournalWriter {
    file: Mutex<File>,
}

/// One journal line: compact JSON plus the newline.
fn journal_line<T: Serialize>(value: &T) -> String {
    let mut line = serde_json::to_string(value).expect("journal line serializes");
    line.push('\n');
    line
}

impl JournalWriter {
    /// Atomically replace the journal at `path` with its header line and
    /// `rows` (a resume's prior rows), then open it for appends. A crash
    /// meanwhile leaves the previous file whole, even when it is the
    /// journal being resumed from.
    fn create(
        path: &Path,
        header: &JournalHeader,
        rows: &[&SweepCellRow],
    ) -> Result<Self, SweepArtifactError> {
        let mut text = journal_line(header);
        for row in rows {
            text.push_str(&journal_line(row));
        }
        atomic_write(path, text.as_bytes())
            .and_then(|()| OpenOptions::new().append(true).open(path))
            .map(|file| Self {
                file: Mutex::new(file),
            })
            .map_err(|e| SweepArtifactError::Journal {
                path: path.to_path_buf(),
                error: e.to_string(),
            })
    }

    /// Append one completed cell row, durably. The full line is written in
    /// a single `write_all` under the lock, so concurrent completions never
    /// interleave bytes.
    fn append(&self, row: &SweepCellRow) -> std::io::Result<()> {
        let line = journal_line(row);
        let mut file = self.file.lock().unwrap();
        file.write_all(line.as_bytes())?;
        file.sync_data()
    }
}

/// What a sweep produced: the artifact plus the split between freshly
/// executed cells and rows reloaded from the prior artifact.
#[derive(Debug)]
pub struct SweepRunSummary {
    /// The artifact for this run's cells (one shard's worth when sharded).
    pub report: SweepReport,
    /// The cells actually executed this run, in grid order.
    pub runs: Vec<CellRun>,
    /// How many rows were reloaded from the prior artifact instead of run.
    pub resumed: usize,
}

/// Run a sweep with the default fitter (see [`run_sweep_with`]).
pub fn run_sweep(
    grid: &SweepGrid,
    options: &SweepOptions,
    prior: Option<&SweepReport>,
) -> Result<SweepRunSummary, SweepArtifactError> {
    run_sweep_with(grid, options, prior, |cell, train, ctx: &FitContext| {
        default_fitter(cell, train, options, ctx)
    })
}

/// The sweep runner, with an injected cell fitter (the test seam: tests
/// inject failing, panicking or echoing fitters).
///
/// A `prior` artifact resumes: cells whose rows are already present
/// (matched by cell id under an equal grid fingerprint) are loaded, only
/// the rest of the grid (or of [`SweepOptions::shard`]) runs, and the
/// combined rows are byte-identical to a from-scratch run modulo
/// wall-clock. A stale prior is rejected, never silently mixed in.
///
/// [`SweepOptions::journal`] is created after the prior validates, so a
/// rejected resume leaves it untouched, and before any dataset is
/// prepared, so a bad path fails before compute starts. It begins with the
/// resumed rows, so resuming onto the journal resumed from keeps it
/// complete.
pub fn run_sweep_with<F>(
    grid: &SweepGrid,
    options: &SweepOptions,
    prior: Option<&SweepReport>,
    fitter: F,
) -> Result<SweepRunSummary, SweepArtifactError>
where
    F: Fn(&SweepCell, &Table, &FitContext) -> Result<Table, SurrogateError> + Sync,
{
    let start = Instant::now();
    let shard = options.shard;
    if let Some(shard) = &shard {
        shard
            .validate()
            .map_err(|reason| SweepArtifactError::InvalidShard { reason })?;
    }
    let fingerprint = grid_fingerprint(grid, options);
    let all = grid.expand();
    // Each cell's id, computed once: the prior validation, the todo filter
    // and the stitch below all key on it.
    let ids: Vec<String> = all.iter().map(SweepCell::id).collect();

    // Validate the prior artifact against the current grid before trusting
    // any of its rows.
    let mut prior_rows: HashMap<&str, &SweepCellRow> = HashMap::new();
    if let Some(prior) = prior {
        prior.check_grid(&fingerprint, all.len())?;
        let index_of: HashMap<&str, usize> = ids
            .iter()
            .enumerate()
            .map(|(index, id)| (id.as_str(), index))
            .collect();
        for row in &prior.cells {
            match index_of.get(row.id.as_str()) {
                None => {
                    return Err(SweepArtifactError::UnknownCell { id: row.id.clone() });
                }
                Some(&expected) if expected != row.index => {
                    return Err(SweepArtifactError::IndexMismatch {
                        id: row.id.clone(),
                        expected,
                        found: row.index,
                    });
                }
                Some(_) => {
                    if prior_rows.insert(row.id.as_str(), row).is_some() {
                        return Err(SweepArtifactError::OverlappingCell { id: row.id.clone() });
                    }
                }
            }
        }
    }

    // This run's cells: the shard's slice of the axis-major order, each
    // either resumed from the prior or still to run.
    let shard_members: Vec<usize> = (0..all.len())
        .filter(|&index| shard.is_none_or(|s| s.contains(index)))
        .collect();
    let resumed_rows: Vec<&SweepCellRow> = shard_members
        .iter()
        .filter_map(|&index| prior_rows.get(ids[index].as_str()).copied())
        .collect();
    let header = JournalHeader {
        journal_version: JOURNAL_VERSION,
        grid_fingerprint: fingerprint.clone(),
        grid_cells: all.len(),
        shard,
    };
    let journal = options
        .journal
        .as_deref()
        .map(|path| JournalWriter::create(path, &header, &resumed_rows))
        .transpose()?;
    // Only the cells that actually execute are cloned.
    let todo: Vec<SweepCell> = shard_members
        .iter()
        .filter(|&&index| !prior_rows.contains_key(ids[index].as_str()))
        .map(|&index| all[index].clone())
        .collect();
    let runs = execute_cells(todo, options, &fitter, journal.as_ref());

    // Stitch prior and fresh rows back into grid order. `runs` is a
    // subsequence of the shard's cells, so one forward pass pairs them up.
    let mut fresh = runs.iter().map(SweepCellRow::from_run);
    let cells: Vec<SweepCellRow> = shard_members
        .iter()
        .map(|&index| match prior_rows.get(ids[index].as_str()) {
            Some(&row) => row.clone(),
            None => fresh.next().expect("one fresh row per remaining cell"),
        })
        .collect();
    Ok(SweepRunSummary {
        report: SweepReport::from_rows(
            fingerprint,
            all.len(),
            shard,
            start.elapsed().as_secs_f64() * 1e3,
            cells,
        ),
        runs,
        resumed: resumed_rows.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A grid with axis lengths drawn from `rng` (each at least 1).
    fn random_grid(rng: &mut StdRng) -> SweepGrid {
        let n_seeds = rng.gen_range(1..5);
        let n_budgets = rng.gen_range(1..4);
        let n_generators = rng.gen_range(1..GeneratorConfig::PRESET_NAMES.len() + 1);
        let n_models = rng.gen_range(1..ModelKind::ALL.len() + 1);
        SweepGrid {
            seeds: (0..n_seeds).map(|i| 1000 + i as u64 * 7).collect(),
            budgets: TrainingBudget::ALL[..n_budgets].to_vec(),
            generators: GeneratorConfig::PRESET_NAMES[..n_generators]
                .iter()
                .map(|name| NamedGeneratorConfig::preset(name).unwrap())
                .collect(),
            models: ModelKind::ALL[..n_models].to_vec(),
        }
    }

    #[test]
    fn expansion_count_is_the_product_of_axis_lengths() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let grid = random_grid(&mut rng);
            let cells = grid.expand();
            assert_eq!(
                cells.len(),
                grid.seeds.len() * grid.budgets.len() * grid.generators.len() * grid.models.len()
            );
            assert_eq!(cells.len(), grid.len());
            assert!(!grid.is_empty());
        }
    }

    #[test]
    fn expansion_has_no_duplicate_cell_ids() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let grid = random_grid(&mut rng);
            let mut ids: Vec<String> = grid.expand().iter().map(SweepCell::id).collect();
            let before = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate cell id in {grid:?}");
        }
    }

    #[test]
    fn expansion_ordering_is_stable_and_axis_major() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let grid = random_grid(&mut rng);
            let a = grid.expand();
            let b = grid.expand();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id(), y.id());
                assert_eq!(x.index, y.index);
            }
            // Axis-major order: the expansion enumerates models fastest,
            // then generators, then budgets, then seeds.
            for (i, cell) in a.iter().enumerate() {
                let n_models = grid.models.len();
                let n_generators = grid.generators.len();
                let n_budgets = grid.budgets.len();
                assert_eq!(cell.index, i);
                assert_eq!(cell.model, grid.models[i % n_models]);
                let gi = (i / n_models) % n_generators;
                assert_eq!(cell.generator.name, grid.generators[gi].name);
                let bi = (i / (n_models * n_generators)) % n_budgets;
                assert_eq!(cell.budget, grid.budgets[bi]);
                let si = i / (n_models * n_generators * n_budgets);
                assert_eq!(cell.seed, grid.seeds[si]);
            }
        }
    }

    #[test]
    fn expanded_cells_pin_the_seed_into_the_generator_config() {
        let grid = SweepGrid {
            seeds: vec![1, 2],
            ..SweepGrid::default()
        };
        for cell in grid.expand() {
            assert_eq!(cell.generator.config.seed, cell.seed);
        }
    }

    #[test]
    fn empty_axis_expands_to_no_cells() {
        let grid = SweepGrid {
            models: Vec::new(),
            ..SweepGrid::default()
        };
        assert!(grid.is_empty());
        assert_eq!(grid.expand().len(), 0);
    }

    #[test]
    fn same_named_variants_with_different_configs_get_separate_datasets() {
        // Two variants that (wrongly) share a name but differ in config
        // must not share a prepared dataset — the cell's own config wins,
        // so standalone/in-sweep byte-identity survives the name clash.
        let mut small = NamedGeneratorConfig::preset("small").unwrap();
        small.config.gross_records = 800;
        let mut bigger = small.clone();
        bigger.config.gross_records = 1_600;
        let grid = SweepGrid {
            seeds: vec![5],
            budgets: vec![TrainingBudget::Smoke],
            generators: vec![small, bigger],
            models: vec![ModelKind::Smote],
        };
        // Echo the training split back so train_rows exposes which dataset
        // each cell actually ran on.
        let outcome = run_sweep_with(
            &grid,
            &SweepOptions::default(),
            None,
            |_, train, _: &FitContext| Ok(train.clone()),
        )
        .unwrap();
        let rows: Vec<usize> = outcome
            .runs
            .iter()
            .map(|run| run.outcome.as_ref().unwrap().train_rows)
            .collect();
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1] > rows[0],
            "second variant ran on the first variant's dataset: {rows:?}"
        );
    }

    #[test]
    fn empty_synthetic_table_fails_only_its_own_cell() {
        // The metric kernels reject empty samples with a typed error; the
        // runtime must surface it as that cell's Metric failure.
        let mut small = NamedGeneratorConfig::preset("small").unwrap();
        small.config.gross_records = 800;
        let grid = SweepGrid {
            seeds: vec![5],
            budgets: vec![TrainingBudget::Smoke],
            generators: vec![small],
            models: vec![ModelKind::Smote, ModelKind::TabDdpm],
        };
        let outcome = run_sweep_with(
            &grid,
            &SweepOptions::default(),
            None,
            |cell, train, _: &FitContext| {
                if cell.model == ModelKind::Smote {
                    Ok(Table::new())
                } else {
                    Ok(train.clone())
                }
            },
        )
        .unwrap();
        assert_eq!(outcome.runs.len(), 2);
        let error = outcome.runs[0].outcome.as_ref().unwrap_err();
        assert!(matches!(error, CellError::Metric(_)), "{error:?}");
        assert_eq!(error.kind(), "metric");
        assert!(error.to_string().contains("no numerical columns"));
        assert!(outcome.runs[1].outcome.is_ok());
    }

    #[test]
    fn a_panicking_mlef_baseline_fails_each_cell_on_its_dataset() {
        // The dataset's shared MLEF(train → test) baseline is computed
        // inside the first cell that reaches MLEF. A panic there is that
        // cell's own failure and leaves the baseline unset, so the next
        // cell on the dataset fails the same way instead of the sweep
        // aborting.
        let mut small = NamedGeneratorConfig::preset("small").unwrap();
        small.config.gross_records = 800;
        let grid = SweepGrid {
            seeds: vec![5],
            budgets: vec![TrainingBudget::Smoke],
            generators: vec![small],
            models: vec![ModelKind::Smote, ModelKind::TabDdpm],
        };
        let mut evaluation = EvaluationConfig::fast();
        if let Some(mlef) = evaluation.mlef.as_mut() {
            mlef.target = "no_such_column".to_string();
        }
        let options = SweepOptions {
            evaluation,
            ..SweepOptions::default()
        };
        let outcome = run_sweep_with(&grid, &options, None, |_, train, _: &FitContext| {
            Ok(train.clone())
        })
        .unwrap();
        assert_eq!(outcome.runs.len(), 2);
        for run in &outcome.runs {
            let error = run.outcome.as_ref().unwrap_err();
            assert!(
                matches!(error, CellError::Panicked { message } if message.contains("target column")),
                "{error:?}"
            );
        }
    }

    #[test]
    fn report_rows_mirror_outcomes() {
        let mut cells = SweepGrid::default().expand();
        let err_cell = cells.remove(1);
        let ok_cell = cells.remove(0);
        let ok_run = CellRun {
            cell: ok_cell.clone(),
            outcome: Ok(CellSuccess {
                report: SurrogateReport {
                    model: ok_cell.model.name().to_string(),
                    wd: 0.1,
                    jsd: 0.2,
                    diff_corr: 0.3,
                    dcr: 0.4,
                    diff_mlef: None,
                },
                train_rows: 100,
                synthetic_rows: 100,
                synthetic: None,
            }),
            wall_ms: 5.0,
            attempts: 1,
        };
        let err_run = CellRun {
            cell: err_cell,
            outcome: Err(CellError::Fit(SurrogateError::InvalidTrainingData(
                "boom".to_string(),
            ))),
            wall_ms: 1.0,
            attempts: 2,
        };
        let report = SweepReport::from_rows(
            "0123456789abcdef".to_string(),
            2,
            None,
            6.0,
            [ok_run, err_run]
                .iter()
                .map(SweepCellRow::from_run)
                .collect(),
        );
        assert_eq!(report.total_cells, 2);
        assert_eq!(report.failed_cells, 1);
        assert!(report.cells[0].ok);
        assert_eq!(report.cells[0].wd, Some(0.1));
        assert!(!report.cells[1].ok);
        assert!(report.cells[1].error.as_deref().unwrap().contains("boom"));
        assert_eq!(report.cells[1].error_kind.as_deref(), Some("fit"));
        assert_eq!(report.cells[1].attempts, 2);
        assert_eq!(report.cells[0].error_kind, None);
        assert_eq!(report.cells[0].attempts, 1);
        assert_eq!(report.cells[1].wd, None);

        // The serialized artifact round-trips through the shim parser.
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert_eq!(SweepReport::validate_artifact(&json).unwrap(), 2);
    }

    /// A structurally valid hand-built report: `cells` passing rows at the
    /// given indices of a `grid_cells`-cell grid.
    fn toy_report(grid_cells: usize, indices: &[usize]) -> SweepReport {
        let cells: Vec<SweepCellRow> = indices
            .iter()
            .map(|&index| SweepCellRow {
                index,
                id: format!("cell-{index}"),
                seed: index as u64,
                budget: "smoke".to_string(),
                generator: "small".to_string(),
                model: "SMOTE".to_string(),
                ok: true,
                error: None,
                error_kind: None,
                attempts: 1,
                train_rows: Some(10),
                synthetic_rows: Some(10),
                wall_ms: 1.0 + index as f64,
                wd: Some(0.1),
                jsd: Some(0.2),
                diff_corr: Some(0.3),
                dcr: Some(0.4),
                diff_mlef: None,
            })
            .collect();
        SweepReport {
            schema_version: SCHEMA_VERSION,
            generated_by: GENERATED_BY.to_string(),
            grid_fingerprint: "0123456789abcdef".to_string(),
            grid_cells,
            shard: None,
            total_cells: cells.len(),
            failed_cells: 0,
            wall_ms: 5.0,
            cells,
        }
    }

    #[test]
    fn validate_artifact_rejects_malformed_documents() {
        assert!(SweepReport::validate_artifact("not json").is_err());
        // Typed read-back: a document missing mandatory fields (e.g. a
        // pre-durability v1 artifact) is rejected at the parse, not
        // spelunked around.
        assert!(SweepReport::validate_artifact("{}").is_err());
        assert!(
            SweepReport::validate_artifact(r#"{"total_cells": 2, "cells": []}"#).is_err(),
            "v1-shaped artifact must fail the typed parse"
        );

        let good = toy_report(4, &[0, 2]);
        let json = serde_json::to_string_pretty(&good).unwrap();
        assert_eq!(SweepReport::validate_artifact(&json).unwrap(), 2);

        // Header counts disagreeing with the rows.
        let mut bad = good.clone();
        bad.total_cells = 3;
        assert!(bad.validate().unwrap_err().contains("count mismatch"));
        let mut bad = good.clone();
        bad.failed_cells = 1;
        assert!(bad.validate().unwrap_err().contains("failed_cells"));
        // More rows than the grid has cells.
        let mut bad = good.clone();
        bad.grid_cells = 1;
        assert!(bad.validate().is_err());
        // A passing row stripped of its metrics.
        let mut bad = good.clone();
        bad.cells[0].wd = None;
        assert!(bad.validate().unwrap_err().contains("wd"));
        // A passing row with a non-finite metric (serialized as null, so
        // the typed parse itself rejects it too).
        let mut bad = good.clone();
        bad.cells[0].jsd = Some(f64::NAN);
        assert!(bad.validate().unwrap_err().contains("not finite"));
        assert!(SweepReport::validate_artifact(&serde_json::to_string(&bad).unwrap()).is_err());
        // A failing row without its error.
        let mut bad = good.clone();
        bad.cells[0].ok = false;
        bad.failed_cells = 1;
        assert!(bad.validate().unwrap_err().contains("error"));
        // A failing row with an error string but no error_kind.
        let mut bad = good.clone();
        bad.cells[0].ok = false;
        bad.cells[0].error = Some("boom".to_string());
        bad.cells[0].wd = None;
        bad.cells[0].jsd = None;
        bad.cells[0].diff_corr = None;
        bad.cells[0].dcr = None;
        bad.failed_cells = 1;
        assert!(bad.validate().unwrap_err().contains("error_kind"));
        // ... and with an error_kind outside the known set.
        bad.cells[0].error_kind = Some("gremlins".to_string());
        assert!(bad.validate().unwrap_err().contains("gremlins"));
        // A passing row carrying a leftover error_kind.
        let mut bad = good.clone();
        bad.cells[0].error_kind = Some("fit".to_string());
        assert!(bad.validate().unwrap_err().contains("carries an error"));
        // A row claiming zero attempts.
        let mut bad = good.clone();
        bad.cells[0].attempts = 0;
        assert!(bad.validate().unwrap_err().contains("0 attempts"));
        // Rows out of order / duplicated.
        let mut bad = good.clone();
        bad.cells.swap(0, 1);
        assert!(bad.validate().unwrap_err().contains("ascending"));
        // A fingerprint that is not 16 lowercase hex digits.
        let mut bad = good.clone();
        bad.grid_fingerprint = "XYZ".to_string();
        assert!(bad.validate().unwrap_err().contains("fingerprint"));
        // A shard the rows do not belong to.
        let mut bad = good.clone();
        bad.shard = Some(ShardSpec { index: 1, count: 2 });
        assert!(bad.validate().unwrap_err().contains("shard"));
        // An unsupported schema version.
        let mut bad = good;
        bad.schema_version = 1;
        assert!(bad.validate().unwrap_err().contains("schema_version"));
    }

    #[test]
    fn report_round_trips_through_the_typed_parser() {
        let mut report = toy_report(4, &[0, 1, 3]);
        report.cells[1].ok = false;
        report.cells[1].error = Some("diverged".to_string());
        report.cells[1].error_kind = Some("non_finite_loss".to_string());
        report.cells[1].attempts = 3;
        report.cells[1].wd = None;
        report.cells[1].jsd = None;
        report.cells[1].diff_corr = None;
        report.cells[1].dcr = None;
        report.cells[1].train_rows = None;
        report.cells[1].synthetic_rows = None;
        report.failed_cells = 1;
        report.shard = Some(ShardSpec { index: 0, count: 1 });
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report, "typed round-trip must be lossless");
    }

    #[test]
    fn shard_spec_parses_well_formed_specs_and_rejects_the_rest() {
        assert_eq!(
            ShardSpec::parse("0/2").unwrap(),
            ShardSpec { index: 0, count: 2 }
        );
        assert_eq!(
            ShardSpec::parse(" 3 / 5 ").unwrap(),
            ShardSpec { index: 3, count: 5 }
        );
        for bad in ["", "1", "a/2", "1/b", "2/2", "3/2", "1/0", "-1/2", "1/2/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn resumable_rejects_invalid_shard_specs_instead_of_panicking() {
        // A spec that never went through ShardSpec::parse (built
        // programmatically or deserialized) must surface as an error, not
        // a modulo-by-zero panic in the shard filter.
        let grid = SweepGrid::default();
        let options = SweepOptions::default();
        for spec in [
            ShardSpec { index: 0, count: 0 },
            ShardSpec { index: 2, count: 2 },
        ] {
            let sharded = SweepOptions {
                shard: Some(spec),
                ..options.clone()
            };
            let err = run_sweep_with(&grid, &sharded, None, |_, train, _: &FitContext| {
                Ok(train.clone())
            })
            .unwrap_err();
            assert!(
                matches!(err, SweepArtifactError::InvalidShard { .. }),
                "{spec:?} gave {err}"
            );
        }
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        // Property: for any shard count 1..=5, the shards are pairwise
        // disjoint and their union is the full axis-major cell order.
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..20 {
            let grid = random_grid(&mut rng);
            let all = grid.expand();
            for count in 1..=5usize {
                let mut seen = vec![false; all.len()];
                for index in 0..count {
                    let shard = ShardSpec { index, count };
                    for cell in all.iter().filter(|c| shard.contains(c.index)) {
                        assert!(!seen[cell.index], "cell {} in two shards", cell.id());
                        seen[cell.index] = true;
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "a cell of {grid:?} is in no shard of {count}"
                );
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive_to_every_axis() {
        let grid = SweepGrid::default();
        let options = SweepOptions::default();
        let base = grid_fingerprint(&grid, &options);
        assert_eq!(base, grid_fingerprint(&grid, &options));
        assert_eq!(base.len(), 16);

        let mut other = grid.clone();
        other.seeds.push(9);
        assert_ne!(base, grid_fingerprint(&other, &options));
        let mut other = grid.clone();
        other.budgets = vec![TrainingBudget::Smoke];
        assert_ne!(base, grid_fingerprint(&other, &options));
        let mut other = grid.clone();
        other.generators[0].config.gross_records += 1;
        assert_ne!(base, grid_fingerprint(&other, &options));
        let mut other = grid.clone();
        other.models.pop();
        assert_ne!(base, grid_fingerprint(&other, &options));
        let sampled = SweepOptions {
            sample_rows: Some(128),
            ..SweepOptions::default()
        };
        assert_ne!(base, grid_fingerprint(&grid, &sampled));
        let no_mlef = SweepOptions {
            evaluation: metrics::EvaluationConfig {
                mlef: None,
                ..metrics::EvaluationConfig::fast()
            },
            ..SweepOptions::default()
        };
        assert_ne!(base, grid_fingerprint(&grid, &no_mlef));
        // The fault-tolerance options are part of the identity too: a
        // budgeted, retried or fault-injected run must not resume into a
        // clean prior.
        let budgeted = SweepOptions {
            budget: CellBudget {
                max_epochs: Some(3),
                wall_clock: None,
            },
            ..SweepOptions::default()
        };
        assert_ne!(base, grid_fingerprint(&grid, &budgeted));
        let retried = SweepOptions {
            retries: 1,
            ..SweepOptions::default()
        };
        assert_ne!(base, grid_fingerprint(&grid, &retried));
        let faulted = SweepOptions {
            faults: FaultPlan::parse("cell0:panic").unwrap(),
            ..SweepOptions::default()
        };
        assert_ne!(base, grid_fingerprint(&grid, &faulted));
    }

    #[test]
    fn merge_recombines_disjoint_shards_and_rejects_overlap() {
        let even = SweepReport {
            shard: Some(ShardSpec { index: 0, count: 2 }),
            ..toy_report(4, &[0, 2])
        };
        let odd = SweepReport {
            shard: Some(ShardSpec { index: 1, count: 2 }),
            ..toy_report(4, &[1, 3])
        };
        let merged = SweepReport::merge(&[odd.clone(), even.clone()]).unwrap();
        assert!(merged.is_complete());
        assert_eq!(merged.shard, None);
        assert_eq!(
            merged.cells.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "rows sort back into axis-major order regardless of part order"
        );
        assert_eq!(merged.canonical(), toy_report(4, &[0, 1, 2, 3]).canonical());
        merged.validate().unwrap();

        // Overlapping parts are rejected, naming the duplicated cell.
        let err = SweepReport::merge(&[even.clone(), even.clone()]).unwrap_err();
        assert!(matches!(err, SweepArtifactError::OverlappingCell { .. }));
        // Mismatched fingerprints are rejected.
        let mut stale = odd.clone();
        stale.grid_fingerprint = "ffffffffffffffff".to_string();
        assert!(matches!(
            SweepReport::merge(&[even.clone(), stale]).unwrap_err(),
            SweepArtifactError::FingerprintMismatch { .. }
        ));
        // Mismatched grid sizes and schema versions are rejected.
        let mut wrong = odd.clone();
        wrong.grid_cells = 8;
        assert!(matches!(
            SweepReport::merge(&[even.clone(), wrong]).unwrap_err(),
            SweepArtifactError::GridSize { .. }
        ));
        let mut old = odd.clone();
        old.schema_version = 1;
        assert!(matches!(
            SweepReport::merge(&[even.clone(), old]).unwrap_err(),
            SweepArtifactError::SchemaVersion { .. }
        ));
        // A row outside the declared grid is rejected.
        let mut outside = odd;
        outside.cells[1].index = 9;
        assert!(matches!(
            SweepReport::merge(&[even, outside]).unwrap_err(),
            SweepArtifactError::UnknownCell { .. }
        ));
        assert_eq!(
            SweepReport::merge(&[]).unwrap_err(),
            SweepArtifactError::NoParts
        );
        // An incomplete but valid merge is allowed; completeness is policy.
        let partial = SweepReport::merge(&[toy_report(4, &[1])]).unwrap();
        assert!(!partial.is_complete());
    }

    #[test]
    fn canonical_zeroes_every_wall_clock_field() {
        let report = toy_report(2, &[0, 1]);
        let canonical = report.canonical();
        assert_eq!(canonical.wall_ms, 0.0);
        assert!(canonical.cells.iter().all(|row| row.wall_ms == 0.0));
        // Everything else is untouched.
        assert_eq!(canonical.grid_fingerprint, report.grid_fingerprint);
        assert_eq!(canonical.total_cells, report.total_cells);
        // Two runs differing only in timing agree canonically.
        let mut slower = report.clone();
        slower.wall_ms += 100.0;
        slower.cells[0].wall_ms += 3.0;
        assert_ne!(slower, report);
        assert_eq!(slower.canonical(), report.canonical());
    }

    /// A 4-cell grid cheap enough for fault-injection tests: the fitter is
    /// injected, so the models never actually train.
    fn tiny_grid() -> SweepGrid {
        let mut small = NamedGeneratorConfig::preset("small").unwrap();
        small.config.gross_records = 800;
        SweepGrid {
            seeds: vec![5, 6],
            budgets: vec![TrainingBudget::Smoke],
            generators: vec![small],
            models: vec![ModelKind::Smote, ModelKind::TabDdpm],
        }
    }

    #[test]
    fn injected_faults_produce_typed_rows_and_isolate_neighbours() {
        let options = SweepOptions {
            faults: FaultPlan::parse("cell0:panic,cell1:nan,cell2:budget,cell3:delay:30ms")
                .unwrap(),
            ..SweepOptions::default()
        };
        // A cooperative fitter: polls the control like a real epoch loop,
        // then echoes the training split.
        let outcome = run_sweep_with(
            &tiny_grid(),
            &options,
            None,
            |_, train, ctx: &FitContext| {
                ctx.control.check_epoch(0)?;
                Ok(train.clone())
            },
        )
        .unwrap();
        assert_eq!(outcome.runs.len(), 4);
        let panic_error = outcome.runs[0].outcome.as_ref().unwrap_err();
        assert!(
            matches!(panic_error, CellError::Panicked { message } if message.contains("injected fault: panic at cell0")),
            "{panic_error:?}"
        );
        assert_eq!(
            outcome.runs[1].outcome.as_ref().unwrap_err(),
            &CellError::NonFiniteLoss { epoch: 0 }
        );
        assert_eq!(
            outcome.runs[2].outcome.as_ref().unwrap_err(),
            &CellError::BudgetExceeded {
                completed_epochs: 0
            }
        );
        assert!(outcome.runs[3].outcome.is_ok(), "delay must not fail");
        assert!(
            outcome.runs[3].wall_ms >= 30.0,
            "delay fault must show up in wall-clock ({} ms)",
            outcome.runs[3].wall_ms
        );
        assert!(outcome.runs.iter().all(|run| run.attempts == 1));

        let report = outcome.report;
        let kinds: Vec<Option<&str>> = report
            .cells
            .iter()
            .map(|row| row.error_kind.as_deref())
            .collect();
        assert_eq!(
            kinds,
            vec![Some("panic"), Some("non_finite_loss"), Some("budget"), None]
        );
        report.validate().unwrap();
    }

    #[test]
    fn retries_reseed_deterministically_and_budget_trips_are_terminal() {
        let mut grid = tiny_grid();
        grid.seeds = vec![5];
        grid.models = vec![ModelKind::Smote];

        // The first attempt panics (attempt-bounded fault); the retry runs
        // clean under the derived seed.
        let options = SweepOptions {
            retries: 1,
            faults: FaultPlan::parse("cell0:panic:1").unwrap(),
            ..SweepOptions::default()
        };
        let seeds_seen = Mutex::new(Vec::new());
        let outcome = run_sweep_with(&grid, &options, None, |_, train, ctx: &FitContext| {
            seeds_seen.lock().unwrap().push(ctx.seed);
            Ok(train.clone())
        })
        .unwrap();
        assert!(outcome.runs[0].outcome.is_ok());
        assert_eq!(outcome.runs[0].attempts, 2);
        // The fault panics before the fitter runs, so only the retry's
        // derived seed is observed.
        assert_eq!(*seeds_seen.lock().unwrap(), vec![derive_attempt_seed(5, 1)]);

        // Same options, same grid: the artifact is canonically identical.
        let again = run_sweep_with(&grid, &options, None, |_, train, _: &FitContext| {
            Ok(train.clone())
        })
        .unwrap();
        assert_eq!(
            outcome.report.canonical(),
            again.report.canonical(),
            "retried runs must stay deterministic"
        );

        // An exhausted retry budget still reports the terminal error.
        let always = SweepOptions {
            retries: 2,
            faults: FaultPlan::parse("cell0:nan").unwrap(),
            ..SweepOptions::default()
        };
        let outcome = run_sweep_with(&grid, &always, None, |_, train, _: &FitContext| {
            Ok(train.clone())
        })
        .unwrap();
        assert_eq!(outcome.runs[0].attempts, 3);
        assert!(matches!(
            outcome.runs[0].outcome.as_ref().unwrap_err(),
            CellError::NonFiniteLoss { .. }
        ));

        // Budget trips never retry: the budget spans the whole cell, so a
        // retry would trip again immediately.
        let budgeted = SweepOptions {
            retries: 3,
            faults: FaultPlan::parse("cell0:budget").unwrap(),
            ..SweepOptions::default()
        };
        let outcome = run_sweep_with(&grid, &budgeted, None, |_, train, ctx: &FitContext| {
            ctx.control.check_epoch(0)?;
            Ok(train.clone())
        })
        .unwrap();
        assert_eq!(outcome.runs[0].attempts, 1);
        assert!(matches!(
            outcome.runs[0].outcome.as_ref().unwrap_err(),
            CellError::BudgetExceeded { .. }
        ));
    }

    /// A journal text for `toy_report(4, &[0, 2])`'s rows written in
    /// completion order 2-then-0 (parallel cells finish out of grid order).
    fn toy_journal() -> (String, SweepReport) {
        let report = toy_report(4, &[0, 2]);
        let header = JournalHeader {
            journal_version: JOURNAL_VERSION,
            grid_fingerprint: report.grid_fingerprint.clone(),
            grid_cells: report.grid_cells,
            shard: None,
        };
        let mut text = serde_json::to_string(&header).unwrap();
        text.push('\n');
        for row in [&report.cells[1], &report.cells[0]] {
            text.push_str(&serde_json::to_string(row).unwrap());
            text.push('\n');
        }
        (text, report)
    }

    #[test]
    fn journal_recovery_sorts_rows_and_matches_the_artifact() {
        let (text, report) = toy_journal();
        let recovered = SweepReport::recover_journal(&text).unwrap();
        assert_eq!(
            recovered.cells.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 2],
            "completion-order rows must sort back into grid order"
        );
        assert_eq!(recovered.canonical().cells, report.canonical().cells);
        assert_eq!(recovered.grid_fingerprint, report.grid_fingerprint);
        assert_eq!(recovered.total_cells, 2);
        recovered.validate().unwrap();
    }

    #[test]
    fn journal_truncated_at_any_byte_boundary_recovers_cleanly() {
        let (text, _) = toy_journal();
        // The prefix that still contains the complete first row (everything
        // up to and including its newline).
        let row_starts: Vec<usize> = text
            .char_indices()
            .filter(|&(_, c)| c == '\n')
            .map(|(i, _)| i + 1)
            .collect();
        let last_row_start = row_starts[row_starts.len() - 2];
        // Truncate the final row at every byte boundary: recovery must
        // either keep it (only when complete) or drop it — never error.
        for cut in 0..=(text.len() - last_row_start) {
            let truncated = &text[..last_row_start + cut];
            let recovered = SweepReport::recover_journal(truncated)
                .unwrap_or_else(|e| panic!("cut at +{cut} failed: {e}"));
            let expected = if truncated.len() >= text.len() - 1 {
                2
            } else {
                1
            };
            assert_eq!(recovered.total_cells, expected, "cut at +{cut}");
        }
    }

    #[test]
    fn journal_rejects_interior_corruption_and_bad_headers() {
        let (text, _) = toy_journal();
        // Interior corruption (a damaged, fsync'd row) is never silently
        // dropped.
        let corrupted = text.replacen("\"ok\":", "\"notok\":", 1);
        assert!(SweepReport::recover_journal(&corrupted)
            .unwrap_err()
            .contains("journal line 2"));
        // A bad or missing header fails immediately.
        assert!(SweepReport::recover_journal("").is_err());
        assert!(SweepReport::recover_journal("not json\n").is_err());
        let wrong_version = text.replacen("\"journal_version\":1", "\"journal_version\":99", 1);
        assert!(SweepReport::recover_journal(&wrong_version)
            .unwrap_err()
            .contains("journal_version"));
    }

    #[test]
    fn journal_writer_round_trips_through_recovery() {
        let path = std::env::temp_dir().join(format!(
            "surrogate_journal_test_{}.jsonl",
            std::process::id()
        ));
        let (_, report) = toy_journal();
        let header = JournalHeader {
            journal_version: JOURNAL_VERSION,
            grid_fingerprint: report.grid_fingerprint.clone(),
            grid_cells: report.grid_cells,
            shard: None,
        };
        let writer = JournalWriter::create(&path, &header, &[]).unwrap();
        for row in &report.cells {
            writer.append(row).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            text.starts_with("{\"journal_version\""),
            "the header must be sniffable from the first bytes: {text:?}"
        );
        let recovered = SweepReport::recover_journal(&text).unwrap();
        assert_eq!(recovered.canonical().cells, report.canonical().cells);
    }
}
