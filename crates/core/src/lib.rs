//! Generative surrogate models for distributed-computing workloads.
//!
//! This is the paper's core contribution: four tabular generative models that
//! learn the joint distribution of PanDA job records and synthesise new,
//! realistic rows —
//!
//! * [`SmoteSampler`] — nearest-neighbour interpolation
//!   (non-learning baseline),
//! * [`Tvae`] — a variational autoencoder for mixed-type rows,
//! * [`CtabGan`] — a CTABGAN+-style conditional GAN,
//! * [`TabDdpm`] — a denoising-diffusion model with an MLP
//!   backbone (the paper's recommended model).
//!
//! All models implement the [`TabularGenerator`]
//! trait (fit on a [`tabular::Table`], sample any number of synthetic rows)
//! and share the [`TableCodec`]: numerical columns are
//! Gaussian-quantile-transformed, categorical columns are one-hot encoded —
//! exactly the preprocessing described in §V-A of the paper.
//!
//! [`pipeline`] ties everything together: construct any model by name, fit,
//! sample and hand the result to the `metrics` crate.
//!
//! [`experiment`] is the shared experiment runtime on top of the pipeline:
//! dataset preparation ([`experiment::prepare_data`]) and the parallel,
//! failure-isolating fit of all four models ([`experiment::fit_all`]) that
//! the `bench` binaries, examples and integration tests all drive.
//!
//! [`sweep`] scales that runtime to scenario grids: a declarative
//! seeds × budgets × generator-variants × models grid expands into cells
//! whose fit→sample→evaluate pipelines are batched over one flat parallel
//! work queue, with per-cell determinism and failure isolation, aggregated
//! into a serializable [`sweep::SweepReport`]. One runner,
//! [`sweep::run_sweep`], covers every mode: sharding, resuming from a prior
//! artifact, journaling and checkpointing are [`sweep::SweepOptions`]
//! fields, not separate entry points.

pub mod artifact_io;
pub mod checkpoint;
pub mod codec;
pub mod ctabgan;
pub mod experiment;
pub mod fault;
pub mod mixed;
pub mod pipeline;
pub mod smote;
pub mod sweep;
pub mod tabddpm;
pub mod traits;
pub mod tvae;

pub use artifact_io::{atomic_write, fnv1a_hex, parse_log_rows, table_digest, Fnv1a, TailPolicy};
pub use checkpoint::{
    Checkpoint, CheckpointError, CheckpointHeader, CheckpointPayload, CheckpointRegistry,
    QuarantinedCheckpoint, CHECKPOINT_VERSION,
};
pub use codec::{ColumnSpan, TableCodec};
pub use ctabgan::{CtabGan, CtabGanConfig};
pub use experiment::{
    fit_all, fit_models_with, prepare_data, prepare_data_from_config, try_prepare_data,
    try_prepare_data_from_config, ExecutionMode, ExperimentOptions, FitReport, ModelRun,
    PreparedData,
};
pub use fault::{
    derive_attempt_seed, panic_message, CellBudget, Fault, FaultClock, FaultKind, FaultPlan,
    FitControl, ServeFaultKind, ServeFaultPlan,
};
pub use pipeline::{build_model, build_payload, fit_and_sample, ModelKind, TrainingBudget};
pub use smote::{SmoteConfig, SmoteSampler};
pub use sweep::{
    grid_fingerprint, run_sweep, run_sweep_with, CellError, CellRun, CellSuccess, FitContext,
    NamedGeneratorConfig, ShardSpec, SweepArtifactError, SweepCell, SweepCellRow, SweepGrid,
    SweepOptions, SweepReport, SweepRunSummary,
};
pub use tabddpm::{TabDdpm, TabDdpmConfig};
pub use traits::{SampleSpec, SurrogateError, TabularGenerator};
pub use tvae::{Tvae, TvaeConfig};
