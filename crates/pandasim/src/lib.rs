//! Statistical simulator of PanDA/ATLAS user-analysis job records.
//!
//! The paper trains its surrogate models on 150 days of real job-submission
//! records from the ATLAS experiment's PanDA workload-management system —
//! data we cannot redistribute. This crate is the documented substitution: a
//! statistical simulator that reproduces the *structural* properties the
//! paper's evaluation depends on:
//!
//! * mixed categorical / numerical features with heavy class imbalance
//!   (a handful of sites and data types dominate, with a long tail),
//! * a multi-modal `workload` distribution (distinct analysis campaign modes),
//! * clear time-varying submission intensity (diurnal + weekly cycles plus
//!   campaign bursts) in `creationtime`,
//! * strong cross-feature correlations (`workload` with the number and size of
//!   input files, with the executing site's HS23 power and with the data
//!   type; job status with job size and site reliability),
//! * the DAOD dataset nomenclature (project / production step / data type)
//!   from which the paper derives its categorical dataset features,
//! * the Fig. 3(b) filtering funnel from gross PanDA records down to the
//!   train/test tables used by the generative models.
//!
//! Modules:
//!
//! * [`site`] — the computing-site catalogue with HS23 benchmark scores,
//! * [`dataset`] — DAOD (and non-DAOD) dataset nomenclature and popularity,
//! * [`user`] — the analysis-user population and task-size behaviour,
//! * [`temporal`] — the submission-intensity model,
//! * [`record`] — the raw job record,
//! * [`generator`] — the top-level [`WorkloadGenerator`],
//! * [`filter`] — the filtering funnel producing the modelling table,
//! * [`convert`] — conversion into a [`tabular::Table`] with the paper's
//!   nine features.

pub mod convert;
pub mod dataset;
pub mod filter;
pub mod generator;
pub mod record;
pub mod site;
pub mod temporal;
pub mod user;

pub use convert::{records_to_table, PAPER_FEATURES};
pub use dataset::{DaodCatalog, DatasetRef};
pub use filter::{FilterFunnel, FunnelStage};
pub use generator::{GeneratorConfig, WorkloadGenerator};
pub use record::{JobRecord, JobSource, JobStatus};
pub use site::{Site, SiteCatalog};
