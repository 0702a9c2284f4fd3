//! Arena-indexed struct-of-arrays job storage.
//!
//! A [`JobArena`] holds every job of a simulation run as parallel column
//! vectors (the columnar idiom of the modelling tables, applied to the
//! simulator): arrival times, core counts, CPU hours, input bytes, plus
//! interned `u32` symbols for dataset and origin-site names. It is the
//! simulator's one job form. The event loop indexes jobs by `u32` handle and
//! never touches a `String`, so the per-event path allocates nothing.

use std::fmt;

use pandasim::SiteCatalog;
use serde::{Deserialize, Serialize};

use crate::storage::{DatasetId, SymbolTable};

/// Origin symbol for jobs whose originating site is unknown.
pub const NO_ORIGIN: u32 = u32::MAX;

/// A typed error naming the workload-table column that could not be read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimInputError {
    /// A required numerical column was missing or of the wrong kind.
    Column {
        /// Name of the offending column.
        column: String,
        /// The underlying table error, rendered.
        detail: String,
    },
    /// The job population exceeds the arena's `u32` index space.
    TooManyJobs {
        /// Number of rows offered.
        rows: usize,
    },
    /// A required numerical column holds NaN or an infinity.
    NonFinite {
        /// Name of the offending column.
        column: String,
        /// Zero-based row of its first non-finite value.
        row: usize,
    },
}

impl fmt::Display for SimInputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimInputError::Column { column, detail } => {
                write!(f, "workload table column `{column}` unusable: {detail}")
            }
            SimInputError::TooManyJobs { rows } => {
                write!(
                    f,
                    "workload has {rows} rows, exceeding the u32 job-index space"
                )
            }
            SimInputError::NonFinite { column, row } => {
                write!(
                    f,
                    "workload table column `{column}` has a non-finite value at row {row}"
                )
            }
        }
    }
}

impl std::error::Error for SimInputError {}

/// Struct-of-arrays storage for the jobs of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct JobArena {
    /// Arrival (submission) time in hours from the start of the window.
    pub arrival_hours: Vec<f64>,
    /// Cores requested.
    pub cores: Vec<u32>,
    /// CPU time needed, in hours (HS23-normalised: on a site the job runs
    /// `cpu_hours / cores` wall hours divided by the site's HS23 per core
    /// relative to the simulator's reference).
    pub cpu_hours: Vec<f64>,
    /// Interned input dataset per job.
    pub dataset: Vec<DatasetId>,
    /// Input size in bytes.
    pub input_bytes: Vec<f64>,
    /// Interned origin-site symbol per job ([`NO_ORIGIN`] when unknown).
    pub origin: Vec<u32>,
    datasets: SymbolTable,
    origin_sites: SymbolTable,
}

impl JobArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.arrival_hours.len()
    }

    /// Whether the arena holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.arrival_hours.is_empty()
    }

    /// Number of distinct interned datasets.
    pub fn n_datasets(&self) -> usize {
        self.datasets.len()
    }

    /// Name behind a dataset symbol.
    pub fn dataset_name(&self, id: DatasetId) -> &str {
        self.datasets.resolve(id)
    }

    /// The origin-site symbol table (symbol order = first-seen order).
    pub fn origin_site_names(&self) -> &[String] {
        self.origin_sites.names()
    }

    /// Append one job.
    pub fn push(
        &mut self,
        arrival_hours: f64,
        cores: u32,
        cpu_hours: f64,
        dataset: &str,
        input_bytes: f64,
        origin_site: Option<&str>,
    ) -> u32 {
        let id = u32::try_from(self.len()).expect("more than u32::MAX jobs in one arena");
        self.arrival_hours.push(arrival_hours);
        self.cores.push(cores.max(1));
        self.cpu_hours.push(cpu_hours);
        self.dataset.push(self.datasets.intern(dataset));
        self.input_bytes.push(input_bytes);
        self.origin
            .push(origin_site.map_or(NO_ORIGIN, |s| self.origin_sites.intern(s)));
        id
    }

    /// Empty arena with room for `n` jobs.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            arrival_hours: Vec::with_capacity(n),
            cores: Vec::with_capacity(n),
            cpu_hours: Vec::with_capacity(n),
            dataset: Vec::with_capacity(n),
            input_bytes: Vec::with_capacity(n),
            origin: Vec::with_capacity(n),
            datasets: SymbolTable::new(),
            origin_sites: SymbolTable::new(),
        }
    }

    /// Build an arena from the nine-feature modelling table produced by
    /// `pandasim::records_to_table` (or sampled from a surrogate model).
    ///
    /// Dataset identity is not part of the nine features, so each row gets a
    /// project/datatype-derived pseudo-dataset — the granularity at which
    /// the surrogate models actually learn locality structure. The three
    /// numerical columns (`creationtime`, `inputfilebytes`, `workload`) are
    /// required; a missing or non-numerical one is a typed
    /// [`SimInputError::Column`] naming it, and a NaN or infinite value in
    /// one is a [`SimInputError::NonFinite`] naming the column and row.
    /// Label columns degrade to `"unknown"` when absent, matching the seed
    /// behaviour.
    pub fn from_table(table: &tabular::Table) -> Result<Self, SimInputError> {
        let n = table.n_rows();
        if u32::try_from(n).is_err() {
            return Err(SimInputError::TooManyJobs { rows: n });
        }
        let required = |name: &str| {
            let values = table.numerical(name).map_err(|e| SimInputError::Column {
                column: name.to_string(),
                detail: e.to_string(),
            })?;
            match values.iter().position(|v| !v.is_finite()) {
                Some(row) => Err(SimInputError::NonFinite {
                    column: name.to_string(),
                    row,
                }),
                None => Ok(values),
            }
        };
        let creation = required("creationtime")?;
        let bytes = required("inputfilebytes")?;
        let workload = required("workload")?;
        // Label columns, fetched as codes+vocab once so the per-row path is
        // an integer lookup; a missing column degrades to all-"unknown".
        let labels = |name: &str| -> Option<(&[u32], &[String])> {
            match (table.codes(name), table.vocab(name)) {
                (Ok(codes), Ok(vocab)) => Some((codes, vocab)),
                _ => None,
            }
        };
        let project = labels("project");
        let datatype = labels("datatype");
        let site = labels("computingsite");
        fn label_at<'a>(col: Option<(&'a [u32], &'a [String])>, r: usize) -> &'a str {
            col.and_then(|(codes, vocab)| vocab.get(codes[r] as usize))
                .map_or("unknown", String::as_str)
        }

        let mut arena = Self::with_capacity(n);
        let mut key = String::new();
        for r in 0..n {
            key.clear();
            key.push_str(label_at(project, r));
            key.push('.');
            key.push_str(label_at(datatype, r));
            // Workload is cores × HS23 × hours; convert back to CPU hours
            // assuming a reference HS23 of 15 and 4 cores.
            let cpu_hours = (workload[r] / 15.0 / 4.0).clamp(1e-3, 96.0 * 4.0);
            arena.push(
                creation[r] * 24.0,
                4,
                cpu_hours,
                &key,
                bytes[r].max(0.0),
                Some(label_at(site, r)),
            );
        }
        Ok(arena)
    }
}

/// `n_jobs` synthetic jobs from a fixed LCG over the sites of
/// `SiteCatalog::atlas_like(40)`, arriving at a constant ~150 jobs an hour;
/// job `i` needs `cores(i)` cores. The simulator's output pins
/// (`tests/queue_oracle.rs`) and `perf_report`'s `htcsim_sim_run_*`
/// timings both run this one workload.
#[doc(hidden)]
pub fn synthetic_workload(n_jobs: usize, cores: fn(usize) -> u32) -> (SiteCatalog, JobArena) {
    let catalog = SiteCatalog::atlas_like(40);
    let site_names: Vec<&str> = catalog.sites().iter().map(|s| s.name.as_str()).collect();
    let mut arena = JobArena::with_capacity(n_jobs);
    let mut state = 0x2545f4914f6cdd1du64;
    for i in 0..n_jobs {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        arena.push(
            unit * (n_jobs as f64 / 150.0),
            cores(i),
            0.5 + unit * 6.0,
            &format!("ds{}", state % 512),
            (state % 1_000) as f64 * 1e9,
            Some(site_names[(state % site_names.len() as u64) as usize]),
        );
    }
    (catalog, arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{Column, Table};

    fn toy_table() -> Table {
        let mut table = Table::new();
        table
            .push_column("creationtime", Column::Numerical(vec![0.0, 0.5, 1.0]))
            .unwrap();
        table
            .push_column("inputfilebytes", Column::Numerical(vec![1e9, -5.0, 2e10]))
            .unwrap();
        table
            .push_column("workload", Column::Numerical(vec![600.0, 60.0, 1e9]))
            .unwrap();
        table
            .push_column(
                "project",
                Column::Categorical {
                    codes: vec![0, 0, 1],
                    vocab: vec!["mc23".to_string(), "data22".to_string()],
                },
            )
            .unwrap();
        table
            .push_column(
                "datatype",
                Column::Categorical {
                    codes: vec![0, 1, 0],
                    vocab: vec!["AOD".to_string(), "DAOD".to_string()],
                },
            )
            .unwrap();
        table
            .push_column(
                "computingsite",
                Column::Categorical {
                    codes: vec![0, 1, 0],
                    vocab: vec!["BNL".to_string(), "CERN".to_string()],
                },
            )
            .unwrap();
        table
    }

    #[test]
    fn from_table_interns_datasets_and_origins() {
        let arena = JobArena::from_table(&toy_table()).unwrap();
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.n_datasets(), 3);
        assert_eq!(arena.dataset_name(arena.dataset[0]), "mc23.AOD");
        assert_eq!(arena.dataset_name(arena.dataset[1]), "mc23.DAOD");
        assert_eq!(arena.dataset_name(arena.dataset[2]), "data22.AOD");
        assert_eq!(
            arena.origin_site_names(),
            &["BNL".to_string(), "CERN".to_string()]
        );
        assert_eq!(arena.input_bytes[1], 0.0, "negative bytes clamp to zero");
        assert_eq!(arena.arrival_hours[2], 24.0);
        assert!((arena.cpu_hours[0] - 10.0).abs() < 1e-12);
        assert_eq!(
            arena.cpu_hours[2], 384.0,
            "cpu hours clamp at 96 h × 4 cores"
        );
    }

    #[test]
    fn missing_required_column_is_a_typed_error() {
        let mut table = toy_table();
        table = {
            // Rebuild without the workload column.
            let mut t = Table::new();
            for name in ["creationtime", "inputfilebytes", "project"] {
                t.push_column(name, table.column(name).unwrap().clone())
                    .unwrap();
            }
            t
        };
        let err = JobArena::from_table(&table).unwrap_err();
        match &err {
            SimInputError::Column { column, .. } => assert_eq!(column, "workload"),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(
            err.to_string().contains("workload"),
            "error names the column: {err}"
        );
    }

    #[test]
    fn non_finite_required_values_are_typed_errors_naming_column_and_row() {
        for column in ["creationtime", "inputfilebytes", "workload"] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut table = Table::new();
                for name in ["creationtime", "inputfilebytes", "workload"] {
                    let mut values = vec![1.0; 3];
                    if name == column {
                        values[1] = bad;
                    }
                    table.push_column(name, Column::Numerical(values)).unwrap();
                }
                let err = JobArena::from_table(&table).unwrap_err();
                assert_eq!(
                    err,
                    SimInputError::NonFinite {
                        column: column.to_string(),
                        row: 1,
                    },
                    "{column} = {bad}"
                );
                assert!(
                    err.to_string().contains(column) && err.to_string().contains("row 1"),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn missing_label_columns_degrade_to_unknown() {
        let mut table = Table::new();
        table
            .push_column("creationtime", Column::Numerical(vec![0.0]))
            .unwrap();
        table
            .push_column("inputfilebytes", Column::Numerical(vec![1e9]))
            .unwrap();
        table
            .push_column("workload", Column::Numerical(vec![60.0]))
            .unwrap();
        let arena = JobArena::from_table(&table).unwrap();
        assert_eq!(arena.dataset_name(arena.dataset[0]), "unknown.unknown");
        assert_eq!(arena.origin_site_names(), &["unknown".to_string()]);
    }
}
