//! Interned identifiers, the dataset replica catalogue, and the wide-area
//! transfer model.
//!
//! Dataset and site names are interned once into `u32` symbols by a
//! [`SymbolTable`]; everything on the simulator's hot path — the replica
//! catalogue, brokerage and the event loop — then works in integer ids with
//! no string hashing or allocation per event.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Interned dataset identifier (index into the owning [`SymbolTable`]).
pub type DatasetId = u32;
/// Interned site identifier (index into the simulator's site arena).
pub type SiteId = u32;

/// A string interner mapping names to dense `u32` symbols.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("more than u32::MAX interned symbols");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Name behind a symbol.
    pub fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names in symbol order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// Which sites hold a replica of each dataset, in struct-of-arrays form:
/// one site list per interned [`DatasetId`], so lookups on the brokerage
/// hot path are a bounds-checked index instead of a string hash.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplicaCatalog {
    replicas: Vec<Vec<SiteId>>,
}

impl ReplicaCatalog {
    /// Empty catalogue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty catalogue pre-sized for `n_datasets` interned datasets.
    pub fn with_datasets(n_datasets: usize) -> Self {
        Self {
            replicas: vec![Vec::new(); n_datasets],
        }
    }

    /// Register a replica of `dataset` at `site`.
    pub fn add_replica(&mut self, dataset: DatasetId, site: SiteId) {
        let idx = dataset as usize;
        if idx >= self.replicas.len() {
            self.replicas.resize(idx + 1, Vec::new());
        }
        let entry = &mut self.replicas[idx];
        if !entry.contains(&site) {
            entry.push(site);
        }
    }

    /// Sites holding a replica of `dataset` (empty if unknown).
    pub fn sites_with(&self, dataset: DatasetId) -> &[SiteId] {
        self.replicas
            .get(dataset as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `site` already holds `dataset`.
    #[inline]
    pub fn has_replica(&self, dataset: DatasetId, site: SiteId) -> bool {
        self.sites_with(dataset).contains(&site)
    }
}

/// Simple wide-area transfer cost model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TransferModel {
    /// Effective wide-area bandwidth per transfer, in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed latency overhead per transfer, in hours.
    pub latency_hours: f64,
}

impl Default for TransferModel {
    fn default() -> Self {
        Self {
            // 1 GB/s effective per transfer stream, 5-minute setup overhead.
            bandwidth_bytes_per_s: 1e9,
            latency_hours: 5.0 / 60.0,
        }
    }
}

impl TransferModel {
    /// Hours needed to move `bytes` to a site without a replica; zero when
    /// the data is already local.
    #[inline]
    pub fn transfer_hours(&self, bytes: f64, is_local: bool) -> f64 {
        if is_local || bytes <= 0.0 {
            return 0.0;
        }
        self.latency_hours + bytes / self.bandwidth_bytes_per_s / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_dense_and_stable() {
        let mut table = SymbolTable::new();
        assert!(table.is_empty());
        let a = table.intern("mc23.AOD");
        let b = table.intern("data22.DAOD");
        assert_eq!(table.intern("mc23.AOD"), a);
        assert_ne!(a, b);
        assert_eq!(table.resolve(a), "mc23.AOD");
        assert_eq!(table.resolve(b), "data22.DAOD");
        assert_eq!(table.len(), 2);
        assert_eq!(
            table.names(),
            &["mc23.AOD".to_string(), "data22.DAOD".to_string()]
        );
    }

    #[test]
    fn replica_bookkeeping() {
        let mut cat = ReplicaCatalog::with_datasets(2);
        cat.add_replica(0, 0);
        cat.add_replica(0, 2);
        cat.add_replica(0, 0); // duplicate ignored
        cat.add_replica(1, 1);
        assert_eq!(cat.sites_with(0), &[0, 2]);
        assert!(cat.has_replica(0, 2));
        assert!(!cat.has_replica(0, 1));
        assert!(cat.sites_with(7).is_empty());
    }

    #[test]
    fn catalog_grows_on_demand() {
        let mut cat = ReplicaCatalog::new();
        cat.add_replica(5, 3);
        assert_eq!(cat.sites_with(5), &[3]);
        assert!(cat.sites_with(0).is_empty());
    }

    #[test]
    fn local_data_transfers_instantly() {
        let model = TransferModel::default();
        assert_eq!(model.transfer_hours(1e12, true), 0.0);
        assert_eq!(model.transfer_hours(0.0, false), 0.0);
    }

    #[test]
    fn remote_transfer_time_scales_with_bytes() {
        let model = TransferModel {
            bandwidth_bytes_per_s: 1e9,
            latency_hours: 0.1,
        };
        let one_tb = model.transfer_hours(1e12, false);
        let ten_tb = model.transfer_hours(1e13, false);
        assert!(one_tb > 0.1);
        assert!(ten_tb > 5.0 * one_tb);
        // 1 TB at 1 GB/s is 1000 s ≈ 0.28 h plus latency.
        assert!((one_tb - (0.1 + 1000.0 / 3600.0)).abs() < 1e-9);
    }
}
