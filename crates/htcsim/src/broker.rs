//! Job-to-site brokerage policies.

use serde::{Deserialize, Serialize};

use crate::site::SimSite;
use crate::storage::{DatasetId, ReplicaCatalog, TransferModel};

/// The brokerage policy deciding which site a job is dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BrokerPolicy {
    /// Cycle through sites regardless of load or data placement
    /// (the naive baseline).
    RoundRobin,
    /// Pick the site with the most free slots.
    LeastLoaded,
    /// Prefer sites that already hold the input dataset, falling back to the
    /// least-loaded site when no replica site has capacity. This mirrors the
    /// data-aware brokerage the paper's optimisation target cares about.
    DataLocality,
}

impl BrokerPolicy {
    /// All policies, for sweeps.
    pub const ALL: [BrokerPolicy; 3] = [
        BrokerPolicy::RoundRobin,
        BrokerPolicy::LeastLoaded,
        BrokerPolicy::DataLocality,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BrokerPolicy::RoundRobin => "round-robin",
            BrokerPolicy::LeastLoaded => "least-loaded",
            BrokerPolicy::DataLocality => "data-locality",
        }
    }

    /// Choose a site for a job needing `cores` cores and reading `dataset`.
    ///
    /// Returns `None` when no site can currently accommodate the job (the
    /// simulator then parks the job until a slot frees up). The round-robin
    /// cursor only advances when some site is feasible, and ties (equal free
    /// slots, equal locality cost) resolve to the smallest site index —
    /// both invariants are load-bearing for run-to-run determinism. This is
    /// the per-event hot path: no allocation, one pass over the site arena.
    #[allow(clippy::too_many_arguments)] // mirrors the simulator's brokerage context
    pub fn choose(
        self,
        sites: &[SimSite],
        cores: u32,
        dataset: DatasetId,
        catalog: &ReplicaCatalog,
        transfer: &TransferModel,
        bytes: f64,
        round_robin_cursor: &mut usize,
    ) -> Option<usize> {
        if !sites.iter().any(|s| s.can_run(cores)) {
            return None;
        }
        match self {
            BrokerPolicy::RoundRobin => {
                // Advance the cursor until we land on a feasible site.
                for _ in 0..sites.len() {
                    let candidate = *round_robin_cursor % sites.len();
                    *round_robin_cursor += 1;
                    if sites[candidate].can_run(cores) {
                        return Some(candidate);
                    }
                }
                sites.iter().position(|s| s.can_run(cores))
            }
            BrokerPolicy::LeastLoaded => {
                let mut best: Option<(usize, u32)> = None;
                for (i, site) in sites.iter().enumerate() {
                    if !site.can_run(cores) {
                        continue;
                    }
                    let free = site.free_slots();
                    if best.is_none_or(|(_, best_free)| free > best_free) {
                        best = Some((i, free));
                    }
                }
                best.map(|(i, _)| i)
            }
            BrokerPolicy::DataLocality => {
                // Score = estimated hours lost to transfer minus a small bonus
                // for free capacity; lower is better.
                let mut best: Option<(usize, f64)> = None;
                for (i, site) in sites.iter().enumerate() {
                    if !site.can_run(cores) {
                        continue;
                    }
                    let local = catalog.has_replica(dataset, i as u32);
                    let cost =
                        transfer.transfer_hours(bytes, local) - 1e-3 * site.free_slots() as f64;
                    if best.is_none_or(|(_, best_cost)| cost < best_cost) {
                        best = Some((i, cost));
                    }
                }
                best.map(|(i, _)| i)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DS: DatasetId = 0;

    fn sites() -> Vec<SimSite> {
        vec![
            SimSite::new("A", 10, 15.0),
            SimSite::new("B", 10, 15.0),
            SimSite::new("C", 4, 15.0),
        ]
    }

    #[test]
    fn round_robin_cycles_through_sites() {
        let sites = sites();
        let catalog = ReplicaCatalog::new();
        let transfer = TransferModel::default();
        let mut cursor = 0;
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                BrokerPolicy::RoundRobin
                    .choose(&sites, 1, DS, &catalog, &transfer, 1e9, &mut cursor)
                    .unwrap()
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn infeasible_round_robin_leaves_the_cursor_alone() {
        let mut sites = sites();
        for s in &mut sites {
            let slots = s.slots;
            s.acquire(slots);
        }
        let catalog = ReplicaCatalog::new();
        let transfer = TransferModel::default();
        let mut cursor = 1;
        assert!(BrokerPolicy::RoundRobin
            .choose(&sites, 1, DS, &catalog, &transfer, 1e9, &mut cursor)
            .is_none());
        assert_eq!(cursor, 1, "cursor must not move when nothing is feasible");
    }

    #[test]
    fn least_loaded_prefers_free_capacity() {
        let mut sites = sites();
        sites[0].acquire(9);
        sites[1].acquire(2);
        let catalog = ReplicaCatalog::new();
        let transfer = TransferModel::default();
        let mut cursor = 0;
        let pick = BrokerPolicy::LeastLoaded
            .choose(&sites, 1, DS, &catalog, &transfer, 1e9, &mut cursor)
            .unwrap();
        assert_eq!(pick, 1);
    }

    #[test]
    fn least_loaded_ties_resolve_to_the_smallest_index() {
        let sites = sites(); // A and B both idle with 10 slots
        let catalog = ReplicaCatalog::new();
        let transfer = TransferModel::default();
        let mut cursor = 0;
        let pick = BrokerPolicy::LeastLoaded
            .choose(&sites, 1, DS, &catalog, &transfer, 1e9, &mut cursor)
            .unwrap();
        assert_eq!(pick, 0);
    }

    #[test]
    fn data_locality_prefers_replica_site() {
        let sites = sites();
        let mut catalog = ReplicaCatalog::new();
        catalog.add_replica(DS, 2);
        let transfer = TransferModel::default();
        let mut cursor = 0;
        let pick = BrokerPolicy::DataLocality
            .choose(&sites, 1, DS, &catalog, &transfer, 5e11, &mut cursor)
            .unwrap();
        assert_eq!(pick, 2);
    }

    #[test]
    fn data_locality_falls_back_when_replica_site_is_full() {
        let mut sites = sites();
        sites[2].acquire(4); // replica site has no free slots
        let mut catalog = ReplicaCatalog::new();
        catalog.add_replica(DS, 2);
        let transfer = TransferModel::default();
        let mut cursor = 0;
        let pick = BrokerPolicy::DataLocality
            .choose(&sites, 1, DS, &catalog, &transfer, 5e11, &mut cursor)
            .unwrap();
        assert_ne!(pick, 2);
    }

    #[test]
    fn no_capacity_returns_none() {
        let mut sites = sites();
        for s in &mut sites {
            let slots = s.slots;
            s.acquire(slots);
        }
        let catalog = ReplicaCatalog::new();
        let transfer = TransferModel::default();
        let mut cursor = 0;
        for policy in BrokerPolicy::ALL {
            assert!(policy
                .choose(&sites, 1, DS, &catalog, &transfer, 1e9, &mut cursor)
                .is_none());
        }
    }

    #[test]
    fn oversized_jobs_skip_small_sites() {
        let sites = sites();
        let catalog = ReplicaCatalog::new();
        let transfer = TransferModel::default();
        let mut cursor = 0;
        // 8 cores cannot fit on site C (4 slots).
        for _ in 0..10 {
            let pick = BrokerPolicy::RoundRobin
                .choose(&sites, 8, DS, &catalog, &transfer, 1e9, &mut cursor)
                .unwrap();
            assert_ne!(pick, 2);
        }
    }
}
