//! The computing-site catalogue.
//!
//! ATLAS runs on ~150 heterogeneous grid sites; a handful of large Tier-1
//! centres execute the majority of user-analysis jobs while a long tail of
//! Tier-2s picks up the rest. Each site has an HS23 benchmark score per core
//! (used by the paper to normalise CPU time into a site-independent
//! workload), a capacity weight that drives how often the brokerage sends
//! jobs there, and a reliability that drives the failure rate.

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single computing site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// PanDA queue / site name, e.g. `"BNL_PROD"`.
    pub name: String,
    /// HS23 benchmark score per core. Real sites span roughly 10–30.
    pub hs23_per_core: f64,
    /// Relative share of user-analysis jobs brokered to this site.
    pub capacity_weight: f64,
    /// Probability that a job that ran to completion finished successfully.
    pub reliability: f64,
    /// Number of execution slots (used by the `htcsim` downstream simulator).
    pub slots: u32,
    /// Tier of the site in the grid hierarchy (0, 1 or 2).
    pub tier: u8,
}

/// The catalogue of sites used by the generator and the downstream simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteCatalog {
    sites: Vec<Site>,
    /// Draws a site index by capacity weight; built once, not per draw.
    sampler: WeightedIndex,
}

impl SiteCatalog {
    /// Build a catalogue from an explicit list of sites.
    ///
    /// Panics if `sites` is empty, a capacity weight is negative or not
    /// finite, or every weight is zero: the catalogue could not sample.
    pub fn new(sites: Vec<Site>) -> Self {
        let sampler = WeightedIndex::new(sites.iter().map(|s| s.capacity_weight))
            .expect("non-empty positive weights");
        Self { sites, sampler }
    }

    /// The default ATLAS-like catalogue: a few dominant Tier-0/1 centres and a
    /// long tail of Tier-2 sites, with capacity weights decaying roughly like
    /// a Zipf law so the categorical `computingsite` column is heavily
    /// imbalanced (as in Fig. 4(b) of the paper, where BNL dominates).
    pub fn atlas_like(n_tier2: usize) -> Self {
        let mut sites = Vec::new();
        let majors: [(&str, f64, f64, u32, u8); 8] = [
            ("BNL_PROD", 17.0, 30.0, 24_000, 1),
            ("CERN-P1", 18.5, 16.0, 16_000, 0),
            ("FZK-LCG2", 16.0, 10.0, 12_000, 1),
            ("IN2P3-CC", 15.5, 8.0, 10_000, 1),
            ("RAL-LCG2", 16.5, 7.0, 10_000, 1),
            ("TRIUMF-LCG2", 15.0, 5.0, 8_000, 1),
            ("SWT2_CPB", 14.0, 4.5, 8_000, 2),
            ("MWT2", 14.5, 4.0, 8_000, 2),
        ];
        for (name, hs23, weight, slots, tier) in majors {
            sites.push(Site {
                name: name.to_string(),
                hs23_per_core: hs23,
                capacity_weight: weight,
                reliability: 0.93 + 0.04 * (tier == 1 || tier == 0) as u8 as f64,
                slots,
                tier,
            });
        }
        for i in 0..n_tier2 {
            // Zipf-like tail: weight ~ 3 / (i + 2).
            let weight = 3.0 / (i as f64 + 2.0);
            sites.push(Site {
                name: format!("T2-{:03}", i),
                hs23_per_core: 10.0 + 8.0 * ((i * 37 % 100) as f64 / 100.0),
                capacity_weight: weight,
                reliability: 0.85 + 0.1 * ((i * 13 % 100) as f64 / 100.0),
                slots: 1_000 + 200 * (i as u32 % 10),
                tier: 2,
            });
        }
        Self::new(sites)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Site by index.
    pub fn get(&self, index: usize) -> &Site {
        &self.sites[index]
    }

    /// Find a site by name.
    pub fn by_name(&self, name: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// Sample a site index according to the capacity weights.
    pub fn sample_index<R: Rng>(&self, rng: &mut R) -> usize {
        self.sampler.sample(rng)
    }
}

impl Default for SiteCatalog {
    fn default() -> Self {
        Self::atlas_like(40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn atlas_like_catalog_shape() {
        let cat = SiteCatalog::atlas_like(40);
        assert_eq!(cat.len(), 48);
        assert!(cat.by_name("BNL_PROD").is_some());
        assert!(cat.by_name("T2-000").is_some());
        assert!(cat.by_name("NOPE").is_none());
        assert!(!cat.is_empty());
    }

    #[test]
    fn sampling_respects_imbalance() {
        let cat = SiteCatalog::atlas_like(40);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; cat.len()];
        for _ in 0..20_000 {
            counts[cat.sample_index(&mut rng)] += 1;
        }
        // BNL (index 0, weight 30) must dominate any single tail site.
        let bnl = counts[0];
        let tail_max = counts[8..].iter().copied().max().unwrap();
        assert!(bnl > 3 * tail_max, "bnl={bnl} tail_max={tail_max}");
        // Every weight is positive so nothing should be starved badly.
        assert!(counts.iter().filter(|&&c| c > 0).count() > cat.len() / 2);
    }

    #[test]
    fn hs23_scores_in_realistic_band() {
        let cat = SiteCatalog::default();
        for site in cat.sites() {
            assert!(site.hs23_per_core >= 10.0 && site.hs23_per_core <= 30.0);
            assert!(site.reliability > 0.5 && site.reliability <= 1.0);
            assert!(site.slots > 0);
        }
    }
}
