//! DAOD dataset nomenclature and popularity model.
//!
//! ATLAS dataset names are structured:
//! `project.datasetNumber.description.prodstep.datatype.version`.
//! The paper splits the name into its meaningful sections — `project`,
//! `prodstep` and `datatype` — and keeps those as categorical features
//! together with the number of input files and their total size. Most
//! datasets are read only once or twice, so dataset *names* have enormous
//! cardinality while the section values are small categorical vocabularies
//! with a strongly imbalanced usage profile (e.g. `DAOD_PHYS` and
//! `DAOD_PHYSLITE` dominate).

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use rand_distr::{LogNormal, Poisson};
use serde::{Deserialize, Serialize};

/// A reference to a (possibly shared) input dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetRef {
    /// Full dataset name.
    pub name: String,
    /// Project section (`mc23_13p6TeV`, `data22_13p6TeV`, …).
    pub project: String,
    /// Production step section (`deriv`, `merge`, `recon`, `simul`).
    pub prodstep: String,
    /// Data type section (`DAOD_PHYS`, `DAOD_PHYSLITE`, `AOD`, …).
    pub datatype: String,
    /// Number of files in the dataset.
    pub n_files: u32,
    /// Total dataset size in bytes.
    pub total_bytes: f64,
}

/// Labels drawn by weight, with the sampler built once, not per draw.
#[derive(Debug, Clone)]
struct WeightedLabels {
    labels: Vec<&'static str>,
    sampler: WeightedIndex,
}

impl WeightedLabels {
    fn new(items: &[(&'static str, f64)]) -> Self {
        Self {
            labels: items.iter().map(|&(label, _)| label).collect(),
            sampler: WeightedIndex::new(items.iter().map(|&(_, w)| w)).expect("positive weights"),
        }
    }

    fn pick<R: Rng>(&self, rng: &mut R) -> &'static str {
        self.labels[self.sampler.sample(rng)]
    }
}

/// Weighted vocabularies for the three name sections plus file-count /
/// size models, from which concrete datasets are drawn.
#[derive(Debug, Clone)]
pub struct DaodCatalog {
    projects: WeightedLabels,
    prodsteps: WeightedLabels,
    daod_types: WeightedLabels,
    non_daod_types: WeightedLabels,
    /// Fraction of generated datasets whose datatype is a DAOD flavour.
    pub daod_fraction: f64,
    next_dataset_number: u64,
}

impl Default for DaodCatalog {
    fn default() -> Self {
        Self::atlas_like()
    }
}

impl DaodCatalog {
    /// An ATLAS-Run-3-like catalogue of name sections with imbalanced usage
    /// weights. Weights are loosely modelled on public ATLAS computing
    /// documentation: PHYS/PHYSLITE dominate derivations, Monte Carlo
    /// projects outnumber data projects roughly 2:1 in user analysis.
    pub fn atlas_like() -> Self {
        let projects = WeightedLabels::new(&[
            ("mc23_13p6TeV", 34.0),
            ("mc20_13TeV", 22.0),
            ("data22_13p6TeV", 16.0),
            ("data23_13p6TeV", 12.0),
            ("data18_13TeV", 8.0),
            ("mc16_13TeV", 5.0),
            ("valid1", 2.0),
            ("user", 1.0),
        ]);
        let prodsteps = WeightedLabels::new(&[
            ("deriv", 70.0),
            ("merge", 14.0),
            ("recon", 10.0),
            ("simul", 4.0),
            ("evgen", 2.0),
        ]);
        let daod_types = WeightedLabels::new(&[
            ("DAOD_PHYS", 40.0),
            ("DAOD_PHYSLITE", 30.0),
            ("DAOD_TOPQ1", 8.0),
            ("DAOD_HIGG1D1", 6.0),
            ("DAOD_EXOT2", 5.0),
            ("DAOD_SUSY5", 4.0),
            ("DAOD_JETM3", 3.0),
            ("DAOD_EGAM1", 2.0),
            ("DAOD_MUON0", 1.0),
            ("DAOD_TAUP1", 1.0),
        ]);
        let non_daod_types = WeightedLabels::new(&[
            ("AOD", 40.0),
            ("ESD", 10.0),
            ("HITS", 20.0),
            ("EVNT", 15.0),
            ("RAW", 10.0),
            ("NTUP_PILEUP", 5.0),
        ]);
        Self {
            projects,
            prodsteps,
            daod_types,
            non_daod_types,
            daod_fraction: 0.78,
            next_dataset_number: 100_000,
        }
    }

    /// Draw a new concrete dataset. `force_daod` restricts the datatype to the
    /// DAOD family (used for user-analysis inputs); otherwise the datatype is
    /// DAOD with probability [`DaodCatalog::daod_fraction`].
    pub fn sample_dataset<R: Rng>(&mut self, rng: &mut R, force_daod: bool) -> DatasetRef {
        let project = self.projects.pick(rng).to_string();
        let prodstep = self.prodsteps.pick(rng).to_string();
        let is_daod = force_daod || rng.gen_bool(self.daod_fraction);
        let datatype = if is_daod {
            self.daod_types.pick(rng).to_string()
        } else {
            self.non_daod_types.pick(rng).to_string()
        };

        // File count: Poisson around a datatype-dependent mean; PHYSLITE
        // datasets are smaller per file but have more files available.
        let mean_files = match datatype.as_str() {
            "DAOD_PHYSLITE" => 60.0,
            "DAOD_PHYS" => 45.0,
            "RAW" | "HITS" => 120.0,
            _ => 25.0,
        };
        let n_files = Poisson::new(mean_files).expect("positive mean").sample(rng) as u32 + 1;

        // Per-file size: log-normal around a datatype-dependent median.
        let median_file_gb: f64 = match datatype.as_str() {
            "DAOD_PHYSLITE" => 0.4,
            "DAOD_PHYS" => 1.6,
            "AOD" => 3.0,
            "RAW" => 5.0,
            _ => 1.0,
        };
        let ln = LogNormal::new(median_file_gb.ln(), 0.6).expect("valid lognormal");
        let per_file_bytes = ln.sample(rng) * 1e9;
        let total_bytes = per_file_bytes * n_files as f64;

        self.next_dataset_number += 1;
        let name = format!(
            "{project}.{number:08}.{prodstep}.{datatype}.e{e}_s{s}_r{r}_p{p}",
            project = project,
            number = self.next_dataset_number,
            prodstep = prodstep,
            datatype = datatype,
            e = rng.gen_range(3000..9000),
            s = rng.gen_range(3000..4000),
            r = rng.gen_range(13000..15000),
            p = rng.gen_range(5000..6000),
        );

        DatasetRef {
            name,
            project,
            prodstep,
            datatype,
            n_files,
            total_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn dataset_names_have_six_sections() {
        let mut cat = DaodCatalog::atlas_like();
        let mut rng = StdRng::seed_from_u64(3);
        let ds = cat.sample_dataset(&mut rng, true);
        let sections: Vec<&str> = ds.name.split('.').collect();
        assert_eq!(sections.len(), 5, "name = {}", ds.name);
        assert_eq!(sections[0], ds.project);
        assert_eq!(sections[2], ds.prodstep);
        assert_eq!(sections[3], ds.datatype);
    }

    #[test]
    fn forced_daod_always_daod() {
        let mut cat = DaodCatalog::atlas_like();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let ds = cat.sample_dataset(&mut rng, true);
            assert!(ds.datatype.starts_with("DAOD"), "{}", ds.datatype);
            assert!(ds.n_files >= 1);
            assert!(ds.total_bytes > 0.0);
        }
    }

    #[test]
    fn unforced_mix_contains_non_daod() {
        let mut cat = DaodCatalog::atlas_like();
        let mut rng = StdRng::seed_from_u64(7);
        let mut non_daod = 0;
        for _ in 0..500 {
            let ds = cat.sample_dataset(&mut rng, false);
            if !ds.datatype.starts_with("DAOD") {
                non_daod += 1;
            }
        }
        assert!(non_daod > 50, "non_daod = {non_daod}");
        assert!(non_daod < 250, "non_daod = {non_daod}");
    }

    #[test]
    fn datatype_usage_is_imbalanced() {
        let mut cat = DaodCatalog::atlas_like();
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts: HashMap<String, usize> = HashMap::new();
        for _ in 0..5_000 {
            let ds = cat.sample_dataset(&mut rng, true);
            *counts.entry(ds.datatype).or_default() += 1;
        }
        let phys = counts.get("DAOD_PHYS").copied().unwrap_or(0);
        let rare = counts.get("DAOD_TAUP1").copied().unwrap_or(0);
        assert!(phys > 10 * rare.max(1), "phys={phys} rare={rare}");
    }

    #[test]
    fn dataset_names_are_unique() {
        let mut cat = DaodCatalog::atlas_like();
        let mut rng = StdRng::seed_from_u64(13);
        let mut names = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(names.insert(cat.sample_dataset(&mut rng, true).name));
        }
    }
}
