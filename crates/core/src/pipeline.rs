//! Model factory and fit/sample orchestration.

use serde::{Deserialize, Serialize};
use tabular::Table;

use crate::checkpoint::CheckpointPayload;
use crate::ctabgan::{CtabGan, CtabGanConfig};
use crate::smote::{SmoteConfig, SmoteSampler};
use crate::tabddpm::{TabDdpm, TabDdpmConfig};
use crate::traits::{SurrogateError, TabularGenerator};
use crate::tvae::{Tvae, TvaeConfig};

/// The four surrogate models evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Variational autoencoder.
    Tvae,
    /// Conditional GAN (CTABGAN+ style).
    CtabGan,
    /// Nearest-neighbour interpolation (non-learning baseline).
    Smote,
    /// Denoising diffusion model (the paper's recommendation).
    TabDdpm,
}

impl ModelKind {
    /// All four models, in the order of the paper's Table I.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Tvae,
        ModelKind::CtabGan,
        ModelKind::Smote,
        ModelKind::TabDdpm,
    ];

    /// Name used in tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Tvae => "TVAE",
            ModelKind::CtabGan => "CTABGAN+",
            ModelKind::Smote => "SMOTE",
            ModelKind::TabDdpm => "TabDDPM",
        }
    }

    /// Parse a model name (case-insensitive, punctuation-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        let key: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        match key.as_str() {
            "tvae" => Some(ModelKind::Tvae),
            "ctabgan" | "ctabganplus" | "ctaggan" => Some(ModelKind::CtabGan),
            "smote" => Some(ModelKind::Smote),
            "tabddpm" | "ddpm" => Some(ModelKind::TabDdpm),
            _ => None,
        }
    }
}

/// How much compute to spend on training: scales epochs and network sizes
/// between quick smoke tests and full paper-style runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainingBudget {
    /// Tiny models and few epochs — unit tests and CI.
    Smoke,
    /// Reasonable laptop-scale defaults — examples and benches.
    Standard,
    /// Larger networks and more epochs — closest to the paper's setup.
    Full,
}

impl TrainingBudget {
    /// All budgets, cheapest first.
    pub const ALL: [TrainingBudget; 3] = [
        TrainingBudget::Smoke,
        TrainingBudget::Standard,
        TrainingBudget::Full,
    ];

    /// Name used in CLI flags and report rows.
    pub fn name(self) -> &'static str {
        match self {
            TrainingBudget::Smoke => "smoke",
            TrainingBudget::Standard => "standard",
            TrainingBudget::Full => "full",
        }
    }

    /// Parse a budget name (case-insensitive). `fast` is an alias for
    /// `smoke` and `paper` for `full`, matching how the docs describe them.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "smoke" | "fast" => Some(TrainingBudget::Smoke),
            "standard" | "default" => Some(TrainingBudget::Standard),
            "full" | "paper" => Some(TrainingBudget::Full),
            _ => None,
        }
    }

    fn scale_epochs(self, standard: usize) -> usize {
        match self {
            TrainingBudget::Smoke => (standard / 4).max(4),
            TrainingBudget::Standard => standard,
            TrainingBudget::Full => standard * 4,
        }
    }
}

/// Build an unfitted model of the requested kind in checkpointable form.
/// This is the single source of truth for budget- and seed-dependent model
/// configuration: [`build_model`] and the checkpoint save/load path both go
/// through it, so a reloaded checkpoint is configured exactly like a
/// freshly built model.
pub fn build_payload(kind: ModelKind, budget: TrainingBudget, seed: u64) -> CheckpointPayload {
    match kind {
        ModelKind::Smote => CheckpointPayload::Smote(SmoteSampler::new(SmoteConfig::default())),
        ModelKind::Tvae => {
            let base = match budget {
                TrainingBudget::Smoke => TvaeConfig::fast(),
                _ => TvaeConfig::default(),
            };
            CheckpointPayload::Tvae(Tvae::new(TvaeConfig {
                epochs: budget.scale_epochs(base.epochs),
                seed,
                ..base
            }))
        }
        ModelKind::CtabGan => {
            let base = match budget {
                TrainingBudget::Smoke => CtabGanConfig::fast(),
                _ => CtabGanConfig::default(),
            };
            CheckpointPayload::CtabGan(CtabGan::new(CtabGanConfig {
                epochs: budget.scale_epochs(base.epochs),
                seed,
                ..base
            }))
        }
        ModelKind::TabDdpm => {
            let base = match budget {
                TrainingBudget::Smoke => TabDdpmConfig::fast(),
                _ => TabDdpmConfig::default(),
            };
            CheckpointPayload::TabDdpm(TabDdpm::new(TabDdpmConfig {
                epochs: budget.scale_epochs(base.epochs),
                seed,
                ..base
            }))
        }
    }
}

/// Build a surrogate model of the requested kind with a given budget and
/// base seed.
pub fn build_model(
    kind: ModelKind,
    budget: TrainingBudget,
    seed: u64,
) -> Box<dyn TabularGenerator> {
    build_payload(kind, budget, seed).into_generator()
}

/// Fit a model of the requested kind on `train` and sample `n_samples`
/// synthetic rows, drawing them with `seed + 1`.
pub fn fit_and_sample(
    kind: ModelKind,
    train: &Table,
    n_samples: usize,
    budget: TrainingBudget,
    seed: u64,
) -> Result<Table, SurrogateError> {
    let mut model = build_model(kind, budget, seed);
    model.fit(train)?;
    model.sample(n_samples, seed.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::SampleSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tabular::Column;

    fn toy(n: usize) -> Table {
        let mut rng = StdRng::seed_from_u64(0);
        let mut values = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            values.push(rng.gen_range(1.0..100.0));
            labels.push(if rng.gen_bool(0.7) { "BNL" } else { "CERN" });
        }
        let mut t = Table::new();
        t.push_column("workload", Column::Numerical(values))
            .unwrap();
        t.push_column("site", Column::from_labels(&labels)).unwrap();
        t
    }

    #[test]
    fn model_kind_parsing() {
        assert_eq!(ModelKind::parse("TabDDPM"), Some(ModelKind::TabDdpm));
        assert_eq!(ModelKind::parse("ctab-gan+"), Some(ModelKind::CtabGan));
        assert_eq!(ModelKind::parse("smote"), Some(ModelKind::Smote));
        assert_eq!(ModelKind::parse("TVAE"), Some(ModelKind::Tvae));
        assert_eq!(ModelKind::parse("mystery"), None);
        assert_eq!(ModelKind::ALL.len(), 4);
    }

    #[test]
    fn names_match_paper_table() {
        assert_eq!(ModelKind::Tvae.name(), "TVAE");
        assert_eq!(ModelKind::CtabGan.name(), "CTABGAN+");
        assert_eq!(ModelKind::Smote.name(), "SMOTE");
        assert_eq!(ModelKind::TabDdpm.name(), "TabDDPM");
    }

    #[test]
    fn budget_scales_epochs() {
        assert!(TrainingBudget::Smoke.scale_epochs(60) < 60);
        assert_eq!(TrainingBudget::Standard.scale_epochs(60), 60);
        assert_eq!(TrainingBudget::Full.scale_epochs(60), 240);
    }

    #[test]
    fn budget_names_round_trip_through_parse() {
        for budget in TrainingBudget::ALL {
            assert_eq!(TrainingBudget::parse(budget.name()), Some(budget));
        }
        assert_eq!(TrainingBudget::parse("fast"), Some(TrainingBudget::Smoke));
        assert_eq!(TrainingBudget::parse("PAPER"), Some(TrainingBudget::Full));
        assert_eq!(TrainingBudget::parse("mystery"), None);
    }

    #[test]
    fn batched_sampling_matches_per_call_sampling_for_every_kind() {
        // The serving loop's correctness contract, pinned at the pipeline
        // level: for every model kind, a coalesced batch of requests
        // produces byte-identical tables to sampling each request alone on
        // the same fitted model — including a duplicate (rows, seed) pair,
        // which must yield two identical tables, a 0-row spec inside a
        // batch, an empty batch, and a batch whose total (9+17+9+0+40 = 75)
        // is above 64 and not a power of two.
        let train = toy(120);
        let specs = [
            SampleSpec::new(9, 100),
            SampleSpec::new(17, 3),
            SampleSpec::new(9, 100),
            SampleSpec::new(0, 8),
            SampleSpec::new(40, 21),
        ];
        for kind in ModelKind::ALL {
            let mut model = build_model(kind, TrainingBudget::Smoke, 7);
            model.fit(&train).unwrap();
            let batched = model.sample_batch(&specs).unwrap_or_else(|e| {
                panic!("{} batched sampling failed: {e}", kind.name());
            });
            assert_eq!(batched.len(), specs.len(), "{}", kind.name());
            for (spec, table) in specs.iter().zip(&batched) {
                assert_eq!(table.n_rows(), spec.rows, "{}", kind.name());
                assert_eq!(table.names(), train.names(), "{}", kind.name());
                assert_eq!(
                    table,
                    &model.sample(spec.rows, spec.seed).unwrap(),
                    "{} diverged for {spec:?}",
                    kind.name()
                );
            }
            assert_eq!(batched[0], batched[2], "{}", kind.name());
            assert!(
                model.sample_batch(&[]).unwrap().is_empty(),
                "{}",
                kind.name()
            );
        }
    }

    /// `toy(40)` with `cells` written into its `workload` column.
    fn toy_with_workload(cells: &[(usize, f64)]) -> Table {
        let mut train = toy(40);
        if let Column::Numerical(values) = train.column_mut("workload").unwrap() {
            for &(row, value) in cells {
                values[row] = value;
            }
        }
        train
    }

    /// Every kind's fit of `train` is a typed error naming `row`.
    fn assert_fit_names_non_finite_row(train: &Table, row: usize) {
        for kind in ModelKind::ALL {
            let mut model = build_model(kind, TrainingBudget::Smoke, 7);
            let error = model.fit(train).unwrap_err();
            assert!(
                matches!(
                    error,
                    SurrogateError::Tabular(tabular::TabularError::NonFinite { row: r, .. })
                        if r == row
                ),
                "{}: {error:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn a_nan_in_a_numerical_column_is_a_typed_fit_error_for_every_kind() {
        // A NaN has no rank, so the codec's encode of the training table
        // refuses it.
        assert_fit_names_non_finite_row(&toy_with_workload(&[(17, f64::NAN)]), 17);
    }

    #[test]
    fn an_infinite_numerical_value_is_a_typed_fit_error_for_every_kind() {
        // ±inf would encode to the quantile transform's clamped tails as a
        // made-up extreme, so the encode refuses it too, naming the first
        // non-finite row.
        let mixed = [(0, f64::INFINITY), (1, f64::NEG_INFINITY), (17, f64::NAN)];
        assert_fit_names_non_finite_row(&toy_with_workload(&mixed), 0);
        assert_fit_names_non_finite_row(&toy_with_workload(&[(5, f64::NEG_INFINITY)]), 5);
    }

    #[test]
    fn every_model_kind_fits_and_samples() {
        let train = toy(120);
        for kind in ModelKind::ALL {
            let synthetic = fit_and_sample(kind, &train, 30, TrainingBudget::Smoke, 7)
                .unwrap_or_else(|e| {
                    panic!("{} failed: {e}", kind.name());
                });
            assert_eq!(synthetic.n_rows(), 30, "{}", kind.name());
            assert_eq!(synthetic.names(), train.names(), "{}", kind.name());
        }
    }
}
