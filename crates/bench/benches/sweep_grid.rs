//! Criterion bench: scenario-sweep grid expansion, the durability layer's
//! fingerprint/artifact costs, and a miniature end-to-end sweep (2 cells,
//! smoke budget) so the sweep runtime's orchestration overhead is tracked
//! alongside the model benches.

use criterion::{criterion_group, criterion_main, Criterion};
use metrics::{DcrConfig, EvaluationConfig};
use pandasim::GeneratorConfig;
use surrogate::sweep::{
    grid_fingerprint, run_sweep, run_sweep_with, NamedGeneratorConfig, SweepGrid, SweepOptions,
    SweepReport,
};
use surrogate::{ModelKind, TrainingBudget};

fn bench_grid_expansion(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_grid");
    // A deliberately large grid: 64 seeds x 3 budgets x 5 presets x 4
    // models = 3840 cells, so per-cell expansion cost stays visible.
    let grid = SweepGrid {
        seeds: (0..64).collect(),
        budgets: TrainingBudget::ALL.to_vec(),
        generators: GeneratorConfig::PRESET_NAMES
            .iter()
            .map(|name| NamedGeneratorConfig::preset(name).unwrap())
            .collect(),
        models: ModelKind::ALL.to_vec(),
    };
    group.bench_function("expand_3840_cells", |b| b.iter(|| grid.expand()));
    // The durability header costs paid once per run / resume validation.
    let options = SweepOptions::default();
    group.bench_function("fingerprint_3840_cell_grid", |b| {
        b.iter(|| grid_fingerprint(&grid, &options))
    });
    group.finish();
}

/// Render + typed parse of a full-grid artifact: the per-resume overhead of
/// reading a prior `SweepReport` back through the shim `Deserialize` path.
fn bench_artifact_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_artifact");
    // A 512-row artifact (128 seeds x 4 models) built without fitting:
    // every cell resumes from itself, so the fitter never runs.
    let grid = SweepGrid {
        seeds: (0..128).collect(),
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![NamedGeneratorConfig::preset("small").unwrap()],
        models: ModelKind::ALL.to_vec(),
    };
    let options = SweepOptions::default();
    // A synthetic prior covering every cell, so the resume bench below
    // measures pure validation + stitching (the fitter never runs).
    let cells: Vec<surrogate::sweep::SweepCellRow> = grid
        .expand()
        .iter()
        .map(|cell| surrogate::sweep::SweepCellRow {
            index: cell.index,
            id: cell.id(),
            seed: cell.seed,
            budget: cell.budget.name().to_string(),
            generator: cell.generator.name.clone(),
            model: cell.model.name().to_string(),
            ok: true,
            error: None,
            error_kind: None,
            attempts: 1,
            train_rows: Some(1_000),
            synthetic_rows: Some(1_000),
            wall_ms: 1.0,
            wd: Some(0.1),
            jsd: Some(0.2),
            diff_corr: Some(0.3),
            dcr: Some(0.4),
            diff_mlef: None,
        })
        .collect();
    let report = SweepReport {
        schema_version: surrogate::sweep::SCHEMA_VERSION,
        generated_by: surrogate::sweep::GENERATED_BY.to_string(),
        grid_fingerprint: grid_fingerprint(&grid, &options),
        grid_cells: grid.len(),
        shard: None,
        total_cells: cells.len(),
        failed_cells: 0,
        wall_ms: 0.0,
        cells,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    group.bench_function("render_512_rows", |b| {
        b.iter(|| serde_json::to_string_pretty(&report).unwrap())
    });
    group.bench_function("typed_parse_512_rows", |b| {
        b.iter(|| serde_json::from_str::<SweepReport>(&json).unwrap())
    });
    group.bench_function("resume_noop_512_cells", |b| {
        b.iter(|| {
            run_sweep_with(
                &grid,
                &options,
                Some(&report),
                |_, train, _: &surrogate::FitContext| Ok(train.clone()),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_tiny_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_run");
    group.sample_size(10);
    let grid = SweepGrid {
        seeds: vec![7],
        budgets: vec![TrainingBudget::Smoke],
        generators: vec![{
            let mut g = NamedGeneratorConfig::preset("small").unwrap();
            g.config.gross_records = 1_500;
            g
        }],
        models: vec![ModelKind::Smote, ModelKind::TabDdpm],
    };
    let options = SweepOptions {
        evaluation: EvaluationConfig {
            dcr: DcrConfig {
                max_synthetic_rows: 200,
                max_train_rows: 500,
            },
            mlef: None,
        },
        ..SweepOptions::default()
    };
    group.bench_function("two_cell_smoke_sweep", |b| {
        b.iter(|| run_sweep(&grid, &options, None).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_grid_expansion,
    bench_artifact_round_trip,
    bench_tiny_sweep
);
criterion_main!(benches);
