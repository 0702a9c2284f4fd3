//! Criterion bench: the gradient-boosted-regressor probe used by the
//! machine-learning-efficacy (diff-MLEF) column of Table I.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use metrics::{mlef_mse, MlefConfig};
use pandasim::{records_to_table, FilterFunnel, GeneratorConfig, WorkloadGenerator};
use tabular::{train_test_split, SplitOptions};

fn bench_mlef_probe(c: &mut Criterion) {
    let gross = WorkloadGenerator::new(GeneratorConfig {
        gross_records: 12_000,
        ..GeneratorConfig::default()
    })
    .generate();
    let funnel = FilterFunnel::apply(&gross);
    let table = records_to_table(&funnel.records);
    let (train, test) = train_test_split(&table, SplitOptions::default()).unwrap();

    let mut group = c.benchmark_group("mlef_probe");
    group.sample_size(10);
    for &iterations in &[20usize, 60] {
        group.bench_with_input(
            BenchmarkId::new("gbdt_iterations", iterations),
            &iterations,
            |b, &iterations| {
                let mut config = MlefConfig::fast();
                config.gbdt.n_iterations = iterations;
                b.iter(|| mlef_mse(&train, &test, &config))
            },
        );
    }
    // The probe Table I runs: the paper's 200 trees at depth 10.
    let paper = MlefConfig::default();
    group.bench_function("paper_mlef", |b| b.iter(|| mlef_mse(&train, &test, &paper)));
    group.finish();
}

criterion_group!(benches, bench_mlef_probe);
criterion_main!(benches);
