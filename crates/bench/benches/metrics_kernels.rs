//! Criterion bench: the evaluation-metric kernels used by Table I and
//! Figs. 4–5 (Wasserstein distance, JSD, association matrix, DCR), and
//! SMOTE's fit, which runs the same nearest-neighbour search as DCR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use metrics::{
    association_matrix, distance_to_closest_record, mean_jsd, mean_wasserstein, DcrConfig,
};
use pandasim::{records_to_table, FilterFunnel, GeneratorConfig, WorkloadGenerator};
use surrogate::{SmoteConfig, SmoteSampler, TabularGenerator};
use tabular::Table;

fn tables(rows: usize) -> (Table, Table) {
    let gross = WorkloadGenerator::new(GeneratorConfig {
        gross_records: rows * 3,
        ..GeneratorConfig::default()
    })
    .generate();
    let funnel = FilterFunnel::apply(&gross);
    let table = records_to_table(&funnel.records);
    let n = rows.min(table.n_rows() / 2);
    let real: Vec<usize> = (0..n).collect();
    let synth: Vec<usize> = (n..2 * n).collect();
    (table.take(&real), table.take(&synth))
}

fn bench_distribution_metrics(c: &mut Criterion) {
    let (real, synthetic) = tables(5_000);
    let mut group = c.benchmark_group("metric_kernels_5k_rows");
    group.sample_size(10);
    group.bench_function("mean_wasserstein", |b| {
        b.iter(|| mean_wasserstein(&real, &synthetic).unwrap())
    });
    group.bench_function("mean_jsd", |b| {
        b.iter(|| mean_jsd(&real, &synthetic).unwrap())
    });
    group.bench_function("association_matrix", |b| {
        b.iter(|| association_matrix(&real))
    });
    group.finish();
}

fn bench_dcr_scaling(c: &mut Criterion) {
    let (real, synthetic) = tables(5_000);
    let mut group = c.benchmark_group("dcr_scaling");
    group.sample_size(10);
    for &cap in &[200usize, 500, 1_000] {
        group.bench_with_input(BenchmarkId::new("synthetic_rows", cap), &cap, |b, &cap| {
            let config = DcrConfig {
                max_synthetic_rows: cap,
                max_train_rows: 5_000,
            };
            b.iter(|| distance_to_closest_record(&real, &synthetic, config))
        });
    }
    group.finish();
}

fn bench_smote_fit(c: &mut Criterion) {
    let (real, _) = tables(5_000);
    let mut group = c.benchmark_group("smote_fit");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("rows", real.n_rows()), &real, |b, real| {
        b.iter(|| {
            let mut smote = SmoteSampler::new(SmoteConfig::default());
            smote.fit(real).unwrap();
            smote
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_distribution_metrics,
    bench_dcr_scaling,
    bench_smote_fit
);
criterion_main!(benches);
