//! Criterion benches for the `nn` training hot path: matmul kernel shapes,
//! the transpose-free backward products, single-layer forward/backward, and
//! per-model epoch times. The `perf_report` binary times the same kernels
//! against the `nn::matrix::reference` oracles, and the same epochs on
//! their own, and emits `BENCH_nn.json`; this bench exists for quick
//! interactive `cargo bench` comparisons.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nn::matrix::reference;
use nn::{Activation, LinearLayer, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surrogate::{
    CtabGan, CtabGanConfig, TabDdpm, TabDdpmConfig, TabularGenerator, Tvae, TvaeConfig,
};
use tabular::{Column, Table};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(1);
    for &(m, k, n) in &[
        (64usize, 64usize, 64usize),
        (128, 128, 128),
        (97, 61, 113),
        (256, 64, 256),
    ] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("blocked", format!("{m}x{k}x{n}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(a.matmul(b))),
        );
        group.bench_with_input(
            BenchmarkId::new("reference", format!("{m}x{k}x{n}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(reference::matmul(a, b))),
        );
    }
    group.finish();
}

/// Large shapes where the packed, cache-blocked driver engages (`B` operand
/// overflows the L1-resident tile): a square 512³ and a tall-skinny
/// 4096×64×256, each against the frozen PR 2 register-tiled kernel so the
/// packing/SIMD win stays visible.
fn bench_matmul_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_large");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(5);
    for &(m, k, n) in &[(512usize, 512usize, 512usize), (4096, 64, 256)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("packed", format!("{m}x{k}x{n}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(a.matmul(b))),
        );
        group.bench_with_input(
            BenchmarkId::new("pr2_tiled", format!("{m}x{k}x{n}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(reference::tiled_matmul(a, b))),
        );
    }
    group.finish();
}

fn bench_backward_products(c: &mut Criterion) {
    let mut group = c.benchmark_group("backward_products");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(2);
    let input = Matrix::randn(256, 128, 1.0, &mut rng);
    let grad = Matrix::randn(256, 64, 1.0, &mut rng);
    let weights = Matrix::randn(128, 64, 1.0, &mut rng);
    group.bench_function("at_b/direct", |b| {
        b.iter(|| black_box(input.matmul_at_b(&grad)))
    });
    group.bench_function("at_b/transpose_then_matmul", |b| {
        b.iter(|| black_box(reference::matmul(&reference::transpose(&input), &grad)))
    });
    group.bench_function("a_bt/direct", |b| {
        b.iter(|| black_box(grad.matmul_a_bt(&weights)))
    });
    group.bench_function("a_bt/transpose_then_matmul", |b| {
        b.iter(|| black_box(reference::matmul(&grad, &reference::transpose(&weights))))
    });
    group.finish();
}

fn bench_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_layer");
    group.sample_size(50);
    let mut rng = StdRng::seed_from_u64(3);
    let mut layer = LinearLayer::new(128, 64, Activation::Relu, &mut rng);
    let x = Matrix::randn(256, 128, 1.0, &mut rng);
    group.bench_function("forward", |b| b.iter(|| black_box(layer.forward(&x))));
    let out = layer.forward(&x);
    // Each training forward pass feeds one backward pass, so the pair is
    // timed together.
    group.bench_function("forward_backward", |b| {
        b.iter(|| {
            layer.forward(&x);
            black_box(layer.backward(&out))
        })
    });
    group.bench_function("infer", |b| b.iter(|| black_box(layer.infer(&x))));
    group.finish();
}

/// Mixed-type training table shared by the epoch benches.
fn bench_table(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = ["BNL", "CERN", "SLAC", "IN2P3", "KIT", "TRIUMF"];
    let mut cpu = Vec::with_capacity(n);
    let mut ram = Vec::with_capacity(n);
    let mut walltime = Vec::with_capacity(n);
    let mut site = Vec::with_capacity(n);
    for _ in 0..n {
        cpu.push(rng.gen_range(1.0..64.0));
        ram.push(rng.gen_range(0.5..16.0));
        walltime.push(rng.gen_range(60.0..86_400.0));
        site.push(sites[rng.gen_range(0..sites.len())]);
    }
    let mut t = Table::new();
    t.push_column("cpu", Column::Numerical(cpu)).unwrap();
    t.push_column("ram", Column::Numerical(ram)).unwrap();
    t.push_column("walltime", Column::Numerical(walltime))
        .unwrap();
    t.push_column("site", Column::from_labels(&site)).unwrap();
    t
}

fn bench_model_epochs(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_epochs");
    group.sample_size(3);
    let train = bench_table(1024, 7);

    group.bench_function("tabddpm_fast_3ep", |b| {
        b.iter(|| {
            let mut model = TabDdpm::new(TabDdpmConfig {
                epochs: 3,
                ..TabDdpmConfig::fast()
            });
            model.fit(&train).unwrap();
            black_box(model.loss_history.len())
        })
    });
    group.bench_function("ctabgan_fast_3ep", |b| {
        b.iter(|| {
            let mut model = CtabGan::new(CtabGanConfig {
                epochs: 3,
                ..CtabGanConfig::fast()
            });
            model.fit(&train).unwrap();
            black_box(model.loss_history.len())
        })
    });
    group.bench_function("tvae_fast_3ep", |b| {
        b.iter(|| {
            let mut model = Tvae::new(TvaeConfig {
                epochs: 3,
                ..TvaeConfig::fast()
            });
            model.fit(&train).unwrap();
            black_box(model.loss_history.len())
        })
    });
    group.finish();
}

criterion_group!(
    nn_kernels,
    bench_matmul,
    bench_matmul_large,
    bench_backward_products,
    bench_layer,
    bench_model_epochs
);
criterion_main!(nn_kernels);
