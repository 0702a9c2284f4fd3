//! Criterion bench: the calendar event queue vs the binary heap it is
//! pinned against, on the hold model ([`bench::hold_model`], which
//! `perf_report` drives for its gated `htcsim_throughput_queue_<N>` entry),
//! plus full arena simulation runs under both schedulers. The full-run
//! comparison is timed only here: its margin is too thin for a gate.

use bench::hold_model;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htcsim::{CalendarQueue, GridSimulator, HeapQueue, JobArena, SimConfig};
use pandasim::SiteCatalog;

fn bench_queues(c: &mut Criterion) {
    let (n, transitions) = (50_000, 500_000);
    let mut group = c.benchmark_group("htcsim_event_queue");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("calendar", transitions),
        &transitions,
        |b, &t| b.iter(|| hold_model::<CalendarQueue>(n, t)),
    );
    group.bench_with_input(
        BenchmarkId::new("heap", transitions),
        &transitions,
        |b, &t| b.iter(|| hold_model::<HeapQueue>(n, t)),
    );
    group.finish();
}

/// Synthetic planetary-scale workload pushed straight into the arena (no
/// string tables in the loop).
fn synthetic_arena(n_jobs: usize, n_sites: usize) -> (SiteCatalog, JobArena) {
    let catalog = SiteCatalog::atlas_like(n_sites);
    let site_names: Vec<String> = catalog.sites().iter().map(|s| s.name.clone()).collect();
    let mut arena = JobArena::with_capacity(n_jobs);
    let mut state = 0x2545f4914f6cdd1du64;
    for i in 0..n_jobs {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        let dataset = format!("ds{}", state % 512);
        let origin = &site_names[(state % site_names.len() as u64) as usize];
        arena.push(
            unit * (n_jobs as f64 / 150.0),
            if i % 7 == 0 { 8 } else { 4 },
            0.5 + unit * 6.0,
            &dataset,
            (state % 1_000) as f64 * 1e9,
            Some(origin),
        );
    }
    (catalog, arena)
}

fn bench_sim(c: &mut Criterion) {
    let (catalog, arena) = synthetic_arena(50_000, 40);
    let mut group = c.benchmark_group("htcsim_sim_run");
    group.sample_size(10);
    group.bench_function("calendar", |b| {
        b.iter(|| {
            let mut simulator = GridSimulator::new(&catalog, SimConfig::default());
            simulator.run_arena_with::<CalendarQueue>(&arena)
        })
    });
    group.bench_function("heap", |b| {
        b.iter(|| {
            let mut simulator = GridSimulator::new(&catalog, SimConfig::default());
            simulator.run_arena_with::<HeapQueue>(&arena)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_queues, bench_sim);
criterion_main!(benches);
