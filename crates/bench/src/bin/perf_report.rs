//! Time the live `nn` kernels, training epochs, metrics, simulator and
//! micro-batched serving, and emit `BENCH_nn.json` so the performance
//! trajectory is recorded across changes. It is the workspace's one timing
//! harness.
//!
//! Every entry of `kernels` is a ratio of live code over a baseline that is
//! itself either a live alternative path of the program or a test oracle:
//!
//! * **Kernel benches** — the SIMD-dispatched kernels (`matmul`,
//!   `matmul_at_b`, `matmul_a_bt`, `matmul_bias`, blocked `transpose`)
//!   against [`nn::matrix::reference`], the scalar kernels every SIMD tier
//!   is tested against (`baseline_kind: "seed_reference"`). Three of them
//!   run TabDDPM's paper-width training shapes (batch 256, hidden 256, a
//!   79-column table), where all three products take the packed driver:
//!   `matmul_256x256x79` (output layer forward), `at_b_256x256_x_256x79`
//!   (its weight gradient) and `a_bt_256x79_x_256x79` (its input
//!   gradient).
//! * **Large-shape kernel benches** — the packed, cache-blocked driver on
//!   shapes whose `B` operand overflows L1 (512³ and a tall-skinny
//!   4096×64×256) against [`reference::tiled_matmul`], the register-tiled
//!   kernel the packed driver is tested against (`baseline_kind:
//!   "pr2_tiled"`).
//! * **Throughput-ladder benches** — `matmul_packed_<shape>_t<N>`: the
//!   packed driver fanned over the rayon pool vs the same packed path run
//!   sequentially in the same process (`baseline_kind: "seq_own_dtype"`), so
//!   `--check` always compares like-for-like. Emitted only when the pool
//!   has more than one executor; exempt from the `--check` gate on
//!   single-core hosts, where a parallel fan-out cannot win.
//! * **Simulator queue bench** — `htcsim_throughput_queue_<N>`: the
//!   calendar event queue vs the `HeapQueue` it is pinned against
//!   (`baseline_kind: "binary_heap"`), driven by [`hold_model`].
//! * **Serving bench** — `serve_batching_64x4`: sixty-four 4-row sample
//!   requests answered by one coalesced `sample_batch` pass (the serve
//!   loop's micro-batch scheduler) vs sixty-four sequential `sample` calls
//!   on the same fitted TVAE (`baseline_kind: "unbatched_sample_calls"`).
//! * **Normal-generator bench** — `normal_fill_19424x51`: `nn`'s ziggurat
//!   [`nn::standard_normal_fill`] over the noise block of simloop's TabDDPM
//!   sample vs the `rand_distr` shim's per-element Box–Muller `Normal`, which
//!   `pandasim` still draws with (`baseline_kind: "box_muller"`).
//!
//! Every kernel entry carries a `threads` field, and a ladder entry's
//! *name* encodes it (the `_tN` suffix), so a regenerated report never
//! gates a new tier against an old baseline kind — the name↔kind
//! conventions (this suffix, and the `normal_fill_` prefix for the
//! `box_muller` baseline) are validated on read-back.
//!
//! Every entry of `timings` is a `{name, rows, ms}` record with no baseline
//! and no gate (schema v7): the milliseconds are compared across
//! regenerated reports.
//!
//! * **Epoch timings** — one training epoch of each neural model's `fit`:
//!   `tabddpm_epoch`, `ctabgan_epoch` and `tvae_epoch` at the fast (smoke)
//!   configs, whose products all stay on the direct kernels, and
//!   `tabddpm_paper_epoch`, `ctabgan_paper_epoch` and `tvae_paper_epoch` at
//!   the `Default` (standard-budget) widths and batch sizes, whose
//!   hidden-layer products take the packed driver.
//! * **Metric timings** — `paper_mlef`, one paper-config
//!   [`metrics::mlef_mse`]`(train, test)`, and `smote_fit`, one
//!   [`SmoteSampler`] fit, on the split [`prepare_data_from_config`] builds
//!   from 12,000 gross records; `rows` is the training split's size.
//! * **Simulator timings** — `htcsim_sim_run_<queue>_<slot fraction>`: one
//!   [`GridSimulator::run_arena_with`] per event queue (`calendar`, `heap`)
//!   on a 50,000-job synthetic arena, at slot fraction 0.02 (every job
//!   starts on arrival) and 0.001 (a backlog parks).
//!
//! After writing the report the binary reads it back through
//! `serde_json::from_str` and validates the schema, so CI's smoke invocation
//! proves both halves (writer and parser) work. With `--check`, any kernel
//! entry whose measured speedup over its baseline drops below 1.0 fails the
//! run (the CI regression guard).
//!
//! `perf_report --help` lists the flags (the default output is
//! `BENCH_nn.json`). `--threads N` sets `RAYON_NUM_THREADS` before the pool
//! spins up, so one flag controls the fan-out width.

use std::collections::HashSet;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

use bench::cli::{Args, Command};
use htcsim::{
    CalendarQueue, EventKind, EventScheduler, GridSimulator, HeapQueue, JobArena, SimConfig,
    SimReport,
};
use metrics::{mlef_mse, MlefConfig};
use nn::matrix::reference;
use nn::Matrix;
use pandasim::{GeneratorConfig, SiteCatalog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use surrogate::{
    prepare_data_from_config, CtabGan, CtabGanConfig, SampleSpec, SmoteConfig, SmoteSampler,
    TabDdpm, TabDdpmConfig, TabularGenerator, Tvae, TvaeConfig,
};
use tabular::{Column, Table};

#[derive(Debug, Serialize, Deserialize)]
struct KernelBench {
    name: String,
    baseline_kind: String,
    /// Pool executors available to the *new* measurement. Entries whose
    /// name carries a `_tN` suffix are explicitly parallel fan-outs;
    /// forced-sequential measurements record 1; unsuffixed dispatched
    /// entries record the pool width they could opportunistically use.
    threads: usize,
    new_ns: f64,
    baseline_ns: f64,
    speedup: f64,
}

/// Milliseconds of one run of a program path over `rows` input rows; no
/// baseline and no gate.
#[derive(Debug, Serialize, Deserialize)]
struct Timing {
    name: String,
    rows: usize,
    ms: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema_version: u32,
    generated_by: String,
    quick: bool,
    threads: usize,
    /// `available_parallelism()` of the generating host — `--check` uses it
    /// to exempt multi-thread entries that cannot win on a 1-core runner.
    host_cores: usize,
    simd_tier: String,
    kernels: Vec<KernelBench>,
    timings: Vec<Timing>,
}

const CLI: Command = Command {
    name: "perf_report",
    about: "time kernels, epochs, metrics, the simulator and batched serving into BENCH_nn.json",
    flags: "
flags:
  --quick                small shapes and few repetitions (the CI smoke)
  --check                exit 1 if a gated kernel entry is slower than its baseline
  --out PATH             report path (default BENCH_nn.json)
  --threads N            pool executors, N >= 1 (sets RAYON_NUM_THREADS)
",
    operands: false,
};

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Options {
    quick: bool,
    check: bool,
    out: String,
    threads: Option<usize>,
}

fn options(args: &Args) -> Result<Options, String> {
    Ok(Options {
        quick: args.switch("--quick"),
        check: args.switch("--check"),
        out: args.text("--out").unwrap_or("BENCH_nn.json").to_string(),
        threads: args.value("--threads")?.map(NonZeroUsize::get),
    })
}

/// Best-of-`reps` wall time of `inner` consecutive runs of `f`, in
/// nanoseconds per run. One untimed warm-up precedes the samples.
fn time_ns(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / inner as f64);
    }
    best
}

fn kernel_entry(name: &str, baseline_kind: &str, new_ns: f64, baseline_ns: f64) -> KernelBench {
    kernel_entry_tiered(
        name,
        baseline_kind,
        rayon::current_num_threads(),
        new_ns,
        baseline_ns,
    )
}

fn kernel_entry_tiered(
    name: &str,
    baseline_kind: &str,
    threads: usize,
    new_ns: f64,
    baseline_ns: f64,
) -> KernelBench {
    KernelBench {
        name: name.to_string(),
        baseline_kind: baseline_kind.to_string(),
        threads,
        new_ns,
        baseline_ns,
        speedup: baseline_ns / new_ns.max(1e-9),
    }
}

fn kernel_benches(quick: bool) -> Vec<KernelBench> {
    // Quick mode still takes enough samples for the --check regression
    // gate (hard 1.0x threshold, per the tracked acceptance criteria) to
    // sit clear of shared-runner timing noise: best-of-5 over 4-run
    // batches. The slimmest margin is the blocked transpose (unchanged
    // since PR 2), which has measured as low as ~1.17x across full runs —
    // if that entry ever flakes below 1.0 on a noisy runner, widen its
    // sampling here rather than loosening the gate.
    let (reps, inner) = if quick { (5, 4) } else { (7, 8) };
    let mut rng = StdRng::seed_from_u64(42);
    let mut entries = Vec::new();

    for &(m, k, n) in &[(64usize, 64usize, 64usize), (128, 128, 128), (97, 61, 113)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let new_ns = time_ns(reps, inner, || {
            std::hint::black_box(a.matmul(&b));
        });
        let base_ns = time_ns(reps, inner, || {
            std::hint::black_box(reference::matmul(&a, &b));
        });
        entries.push(kernel_entry(
            &format!("matmul_{m}x{k}x{n}"),
            "seed_reference",
            new_ns,
            base_ns,
        ));
    }

    // Large shapes where the packed, cache-blocked driver engages. Fewer
    // inner iterations: a single 512³ product runs for tens of milliseconds
    // on the frozen baseline.
    let (lreps, linner) = if quick { (3, 1) } else { (5, 2) };
    for &(m, k, n) in &[(512usize, 512usize, 512usize), (4096, 64, 256)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let new_ns = time_ns(lreps, linner, || {
            std::hint::black_box(a.matmul(&b));
        });
        let base_ns = time_ns(lreps, linner, || {
            std::hint::black_box(reference::tiled_matmul(&a, &b));
        });
        entries.push(kernel_entry(
            &format!("matmul_packed_{m}x{k}x{n}"),
            "pr2_tiled",
            new_ns,
            base_ns,
        ));
    }

    let a = Matrix::randn(512, 384, 1.0, &mut rng);
    let new_ns = time_ns(reps, inner, || {
        std::hint::black_box(a.transpose());
    });
    let base_ns = time_ns(reps, inner, || {
        std::hint::black_box(reference::transpose(&a));
    });
    entries.push(kernel_entry(
        "transpose_512x384",
        "seed_reference",
        new_ns,
        base_ns,
    ));

    let input = Matrix::randn(256, 128, 1.0, &mut rng);
    let grad = Matrix::randn(256, 64, 1.0, &mut rng);
    let weights = Matrix::randn(128, 64, 1.0, &mut rng);
    let new_ns = time_ns(reps, inner, || {
        std::hint::black_box(input.matmul_at_b(&grad));
    });
    let base_ns = time_ns(reps, inner, || {
        std::hint::black_box(reference::matmul(&reference::transpose(&input), &grad));
    });
    entries.push(kernel_entry(
        "at_b_256x128_x_256x64",
        "seed_reference",
        new_ns,
        base_ns,
    ));

    let new_ns = time_ns(reps, inner, || {
        std::hint::black_box(grad.matmul_a_bt(&weights));
    });
    let base_ns = time_ns(reps, inner, || {
        std::hint::black_box(reference::matmul(&grad, &reference::transpose(&weights)));
    });
    entries.push(kernel_entry(
        "a_bt_256x64_x_128x64",
        "seed_reference",
        new_ns,
        base_ns,
    ));

    let bias: Vec<f64> = (0..64).map(|i| i as f64 * 0.01).collect();
    let new_ns = time_ns(reps, inner, || {
        std::hint::black_box(input.matmul_bias(&weights, &bias));
    });
    let base_ns = time_ns(reps, inner, || {
        std::hint::black_box(reference::matmul(&input, &weights).add_row_vector(&bias));
    });
    entries.push(kernel_entry(
        "fused_affine_256x128x64",
        "seed_reference",
        new_ns,
        base_ns,
    ));

    // TabDDPM's paper-width output layer: a 256-row batch, 256 hidden
    // units, a 79-column table. The forward product, the weight gradient
    // and the input gradient all take the packed driver, and the 79
    // columns leave a partial tile at every lane width.
    let (preps, pinner) = if quick { (3, 2) } else { (7, 4) };
    let hidden = Matrix::randn(256, 256, 1.0, &mut rng);
    let grad = Matrix::randn(256, 79, 1.0, &mut rng);
    let weights = Matrix::randn(256, 79, 1.0, &mut rng);
    let new_ns = time_ns(preps, pinner, || {
        std::hint::black_box(hidden.matmul(&weights));
    });
    let base_ns = time_ns(preps, pinner, || {
        std::hint::black_box(reference::matmul(&hidden, &weights));
    });
    entries.push(kernel_entry(
        "matmul_256x256x79",
        "seed_reference",
        new_ns,
        base_ns,
    ));
    let new_ns = time_ns(preps, pinner, || {
        std::hint::black_box(hidden.matmul_at_b(&grad));
    });
    let base_ns = time_ns(preps, pinner, || {
        std::hint::black_box(reference::matmul(&reference::transpose(&hidden), &grad));
    });
    entries.push(kernel_entry(
        "at_b_256x256_x_256x79",
        "seed_reference",
        new_ns,
        base_ns,
    ));
    let new_ns = time_ns(preps, pinner, || {
        std::hint::black_box(grad.matmul_a_bt(&weights));
    });
    let base_ns = time_ns(preps, pinner, || {
        std::hint::black_box(reference::matmul(&grad, &reference::transpose(&weights)));
    });
    entries.push(kernel_entry(
        "a_bt_256x79_x_256x79",
        "seed_reference",
        new_ns,
        base_ns,
    ));

    entries
}

/// The throughput-ladder rungs: the packed driver fanned over the pool,
/// gated against the identical packed path forced sequential in this very
/// process. A one-executor pool has no fan-out to time, so it emits none.
fn ladder_benches(quick: bool) -> Vec<KernelBench> {
    let threads = rayon::current_num_threads();
    if threads == 1 {
        return Vec::new();
    }
    let (reps, inner) = if quick { (3, 1) } else { (5, 2) };
    let mut rng = StdRng::seed_from_u64(77);
    let mut entries = Vec::new();
    for &(m, k, n) in &[(512usize, 512usize, 512usize), (4096, 64, 256)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let seq_ns = time_ns(reps, inner, || {
            std::hint::black_box(a.matmul_packed_with(&b, false));
        });
        let par_ns = time_ns(reps, inner, || {
            std::hint::black_box(a.matmul_packed_with(&b, true));
        });
        entries.push(kernel_entry_tiered(
            &format!("matmul_packed_{m}x{k}x{n}_t{threads}"),
            "seq_own_dtype",
            threads,
            par_ns,
            seq_ns,
        ));
    }
    entries
}

/// The training table the epoch benches fit: a PanDA-like mix of numerical
/// and categorical columns.
fn epoch_table(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = ["BNL", "CERN", "SLAC", "IN2P3", "KIT", "TRIUMF"];
    let queues = ["analysis", "production", "test", "merge"];
    let mut cpu = Vec::with_capacity(n);
    let mut ram = Vec::with_capacity(n);
    let mut walltime = Vec::with_capacity(n);
    let mut disk = Vec::with_capacity(n);
    let mut site = Vec::with_capacity(n);
    let mut queue = Vec::with_capacity(n);
    for _ in 0..n {
        cpu.push(rng.gen_range(1.0..64.0));
        ram.push(rng.gen_range(0.5..16.0));
        walltime.push(rng.gen_range(60.0..86_400.0));
        disk.push(rng.gen_range(0.1..500.0));
        site.push(sites[rng.gen_range(0..sites.len())]);
        queue.push(queues[rng.gen_range(0..queues.len())]);
    }
    let mut t = Table::new();
    t.push_column("cpu", Column::Numerical(cpu)).unwrap();
    t.push_column("ram", Column::Numerical(ram)).unwrap();
    t.push_column("walltime", Column::Numerical(walltime))
        .unwrap();
    t.push_column("disk", Column::Numerical(disk)).unwrap();
    t.push_column("site", Column::from_labels(&site)).unwrap();
    t.push_column("queue", Column::from_labels(&queue)).unwrap();
    t
}

/// Per-epoch milliseconds of the current hot path, measured by differencing
/// two full fits with different epoch counts (cancelling fixed per-fit
/// costs: codec fit/encode, weight init). `timed_fit(epochs, reps)` returns
/// best-of-`reps` whole-fit seconds. A noisy host can invert the two
/// measurements; retry with more repetitions, then fall back to the
/// whole-fit upper bound rather than record a nonsense differenced value.
fn differenced_epoch_ms(
    label: &str,
    reps: usize,
    e1: usize,
    e2: usize,
    mut timed_fit: impl FnMut(usize, usize) -> f64,
) -> f64 {
    timed_fit(1, 1); // warm-up (pool spin-up, page faults)
    for attempt in 0..3 {
        let r = reps + attempt;
        let t1 = timed_fit(e1, r);
        let t2 = timed_fit(e2, r);
        if t2 > t1 {
            return ((t2 - t1) * 1e3) / (e2 - e1) as f64;
        }
        eprintln!("perf_report: noisy {label} timing (t1 {t1:.4}s >= t2 {t2:.4}s), retrying");
    }
    eprintln!("perf_report: {label} differencing failed; using whole-fit upper bound");
    timed_fit(e2, reps) * 1e3 / e2 as f64
}

/// One training epoch of a neural model: `model(epochs)` builds the
/// unfitted model, and [`differenced_epoch_ms`] times its `fit` on the
/// 512-row (quick) or 2048-row epoch table.
fn epoch_timing<M: TabularGenerator>(
    name: &str,
    quick: bool,
    model: impl Fn(usize) -> M,
) -> Timing {
    let rows = if quick { 512 } else { 2048 };
    let (e1, e2, reps) = if quick { (1, 3, 1) } else { (2, 10, 2) };
    let train = epoch_table(rows, 99);
    let ms = differenced_epoch_ms(name, reps, e1, e2, |epochs, reps| {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let mut fitted = model(epochs);
            let start = Instant::now();
            fitted
                .fit(&train)
                .unwrap_or_else(|e| panic!("{name} fit: {e}"));
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    });
    Timing {
        name: name.to_string(),
        rows,
        ms,
    }
}

/// Best-of-`reps` milliseconds of one run of `f`, after one untimed warm-up.
fn timing(name: &str, rows: usize, reps: usize, f: impl FnMut()) -> Timing {
    Timing {
        name: name.to_string(),
        rows,
        ms: time_ns(reps, 1, f) / 1e6,
    }
}

/// `paper_mlef` and `smote_fit`: one paper-config MLEF(train → test) and one
/// SMOTE fit on the split [`prepare_data_from_config`] builds from 12,000
/// gross records (e2ebench's `table1_smoke` input).
fn metric_timings(reps: usize) -> [Timing; 2] {
    let data = prepare_data_from_config(&GeneratorConfig {
        gross_records: 12_000,
        ..GeneratorConfig::default()
    });
    let (train, test) = (&data.train, &data.test);
    let mlef = MlefConfig::default();
    [
        timing("paper_mlef", train.n_rows(), reps, || {
            black_box(mlef_mse(train, test, &mlef));
        }),
        timing("smote_fit", train.n_rows(), reps, || {
            let mut smote = SmoteSampler::new(SmoteConfig::default());
            smote.fit(train).expect("smote fits");
            black_box(smote);
        }),
    ]
}

/// `n_jobs` synthetic jobs from a fixed LCG over 40 atlas-like sites,
/// arriving at ~150 jobs/hour (the workload `tests/queue_oracle.rs` pins),
/// pushed straight into the arena.
fn synthetic_arena(n_jobs: usize) -> (SiteCatalog, JobArena) {
    let catalog = SiteCatalog::atlas_like(40);
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

fn sim_run<Q: EventScheduler>(
    catalog: &SiteCatalog,
    config: &SimConfig,
    arena: &JobArena,
) -> SimReport {
    GridSimulator::new(catalog, config.clone()).run_arena_with::<Q>(arena)
}

/// `htcsim_sim_run_<queue>_<slot fraction>`: one simulation of a 50,000-job
/// arena per event queue. At slot fraction 0.02 the sites absorb every job
/// on arrival, so the run times the event queue and the broker; at 0.001 a
/// backlog parks, so it also times how finishes hand freed slots to parked
/// jobs. The calendar-over-heap margin here is too thin for a gate; the
/// hold-model entry gates the queues instead.
fn sim_run_timings(reps: usize) -> Vec<Timing> {
    type Run = fn(&SiteCatalog, &SimConfig, &JobArena) -> SimReport;
    let (catalog, arena) = synthetic_arena(50_000);
    let queues: [(&str, Run); 2] = [
        ("calendar", sim_run::<CalendarQueue>),
        ("heap", sim_run::<HeapQueue>),
    ];
    let mut timings = Vec::new();
    for slot_fraction in [0.02, 0.001] {
        let config = SimConfig {
            slot_fraction,
            ..SimConfig::default()
        };
        for (queue, run) in queues {
            let name = format!("htcsim_sim_run_{queue}_{slot_fraction}");
            timings.push(timing(&name, arena.len(), reps, || {
                black_box(run(&catalog, &config, &arena));
            }));
        }
    }
    timings
}

// ---------------------------------------------------------------------------
// Report emission, validation and the CI regression guard.
// ---------------------------------------------------------------------------

/// The explicit thread-count suffix of a ladder entry name (`_t4`), if
/// present.
fn name_thread_suffix(name: &str) -> Option<usize> {
    let idx = name.rfind("_t")?;
    name[idx + 2..].parse().ok()
}

/// Enforce the name↔field conventions that keep `--check` like-for-like:
/// a `_tN` suffix if and only if the entry is gated against its own
/// sequential tier (`seq_own_dtype`), with `N` equal to the recorded thread
/// count. A regenerated report can therefore never compare a new tier's
/// timing against a baseline of a different kind under the same name.
fn check_name_conventions(entry: &KernelBench) -> Result<(), String> {
    if entry.name.starts_with("normal_fill_") != (entry.baseline_kind == "box_muller") {
        return Err(format!(
            "kernel '{}': the normal_fill_ entries, and only they, gate against \
             box_muller, got baseline_kind '{}'",
            entry.name, entry.baseline_kind
        ));
    }
    match name_thread_suffix(&entry.name) {
        Some(t) => {
            if entry.baseline_kind != "seq_own_dtype" {
                return Err(format!(
                    "kernel '{}': _t{t} entries must gate against their own \
                     sequential tier, got baseline_kind '{}'",
                    entry.name, entry.baseline_kind
                ));
            }
            if t != entry.threads {
                return Err(format!(
                    "kernel '{}': name says {t} threads, field says {}",
                    entry.name, entry.threads
                ));
            }
        }
        None => {
            if entry.baseline_kind == "seq_own_dtype" {
                return Err(format!(
                    "kernel '{}': seq_own_dtype entries must carry a _tN suffix",
                    entry.name
                ));
            }
        }
    }
    Ok(())
}

/// Parse an emitted report back through the typed `Deserialize` path (no
/// `Value` accessor chains) and check its invariants: a malformed or
/// field-stripped document fails at the parse, and a structurally valid one
/// must carry positive finite timings throughout.
fn validate_text(text: &str) -> Result<Report, String> {
    let report: Report = serde_json::from_str(text).map_err(|e| format!("parse: {e}"))?;
    if report.kernels.is_empty() {
        return Err("'kernels' array is empty".to_string());
    }
    if report.host_cores == 0 {
        return Err("'host_cores' must be positive".to_string());
    }
    for entry in &report.kernels {
        if entry.name.is_empty() || entry.baseline_kind.is_empty() {
            return Err("kernel entry with an empty name or baseline_kind".to_string());
        }
        if entry.threads == 0 {
            return Err(format!("kernel '{}' has zero threads", entry.name));
        }
        check_name_conventions(entry)?;
        for (field, v) in [
            ("new_ns", entry.new_ns),
            ("baseline_ns", entry.baseline_ns),
            ("speedup", entry.speedup),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "kernel '{}' field '{field}' is not a positive number",
                    entry.name
                ));
            }
        }
    }
    if report.timings.is_empty() {
        return Err("'timings' array is empty".to_string());
    }
    let mut names = HashSet::new();
    for entry in &report.timings {
        if entry.name.is_empty() {
            return Err("timing entry with an empty name".to_string());
        }
        if !names.insert(entry.name.as_str()) {
            return Err(format!("timing '{}' appears twice", entry.name));
        }
        if !entry.ms.is_finite() || entry.ms <= 0.0 {
            return Err(format!(
                "timing '{}' field 'ms' is not a positive number",
                entry.name
            ));
        }
    }
    if report.simd_tier.is_empty() {
        return Err("empty 'simd_tier'".to_string());
    }
    Ok(report)
}

/// Re-read the emitted report and validate the schema, proving the JSON both
/// renders and parses typed (the CI smoke test relies on this).
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    validate_text(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(())
}

/// Regression guard: every kernel entry must still beat its baseline.
/// Returns the offending entries (empty = pass). Works off the in-memory
/// measurements — the file round-trip is already proven by [`validate`].
///
/// Exemption: `_tN` entries gate a parallel fan-out against its own
/// sequential tier, which cannot win on a single-core host — the workers
/// time-slice one core and only add coordination overhead. Those entries
/// are still *recorded* (the committed artifact keeps the honest number)
/// but are skipped by the gate when `host_cores == 1`.
fn kernel_regressions(kernels: &[KernelBench], host_cores: usize) -> Vec<String> {
    kernels
        .iter()
        .filter(|k| k.speedup < 1.0)
        .filter(|k| !(host_cores == 1 && k.threads > 1 && k.baseline_kind == "seq_own_dtype"))
        .map(|k| format!("{} ({:.3}x)", k.name, k.speedup))
        .collect()
}

/// The classic "hold" benchmark for discrete-event priority queues: prime
/// the queue with `held` events, then run `transitions` pop→push steps where
/// each push lands at the popped time plus a service increment — a
/// discrete-event steady state, in which (like the simulator) nothing is
/// ever scheduled behind the clock. Increments mix WAN-latency transfer
/// completions, job runtimes and far-future stragglers. Returns the last
/// popped time.
fn hold_model<Q: EventScheduler>(held: usize, transitions: usize) -> f64 {
    let mut queue = Q::default();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64, state)
    };
    for i in 0..held {
        let (unit, _) = next();
        queue.push(unit * 168.0, EventKind::JobArrival { job: i as u32 });
    }
    let mut last = 0.0;
    for i in 0..transitions {
        let event = queue.pop().expect("primed queue never drains");
        last = event.time;
        let (unit, s) = next();
        let delta = match s % 8 {
            0 => unit * 0.1,      // transfer completions
            1..=5 => unit * 12.0, // job runtimes
            _ => unit * 400.0,    // stragglers / future arrivals
        };
        queue.push(
            event.time + delta,
            EventKind::JobFinish {
                job: i as u32,
                site: 0,
            },
        );
    }
    last
}

/// `htcsim_throughput_queue_<N>`: N transitions of [`hold_model`] through
/// the calendar queue vs the `HeapQueue` it is pinned against
/// (`baseline_kind: "binary_heap"`). Deep queues are where the calendar's
/// flat cost structurally beats the heap's `O(log n)` (the margin at
/// shallow sizes is noise-level), so the queue holds hundreds of thousands
/// of in-flight events. A single-threaded entry, gated at 1.0x like every
/// unsuffixed entry.
fn htcsim_queue_bench(quick: bool) -> KernelBench {
    let (n_held, transitions) = if quick {
        (200_000, 400_000)
    } else {
        (500_000, 1_000_000)
    };
    let (reps, inner) = if quick { (5, 1) } else { (7, 2) };
    let new_ns = time_ns(reps, inner, || {
        std::hint::black_box(hold_model::<CalendarQueue>(n_held, transitions));
    });
    let base_ns = time_ns(reps, inner, || {
        std::hint::black_box(hold_model::<HeapQueue>(n_held, transitions));
    });
    kernel_entry_tiered(
        &format!("htcsim_throughput_queue_{transitions}"),
        "binary_heap",
        1,
        new_ns,
        base_ns,
    )
}

/// Micro-batched serving throughput: 64 independent 4-row sample requests
/// answered by one coalesced `sample_batch` pass over their 256 stacked
/// rows (what the serve loop's batch scheduler issues) against the same 64
/// requests answered by sequential `sample` calls, each a batch of one (the
/// unbatched serve loop). Both run the model's one sampling loop, so the
/// entry measures coalescing alone. The paper-default TVAE decoder
/// (latent 16 → 128 → 128 → table width) is wide enough that the coalesced
/// pass crosses the packed-kernel shape split, while each 4-row unbatched
/// call stays on the direct row kernels — the kernel-tier jump that
/// micro-batching exists to buy under many small concurrent requests —
/// while staying byte-identical (pinned by the core and e2e test suites).
/// The entry has no `_tN` suffix, so `--check` gates it unconditionally.
fn serve_batching_bench(quick: bool) -> KernelBench {
    let table = epoch_table(256, 2024);
    let mut model = Tvae::new(TvaeConfig {
        epochs: 4,
        seed: 2024,
        ..TvaeConfig::default()
    });
    model.fit(&table).expect("tvae fits");
    let specs: Vec<SampleSpec> = (0..64)
        .map(|i| SampleSpec::new(4, 100 + i as u64))
        .collect();
    let (reps, inner) = if quick { (5, 2) } else { (7, 4) };
    let new_ns = time_ns(reps, inner, || {
        std::hint::black_box(model.sample_batch(&specs).expect("batched sampling"));
    });
    let base_ns = time_ns(reps, inner, || {
        for spec in &specs {
            std::hint::black_box(
                model
                    .sample(spec.rows, spec.seed)
                    .expect("unbatched sampling"),
            );
        }
    });
    kernel_entry_tiered(
        "serve_batching_64x4",
        "unbatched_sample_calls",
        1,
        new_ns,
        base_ns,
    )
}

/// `normal_fill_19424x51`: one [`nn::standard_normal_fill`] over the
/// standard-normal block a simloop TabDDPM sampling step draws (19,424 rows
/// × 51 encoded columns) against the same element count drawn one by one
/// through the `rand_distr` shim's `Normal`, the per-element Box–Muller
/// (two uniforms, `ln`, `sqrt` and `cos` per draw) that `nn` used before
/// its ziggurat and `pandasim` still uses (`baseline_kind: "box_muller"`).
/// A single-threaded entry, gated at 1.0x like every unsuffixed entry.
fn normal_fill_bench(quick: bool) -> KernelBench {
    use rand_distr::{Distribution, Normal};

    const ROWS: usize = 19_424;
    const COLS: usize = 51;
    let (reps, inner) = if quick { (3, 1) } else { (7, 2) };
    let mut rng = StdRng::seed_from_u64(2024);
    let mut buf = vec![0.0; ROWS * COLS];
    let new_ns = time_ns(reps, inner, || {
        nn::standard_normal_fill(&mut rng, &mut buf);
        std::hint::black_box(&buf);
    });
    let normal = Normal::new(0.0, 1.0).expect("unit normal is valid");
    let base_ns = time_ns(reps, inner, || {
        for v in buf.iter_mut() {
            *v = normal.sample(&mut rng);
        }
        std::hint::black_box(&buf);
    });
    kernel_entry_tiered(
        &format!("normal_fill_{ROWS}x{COLS}"),
        "box_muller",
        1,
        new_ns,
        base_ns,
    )
}

fn main() {
    let opts = CLI.check(options(&CLI.parse()));
    // Must happen before the first parallel call: the rayon shim sizes its
    // pool from this variable once, lazily.
    if let Some(t) = opts.threads {
        std::env::set_var("RAYON_NUM_THREADS", t.to_string());
    }
    let quick = opts.quick;
    let check = opts.check;
    let out_path = opts.out.clone();

    eprintln!(
        "perf_report: timing kernels ({} mode, {} tier, {} pool executors)...",
        if quick { "quick" } else { "full" },
        nn::active_tier().name(),
        rayon::current_num_threads(),
    );
    let mut kernels = kernel_benches(quick);
    kernels.extend(ladder_benches(quick));
    eprintln!("perf_report: timing htcsim calendar queue vs binary heap...");
    kernels.push(htcsim_queue_bench(quick));
    eprintln!("perf_report: timing micro-batched serving (64 x 4-row TVAE sample requests)...");
    kernels.push(serve_batching_bench(quick));
    eprintln!("perf_report: timing the normal generator vs Box-Muller (19,424 x 51 draws)...");
    kernels.push(normal_fill_bench(quick));
    for k in &kernels {
        eprintln!(
            "  {:<36} new {:>12.0} ns   {:<16} {:>12.0} ns   speedup {:.2}x  [t{}]",
            k.name, k.new_ns, k.baseline_kind, k.baseline_ns, k.speedup, k.threads
        );
    }

    eprintln!("perf_report: timing fast-config and paper-default training epochs...");
    let tabddpm = |base: TabDdpmConfig| {
        move |epochs| {
            TabDdpm::new(TabDdpmConfig {
                epochs,
                ..base.clone()
            })
        }
    };
    let ctabgan = |base: CtabGanConfig| {
        move |epochs| {
            CtabGan::new(CtabGanConfig {
                epochs,
                ..base.clone()
            })
        }
    };
    let tvae = |base: TvaeConfig| {
        move |epochs| {
            Tvae::new(TvaeConfig {
                epochs,
                ..base.clone()
            })
        }
    };
    let mut timings = vec![
        epoch_timing("tabddpm_epoch", quick, tabddpm(TabDdpmConfig::fast())),
        epoch_timing("ctabgan_epoch", quick, ctabgan(CtabGanConfig::fast())),
        epoch_timing("tvae_epoch", quick, tvae(TvaeConfig::fast())),
        epoch_timing(
            "tabddpm_paper_epoch",
            quick,
            tabddpm(TabDdpmConfig::default()),
        ),
        epoch_timing(
            "ctabgan_paper_epoch",
            quick,
            ctabgan(CtabGanConfig::default()),
        ),
        epoch_timing("tvae_paper_epoch", quick, tvae(TvaeConfig::default())),
    ];
    let reps = if quick { 3 } else { 5 };
    eprintln!("perf_report: timing paper MLEF and SMOTE fit (12,000 gross records)...");
    timings.extend(metric_timings(reps));
    eprintln!("perf_report: timing 50,000-job simulator runs (calendar and heap queues)...");
    timings.extend(sim_run_timings(reps));
    for t in &timings {
        eprintln!("  {:<36} ({:>6} rows)  {:>9.1} ms", t.name, t.rows, t.ms);
    }
    let report = Report {
        schema_version: 7,
        generated_by: "bench::perf_report".to_string(),
        quick,
        threads: rayon::current_num_threads(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd_tier: nn::active_tier().name().to_string(),
        kernels,
        timings,
    };

    let json = serde_json::to_string_pretty(&report).expect("render report");
    CLI.write(&out_path, json + "\n");

    match validate(&out_path) {
        Ok(()) => eprintln!("perf_report: wrote and validated {out_path}"),
        Err(e) => CLI.fail(format!("emitted {out_path} failed validation: {e}")),
    }

    if check {
        let offending = kernel_regressions(&report.kernels, report.host_cores);
        if offending.is_empty() {
            eprintln!("perf_report: regression check passed (all gated kernels >= 1.0x)");
        } else {
            CLI.fail(format!(
                "REGRESSION — kernels slower than their baseline: {}",
                offending.join(", ")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report() -> Report {
        let entry = |name: &str, rows, ms| Timing {
            name: name.to_string(),
            rows,
            ms,
        };
        Report {
            schema_version: 7,
            generated_by: "bench::perf_report".to_string(),
            quick: true,
            threads: 1,
            host_cores: 4,
            simd_tier: "avx2".to_string(),
            kernels: vec![kernel_entry_tiered(
                "matmul_64x64x64",
                "seed_reference",
                1,
                100.0,
                250.0,
            )],
            timings: vec![
                entry("tvae_epoch", 512, 10.0),
                entry("paper_mlef", 5_714, 377.5),
            ],
        }
    }

    /// The validation error of `toy_report` after `edit`.
    fn rejection(edit: impl FnOnce(&mut Report)) -> String {
        let mut report = toy_report();
        edit(&mut report);
        validate_text(&serde_json::to_string(&report).unwrap()).unwrap_err()
    }

    #[test]
    fn report_round_trips_through_the_typed_parser() {
        let report = toy_report();
        let text = serde_json::to_string_pretty(&report).unwrap();
        let parsed = validate_text(&text).expect("valid report parses");
        assert_eq!(parsed.simd_tier, "avx2");
        assert_eq!(parsed.kernels.len(), 1);
        assert_eq!(parsed.kernels[0].speedup, 2.5);
        assert_eq!(parsed.timings.len(), 2);
        assert_eq!(parsed.timings[1].name, "paper_mlef");
        assert_eq!(parsed.timings[1].rows, 5_714);
        assert_eq!(parsed.timings[1].ms, 377.5);
        assert!(parsed.quick);
    }

    #[test]
    fn validate_text_rejects_malformed_documents() {
        // Not JSON at all, and structurally wrong JSON.
        assert!(validate_text("not json").is_err());
        assert!(validate_text("{}").is_err());
        assert!(validate_text("[1, 2]").is_err());

        let report = toy_report();
        // A mandatory field stripped from the document fails the typed
        // parse (this is what a schema drift looks like to CI).
        let text = serde_json::to_string(&report).unwrap();
        let stripped = text.replacen("\"simd_tier\":\"avx2\",", "", 1);
        assert_ne!(stripped, text, "field strip must change the document");
        assert!(validate_text(&stripped).is_err());
        // A field of the wrong type is named in the error.
        let retyped = text.replacen("\"simd_tier\":\"avx2\"", "\"simd_tier\":3", 1);
        let err = validate_text(&retyped).unwrap_err();
        assert!(err.contains("simd_tier"), "{err}");

        // Structural invariants past the parse: empty lists and a
        // non-positive kernel timing.
        rejection(|r| r.kernels.clear());
        rejection(|r| r.timings.clear());
        rejection(|r| r.kernels[0].speedup = 0.0);
    }

    #[test]
    fn timings_need_unique_names_and_positive_finite_ms() {
        let err = rejection(|r| r.timings[0].name.clear());
        assert!(err.contains("empty name"), "{err}");
        let err = rejection(|r| r.timings[1].name = "tvae_epoch".to_string());
        assert!(err.contains("'tvae_epoch' appears twice"), "{err}");
        for ms in [0.0, -3.0] {
            let err = rejection(|r| r.timings[1].ms = ms);
            assert!(err.contains("'paper_mlef' field 'ms'"), "{ms}: {err}");
        }
        // NaN and infinity serialize as null, which the typed parse rejects;
        // an overflowing literal parses to infinity and fails the check.
        rejection(|r| r.timings[0].ms = f64::NAN);
        rejection(|r| r.timings[0].ms = f64::INFINITY);
        let text = serde_json::to_string(&toy_report()).unwrap();
        let overflowing = text.replacen("\"ms\":10", "\"ms\":1e999", 1);
        assert_ne!(overflowing, text, "the edit must change the document");
        let err = validate_text(&overflowing).unwrap_err();
        assert!(err.contains("'tvae_epoch' field 'ms'"), "{err}");
    }

    #[test]
    fn kernel_regressions_flags_only_sub_one_speedups() {
        let kernels = vec![
            kernel_entry_tiered("fast", "seed_reference", 1, 100.0, 250.0),
            kernel_entry_tiered("slow", "seed_reference", 1, 300.0, 250.0),
        ];
        let offending = kernel_regressions(&kernels, 4);
        assert_eq!(offending.len(), 1);
        assert!(offending[0].contains("slow"));
    }

    #[test]
    fn single_core_hosts_exempt_only_own_tier_parallel_entries() {
        let kernels = vec![
            // A parallel fan-out that cannot win on one core: exempt there,
            // gated on a multi-core host.
            kernel_entry_tiered(
                "matmul_packed_512x512x512_t4",
                "seq_own_dtype",
                4,
                300.0,
                250.0,
            ),
            // A slow dispatched entry is never exempt, whatever pool width
            // it could use: its baseline is a frozen kernel, not its own
            // sequential tier.
            kernel_entry_tiered("matmul_packed_512x512x512", "pr2_tiled", 4, 300.0, 250.0),
        ];
        let on_one_core = kernel_regressions(&kernels, 1);
        assert_eq!(on_one_core.len(), 1, "{on_one_core:?}");
        assert!(on_one_core[0].starts_with("matmul_packed_512x512x512 "));
        let on_many = kernel_regressions(&kernels, 8);
        assert_eq!(on_many.len(), 2, "{on_many:?}");
    }

    #[test]
    fn name_conventions_pin_tier_suffixes_to_fields() {
        // The committed-artifact shapes all pass.
        for entry in [
            kernel_entry_tiered("matmul_packed_512x512x512_t4", "seq_own_dtype", 4, 1.0, 2.0),
            kernel_entry_tiered("matmul_64x64x64", "seed_reference", 1, 1.0, 2.0),
            kernel_entry_tiered("matmul_packed_512x512x512", "pr2_tiled", 4, 1.0, 2.0),
        ] {
            check_name_conventions(&entry).unwrap_or_else(|e| panic!("{e}"));
        }
        // Mismatches are rejected: _tN against a frozen baseline,
        // thread-count disagreement, and a seq_own_dtype entry hiding under
        // an unsuffixed name.
        for bad in [
            kernel_entry_tiered("matmul_packed_512x512x512_t4", "pr2_tiled", 4, 1.0, 2.0),
            kernel_entry_tiered("matmul_packed_512x512x512_t4", "seq_own_dtype", 2, 1.0, 2.0),
            kernel_entry_tiered("matmul_packed_512x512x512", "seq_own_dtype", 4, 1.0, 2.0),
        ] {
            assert!(check_name_conventions(&bad).is_err(), "{}", bad.name);
        }
    }

    #[test]
    fn normal_fill_entries_and_only_they_gate_against_box_muller() {
        let entry = |name: &str, kind: &str| kernel_entry_tiered(name, kind, 1, 1.0, 2.0);
        check_name_conventions(&entry("normal_fill_19424x51", "box_muller"))
            .unwrap_or_else(|e| panic!("{e}"));
        for bad in [
            entry("normal_fill_19424x51", "seed_reference"),
            entry("matmul_64x64x64", "box_muller"),
        ] {
            assert!(check_name_conventions(&bad).is_err(), "{}", bad.name);
        }
    }

    #[test]
    fn thread_suffix_parses_ladder_names_only() {
        assert_eq!(name_thread_suffix("matmul_packed_512x512x512_t4"), Some(4));
        assert_eq!(
            name_thread_suffix("matmul_packed_4096x64x256_t16"),
            Some(16)
        );
        assert_eq!(name_thread_suffix("matmul_packed_512x512x512"), None);
        assert_eq!(name_thread_suffix("at_b_256x128_x_256x64"), None);
        assert_eq!(name_thread_suffix("transpose_512x384"), None);
    }

    fn parse(list: &[&str]) -> Result<Options, String> {
        let args = CLI
            .parse_from(list.iter().map(|a| a.to_string()))
            .map_err(|e| e.to_string())?;
        options(&args)
    }

    #[test]
    fn parse_args_accepts_the_documented_flags() {
        let opts = parse(&["--quick", "--check", "--out", "x.json", "--threads", "4"]).unwrap();
        assert!(opts.quick && opts.check);
        assert_eq!(opts.out, "x.json");
        assert_eq!(opts.threads, Some(4));
        // Defaults.
        let opts = parse(&[]).unwrap();
        assert!(!opts.quick && !opts.check);
        assert_eq!(opts.out, "BENCH_nn.json");
        assert_eq!(opts.threads, None);
    }

    #[test]
    fn parse_args_rejects_garbage_without_panicking() {
        for bad in [
            &["--threads"][..],
            &["--threads", "zero"][..],
            &["--threads", "0"][..],
            &["--threads", "-2"][..],
            &["--dtype", "f32"][..],
            &["--out"][..],
            &["--frobnicate"][..],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
    }
}
