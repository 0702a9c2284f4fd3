//! Track the `nn` training hot path against frozen baselines and emit
//! `BENCH_nn.json` so the performance trajectory is recorded across PRs.
//!
//! Three kinds of measurements:
//!
//! * **Kernel benches** — the SIMD-dispatched kernels (`matmul`,
//!   `matmul_at_b`, `matmul_a_bt`, `matmul_bias`, blocked `transpose`, layer
//!   forward/backward) against [`nn::matrix::reference`], the seed-state
//!   scalar kernels preserved verbatim for exactly this purpose
//!   (`baseline_kind: "seed_reference"`).
//! * **Large-shape kernel benches** — the packed, cache-blocked driver on
//!   shapes whose `B` operand overflows L1 (512³ and a tall-skinny
//!   4096×64×256) against [`reference::tiled_matmul`], the PR 2
//!   register-tiled kernel frozen verbatim, so the packing/SIMD win of this
//!   round is measured against its immediate predecessor
//!   (`baseline_kind: "pr2_tiled"`).
//! * **Epoch benches** — one training epoch of each of the paper's three
//!   neural models through the current `fit` hot paths:
//!   * TabDDPM vs a faithful re-implementation of the pre-PR 2 epoch loop
//!     (reference kernels, transpose-materializing backward, per-step
//!     allocations, `to_vec` gradient copies);
//!   * TVAE vs the same seed-style loop (reference kernels, allocating
//!     reparameterisation step);
//!   * CTABGAN+ vs the **unfused discriminator double-step** — two
//!     half-batch forward/backward passes and two Adam updates per
//!     discriminator step, on today's kernels — so its `speedup` isolates
//!     the fused-concatenated-batch change.
//!
//! * **Throughput-ladder benches** (schema v3) — the multi-threaded and
//!   `f32` rungs of the packed driver, each gated against its *own* tier so
//!   `--check` always compares like-for-like:
//!   * `matmul_packed_<shape>_t<N>` — the packed driver fanned over the
//!     rayon pool vs the same packed path run sequentially in the same
//!     process (`baseline_kind: "seq_own_dtype"`). Emitted only when the
//!     pool has more than one executor; exempt from the `--check` gate on
//!     single-core hosts, where a parallel fan-out cannot win.
//!   * `matmul_packed_<shape>_f32` — the `f32` instantiation (double SIMD
//!     lanes, half the memory traffic) vs the `f64` packed path
//!     (`baseline_kind: "packed_f64"`).
//!   * `matmul_packed_<shape>_t<N>_f32` — `f32` parallel vs `f32`
//!     sequential (`baseline_kind: "seq_own_dtype"`).
//!   * `mlp_infer_<shape>_f32` — `Mlp32` inference vs the `f64` `Mlp`
//!     (`baseline_kind: "mlp_infer_f64"`).
//! * **Simulator throughput benches** — `htcsim_throughput_queue_<N>`: the
//!   bucketed calendar event queue vs the seed `BinaryHeap` scheduler
//!   (`baseline_kind: "binary_heap"`) under the classic hold model; and
//!   `htcsim_throughput_sim_<N>`: a full N-job simulation through today's
//!   arena/calendar path vs a faithful re-implementation of the seed main
//!   loop — `String`-keyed `HashMap` replica catalogue, per-dispatch
//!   allocations, `BinaryHeap` — frozen verbatim like the seed epoch loops
//!   (`baseline_kind: "seed_sim_loop"`), with the two `SimReport`s asserted
//!   equal inside the harness. Gated at 1.0x like every other unsuffixed
//!   entry.
//! * **Serving bench** — `serve_batching_64x4`: sixty-four 4-row sample
//!   requests answered by one coalesced `sample_batch` pass (the serve
//!   loop's micro-batch scheduler) vs sixty-four sequential `sample` calls
//!   on the same fitted TVAE (`baseline_kind: "unbatched_sample_calls"`),
//!   gated at 1.0x by `--check` like every unsuffixed entry.
//!
//! Every kernel entry carries `threads` and `dtype` fields, and entry
//! *names* encode both (`_t4`, `_f32` suffixes), so a regenerated report
//! never gates a new tier against an old baseline kind — the name↔kind
//! conventions are validated on read-back.
//!
//! After writing the report the binary reads it back through
//! `serde_json::from_str` and validates the schema, so CI's smoke invocation
//! proves both halves (writer and parser) work. With `--check`, any kernel
//! whose measured speedup over its frozen baseline drops below 1.0 fails
//! the run (the CI regression guard).
//!
//! Usage: `perf_report [--quick] [--check] [--out PATH] [--threads N]
//! [--dtype f32|f64]` (default `BENCH_nn.json`). `--threads N` sets
//! `RAYON_NUM_THREADS` before the pool spins up, so one flag controls the
//! fan-out width; `--dtype` restricts which ladder rungs are measured
//! (legacy kernels and epoch benches always run — the schema requires
//! them). Malformed flag values exit with status 2 and a message, never a
//! panic.

use std::collections::HashMap;
use std::time::Instant;

use nn::matrix::reference;
use nn::{
    bce_with_logits, gaussian_kl, standard_normal_matrix, Activation, Adam, AdamConfig,
    CosineDecay, Layer, LinearLayer, LrSchedule, Matrix, Matrix32, Mlp, MlpConfig,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use surrogate::mixed::{mixed_activation, mixed_activation_backward, mixed_reconstruction_loss};
use surrogate::{
    CtabGan, CtabGanConfig, SampleSpec, TabDdpm, TabDdpmConfig, TableCodec, TabularGenerator, Tvae,
    TvaeConfig,
};
use tabular::{Column, FeatureKind, Table};

#[derive(Debug, Serialize, Deserialize)]
struct KernelBench {
    name: String,
    baseline_kind: String,
    /// Pool executors available to the *new* measurement. Entries whose
    /// name carries a `_tN` suffix are explicitly parallel fan-outs;
    /// forced-sequential measurements record 1; unsuffixed dispatched
    /// entries record the pool width they could opportunistically use.
    threads: usize,
    /// Element type of the new measurement: `"f64"` or `"f32"`.
    dtype: String,
    new_ns: f64,
    baseline_ns: f64,
    speedup: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct EpochBench {
    baseline_kind: String,
    rows: usize,
    epochs_timed: usize,
    new_epoch_ms: f64,
    baseline_epoch_ms: f64,
    speedup: f64,
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
    tabddpm_epoch: EpochBench,
    ctabgan_epoch: EpochBench,
    tvae_epoch: EpochBench,
}

/// Which ladder rungs `--dtype` selects (legacy + epoch benches always run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DtypeFilter {
    Both,
    F64,
    F32,
}

impl DtypeFilter {
    fn includes_f64(self) -> bool {
        self != DtypeFilter::F32
    }

    fn includes_f32(self) -> bool {
        self != DtypeFilter::F64
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Options {
    quick: bool,
    check: bool,
    out: String,
    threads: Option<usize>,
    dtype: DtypeFilter,
}

/// Panic-free argument parsing; every malformed input comes back as an
/// `Err` message (main exits 2 on it) rather than a panic or a silently
/// ignored flag.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        check: false,
        out: "BENCH_nn.json".to_string(),
        threads: None,
        dtype: DtypeFilter::Both,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--check" => opts.check = true,
            "--out" => {
                opts.out = it
                    .next()
                    .ok_or_else(|| "--out requires a path argument".to_string())?
                    .clone();
            }
            "--threads" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--threads requires a positive integer".to_string())?;
                opts.threads = Some(value.parse::<usize>().ok().filter(|&t| t > 0).ok_or_else(
                    || format!("--threads expects a positive integer, got '{value}'"),
                )?);
            }
            "--dtype" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--dtype requires a value (f32 or f64)".to_string())?;
                opts.dtype = match value.as_str() {
                    "f32" => DtypeFilter::F32,
                    "f64" => DtypeFilter::F64,
                    other => return Err(format!("--dtype expects f32 or f64, got '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
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
        "f64",
        new_ns,
        baseline_ns,
    )
}

fn kernel_entry_tiered(
    name: &str,
    baseline_kind: &str,
    threads: usize,
    dtype: &str,
    new_ns: f64,
    baseline_ns: f64,
) -> KernelBench {
    KernelBench {
        name: name.to_string(),
        baseline_kind: baseline_kind.to_string(),
        threads,
        dtype: dtype.to_string(),
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

    let mut layer = LinearLayer::new(128, 64, Activation::Relu, &mut rng);
    let mut baseline_layer = BaselineLayer::from_layer(&layer);
    let x = Matrix::randn(256, 128, 1.0, &mut rng);
    let out = layer.forward(&x);
    let new_ns = time_ns(reps, inner, || {
        let y = layer.forward(&x);
        std::hint::black_box(layer.backward(&out));
        std::hint::black_box(y);
    });
    let base_ns = time_ns(reps, inner, || {
        let y = baseline_layer.forward(&x);
        std::hint::black_box(baseline_layer.backward(&out));
        std::hint::black_box(y);
    });
    entries.push(kernel_entry(
        "layer_fwd_bwd_256x128x64",
        "seed_reference",
        new_ns,
        base_ns,
    ));

    entries
}

/// The throughput-ladder rungs (schema v3): multi-threaded packed entries
/// gated against their own sequential tier in the same process, and `f32`
/// entries gated against the `f64` packed path. Every comparison is
/// like-for-like by construction — the names say exactly which tier the
/// entry measures.
fn ladder_benches(quick: bool, dtype: DtypeFilter) -> Vec<KernelBench> {
    let (reps, inner) = if quick { (3, 1) } else { (5, 2) };
    let threads = rayon::current_num_threads();
    let mut rng = StdRng::seed_from_u64(77);
    let mut entries = Vec::new();

    for &(m, k, n) in &[(512usize, 512usize, 512usize), (4096, 64, 256)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        // Own-tier sequential reference: the identical packed path, forced
        // sequential, measured in this very process.
        let seq64_ns = time_ns(reps, inner, || {
            std::hint::black_box(a.matmul_packed_with(&b, false));
        });
        if dtype.includes_f64() && threads > 1 {
            let par_ns = time_ns(reps, inner, || {
                std::hint::black_box(a.matmul_packed_with(&b, true));
            });
            entries.push(kernel_entry_tiered(
                &format!("matmul_packed_{m}x{k}x{n}_t{threads}"),
                "seq_own_dtype",
                threads,
                "f64",
                par_ns,
                seq64_ns,
            ));
        }
        if dtype.includes_f32() {
            let a32 = Matrix32::from_f64(&a);
            let b32 = Matrix32::from_f64(&b);
            let seq32_ns = time_ns(reps, inner, || {
                std::hint::black_box(a32.matmul_packed_with(&b32, false));
            });
            entries.push(kernel_entry_tiered(
                &format!("matmul_packed_{m}x{k}x{n}_f32"),
                "packed_f64",
                1,
                "f32",
                seq32_ns,
                seq64_ns,
            ));
            if threads > 1 {
                let par32_ns = time_ns(reps, inner, || {
                    std::hint::black_box(a32.matmul_packed_with(&b32, true));
                });
                entries.push(kernel_entry_tiered(
                    &format!("matmul_packed_{m}x{k}x{n}_t{threads}_f32"),
                    "seq_own_dtype",
                    threads,
                    "f32",
                    par32_ns,
                    seq32_ns,
                ));
            }
        }
    }

    if dtype.includes_f32() {
        // End-to-end f32 inference: a fitted-shape MLP down-converted once,
        // then timed against the f64 forward pass on the same batch.
        let (mreps, minner) = if quick { (5, 4) } else { (7, 8) };
        let mlp = Mlp::new(&MlpConfig::relu(128, vec![256, 256], 64), &mut rng);
        let mlp32 = mlp.to_f32();
        let x = Matrix::randn(512, 128, 1.0, &mut rng);
        let x32 = Matrix32::from_f64(&x);
        let new_ns = time_ns(mreps, minner, || {
            std::hint::black_box(mlp32.infer(&x32));
        });
        let base_ns = time_ns(mreps, minner, || {
            std::hint::black_box(mlp.infer(&x));
        });
        entries.push(kernel_entry_tiered(
            "mlp_infer_512x128x256x256x64_f32",
            "mlp_infer_f64",
            1,
            "f32",
            new_ns,
            base_ns,
        ));
    }

    entries
}

// ---------------------------------------------------------------------------
// Faithful re-implementation of the pre-PR 2 hot path: reference kernels,
// transpose-materializing backward, per-step clones, the seed-state Adam
// update loop and the two-allocation MSE. These are frozen so future
// optimisation of the live `nn` crate cannot silently drag the baseline
// along with it.
// ---------------------------------------------------------------------------

/// The seed-state Adam (indexed inner loop, gradient slices copied by the
/// caller exactly as the pre-PR `Mlp::apply_gradients` did).
struct BaselineAdam {
    beta1: f64,
    beta2: f64,
    eps: f64,
    state: HashMap<usize, (Vec<f64>, Vec<f64>, u64)>,
}

impl BaselineAdam {
    fn new() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }

    fn update(&mut self, key: usize, params: &mut [f64], grads: &[f64], lr: f64) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let (m, v, t) = self
            .state
            .entry(key)
            .or_insert_with(|| (vec![0.0; params.len()], vec![0.0; params.len()], 0));
        *t += 1;
        let tf = *t as f64;
        let bias1 = 1.0 - self.beta1.powf(tf);
        let bias2 = 1.0 - self.beta2.powf(tf);
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = m[i] / bias1;
            let v_hat = v[i] / bias2;
            params[i] -= lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// The seed-state MSE: separate difference, reduction and gradient passes
/// with two allocations.
fn baseline_mse(prediction: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let n = prediction.len() as f64;
    let diff = prediction.sub(target);
    let loss = diff.data().iter().map(|d| d * d).sum::<f64>() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

struct BaselineLayer {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
    grad_weights: Matrix,
    grad_bias: Vec<f64>,
    cache_input: Option<Matrix>,
    cache_pre: Option<Matrix>,
}

impl BaselineLayer {
    /// Clone a (new-style) layer's parameters so both paths do identical math.
    fn from_layer(layer: &LinearLayer) -> Self {
        Self {
            weights: layer.weights.clone(),
            bias: layer.bias.clone(),
            activation: layer.activation,
            grad_weights: Matrix::zeros(layer.in_dim(), layer.out_dim()),
            grad_bias: vec![0.0; layer.out_dim()],
            cache_input: None,
            cache_pre: None,
        }
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        let act = self.activation;
        let pre = reference::matmul(input, &self.weights).add_row_vector(&self.bias);
        let out = pre.map(|v| act.forward(v));
        self.cache_input = Some(input.clone());
        self.cache_pre = Some(pre);
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self.cache_input.as_ref().expect("forward first");
        let pre = self.cache_pre.as_ref().expect("forward first");
        let act = self.activation;
        let grad_pre = grad_output.zip(pre, |g, p| g * act.derivative(p));
        self.grad_weights = reference::matmul(&reference::transpose(input), &grad_pre);
        self.grad_bias = grad_pre.sum_rows();
        reference::matmul(&grad_pre, &reference::transpose(&self.weights))
    }
}

struct BaselineMlp {
    layers: Vec<BaselineLayer>,
}

impl BaselineMlp {
    fn from_mlp(mlp: &Mlp) -> Self {
        Self {
            layers: mlp.layers().iter().map(BaselineLayer::from_layer).collect(),
        }
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut grad = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    fn grad_norm(&self) -> f64 {
        let mut sq = 0.0;
        for layer in &self.layers {
            sq += layer.grad_weights.data().iter().map(|g| g * g).sum::<f64>();
            sq += layer.grad_bias.iter().map(|g| g * g).sum::<f64>();
        }
        sq.sqrt()
    }

    fn clip_gradients(&mut self, max_norm: f64) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for layer in &mut self.layers {
                layer.grad_weights = layer.grad_weights.scale(scale);
                for g in &mut layer.grad_bias {
                    *g *= scale;
                }
            }
        }
    }

    fn apply_gradients(&mut self, optimizer: &mut BaselineAdam, param_group: usize, lr: f64) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let wkey = param_group * 1000 + i * 2;
            let bkey = wkey + 1;
            let grads = layer.grad_weights.data().to_vec();
            optimizer.update(wkey, layer.weights.data_mut(), &grads, lr);
            let bias_grads = layer.grad_bias.clone();
            optimizer.update(bkey, &mut layer.bias, &bias_grads, lr);
        }
    }
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
        eprintln!("perf_report: noisy {label} epoch timing (t1 {t1:.4}s >= t2 {t2:.4}s), retrying");
    }
    eprintln!("perf_report: {label} differencing failed; using whole-fit upper bound");
    timed_fit(e2, reps) * 1e3 / e2 as f64
}

// ---------------------------------------------------------------------------
// TabDDPM epoch bench (vs the seed-kernel baseline loop).
// ---------------------------------------------------------------------------

/// One pre-PR-style TabDDPM training epoch: the exact inner loop the seed
/// shipped (fresh batch/noise/noisy allocations every step, clone-heavy
/// MLP), driven by the same schedule, batch size and RNG pattern as
/// `TabDdpm::fit`.
#[allow(clippy::too_many_arguments)]
fn baseline_tabddpm_epoch(
    denoiser: &mut BaselineMlp,
    adam: &mut BaselineAdam,
    data: &Matrix,
    alpha_bar: &[f64],
    timesteps: usize,
    batch: usize,
    schedule: &CosineDecay,
    step: &mut usize,
    rng: &mut StdRng,
) -> f64 {
    let n = data.rows();
    let width = data.cols();
    let steps_per_epoch = n.div_ceil(batch);
    let mut epoch_loss = 0.0;
    for _ in 0..steps_per_epoch {
        let lr = schedule.lr_at(*step);
        *step += 1;

        let idx: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..n)).collect();
        let x0 = data.take_rows(&idx);

        let ts: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..timesteps)).collect();
        let t_frac: Vec<f64> = ts
            .iter()
            .map(|&t| (t + 1) as f64 / timesteps as f64)
            .collect();
        let noise = standard_normal_matrix(batch, width, rng);

        let mut x_noisy = Matrix::zeros(batch, width);
        for (r, &t) in ts.iter().enumerate() {
            let ab = alpha_bar[t];
            let (sa, sb) = (ab.sqrt(), (1.0 - ab).sqrt());
            for c in 0..width {
                x_noisy.set(r, c, sa * x0.get(r, c) + sb * noise.get(r, c));
            }
        }

        let mut t_cols = Matrix::zeros(batch, 2);
        for (r, &t) in t_frac.iter().enumerate() {
            t_cols.set(r, 0, t);
            t_cols.set(r, 1, (t * std::f64::consts::PI).sin());
        }
        let input = x_noisy.hconcat(&t_cols);

        let predicted = denoiser.forward(&input);
        let (loss, grad) = baseline_mse(&predicted, &noise);
        epoch_loss += loss;
        denoiser.backward(&grad);
        denoiser.clip_gradients(5.0);
        denoiser.apply_gradients(adam, 0, lr);
    }
    epoch_loss / steps_per_epoch as f64
}

/// Cosine ᾱ schedule matching `TabDdpm` (re-derived here because the model
/// keeps it private; validated against `TabDdpm::alpha_bar()` below).
fn cosine_alpha_bar(timesteps: usize) -> Vec<f64> {
    let s = 0.008;
    let f = |t: f64| {
        ((t / timesteps as f64 + s) / (1.0 + s) * std::f64::consts::FRAC_PI_2)
            .cos()
            .powi(2)
    };
    let f0 = f(0.0);
    (1..=timesteps)
        .map(|t| (f(t as f64) / f0).clamp(1e-5, 0.9999))
        .collect()
}

fn tabddpm_epoch_bench(quick: bool) -> EpochBench {
    let rows = if quick { 512 } else { 2048 };
    let (e1, e2, reps) = if quick { (1, 3, 1) } else { (2, 10, 2) };
    let epochs = e2 - e1;
    let cfg = TabDdpmConfig {
        epochs: e2,
        ..TabDdpmConfig::fast()
    };
    let train = epoch_table(rows, 99);

    let new_epoch_ms = differenced_epoch_ms("tabddpm", reps, e1, e2, |epochs, reps| {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let mut model = TabDdpm::new(TabDdpmConfig {
                epochs,
                ..cfg.clone()
            });
            let start = Instant::now();
            model.fit(&train).expect("TabDDPM fit");
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    });
    // Unfitted model: `alpha_bar` is derived in the constructor.
    let model = TabDdpm::new(cfg.clone());

    // --- Pre-PR hot path: same math, seed-state kernels and allocations. ---
    let codec = TableCodec::fit(&train).expect("codec fit");
    let data = codec.encode(&train).expect("codec encode");
    let width = codec.encoded_width();
    let alpha_bar = cosine_alpha_bar(cfg.timesteps);
    assert_eq!(
        alpha_bar.as_slice(),
        model.alpha_bar(),
        "baseline schedule drifted from the model's"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let template = Mlp::new(
        &MlpConfig::relu(width + 2, cfg.hidden.clone(), width),
        &mut rng,
    );
    let mut denoiser = BaselineMlp::from_mlp(&template);
    let mut adam = BaselineAdam::new();
    let n = data.rows();
    let batch = cfg.batch_size.min(n).max(1);
    let steps_per_epoch = n.div_ceil(batch);
    let schedule = CosineDecay {
        base_lr: cfg.learning_rate,
        min_lr: cfg.learning_rate * 0.01,
        total_steps: cfg.epochs * steps_per_epoch,
        warmup_steps: 0,
    };
    let mut step = 0usize;
    let start = Instant::now();
    let mut last_loss = f64::NAN;
    for _ in 0..epochs {
        last_loss = baseline_tabddpm_epoch(
            &mut denoiser,
            &mut adam,
            &data,
            &alpha_bar,
            cfg.timesteps,
            batch,
            &schedule,
            &mut step,
            &mut rng,
        );
    }
    let baseline_epoch_ms = start.elapsed().as_secs_f64() * 1e3 / epochs as f64;
    assert!(
        last_loss.is_finite(),
        "baseline training diverged; comparison would be meaningless"
    );

    EpochBench {
        baseline_kind: "seed_epoch_loop".to_string(),
        rows,
        epochs_timed: epochs,
        new_epoch_ms,
        baseline_epoch_ms,
        speedup: baseline_epoch_ms / new_epoch_ms.max(1e-9),
    }
}

// ---------------------------------------------------------------------------
// CTABGAN+ epoch bench (vs the unfused discriminator double-step).
// ---------------------------------------------------------------------------

/// The conditioning column `CtabGan::fit` picks (largest-cardinality
/// categorical span) and its training marginal, replicated here for the
/// baseline loop.
fn choose_condition(codec: &TableCodec, data: &Matrix) -> Option<(usize, Vec<f64>)> {
    codec
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == FeatureKind::Categorical)
        .max_by_key(|(_, s)| s.width)
        .map(|(idx, span)| {
            let mut marginal = vec![0.0; span.width];
            for r in 0..data.rows() {
                let block = &data.row(r)[span.start..span.start + span.width];
                if let Some(code) = block.iter().position(|&v| v > 0.5) {
                    marginal[code] += 1.0;
                }
            }
            let total: f64 = marginal.iter().sum::<f64>().max(1.0);
            for m in &mut marginal {
                *m /= total;
            }
            (idx, marginal)
        })
}

/// Conditional one-hot batch from the training marginal (the baseline's
/// allocating variant, matching the pre-fusion loop).
fn sample_condition(
    condition: &Option<(usize, Vec<f64>)>,
    codec: &TableCodec,
    rows: usize,
    rng: &mut StdRng,
) -> Matrix {
    let Some((span_idx, marginal)) = condition else {
        return Matrix::zeros(rows, 0);
    };
    let width = codec.spans()[*span_idx].width;
    let mut out = Matrix::zeros(rows, width);
    for r in 0..rows {
        let mut u: f64 = rng.gen_range(0.0..1.0);
        let mut chosen = width - 1;
        for (i, &p) in marginal.iter().enumerate() {
            if u < p {
                chosen = i;
                break;
            }
            u -= p;
        }
        out.set(r, chosen, 1.0);
    }
    out
}

/// One pre-fusion CTABGAN+ training epoch: per discriminator step, two
/// half-batch forward/backward passes and two Adam updates (real then
/// fake), with per-step `hconcat` batch assembly — exactly the loop shipped
/// before the fused double-step, but on today's kernels, so the measured
/// ratio isolates the fusion itself.
#[allow(clippy::too_many_arguments)]
fn baseline_ctabgan_epoch(
    generator: &mut Mlp,
    discriminator: &mut Mlp,
    adam: &mut Adam,
    data: &Matrix,
    codec: &TableCodec,
    condition: &Option<(usize, Vec<f64>)>,
    cfg: &CtabGanConfig,
    schedule: &CosineDecay,
    step: &mut usize,
    rng: &mut StdRng,
) -> f64 {
    let n = data.rows();
    let width = codec.encoded_width();
    let batch = cfg.batch_size.min(n).max(1);
    let steps_per_epoch = n.div_ceil(batch);
    let mut d_loss_sum = 0.0;
    let mut g_loss_sum = 0.0;
    for _ in 0..steps_per_epoch {
        let lr = schedule.lr_at(*step);
        *step += 1;

        for _ in 0..cfg.discriminator_steps {
            let idx: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..n)).collect();
            let real = data.take_rows(&idx);
            let cond = sample_condition(condition, codec, batch, rng);

            let z = standard_normal_matrix(batch, cfg.latent_dim, rng);
            let g_in = z.hconcat(&cond);
            let fake_raw = generator.infer(&g_in);
            let fake = mixed_activation(codec.spans(), &fake_raw);

            let d_real_in = real.hconcat(&cond);
            let d_fake_in = fake.hconcat(&cond);

            let real_logits = discriminator.forward(&d_real_in);
            let (loss_real, grad_real) =
                bce_with_logits(&real_logits, &Matrix::filled(batch, 1, 1.0));
            discriminator.backward(&grad_real);
            discriminator.clip_gradients(5.0);
            discriminator.apply_gradients(adam, 10, lr);

            let fake_logits = discriminator.forward(&d_fake_in);
            let (loss_fake, grad_fake) =
                bce_with_logits(&fake_logits, &Matrix::filled(batch, 1, 0.0));
            discriminator.backward(&grad_fake);
            discriminator.clip_gradients(5.0);
            discriminator.apply_gradients(adam, 10, lr);

            d_loss_sum += loss_real + loss_fake;
        }

        let cond = sample_condition(condition, codec, batch, rng);
        let z = standard_normal_matrix(batch, cfg.latent_dim, rng);
        let g_in = z.hconcat(&cond);
        let fake_raw = generator.forward(&g_in);
        let fake = mixed_activation(codec.spans(), &fake_raw);
        let d_in = fake.hconcat(&cond);

        let logits = discriminator.forward(&d_in);
        let (g_loss, grad_logits) = bce_with_logits(&logits, &Matrix::filled(batch, 1, 1.0));
        g_loss_sum += g_loss;

        let grad_d_in = discriminator.backward(&grad_logits);
        let grad_fake = grad_d_in.slice_cols(0, width);
        let grad_fake_raw = mixed_activation_backward(codec.spans(), &fake, &grad_fake);
        generator.backward(&grad_fake_raw);
        generator.clip_gradients(5.0);
        generator.apply_gradients(adam, 20, lr);
    }
    (g_loss_sum + d_loss_sum) / steps_per_epoch as f64
}

fn ctabgan_epoch_bench(quick: bool) -> EpochBench {
    let rows = if quick { 512 } else { 2048 };
    let (e1, e2, reps) = if quick { (1, 3, 1) } else { (2, 10, 2) };
    let epochs = e2 - e1;
    let cfg = CtabGanConfig {
        epochs: e2,
        ..CtabGanConfig::fast()
    };
    let train = epoch_table(rows, 99);

    let new_epoch_ms = differenced_epoch_ms("ctabgan", reps, e1, e2, |epochs, reps| {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let mut model = CtabGan::new(CtabGanConfig {
                epochs,
                ..cfg.clone()
            });
            let start = Instant::now();
            model.fit(&train).expect("CTABGAN fit");
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    });

    // --- Unfused baseline: identical model setup, pre-fusion update loop. ---
    let codec = TableCodec::fit(&train).expect("codec fit");
    let data = codec.encode(&train).expect("codec encode");
    let width = codec.encoded_width();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let condition = if cfg.conditional {
        choose_condition(&codec, &data)
    } else {
        None
    };
    let cond_width = condition
        .as_ref()
        .map_or(0, |(idx, _)| codec.spans()[*idx].width);
    let mut generator = Mlp::new(
        &MlpConfig::relu(
            cfg.latent_dim + cond_width,
            cfg.generator_hidden.clone(),
            width,
        ),
        &mut rng,
    );
    let mut discriminator = Mlp::new(
        &MlpConfig::relu(width + cond_width, cfg.discriminator_hidden.clone(), 1),
        &mut rng,
    );
    let mut adam = Adam::new(AdamConfig::default());
    let n = data.rows();
    let batch = cfg.batch_size.min(n).max(1);
    let steps_per_epoch = n.div_ceil(batch);
    let schedule = CosineDecay {
        base_lr: cfg.learning_rate,
        min_lr: cfg.learning_rate * 0.01,
        total_steps: cfg.epochs * steps_per_epoch,
        warmup_steps: 0,
    };
    let mut step = 0usize;
    let start = Instant::now();
    let mut last_loss = f64::NAN;
    for _ in 0..epochs {
        last_loss = baseline_ctabgan_epoch(
            &mut generator,
            &mut discriminator,
            &mut adam,
            &data,
            &codec,
            &condition,
            &cfg,
            &schedule,
            &mut step,
            &mut rng,
        );
    }
    let baseline_epoch_ms = start.elapsed().as_secs_f64() * 1e3 / epochs as f64;
    assert!(
        last_loss.is_finite(),
        "baseline CTABGAN training diverged; comparison would be meaningless"
    );

    EpochBench {
        baseline_kind: "unfused_discriminator_double_step".to_string(),
        rows,
        epochs_timed: epochs,
        new_epoch_ms,
        baseline_epoch_ms,
        speedup: baseline_epoch_ms / new_epoch_ms.max(1e-9),
    }
}

// ---------------------------------------------------------------------------
// TVAE epoch bench (vs the seed-kernel baseline loop).
// ---------------------------------------------------------------------------

/// One pre-PR-style TVAE training epoch: the seed inner loop (fresh batch
/// and noise allocations every step, clone-heavy reference-kernel MLPs),
/// driven by the same schedule, batch size and shuffling pattern as
/// `Tvae::fit`.
#[allow(clippy::too_many_arguments)]
fn baseline_tvae_epoch(
    encoder: &mut BaselineMlp,
    decoder: &mut BaselineMlp,
    adam: &mut BaselineAdam,
    data: &Matrix,
    codec: &TableCodec,
    cfg: &TvaeConfig,
    indices: &mut [usize],
    schedule: &CosineDecay,
    step: &mut usize,
    rng: &mut StdRng,
) -> f64 {
    let n = data.rows();
    let batch = cfg.batch_size.min(n).max(1);
    let steps_per_epoch = n.div_ceil(batch);
    indices.shuffle(rng);
    let mut epoch_loss = 0.0;
    for chunk in indices.chunks(batch) {
        let x = data.take_rows(chunk);
        let lr = schedule.lr_at(*step);
        *step += 1;

        let enc_out = encoder.forward(&x);
        let mu = enc_out.slice_cols(0, cfg.latent_dim);
        let logvar = enc_out
            .slice_cols(cfg.latent_dim, 2 * cfg.latent_dim)
            .map(|v| v.clamp(-8.0, 8.0));

        let eps = standard_normal_matrix(x.rows(), cfg.latent_dim, rng);
        let std = logvar.map(|v| (0.5 * v).exp());
        let z = mu.add(&eps.mul(&std));

        let recon = decoder.forward(&z);
        let (recon_loss, grad_recon) = mixed_reconstruction_loss(codec.spans(), &recon, &x);
        let (kl_loss, grad_kl_mu, grad_kl_logvar) = gaussian_kl(&mu, &logvar);
        epoch_loss += recon_loss + cfg.kl_weight * kl_loss;

        let grad_z = decoder.backward(&grad_recon);
        let grad_mu = grad_z.add(&grad_kl_mu.scale(cfg.kl_weight));
        let grad_logvar_from_z = grad_z.mul(&eps).mul(&std).scale(0.5);
        let grad_logvar = grad_logvar_from_z.add(&grad_kl_logvar.scale(cfg.kl_weight));

        let grad_enc_out = grad_mu.hconcat(&grad_logvar);
        encoder.backward(&grad_enc_out);

        encoder.clip_gradients(5.0);
        decoder.clip_gradients(5.0);
        encoder.apply_gradients(adam, 0, lr);
        decoder.apply_gradients(adam, 1, lr);
    }
    epoch_loss / steps_per_epoch as f64
}

fn tvae_epoch_bench(quick: bool) -> EpochBench {
    let rows = if quick { 512 } else { 2048 };
    let (e1, e2, reps) = if quick { (1, 3, 1) } else { (2, 10, 2) };
    let epochs = e2 - e1;
    let cfg = TvaeConfig {
        epochs: e2,
        ..TvaeConfig::fast()
    };
    let train = epoch_table(rows, 99);

    let new_epoch_ms = differenced_epoch_ms("tvae", reps, e1, e2, |epochs, reps| {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let mut model = Tvae::new(TvaeConfig {
                epochs,
                ..cfg.clone()
            });
            let start = Instant::now();
            model.fit(&train).expect("TVAE fit");
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    });

    // --- Seed-style baseline: reference kernels, allocating loop. ---
    let codec = TableCodec::fit(&train).expect("codec fit");
    let data = codec.encode(&train).expect("codec encode");
    let width = codec.encoded_width();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let enc_template = Mlp::new(
        &MlpConfig::relu(width, cfg.hidden.clone(), 2 * cfg.latent_dim),
        &mut rng,
    );
    let dec_template = Mlp::new(
        &MlpConfig::relu(cfg.latent_dim, cfg.hidden.clone(), width),
        &mut rng,
    );
    let mut encoder = BaselineMlp::from_mlp(&enc_template);
    let mut decoder = BaselineMlp::from_mlp(&dec_template);
    let mut adam = BaselineAdam::new();
    let n = data.rows();
    let batch = cfg.batch_size.min(n).max(1);
    let steps_per_epoch = n.div_ceil(batch);
    let schedule = CosineDecay {
        base_lr: cfg.learning_rate,
        min_lr: cfg.learning_rate * 0.01,
        total_steps: cfg.epochs * steps_per_epoch,
        warmup_steps: 0,
    };
    let mut indices: Vec<usize> = (0..n).collect();
    let mut step = 0usize;
    let start = Instant::now();
    let mut last_loss = f64::NAN;
    for _ in 0..epochs {
        last_loss = baseline_tvae_epoch(
            &mut encoder,
            &mut decoder,
            &mut adam,
            &data,
            &codec,
            &cfg,
            &mut indices,
            &schedule,
            &mut step,
            &mut rng,
        );
    }
    let baseline_epoch_ms = start.elapsed().as_secs_f64() * 1e3 / epochs as f64;
    assert!(
        last_loss.is_finite(),
        "baseline TVAE training diverged; comparison would be meaningless"
    );

    EpochBench {
        baseline_kind: "seed_epoch_loop".to_string(),
        rows,
        epochs_timed: epochs,
        new_epoch_ms,
        baseline_epoch_ms,
        speedup: baseline_epoch_ms / new_epoch_ms.max(1e-9),
    }
}

// ---------------------------------------------------------------------------
// Report emission, validation and the CI regression guard.
// ---------------------------------------------------------------------------

/// Parse an emitted report back through the typed `Deserialize` path (no
/// `Value` accessor chains) and check its invariants: a malformed or
/// field-stripped document fails at the parse, and a structurally valid one
/// must carry positive finite timings throughout.
/// The explicit thread-count suffix of a ladder entry name (`_t4`,
/// `_t4_f32`), if present.
fn name_thread_suffix(name: &str) -> Option<usize> {
    let base = name.strip_suffix("_f32").unwrap_or(name);
    let idx = base.rfind("_t")?;
    base[idx + 2..].parse().ok()
}

/// Enforce the name↔field conventions that keep `--check` like-for-like:
/// a `_f32` suffix if and only if `dtype == "f32"`; a `_tN` suffix if and
/// only if the entry is gated against its own sequential tier
/// (`seq_own_dtype`), with `N` equal to the recorded thread count. A
/// regenerated report can therefore never compare a new tier's timing
/// against a baseline of a different kind under the same name.
fn check_name_conventions(entry: &KernelBench) -> Result<(), String> {
    let is_f32_name = entry.name.ends_with("_f32");
    if is_f32_name != (entry.dtype == "f32") {
        return Err(format!(
            "kernel '{}': name/dtype mismatch (dtype '{}')",
            entry.name, entry.dtype
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
        if entry.dtype != "f64" && entry.dtype != "f32" {
            return Err(format!(
                "kernel '{}' has unknown dtype '{}'",
                entry.name, entry.dtype
            ));
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
    for (model, epoch) in [
        ("tabddpm_epoch", &report.tabddpm_epoch),
        ("ctabgan_epoch", &report.ctabgan_epoch),
        ("tvae_epoch", &report.tvae_epoch),
    ] {
        if !epoch.speedup.is_finite() || epoch.speedup <= 0.0 {
            return Err(format!("{model}.speedup is not a positive number"));
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

/// Regression guard: every kernel must still beat its frozen baseline.
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

// ---------------------------------------------------------------------------
// Faithful re-implementation of the seed htcsim main loop: `String`-keyed
// `HashMap` replica catalogue, a freshly-allocated feasible-site `Vec` per
// brokerage decision, a reallocated pending list per job finish, and the
// seed `BinaryHeap` scheduler. Frozen verbatim (like the seed epoch loops
// above) so the `htcsim_throughput_sim` entry measures the whole tentpole —
// arena SoA storage, interned dataset/site ids, the allocation-free event
// loop and the calendar queue — against the loop the seed shipped.
// ---------------------------------------------------------------------------
mod seed_sim {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap};

    use htcsim::{BrokerPolicy, SimConfig, SimJob, SimReport, SimSite, TransferModel};
    use pandasim::SiteCatalog;

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum EventKind {
        JobArrival { job: usize },
        TransferComplete { job: usize, site: usize },
        JobFinish { job: usize, site: usize },
    }

    #[derive(Clone, Copy, PartialEq)]
    struct Event {
        time: f64,
        sequence: u64,
        kind: EventKind,
    }

    impl Eq for Event {}

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .partial_cmp(&self.time)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.sequence.cmp(&self.sequence))
        }
    }

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    #[derive(Default)]
    struct EventQueue {
        heap: BinaryHeap<Event>,
        next_sequence: u64,
    }

    impl EventQueue {
        fn push(&mut self, time: f64, kind: EventKind) {
            let sequence = self.next_sequence;
            self.next_sequence += 1;
            self.heap.push(Event {
                time,
                sequence,
                kind,
            });
        }

        fn pop(&mut self) -> Option<Event> {
            self.heap.pop()
        }
    }

    #[derive(Default)]
    struct ReplicaCatalog {
        replicas: HashMap<String, Vec<usize>>,
    }

    impl ReplicaCatalog {
        fn add_replica(&mut self, dataset: &str, site: usize) {
            let entry = self.replicas.entry(dataset.to_string()).or_default();
            if !entry.contains(&site) {
                entry.push(site);
            }
        }

        fn has_replica(&self, dataset: &str, site: usize) -> bool {
            self.replicas
                .get(dataset)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .contains(&site)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn choose(
        policy: BrokerPolicy,
        sites: &[SimSite],
        cores: u32,
        dataset: &str,
        catalog: &ReplicaCatalog,
        transfer: &TransferModel,
        bytes: f64,
        round_robin_cursor: &mut usize,
    ) -> Option<usize> {
        let feasible: Vec<usize> = sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.can_run(cores))
            .map(|(i, _)| i)
            .collect();
        if feasible.is_empty() {
            return None;
        }
        match policy {
            BrokerPolicy::RoundRobin => {
                for _ in 0..sites.len() {
                    let candidate = *round_robin_cursor % sites.len();
                    *round_robin_cursor += 1;
                    if feasible.contains(&candidate) {
                        return Some(candidate);
                    }
                }
                feasible.first().copied()
            }
            BrokerPolicy::LeastLoaded => feasible.into_iter().max_by(|&a, &b| {
                sites[a]
                    .free_slots()
                    .cmp(&sites[b].free_slots())
                    .then_with(|| b.cmp(&a))
            }),
            BrokerPolicy::DataLocality => feasible.into_iter().min_by(|&a, &b| {
                let cost = |i: usize| {
                    let local = catalog.has_replica(dataset, i);
                    let t = transfer.transfer_hours(bytes, local);
                    t - 1e-3 * sites[i].free_slots() as f64
                };
                cost(a)
                    .partial_cmp(&cost(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            }),
        }
    }

    /// The seed `GridSimulator::run`, verbatim.
    pub fn run(site_catalog: &SiteCatalog, config: &SimConfig, jobs: &[SimJob]) -> SimReport {
        let mut sites: Vec<SimSite> = site_catalog
            .sites()
            .iter()
            .map(|s| {
                let slots = ((s.slots as f64 * config.slot_fraction).round() as u32).max(8);
                SimSite::new(&s.name, slots, s.hs23_per_core)
            })
            .collect();
        let mut catalog = ReplicaCatalog::default();
        for job in jobs {
            if let Some(origin) = &job.origin_site {
                if let Some(idx) = sites.iter().position(|s| &s.name == origin) {
                    catalog.add_replica(&job.dataset, idx);
                }
            }
        }

        let mut queue = EventQueue::default();
        for (i, job) in jobs.iter().enumerate() {
            queue.push(job.arrival_hours.max(0.0), EventKind::JobArrival { job: i });
        }

        let mut pending: Vec<usize> = Vec::new();
        let mut wait_hours = vec![0.0f64; jobs.len()];
        let mut transfer_hours = vec![0.0f64; jobs.len()];
        let mut arrival_time = vec![0.0f64; jobs.len()];
        let mut completed = 0usize;
        let mut makespan: f64 = 0.0;
        let mut wan_bytes = 0.0f64;
        let mut rr_cursor = 0usize;

        let dispatch = |job_idx: usize,
                        now: f64,
                        sites: &mut Vec<SimSite>,
                        catalog: &ReplicaCatalog,
                        queue: &mut EventQueue,
                        wan_bytes: &mut f64,
                        transfer_hours: &mut Vec<f64>,
                        rr_cursor: &mut usize|
         -> bool {
            let job = &jobs[job_idx];
            let choice = choose(
                config.policy,
                sites,
                job.cores,
                &job.dataset,
                catalog,
                &config.transfer,
                job.input_bytes,
                rr_cursor,
            );
            let Some(site_idx) = choice else {
                return false;
            };
            sites[site_idx].acquire(job.cores);
            let local = catalog.has_replica(&job.dataset, site_idx);
            let t_hours = config.transfer.transfer_hours(job.input_bytes, local);
            if !local {
                *wan_bytes += job.input_bytes;
            }
            transfer_hours[job_idx] = t_hours;
            queue.push(
                now + t_hours,
                EventKind::TransferComplete {
                    job: job_idx,
                    site: site_idx,
                },
            );
            true
        };

        while let Some(event) = queue.pop() {
            let now = event.time;
            match event.kind {
                EventKind::JobArrival { job } => {
                    arrival_time[job] = now;
                    if !dispatch(
                        job,
                        now,
                        &mut sites,
                        &catalog,
                        &mut queue,
                        &mut wan_bytes,
                        &mut transfer_hours,
                        &mut rr_cursor,
                    ) {
                        pending.push(job);
                    } else {
                        wait_hours[job] = 0.0;
                    }
                }
                EventKind::TransferComplete { job, site } => {
                    let speed = sites[site].hs23_per_core / config.reference_hs23;
                    let wall = (jobs[job].cpu_hours / jobs[job].cores as f64 / speed).max(1e-4);
                    queue.push(now + wall, EventKind::JobFinish { job, site });
                }
                EventKind::JobFinish { job, site } => {
                    let speed = sites[site].hs23_per_core / config.reference_hs23;
                    let wall = (jobs[job].cpu_hours / jobs[job].cores as f64 / speed).max(1e-4);
                    sites[site].release(jobs[job].cores, wall);
                    completed += 1;
                    makespan = makespan.max(now);

                    let mut still_pending = Vec::new();
                    for &p in &pending {
                        if dispatch(
                            p,
                            now,
                            &mut sites,
                            &catalog,
                            &mut queue,
                            &mut wan_bytes,
                            &mut transfer_hours,
                            &mut rr_cursor,
                        ) {
                            wait_hours[p] = now - arrival_time[p];
                        } else {
                            still_pending.push(p);
                        }
                    }
                    pending = still_pending;
                }
            }
        }

        let n = jobs.len().max(1) as f64;
        let mean_utilization = if makespan > 0.0 {
            sites.iter().map(|s| s.utilization(makespan)).sum::<f64>() / sites.len().max(1) as f64
        } else {
            0.0
        };
        SimReport {
            policy: config.policy.name().to_string(),
            completed,
            makespan_hours: makespan,
            mean_wait_hours: wait_hours.iter().sum::<f64>() / n,
            mean_transfer_hours: transfer_hours.iter().sum::<f64>() / n,
            wan_bytes,
            mean_utilization,
        }
    }
}

/// Simulator throughput (the planetary-scale htcsim tentpole), in two cuts:
///
/// * `htcsim_throughput_queue_<N>` — the calendar queue vs the seed
///   `BinaryHeap` scheduler (`baseline_kind: "binary_heap"`) under the
///   classic "hold" model (N pop→push transitions at a steady queue size),
///   the access pattern of a discrete-event simulation;
/// * `htcsim_throughput_sim_<N>` — a full N-job simulation through today's
///   path (arena SoA storage, interned dataset/site ids, allocation-free
///   event loop, calendar queue) vs the frozen [`seed_sim`] loop
///   (`baseline_kind: "seed_sim_loop"`), with the two `SimReport`s asserted
///   equal inside the harness (the byte-identity pin).
///
/// Both are single-threaded f64 entries gated at 1.0x by `--check` like
/// every other unsuffixed entry.
fn htcsim_benches(quick: bool) -> Vec<KernelBench> {
    use htcsim::{
        CalendarQueue, EventKind, EventScheduler, GridSimulator, HeapQueue, JobArena, SimConfig,
        SimJob,
    };
    use pandasim::SiteCatalog;

    // Classic "hold" benchmark for DES priority queues: prime the queue
    // with `n` events, then run pop→push transitions where each push lands
    // at the popped time plus a service increment — a discrete-event steady
    // state, in which (like the simulator) nothing is ever scheduled behind
    // the clock. Increments mix WAN-latency transfer completions, job
    // runtimes and far-future stragglers.
    fn hold<Q: EventScheduler>(n: usize, transitions: usize) -> f64 {
        let mut queue = Q::default();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64, state)
        };
        for i in 0..n {
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

    // Synthetic planetary workload at a subcritical load factor (constant
    // ~150 jobs/hour against the catalogue's slot capacity, so the pending
    // queue stays bounded and the run measures steady-state throughput,
    // not backlog pathology).
    fn synthetic_jobs(n_jobs: usize, n_sites: usize) -> (SiteCatalog, Vec<SimJob>) {
        let catalog = SiteCatalog::atlas_like(n_sites);
        let site_names: Vec<String> = catalog.sites().iter().map(|s| s.name.clone()).collect();
        let mut jobs = Vec::with_capacity(n_jobs);
        let mut state = 0x2545f4914f6cdd1du64;
        for i in 0..n_jobs {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            jobs.push(SimJob {
                arrival_hours: unit * (n_jobs as f64 / 150.0),
                cores: if i % 7 == 0 { 8 } else { 4 },
                cpu_hours: 0.5 + unit * 6.0,
                dataset: format!("ds{}", state % 512),
                input_bytes: (state % 1_000) as f64 * 1e9,
                origin_site: Some(site_names[(state % site_names.len() as u64) as usize].clone()),
            });
        }
        (catalog, jobs)
    }

    let mut entries = Vec::new();

    // Deep queues are where the calendar's flat cost structurally beats the
    // heap's `O(log n)` (the margin at shallow sizes is noise-level), so the
    // gate holds the queue at planetary depth: hundreds of thousands of
    // in-flight events.
    let (n_held, transitions) = if quick {
        (200_000, 400_000)
    } else {
        (500_000, 1_000_000)
    };
    let (reps, inner) = if quick { (5, 1) } else { (7, 2) };
    let new_ns = time_ns(reps, inner, || {
        std::hint::black_box(hold::<CalendarQueue>(n_held, transitions));
    });
    let base_ns = time_ns(reps, inner, || {
        std::hint::black_box(hold::<HeapQueue>(n_held, transitions));
    });
    entries.push(kernel_entry_tiered(
        &format!("htcsim_throughput_queue_{transitions}"),
        "binary_heap",
        1,
        "f64",
        new_ns,
        base_ns,
    ));

    let n_jobs = if quick { 10_000 } else { 50_000 };
    let (catalog, jobs) = synthetic_jobs(n_jobs, 40);
    let config = SimConfig::default();
    // Correctness pin inside the timed harness: today's arena/calendar path
    // must reproduce the seed loop's physics exactly on this workload.
    let new_report = {
        let arena = JobArena::from_jobs(&jobs);
        let mut simulator = GridSimulator::new(&catalog, config.clone());
        simulator.run_arena(&arena)
    };
    let seed_report = seed_sim::run(&catalog, &config, &jobs);
    assert_eq!(
        serde_json::to_string(&new_report).expect("report serializes"),
        serde_json::to_string(&seed_report).expect("report serializes"),
        "arena/calendar simulator diverged from the seed loop on the throughput workload"
    );
    let sreps = if quick { 3 } else { 5 };
    // Arena construction (string interning) is timed as part of the new
    // path: it is the real cost of entering SoA storage from `SimJob`s.
    let new_ns = time_ns(sreps, 1, || {
        let arena = JobArena::from_jobs(&jobs);
        let mut simulator = GridSimulator::new(&catalog, config.clone());
        std::hint::black_box(simulator.run_arena(&arena));
    });
    let base_ns = time_ns(sreps, 1, || {
        std::hint::black_box(seed_sim::run(&catalog, &config, &jobs));
    });
    entries.push(kernel_entry_tiered(
        &format!("htcsim_throughput_sim_{n_jobs}"),
        "seed_sim_loop",
        1,
        "f64",
        new_ns,
        base_ns,
    ));

    entries
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
        "f64",
        new_ns,
        base_ns,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perf_report: {e}");
            eprintln!(
                "usage: perf_report [--quick] [--check] [--out PATH] \
                 [--threads N] [--dtype f32|f64]"
            );
            std::process::exit(2);
        }
    };
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
    kernels.extend(ladder_benches(quick, opts.dtype));
    eprintln!("perf_report: timing htcsim calendar queue vs binary heap...");
    kernels.extend(htcsim_benches(quick));
    eprintln!("perf_report: timing micro-batched serving (64 x 4-row TVAE sample requests)...");
    kernels.push(serve_batching_bench(quick));
    for k in &kernels {
        eprintln!(
            "  {:<36} new {:>12.0} ns   {:<16} {:>12.0} ns   speedup {:.2}x  [t{} {}]",
            k.name, k.new_ns, k.baseline_kind, k.baseline_ns, k.speedup, k.threads, k.dtype
        );
    }

    let mut epochs = Vec::new();
    eprintln!("perf_report: timing TabDDPM fast-config epoch...");
    let tabddpm_epoch = tabddpm_epoch_bench(quick);
    epochs.push(("tabddpm_epoch", &tabddpm_epoch, 2.0));
    eprintln!("perf_report: timing CTABGAN+ fast-config epoch (fused vs unfused)...");
    let ctabgan_epoch = ctabgan_epoch_bench(quick);
    epochs.push(("ctabgan_epoch", &ctabgan_epoch, 1.0));
    eprintln!("perf_report: timing TVAE fast-config epoch...");
    let tvae_epoch = tvae_epoch_bench(quick);
    epochs.push(("tvae_epoch", &tvae_epoch, 1.0));
    for (name, epoch, target) in &epochs {
        eprintln!(
            "  {:<14} ({} rows)  new {:>9.1} ms   baseline {:>9.1} ms   speedup {:.2}x  [{}]",
            name,
            epoch.rows,
            epoch.new_epoch_ms,
            epoch.baseline_epoch_ms,
            epoch.speedup,
            epoch.baseline_kind
        );
        if epoch.speedup < *target {
            eprintln!(
                "warning: {name} speedup {:.2}x is below the {target}x target for this host/run",
                epoch.speedup
            );
        }
    }

    let report = Report {
        schema_version: 3,
        generated_by: "bench::perf_report".to_string(),
        quick,
        threads: rayon::current_num_threads(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd_tier: nn::active_tier().name().to_string(),
        kernels,
        tabddpm_epoch,
        ctabgan_epoch,
        tvae_epoch,
    };
    let json = serde_json::to_string_pretty(&report).expect("render report");
    std::fs::write(&out_path, json + "\n").expect("write report");

    match validate(&out_path) {
        Ok(()) => eprintln!("perf_report: wrote and validated {out_path}"),
        Err(e) => {
            eprintln!("perf_report: emitted {out_path} failed validation: {e}");
            std::process::exit(1);
        }
    }

    if check {
        let offending = kernel_regressions(&report.kernels, report.host_cores);
        if offending.is_empty() {
            eprintln!("perf_report: regression check passed (all gated kernels >= 1.0x)");
        } else {
            eprintln!(
                "perf_report: REGRESSION — kernels slower than their frozen baseline: {}",
                offending.join(", ")
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report() -> Report {
        let epoch = |kind: &str| EpochBench {
            baseline_kind: kind.to_string(),
            rows: 512,
            epochs_timed: 2,
            new_epoch_ms: 10.0,
            baseline_epoch_ms: 25.0,
            speedup: 2.5,
        };
        Report {
            schema_version: 3,
            generated_by: "bench::perf_report".to_string(),
            quick: true,
            threads: 1,
            host_cores: 4,
            simd_tier: "avx2".to_string(),
            kernels: vec![kernel_entry_tiered(
                "matmul_64x64x64",
                "seed_reference",
                1,
                "f64",
                100.0,
                250.0,
            )],
            tabddpm_epoch: epoch("seed_epoch_loop"),
            ctabgan_epoch: epoch("unfused_discriminator_double_step"),
            tvae_epoch: epoch("seed_epoch_loop"),
        }
    }

    #[test]
    fn report_round_trips_through_the_typed_parser() {
        let report = toy_report();
        let text = serde_json::to_string_pretty(&report).unwrap();
        let parsed = validate_text(&text).expect("valid report parses");
        assert_eq!(parsed.simd_tier, "avx2");
        assert_eq!(parsed.kernels.len(), 1);
        assert_eq!(parsed.kernels[0].speedup, 2.5);
        assert_eq!(parsed.tabddpm_epoch.rows, 512);
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

        // Structural invariants past the parse: empty kernel list,
        // non-positive and non-finite timings.
        let mut bad = toy_report();
        bad.kernels.clear();
        assert!(validate_text(&serde_json::to_string(&bad).unwrap()).is_err());
        let mut bad = toy_report();
        bad.kernels[0].speedup = 0.0;
        assert!(validate_text(&serde_json::to_string(&bad).unwrap()).is_err());
        let mut bad = toy_report();
        // NaN serializes as null, so the typed parse itself rejects it.
        bad.tvae_epoch.speedup = f64::NAN;
        assert!(validate_text(&serde_json::to_string(&bad).unwrap()).is_err());
    }

    #[test]
    fn kernel_regressions_flags_only_sub_one_speedups() {
        let kernels = vec![
            kernel_entry_tiered("fast", "seed_reference", 1, "f64", 100.0, 250.0),
            kernel_entry_tiered("slow", "seed_reference", 1, "f64", 300.0, 250.0),
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
                "f64",
                300.0,
                250.0,
            ),
            // A slow f32 rung is never exempt — it is a sequential tier.
            kernel_entry_tiered(
                "matmul_packed_512x512x512_f32",
                "packed_f64",
                1,
                "f32",
                300.0,
                250.0,
            ),
        ];
        let on_one_core = kernel_regressions(&kernels, 1);
        assert_eq!(on_one_core.len(), 1, "{on_one_core:?}");
        assert!(on_one_core[0].contains("_f32"));
        let on_many = kernel_regressions(&kernels, 8);
        assert_eq!(on_many.len(), 2, "{on_many:?}");
    }

    #[test]
    fn name_conventions_pin_tier_suffixes_to_fields() {
        // The committed-artifact shapes all pass.
        for entry in [
            kernel_entry_tiered(
                "matmul_packed_512x512x512_t4",
                "seq_own_dtype",
                4,
                "f64",
                1.0,
                2.0,
            ),
            kernel_entry_tiered(
                "matmul_packed_512x512x512_t4_f32",
                "seq_own_dtype",
                4,
                "f32",
                1.0,
                2.0,
            ),
            kernel_entry_tiered(
                "matmul_packed_512x512x512_f32",
                "packed_f64",
                1,
                "f32",
                1.0,
                2.0,
            ),
            kernel_entry_tiered(
                "mlp_infer_512x128x256x256x64_f32",
                "mlp_infer_f64",
                1,
                "f32",
                1.0,
                2.0,
            ),
            kernel_entry_tiered("matmul_64x64x64", "seed_reference", 1, "f64", 1.0, 2.0),
            kernel_entry_tiered("matmul_packed_512x512x512", "pr2_tiled", 4, "f64", 1.0, 2.0),
        ] {
            check_name_conventions(&entry).unwrap_or_else(|e| panic!("{e}"));
        }
        // Mismatches are rejected: f32 name with f64 dtype, _tN against a
        // frozen baseline, thread-count disagreement, and a seq_own_dtype
        // entry hiding under an unsuffixed name.
        for bad in [
            kernel_entry_tiered(
                "matmul_packed_512x512x512_f32",
                "packed_f64",
                1,
                "f64",
                1.0,
                2.0,
            ),
            kernel_entry_tiered(
                "matmul_packed_512x512x512_t4",
                "pr2_tiled",
                4,
                "f64",
                1.0,
                2.0,
            ),
            kernel_entry_tiered(
                "matmul_packed_512x512x512_t4",
                "seq_own_dtype",
                2,
                "f64",
                1.0,
                2.0,
            ),
            kernel_entry_tiered(
                "matmul_packed_512x512x512",
                "seq_own_dtype",
                4,
                "f64",
                1.0,
                2.0,
            ),
        ] {
            assert!(check_name_conventions(&bad).is_err(), "{}", bad.name);
        }
    }

    #[test]
    fn thread_suffix_parses_ladder_names_only() {
        assert_eq!(name_thread_suffix("matmul_packed_512x512x512_t4"), Some(4));
        assert_eq!(
            name_thread_suffix("matmul_packed_4096x64x256_t16_f32"),
            Some(16)
        );
        assert_eq!(name_thread_suffix("matmul_packed_512x512x512"), None);
        assert_eq!(name_thread_suffix("matmul_packed_512x512x512_f32"), None);
        assert_eq!(name_thread_suffix("at_b_256x128_x_256x64"), None);
        assert_eq!(name_thread_suffix("transpose_512x384"), None);
    }

    #[test]
    fn parse_args_accepts_the_documented_flags() {
        let to_vec = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let opts = parse_args(&to_vec(&[
            "--quick",
            "--check",
            "--out",
            "x.json",
            "--threads",
            "4",
            "--dtype",
            "f32",
        ]))
        .unwrap();
        assert!(opts.quick && opts.check);
        assert_eq!(opts.out, "x.json");
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.dtype, DtypeFilter::F32);
        // Defaults.
        let opts = parse_args(&[]).unwrap();
        assert!(!opts.quick && !opts.check);
        assert_eq!(opts.out, "BENCH_nn.json");
        assert_eq!(opts.threads, None);
        assert_eq!(opts.dtype, DtypeFilter::Both);
        assert!(opts.dtype.includes_f32() && opts.dtype.includes_f64());
    }

    #[test]
    fn parse_args_rejects_garbage_without_panicking() {
        let to_vec = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        for bad in [
            &["--threads"][..],
            &["--threads", "zero"][..],
            &["--threads", "0"][..],
            &["--threads", "-2"][..],
            &["--dtype"][..],
            &["--dtype", "f16"][..],
            &["--out"][..],
            &["--frobnicate"][..],
        ] {
            let err = parse_args(&to_vec(bad)).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
    }
}
