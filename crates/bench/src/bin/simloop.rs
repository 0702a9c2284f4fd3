//! Surrogate-in-sim fidelity harness: the paper's headline claim, measured
//! in-repo.
//!
//! Loads a fitted checkpoint (`surrogate::checkpoint`), samples a synthetic
//! workload table from it, reconstructs the exact ground-truth training
//! workload the checkpoint was fitted on (the data pipeline is a pure
//! function of the generator config), and drives the `htcsim` grid
//! simulator with both — under every brokerage policy — recording
//! time-resolved traces. The artifact is a side-by-side comparison of
//! surrogate-driven vs real-trace-driven simulation outcomes: queue depth
//! over time, per-site utilisation, makespan, and transfer hours, plus
//! scalar fidelity deltas per policy.
//!
//! Everything is seeded and wall-clock-free, so two runs with the same
//! flags produce byte-identical artifacts (CI diffs them), and the artifact
//! is read back **typed** after writing as a schema check.
//!
//! ```text
//! sweep --quick --strict --checkpoint-dir ckpts          # produce checkpoints
//! simloop --checkpoint-dir ckpts --model smote --seed 2025 \
//!         --out SIMLOOP.json --max-rel-delta 0.5         # compare + gate
//! ```
//!
//! With `--max-rel-delta X`, every relative fidelity delta (makespan,
//! transfer, WAN, queue-depth shape) and every absolute utilisation delta
//! must stay within X for every policy, or the run exits non-zero — the
//! `sim-fidelity-matrix` CI gate.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use bench::cli::{Command, Positive};
use htcsim::{BrokerPolicy, GridSimulator, JobArena, SimConfig, SimReport, SimTrace};
use pandasim::GeneratorConfig;
use serde::{Deserialize, Serialize};
use surrogate::checkpoint::{Checkpoint, CheckpointRegistry};
use surrogate::experiment::try_prepare_data_from_config;
use surrogate::{ModelKind, TrainingBudget};

const SCHEMA_VERSION: u32 = 1;

const CLI: Command = Command {
    name: "simloop",
    about: "surrogate-in-sim fidelity harness (surrogate vs ground-truth workloads)",
    flags: "
usage: simloop --checkpoint-dir DIR [FLAGS]

flags:
  --checkpoint-dir DIR   directory of *.ckpt artifacts (required; see
                         `sweep --checkpoint-dir`)
  --model NAME           checkpoint model: tvae, ctabgan, smote, tabddpm
                         (default smote)
  --seed N               checkpoint seed axis value (default 2025)
  --budget NAME          checkpoint training budget (default smoke)
  --preset NAME          checkpoint generator preset (default small)
  --gross N              gross generator records used to rebuild the
                         ground-truth workload, N >= 1; must match what the
                         sweep fitted on (default 2500 = `sweep --quick`)
  --rows N               synthetic rows to sample, N >= 1 (default:
                         ground-truth training-split size)
  --sample-seed N        RNG seed of the surrogate sampling pass (default 7)
  --bins N               queue-depth bins per trace, N >= 1 (default 24)
  --slot-fraction F      simulator slot fraction, F > 0 (default 0.02)
  --max-rel-delta X      gate, X > 0: exit non-zero unless every relative
                         fidelity delta and absolute utilisation delta is <= X
  --out PATH             JSON artifact path (default SIMLOOP.json)
",
    operands: false,
};

/// Scalar fidelity deltas between the surrogate-driven and ground-truth
/// simulation outcomes of one policy. Relative deltas use the bounded
/// symmetric form `|a-b| / max(|a|, |b|, 1e-9)` (0 = identical, 1 = one
/// side is negligible next to the other).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FidelityDeltas {
    /// Relative makespan delta.
    makespan_rel: f64,
    /// Absolute mean-wait delta, in hours.
    mean_wait_abs_hours: f64,
    /// Relative mean-transfer-hours delta.
    transfer_rel: f64,
    /// Relative WAN-bytes delta.
    wan_rel: f64,
    /// Absolute mean-utilisation delta (both sides are in [0, 1]).
    utilization_abs: f64,
    /// Mean absolute queue-depth difference across bins, normalised by the
    /// larger of the two peak depths — a [0, 1] shape-fidelity score of
    /// queueing over time.
    queue_depth_l1: f64,
}

fn sym_rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-9)
}

impl FidelityDeltas {
    fn compare(gt: &SimOutcome, surrogate: &SimOutcome) -> Self {
        let g = &gt.report;
        let s = &surrogate.report;
        let peak = gt
            .trace
            .queue_depth
            .iter()
            .chain(&surrogate.trace.queue_depth)
            .cloned()
            .fold(0.0f64, f64::max);
        let bins = gt.trace.queue_depth.len().max(1) as f64;
        let queue_depth_l1 = gt
            .trace
            .queue_depth
            .iter()
            .zip(&surrogate.trace.queue_depth)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / bins
            / peak.max(1e-9);
        Self {
            makespan_rel: sym_rel(g.makespan_hours, s.makespan_hours),
            mean_wait_abs_hours: (g.mean_wait_hours - s.mean_wait_hours).abs(),
            transfer_rel: sym_rel(g.mean_transfer_hours, s.mean_transfer_hours),
            wan_rel: sym_rel(g.wan_bytes, s.wan_bytes),
            utilization_abs: (g.mean_utilization - s.mean_utilization).abs(),
            queue_depth_l1,
        }
    }

    /// The deltas the `--max-rel-delta` gate checks, with labels.
    fn gated(&self) -> [(&'static str, f64); 5] {
        [
            ("makespan_rel", self.makespan_rel),
            ("transfer_rel", self.transfer_rel),
            ("wan_rel", self.wan_rel),
            ("utilization_abs", self.utilization_abs),
            ("queue_depth_l1", self.queue_depth_l1),
        ]
    }
}

/// One side of a comparison: the aggregate report plus its trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SimOutcome {
    report: SimReport,
    trace: SimTrace,
}

/// Side-by-side outcome of one brokerage policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PolicyComparison {
    policy: String,
    gt: SimOutcome,
    surrogate: SimOutcome,
    fidelity: FidelityDeltas,
    /// Present when `--max-rel-delta` was given: whether every gated delta
    /// of this policy stayed within the bound.
    within_bounds: Option<bool>,
}

/// The surrogate-vs-trace fidelity artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SimloopArtifact {
    schema_version: u32,
    checkpoint_key: String,
    model: String,
    preset: String,
    seed: u64,
    budget: String,
    gross_records: usize,
    gt_rows: usize,
    surrogate_rows: usize,
    sample_seed: u64,
    bins: usize,
    slot_fraction: f64,
    max_rel_delta: Option<f64>,
    policies: Vec<PolicyComparison>,
    /// True when every policy stayed within bounds (vacuously true without
    /// a gate).
    ok: bool,
}

fn main() {
    let args = CLI.parse();
    let checkpoint_dir = CLI.check(
        args.text("--checkpoint-dir")
            .ok_or("--checkpoint-dir is required"),
    );
    let model = CLI
        .check(args.value_with("--model", |name| ModelKind::parse(name).ok_or("")))
        .unwrap_or(ModelKind::Smote);
    let seed = CLI.check(args.value("--seed")).unwrap_or(2025);
    let budget = CLI
        .check(args.value_with("--budget", |name| TrainingBudget::parse(name).ok_or("")))
        .unwrap_or(TrainingBudget::Smoke);
    let preset = args.text("--preset").map_or("small", str::trim);
    let mut config = CLI
        .check(args.value_with("--preset", |name| GeneratorConfig::preset(name).ok_or("")))
        .unwrap_or_else(GeneratorConfig::small);
    let gross = CLI
        .check(args.value("--gross"))
        .map_or(2_500, NonZeroUsize::get);
    let rows: Option<NonZeroUsize> = CLI.check(args.value("--rows"));
    let sample_seed = CLI.check(args.value("--sample-seed")).unwrap_or(7);
    let bins = CLI
        .check(args.value("--bins"))
        .map_or(24, NonZeroUsize::get);
    let slot_fraction = CLI
        .check(args.value("--slot-fraction"))
        .map_or(0.02, |Positive(f)| f);
    let max_rel_delta = CLI
        .check(args.value("--max-rel-delta"))
        .map(|Positive(x)| x);
    let out = PathBuf::from(args.text("--out").unwrap_or("SIMLOOP.json"));

    // 1. Load the checkpoint.
    let registry = CheckpointRegistry::load_dir(Path::new(&checkpoint_dir))
        .unwrap_or_else(|e| CLI.fail(format!("cannot scan '{checkpoint_dir}': {e}")));
    for q in &registry.quarantined {
        eprintln!(
            "simloop: warning: quarantined checkpoint '{}': {}",
            q.file, q.error
        );
    }
    let checkpoint: &Checkpoint = registry
        .entries
        .iter()
        .find(|c| c.model == model && c.seed == seed && c.budget == budget && c.preset == preset)
        .unwrap_or_else(|| {
            CLI.fail(format!(
                "no checkpoint for model={} seed={seed} budget={} preset={preset} in \
                 '{checkpoint_dir}' ({} loadable entries)",
                model.name(),
                budget.name(),
                registry.entries.len()
            ))
        });
    println!("simloop: loaded checkpoint {}", checkpoint.key());

    // 2. Rebuild the exact ground-truth workload the checkpoint was fitted
    //    on: the data pipeline is a pure function of the generator config.
    config.seed = seed;
    config.gross_records = gross;
    let data = try_prepare_data_from_config(&config)
        .unwrap_or_else(|e| CLI.fail(format_args!("cannot prepare the dataset: {e}")));
    let gt_rows = data.train.n_rows();

    // 3. Sample the surrogate workload from the checkpoint.
    let synthetic = checkpoint
        .sample(rows.map_or(gt_rows, NonZeroUsize::get), sample_seed)
        .unwrap_or_else(|e| CLI.fail(format!("checkpoint sampling failed: {e}")));
    println!(
        "simloop: ground truth {gt_rows} jobs vs surrogate {} jobs (sample seed {sample_seed})",
        synthetic.n_rows()
    );

    // 4. Both workloads into arenas (typed errors name the broken column).
    let gt_arena = JobArena::from_table(&data.train)
        .unwrap_or_else(|e| CLI.fail(format!("ground-truth workload: {e}")));
    let surrogate_arena = JobArena::from_table(&synthetic)
        .unwrap_or_else(|e| CLI.fail(format!("surrogate workload: {e}")));

    // 5. Side-by-side traced runs under every brokerage policy.
    let sites = data.generator.sites();
    let mut policies = Vec::new();
    let mut all_ok = true;
    for policy in BrokerPolicy::ALL {
        let sim_config = SimConfig {
            policy,
            slot_fraction,
            ..SimConfig::default()
        };
        let run = |arena: &JobArena| -> SimOutcome {
            let mut simulator = GridSimulator::new(sites, sim_config.clone());
            let (report, trace) = simulator.run_arena_traced(arena, bins);
            SimOutcome { report, trace }
        };
        let gt = run(&gt_arena);
        let surrogate = run(&surrogate_arena);
        let fidelity = FidelityDeltas::compare(&gt, &surrogate);
        let within_bounds =
            max_rel_delta.map(|bound| fidelity.gated().iter().all(|(_, delta)| *delta <= bound));
        let verdict = match within_bounds {
            Some(true) => " => OK",
            Some(false) => " => FAIL",
            None => "",
        };
        println!(
            "simloop: policy={} makespan_rel={:.4} wait_abs={:.4}h transfer_rel={:.4} \
             wan_rel={:.4} util_abs={:.4} queue_l1={:.4}{verdict}",
            policy.name(),
            fidelity.makespan_rel,
            fidelity.mean_wait_abs_hours,
            fidelity.transfer_rel,
            fidelity.wan_rel,
            fidelity.utilization_abs,
            fidelity.queue_depth_l1,
        );
        if let (Some(false), Some(bound)) = (within_bounds, max_rel_delta) {
            for (label, delta) in fidelity.gated() {
                if delta > bound {
                    eprintln!(
                        "simloop: policy={} delta {label}={delta:.4} exceeds bound {bound}",
                        policy.name()
                    );
                }
            }
            all_ok = false;
        }
        policies.push(PolicyComparison {
            policy: policy.name().to_string(),
            gt,
            surrogate,
            fidelity,
            within_bounds,
        });
    }

    // 6. Write the artifact, then read it back typed as a schema check.
    let artifact = SimloopArtifact {
        schema_version: SCHEMA_VERSION,
        checkpoint_key: checkpoint.key(),
        model: model.name().to_string(),
        preset: preset.to_string(),
        seed,
        budget: budget.name().to_string(),
        gross_records: gross,
        gt_rows,
        surrogate_rows: synthetic.n_rows(),
        sample_seed,
        bins,
        slot_fraction,
        max_rel_delta,
        policies,
        ok: all_ok,
    };
    let rendered = serde_json::to_string_pretty(&artifact).expect("artifact serializes") + "\n";
    CLI.write(&out, &rendered);
    let read_back = std::fs::read_to_string(&out)
        .unwrap_or_else(|e| CLI.fail(format!("cannot re-read '{}': {e}", out.display())));
    let parsed: SimloopArtifact = serde_json::from_str(&read_back)
        .unwrap_or_else(|e| CLI.fail(format!("artifact failed typed validation: {e}")));
    if parsed != artifact {
        CLI.fail("artifact round-trip produced a different value");
    }
    println!(
        "simloop: wrote {} ({} policies, ok={})",
        out.display(),
        artifact.policies.len(),
        artifact.ok
    );
    if !all_ok {
        CLI.fail("fidelity deltas exceed --max-rel-delta bound");
    }
}
