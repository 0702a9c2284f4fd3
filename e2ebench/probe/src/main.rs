//! In-process helper of the end-to-end benchmark (`e2ebench/run.py`).
//!
//! ```text
//! e2ebench-probe tier
//! e2ebench-probe chain                  # one timed xorshift chain per stdin line
//! e2ebench-probe fit --dir D --preset small --gross 2500 --seed 2024 --budget smoke \
//!                    --models tvae,ctabgan,smote,tabddpm
//! e2ebench-probe trace table1 --rows 3000 --budget standard --seed 2024
//! e2ebench-probe trace serve --dir D --requests 100 --rows 64 --sample-seed 99
//! e2ebench-probe trace simloop --dir D --model tabddpm --preset small --gross 40000 \
//!                    --seed 2024 --budget smoke --sample-seed 99
//! ```
//!
//! `fit` prepares the inputs of the serve and simloop workloads: it fits
//! checkpoints exactly as `sweep --checkpoint-dir` does (same data pipeline,
//! same model construction) before anything is timed.
//!
//! `trace` is the per-layer run. It calls each layer's public functions one
//! at a time, in the order the binary of that workload calls them, and wraps
//! each call in a span (name, start, end, parent). Spans stay in memory and
//! are printed at exit as one JSON line, together with the work counts the
//! layers report. The spans live here, around the calls into the layers,
//! not inside the program under test.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

use htcsim::{BrokerPolicy, GridSimulator, JobArena, SimConfig};
use metrics::{
    diff_corr, distance_to_closest_record, mean_jsd, mean_wasserstein, mlef_mse, EvaluationConfig,
};
use serde::Serialize;
use surrogate::checkpoint::{Checkpoint, CheckpointRegistry};
use surrogate::experiment::{prepare_data, prepare_data_from_config, ExperimentOptions};
use surrogate::{build_model, build_payload, FitControl, ModelKind, SampleSpec, TrainingBudget};
use tabular::Table;

/// Queue-depth bins and slot fraction `simloop` runs with by default.
const SIM_BINS: usize = 24;
const SIM_SLOT_FRACTION: f64 = 0.02;

fn fail(message: &str) -> ! {
    eprintln!("e2ebench-probe: {message}");
    exit(1);
}

fn usage(message: &str) -> ! {
    eprintln!("e2ebench-probe: {message}");
    exit(2);
}

/// `--key value` flags; every flag takes a value and unknown ones are refused.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Self {
        if !args.len().is_multiple_of(2) {
            usage("every flag takes one value");
        }
        let pairs: Vec<(String, String)> = args
            .chunks(2)
            .map(|pair| (pair[0].clone(), pair[1].clone()))
            .collect();
        for (key, _) in &pairs {
            if !known.contains(&key.as_str()) {
                usage(&format!("unknown flag '{key}'"));
            }
        }
        Flags(pairs)
    }

    fn text(&self, key: &str) -> String {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| usage(&format!("{key} is required")))
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> T {
        let text = self.text(key);
        text.parse()
            .unwrap_or_else(|_| usage(&format!("bad {key} '{text}'")))
    }

    fn budget(&self) -> TrainingBudget {
        let text = self.text("--budget");
        TrainingBudget::parse(&text).unwrap_or_else(|| usage(&format!("bad --budget '{text}'")))
    }
}

fn model_kind(name: &str) -> ModelKind {
    ModelKind::parse(name).unwrap_or_else(|| usage(&format!("unknown model '{name}'")))
}

/// Lower-case model key used in span and metric names (`ctabgan`, not
/// `CTABGAN+`).
fn slug(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Tvae => "tvae",
        ModelKind::CtabGan => "ctabgan",
        ModelKind::Smote => "smote",
        ModelKind::TabDdpm => "tabddpm",
    }
}

/// One call into a layer: seconds since the trace began, and the index of
/// the enclosing span.
#[derive(Serialize)]
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// What `trace` prints at exit. Counts are named as the benchmark's
/// per-layer metrics; a non-finite one prints as `null`.
#[derive(Serialize)]
struct Report {
    spans: Vec<Span>,
    counts: BTreeMap<String, f64>,
}

/// In-memory span recorder. `span` nests: a span opened inside another's
/// closure records it as its parent.
struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn span<T>(&mut self, name: impl Into<String>, body: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    fn count(&mut self, name: impl Into<String>, value: f64) {
        self.counts.insert(name.into(), value);
    }

    fn into_json(self) -> String {
        let report = Report {
            spans: self.spans,
            counts: self.counts,
        };
        serde_json::to_string(&report).expect("trace report serializes")
    }
}

fn load_registry(dir: &str) -> CheckpointRegistry {
    let registry = CheckpointRegistry::load_dir(Path::new(dir))
        .unwrap_or_else(|e| fail(&format!("cannot load checkpoints from '{dir}': {e}")));
    if registry.is_degraded() {
        fail(&format!("quarantined checkpoints in '{dir}'"));
    }
    registry
}

fn find(registry: &CheckpointRegistry, kind: ModelKind) -> &Checkpoint {
    registry
        .entries
        .iter()
        .find(|c| c.model == kind)
        .unwrap_or_else(|| fail(&format!("no {} checkpoint", kind.name())))
}

/// Fit checkpoints on the preset's training split, as `sweep
/// --checkpoint-dir` does for one (seed, budget, preset) cell per model.
fn fit(flags: &Flags) {
    let dir = flags.text("--dir");
    let preset = flags.text("--preset");
    let seed: u64 = flags.number("--seed");
    let budget = flags.budget();
    let mut config = pandasim::GeneratorConfig::preset(&preset)
        .unwrap_or_else(|| usage(&format!("unknown --preset '{preset}'")));
    config.seed = seed;
    config.gross_records = flags.number("--gross");
    let data = prepare_data_from_config(&config);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("cannot create '{dir}': {e}")));
    for name in flags.text("--models").split(',') {
        let kind = model_kind(name);
        let mut payload = build_payload(kind, budget, seed);
        payload
            .generator_mut()
            .fit(&data.train)
            .unwrap_or_else(|e| fail(&format!("{} fit failed: {e}", kind.name())));
        Checkpoint::new(&preset, seed, budget, payload)
            .save_to_dir(Path::new(&dir))
            .unwrap_or_else(|e| fail(&format!("{} save failed: {e}", kind.name())));
    }
    println!(
        "fitted {} on {} train rows",
        flags.text("--models"),
        data.train.n_rows()
    );
}

/// `table1`: prepare → fit and sample each model (`fit_all`) → evaluate
/// each model (`evaluate_surrogate`, MLEF(train → test) included per model).
fn trace_table1(trace: &mut Trace, flags: &Flags) {
    let budget = flags.budget();
    let seed: u64 = flags.number("--seed");
    let options = ExperimentOptions {
        gross_records: flags.number("--rows"),
        budget,
        seed,
        ..ExperimentOptions::default()
    };
    let data = trace.span("pandasim.prepare", |_| prepare_data(&options));
    let (train, test) = (&data.train, &data.test);
    trace.count("data.train_rows", train.n_rows() as f64);
    trace.count("data.test_rows", test.n_rows() as f64);

    let mut synthetic: Vec<(ModelKind, Table)> = Vec::new();
    for kind in ModelKind::ALL {
        let mut model = build_model(kind, budget, seed);
        trace
            .span(format!("{}.fit", slug(kind)), |_| {
                model.fit_with_control(train, &FitControl::unlimited())
            })
            .unwrap_or_else(|e| fail(&format!("{} fit failed: {e}", kind.name())));
        let table = trace
            .span(format!("{}.sample", slug(kind)), |_| {
                model.sample(train.n_rows(), seed.wrapping_add(1))
            })
            .unwrap_or_else(|e| fail(&format!("{} sample failed: {e}", kind.name())));
        synthetic.push((kind, table));
    }
    let rows: usize = synthetic.iter().map(|(_, t)| t.n_rows()).sum();
    trace.count("data.synthetic_rows", rows as f64);

    let config = EvaluationConfig::paper();
    let mlef = config
        .mlef
        .clone()
        .expect("the paper configuration runs MLEF");
    let mut dcr_pairs = 0usize;
    for (kind, table) in &synthetic {
        let (wd, jsd, corr) = trace.span("metrics.marginals", |_| {
            (
                mean_wasserstein(train, table),
                mean_jsd(train, table),
                diff_corr(train, table),
            )
        });
        let (wd, jsd) = match (wd, jsd) {
            (Ok(wd), Ok(jsd)) => (wd, jsd),
            _ => fail(&format!("{} marginals failed", kind.name())),
        };
        let dcr = trace.span("metrics.dcr", |_| {
            distance_to_closest_record(train, table, config.dcr)
        });
        dcr_pairs += table.n_rows().min(config.dcr.max_synthetic_rows)
            * train.n_rows().min(config.dcr.max_train_rows);
        let base = trace.span("mlef.base", |_| mlef_mse(train, test, &mlef));
        let synth = trace.span("mlef.synthetic", |_| mlef_mse(table, test, &mlef));
        let key = slug(*kind);
        trace.count(format!("{key}.wd"), wd);
        trace.count(format!("{key}.jsd"), jsd);
        trace.count(format!("{key}.diff_corr"), corr);
        trace.count(format!("{key}.dcr"), dcr);
        trace.count(format!("{key}.diff_mlef"), synth - base);
    }
    trace.count("metrics.dcr_pairs", dcr_pairs as f64);
}

/// `serve`: load the registry, then answer one-spec requests per model
/// through `Checkpoint::sample_batch` and digest each table as a sample
/// response does (canonical JSON rendering, then FNV-1a).
fn trace_serve(trace: &mut Trace, flags: &Flags) {
    let dir = flags.text("--dir");
    let requests: u64 = flags.number("--requests");
    let rows: usize = flags.number("--rows");
    let sample_seed: u64 = flags.number("--sample-seed");
    let registry = trace.span("checkpoint.load", |_| load_registry(&dir));
    let mut served = 0usize;
    for kind in ModelKind::ALL {
        let checkpoint = find(&registry, kind);
        for i in 0..requests {
            let spec = SampleSpec::new(rows, sample_seed.wrapping_add(i));
            let tables = trace
                .span(format!("{}.request", slug(kind)), |_| {
                    checkpoint.sample_batch(&[spec])
                })
                .unwrap_or_else(|e| fail(&format!("{} sample failed: {e}", kind.name())));
            let digest = trace.span("serve.digest", |_| {
                let rendered = serde_json::to_string(&tables[0]).expect("table serializes");
                surrogate::fnv1a_hex(rendered.as_bytes())
            });
            std::hint::black_box(digest);
            if tables[0].n_rows() != rows {
                fail(&format!("{} answered a malformed table", kind.name()));
            }
            served += tables[0].n_rows();
        }
    }
    trace.count("data.synthetic_rows", served as f64);
}

/// `simloop`: load the checkpoint, rebuild the ground-truth workload,
/// sample the surrogate workload, build both arenas, then simulate both
/// sides under every brokerage policy.
fn trace_simloop(trace: &mut Trace, flags: &Flags) {
    let dir = flags.text("--dir");
    let kind = model_kind(&flags.text("--model"));
    let preset = flags.text("--preset");
    let seed: u64 = flags.number("--seed");
    let budget = flags.budget();
    let sample_seed: u64 = flags.number("--sample-seed");
    let registry = trace.span("checkpoint.load", |_| load_registry(&dir));
    let checkpoint = registry
        .entries
        .iter()
        .find(|c| c.model == kind && c.seed == seed && c.budget == budget && c.preset == preset)
        .unwrap_or_else(|| fail("no checkpoint matches the simloop selectors"));
    let mut config = pandasim::GeneratorConfig::preset(&preset)
        .unwrap_or_else(|| usage(&format!("unknown --preset '{preset}'")));
    config.seed = seed;
    config.gross_records = flags.number("--gross");
    let data = trace.span("pandasim.prepare", |_| prepare_data_from_config(&config));
    let gt_rows = data.train.n_rows();
    let synthetic = trace
        .span(format!("{}.sample", slug(kind)), |_| {
            checkpoint.sample(gt_rows, sample_seed)
        })
        .unwrap_or_else(|e| fail(&format!("sampling failed: {e}")));
    let (gt_arena, surrogate_arena) = trace.span("htcsim.arena", |_| {
        (
            JobArena::from_table(&data.train),
            JobArena::from_table(&synthetic),
        )
    });
    let (gt_arena, surrogate_arena) = match (gt_arena, surrogate_arena) {
        (Ok(gt), Ok(surrogate)) => (gt, surrogate),
        _ => fail("a workload table does not convert to simulator jobs"),
    };
    trace.count("data.train_rows", gt_arena.len() as f64);
    trace.count("data.synthetic_rows", surrogate_arena.len() as f64);
    trace.count("simloop.gt_jobs", gt_arena.len() as f64);
    trace.count("simloop.surrogate_jobs", surrogate_arena.len() as f64);

    let sites = data.generator.sites();
    let mut sides = [(0usize, 0.0f64), (0usize, 0.0f64)];
    for policy in BrokerPolicy::ALL {
        let sim_config = SimConfig {
            policy,
            slot_fraction: SIM_SLOT_FRACTION,
            ..SimConfig::default()
        };
        for (side, (name, arena)) in [
            ("htcsim.sim_gt", &gt_arena),
            ("htcsim.sim_surrogate", &surrogate_arena),
        ]
        .into_iter()
        .enumerate()
        {
            let (report, _) = trace.span(name, |_| {
                GridSimulator::new(sites, sim_config.clone()).run_arena_traced(arena, SIM_BINS)
            });
            sides[side].0 += report.completed;
            sides[side].1 += report.mean_wait_hours / BrokerPolicy::ALL.len() as f64;
        }
    }
    for (side, (completed, wait)) in ["gt", "surrogate"].iter().zip(sides) {
        // Each completed job is three events: arrival, transfer complete, finish.
        trace.count(format!("simloop.{side}_events"), (3 * completed) as f64);
        trace.count(format!("simloop.{side}_wait_h"), wait);
    }
}

/// `chain`: for every line on stdin, time a fixed chain of dependent
/// xorshift steps and print the seconds it took. Each step waits for the one
/// before, so the time follows the core's clock, not how many instructions
/// per cycle the core has free: the latency-bound half of the benchmark's
/// host-speed reference (the throughput-bound half is a Python loop).
fn chain() {
    const STEPS: u64 = 10_000_000;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for line in std::io::stdin().lines() {
        if line.is_err() {
            break;
        }
        let start = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x = std::hint::black_box(x);
        println!("{}", start.elapsed().as_secs_f64());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("tier") => println!("{}", nn::active_tier().name()),
        Some("chain") => chain(),
        Some("fit") => fit(&Flags::parse(
            &args[1..],
            &[
                "--dir", "--preset", "--gross", "--seed", "--budget", "--models",
            ],
        )),
        Some("trace") => {
            let workload = args.get(1).map(String::as_str).unwrap_or("");
            let rest = args.get(2..).unwrap_or(&[]);
            let mut trace = Trace::new();
            match workload {
                "table1" => {
                    let flags = Flags::parse(rest, &["--rows", "--budget", "--seed"]);
                    trace.span("run", |t| trace_table1(t, &flags));
                }
                "serve" => {
                    let flags =
                        Flags::parse(rest, &["--dir", "--requests", "--rows", "--sample-seed"]);
                    trace.span("run", |t| trace_serve(t, &flags));
                }
                "simloop" => {
                    let flags = Flags::parse(
                        rest,
                        &[
                            "--dir",
                            "--model",
                            "--preset",
                            "--gross",
                            "--seed",
                            "--budget",
                            "--sample-seed",
                        ],
                    );
                    trace.span("run", |t| trace_simloop(t, &flags));
                }
                other => usage(&format!("unknown trace workload '{other}'")),
            }
            println!("{}", trace.into_json());
        }
        _ => usage("expected a subcommand: tier, chain, fit or trace"),
    }
}
