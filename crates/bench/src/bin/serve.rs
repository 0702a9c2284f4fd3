//! Supervised serving loop over a checkpoint directory: the "replace the
//! simulator" half of the paper, run as a long-lived process.
//!
//! `serve` loads every crash-safe checkpoint artifact a `sweep
//! --checkpoint-dir` run persisted into a model registry keyed by
//! (model, preset, seed, budget), then answers JSON-line requests on
//! stdin with JSON-line responses on stdout. The loop is *supervised*:
//! every failure mode is a typed response, never a dead process —
//!
//! * **Degraded startup** — corrupt or stale checkpoints are quarantined
//!   (reported on stderr with their typed `CheckpointError`) and the
//!   registry serves the rest; stray `*.tmp` files from a write killed
//!   mid-save are skipped by construction.
//! * **Load shedding** — requests queue into a bounded channel
//!   (`--queue-depth`); when it is full the request is shed immediately
//!   with a typed `overload` response instead of growing an unbounded
//!   backlog.
//! * **Deadlines** — `--deadline-ms` bounds each request's time from
//!   arrival, checked both before *and after* handling; an overrun answers
//!   `deadline` instead of blocking the queue.
//! * **Panic capture** — a panicking handler answers `panic`; the worker
//!   and the process survive.
//! * **Row caps** — `--max-rows` bounds how many rows one `sample` request
//!   may ask for; larger requests answer a typed `bad_request` naming the
//!   limit instead of pinning the worker on an unbounded forward pass.
//!
//! The worker is a *micro-batching scheduler*: each time it wakes it
//! drains the queue (optionally waiting `--batch-window-ms` for
//! stragglers), groups the drained `sample` requests by registry key, and
//! answers each group with one coalesced generator forward pass through
//! `Checkpoint::sample_batch` — per-request rows stacked into a single
//! matrix of exactly their total rows walk through the packed kernels, and
//! each request's row range decodes in place into its response. Batching is a pure throughput
//! optimisation: every response (rows, digest, per-request `sample_seed`
//! determinism) is byte-identical to serving the same requests one at a
//! time, and `--max-batch-rows` bounds how many rows one coalesced pass
//! may carry.
//!
//! `--inject` drives all of the above deterministically in CI (see
//! `surrogate::fault::ServeFaultPlan`): `load:corrupt` quarantines the
//! first checkpoint, `request:delay:100ms` charges every request a
//! processing delay (combined with `--virtual-clock` it burns no real
//! time), `request:panic` panics in the handler, `queue:hold` makes the
//! worker hold its first request until a later one has been shed,
//! `batch:hold:<N>` holds batch assembly until N requests are queued (so
//! concurrent requests land in one coalesced batch without timing races),
//! and `batch:split` forces single-request batches — the control arm for
//! batched-vs-unbatched digest comparisons.
//!
//! Protocol (one JSON object per line; unknown fields rejected):
//!   {"id":1,"op":"health"}
//!   {"id":2,"op":"list"}
//!   {"id":3,"op":"sample","model":"tabddpm","preset":"small","seed":2024,
//!    "budget":"smoke","rows":64,"sample_seed":7}
//! Sample responses carry the row count and `surrogate::table_digest` of
//! the sampled table, an FNV-1a digest of its column bytes (names, kinds,
//! value bit patterns, vocabularies and codes), tagged `"digest_v":2`. Two
//! loads of one checkpoint, or a batched and an unbatched serve, can then
//! be checked for byte-identical sampling without shipping the table.
//! Version 1 hashed the table's JSON rendering instead; the two versions'
//! digests are not comparable.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::cli::{Args, Command};
use serde::{Deserialize, Serialize};
use surrogate::checkpoint::{
    Checkpoint, CheckpointError, CheckpointRegistry, QuarantinedCheckpoint,
};
use surrogate::fault::panic_message;
use surrogate::{table_digest, FaultClock, ModelKind, SampleSpec, ServeFaultPlan, TrainingBudget};
use tabular::Table;

const CLI: Command = Command {
    name: "serve",
    about: "supervised serving loop over crash-safe model checkpoints",
    flags: "
usage: serve --checkpoints DIR [FLAGS]

flags:
  --checkpoints DIR      checkpoint directory to load (required); corrupt
                         entries are quarantined, not fatal, and stray *.tmp
                         staging files are ignored
  --queue-depth N        bounded request queue depth, N >= 1 (default 64);
                         a full queue sheds requests with a typed 'overload'
                         response
  --deadline-ms N        per-request deadline from arrival, N >= 1, checked
                         before and after handling; overruns answer
                         'deadline' (default: none)
  --batch-window-ms N    after the first request of a batch, wait up to N ms
                         for more before sampling (default 0: no wait; the
                         scheduler still coalesces whatever is queued)
  --max-batch-rows N     cap the total rows one coalesced sampling pass may
                         carry, N >= 1 (default 4096); larger batches are
                         chunked, never refused
  --max-rows N           cap the rows one sample request may ask for,
                         N >= 1 (default 65536); larger requests answer a
                         typed 'bad_request' naming the limit
  --inject SPEC          deterministic fault injection, e.g.
                         load:corrupt,request:delay:100ms,request:panic,
                         queue:hold,batch:hold:3,batch:split
  --virtual-clock        injected request delays charge the deadline clock
                         without sleeping

Requests are JSON lines on stdin, responses JSON lines on stdout:
  {\"id\":1,\"op\":\"health\"}
  {\"id\":2,\"op\":\"list\"}
  {\"id\":3,\"op\":\"sample\",\"model\":\"tabddpm\",\"preset\":\"small\",
   \"seed\":2024,\"budget\":\"smoke\",\"rows\":64,\"sample_seed\":7}
",
    operands: false,
};

/// Default `--max-rows`: generous for benchmarking, small enough that one
/// request cannot pin the worker on a multi-gigabyte forward pass.
const DEFAULT_MAX_ROWS: usize = 65_536;

/// Default `--max-batch-rows`: one coalesced pass stays cache-friendly.
const DEFAULT_MAX_BATCH_ROWS: usize = 4_096;

/// A serve command line, parsed and checked before the registry loads.
struct Options {
    dir: String,
    queue_depth: usize,
    batch_window_ms: u64,
    policy: BatchPolicy,
}

fn options(args: &Args) -> Result<Options, String> {
    let policy = BatchPolicy {
        deadline_ms: args.value("--deadline-ms")?.map(NonZeroU64::get),
        max_rows: args
            .value("--max-rows")?
            .map_or(DEFAULT_MAX_ROWS, NonZeroUsize::get),
        max_batch_rows: args
            .value("--max-batch-rows")?
            .map_or(DEFAULT_MAX_BATCH_ROWS, NonZeroUsize::get),
        faults: args
            .value_with("--inject", ServeFaultPlan::parse)?
            .unwrap_or_else(ServeFaultPlan::none),
        clock: if args.switch("--virtual-clock") {
            FaultClock::Virtual
        } else {
            FaultClock::Real
        },
    };
    Ok(Options {
        dir: args
            .text("--checkpoints")
            .ok_or("--checkpoints is required")?
            .to_string(),
        queue_depth: args.value("--queue-depth")?.map_or(64, NonZeroUsize::get),
        batch_window_ms: args.value("--batch-window-ms")?.unwrap_or(0),
        policy,
    })
}

/// One request line. Every selector field is optional: `sample` matches
/// registry entries against the fields that are present and requires the
/// match to be unique.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    id: Option<u64>,
    /// `health`, `list`, or `sample`.
    op: String,
    /// Model-kind selector (e.g. `tabddpm`; parsed case-insensitively).
    model: Option<String>,
    /// Generator-preset selector.
    preset: Option<String>,
    /// Seed-axis selector.
    seed: Option<u64>,
    /// Training-budget selector.
    budget: Option<String>,
    /// Synthetic rows to sample (default 32).
    rows: Option<usize>,
    /// Sampling seed (default: the checkpoint seed + 1, matching how the
    /// sweep samples after fitting).
    sample_seed: Option<u64>,
}

/// One response line. `status` is the typed outcome CI greps for: `ok`,
/// `bad_request`, `not_found`, `ambiguous`, `overload`, `deadline`,
/// `panic`, or `error`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Response {
    /// The request's correlation id (absent for unparseable requests).
    id: Option<u64>,
    /// Whether the request was served.
    ok: bool,
    /// Typed outcome, stable for tooling.
    status: String,
    /// Human-readable explanation for non-`ok` outcomes.
    detail: Option<String>,
    /// The registry key that served a `sample` request.
    key: Option<String>,
    /// Rows sampled.
    rows: Option<usize>,
    /// `surrogate::table_digest` of the sampled table.
    digest: Option<String>,
    /// The digest's layout version, [`DIGEST_VERSION`] on every digest.
    digest_v: Option<u32>,
    /// `list`/`health`: the loadable registry keys / their count.
    models: Option<Vec<String>>,
    /// `health`: quarantined artifact count.
    quarantined: Option<usize>,
}

impl Response {
    fn failure(id: Option<u64>, status: &str, detail: String) -> Self {
        Response {
            id,
            ok: false,
            status: status.to_string(),
            detail: Some(detail),
            key: None,
            rows: None,
            digest: None,
            digest_v: None,
            models: None,
            quarantined: None,
        }
    }

    fn emit(&self) {
        // One println! per response: the line (payload + newline) is
        // written under a single stdout lock, so worker and shedding
        // responses never interleave mid-line.
        println!(
            "{}",
            serde_json::to_string(self).expect("response serializes")
        );
    }
}

/// The layout version of a response's `digest`: 2 is
/// `surrogate::table_digest`'s column bytes. Version 1, the FNV-1a of the
/// table's JSON rendering, is no longer served.
const DIGEST_VERSION: u32 = 2;

/// The successful `sample` response for one served table.
fn sample_success(id: Option<u64>, key: String, table: &Table) -> Response {
    Response {
        id,
        ok: true,
        status: "ok".to_string(),
        detail: None,
        key: Some(key),
        rows: Some(table.n_rows()),
        digest: Some(table_digest(table)),
        digest_v: Some(DIGEST_VERSION),
        models: None,
        quarantined: None,
    }
}

/// Match `sample` selectors against the registry. Every present field must
/// match; the result must be a single entry, returned by index so the
/// batch scheduler can group requests by checkpoint.
fn select(entries: &[Checkpoint], request: &Request) -> Result<usize, (String, String)> {
    let model = match request.model.as_deref() {
        Some(name) => Some(
            ModelKind::parse(name)
                .ok_or_else(|| ("bad_request".to_string(), format!("unknown model '{name}'")))?,
        ),
        None => None,
    };
    let budget = match request.budget.as_deref() {
        Some(name) => Some(TrainingBudget::parse(name).ok_or_else(|| {
            (
                "bad_request".to_string(),
                format!("unknown budget '{name}'"),
            )
        })?),
        None => None,
    };
    let matches: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, c)| model.is_none_or(|m| c.model == m))
        .filter(|(_, c)| budget.is_none_or(|b| c.budget == b))
        .filter(|(_, c)| request.preset.as_deref().is_none_or(|p| c.preset == p))
        .filter(|(_, c)| request.seed.is_none_or(|s| c.seed == s))
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [] => Err((
            "not_found".to_string(),
            "no checkpoint matches the request selectors".to_string(),
        )),
        [one] => Ok(*one),
        many => Err((
            "ambiguous".to_string(),
            format!(
                "{} checkpoints match; add selectors (e.g. {})",
                many.len(),
                entries[many[0]].key()
            ),
        )),
    }
}

/// Handle one request against the registry (deadline/panic/shed handling
/// live in the caller). Only this part runs under `catch_unwind`. The
/// `sample` arm goes through `sample_batch` with a batch of one, so the
/// batched scheduler and this direct path share a single sampling code
/// path.
fn handle(registry: &CheckpointRegistry, request: &Request) -> Response {
    match request.op.as_str() {
        "health" => Response {
            id: request.id,
            ok: true,
            status: if registry.is_degraded() {
                "degraded".to_string()
            } else {
                "ok".to_string()
            },
            detail: None,
            key: None,
            rows: None,
            digest: None,
            digest_v: None,
            models: Some(registry.entries.iter().map(Checkpoint::key).collect()),
            quarantined: Some(registry.quarantined.len()),
        },
        "list" => Response {
            id: request.id,
            ok: true,
            status: "ok".to_string(),
            detail: None,
            key: None,
            rows: None,
            digest: None,
            digest_v: None,
            models: Some(registry.entries.iter().map(Checkpoint::key).collect()),
            quarantined: None,
        },
        "sample" => match select(&registry.entries, request) {
            Err((status, detail)) => Response::failure(request.id, &status, detail),
            Ok(entry) => {
                let checkpoint = &registry.entries[entry];
                let rows = request.rows.unwrap_or(32);
                let seed = request
                    .sample_seed
                    .unwrap_or_else(|| checkpoint.seed.wrapping_add(1));
                match checkpoint.sample_batch(&[SampleSpec::new(rows, seed)]) {
                    Err(e) => Response::failure(request.id, "error", e.to_string()),
                    Ok(tables) => sample_success(request.id, checkpoint.key(), &tables[0]),
                }
            }
        },
        other => Response::failure(
            request.id,
            "bad_request",
            format!("unknown op '{other}' (expected health, list or sample)"),
        ),
    }
}

/// A request's place in batch processing: already answered, or waiting on
/// its group's coalesced sampling pass.
enum Slot {
    Done(Response),
    Sample { entry: usize, spec: SampleSpec },
}

/// Split one checkpoint's `(batch index, spec)` items into chunks whose
/// total rows stay within `max_batch_rows`. A single oversized spec still
/// gets a chunk of its own (the per-request `--max-rows` cap is enforced
/// upstream); under `batch:split` every item is its own chunk, which
/// degrades the scheduler to exactly the unbatched loop.
fn chunk_specs(
    items: &[(usize, SampleSpec)],
    max_batch_rows: usize,
    split: bool,
) -> Vec<Vec<(usize, SampleSpec)>> {
    let mut chunks = Vec::new();
    let mut current: Vec<(usize, SampleSpec)> = Vec::new();
    let mut current_rows = 0usize;
    for &(index, spec) in items {
        if !current.is_empty() && (split || current_rows + spec.rows > max_batch_rows) {
            chunks.push(std::mem::take(&mut current));
            current_rows = 0;
        }
        current.push((index, spec));
        current_rows += spec.rows;
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Everything the batch scheduler needs besides the registry and the
/// requests themselves.
struct BatchPolicy {
    deadline_ms: Option<u64>,
    max_rows: usize,
    max_batch_rows: usize,
    faults: ServeFaultPlan,
    clock: FaultClock,
}

/// Answer one drained batch, in arrival order.
///
/// Three passes: (1) per request — charge any injected delay, check the
/// deadline, and either answer non-`sample` ops directly or resolve the
/// request to a (checkpoint, spec) pair; (2) group the resolved specs by
/// checkpoint, chunk each group by `max_batch_rows`, and answer every
/// chunk with one coalesced `sample_batch` pass; (3) re-check each
/// served request's deadline *after* handling — a response that took too
/// long to produce answers `deadline`, it does not pretend the deadline
/// was met just because the request was dequeued in time.
fn process_batch(
    registry: &CheckpointRegistry,
    batch: &[(Request, Instant)],
    policy: &BatchPolicy,
) -> Vec<Response> {
    let over_deadline = |arrival: &Instant, virtual_ms: f64| -> Option<(u64, f64)> {
        policy.deadline_ms.and_then(|limit| {
            let elapsed_ms = arrival.elapsed().as_secs_f64() * 1e3 + virtual_ms;
            (elapsed_ms >= limit as f64).then_some((limit, elapsed_ms))
        })
    };

    let mut virtual_ms = vec![0.0f64; batch.len()];
    let mut slots: Vec<Slot> = Vec::with_capacity(batch.len());
    for (i, (request, arrival)) in batch.iter().enumerate() {
        // Injected processing delay burns on the configured clock; under
        // --virtual-clock it only charges the deadline accounting.
        virtual_ms[i] = match policy.faults.request_delay_ms() {
            Some(ms) => policy.clock.delay_ms(ms),
            None => 0.0,
        };
        if let Some((limit, elapsed_ms)) = over_deadline(arrival, virtual_ms[i]) {
            slots.push(Slot::Done(Response::failure(
                request.id,
                "deadline",
                format!("request exceeded its {limit}ms deadline ({elapsed_ms:.0}ms)"),
            )));
            continue;
        }
        if policy.faults.request_panic() {
            let payload = std::panic::catch_unwind(|| {
                panic!("injected fault: panic in request handler");
            })
            .expect_err("injected panic unwinds");
            slots.push(Slot::Done(Response::failure(
                request.id,
                "panic",
                panic_message(payload),
            )));
            continue;
        }
        if request.op != "sample" {
            let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle(registry, request)
            }))
            .unwrap_or_else(|payload| {
                Response::failure(request.id, "panic", panic_message(payload))
            });
            slots.push(Slot::Done(response));
            continue;
        }
        let rows = request.rows.unwrap_or(32);
        if rows > policy.max_rows {
            slots.push(Slot::Done(Response::failure(
                request.id,
                "bad_request",
                format!(
                    "rows {rows} exceeds the --max-rows limit of {}",
                    policy.max_rows
                ),
            )));
            continue;
        }
        match select(&registry.entries, request) {
            Err((status, detail)) => {
                slots.push(Slot::Done(Response::failure(request.id, &status, detail)));
            }
            Ok(entry) => {
                let seed = request
                    .sample_seed
                    .unwrap_or_else(|| registry.entries[entry].seed.wrapping_add(1));
                slots.push(Slot::Sample {
                    entry,
                    spec: SampleSpec::new(rows, seed),
                });
            }
        }
    }

    let mut groups: BTreeMap<usize, Vec<(usize, SampleSpec)>> = BTreeMap::new();
    for (i, slot) in slots.iter().enumerate() {
        if let Slot::Sample { entry, spec } = slot {
            groups.entry(*entry).or_default().push((i, *spec));
        }
    }
    for (entry, items) in groups {
        let checkpoint = &registry.entries[entry];
        for chunk in chunk_specs(&items, policy.max_batch_rows, policy.faults.batch_split()) {
            let specs: Vec<SampleSpec> = chunk.iter().map(|&(_, spec)| spec).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                checkpoint.sample_batch(&specs)
            }));
            match outcome {
                Err(payload) => {
                    let message = panic_message(payload);
                    for &(i, _) in &chunk {
                        slots[i] =
                            Slot::Done(Response::failure(batch[i].0.id, "panic", message.clone()));
                    }
                }
                Ok(Err(e)) => {
                    let message = e.to_string();
                    for &(i, _) in &chunk {
                        slots[i] =
                            Slot::Done(Response::failure(batch[i].0.id, "error", message.clone()));
                    }
                }
                Ok(Ok(tables)) => {
                    for (&(i, _), table) in chunk.iter().zip(&tables) {
                        slots[i] =
                            Slot::Done(sample_success(batch[i].0.id, checkpoint.key(), table));
                    }
                }
            }
        }
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let response = match slot {
                Slot::Done(response) => response,
                Slot::Sample { .. } => unreachable!("sample slot left unanswered"),
            };
            if !response.ok {
                return response;
            }
            match over_deadline(&batch[i].1, virtual_ms[i]) {
                Some((limit, elapsed_ms)) => Response::failure(
                    batch[i].0.id,
                    "deadline",
                    format!(
                        "request exceeded its {limit}ms deadline after handling \
                         ({elapsed_ms:.0}ms)"
                    ),
                ),
                None => response,
            }
        })
        .collect()
}

fn main() {
    let Options {
        dir,
        queue_depth,
        batch_window_ms,
        policy,
    } = CLI.check(options(&CLI.parse()));

    let mut registry = CheckpointRegistry::load_dir(Path::new(&dir))
        .unwrap_or_else(|e| CLI.fail(format!("cannot load checkpoints: {e}")));
    if policy.faults.load_corrupt() && !registry.entries.is_empty() {
        // Deterministic startup-corruption drill: treat the first
        // (alphabetically) loadable checkpoint as corrupt.
        let first = registry.entries.remove(0);
        registry.quarantined.push(QuarantinedCheckpoint {
            file: first.file_name(),
            error: CheckpointError::Malformed {
                section: "payload",
                reason: "injected corruption (load:corrupt)".to_string(),
            },
        });
    }
    eprintln!(
        "serve: loaded {} checkpoint(s) from {dir} ({} quarantined, {} temp file(s) ignored)",
        registry.entries.len(),
        registry.quarantined.len(),
        registry.ignored_temp
    );
    for q in &registry.quarantined {
        eprintln!("serve: quarantined {}: {}", q.file, q.error);
    }
    if registry.is_degraded() {
        eprintln!(
            "serve: DEGRADED: serving {} of {} model(s)",
            registry.entries.len(),
            registry.entries.len() + registry.quarantined.len()
        );
    }
    if registry.entries.is_empty() && registry.quarantined.is_empty() {
        CLI.fail(format!("no checkpoints in {dir}"));
    }
    eprintln!(
        "serve: ready (queue depth {queue_depth}, deadline {}, batch window {batch_window_ms}ms, \
         max batch rows {}, max rows {})",
        policy
            .deadline_ms
            .map_or_else(|| "none".to_string(), |ms| format!("{ms}ms")),
        policy.max_batch_rows,
        policy.max_rows
    );

    let shed = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = sync_channel::<(Request, Instant)>(queue_depth);
    let worker = {
        let shed = Arc::clone(&shed);
        std::thread::spawn(move || {
            let mut held = !policy.faults.queue_hold();
            let mut batch_hold = policy.faults.batch_hold_min();
            while let Ok(first) = rx.recv() {
                if !held {
                    // queue:hold — park on the first request until at least
                    // one later request has been shed (bounded by a real
                    // timeout so a mis-written test cannot hang the loop).
                    let give_up = Instant::now() + Duration::from_secs(10);
                    while shed.load(Ordering::SeqCst) == 0 && Instant::now() < give_up {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    held = true;
                }
                let mut batch = vec![first];
                if let Some(min_requests) = batch_hold.take() {
                    // batch:hold:<N> — park batch assembly until N requests
                    // are collected, so concurrent senders land in one
                    // coalesced batch (same real-time give-up as above).
                    let give_up = Instant::now() + Duration::from_secs(10);
                    while batch.len() < min_requests && Instant::now() < give_up {
                        match rx.recv_timeout(Duration::from_millis(5)) {
                            Ok(item) => batch.push(item),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                }
                if batch_window_ms > 0 {
                    let window_end = Instant::now() + Duration::from_millis(batch_window_ms);
                    while let Some(remaining) = window_end.checked_duration_since(Instant::now()) {
                        if remaining.is_zero() {
                            break;
                        }
                        match rx.recv_timeout(remaining) {
                            Ok(item) => batch.push(item),
                            Err(_) => break,
                        }
                    }
                }
                while let Ok(item) = rx.try_recv() {
                    batch.push(item);
                }
                for response in process_batch(&registry, &batch, &policy) {
                    response.emit();
                }
            }
        })
    };

    let stdin = std::io::stdin();
    let mut received = 0usize;
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => CLI.fail(format!("cannot read stdin: {e}")),
        };
        if line.trim().is_empty() {
            continue;
        }
        received += 1;
        let request: Request = match serde_json::from_str(&line) {
            Ok(request) => request,
            Err(e) => {
                Response::failure(None, "bad_request", format!("unparseable request: {e}")).emit();
                continue;
            }
        };
        let id = request.id;
        if let Err(e) = tx.try_send((request, Instant::now())) {
            match e {
                TrySendError::Full(_) => {
                    shed.fetch_add(1, Ordering::SeqCst);
                    Response::failure(
                        id,
                        "overload",
                        format!("queue full (depth {queue_depth}), request shed"),
                    )
                    .emit();
                }
                TrySendError::Disconnected(_) => {
                    CLI.fail("worker thread died");
                }
            }
        }
    }
    drop(tx);
    worker
        .join()
        .unwrap_or_else(|_| CLI.fail("worker thread panicked outside the capture boundary"));
    eprintln!(
        "serve: shutdown after {received} request(s), {} shed",
        shed.load(Ordering::SeqCst)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use surrogate::checkpoint::CheckpointPayload;
    use surrogate::{build_payload, SmoteConfig, SmoteSampler, TabularGenerator};
    use tabular::Column;

    fn args(list: &[&str]) -> Result<Args, String> {
        CLI.parse_from(list.iter().map(|s| s.to_string()))
            .map_err(|e| e.to_string())
    }

    /// Serve's options for `flags` after `--checkpoints ckpts`.
    fn parse(flags: &[&str]) -> Result<Options, String> {
        options(&args(&[&["--checkpoints", "ckpts"], flags].concat())?)
    }

    /// A registry holding one fitted SMOTE checkpoint, so batch-processing
    /// tests can serve real samples without training a network.
    fn fitted_registry() -> CheckpointRegistry {
        let mut table = Table::new();
        let values: Vec<f64> = (0..40)
            .map(|i| (i as f64 * 0.37).sin() * 50.0 + 50.0)
            .collect();
        let labels: Vec<&str> = (0..40)
            .map(|i| if i % 3 == 0 { "BNL" } else { "CERN" })
            .collect();
        table
            .push_column("workload", Column::Numerical(values))
            .unwrap();
        table
            .push_column("site", Column::from_labels(&labels))
            .unwrap();
        let mut sampler = SmoteSampler::new(SmoteConfig::default());
        sampler.fit(&table).unwrap();
        CheckpointRegistry {
            entries: vec![Checkpoint::new(
                "small",
                2024,
                TrainingBudget::Smoke,
                CheckpointPayload::Smote(sampler),
            )],
            quarantined: Vec::new(),
            ignored_temp: 0,
        }
    }

    fn sample_request(id: u64, rows: usize, sample_seed: u64) -> Request {
        Request {
            id: Some(id),
            op: "sample".to_string(),
            model: None,
            preset: None,
            seed: None,
            budget: None,
            rows: Some(rows),
            sample_seed: Some(sample_seed),
        }
    }

    fn op_request(id: u64, op: &str) -> Request {
        Request {
            id: Some(id),
            op: op.to_string(),
            model: None,
            preset: None,
            seed: None,
            budget: None,
            rows: None,
            sample_seed: None,
        }
    }

    fn policy(deadline_ms: Option<u64>, faults: ServeFaultPlan) -> BatchPolicy {
        BatchPolicy {
            deadline_ms,
            max_rows: 1024,
            max_batch_rows: 8,
            faults,
            clock: FaultClock::Real,
        }
    }

    #[test]
    fn queue_depth_parser_requires_a_positive_depth() {
        let depth = |v: &str| parse(&["--queue-depth", v]).map(|o| o.queue_depth);
        assert_eq!(depth("64").unwrap(), 64);
        assert_eq!(depth(" 1 ").unwrap(), 1);
        for bad in ["0", "", "-3", "deep", "1.5"] {
            assert!(
                depth(bad).unwrap_err().contains("--queue-depth"),
                "{bad:?} must be rejected with the flag name"
            );
        }
    }

    #[test]
    fn deadline_parser_requires_a_positive_deadline() {
        let deadline = |v: &str| parse(&["--deadline-ms", v]).map(|o| o.policy.deadline_ms);
        assert_eq!(deadline("50").unwrap(), Some(50));
        for bad in ["0", "", "-1", "soon"] {
            assert!(
                deadline(bad).unwrap_err().contains("--deadline-ms"),
                "{bad:?} must be rejected with the flag name"
            );
        }
    }

    #[test]
    fn batching_parsers_name_their_flags() {
        let window = |v: &str| parse(&["--batch-window-ms", v]).map(|o| o.batch_window_ms);
        assert_eq!(window("0").unwrap(), 0);
        assert_eq!(window("25").unwrap(), 25);
        for bad in ["", "-1", "soon"] {
            assert!(
                window(bad).unwrap_err().contains("--batch-window-ms"),
                "{bad:?} must be rejected with the flag name"
            );
        }
        let batch_rows = |v: &str| parse(&["--max-batch-rows", v]).map(|o| o.policy.max_batch_rows);
        assert_eq!(batch_rows("512").unwrap(), 512);
        for bad in ["0", "", "-1", "wide"] {
            assert!(
                batch_rows(bad).unwrap_err().contains("--max-batch-rows"),
                "{bad:?} must be rejected with the flag name"
            );
        }
        let max_rows = |v: &str| parse(&["--max-rows", v]).map(|o| o.policy.max_rows);
        assert_eq!(max_rows("65536").unwrap(), 65536);
        for bad in ["0", "", "-1", "lots"] {
            assert!(
                max_rows(bad).unwrap_err().contains("--max-rows"),
                "{bad:?} must be rejected with the flag name"
            );
        }
    }

    #[test]
    fn value_extraction_refuses_flag_shaped_values() {
        // The old extractor silently consumed the next flag as a value, so
        // `--checkpoints --queue-depth 1` became a directory named
        // "--queue-depth". Now it is a usage error naming both flags.
        let err = args(&["--checkpoints", "--queue-depth", "1"]).unwrap_err();
        assert!(err.contains("--checkpoints"), "{err}");
        assert!(err.contains("--queue-depth"), "{err}");

        let err = args(&["--inject"]).unwrap_err();
        assert!(err.contains("--inject requires a value"), "{err}");

        let err = args(&["--deadline-ms", "--virtual-clock"]).unwrap_err();
        assert!(err.contains("--virtual-clock"), "{err}");

        assert_eq!(
            args(&["--queue-depth", "9"]).unwrap().text("--queue-depth"),
            Some("9")
        );
        // Absent flag, and a negative-number value, both stay fine: the
        // typed parsers reject "-3" with a better message.
        assert_eq!(
            args(&["--queue-depth", "9"]).unwrap().text("--max-rows"),
            None
        );
        assert_eq!(
            args(&["--deadline-ms", "-3"])
                .unwrap()
                .text("--deadline-ms"),
            Some("-3")
        );
    }

    #[test]
    fn requests_parse_with_optional_selectors() {
        let full: Request = serde_json::from_str(
            r#"{"id":3,"op":"sample","model":"tabddpm","preset":"small","seed":2024,
                "budget":"smoke","rows":64,"sample_seed":7}"#,
        )
        .unwrap();
        assert_eq!(full.id, Some(3));
        assert_eq!(full.op, "sample");
        assert_eq!(full.rows, Some(64));

        let bare: Request = serde_json::from_str(r#"{"op":"health"}"#).unwrap();
        assert_eq!(bare.id, None);
        assert_eq!(bare.model, None);

        assert!(serde_json::from_str::<Request>(r#"{"id":1}"#).is_err());
        assert!(serde_json::from_str::<Request>("not json").is_err());
    }

    #[test]
    fn selection_requires_a_unique_match() {
        let entries: Vec<Checkpoint> = [
            (ModelKind::Smote, 2024),
            (ModelKind::Smote, 2025),
            (ModelKind::TabDdpm, 2024),
        ]
        .iter()
        .map(|&(kind, seed)| {
            Checkpoint::new(
                "small",
                seed,
                TrainingBudget::Smoke,
                build_payload(kind, TrainingBudget::Smoke, seed),
            )
        })
        .collect();
        let request = |model: Option<&str>, seed: Option<u64>| Request {
            id: None,
            op: "sample".to_string(),
            model: model.map(str::to_string),
            preset: None,
            seed,
            budget: None,
            rows: None,
            sample_seed: None,
        };

        let unique = select(&entries, &request(Some("tabddpm"), None)).unwrap();
        assert_eq!(entries[unique].key(), "s2024-smoke-small-tabddpm");
        let unique = select(&entries, &request(Some("smote"), Some(2025))).unwrap();
        assert_eq!(entries[unique].seed, 2025);

        let (status, _) = select(&entries, &request(Some("smote"), None)).unwrap_err();
        assert_eq!(status, "ambiguous");
        let (status, _) = select(&entries, &request(Some("tvae"), None)).unwrap_err();
        assert_eq!(status, "not_found");
        let (status, _) = select(&entries, &request(Some("mystery"), None)).unwrap_err();
        assert_eq!(status, "bad_request");
    }

    #[test]
    fn unknown_ops_and_unfitted_models_answer_typed_failures() {
        let registry = CheckpointRegistry {
            entries: vec![Checkpoint::new(
                "small",
                2024,
                TrainingBudget::Smoke,
                build_payload(ModelKind::Smote, TrainingBudget::Smoke, 2024),
            )],
            quarantined: Vec::new(),
            ignored_temp: 0,
        };
        let request = |op: &str| Request {
            id: Some(9),
            op: op.to_string(),
            model: None,
            preset: None,
            seed: None,
            budget: None,
            rows: None,
            sample_seed: None,
        };

        let response = handle(&registry, &request("explode"));
        assert!(!response.ok);
        assert_eq!(response.status, "bad_request");
        assert_eq!(response.id, Some(9));

        // The registry's only checkpoint is unfitted, so sampling fails as
        // a typed 'error' response, not a crash.
        let response = handle(&registry, &request("sample"));
        assert!(!response.ok);
        assert_eq!(response.status, "error");

        let response = handle(&registry, &request("health"));
        assert!(response.ok);
        assert_eq!(response.status, "ok");
        assert_eq!(response.models.as_deref().map(<[String]>::len), Some(1));
        assert_eq!(response.quarantined, Some(0));
    }

    #[test]
    fn chunking_respects_the_row_budget_and_split_injection() {
        let spec = |rows: usize| SampleSpec::new(rows, 1);
        let items = vec![(0, spec(4)), (1, spec(3)), (2, spec(6)), (3, spec(2))];

        // 4+3 fits in 8, adding 6 would not; 6+2 fits exactly.
        let chunks = chunk_specs(&items, 8, false);
        let shape: Vec<Vec<usize>> = chunks
            .iter()
            .map(|c| c.iter().map(|&(i, _)| i).collect())
            .collect();
        assert_eq!(shape, vec![vec![0, 1], vec![2, 3]]);

        // batch:split degrades to one chunk per request.
        assert_eq!(chunk_specs(&items, 8, true).len(), 4);

        // An oversized spec still gets its own chunk rather than vanishing.
        assert_eq!(chunk_specs(&[(0, spec(100))], 8, false).len(), 1);
        assert!(chunk_specs(&[], 8, false).is_empty());
    }

    #[test]
    fn batches_answer_in_arrival_order_and_match_the_unbatched_path() {
        let registry = fitted_registry();
        let now = Instant::now();
        let batch = vec![
            (op_request(0, "health"), now),
            (sample_request(1, 6, 9), now),
            (sample_request(2, 6, 9), now),
            (sample_request(3, 5000, 9), now),
            (op_request(4, "explode"), now),
        ];
        // max_batch_rows 8 forces the two 6-row requests into separate
        // coalesced passes — chunking must not change the bytes.
        let responses = process_batch(&registry, &batch, &policy(None, ServeFaultPlan::none()));

        assert_eq!(responses.len(), 5);
        let ids: Vec<Option<u64>> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..5).map(Some).collect::<Vec<_>>());

        assert_eq!(responses[0].status, "ok");
        assert_eq!(responses[1].status, "ok");
        assert_eq!(responses[2].status, "ok");
        assert_eq!(responses[1].rows, Some(6));
        assert!(responses[1].digest.is_some());
        assert_eq!(responses[1].digest_v, Some(DIGEST_VERSION));
        assert_eq!(responses[0].digest_v, None);
        // Identical (rows, sample_seed) requests are byte-identical, and
        // both match the direct single-request path.
        assert_eq!(responses[1].digest, responses[2].digest);
        let direct = handle(&registry, &sample_request(1, 6, 9));
        assert_eq!(direct.digest, responses[1].digest);

        // The row cap answers a typed bad_request naming the limit.
        assert_eq!(responses[3].status, "bad_request");
        let detail = responses[3].detail.as_deref().unwrap();
        assert!(detail.contains("--max-rows"), "{detail}");
        assert!(detail.contains("1024"), "{detail}");

        assert_eq!(responses[4].status, "bad_request");

        // batch:split answers the same bytes through single-request
        // batches — the control arm CI compares against.
        let split = process_batch(
            &registry,
            &batch,
            &policy(None, ServeFaultPlan::parse("batch:split").unwrap()),
        );
        assert_eq!(split[1].digest, responses[1].digest);
        assert_eq!(split[2].digest, responses[2].digest);
    }

    #[test]
    fn deadlines_are_rechecked_after_handling() {
        // Each request is charged a real 200ms injected delay against a
        // 300ms deadline. The first request passes its pre-handle check
        // (~200ms elapsed), but by the time the batch finishes the second
        // request's delay has burned ~400ms — the old loop would still
        // have answered ok; the re-check converts it to a deadline miss.
        let registry = fitted_registry();
        let now = Instant::now();
        let batch = vec![
            (op_request(0, "health"), now),
            (op_request(1, "health"), now),
        ];
        let responses = process_batch(
            &registry,
            &batch,
            &policy(
                Some(300),
                ServeFaultPlan::parse("request:delay:200ms").unwrap(),
            ),
        );
        assert_eq!(responses[0].status, "deadline");
        assert!(
            responses[0]
                .detail
                .as_deref()
                .unwrap()
                .contains("after handling"),
            "first request must fail the post-handle re-check, got {:?}",
            responses[0].detail
        );
        assert_eq!(responses[1].status, "deadline");
        assert!(
            !responses[1]
                .detail
                .as_deref()
                .unwrap()
                .contains("after handling"),
            "second request must already fail the pre-handle check"
        );
    }

    #[test]
    fn injected_panics_answer_per_request() {
        let registry = fitted_registry();
        let now = Instant::now();
        let batch = vec![
            (sample_request(0, 4, 1), now),
            (op_request(1, "health"), now),
        ];
        let responses = process_batch(
            &registry,
            &batch,
            &policy(None, ServeFaultPlan::parse("request:panic").unwrap()),
        );
        assert_eq!(responses.len(), 2);
        for response in &responses {
            assert_eq!(response.status, "panic");
            assert!(response
                .detail
                .as_deref()
                .unwrap()
                .contains("injected fault"));
        }
    }
}
