"""Pure parts of the end-to-end benchmark, kept apart from process handling
so the tests can exercise them without building or running anything: seed
derivation, the serve request stream, percentiles, the output checkers, the
trace analysis and the metric tables that BENCHMARK.json mirrors."""

import hashlib
import json
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction

MODELS = ("tvae", "ctabgan", "smote", "tabddpm")
# Model names as table1 and simloop print them.
MODEL_NAMES = {"tvae": "TVAE", "ctabgan": "CTABGAN+", "smote": "SMOTE", "tabddpm": "TabDDPM"}
POLICIES = ("round-robin", "least-loaded", "data-locality")
TABLE1_METRICS = ("wd", "jsd", "diff_corr", "dcr", "diff_mlef")

# Serve traffic: TVAE:CTABGAN+:SMOTE:TabDDPM = 3:3:3:1 in every block of ten
# requests. Nine cheap requests per TabDDPM one keep the median inside the
# cheap-model mode (where parsing, digest and emit show) and the 99th
# percentile inside the TabDDPM mode.
SERVE_MIX = ("tvae",) * 3 + ("ctabgan",) * 3 + ("smote",) * 3 + ("tabddpm",)
# Every eighth request repeats an earlier (model, rows, sample_seed), whose
# response must carry the same digest; the rest draw a fresh sample_seed, so
# a response cache cannot inflate the numbers.
REPEAT_EVERY = 8
# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

Metric = namedtuple("Metric", "name unit better")
Request = namedtuple("Request", "id model rows sample_seed repeat")

# Every workload reports every end-to-end metric (the benchmark contract), so
# these are the ones that mean the same on all of them. Serve's latency
# percentiles and throughput and the Table-I and simloop fidelity values are
# per-layer metrics: they exist on one workload only.
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    Metric("traced.total_s", "s", "lower"),
    Metric("traced.coverage", "1", "higher"),
    Metric("untraced.wall_s", "s", "lower"),
    Metric("pandasim.prepare_s", "s", "lower"),
    *(Metric(f"{m}.fit_s", "s", "lower") for m in MODELS),
    *(Metric(f"{m}.sample_s", "s", "lower") for m in MODELS),
    *(Metric(f"{m}.request_ms", "ms", "lower") for m in MODELS),
    Metric("metrics.marginals_s", "s", "lower"),
    Metric("metrics.dcr_s", "s", "lower"),
    Metric("mlef.base_s", "s", "lower"),
    Metric("mlef.synthetic_s", "s", "lower"),
    Metric("checkpoint.load_s", "s", "lower"),
    Metric("serve.digest_ms", "ms", "lower"),
    *(Metric(f"serve.p50_ms.{m}", "ms", "lower") for m in MODELS),
    Metric("serve.overhead_ms", "ms", "lower"),
    Metric("serve.latency_p50_ms", "ms", "lower"),
    Metric("serve.latency_p99_ms", "ms", "lower"),
    Metric("serve.rows_per_s", "rows/s", "higher"),
    Metric("htcsim.arena_s", "s", "lower"),
    Metric("htcsim.sim_gt_s", "s", "lower"),
    Metric("htcsim.sim_surrogate_s", "s", "lower"),
    Metric("data.train_rows", "count", "higher"),
    Metric("data.test_rows", "count", "higher"),
    Metric("data.synthetic_rows", "count", "higher"),
    Metric("metrics.dcr_pairs", "count", "lower"),
    Metric("serve.requests", "count", "higher"),
    Metric("serve.rows", "count", "higher"),
    Metric("serve.repeats", "count", "higher"),
    Metric("simloop.gt_jobs", "count", "higher"),
    Metric("simloop.surrogate_jobs", "count", "higher"),
    Metric("simloop.gt_events", "count", "lower"),
    Metric("simloop.surrogate_events", "count", "lower"),
    Metric("simloop.gt_wait_h", "h", "lower"),
    Metric("simloop.surrogate_wait_h", "h", "lower"),
    Metric("simloop.queue_l1", "1", "lower"),
    Metric("simloop.makespan_rel", "1", "lower"),
    *(Metric(f"table1.{k}", "1", "lower") for k in TABLE1_METRICS),
    *(Metric(f"{m}.{k}", "1", "lower") for m in MODELS for k in TABLE1_METRICS),
)


def derive_seed(seed, label):
    """A 31-bit seed for one consumer of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF_FFFF


def request_stream(seed, count, rows):
    """The serve workload's requests, deterministic in `seed`."""
    rng = random.Random(derive_seed(seed, "serve-stream"))
    fresh = {m: [] for m in MODELS}
    used = set()
    block = []
    stream = []
    for i in range(count):
        if not block:
            block = list(SERVE_MIX)
            rng.shuffle(block)
        model = block.pop()
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 and fresh[model]:
            stream.append(Request(i + 1, model, rows, rng.choice(fresh[model]), True))
            continue
        sample_seed = rng.randrange(1, 2**31)
        while sample_seed in used:
            sample_seed = rng.randrange(1, 2**31)
        used.add(sample_seed)
        fresh[model].append(sample_seed)
        stream.append(Request(i + 1, model, rows, sample_seed, False))
    return stream


def rank(n, q):
    """1-based nearest rank of the `q`-th percentile of `n` samples (exact
    arithmetic: 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def beyond(n, q):
    """Samples strictly above the nearest-rank `q`-th percentile of `n`."""
    return n - rank(n, q)


def percentile(values, q):
    """Nearest-rank percentile, or None when fewer than TAIL_SAMPLES samples
    lie beyond it."""
    n = len(values)
    if n == 0 or beyond(n, q) < TAIL_SAMPLES:
        return None
    return sorted(values)[rank(n, q) - 1]


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_SAMPLES samples
    beyond it, or None when even the median has fewer."""
    qualified = [q for q in PERCENTILE_LADDER if beyond(n, q) >= TAIL_SAMPLES]
    return qualified[-1] if qualified else None


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def finite(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_table1(stdout, report_text, rows, budget):
    """Check one table1 run. Returns (problems, failed models); each model's
    row is one operation."""
    problems = []
    budget_echo = {"standard": "Standard", "smoke": "Smoke"}[budget]
    echo = f"simulated gross records: {rows}, "
    echoed = [line for line in stdout.splitlines() if line.startswith("simulated gross records:")]
    if len(echoed) != 1 or not echoed[0].startswith(echo) or not echoed[0].endswith(f"budget: {budget_echo}"):
        problems.append(f"table1 did not echo --rows {rows} --budget {budget}: {echoed}")
        return problems, set(MODELS)
    try:
        report = json.loads(report_text)
    except (TypeError, ValueError) as e:
        return [f"table1 --json report unreadable: {e}"], set(MODELS)
    rows_by_model = {r.get("model"): r for r in report if isinstance(r, dict)} if isinstance(report, list) else {}
    failed = set()
    for m in MODELS:
        row = rows_by_model.get(MODEL_NAMES[m])
        if row is None:
            problems.append(f"{MODEL_NAMES[m]} has no row in the table1 report")
            failed.add(m)
        elif not all(finite(row.get(k)) for k in TABLE1_METRICS):
            problems.append(f"{MODEL_NAMES[m]} row has a missing or non-finite value: {row}")
            failed.add(m)
    return problems, failed


def table1_values(report_text):
    """Per-model Table-I values plus their means over the four models (the
    arithmetic mean `metrics::mean_report` takes)."""
    rows = {r["model"]: r for r in json.loads(report_text)}
    values = {}
    for k in TABLE1_METRICS:
        per_model = [rows[MODEL_NAMES[m]][k] for m in MODELS]
        for m, v in zip(MODELS, per_model):
            values[f"{m}.{k}"] = v
        values[f"table1.{k}"] = sum(per_model) / len(per_model)
    return values


def check_serve(stream, responses):
    """Check the serve responses against the request stream. `responses`
    maps request id to the parsed response. Returns (problems, failed ids)."""
    problems = []
    failed = set()
    first_digest = {}
    for request in stream:
        r = responses.get(request.id)
        if r is None:
            problems.append(f"request {request.id} got no response")
            failed.add(request.id)
            continue
        if r.get("ok") is not True or r.get("status") != "ok":
            problems.append(f"request {request.id} answered {r.get('status')}: {r.get('detail')}")
            failed.add(request.id)
            continue
        if r.get("rows") != request.rows or not isinstance(r.get("digest"), str):
            problems.append(f"request {request.id} answered {r.get('rows')} rows, asked {request.rows}")
            failed.add(request.id)
            continue
        key = (request.model, request.rows, request.sample_seed)
        if key not in first_digest:
            first_digest[key] = r["digest"]
        elif r["digest"] != first_digest[key]:
            problems.append(f"request {request.id} repeats {key} with another digest")
            failed.add(request.id)
    return problems, failed


def check_simloop(returncode, artifact_text):
    """Check one simloop run: exit 0 and an artifact that re-reads with all
    three policies and finite fidelity deltas. Returns (problems, failed
    policies); each policy is one operation."""
    if returncode != 0:
        return [f"simloop exited {returncode}"], set(POLICIES)
    try:
        artifact = json.loads(artifact_text)
        policies = {p["policy"]: p for p in artifact["policies"]}
    except (TypeError, ValueError, KeyError) as e:
        return [f"simloop artifact unreadable: {e}"], set(POLICIES)
    problems = []
    failed = set()
    for name in POLICIES:
        fidelity = policies.get(name, {}).get("fidelity")
        if not isinstance(fidelity, dict) or not fidelity or not all(finite(v) for v in fidelity.values()):
            problems.append(f"simloop artifact lacks policy {name} or its fidelity deltas")
            failed.add(name)
    return problems, failed


def simloop_values(artifact_text):
    policies = json.loads(artifact_text)["policies"]
    n = len(policies)
    return {
        "simloop.queue_l1": sum(p["fidelity"]["queue_depth_l1"] for p in policies) / n,
        "simloop.makespan_rel": sum(p["fidelity"]["makespan_rel"] for p in policies) / n,
    }


def layer_times(spans):
    """Per span name: (total seconds, self seconds, durations). Self time is
    a span's duration minus the part its child spans cover."""
    covered = Counter()
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        total, own, durations = out.get(s["name"], (0.0, 0.0, []))
        out[s["name"]] = (total + duration, own + duration - covered[i], durations + [duration])
    return out


def coverage(spans):
    """Share of the root span that its child (layer) spans cover."""
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    root = spans[roots[0]]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == roots[0])
    return children / (root["end"] - root["start"])
