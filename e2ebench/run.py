#!/usr/bin/env python3
"""End-to-end benchmark of the surrogate workspace.

    python3 e2ebench/run.py --workload table1_standard --seed 2024 --seconds 10 --trace 0
    python3 e2ebench/run.py                      # every workload, one after another

Run from the repository root. It builds the release binaries `table1`,
`serve` and `simloop` plus the benchmark's own helper (`e2ebench/probe`)
into $CARGO_TARGET_DIR (default `.bench_build`), runs the workload against
the binaries as child processes with the rayon pool pinned to one thread,
checks every output, and prints a summary followed, as its last line, by one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics (set-up time, wall time, peak
RSS), the times scaled to a reference host speed (see `Reference`).
`--trace 1` runs the workload once untraced and then replays its call
sequence in process, one layer at a time under spans, and reports the
per-layer metrics. Workloads, metrics and recorded shares: e2ebench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import e2e  # noqa: E402

ROOT = HERE.parent
# Set-up time is a median over this many spawns per run: a set-up of tens of
# milliseconds is mostly spawn jitter, which moves one sample by a third.
SETUP_SPAWNS = 21
# A child that outlives this is killed, so a hung program fails the run
# instead of the driver's time limit.
CHILD_TIMEOUT_S = 150.0
# The host's speed drifts: it flips between a fast and a slow mode within
# seconds and its clock wanders over minutes (README 'Host'). Reference
# bursts of fixed work, run between and during the measured work, drift
# with it; every timed end-to-end metric is scaled by at_reference_speed to
# a host on which one burst takes REFERENCE_NOMINAL_S.
REFERENCE_ITERATIONS = 150_000
REFERENCE_NOMINAL_S = 0.025
# A batch invocation is stopped (SIGSTOP) about this often for one burst;
# the pauses are left out of its wall time.
REFERENCE_EVERY_S = 0.5

SERVE_PRESET = "small"
SERVE_GROSS = 2500
SERVE_ROWS = 64
SERVE_OUTSTANDING = 4
# One request per sampling pass: how many requests serve coalesces depends
# on when they arrive, and that timing turned the host's drift into a spread
# four times as wide (README 'Workloads').
SERVE_MAX_BATCH_ROWS = SERVE_ROWS
# Requests per second of --seconds: about one second of serving each at the
# recorded baseline, and at least the 1000 a 99th percentile needs.
SERVE_REQUESTS_PER_S = 1200
# serve runs its requests in consecutive chunks of this many, with a
# reference burst after each; wall_s is the median chunk time.
SERVE_CHUNK = 500
# In-process requests per model in the serve replay.
PROBE_REQUESTS = 100

SIMLOOP_MODEL = "tabddpm"
SIMLOOP_PRESET = "small"
SIMLOOP_GROSS = 40000

WORKLOADS = {
    "table1_standard": {"kind": "table1", "budget": "standard", "rows": 3000},
    "table1_smoke": {"kind": "table1", "budget": "smoke", "rows": 12000},
    "serve": {"kind": "serve"},
    "simloop": {"kind": "simloop"},
}
# The reference parts each kind of workload is scaled by: the ones whose
# geometric mean tracked its runs most closely (README 'Reference speed').
# simloop's event loop slows with the Python loop alone.
REFERENCE_PARTS = {"table1": ("loop", "chain"), "serve": ("loop", "chain"), "simloop": ("loop",)}


class BenchError(Exception):
    """The benchmark could not measure (build failure, a crash before
    readiness); no result is printed."""


class Child:
    """A child process whose exit is reaped with wait4, for its peak RSS."""

    def __init__(self, argv, ctx, stdin=False):
        self.argv = [str(a) for a in argv]
        self.log = open(ctx.work / f"{Path(self.argv[0]).name}.stderr", "a")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=ctx.env,
            cwd=ctx.work,
            text=True,
        )
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        self.lines = []

    def read_until(self, prefix):
        """Read stdout up to the first line starting with `prefix`; return
        the time it arrived, or None at end of output."""
        for line in self.proc.stdout:
            self.lines.append(line)
            if line.startswith(prefix):
                return time.perf_counter()
        return None

    def send(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def run_sampled(self, ready, every, burst):
        """Let the child run from readiness to the end of its output,
        stopping it about every `every` seconds (None: never) for one
        `burst()`. Returns the seconds it ran, pauses left out, and the burst
        times; reap it with finish()."""
        ended = threading.Event()

        def drain():
            self.lines.extend(self.proc.stdout)
            self.eof = time.perf_counter()
            ended.set()

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        paused, bursts = 0.0, []
        while not ended.wait(every):
            stop = time.perf_counter()
            os.kill(self.proc.pid, signal.SIGSTOP)
            # WNOWAIT leaves an exit, if that is what came first, for finish().
            state = os.waitid(os.P_PID, self.proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            if state.si_code != os.CLD_STOPPED:
                break
            try:
                bursts.append(burst())
            except BaseException:
                self.proc.kill()
                raise
            finally:
                os.kill(self.proc.pid, signal.SIGCONT)
            paused += time.perf_counter() - stop
        reader.join()
        if every is not None and not bursts:
            bursts.append(burst())
        return self.eof - ready - paused, bursts

    def finish(self, kill=False):
        """Kill (optionally) or drain the child, reap it, and return its exit
        code; sets `exited` and `peak_rss_mb`."""
        if kill:
            self.proc.kill()
        if self.proc.stdin:
            self.proc.stdin.close()
        if not kill:
            self.lines.extend(self.proc.stdout)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.exited = time.perf_counter()
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.log.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode

    def stdout(self):
        return "".join(self.lines)

    def stderr_tail(self):
        """The last lines the child wrote to stderr, for error messages (the
        work directory holding the log is removed when the run ends)."""
        lines = Path(self.log.name).read_text(errors="replace").splitlines()
        return " | ".join(lines[-4:])


class Reference:
    """The host-speed reference. A burst times fixed work that calls no code
    of the workspace: a pure-Python loop, which is throughput-bound (it slows
    when the core's other hardware thread is busy), and, where `parts` names
    it, one `e2ebench-probe chain`, which is latency-bound (it follows the
    clock). A burst counts the geometric mean of its parts' times."""

    def __init__(self, ctx, parts):
        self.chain = None
        if "chain" in parts:
            self.chain = Child([ctx.bin / "e2ebench-probe", "chain"], ctx, stdin=True)

    def burst(self):
        start = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            acc = (acc * 31 + i) & 0xFFFF_FFFF
        loop = time.perf_counter() - start
        if self.chain is None:
            return loop
        self.chain.send("")
        line = self.chain.proc.stdout.readline()
        if not line:
            raise BenchError(f"e2ebench-probe chain stopped: {self.chain.stderr_tail()}")
        return math.sqrt(loop * float(line))

    def close(self):
        if self.chain is not None:
            self.chain.finish()


class Context:
    def __init__(self, args, bins):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.bin = bins
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SURROGATE_")}
        self.env["RAYON_NUM_THREADS"] = "1"
        self.work = None
        self.reference = None


class Result:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        # The last checked output (table1's report, simloop's artifact).
        self.output = None

    def ops(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"no Cargo workspace at {ROOT}; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    commands = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bench",
         "--bin", "table1", "--bin", "serve", "--bin", "simloop"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "probe" / "Cargo.toml")],
    ]
    for command in commands:
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(command)}")
    return target_dir() / "release"


def probe(ctx, *args):
    """Run the helper to completion and return its last stdout line."""
    child = Child([ctx.bin / "e2ebench-probe", *args], ctx)
    code = child.finish()
    if code != 0 or not child.lines:
        raise BenchError(f"e2ebench-probe {args[0]} exited {code}: {child.stderr_tail()}")
    return child.lines[-1]


def fit_checkpoints(ctx, directory, preset, gross, models):
    probe(ctx, "fit", "--dir", directory, "--preset", preset, "--gross", gross,
          "--seed", ctx.seed, "--budget", "smoke", "--models", ",".join(models))


def spawn_to_ready(ctx, argv, prefix):
    """One set-up sample: spawn, wait for the readiness line, kill."""
    child = Child(argv, ctx)
    ready = child.read_until(prefix)
    child.finish(kill=True)
    if ready is None:
        raise BenchError(f"{argv[0]} never printed '{prefix}': {child.stderr_tail()}")
    return ready - child.spawned


def setup_samples(ctx, start, count):
    """`count` set-up times from `start()`, each followed by a reference
    burst; returns the times and the bursts."""
    times, bursts = [], []
    for _ in range(count):
        times.append(start())
        bursts.append(ctx.reference.burst())
    return times, bursts


def batch_invocations(ctx, argv, prefix, check, seconds, every=REFERENCE_EVERY_S):
    """Run a batch binary back to back: once, again while another half
    invocation still fits in `seconds`, and once more if that made an even
    count, so the median sets aside a single stalled or lucky invocation.
    The count follows the invocations' time at reference speed, so a fast or
    slow phase of the host does not change it. Returns per-invocation set-up
    times, (wall, reference bursts) pairs and peak RSS, and the Result that
    `check(child, result)` filled over all invocations."""
    result = Result()
    setup, walls, rss = [], [], []
    spent = 0.0
    while True:
        child = Child(argv, ctx)
        ready = child.read_until(prefix)
        if ready is None:
            child.finish()
            raise BenchError(f"{argv[0]} exited {child.proc.returncode} before '{prefix}': "
                             f"{child.stderr_tail()}")
        walls.append(child.run_sampled(ready, every, ctx.reference.burst))
        child.finish()
        setup.append(ready - child.spawned)
        rss.append(child.peak_rss_mb)
        check(child, result)
        if every is None:
            break
        last = at_reference_speed(*walls[-1])
        spent += last
        if spent + last / 2 > seconds and len(walls) % 2 == 1:
            break
    return setup, walls, rss, result


def at_reference_speed(seconds, bursts):
    """`seconds` measured while reference bursts took `bursts`, scaled to a
    host on which a burst takes REFERENCE_NOMINAL_S. The mean, not the
    median: the bursts fall into a fast and a slow mode, and the measured
    work spent time in both in about the share the bursts did."""
    return seconds * REFERENCE_NOMINAL_S / statistics.fmean(bursts)


def end_to_end(result, setup, setup_bursts, walls, rss, what):
    """Fill the end-to-end metrics. setup_s is the median set-up at the
    speed of the bursts between the spawns; wall_s the median over `walls`,
    (seconds, bursts taken during them) pairs, of each at its own speed."""
    result.metrics = {
        "setup_s": at_reference_speed(e2e.median(setup), setup_bursts),
        "wall_s": e2e.median([at_reference_speed(w, b) for w, b in walls]),
        "peak_rss_mb": e2e.median(rss),
    }
    bursts = [b for _, each in walls for b in each]
    result.notes.append(f"setup_s is the median of {len(setup)} spawns, wall_s of {what}, "
                        f"peak_rss_mb of {len(rss)} process(es)")
    result.notes.append(
        f"as measured: set-up {e2e.median(setup):.4f} s, wall {e2e.median([w for w, _ in walls]):.4f} s; "
        f"reference burst mean {statistics.fmean(setup_bursts) * 1e3:.2f} ms over {len(setup_bursts)} "
        f"during set-up, {statistics.fmean(bursts) * 1e3:.2f} ms over {len(bursts)} during the work "
        f"(nominal {REFERENCE_NOMINAL_S * 1e3:g} ms)")


def replay(ctx, *args):
    trace = json.loads(probe(ctx, "trace", *args))
    layers = e2e.layer_times(trace["spans"])
    return trace, layers


def layer_metrics(result, trace, layers, untraced_wall):
    """Fill every per-layer metric: span self times, counts, and zero for
    layers this workload does not reach."""
    own = {name: self_s for name, (_, self_s, _) in layers.items()}
    metrics = {m.name: 0.0 for m in e2e.PER_LAYER}
    metrics["traced.total_s"] = layers["run"][0]
    metrics["traced.coverage"] = e2e.coverage(trace["spans"])
    metrics["untraced.wall_s"] = untraced_wall
    for name, self_s in own.items():
        if name + "_s" in metrics:
            metrics[name + "_s"] = self_s
    metrics.update((name, value) for name, value in trace["counts"].items() if name in metrics)
    result.metrics = metrics
    shares = sorted(((self_s / metrics["traced.total_s"], name) for name, self_s in own.items()),
                    reverse=True)
    result.notes.append("self-time shares of the traced run: " + ", ".join(
        f"{name} {share:.1%}" for share, name in shares if share >= 0.001))
    result.notes.append(f"traced total {metrics['traced.total_s']:.3f} s beside untraced wall_s "
                        f"{untraced_wall:.3f} s; layer spans cover {metrics['traced.coverage']:.1%}")


def run_table1(ctx, spec):
    report = ctx.work / "table1.json"
    argv = [ctx.bin / "table1", "--rows", spec["rows"], "--budget", spec["budget"],
            "--seed", ctx.seed, "--json", report]
    prefix = "train rows:"

    def check(child, result):
        text = report.read_text() if report.exists() else None
        problems, failed = e2e.check_table1(child.stdout(), text, spec["rows"], spec["budget"])
        if child.proc.returncode != 0:
            problems.append(f"table1 exited {child.proc.returncode}")
            failed = set(e2e.MODELS)
        result.ops(len(e2e.MODELS), len(failed), problems)
        result.output = text

    if ctx.trace:
        _, walls, _, result = batch_invocations(ctx, argv, prefix, check, 0, every=None)
        trace, layers = replay(ctx, "table1", "--rows", spec["rows"], "--budget", spec["budget"],
                               "--seed", ctx.seed)
        layer_metrics(result, trace, layers, walls[0][0])
        if result.failed == 0:
            binary = e2e.table1_values(result.output)
            mismatched = [k for k in binary if k.split(".")[0] in e2e.MODELS
                          and trace["counts"].get(k) != binary[k]]
            if mismatched:
                result.ops(0, 0, [f"replay disagrees with table1 on {mismatched}"])
            result.metrics.update(binary)
        return result

    setup, bursts = setup_samples(ctx, lambda: spawn_to_ready(ctx, argv, prefix),
                                  SETUP_SPAWNS - 1)
    more_setup, walls, rss, result = batch_invocations(ctx, argv, prefix, check, ctx.seconds)
    end_to_end(result, setup + more_setup, bursts, walls, rss, f"{len(walls)} invocation(s)")
    if result.failed == 0:
        values = e2e.table1_values(result.output)
        result.notes.append("Table-I means over the four models (not gated): " + ", ".join(
            f"{k} {values['table1.' + k]:.4f}" for k in e2e.TABLE1_METRICS))
    return result


def start_serve(ctx, argv):
    """Spawn serve and wait for its reply to a health request; return the
    child and its set-up time."""
    child = Child(argv, ctx, stdin=True)
    child.send(json.dumps({"id": 0, "op": "health"}))
    ready = child.read_until("{")
    if ready is None:
        child.finish()
        raise BenchError(f"serve never answered health: {child.stderr_tail()}")
    return child, ready - child.spawned


def closed_loop(child, requests, ctx, latency, responses):
    """Keep SERVE_OUTSTANDING of `requests` in flight on one pipe until each
    is answered, recording latency seconds and responses by id. Returns the
    seconds from the first send to the last response, or None if serve
    stopped answering."""
    sent = {}
    pending = iter(requests)
    in_flight = 0

    def send(request):
        line = json.dumps({"id": request.id, "op": "sample", "model": request.model,
                           "preset": SERVE_PRESET, "seed": ctx.seed, "budget": "smoke",
                           "rows": request.rows, "sample_seed": request.sample_seed})
        sent[request.id] = time.perf_counter()
        child.send(line)

    first = time.perf_counter()
    for request in itertools.islice(pending, SERVE_OUTSTANDING):
        send(request)
        in_flight += 1
    while in_flight:
        line = child.proc.stdout.readline()
        last = time.perf_counter()
        if not line:
            return None
        response = json.loads(line)
        rid = response.get("id")
        if rid not in sent or rid in responses:
            continue
        latency[rid] = last - sent[rid]
        responses[rid] = response
        in_flight -= 1
        request = next(pending, None)
        if request is not None:
            send(request)
            in_flight += 1
    return last - first


def run_serve(ctx, spec):
    checkpoints = ctx.work / "checkpoints"
    fit_checkpoints(ctx, checkpoints, SERVE_PRESET, SERVE_GROSS, e2e.MODELS)
    argv = [ctx.bin / "serve", "--checkpoints", checkpoints, "--max-batch-rows", SERVE_MAX_BATCH_ROWS]

    def spawn_to_health():
        child, seconds = start_serve(ctx, argv)
        child.finish()
        return seconds

    setup, setup_bursts = setup_samples(ctx, spawn_to_health, 0 if ctx.trace else SETUP_SPAWNS - 1)
    count = SERVE_REQUESTS_PER_S * ctx.seconds
    stream = e2e.request_stream(ctx.seed, count, SERVE_ROWS)
    child, seconds = start_serve(ctx, argv)
    setup.append(seconds)
    latency, responses, chunks, bursts = {}, {}, [], []
    for start in range(0, len(stream), SERVE_CHUNK):
        elapsed = closed_loop(child, stream[start:start + SERVE_CHUNK], ctx, latency, responses)
        if elapsed is None:
            break
        chunks.append(elapsed)
        bursts.append(ctx.reference.burst())
    code = child.finish()
    if not chunks:
        raise BenchError(f"serve answered no chunk of requests (exit {code}): {child.stderr_tail()}")

    result = Result()
    problems, failed = e2e.check_serve(stream, responses)
    if code != 0:
        problems.append(f"serve exited {code}")
    result.ops(len(stream), len(failed), problems)
    rows = sum(r.get("rows") or 0 for r in responses.values() if r.get("ok"))
    samples = [latency[r.id] * 1e3 for r in stream if r.id in latency]
    p50, p99 = e2e.percentile(samples, 50), e2e.percentile(samples, 99)
    tail = e2e.tail_percentile(len(samples))
    wall = sum(chunks)
    result.notes.append(
        f"closed loop, {SERVE_OUTSTANDING} outstanding, {len(stream)} requests of {SERVE_ROWS} rows; "
        f"latency over n={len(samples)}: p50 {p50:.3f} ms ({e2e.beyond(len(samples), 50)} beyond), "
        f"p99 {p99:.3f} ms ({e2e.beyond(len(samples), 99)} beyond), "
        f"highest qualified p{tail:g} {e2e.percentile(samples, tail):.3f} ms "
        f"({e2e.beyond(len(samples), tail)} beyond), {rows / wall:.0f} rows/s")

    if not ctx.trace:
        end_to_end(result, setup, setup_bursts, [(e2e.median(chunks), bursts)], [child.peak_rss_mb],
                   f"{len(chunks)} chunks of {SERVE_CHUNK} requests")
        return result

    trace, layers = replay(ctx, "serve", "--dir", checkpoints, "--requests", PROBE_REQUESTS,
                           "--rows", SERVE_ROWS, "--sample-seed", e2e.derive_seed(ctx.seed, "probe"))
    layer_metrics(result, trace, layers, e2e.median(chunks))
    m = result.metrics
    for model in e2e.MODELS:
        m[f"{model}.request_ms"] = e2e.median(layers[f"{model}.request"][2]) * 1e3
        m[f"serve.p50_ms.{model}"] = e2e.median(
            [latency[r.id] * 1e3 for r in stream if r.model == model and r.id in latency])
    m["serve.digest_ms"] = e2e.median(layers["serve.digest"][2]) * 1e3
    cheap = [model for model in e2e.MODELS if model != "tabddpm"]
    m["serve.overhead_ms"] = sum(m[f"serve.p50_ms.{x}"] - m[f"{x}.request_ms"] for x in cheap) / len(cheap)
    m["serve.latency_p50_ms"], m["serve.latency_p99_ms"] = p50, p99
    m["serve.rows_per_s"] = rows / wall
    m["serve.requests"] = len(stream)
    m["serve.rows"] = rows
    m["serve.repeats"] = sum(r.repeat for r in stream)
    return result


def run_simloop(ctx, spec):
    checkpoints = ctx.work / "checkpoints"
    fit_checkpoints(ctx, checkpoints, SIMLOOP_PRESET, SIMLOOP_GROSS, [SIMLOOP_MODEL])
    artifact = ctx.work / "simloop.json"
    sample_seed = e2e.derive_seed(ctx.seed, "simloop-sample")
    selectors = ["--model", SIMLOOP_MODEL, "--seed", ctx.seed, "--budget", "smoke",
                 "--preset", SIMLOOP_PRESET, "--gross", SIMLOOP_GROSS, "--sample-seed", sample_seed]
    argv = [ctx.bin / "simloop", "--checkpoint-dir", checkpoints, *selectors, "--out", artifact]
    prefix = "simloop: loaded checkpoint"

    def check(child, result):
        text = artifact.read_text() if artifact.exists() else None
        problems, failed = e2e.check_simloop(child.proc.returncode, text)
        result.ops(len(e2e.POLICIES), len(failed), problems)
        result.output = text
        artifact.unlink(missing_ok=True)

    if ctx.trace:
        _, walls, _, result = batch_invocations(ctx, argv, prefix, check, 0, every=None)
        trace, layers = replay(ctx, "simloop", "--dir", checkpoints, *selectors)
        layer_metrics(result, trace, layers, walls[0][0])
        if result.failed == 0:
            result.metrics.update(e2e.simloop_values(result.output))
        return result

    setup, bursts = setup_samples(ctx, lambda: spawn_to_ready(ctx, argv, prefix),
                                  SETUP_SPAWNS - 1)
    more_setup, walls, rss, result = batch_invocations(ctx, argv, prefix, check, ctx.seconds)
    end_to_end(result, setup + more_setup, bursts, walls, rss, f"{len(walls)} invocation(s)")
    if result.failed == 0:
        values = e2e.simloop_values(result.output)
        result.notes.append("fidelity means over the three policies (not gated): " + ", ".join(
            f"{k} {v:.4f}" for k, v in values.items()))
    return result


RUNNERS = {"table1": run_table1, "serve": run_serve, "simloop": run_simloop}


def run_workload(name, args, bins):
    ctx = Context(args, bins)
    ctx.work = target_dir() / "e2ebench" / f"{name}-{os.getpid()}"
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    cpus = os.sched_getaffinity(0)
    spec = WORKLOADS[name]
    if spec["kind"] != "serve":
        # The batch binaries run on one thread: keep them and the harness on
        # one CPU, so the reference bursts run on the CPU the child ran on.
        os.sched_setaffinity(0, {max(cpus)})
    try:
        ctx.reference = Reference(ctx, REFERENCE_PARTS[spec["kind"]])
        return RUNNERS[spec["kind"]](ctx, spec)
    finally:
        if ctx.reference is not None:
            ctx.reference.close()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(ctx.work, ignore_errors=True)


def payload(result, table):
    units = {m.name: m.unit for m in table}
    return {
        "correct": result.failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": units[name]} for name in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        parser.error("--seed must be in [0, 2^63) and --seconds >= 1")

    bins = build()
    tier = subprocess.run([str(bins / "e2ebench-probe"), "tier"], capture_output=True, text=True).stdout.strip()
    print(f"host: nproc {len(os.sched_getaffinity(0))}, simd tier {tier}, RAYON_NUM_THREADS=1")

    table = e2e.PER_LAYER if args.trace else e2e.END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = Result()
    for name in names:
        print(f"workload {name}: seed {args.seed}, --seconds {args.seconds}, trace {args.trace}")
        result = run_workload(name, args, bins)
        for note in result.notes:
            print(f"  {note}")
        for metric in table:
            print(f"  {metric.name:28s} {result.metrics[metric.name]:>14.6g} {metric.unit}")
        print(f"  operations: {result.attempted} attempted, {result.failed} failed")
        for problem in result.problems:
            print(f"  FAILED CHECK: {problem}")
        combined.ops(result.attempted, result.failed, result.problems)
        combined.metrics.update({f"{name}.{k}": v for k, v in result.metrics.items()})
    if len(names) == 1:
        print(json.dumps(payload(result, table)))
    else:
        print(json.dumps(payload(combined, [e2e.Metric(f"{w}.{m.name}", m.unit, m.better)
                                            for w in names for m in table])))

if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        sys.exit(1)
