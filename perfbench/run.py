"""Outside-in benchmark for ontoembed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It generates the workload's inputs from
the seed, then runs the ``ontoembed`` command line the way a user does: one
fresh, single-threaded child process per command (BLAS pinned to one
thread).  It repeats the workload's commands until S seconds have passed
(at least once), checks every output, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
it runs one untraced repeat and one traced repeat (every public function of
every package module wrapped in a span) and reports the per-layer metrics.
See perfbench/README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported, here and in every child

import numpy as np  # noqa: E402
from calibrate import SpeedProbe, Watch  # noqa: E402
from tracer import self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_LIMIT_S = 170.0
SETUP_PROBES = 3
MIN_REPEATS = 1
RATE_LABELS = ("embed", "nel")
RAW = ("wall_s", "cpu_s", "speed_factor")
# Speed-factor weight on the Python kernel (calibrate.py), per command label,
# from calibration runs: training slows down like an even mix of the two
# kernels, `eval nel` mostly like the Python kernel, and `embed`, the other
# evals and all start-up exactly like it (weight 1, the default).
PYTHON_WEIGHT = {"pipeline": 0.5, "train": 0.5, "nel": 0.75}

END_TO_END = {
    "cpu_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "embed_texts_per_s": "1/s",
    "nel_mentions_per_s": "1/s",
}
TRACED_FUNCTIONS = (
    "trainer.adamw_step", "trainer.adapt_sts", "trainer.train_contrastive",
    "trainer.train_self_distill", "trainer.build_targets", "trainer.train_xlingual",
    "encoder.encode_batch", "encoder.backward_batch", "encoder.encode", "encoder.tokenize",
    "encoder.checkpoint_to_bytes", "encoder.checkpoint_from_bytes",
    "losses.info_nce", "losses.cosine_regression", "losses.mse",
    "soup.greedy_soup",
    "evalsuite.model_digest", "evalsuite.eval_nel", "evalsuite.eval_sts",
    "evalsuite.eval_bcr", "evalsuite.eval_nli_triplets",
    "evalsuite.load_sts_dataset", "evalsuite.load_bcr_dataset",
    "evalsuite.load_nel_dataset", "evalsuite.load_nli_dataset",
    "ontology.load_ontology", "ontology.merge_glossary", "ontology.build_corpus",
    "ontology.load_parallel_pairs",
    "cli.main",
)
LAYERS = ("ontology", "encoder", "losses", "trainer", "soup", "evalsuite", "cli")
COUNTS = {
    "trainer.adamw_step.params": "count",
    "encoder.encode_batch.texts": "count",
    "encoder.backward_batch.texts": "count",
    "encoder.encode.texts": "count",
    "encoder.checkpoint_to_bytes.bytes": "B",
    "encoder.checkpoint_from_bytes.bytes": "B",
    "evalsuite.eval_nel.mentions": "count",
}
P50 = ("trainer.adamw_step", "encoder.backward_batch", "encoder.encode_batch")


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in TRACED_FUNCTIONS:
        units.update({f"{fn}.calls": "count", f"{fn}.self_s": "s", f"{fn}.total_s": "s"})
    units.update(COUNTS)
    units.update({f"{fn}.p50_ms": "ms" for fn in P50})
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# child processes


class Proc:
    """One finished child: exit code, wall and CPU seconds, set-up seconds
    (None if it never reached ``cli.main``), max RSS, and the speed factor
    of its vCPU while it ran (see calibrate.py)."""

    def __init__(self, label, code, wall_s, cpu_s, setup_s, rss_mb, factor, log):
        self.label, self.code, self.wall_s, self.cpu_s = label, code, wall_s, cpu_s
        self.setup_s, self.rss_mb, self.factor, self.log = setup_s, rss_mb, factor, log
        self.extra = False

    @property
    def ref_s(self) -> float:
        """CPU seconds at reference speed."""
        return self.cpu_s * self.factor


class Runner:
    """Spawns children, times them and counts commands and failures."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.serial = 0
        self.commands = 0
        self.failed = 0
        self.setup_samples: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
        self.probe = SpeedProbe()

    def spawn(self, label: str, child_args: list[str]) -> Proc:
        self.serial += 1
        stamp = os.path.join(self.work, f"stamp.{self.serial}")
        log = os.path.join(self.work, f"log.{self.serial}.{label}")
        with open(log, "wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, stamp, *child_args],
                                    stdout=out, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                with Watch(self.probe) as watch:
                    _, status, usage = os.wait4(proc.pid, 0)
                    end = time.monotonic()
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = None
        if os.path.isfile(stamp):
            with open(stamp, encoding="utf-8") as fh:
                setup = (float(fh.read()) - start) * watch.factor(1.0)
        factor = watch.factor(PYTHON_WEIGHT.get(label, 1.0))
        return Proc(label, proc.returncode, end - start, usage.ru_utime + usage.ru_stime,
                    setup, usage.ru_maxrss / 1024.0, factor, log)

    def command(self, label: str, argv: list[str], trace_out: str | None = None) -> Proc:
        """Run one ontoembed command; a non-zero exit counts as a failure."""
        self.commands += 1
        args = (["--trace", trace_out] if trace_out else []) + ["--", *argv]
        proc = self.spawn(label, args)
        if proc.code != 0:
            self.failed += 1
            with open(proc.log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:]
            print(f"command failed ({proc.code}): ontoembed {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
        return proc

    def prepare(self, commands: list[list[str]]) -> None:
        for argv in commands:
            self.command("prepare", argv)

    def probe_setup(self) -> None:
        """Children that only enter ``cli.main`` (``--help``): set-up samples."""
        for _ in range(SETUP_PROBES):
            proc = self.spawn("probe", ["--", "--help"])
            if proc.code == 0 and proc.setup_s is not None:
                self.setup_samples.append(proc.setup_s)


# ---------------------------------------------------------------------------
# one run


class Context:
    def __init__(self, seed: int, inputs: str, runner: Runner):
        self.seed, self.inputs, self.runner = seed, inputs, runner
        self.cache = os.path.join(WORK, "cache")


def output_digests(directory: str) -> dict[str, str]:
    """SHA-256 of every output file; manifests carry a wall-clock duration
    and are left out."""
    digests = {}
    for base, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".manifest.json"):
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def run_repeat(workload, ctx, out: str, trace_dir: str | None = None) -> list[Proc]:
    """One timed pass over the workload's commands; with ``trace_dir`` each
    command is traced and writes its spans there."""
    os.makedirs(out)
    commands = workload.commands(ctx, out)
    procs = []
    for label, argv in commands:
        trace_out = os.path.join(trace_dir, f"{label}.json") if trace_dir else None
        procs.append(ctx.runner.command(label, argv, trace_out))
    if trace_dir is None:
        # Extra samples of the short inference commands, for steadier rates;
        # they rewrite the same outputs and are left out of cpu_ref_s.
        for label, argv in commands:
            for _ in range(workload.rate_samples.get(label, 1) - 1):
                procs.append(ctx.runner.command(label, argv))
                procs[-1].extra = True
    return procs


def trace_files(trace_dir: str):
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            yield json.load(fh)


def more_time(timed_start: float, seconds: float, repeats: list, started: float) -> bool:
    """Another repeat fits: the measuring time is not used up, and the last
    repeat's duration still fits before the run's time limit."""
    now = time.monotonic()
    last = sum(p.wall_s for p in repeats[-1][1])
    return now - timed_start < seconds and now + 1.5 * last < started + RUN_LIMIT_S - 30.0


def figures(repeats: list[tuple[str, list[Proc]]], ctx) -> dict:
    """End-to-end figures: medians over repeats (times, RSS) and over every
    sample of the inference commands (rates per CPU second at reference
    speed).  ``wall_s``, ``cpu_s`` and ``speed_factor`` are printed raw
    figures, not metrics."""
    procs = [p for _, ps in repeats for p in ps]
    per_item = {"embed": ctx.sizes["texts"], "nel": ctx.mentions}
    rates = {label: statistics.median(per_item[label] / p.ref_s
                                      for p in procs if p.label == label)
             for label in RATE_LABELS}

    def per_repeat(value):
        return statistics.median(sum(value(p) for p in ps if not p.extra) for _, ps in repeats)

    return {
        "cpu_ref_s": per_repeat(lambda p: p.ref_s),
        "wall_s": per_repeat(lambda p: p.wall_s),
        "cpu_s": per_repeat(lambda p: p.cpu_s),
        "speed_factor": statistics.median(p.factor for p in procs),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in ps) for _, ps in repeats),
        "embed_texts_per_s": rates["embed"],
        "nel_mentions_per_s": rates["nel"],
    }


def trace_metrics(trace_dir: str, tokenize: dict) -> dict:
    """Per-layer metrics from the traced commands' spans and counts, plus
    the cold ``tokenize`` timing; also the root and self-time sums."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    root_s = self_sum = 0.0
    for payload in trace_files(trace_dir):
        spans = payload["spans"]
        for span, self_s in zip(spans, self_times(spans)):
            fn, parent, start, end = span
            calls[fn] = calls.get(fn, 0) + 1
            total[fn] = total.get(fn, 0.0) + (end - start)
            own[fn] = own.get(fn, 0.0) + self_s
            durations.setdefault(fn, []).append(end - start)
            self_sum += self_s
            if parent < 0:
                root_s += end - start
        for key, n in payload["counts"].items():
            counts[key] = counts.get(key, 0) + n
    calls["encoder.tokenize"] = tokenize["calls"]
    total["encoder.tokenize"] = own["encoder.tokenize"] = tokenize["total_s"]
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"] = calls.get(fn, 0)
        metrics[f"{fn}.self_s"] = own.get(fn, 0.0)
        metrics[f"{fn}.total_s"] = total.get(fn, 0.0)
    for key in COUNTS:
        metrics[key] = counts.get(key, 0)
    for fn in P50:
        metrics[f"{fn}.p50_ms"] = 1000.0 * statistics.median(durations.get(fn, [0.0]))
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            v for fn, v in own.items() if fn.startswith(layer + ".") and fn != "encoder.tokenize")
    return {"metrics": metrics, "root_s": root_s, "self_sum_s": self_sum}


def cold_tokenize(runner: Runner, trace_dir: str) -> dict:
    """Time ``encoder.tokenize`` over the distinct texts the traced commands
    encoded, in a fresh process."""
    groups: dict[str, set[str]] = {}
    for payload in trace_files(trace_dir):
        for key, texts in payload["texts"].items():
            groups.setdefault(key, set()).update(texts)
    texts_path = os.path.join(runner.work, "tokenize_texts.json")
    result_path = os.path.join(runner.work, "tokenize_result.json")
    with open(texts_path, "w", encoding="utf-8") as fh:
        json.dump({k: sorted(v) for k, v in groups.items()}, fh)
    proc = runner.spawn("tokenize", ["--tokenize", texts_path, result_path])
    if proc.code != 0:
        return {"calls": 0, "total_s": 0.0, "ok": False}
    with open(result_path, encoding="utf-8") as fh:
        return dict(json.load(fh), ok=True)


def stolen_s() -> float:
    """CPU time the hypervisor took from this machine's vCPUs (0 on bare
    metal); the reason wall times here spread more than CPU times."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def run(workload, seed: int, seconds: float, trace: bool, work: str, started: float) -> dict:
    from workloads import Checks

    checks = Checks()
    runner = Runner(work, started + RUN_LIMIT_S)
    ctx = Context(seed, os.path.join(work, "inputs"), runner)
    os.makedirs(ctx.inputs)
    workload.prepare(ctx)
    runner.probe_setup()

    repeats: list[tuple[str, list[Proc]]] = []
    timed_start = time.monotonic()
    planned = 1 if trace else MIN_REPEATS
    while len(repeats) < planned or (not trace and more_time(timed_start, seconds, repeats,
                                                            started)):
        out = os.path.join(work, f"repeat{len(repeats) + 1}")
        repeats.append((out, run_repeat(workload, ctx, out)))
    traced_out = trace_dir = None
    if trace:
        traced_out, trace_dir = os.path.join(work, "traced"), os.path.join(work, "spans")
        os.makedirs(trace_dir)
        traced_procs = run_repeat(workload, ctx, traced_out, trace_dir)

    first = repeats[0][0]
    digests = output_digests(first)
    compared = [out for out, _ in repeats[1:]] + ([traced_out] if traced_out else [])
    for out in compared:
        checks.expect(output_digests(out) == digests,
                      f"outputs of {os.path.basename(out)} differ from {os.path.basename(first)}")
    quality = {}
    for step in (workload.check, workload.check_embed, workload.quality):
        try:
            quality.update(step(ctx, first, checks) or {})
        except Exception as exc:  # malformed outputs: a failed check, the run goes on
            checks.expect(False, f"{step.__name__} could not read the outputs: {exc!r}")

    for _, procs in repeats:
        runner.setup_samples.extend(p.setup_s for p in procs if p.setup_s is not None)
    measured = figures(repeats, ctx)
    if trace:
        tokenize = cold_tokenize(runner, trace_dir)
        checks.expect(tokenize["ok"], "cold tokenize timing failed")
        traced = trace_metrics(trace_dir, tokenize)
        checks.expect(traced["self_sum_s"] <= traced["root_s"] * (1 + 1e-9) + 1e-9,
                      "span self times sum to more than the root spans")
        metrics = traced["metrics"]
        metrics["trace.overhead_ratio"] = (sum(p.ref_s for p in traced_procs)
                                           / measured["cpu_ref_s"])
        units = per_layer_units()
    else:
        metrics = dict(measured, setup_s=statistics.median(runner.setup_samples))
        units = END_TO_END

    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"perfbench_raw": {k: measured[k] for k in RAW}}, sort_keys=True))
    print(json.dumps({"perfbench_quality": quality}, sort_keys=True))
    print(json.dumps({"perfbench_outputs_sha256": digests}, sort_keys=True))
    print(json.dumps({"perfbench_repeats": [
        [[p.label, round(p.wall_s, 6), round(p.cpu_s, 6), round(p.factor, 6)] for p in procs]
        for _, procs in repeats]}))
    return {
        "correct": not checks.failures and runner.failed == 0,
        "attempted": runner.commands,
        "failed": runner.failed + len(checks.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "ontoembed", "cli.py")):
        print(f"error: {ROOT} is not an ontoembed checkout (no src/ontoembed)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    # The speed probe must run on the vCPU the children run on.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {env["pinned_cpu"]})
    except OSError:
        env["pinned_cpu"] = None
    env["loadavg_before"] = os.getloadavg()
    steal_before = stolen_s()
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    env["loadavg_after"] = os.getloadavg()
    env["stolen_s"] = stolen_s() - steal_before
    env["run_s"] = time.monotonic() - started
    print(json.dumps({"perfbench_env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
