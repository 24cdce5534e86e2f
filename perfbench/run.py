"""trs-planner benchmark: run one workload, check its answers, print its metrics.

    python3 perfbench/run.py --workload paper-session --seed 0 --seconds 40 --trace 0

Run from the repository root.  The planner is imported from ``src`` (it needs
no build).  Every timed pass is a fresh interpreter issuing the workload's
operation list in a closed loop; passes repeat while the next one is expected
to end within ``--seconds``.  Each time metric is a median over the run's
passes (the latency ones are taken per pass first), and ``setup_s`` is the
median time-to-ready of the run's fresh interpreters: each pass's worker, and
workers that only import when the run has fewer than five passes.  Before
timing, one discarded process warms the ``.pyc`` files and the file cache.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: one untraced and one traced pass (plus, on
mc-oracle, one single-thread pass) and ``python -X importtime`` runs.

Every metric is printed on its own line as ``name value unit``; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  The full result, with the environment it ran in, is written to
``perfbench/out/``.  Exit status is 0 when a result was printed, 2 when the
planner's sources are missing, 3 when a pass could not complete.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import answers
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("paper-session", "fresh-queries", "mc-oracle")

SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3
# Whole-run budget; a pass that would overrun it is killed.
RUN_BUDGET_S = 170.0
# At most two worker threads (the sandbox has 2 CPUs); BLAS stays at one
# thread so Monte-Carlo workers x BLAS threads never exceed the cores.
MAX_THREADS = 2
READY = "import trs_planner, trs_planner.cli; print('ready', flush=True)"
TAIL_BEYOND = 10

class PassError(RuntimeError):
    """A worker process failed or overran the run budget."""


def threads_available() -> int:
    return min(len(os.sched_getaffinity(0)), MAX_THREADS)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TRS_PLANNER_THREADS=str(threads),
        PYTHONHASHSEED="0",
    )
    return env


def environment() -> dict:
    """What the result depends on besides the code: versions and CPUs."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for file in sorted(SRC.rglob("*.py")):
        digest.update(file.relative_to(SRC).as_posix().encode())
        digest.update(file.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
    }


class Runner:
    """Spawns the run's processes against one deadline."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise PassError("run budget exhausted")
        return left

    def _run(self, argv: list[str], threads: int) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=child_env(threads), capture_output=True, text=True,
                timeout=self._remaining(),
            )
        except subprocess.TimeoutExpired as err:
            raise PassError(f"{argv[1:3]} overran the run budget") from err

    def _worker(self, args: list[str], threads: int) -> tuple[float, str]:
        """Run worker.py; return its time to ready and the rest of its stdout.

        The worker prints ``ready`` once the planner and its CLI are imported,
        before it builds or issues any operation.
        """
        budget = self._remaining()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=child_env(threads),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            watchdog = threading.Timer(budget, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                ready_s = time.perf_counter() - start
                out, err = proc.communicate()
            finally:
                watchdog.cancel()
        if time.monotonic() >= self.deadline:
            raise PassError(f"worker {args[:4]} overran the run budget")
        if line.strip() != "ready" or proc.returncode != 0:
            raise PassError(f"worker {args[:4]} exited {proc.returncode}:\n{err[-2000:]}")
        return ready_s, out

    def time_to_ready(self, threads: int) -> float:
        """Seconds from spawning an interpreter until the planner is imported."""
        return self._worker(["--warmup"], threads)[0]

    def importtime(self, threads: int) -> str:
        proc = self._run([sys.executable, "-X", "importtime", "-c", READY], threads)
        if proc.returncode != 0:
            raise PassError(f"importtime run failed:\n{proc.stderr[-2000:]}")
        return proc.stderr

    def timed_pass(self, threads: int, pass_index: int = 0, trace_path: Path | None = None) -> dict:
        """One pass in a fresh worker; its time to ready is the pass's ``ready_s``."""
        args = ["--workload", self.workload, "--seed", str(self.seed), "--pass", str(pass_index)]
        if self.tiny:
            args.append("--tiny")
        if trace_path is not None:
            args += ["--trace", str(trace_path)]
        ready_s, out = self._worker(args, threads)
        return {"ready_s": ready_s, **json.loads(out.splitlines()[-1])}


def tail_rank(n: int) -> int:
    """1-based rank, among n latencies, of the highest one with TAIL_BEYOND above it."""
    return max(n - TAIL_BEYOND, 1)


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of ``values``.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics.  One
    operation's latency jitters by 10-15% on a shared machine; weighting its
    neighbours in too cut that noise in a pass's tail from 8% to 5%, against
    picking one order statistic.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule over each order statistic's 1/n of [0, 1]
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        xs = [(i * steps + j) * h for j in range(steps + 1)]
        inner = sum((4 if j % 2 else 2) * density(x) for j, x in enumerate(xs[1:-1], 1))
        weights.append((density(xs[0]) + inner + density(xs[-1])) * h / 3)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def pass_latency(latencies: list[float]) -> dict:
    """Median and tail latency over the operations of one pass.

    The tail is at the percentile that leaves TAIL_BEYOND operations of the
    pass above it.  The median is the sample median: on paper-session it
    falls in a gap between 13 ms and 33 ms operations, which the
    Harrell-Davis weights would bridge.
    """
    n = len(latencies)
    return {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": harrell_davis(latencies, tail_rank(n) / n),
    }


def latency_metrics(passes: list[dict]) -> dict:
    """Median over passes of each pass's median and tail latency.

    A pass is timed in one stretch of the machine's varying speed, so a
    median over passes keeps one slow stretch from moving the result, as
    it does for ``wall_s``.
    """
    per_pass = [pass_latency(p["latencies"]) for p in passes]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def differing(a: dict, b: dict) -> list[str]:
    """Labels whose answers are not bit-identical between two passes."""
    return [label for label in a if not answers.same(b.get(label), a[label], None)]


def run_end_to_end(runner: Runner, seconds: float, threads: int) -> tuple[dict, list, dict]:
    """Passes while the next one is expected to end within ``seconds``.

    Each pass's worker is also a set-up sample, so the samples are spread
    over the run rather than taken in one burst, and a slow minute of a
    shared machine does not set ``setup_s`` alone.  The slowest pass so far
    is the estimate for the next one, which keeps the run's length close to
    ``seconds``.  Returns metrics as {name: (value, unit)}, the passes, and
    extra fields for the result file.
    """
    passes = []
    start = time.monotonic()
    slowest = 0.0
    while not passes or time.monotonic() - start + slowest <= seconds:
        pass_start = time.monotonic()
        passes.append(runner.timed_pass(threads, pass_index=len(passes)))
        slowest = max(slowest, time.monotonic() - pass_start)
    setup = [p["ready_s"] for p in passes]
    while len(setup) < (1 if runner.tiny else SETUP_SPAWNS):
        setup.append(runner.time_to_ready(threads))
    latency = latency_metrics(passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_s": (latency["op_p50_s"], "s"),
        "op_tail_s": (latency["op_tail_s"], "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    extra = {
        "mismatched": {},
        "setup_samples_s": setup,
        "per_pass": [
            {"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"], **pass_latency(p["latencies"]),
             "labels": p["labels"], "latencies": p["latencies"]}
            for p in passes
        ],
    }
    return metrics, passes, extra


def run_traced(runner: Runner, threads: int) -> tuple[dict, list, dict]:
    """Per-layer metrics from one traced pass, against an untraced one."""
    imports = [runner.importtime(threads) for _ in range(1 if runner.tiny else IMPORTTIME_SPAWNS)]
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{runner.workload}.jsonl"
    untraced = runner.timed_pass(threads)
    traced = runner.timed_pass(threads, trace_path=span_file)
    passes = [untraced, traced]
    mismatched = {
        label: "traced answer differs from untraced"
        for label in differing(untraced["answers"], traced["answers"])
    }
    speedup = 0.0
    if runner.workload == "mc-oracle":
        single = runner.timed_pass(1)
        passes.append(single)
        speedup = single["wall_s"] / untraced["wall_s"]
        for label in differing(untraced["answers"], single["answers"]):
            mismatched[label] = "answer differs between thread caps"

    metrics = tracing.importtime_metrics(imports)
    metrics.update(
        tracing.layer_metrics(
            tracing.read_spans(span_file), traced["missing"], sum(traced["latencies"]),
            traced["se_cache"],
        )
    )
    if traced["workers"] is not None:
        metrics["montecarlo.workers"] = (traced["workers"], "count")
        metrics["montecarlo.thread_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio")
    extra = {
        "missing": traced["missing"],
        "span_file": str(span_file.relative_to(ROOT)),
        "mismatched": mismatched,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
    }
    return metrics, passes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="cheap subset of operations, one pass")
    args = parser.parse_args(argv)

    if not (SRC / "trs_planner" / "__init__.py").is_file():
        print(f"error: planner sources not found under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.tiny)
    threads = threads_available()
    try:
        runner.time_to_ready(threads)  # discarded: warms .pyc files and the file cache
        if args.trace:
            metrics, passes, extra = run_traced(runner, threads)
        else:
            seconds = 0.0 if args.tiny else args.seconds
            metrics, passes, extra = run_end_to_end(runner, seconds, threads)
    except PassError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    failures = {}
    for p in passes:
        failures.update(p["failures"])
    failures.update(extra["mismatched"])
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes) + len(extra["mismatched"])
    n_ops = len(passes[0]["latencies"])
    env = environment()
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env, "threads": threads,
        "metrics": reported, "attempted": attempted, "failed": failed,
        "failures": failures, "operations_per_pass": n_ops, "passes": len(passes), **extra,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    for label, why in sorted(failures.items()):
        print(f"FAILED {label}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    rank = tail_rank(n_ops)
    print(
        f"# {len(passes)} passes of {n_ops} operations; op_tail_s is latency rank {rank} "
        f"of {n_ops} (p{100.0 * rank / n_ops:.1f}); threads {threads}; "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
