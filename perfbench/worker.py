"""One pass of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload paper-session --seed 0

Issues the workload's operations in a closed loop (one client, each operation
starts when the previous one returns), times each, then checks every answer:
the workload's own invariants first, then the recorded reference answer when
one exists for the operation's inputs.  The first stdout line is ``ready``,
printed once the planner is imported; the last is a JSON summary.

``--trace PATH`` wraps the planner's public functions (see ``tracing``) and
writes the spans to PATH.  ``--record`` stores this pass's answers as the
reference, and refuses to when an answer fails its invariants.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import answers
import tracing
import workloads
from trs_planner import cli, coverage, montecarlo, trs


def _se_cache_info(memo):
    if memo is None or not hasattr(memo, "cache_info"):
        return None
    info = memo.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def run_pass(
    workload: str, seed: int, pass_index: int, tiny: bool, trace_path: Path | None, reference: dict
) -> dict:
    ops = workloads.build(workload, seed, pass_index, tiny)
    se_memo = getattr(coverage, "mean_log2_sinr", None)
    tracer = None
    if trace_path is not None:
        tracer = tracing.Tracer()
        tracer.install({"coverage": coverage, "trs": trs, "montecarlo": montecarlo, "cli": cli})
    se_before = _se_cache_info(se_memo)

    latencies, replies, errors = [], [], []
    clock = time.perf_counter
    first = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            replies.append(op.run())
            errors.append(None)
        except Exception as err:  # a failed operation is a result to count
            replies.append(None)
            errors.append(f"{type(err).__name__}: {err}")
        latencies.append(clock() - start)
    wall_s = clock() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    se_after = _se_cache_info(se_memo)
    if tracer is not None:
        tracer.enabled = False
        tracer.write(trace_path)

    rel_tol = answers.tolerance(workload)
    failures = {}
    for op, reply, error in zip(ops, replies, errors):
        why = error or op.check(reply)
        if why is None and op.label in reference:
            if not answers.same(reply, reference[op.label], rel_tol):
                why = "answer differs from the reference"
        if why is not None:
            failures[op.label] = why

    se_cache = None
    if se_before is not None and se_after is not None:
        se_cache = {k: se_after[k] - se_before[k] for k in se_after}
    return {
        "labels": [op.label for op in ops],
        "latencies": latencies,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "answers": dict(zip((op.label for op in ops), replies)),
        "failures": failures,
        "checked_against_reference": sum(op.label in reference for op in ops),
        "se_cache": se_cache,
        "missing": tracer.missing if tracer is not None else [],
        "workers": montecarlo.resolve_workers() if hasattr(montecarlo, "resolve_workers") else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", type=int, default=0, dest="pass_index", help="pass number within the run")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--reference-dir", type=Path, default=answers.REFERENCE_DIR)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--warmup", action="store_true", help="import everything, then exit")
    args = parser.parse_args(argv)
    print("ready", flush=True)  # the planner is imported; run.py times set-up to here
    if args.warmup:
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    reference = {} if args.record else answers.load(args.reference_dir, args.workload)
    result = run_pass(args.workload, args.seed, args.pass_index, args.tiny, args.trace, reference)
    if args.record:
        if result["failures"]:
            print(json.dumps(result["failures"], indent=2), file=sys.stderr)
            return 1
        answers.store(args.reference_dir, args.workload, result["answers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
