"""Self-test of the benchmark itself.

    python3 -m pytest perfbench -q

Runs every workload at its tiny size through the real entry points and
checks the contract: every metric named in BENCHMARK.json is printed with its
unit, nothing fails at this commit, a perturbed reference answer is caught,
and tracing does not change any answer.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def worker(workload: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0",
         "--tiny", *args],
        cwd=ROOT, env=run.child_env(1), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_and_fails_nothing(workload, trace):
    result = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace, "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_is_a_failure(workload, tmp_path):
    ref_dir = tmp_path / "reference"
    shutil.copytree(answers.REFERENCE_DIR, ref_dir)
    clean = worker(workload, "--reference-dir", str(ref_dir))
    assert clean["failures"] == {} and clean["checked_against_reference"] > 0

    stored = answers.load(ref_dir, workload)
    label = next(label for label in clean["labels"] if label in stored)

    def nudge(value):
        # one ulp for MC answers (bit-identical gate), 1e-6 relative for planner ones (1e-8 gate)
        if isinstance(value, float):
            if workload == "mc-oracle" or value == 0.0:
                return math.nextafter(value, math.inf)
            return value * (1.0 + 1e-6)
        if isinstance(value, dict):
            key = next(k for k in value if _has_float(value[k]))
            return {**value, key: nudge(value[key])}
        if isinstance(value, list):
            i = next(i for i, v in enumerate(value) if _has_float(v))
            return value[:i] + [nudge(value[i])] + value[i + 1:]
        raise AssertionError(f"no number to perturb in {value!r}")

    stored[label] = nudge(stored[label])
    answers.path(ref_dir, workload).write_text(json.dumps(stored))
    perturbed = worker(workload, "--reference-dir", str(ref_dir))
    assert list(perturbed["failures"]) == [label]


def _has_float(value) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(_has_float(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_float(v) for v in value)
    return False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_answers_equal_untraced(workload, tmp_path):
    plain = worker(workload)
    traced = worker(workload, "--trace", str(tmp_path / "spans.jsonl"))
    assert traced["answers"] == plain["answers"]
    assert traced["failures"] == {} and traced["missing"] == []
    assert tracing.read_spans(tmp_path / "spans.jsonl")


def test_missing_public_name_leaves_its_metrics_out():
    spans = [
        {"id": 1, "name": "coverage.outage_probability", "start": 0.0, "end": 2.0,
         "parent": None, "op": 0, "n": 3},
        {"id": 2, "name": "coverage.coefficient_table", "start": 0.5, "end": 1.0,
         "parent": 1, "op": 0, "n": 3},
    ]
    full = tracing.layer_metrics(spans, [], 2.0, None)
    assert full["coverage.outage.self_s"] == (1.5, "s")
    assert full["hypergeom.coeffs"] == (3, "count")
    assert full["coverage.toeplitz_macs"] == (3, "count")
    gone = tracing.layer_metrics(spans, ["coverage.coefficient_table"], 2.0, None)
    assert not any(name.startswith("hypergeom.") for name in gone)
    assert "coverage.outage_calls" in gone


def test_tail_leaves_ten_operations_per_pass_above_it():
    passes = [{"latencies": [float(i) for i in range(46)]}] * 3
    metrics = run.latency_metrics(passes)
    assert abs(metrics["op_tail_s"] - 35.0) < 1.0  # rank 36 of 46, to within a rank
    assert metrics["op_p50_s"] == 22.5


def test_harrell_davis_is_a_weighted_mean_of_the_sample():
    assert run.harrell_davis([0.25] * 7, 0.8) == pytest.approx(0.25)
    assert run.harrell_davis([3.0], 0.5) == 3.0
    # an outlier ten ranks above the estimated quantile barely moves it
    sample = [1.0 + 0.01 * i for i in range(45)]
    assert run.harrell_davis(sample + [100.0], 36 / 46) == pytest.approx(
        run.harrell_davis(sample + [sample[-1]], 36 / 46), rel=0.01
    )


def test_latency_is_the_median_over_passes():
    base = [float(i) for i in range(46)]
    slow = [3.0 * x for x in base]
    metrics = run.latency_metrics([{"latencies": base}, {"latencies": slow}, {"latencies": base}])
    assert metrics == run.latency_metrics([{"latencies": base}])  # the slow pass does not count


def test_missing_sources_exit_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
