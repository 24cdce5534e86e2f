"""Outside-in tracing: spans around the planner's public functions.

Wrappers replace each traced name in the module namespace where callers look
it up, so the program itself carries no instrumentation.  Spans stay in memory
(one tuple each) and are written as JSON lines when the pass ends; per-layer
metrics are derived from that file afterwards.  Private names are never
wrapped.  A traced name missing from its module is recorded as missing, and
the metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


def _first_arg(index: int, keyword: str):
    def size(args, kwargs):
        return kwargs[keyword] if keyword in kwargs else args[index]

    return size


def _drops(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[0]
    return cfg.n_drops


# module -> public name -> how to read the span's size (None: no size)
TRACED = {
    "coverage": {
        "coefficient_table": _first_arg(0, "size"),
        "outage_probability": _first_arg(2, "antennas"),
        "mean_log2_sinr": None,
    },
    "trs": {
        "user_rate": None,
        "spectral_efficiency": None,
        "required_spectrum": None,
        "required_density": None,
        "required_antennas": None,
    },
    "montecarlo": {
        "sinr_samples": _drops,
        "outage_from_samples": None,
        "simulate_active_probability": _drops,
        "activity_gap_report": None,
    },
    "cli": {"main": None},
}


class Tracer:
    """Installs the wrappers and records spans for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.op: int | None = None
        self.enabled = True
        self._local = threading.local()
        self._ids = itertools.count(1)

    def install(self, modules: dict) -> None:
        for mod_name, names in TRACED.items():
            module = modules[mod_name]
            for name, size in names.items():
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                setattr(module, name, self._wrap(f"{mod_name}.{name}", fn, size))

    def _wrap(self, span_name: str, fn, size):
        clock = time.perf_counter
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = getattr(local, "current", None)
            span_id = next(ids)
            local.current = span_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                local.current = parent
                n = size(args, kwargs) if size is not None else None
                spans.append((span_id, span_name, start, end, parent, self.op, n))

        return traced

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "n")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict], missing: list[str], traced_op_s: float, se_cache: dict | None) -> dict:
    """Per-layer counts and self times from one traced pass.

    A span's self time is its duration minus the durations of its child
    spans; children run nested on the caller's thread, so they never
    overlap one another.  ``traced_op_s`` is the summed latency of the
    pass's operations, the base of ``hypergeom.share``; ``se_cache`` holds
    the SE memo's hits and misses over the pass, or None when the memo has
    no ``cache_info``.
    """
    by_id = {s["id"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    size = defaultdict(int)
    macs = 0
    se_children = 0
    rate_evals = defaultdict(int)
    for s in spans:
        name = s["name"]
        calls[name] += 1
        self_s[name] += s["end"] - s["start"] - child_s[s["id"]]
        if s["n"] is not None:
            size[name] += s["n"]
        parent = by_id.get(s["parent"])
        parent_name = parent["name"] if parent else None
        if name == "coverage.outage_probability":
            macs += s["n"] * (s["n"] - 1) // 2
            if parent_name == "coverage.mean_log2_sinr":
                se_children += 1
        if name == "trs.user_rate" and parent_name:
            rate_evals[parent_name] += 1

    def needs(*names):
        return not any(n in missing for n in names)

    out = {}
    if needs("coverage.coefficient_table"):
        hyp = self_s["coverage.coefficient_table"]
        out["hypergeom.table_calls"] = (calls["coverage.coefficient_table"], "count")
        out["hypergeom.coeffs"] = (size["coverage.coefficient_table"], "count")
        out["hypergeom.self_s"] = (hyp, "s")
        out["hypergeom.share"] = (hyp / traced_op_s if traced_op_s > 0 else 0.0, "ratio")
    if needs("coverage.outage_probability"):
        out["coverage.outage_calls"] = (calls["coverage.outage_probability"], "count")
        out["coverage.outage.self_s"] = (self_s["coverage.outage_probability"], "s")
        out["coverage.toeplitz_macs"] = (macs, "count")
    if needs("coverage.mean_log2_sinr"):
        out["coverage.se_calls"] = (calls["coverage.mean_log2_sinr"], "count")
        out["coverage.se.self_s"] = (self_s["coverage.mean_log2_sinr"], "s")
        if se_cache is not None:
            hits, misses = se_cache["hits"], se_cache["misses"]
            out["coverage.se_misses"] = (misses, "count")
            out["coverage.se_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
            out["coverage.se_nodes_per_miss"] = (se_children / misses if misses else 0.0, "count")
    for name in ("required_spectrum", "required_density", "required_antennas"):
        if needs(f"trs.{name}"):
            out[f"trs.{name}.calls"] = (calls[f"trs.{name}"], "count")
    for name in ("required_density", "required_antennas"):
        if needs(f"trs.{name}", "trs.user_rate"):
            out[f"trs.{name}.rate_evals"] = (rate_evals[f"trs.{name}"], "count")
    trs_names = [f"trs.{n}" for n in TRACED["trs"]]
    if needs(*trs_names):
        out["trs.self_s"] = (sum(self_s[n] for n in trs_names), "s")
    if needs("montecarlo.sinr_samples"):
        sinr_s = self_s["montecarlo.sinr_samples"]
        drops = size["montecarlo.sinr_samples"]
        out["montecarlo.sinr_samples.calls"] = (calls["montecarlo.sinr_samples"], "count")
        out["montecarlo.drops"] = (drops, "count")
        out["montecarlo.sinr_samples.self_s"] = (sinr_s, "s")
        out["montecarlo.drops_per_s"] = (drops / sinr_s if sinr_s > 0 else 0.0, "1/s")
    if needs("montecarlo.outage_from_samples"):
        out["montecarlo.reduce.self_s"] = (self_s["montecarlo.outage_from_samples"], "s")
    if needs("montecarlo.simulate_active_probability", "montecarlo.activity_gap_report"):
        out["montecarlo.activity.self_s"] = (
            self_s["montecarlo.simulate_active_probability"]
            + self_s["montecarlo.activity_gap_report"],
            "s",
        )
    if needs("cli.main"):
        out["cli.calls"] = (calls["cli.main"], "count")
        out["cli.self_s"] = (self_s["cli.main"], "s")
    return out


IMPORTTIME_MODULES = {
    "setup.scipy_integrate_s": "scipy.integrate",
    "setup.scipy_special_s": "scipy.special",
    "setup.scipy_spatial_s": "scipy.spatial",
}


def importtime_metrics(stderr_runs: list[str]) -> dict:
    """Import cost by package from ``python -X importtime`` output.

    A package's figure is its cumulative time where it is first imported,
    so it counts what it pulls in (scipy.integrate includes scipy.special).
    When the package has no line of its own (scipy loads some subpackages
    lazily), the self times of its modules are summed instead.
    ``setup.trs_planner_self_s`` sums the self time of the planner's own
    modules.  Medians over the runs given.
    """
    per_run = []
    for text in stderr_runs:
        self_us, cumulative_us = {}, {}
        for line in text.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                own, cumulative = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the header line
            name = fields[2].strip()
            self_us.setdefault(name, own)
            cumulative_us.setdefault(name, cumulative)

        def package_us(package):
            if package in cumulative_us:
                return cumulative_us[package]
            return sum(us for name, us in self_us.items() if name.startswith(package + "."))

        values = {key: package_us(mod) / 1e6 for key, mod in IMPORTTIME_MODULES.items()}
        values["setup.trs_planner_self_s"] = sum(
            us for name, us in self_us.items() if name.split(".")[0] == "trs_planner"
        ) / 1e6
        per_run.append(values)
    return {key: (statistics.median(r[key] for r in per_run), "s") for key in per_run[0]}
