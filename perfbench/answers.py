"""Reference answers: where they live and how an answer is compared to one."""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Planner answers must match the reference within this relative distance,
# the gate ROADMAP item 3 commits a numerics change to.
PLANNER_REL_TOL = 1e-8


def tolerance(workload: str) -> float | None:
    """MC estimates must repeat bit-for-bit (Philox substreams); planners to 1e-8."""
    return None if workload == "mc-oracle" else PLANNER_REL_TOL


def same(got, want, rel_tol: float | None) -> bool:
    """Structural equality; numbers within ``rel_tol`` (None: bit-identical)."""
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if rel_tol is None or not (math.isfinite(want) and math.isfinite(got)):
            return got == want
        return abs(got - want) <= rel_tol * max(abs(want), abs(got))
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(same(got[k], want[k], rel_tol) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(same(g, w, rel_tol) for g, w in zip(got, want))
    return got == want


def path(directory: Path, workload: str) -> Path:
    return directory / f"{workload}.json"


def load(directory: Path, workload: str) -> dict:
    """Reference answers by operation label; empty when none are recorded."""
    file = path(directory, workload)
    return json.loads(file.read_text()) if file.exists() else {}


def store(directory: Path, workload: str, new: dict) -> None:
    """Merge ``new`` answers into the workload's reference file."""
    merged = load(directory, workload)
    merged.update(new)
    directory.mkdir(parents=True, exist_ok=True)
    path(directory, workload).write_text(json.dumps(dict(sorted(merged.items())), indent=1) + "\n")
