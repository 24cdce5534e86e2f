"""The three benchmark workloads: operation lists, answers and answer checks.

An operation is one question a user asks the planner.  ``run`` issues it and
returns its answer as plain JSON data; it is the only part that is timed.
``check`` runs after the whole timed list, so its library calls (all of them
SE-memo hits) neither add to an operation's latency nor to the trace.

Every list is a pure function of the seed, so the same seed gives the same
inputs.  ``tiny`` keeps a cheap subset of the same operations, for the
self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from trs_planner import cli, coverage, montecarlo, trs

WORKLOADS = ("paper-session", "fresh-queries", "mc-oracle")


@dataclass
class Op:
    """One timed operation; ``label`` names its inputs uniquely."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    cheap: bool = False


def build(workload: str, seed: int, pass_index: int = 0, tiny: bool = False) -> list[Op]:
    """The operations of one pass of a run with ``seed``.

    Only fresh-queries uses the pass number: each pass draws its own points
    from (seed, pass), so a run's medians rest on several draws, not one.
    paper-session asks the same questions in the paper's order for every
    seed.  Its operations share the SE memo, so the order decides which of
    them pay the misses; with seeded orders the median operation flipped
    between memo hits (~2 ms) and misses, and op_p50_s spread 0.55 of its
    median over five seeds.
    """
    if workload == "paper-session":
        ops = paper_session()
    elif workload == "fresh-queries":
        ops = fresh_queries(seed, pass_index)
    else:
        ops = mc_oracle(seed)
    return [op for op in ops if op.cheap or not tiny]


# ---------------------------------------------------------------- paper-session

SCENARIOS = {
    # name: (lambda_b, target Mbps, density grid bounds of the figures)
    "sparse": (10.0, 15.0, (1.0, 50.0)),
    "dense": (1000.0, 420.0, (100.0, 5000.0)),
}
TRS_W_M_AT = (1, 4, 8, 16)
TRS_W_DENSITY_AT = {"sparse": (1, 5, 10), "dense": (100, 500, 1000)}
RATE_ANTENNAS = (1, 4, 16, 64)
CHEAP_PAPER_OPS = {
    "trs --scenario sparse --pair w-m --at 1",
    "trs --scenario dense --pair w-m --at 1",
    "trs --scenario sparse --pair w-density --at 1",
    "trs --scenario dense --pair w-density --at 100",
    "rate --scenario sparse --antennas 1",
    "rate --scenario dense --antennas 1",
    "rate --scenario sparse --antennas 4",
    "scenario --scenario sparse --mode double-usage --lever spectrum",
    "scenario --scenario dense --mode double-usage --lever spectrum",
    "scenario --scenario sparse --mode double-rate --lever spectrum",
    "scenario --scenario sparse --mode double-usage --lever density",
    "scenario --scenario dense --mode double-rate --lever density",
}


def paper_argvs() -> list[list[str]]:
    """The paper's planning questions at alpha=4, as CLI argument lists."""
    argvs = []
    for name in SCENARIOS:
        for m in TRS_W_M_AT:
            argvs.append(["trs", "--scenario", name, "--pair", "w-m", "--at", str(m)])
        for lam in TRS_W_DENSITY_AT[name]:
            argvs.append(["trs", "--scenario", name, "--pair", "w-density", "--at", str(lam)])
    for name, (lambda_b, rate, (lo, hi)) in SCENARIOS.items():
        demands = (
            [],
            ["--target-rate-mbps", repr(2.0 * rate)],
            ["--lambda-b", repr(lambda_b), "--lambda-u", "200.0", "--target-rate-mbps", repr(rate)],
        )
        for demand in demands:
            argvs.append(["curve", "--scenario", name, "--pair", "w-m"] + demand)
            argvs.append(
                ["curve", "--scenario", name, "--pair", "w-density", "--grid-min", repr(lo),
                 "--grid-max", repr(hi), "--grid-points", "64"] + demand
            )
    for name in SCENARIOS:
        for mode in ("double-rate", "double-usage"):
            for lever in ("spectrum", "density", "antennas"):
                argvs.append(["scenario", "--scenario", name, "--mode", mode, "--lever", lever])
    for name in SCENARIOS:
        for m in RATE_ANTENNAS:
            argvs.append(["rate", "--scenario", name, "--antennas", str(m)])
    return argvs


def parse_cli_output(text: str):
    """JSON documents as data, CSV tables as rows of numbers and strings."""
    if text.lstrip().startswith(("{", "[")):
        return json.loads(text)
    header, rows = cli.read_csv(text)
    return {"header": header, "rows": rows}


def _cli_call(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return {"exit": code, "out": parse_cli_output(buf.getvalue()) if buf.getvalue() else None}


def _check_cli_answer(answer) -> str | None:
    if answer["exit"] != 0:
        return f"exit code {answer['exit']}"
    return None


def paper_session() -> list[Op]:
    ops = []
    for argv in paper_argvs():
        label = " ".join(argv)
        ops.append(
            Op(
                label=label,
                run=lambda argv=argv: _cli_call(argv),
                check=_check_cli_answer,
                cheap=label in CHEAP_PAPER_OPS,
            )
        )
    return ops


# ---------------------------------------------------------------- fresh-queries

FRESH_KINDS = (
    "user_rate",
    "required_spectrum",
    "required_density",
    "required_antennas",
    "trs_spectrum_antennas",
    "trs_spectrum_density",
)
FRESH_PER_KIND = 8
# Antenna counts of one kind's operations, weighted toward small arrays; a
# fixed multiset (only its order is drawn) keeps the work per seed steady.
FRESH_ANTENNAS = (1, 1, 1, 1, 2, 2, 4, 8)
FRESH_LAMBDA_U = (50.0, 100.0, 200.0, 400.0)
FRESH_RHO = (0.05, 20.0)
FRESH_ALPHA = (3.0, 5.0)
FRESH_TARGET = (5.0, 200.0)
# required_density gets W = target / load, load log-uniform over bits/s/Hz
# of delivered rate per MHz; every load in this range is reachable.
FRESH_LOAD = (0.3, 3.0)
# required_antennas asks for factor x the rate of an operating point solved
# at M0 antennas, searching up to FRESH_MAX_ANTENNAS.  Its M0 stops at 4:
# from M0=8 the search climbs to 16-32 antennas and one operation would
# outweigh the rest of the pass.
FRESH_FACTOR = (1.05, 1.25)
FRESH_BASE_ANTENNAS = (1, 1, 1, 1, 2, 2, 2, 4)
FRESH_MAX_ANTENNAS = 32


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n uniforms on [0, 1), one per stratum, in random order."""
    values = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def fresh_points(seed: int, pass_index: int) -> list[dict]:
    """Distinct operating points drawn from (seed, pass)."""
    rng = random.Random(f"{seed}/{pass_index}")
    points = []
    for kind in FRESH_KINDS:
        n = FRESH_PER_KIND
        rho, alpha, target, extra = (_stratified(rng, n) for _ in range(4))
        antennas = list(FRESH_BASE_ANTENNAS if kind == "required_antennas" else FRESH_ANTENNAS)
        rng.shuffle(antennas)
        lambda_u = [FRESH_LAMBDA_U[i % len(FRESH_LAMBDA_U)] for i in range(n)]
        rng.shuffle(lambda_u)
        for i in range(n):
            lam_u = lambda_u[i]
            points.append(
                {
                    "index": len(points),
                    "kind": kind,
                    "lambda_u": lam_u,
                    "lambda_b": _log_uniform(rho[i], *FRESH_RHO) * lam_u,
                    "alpha": FRESH_ALPHA[0] + (FRESH_ALPHA[1] - FRESH_ALPHA[0]) * alpha[i],
                    "antennas": antennas[i],
                    "target": _log_uniform(target[i], *FRESH_TARGET),
                    "load": _log_uniform(extra[i], *FRESH_LOAD),
                    "factor": FRESH_FACTOR[0] + (FRESH_FACTOR[1] - FRESH_FACTOR[0]) * extra[i],
                }
            )
    return points


def _rate(point: dict, antennas: int, bandwidth_mhz: float, lambda_b: float | None = None) -> float:
    return coverage.user_rate(
        coverage.NetworkConfig(
            lambda_b=point["lambda_b"] if lambda_b is None else lambda_b,
            lambda_u=point["lambda_u"],
            antennas=antennas,
            bandwidth_mhz=bandwidth_mhz,
            alpha=point["alpha"],
        )
    )


def _hits(achieved: float, target: float) -> bool:
    return abs(achieved - target) <= trs.RATE_REL_TOL * target


def _trs_answer(value) -> dict:
    magnitude = "inf" if math.isinf(value.magnitude) else value.magnitude
    return {"magnitude": magnitude, "note": value.note, "bandwidth_mhz": value.bandwidth_mhz}


def _fresh_run(p: dict):
    kind, args = p["kind"], (p["lambda_b"], p["antennas"], p["lambda_u"], p["alpha"])
    if kind == "user_rate":
        return {"rate_mbps": _rate(p, p["antennas"], p["target"])}
    if kind == "required_spectrum":
        return {"bandwidth_mhz": trs.required_spectrum(p["target"], *args)}
    if kind == "required_density":
        try:
            lam = trs.required_density(
                p["target"], p["target"] / p["load"], p["antennas"], p["lambda_u"], p["alpha"]
            )
        except trs.InfeasibleError as err:
            return {"infeasible": str(err)}
        return {"lambda_b": lam}
    if kind == "required_antennas":
        base = trs.make_operating_point(p["target"], *args)
        report = trs.doubling_scenario(
            base, trs.ScaleMode.DOUBLE_RATE, trs.Lever.ANTENNAS, factor=p["factor"],
            max_antennas=FRESH_MAX_ANTENNAS,
        )
        return {
            "bandwidth_mhz": base.config.bandwidth_mhz,
            "antennas": report.lever_value,
            "note": report.note,
        }
    if kind == "trs_spectrum_antennas":
        return _trs_answer(trs.trs_spectrum_antennas(p["target"], *args))
    return _trs_answer(trs.trs_spectrum_density(p["target"], *args))


def _fresh_check(p: dict, a: dict) -> str | None:
    """Round-trip invariants that hold for any seed."""
    kind, target = p["kind"], p["target"]
    if kind == "user_rate":
        ok = math.isfinite(a["rate_mbps"]) and a["rate_mbps"] > 0.0
        return None if ok else f"rate {a['rate_mbps']} is not finite and positive"
    if kind == "required_spectrum":
        achieved = _rate(p, p["antennas"], a["bandwidth_mhz"])
        return None if _hits(achieved, target) else f"W misses target: {achieved} vs {target}"
    if kind == "required_density":
        if "infeasible" in a:
            return f"density infeasible for a reachable load: {a['infeasible']}"
        achieved = _rate(p, p["antennas"], p["target"] / p["load"], lambda_b=a["lambda_b"])
        return None if _hits(achieved, target) else f"lambda_b misses target: {achieved} vs {target}"
    if kind == "required_antennas":
        floor = p["factor"] * target * (1.0 - trs.RATE_REL_TOL)
        m = a["antennas"]
        w = a["bandwidth_mhz"]
        if not _hits(_rate(p, p["antennas"], w), target):
            return "base operating point misses its target"
        if m is None:
            best = _rate(p, FRESH_MAX_ANTENNAS, w)
            return None if best < floor else f"reported infeasible but M={FRESH_MAX_ANTENNAS} reaches it"
        if m != int(m) or _rate(p, int(m), w) < floor:
            return f"M={m} does not meet the target"
        if m > 1 and _rate(p, int(m) - 1, w) >= floor:
            return f"M={m} is not the first antenna count meeting the target"
        return None
    magnitude = a["magnitude"]
    if magnitude == "inf":
        return None if a["note"] else "infinite TRS without a note"
    if not (math.isfinite(magnitude) and magnitude > 0.0):
        return f"TRS {magnitude} is not finite and positive"
    achieved = _rate(p, p["antennas"], a["bandwidth_mhz"])
    return None if _hits(achieved, target) else "TRS operating point misses its target"


def fresh_queries(seed: int, pass_index: int) -> list[Op]:
    ops = []
    for p in fresh_points(seed, pass_index):
        ops.append(
            Op(
                label=f"seed={seed} pass={pass_index} #{p['index']} {p['kind']}",
                run=lambda p=p: _fresh_run(p),
                check=lambda a, p=p: _fresh_check(p, a),
                cheap=p["kind"] in ("user_rate", "required_spectrum") and p["antennas"] <= 2,
            )
        )
    return ops


# ---------------------------------------------------------------- mc-oracle

MC_RHO = (0.1, 1.0, 10.0)
MC_ANTENNAS = (1, 2, 4, 8)
MC_THRESHOLDS = (0.1, 1.0, 10.0)
MC_LAMBDA_U = 100.0
MC_ALPHA = 4.0
# The thinning grid runs at the master seed acceptance criterion 4
# certifies.  Over arbitrary seeds the per-cell 3-sigma verdict false-alarms
# (about 1.6% of cells at 60 drops), which would count as failed operations;
# at a fixed seed every estimate is also checked bit-for-bit.
MC_GRID_SEED = 20260809
MC_GRID_DROPS = 100
MC_GRID_FADING = 200
MC_ACTIVITY_DROPS = 40
MC_ACTIVITY_FADING = 100


def _mc_config(rho: float, antennas: int, drops: int, fading: int, seed: int, model) -> montecarlo.McConfig:
    lambda_b = rho * MC_LAMBDA_U
    return montecarlo.McConfig(
        network=coverage.NetworkConfig(
            lambda_b=lambda_b, lambda_u=MC_LAMBDA_U, antennas=antennas, alpha=MC_ALPHA
        ),
        window_radius=montecarlo.recommended_window(lambda_b),
        n_drops=drops,
        n_fading_per_drop=fading,
        seed=seed,
        activity_model=model,
    )


def _grid_run(rho: float, m: int):
    """One validate configuration: samples, then every threshold's cell."""
    cfg = _mc_config(
        rho, m, MC_GRID_DROPS, MC_GRID_FADING, MC_GRID_SEED,
        montecarlo.ActivityModel.INDEPENDENT_THINNING,
    )
    samples = montecarlo.sinr_samples(cfg)
    p_a = coverage.active_probability(rho)
    cells = []
    for t in MC_THRESHOLDS:
        est = montecarlo.outage_from_samples(samples, t, cfg)
        analytic = coverage.outage_probability(t, p_a, m, MC_ALPHA).p_out
        cells.append([est.mean, est.std_error, analytic])
    return {"cells": cells}


def _grid_check(answer) -> str | None:
    """The validate verdict: |MC - analytic| <= max(3 SE, 0.01) per cell."""
    bad = [
        f"T={t}: |{mc} - {an}| > {max(3.0 * se, 0.01)}"
        for t, (mc, se, an) in zip(MC_THRESHOLDS, answer["cells"])
        if not abs(mc - an) <= max(3.0 * se, 0.01)
    ]
    return "; ".join(bad) or None


def _estimate(est) -> list:
    return [est.mean, est.std_error, est.n_drops]


def _gap_run(rho: float, threshold: float, seed: int):
    cfg = _mc_config(
        rho, 1, MC_ACTIVITY_DROPS, MC_ACTIVITY_FADING, seed,
        montecarlo.ActivityModel.INDEPENDENT_THINNING,
    )
    rep = montecarlo.activity_gap_report(cfg, threshold)
    return {"voronoi": _estimate(rep.voronoi), "thinning": _estimate(rep.thinning), "gap": _estimate(rep.gap)}


def _gap_check(answer) -> str | None:
    vor, thin, gap = answer["voronoi"][0], answer["thinning"][0], answer["gap"][0]
    if not all(0.0 <= v <= 1.0 for v in (vor, thin)):
        return f"outage outside [0, 1]: {vor}, {thin}"
    if abs(gap - (vor - thin)) > 1e-12:
        return f"paired gap {gap} is not voronoi - thinning = {vor - thin}"
    return None


def _activity_run(rho: float, seed: int):
    cfg = _mc_config(
        rho, 1, MC_ACTIVITY_DROPS, MC_ACTIVITY_FADING, seed,
        montecarlo.ActivityModel.VORONOI_OCCUPANCY,
    )
    return {"active": _estimate(montecarlo.simulate_active_probability(cfg))}


def _activity_check(answer) -> str | None:
    mean, se, _ = answer["active"]
    ok = 0.0 < mean <= 1.0 and math.isfinite(se)
    return None if ok else f"active fraction {mean} (SE {se}) is not a probability"


def mc_oracle(seed: int) -> list[Op]:
    ops = []
    for rho in MC_RHO:
        for m in MC_ANTENNAS:
            ops.append(
                Op(
                    label=f"grid seed={MC_GRID_SEED} rho={rho} M={m}",
                    run=lambda rho=rho, m=m: _grid_run(rho, m),
                    check=_grid_check,
                    cheap=m <= 2,
                )
            )
        for t in MC_THRESHOLDS:
            ops.append(
                Op(
                    label=f"gap seed={seed} rho={rho} T={t}",
                    run=lambda rho=rho, t=t: _gap_run(rho, t, seed),
                    check=_gap_check,
                    cheap=rho == 10.0,
                )
            )
        ops.append(
            Op(
                label=f"active seed={seed} rho={rho}",
                run=lambda rho=rho: _activity_run(rho, seed),
                check=_activity_check,
                cheap=rho == 10.0,
            )
        )
    return ops
