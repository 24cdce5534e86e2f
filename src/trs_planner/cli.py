"""Command-line front end: rate reports, curves, TRS tables, validation, scenarios.

A scenario, bundled or read from a file, becomes one checked ``Scenario``
record when it loads; the config flags then override its fields, or stand
alone given ``--lambda-b`` and ``--lambda-u``.

Exit codes: 0 success (including infeasible planning results, which are
results), 1 validation-suite failure, 2 invalid configuration (including a
missing, unreadable or non-UTF-8 scenario file and an unwritable ``--out``),
3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import coverage, montecarlo, trs
from .coverage import MAX_ANTENNAS, ConfigError, LoadModel, NetworkConfig, QuadratureError
from .hypergeom import _check_count, _check_positive
from .montecarlo import ActivityModel, McConfig

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3


def _bandwidth(value: str):
    """A scenario bandwidth: a number of MHz, or "auto" to solve it for the demand."""
    return "auto" if value.strip().lower() == "auto" else float(value)


SCENARIO_KEYS = {
    "lambda_b": float,
    "lambda_u": float,
    "antennas": int,
    "bandwidth_mhz": _bandwidth,
    "alpha": float,
    "noise_power": float,
    "tx_power": float,
    "load_model": str,
    "target_rate_mbps": float,
    "max_antennas": int,
}
# the scenario keys passed to NetworkConfig unchanged
_NETWORK_KEYS = ("lambda_b", "lambda_u", "antennas", "alpha", "noise_power", "tx_power")

# the scenarios of scenarios/baseline.scenario, the other keys at their defaults
BUILTIN_SCENARIOS = {
    "sparse": {"lambda_b": 10.0, "lambda_u": 100.0, "target_rate_mbps": 15.0},
    "dense": {"lambda_b": 1000.0, "lambda_u": 100.0, "target_rate_mbps": 420.0},
}


@dataclass(frozen=True)
class Scenario:
    """One named scenario, checked once when it loads (see ``_scenario``)."""

    name: str
    network: NetworkConfig  # bandwidth_mhz is 0 when the scenario says auto
    auto_bandwidth: bool
    target_rate_mbps: float
    max_antennas: int

    def operating_point(self) -> trs.OperatingPoint:
        """The operating point; an auto bandwidth is solved here, before any flag override."""
        cfg = self.network
        if self.auto_bandwidth:
            cfg = cfg.with_(bandwidth_mhz=trs.required_spectrum(
                self.target_rate_mbps, cfg.lambda_b, cfg.antennas, cfg.lambda_u, cfg.alpha,
                cfg.load_model,
            ))
        return trs.OperatingPoint(config=cfg, target_rate_mbps=self.target_rate_mbps)


def _scenario(name: str, fields: dict) -> Scenario:
    """Check one scenario's parsed fields and build its record; ``NetworkConfig`` checks physics."""
    for key in ("lambda_b", "lambda_u", "target_rate_mbps"):
        if key not in fields:
            raise ConfigError(f"scenario {name!r} is missing {key}")
    target = fields["target_rate_mbps"]
    _check_positive(target, f"scenario {name!r}: target_rate_mbps")
    max_antennas = fields.get("max_antennas", MAX_ANTENNAS)
    _check_count(max_antennas, f"scenario {name!r}: max_antennas", 1, MAX_ANTENNAS)
    load = fields.get("load_model", "mean-load")
    try:
        load_model = LoadModel(load)
    except ValueError as err:
        raise ConfigError(
            f"scenario {name!r}: unknown load_model {load!r} "
            f"(expected one of {[m.value for m in LoadModel]})"
        ) from err
    bandwidth = fields.get("bandwidth_mhz", "auto")
    auto = bandwidth == "auto"
    network = NetworkConfig(
        **{key: fields[key] for key in _NETWORK_KEYS if key in fields},
        bandwidth_mhz=0.0 if auto else bandwidth,
        load_model=load_model,
    )
    coverage._check_noise(network.noise_power)
    return Scenario(name, network, auto, target, max_antennas)


def parse_scenario_text(text: str) -> dict[str, Scenario]:
    """Parse the flat dotted key-value scenario format.

    Lines look like ``name.key = value``; ``#`` starts a comment; blank
    lines are ignored.  Unknown or repeated keys and invalid quantities are
    rejected.
    """
    groups: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"scenario line {lineno}: expected 'name.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"scenario line {lineno}: key {key!r} lacks a scenario prefix")
        name, field = key.split(".", 1)
        if field not in SCENARIO_KEYS:
            raise ConfigError(f"scenario line {lineno}: unknown key {field!r}")
        fields = groups.setdefault(name, {})
        if field in fields:
            raise ConfigError(f"scenario line {lineno}: key {key!r} is already set")
        try:
            fields[field] = SCENARIO_KEYS[field](value)
        except ValueError as err:
            raise ConfigError(
                f"scenario line {lineno}: cannot parse {value!r} for {field!r}"
            ) from err
    return {name: _scenario(name, fields) for name, fields in groups.items()}


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r} (bundled: {sorted(BUILTIN_SCENARIOS)})")
    return _scenario(name, BUILTIN_SCENARIOS[name])


def _fmt(value) -> str:
    """Shortest round-trip text for CSV cells; a non-finite number raises ValueError (exit 3)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not CSV compliant: {value!r}")
        return repr(value)
    return str(value)


def emit_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def curve_csv(curve: trs.IndifferenceCurve) -> str:
    """A curve's ``axis1,axis2,feasible`` table; infeasible samples leave axis2 empty."""
    rows = [(s.axis1, "" if s.axis2 is None else s.axis2, s.feasible) for s in curve.samples]
    return emit_csv(("axis1", "axis2", "feasible"), rows)


def read_csv(text: str):
    """Re-load CSV emitted by this tool: header plus typed rows."""
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            if cell == "true":
                row.append(True)
            elif cell == "false":
                row.append(False)
            elif cell == "":
                row.append(None)
            else:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
        rows.append(row)
    return header, rows


def _json_text(payload) -> str:
    """Strict JSON: a non-finite number raises ValueError (exit 3) instead of printing NaN."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _scenario_from_args(args) -> Scenario:
    if getattr(args, "file", None):
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"scenario file {args.file!r} is not UTF-8 text: {err}") from err
        table = parse_scenario_text(text)
        name = args.scenario or (next(iter(table)) if len(table) == 1 else None)
        if name is None:
            raise ConfigError(
                f"scenario file holds {sorted(table)}; pick one with --scenario"
            )
        if name not in table:
            raise ConfigError(f"scenario {name!r} not in file (has {sorted(table)})")
        return table[name]
    return builtin_scenario(args.scenario or "sparse")


def _config_from_args(args) -> tuple[NetworkConfig, float | None]:
    """Network config and optional demand, from flags or a scenario; each set flag overrides."""
    overrides = {
        name: getattr(args, name)
        for name in ("antennas", "bandwidth_mhz", "alpha", "load_model")
        if getattr(args, name) is not None
    }
    if "load_model" in overrides:
        overrides["load_model"] = LoadModel(overrides["load_model"])
    if args.lambda_b is not None or args.lambda_u is not None:
        required = {"--lambda-b": args.lambda_b, "--lambda-u": args.lambda_u}
        missing = [flag for flag, value in required.items() if value is None]
        if missing:
            raise ConfigError(f"missing {missing} (or use --scenario/--file)")
        cfg = NetworkConfig(lambda_b=args.lambda_b, lambda_u=args.lambda_u, **overrides)
        return cfg, args.target_rate_mbps
    scenario = _scenario_from_args(args)
    cfg = scenario.network.with_(**overrides)  # a bad flag exits 2 before the bandwidth solve
    if "bandwidth_mhz" not in overrides:  # an overridden bandwidth needs no solve
        cfg = scenario.operating_point().config.with_(**overrides)
    rate = scenario.target_rate_mbps if args.target_rate_mbps is None else args.target_rate_mbps
    return cfg, rate


def cmd_rate(args) -> int:
    cfg, _ = _config_from_args(args)
    rate = coverage.user_rate(cfg)
    p_a = coverage.active_probability(cfg.rho)
    se = coverage.spectral_efficiency(p_a, cfg.antennas, cfg.alpha)
    share = coverage.mean_load_share(cfg, p_a)
    report = {
        "rate_mbps": rate,
        "spectral_efficiency_bits_per_hz": se,
        "bandwidth_share": share,
        "active_probability": p_a,
        "config": {
            "lambda_b": cfg.lambda_b,
            "lambda_u": cfg.lambda_u,
            "antennas": cfg.antennas,
            "bandwidth_mhz": cfg.bandwidth_mhz,
            "alpha": cfg.alpha,
            "load_model": cfg.load_model.value,
        },
    }
    if args.output == "human":
        text = (
            f"rate {rate:.6g} Mbps  (W={cfg.bandwidth_mhz:.6g} MHz x "
            f"SE={se:.6g} b/s/Hz x share={share:.6g}; p_a={p_a:.6g})\n"
        )
    else:
        text = _json_text(report)
    _write(text, args.out)
    return EXIT_OK


def _parse_grid(raw: str):
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as err:
        raise ConfigError(f"cannot parse the list {raw!r}: {err}") from err


def _parse_counts(raw: str, flag: str, most: int) -> list[int]:
    """A comma-separated list of counts from 1 to ``most``, such as antenna counts."""
    values = _parse_grid(raw)
    for value in values:
        _check_count(value, flag, 1, most)
    return [int(value) for value in values]


def cmd_curve(args) -> int:
    cfg, rate = _config_from_args(args)
    if rate is None:
        raise ConfigError("curve needs --target-rate-mbps or a scenario demand")
    if args.grid:
        grid = _parse_grid(args.grid)
    elif args.pair == "w-m":
        grid = list(range(1, 17))
    else:
        grid = trs.log_grid(args.grid_min, args.grid_max, args.grid_points)
    curve = trs.indifference_curve(
        rate, cfg.lambda_u, args.pair, grid, lambda_b=cfg.lambda_b, antennas=cfg.antennas,
        alpha=cfg.alpha, load_model=cfg.load_model,
    )
    if args.output == "json":
        _write(_json_text(asdict(curve)), args.out)
    else:
        _write(curve_csv(curve), args.out)
    return EXIT_OK


def cmd_trs(args) -> int:
    cfg, rate = _config_from_args(args)
    if rate is None:
        raise ConfigError("trs needs --target-rate-mbps or a scenario demand")
    values = []
    if args.pair == "w-m":
        # the step from M to M+1 antennas must stay within the cap
        points = _parse_counts(args.at or "", "--at", MAX_ANTENNAS - 1) or [1, 4, 8, 16]
        for m in points:
            values.append(
                trs.trs_spectrum_antennas(rate, cfg.lambda_b, m, cfg.lambda_u, cfg.alpha, cfg.load_model)
            )
    else:
        points = _parse_grid(args.at or "") or [cfg.lambda_b]
        for lam in points:
            values.append(
                trs.trs_spectrum_density(
                    rate, lam, cfg.antennas, cfg.lambda_u, cfg.alpha, cfg.load_model,
                    policy=args.step_policy,
                )
            )
    if args.output == "json":
        payload = []
        for v in values:
            entry = asdict(v)
            if v.is_infinite:
                entry["magnitude"] = "inf"  # keep the JSON standard-parseable
            payload.append(entry)
        _write(_json_text(payload), args.out)
    else:
        header = ("point", "trs", "units", "step_policy", "note")
        rows = [
            (
                v.antennas if v.pair == "spectrum-antennas" else v.lambda_b,
                v.magnitude if not v.is_infinite else "inf",
                v.units,
                v.step_policy,
                v.note,
            )
            for v in values
        ]
        _write(emit_csv(header, rows), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    rho_values = _parse_grid(args.rho_values)
    m_values = _parse_counts(args.m_values, "--m-values", MAX_ANTENNAS)
    t_values = _parse_grid(args.t_values)
    if not (rho_values and m_values and t_values):
        raise ConfigError("validate needs a value in each of --rho-values, --m-values and --t-values")
    lambda_u = args.lambda_u
    rows = []
    all_pass = True
    for rho in rho_values:
        lambda_b = rho * lambda_u
        for m in m_values:
            net = NetworkConfig(
                lambda_b=lambda_b, lambda_u=lambda_u, antennas=m, alpha=args.alpha,
            )
            mc_cfg = McConfig(
                network=net,
                window_radius=montecarlo.recommended_window(lambda_b, args.window_factor),
                n_drops=args.n_drops,
                n_fading_per_drop=args.n_fading,
                seed=args.seed,
                activity_model=ActivityModel.INDEPENDENT_THINNING,
            )
            samples = montecarlo.sinr_samples(mc_cfg)
            p_a = coverage.active_probability(rho)
            for t in t_values:
                est = montecarlo.outage_from_samples(samples, t, mc_cfg)
                analytic = coverage.outage_probability(t, p_a, m, args.alpha).p_out
                tol = max(3.0 * est.std_error, 0.01)
                diff = abs(est.mean - analytic)
                ok = diff <= tol
                all_pass = all_pass and ok
                rows.append((rho, m, t, est.mean, est.std_error, analytic, diff, tol, ok))
    header = (
        "rho", "antennas", "threshold", "p_out_mc", "std_error",
        "p_out_analytic", "abs_diff", "tolerance", "pass",
    )
    if args.output == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _write(_json_text({"cells": payload, "all_pass": all_pass}), args.out)
    else:
        _write(emit_csv(header, rows), args.out)
    return EXIT_OK if all_pass else EXIT_VALIDATION_FAILED


def cmd_scenario(args) -> int:
    scenario = _scenario_from_args(args)
    point = scenario.operating_point()
    report = trs.doubling_scenario(
        point,
        trs.ScaleMode(args.mode),
        trs.Lever(args.lever),
        factor=args.factor,
        max_antennas=scenario.max_antennas,
    )
    payload = {
        "scenario": scenario.name,
        "base": {
            "lambda_b": point.config.lambda_b,
            "lambda_u": point.config.lambda_u,
            "antennas": point.config.antennas,
            "bandwidth_mhz": point.config.bandwidth_mhz,
            "target_rate_mbps": point.target_rate_mbps,
        },
        "report": asdict(report),
    }
    _write(_json_text(payload), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trs-planner",
        description="Substitution planning among spectrum, station density and antennas "
        "for PPP cellular networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--scenario", help="bundled or in-file scenario name")
        p.add_argument("--file", help="scenario file path")
        p.add_argument("--lambda-b", type=float, dest="lambda_b")
        p.add_argument("--lambda-u", type=float, dest="lambda_u")
        p.add_argument("--antennas", type=int, default=None)
        p.add_argument("--bandwidth-mhz", type=float, dest="bandwidth_mhz")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--load-model", default=None,
                       choices=[m.value for m in LoadModel])
        p.add_argument("--target-rate-mbps", type=float, dest="target_rate_mbps")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_rate = sub.add_parser("rate", help="per-user rate at an operating point")
    add_config_flags(p_rate)
    p_rate.add_argument("--output", choices=("json", "human"), default="json")
    p_rate.set_defaults(func=cmd_rate)

    p_curve = sub.add_parser("curve", help="indifference curve tracing")
    add_config_flags(p_curve)
    p_curve.add_argument("--pair", choices=("w-m", "w-density"), required=True)
    p_curve.add_argument("--grid", help="comma-separated axis-1 grid (w-m default: 1..16)")
    p_curve.add_argument("--grid-min", type=float, default=1.0)
    p_curve.add_argument("--grid-max", type=float, default=100.0)
    p_curve.add_argument("--grid-points", type=int, default=64)
    p_curve.add_argument("--output", choices=("csv", "json"), default="csv")
    p_curve.set_defaults(func=cmd_curve)

    p_trs = sub.add_parser("trs", help="technical rate of substitution table")
    add_config_flags(p_trs)
    p_trs.add_argument("--pair", choices=("w-m", "w-density"), required=True)
    p_trs.add_argument("--at", help="comma-separated evaluation points")
    p_trs.add_argument("--step-policy", choices=("unit-step", "central-derivative"),
                       default="unit-step")
    p_trs.add_argument("--output", choices=("csv", "json"), default="csv")
    p_trs.set_defaults(func=cmd_trs)

    p_val = sub.add_parser("validate", help="Monte-Carlo vs analytic agreement grid")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--n-drops", type=int, default=600, dest="n_drops")
    p_val.add_argument("--n-fading", type=int, default=200, dest="n_fading")
    p_val.add_argument("--rho-values", default="0.1,1,10", dest="rho_values")
    p_val.add_argument("--m-values", default="1,2,4,8", dest="m_values")
    p_val.add_argument("--t-values", default="0.1,1,10", dest="t_values")
    p_val.add_argument("--lambda-u", type=float, default=100.0, dest="lambda_u")
    p_val.add_argument("--alpha", type=float, default=4.0)
    p_val.add_argument("--window-factor", type=float, default=20.0, dest="window_factor")
    p_val.add_argument("--output", choices=("csv", "json"), default="csv")
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_scn = sub.add_parser("scenario", help="demand-doubling resource requirement")
    p_scn.add_argument("--file", help="scenario file path")
    p_scn.add_argument("--scenario", help="scenario name (bundled: sparse, dense)")
    p_scn.add_argument("--mode", choices=[m.value for m in trs.ScaleMode], required=True)
    p_scn.add_argument("--lever", choices=[l.value for l in trs.Lever], required=True)
    p_scn.add_argument("--factor", type=float, default=2.0)
    p_scn.add_argument("--out", default=None)
    p_scn.set_defaults(func=cmd_scenario)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building the tree costs more than a memo-hit command."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; repeated calls in a process share one parser and the planner's caches."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:  # OSError: an unreadable --file or unwritable --out
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (QuadratureError, ArithmeticError, ValueError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
