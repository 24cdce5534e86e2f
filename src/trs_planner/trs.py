"""Resource-substitution planning on top of the rate model.

Inverts the per-user rate for each of the three provisioning levers
(spectrum, station density, antennas per station), traces indifference
curves at fixed demand, and measures the technical rate of substitution
(TRS) between spectrum and the infrastructure levers.

Step policy: the published substitution tables difference the indifference
curve with a forward unit step on the infrastructure axis (one extra
station per unit area, one extra antenna), so that is the frozen default
here ("unit-step").  A derivative-based variant ("central-derivative",
implicit-function ratio with a relative step of 1e-3) is kept selectable
for smooth-curve analysis; both are recorded on the returned value.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .hypergeom import _FLOAT_MAX, MAX_ANTENNAS, ConfigError, _check_count, _check_positive, _shown
# spectral_efficiency is re-exported: perfbench/tracing.py wraps trs.spectral_efficiency
from .coverage import LoadModel, NetworkConfig, spectral_efficiency, user_rate  # noqa: F401

RATE_REL_TOL = 1e-6
DENSITY_REL_TOL = 1e-10
MAX_DENSITY_RATIO = 1e4
CENTRAL_REL_STEP = 1e-3
# smallest W0 - W1, in ulps of W0, that a unit step of lambda_b resolves
# (see trs_spectrum_density)
UNIT_STEP_MIN_ULPS = 2**10


class InfeasibleError(RuntimeError):
    """The demand cannot be met by moving the requested lever."""


class ScaleMode(enum.Enum):
    DOUBLE_RATE = "double-rate"
    DOUBLE_USAGE = "double-usage"


class Lever(enum.Enum):
    SPECTRUM = "spectrum"
    DENSITY = "density"
    ANTENNAS = "antennas"


@dataclass(frozen=True)
class OperatingPoint:
    """A network configuration delivering a target per-user rate."""

    config: NetworkConfig
    target_rate_mbps: float

    def __post_init__(self):
        _check_positive(self.target_rate_mbps, "target rate")


def make_operating_point(
    target_rate_mbps: float,
    lambda_b: float,
    antennas: int,
    lambda_u: float,
    alpha: float = 4.0,
    load_model: LoadModel = LoadModel.MEAN_LOAD,
) -> OperatingPoint:
    """Operating point with the bandwidth solved to meet the target rate."""
    w = required_spectrum(target_rate_mbps, lambda_b, antennas, lambda_u, alpha, load_model)
    config = NetworkConfig(
        lambda_b=lambda_b,
        lambda_u=lambda_u,
        antennas=antennas,
        bandwidth_mhz=w,
        alpha=alpha,
        load_model=load_model,
    )
    return OperatingPoint(config=config, target_rate_mbps=target_rate_mbps)


def required_spectrum(
    target_rate_mbps: float,
    lambda_b: float,
    antennas: int,
    lambda_u: float,
    alpha: float = 4.0,
    load_model: LoadModel = LoadModel.MEAN_LOAD,
) -> float:
    """Bandwidth (MHz) meeting the target rate; exact since rate is linear in W."""
    _check_positive(target_rate_mbps, "target rate", allow_zero=True)
    denom = _rate(lambda_b, 1.0, antennas, lambda_u, alpha, load_model)
    if denom <= 0.0 or not math.isfinite(denom):
        raise InfeasibleError(f"rate per MHz is degenerate ({denom}) at lambda_b={lambda_b}")
    return target_rate_mbps / denom


def _rate(lambda_b, bandwidth_mhz, antennas, lambda_u, alpha, load_model):
    """Per-user rate (Mbps) at one point of the lever space."""
    cfg = NetworkConfig(
        lambda_b=lambda_b,
        lambda_u=lambda_u,
        antennas=antennas,
        bandwidth_mhz=bandwidth_mhz,
        alpha=alpha,
        load_model=load_model,
    )
    return user_rate(cfg)


def required_density(
    target_rate_mbps: float,
    bandwidth_mhz: float,
    antennas: int,
    lambda_u: float,
    alpha: float = 4.0,
    load_model: LoadModel = LoadModel.MEAN_LOAD,
) -> float:
    """Station density meeting the target rate at fixed bandwidth.

    The rate rises monotonically with lambda_b, so the density is the root
    of rate(lambda_b) - target.  A bracket is found first: its top end
    grows fourfold from ``lambda_u`` up to ``MAX_DENSITY_RATIO * lambda_u``
    and its bottom end shrinks fourfold.  scipy's ``brentq`` (Brent, 1973)
    then narrows it to ``DENSITY_REL_TOL`` relative width.  Its ``xtol``
    must be positive; at the smallest normal float the relative tolerance
    alone decides.
    Every residual goes through one memo, keyed by density: the bracket
    search reads ``lambda_u`` once, ``brentq``'s first two calls at the
    bracket ends compute no new rate, and the residual at the root feeds
    the ``RATE_REL_TOL`` check.  Raises InfeasibleError when no density
    within the bracket reaches the demand: once the bandwidth share
    saturates the rate grows only logarithmically with density, so demands
    can sit effectively out of reach.  A rate error raised inside
    ``brentq`` reaches the caller unchanged.
    """
    _check_positive(target_rate_mbps, "target rate")

    @functools.cache  # the residual memo, keyed by density
    def residual(lam):
        return _rate(lam, bandwidth_mhz, antennas, lambda_u, alpha, load_model) - target_rate_mbps

    cap = MAX_DENSITY_RATIO * lambda_u
    lo = hi = lambda_u
    while residual(hi) < 0.0:
        if hi >= cap:
            raise InfeasibleError(
                f"infeasible demand: {target_rate_mbps} Mbps not reached at the "
                f"density search cap lambda_b={cap:.3g} (rate grows only "
                "logarithmically once the bandwidth share saturates)"
            )
        hi = min(hi * 4.0, cap)
    for _ in range(60):
        if residual(lo) <= 0.0:
            break
        lo /= 4.0
    else:
        raise InfeasibleError(f"demand met even at vanishing density (lambda_b={lo:.3g})")

    from scipy.optimize import brentq  # scipy.integrate, which the rates above used, loads it

    root, result = brentq(
        residual, lo, hi, xtol=sys.float_info.min, rtol=DENSITY_REL_TOL, full_output=True, disp=False
    )
    miss = residual(root)
    if not result.converged or abs(miss) > RATE_REL_TOL * target_rate_mbps:
        raise ArithmeticError(
            f"density solve landed at {miss + target_rate_mbps} Mbps against target {target_rate_mbps}"
        )
    return root


def required_antennas(
    target_rate_mbps: float,
    bandwidth_mhz: float,
    lambda_b: float,
    lambda_u: float,
    alpha: float = 4.0,
    load_model: LoadModel = LoadModel.MEAN_LOAD,
    max_antennas: int = MAX_ANTENNAS,
) -> int:
    """Smallest antenna count meeting the target rate at fixed W and density.

    Raises InfeasibleError when ``max_antennas`` does not meet the demand:
    per-antenna gains diminish, so demands can be unreachable at any sane
    array size.
    """
    _check_positive(target_rate_mbps, "target rate")
    _check_count(max_antennas, "max_antennas", 1, MAX_ANTENNAS)

    # tolerate float dust when the demand sits exactly on a solved point
    floor = target_rate_mbps * (1.0 - RATE_REL_TOL)
    lo = hi = 1
    while _rate(lambda_b, bandwidth_mhz, hi, lambda_u, alpha, load_model) < floor:
        lo = hi
        if hi >= max_antennas:
            raise InfeasibleError(
                f"antenna-infeasible: {target_rate_mbps} Mbps not reached at "
                f"the {max_antennas}-antenna search cap"
            )
        hi = min(hi * 2, max_antennas)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rate(lambda_b, bandwidth_mhz, mid, lambda_u, alpha, load_model) < floor:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class CurveSample:
    axis1: float
    axis2: float | None
    feasible: bool


@dataclass(frozen=True)
class IndifferenceCurve:
    """Samples of (infrastructure value, spectrum MHz) at fixed demand."""

    pair: str
    target_rate_mbps: float
    lambda_u: float
    held: dict
    samples: tuple[CurveSample, ...]


def indifference_curve(
    target_rate_mbps: float,
    lambda_u: float,
    pair: str,
    grid,
    lambda_b: float | None = None,
    antennas: int | None = None,
    alpha: float = 4.0,
    load_model: LoadModel = LoadModel.MEAN_LOAD,
) -> IndifferenceCurve:
    """Trace spectrum against antennas ("w-m") or density ("w-density").

    Axis 1 runs over the supplied grid (antenna counts or station
    densities, sorted ascending); axis 2 is the spectrum meeting the
    demand there.  Per-sample infeasibility is recorded, not raised.
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("curve grid must be non-empty")
    if sorted(grid) != grid:
        raise ConfigError("curve grid must be sorted ascending")
    if pair == "w-m":
        if lambda_b is None:
            raise ConfigError("w-m curve needs the held lambda_b")
        held = {"lambda_b": lambda_b, "alpha": alpha, "load_model": load_model.value}

        def lever(m):  # (lambda_b, antennas) at a grid value
            _check_count(m, "antenna grid value", 1, MAX_ANTENNAS)
            return lambda_b, int(m)
    elif pair == "w-density":
        if antennas is None:
            raise ConfigError("w-density curve needs the held antenna count")
        held = {"antennas": antennas, "alpha": alpha, "load_model": load_model.value}

        def lever(lam):
            _check_positive(lam, "density grid value")
            return lam, antennas
    else:
        raise ConfigError(f"unknown curve pair {_shown(pair, repr)} (expected 'w-m' or 'w-density')")
    samples = []
    for value in grid:
        try:
            w = required_spectrum(target_rate_mbps, *lever(value), lambda_u, alpha, load_model)
        except InfeasibleError:
            w = None
        samples.append(CurveSample(axis1=float(value), axis2=w, feasible=w is not None))
    return IndifferenceCurve(
        pair=pair,
        target_rate_mbps=target_rate_mbps,
        lambda_u=lambda_u,
        held=held,
        samples=tuple(samples),
    )


def log_grid(lo: float, hi: float, points: int = 64):
    """Default curve grid: log-spaced, endpoints included."""
    if not 0 < lo < hi <= _FLOAT_MAX:
        raise ConfigError(
            f"grid bounds must satisfy 0 < lo < hi < inf, got ({_shown(lo)}, {_shown(hi)})"
        )
    _check_count(points, "grid points", 1, sys.maxsize // 8)  # the largest float64 array numpy holds
    return list(np.geomspace(lo, hi, points))


@dataclass(frozen=True)
class TrsValue:
    """|delta lever / delta MHz| at an operating point, with provenance."""

    pair: str
    magnitude: float
    units: str
    step_policy: str
    target_rate_mbps: float
    lambda_u: float
    lambda_b: float
    antennas: int
    bandwidth_mhz: float
    note: str = ""

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.magnitude)


def _per_mhz_saved(w0: float, w1: float, flat_note: str) -> tuple[float, str]:
    """Forward-unit-step TRS 1 / (W0 - W1), infinite where the step saves nothing."""
    saving = w0 - w1
    if saving <= 0.0:
        return math.inf, flat_note
    return 1.0 / saving, ""


def trs_spectrum_antennas(
    target_rate_mbps: float,
    lambda_b: float,
    antennas: int,
    lambda_u: float,
    alpha: float = 4.0,
    load_model: LoadModel = LoadModel.MEAN_LOAD,
) -> TrsValue:
    """Antennas substituting spectrum: 1 / (W(M) - W(M+1)), forward unit step."""
    w0 = required_spectrum(target_rate_mbps, lambda_b, antennas, lambda_u, alpha, load_model)
    w1 = required_spectrum(target_rate_mbps, lambda_b, antennas + 1, lambda_u, alpha, load_model)
    magnitude, note = _per_mhz_saved(w0, w1, "adding an antenna saves no spectrum here")
    return TrsValue(
        pair="spectrum-antennas",
        magnitude=magnitude,
        units="antennas_per_mhz",
        step_policy="forward-unit-step dM=1",
        target_rate_mbps=target_rate_mbps,
        lambda_u=lambda_u,
        lambda_b=lambda_b,
        antennas=antennas,
        bandwidth_mhz=w0,
        note=note,
    )


def _check_unit_step(lambda_b: float) -> None:
    """A density a unit step can leave: positive and below 2**53, so lambda_b + 1 is exact."""
    _check_positive(lambda_b, "lambda_b")
    if lambda_b >= 2.0**53:
        raise ConfigError(
            f"lambda_b {lambda_b:g} is too large for a unit step (lambda_b + 1 rounds to an "
            "even float from 2**53 on); use --step-policy central-derivative"
        )


def trs_spectrum_density(
    target_rate_mbps: float,
    lambda_b: float,
    antennas: int,
    lambda_u: float,
    alpha: float = 4.0,
    load_model: LoadModel = LoadModel.MEAN_LOAD,
    policy: str = "unit-step",
) -> TrsValue:
    """Density substituting spectrum at a point on the indifference curve.

    "unit-step" differences the curve with one extra station per unit area
    (the table-matching default); "central-derivative" evaluates the
    implicit-function ratio (dR/dW)/(dR/dlambda_b) with dR/dW = R/W exact
    and the density derivative by central difference.

    A unit step needs lambda_b below 2**53, where floats stop holding every
    integer, and a saving W0 - W1 above the rounding of W.  The rate rises
    strictly with lambda_b, so W0 - W1 <= 0 at a positive W0 comes from
    rounding alone.  W passes through the activity formula, the load share
    and a quadrature of a few hundred nodes; at lambda_b = lambda_u from
    1e12 to 1e15 (10 Mbps, one antenna, alpha = 4) the unit-step difference
    strays from the saving the central derivative predicts by 60 to 140
    ulps of W0.  A step that saves at most ``UNIT_STEP_MIN_ULPS`` (2**10)
    ulps, about 7 times the largest of these, is rejected.  Ordinary
    questions save far more: every unit step of the benchmark's seeded
    queries (lambda_b up to about 8e3) saves over 1e11 ulps.
    """
    if policy not in ("unit-step", "central-derivative"):
        raise ConfigError(f"unknown TRS step policy {_shown(policy, repr)}")
    if policy == "unit-step":
        _check_unit_step(lambda_b)
    w0 = required_spectrum(target_rate_mbps, lambda_b, antennas, lambda_u, alpha, load_model)
    if policy == "unit-step":
        w1 = required_spectrum(target_rate_mbps, lambda_b + 1.0, antennas, lambda_u, alpha, load_model)
        if w0 > 0.0 and w0 - w1 <= UNIT_STEP_MIN_ULPS * math.ulp(w0):
            raise ConfigError(
                f"lambda_b {lambda_b:g} is too large for a unit step (it saves {w0 - w1:.3g} MHz of W = "
                f"{w0:.6g} MHz, within {UNIT_STEP_MIN_ULPS} ulps of W); use --step-policy central-derivative"
            )
        magnitude, note = _per_mhz_saved(w0, w1, "densifying saves no spectrum here")
        step = "forward-unit-step dlambda_b=1"
    else:
        h = CENTRAL_REL_STEP * lambda_b
        up = _rate(lambda_b + h, w0, antennas, lambda_u, alpha, load_model)
        dn = _rate(lambda_b - h, w0, antennas, lambda_u, alpha, load_model)
        drate_ddensity = (up - dn) / (2.0 * h)
        drate_dspectrum = target_rate_mbps / w0
        if drate_ddensity <= 0.0:
            magnitude, note = math.inf, "rate is insensitive to density here"
        else:
            magnitude, note = drate_dspectrum / drate_ddensity, ""
        step = f"implicit-ratio central-diff rel={CENTRAL_REL_STEP:g}"
    return TrsValue(
        pair="spectrum-density",
        magnitude=magnitude,
        units="lambda_b_per_mhz",
        step_policy=step,
        target_rate_mbps=target_rate_mbps,
        lambda_u=lambda_u,
        lambda_b=lambda_b,
        antennas=antennas,
        bandwidth_mhz=w0,
        note=note,
    )


@dataclass(frozen=True)
class DoublingReport:
    """Resource requirement for scaling demand by ``factor`` with one lever."""

    mode: str
    lever: str
    factor: float
    base_target_rate_mbps: float
    base_lambda_u: float
    scaled_target_rate_mbps: float
    scaled_lambda_u: float
    base_value: float
    lever_value: float | None
    ratio: float | None
    feasible: bool
    note: str = ""


def doubling_scenario(
    base: OperatingPoint,
    mode: ScaleMode,
    lever: Lever,
    factor: float = 2.0,
    max_antennas: int = MAX_ANTENNAS,
) -> DoublingReport:
    """Scale either the per-user rate or the user density, move one lever.

    Infeasibility is a first-class result: the report carries it instead of
    raising, because rate saturation under densification and diminishing
    antenna gains are findings, not errors.
    """
    _check_positive(factor, "scale factor")
    cfg = base.config
    if mode is ScaleMode.DOUBLE_RATE:
        target_rate = factor * base.target_rate_mbps
        target_lambda_u = cfg.lambda_u
    else:
        target_rate = base.target_rate_mbps
        target_lambda_u = factor * cfg.lambda_u

    lever_value: float | None
    note = ""
    try:
        if lever is Lever.SPECTRUM:
            base_value = cfg.bandwidth_mhz
            lever_value = required_spectrum(
                target_rate, cfg.lambda_b, cfg.antennas, target_lambda_u, cfg.alpha, cfg.load_model
            )
        elif lever is Lever.DENSITY:
            base_value = cfg.lambda_b
            lever_value = required_density(
                target_rate, cfg.bandwidth_mhz, cfg.antennas, target_lambda_u, cfg.alpha, cfg.load_model
            )
        else:
            base_value = float(cfg.antennas)
            lever_value = float(
                required_antennas(
                    target_rate, cfg.bandwidth_mhz, cfg.lambda_b, target_lambda_u,
                    cfg.alpha, cfg.load_model, max_antennas=max_antennas,
                )
            )
    except InfeasibleError as err:
        lever_value = None
        note = str(err)

    return DoublingReport(
        mode=mode.value,
        lever=lever.value,
        factor=factor,
        base_target_rate_mbps=base.target_rate_mbps,
        base_lambda_u=cfg.lambda_u,
        scaled_target_rate_mbps=target_rate,
        scaled_lambda_u=target_lambda_u,
        base_value=base_value,
        lever_value=lever_value,
        ratio=None if lever_value is None else lever_value / base_value,
        feasible=lever_value is not None,
        note=note,
    )
