"""Analytic downlink performance model for PPP deployments with MRT beamforming.

Base stations and users form independent homogeneous Poisson point processes;
each user attaches to its nearest base station (Voronoi association) and idle
stations keep silent.  Active stations are approximated as an independent PPP
of intensity ``p_a * lambda_b``.  With Rayleigh fading per antenna and MRT
toward the served user, the typical user's outage probability has a closed
matrix form driven by the k-coefficients of :mod:`trs_planner.hypergeom`, and
the mean spectral efficiency follows by integrating the SINR distribution.

The model is interference-limited: the analytic path requires zero additive
noise (the Monte-Carlo module accepts a noise term for checking that this is
negligible).

Reuse across antenna counts: the M x M outage system is the leading block of
the (M+1) x (M+1) one, so the forward-substitution solution for M antennas is
the first M entries of the solution for any larger count.  The solution at
each threshold is kept per (p_a, alpha) and extended row by row when a larger
count asks for it; a smaller count sums its prefix.  The extension runs the
rows a cold solve would run, at the same array offsets, so every answer keeps
its bits whatever the order in which antenna counts are asked.

One batch per quadrature interval: QUADPACK's QAGS applies the 21-point
Gauss-Kronrod rule to one interval at a time, bisecting [0, 1], and asks for
the interval's centre first.  The spectral-efficiency integrand therefore
reads a call at a dyadic point as an interval centre, computes that
interval's 21 nodes with QUADPACK's own arithmetic, and evaluates them as
one batch: one store lookup per node, one batched coefficient-table call for
the nodes the store lacks, then the per-threshold forward substitution.  The
batch is exact because a node's coefficients and solution depend only on its
threshold: the k-coefficient rows are elementwise (see
:mod:`trs_planner.hypergeom`) and each node runs the solve a call at that
node alone would run, so each of the 21 values has the bits of a
one-node call.  The 20 values not asked for yet wait, keyed by their exact
abscissa, for the calls that follow; any other call is evaluated alone.

Imports: :func:`mean_log2_sinr` imports ``scipy.integrate`` (which loads
``scipy.optimize``) on its first integral, so outage probabilities and the
Monte-Carlo simulator never load it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .hypergeom import MAX_ANTENNAS, ConfigError, coefficient_table  # MAX_ANTENNAS is re-exported
from .hypergeom import _check_activity, _check_alpha, _check_count, _check_positive, _shown

LN2 = math.log(2.0)
# Kronrod abscissae of QUADPACK's 21-point rule (dqk21), largest first; the
# Gauss nodes are every second one.  The centre node is 0.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
# Finest half-width read as a QUADPACK interval: the benchmark workloads stay
# above 2^-20 and an SE at p_a = 1e-5 reaches 2^-37; a finer interval takes
# the one-node path.  A point that is no centre carries about 53 significant
# bits, so it passes this bound with odds of about 2^-13, and a broken
# prediction costs about one node per call instead of 21.
_MAX_DYADIC_DENOMINATOR = 1 << 40


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


def _check_noise(noise_power: float) -> None:
    """The analytic model is interference-limited: it takes zero noise only."""
    if noise_power != 0.0:
        raise ConfigError(
            "the analytic model is interference-limited; set noise_power=0 "
            "(the Monte-Carlo module accepts a noise term)"
        )


class LoadModel(enum.Enum):
    """How a station's bandwidth is shared among the users it serves.

    MEAN_LOAD multiplies the per-stream rate by the mean round-robin share
    min(1, p_a*lambda_b/lambda_u), the reciprocal of the average number of
    users per active station.  NO_SHARING hands each user the full bandwidth
    (the single-user-per-cell reading of the rate formula).
    """

    MEAN_LOAD = "mean-load"
    NO_SHARING = "no-sharing"


@dataclass(frozen=True)
class NetworkConfig:
    """One operating point of the network.

    Densities are per unit area (the same unit for both), bandwidth in MHz,
    powers in linear scale.
    """

    lambda_b: float
    lambda_u: float
    antennas: int = 1
    bandwidth_mhz: float = 0.0
    alpha: float = 4.0
    noise_power: float = 0.0
    tx_power: float = 1.0
    load_model: LoadModel = LoadModel.MEAN_LOAD

    def __post_init__(self):
        _check_count(self.antennas, "antennas", 1, MAX_ANTENNAS)
        _check_positive(self.lambda_b, "lambda_b")
        _check_positive(self.lambda_u, "lambda_u")
        _check_positive(self.bandwidth_mhz, "bandwidth_mhz", allow_zero=True)
        _check_alpha(self.alpha)
        _check_positive(self.noise_power, "noise_power", allow_zero=True)
        _check_positive(self.tx_power, "tx_power")
        if not isinstance(self.load_model, LoadModel):
            raise ConfigError(f"load_model must be a LoadModel, got {_shown(self.load_model, repr)}")
        object.__setattr__(self, "bandwidth_mhz", abs(self.bandwidth_mhz))  # -0.0 would print a sign

    @property
    def rho(self) -> float:
        """Station-to-user density ratio."""
        return self.lambda_b / self.lambda_u

    def with_(self, **changes) -> "NetworkConfig":
        return replace(self, **changes)


def active_probability(rho: float) -> float:
    """Probability that a station's Voronoi cell holds at least one user.

    Uses the gamma-distributed cell-area fit with shape 3.5; strictly
    decreasing in the density ratio and -> 1 as rho -> 0.  The formula
    rounds to 0 from rho = 2**53 / 3.5 (about 2.6e15) on, where 1/(3.5 rho)
    vanishes beside 1; such a ratio is rejected, not answered with p_a = 0.
    """
    _check_positive(rho, "density ratio lambda_b/lambda_u")
    p_a = 1.0 - (1.0 + 1.0 / (3.5 * rho)) ** -3.5
    if p_a <= 0.0:
        raise ConfigError(
            f"density ratio lambda_b/lambda_u must be below 2**53/3.5 (about 2.6e15) for a "
            f"positive active probability, got {rho}"
        )
    return p_a


@dataclass(frozen=True)
class OutageResult:
    """P[SINR < threshold] for the typical user, with its inputs."""

    p_out: float
    threshold: float
    p_a: float
    antennas: int
    alpha: float

    @property
    def coverage(self) -> float:
        return 1.0 - self.p_out


@lru_cache(maxsize=4)
def _solutions(p_a: float, alpha: float) -> dict:
    """Forward-substitution solutions by threshold, for one (p_a, alpha).

    Each value is a read-only array; a longer solve stores a new array in
    place of the old one, so a concurrent reader sees one or the other and
    at worst repeats work.  Four groups cover a planning session's antenna
    sweeps: the base and the doubled-usage density of two scenarios.
    """
    return {}


def _solve(threshold: float, k, d: float, known, store) -> float:
    """First-column sum of the inverse outage matrix, for two or more antennas.

    The matrix (k0 + 1/p_a) I - Q, with diagonal ``d``, is lower-triangular
    Toeplitz, so its inverse is lower-triangular Toeplitz with non-negative
    entries and the L1 induced norm equals the first-column sum, obtained by
    forward substitution in O(M^2) for M = ``len(k)``.  ``rev`` is ``b``
    back to front, so each dot product reads a contiguous slice instead of a
    reversed view.

    ``known`` is the stored shorter solution at ``threshold``, or None.  A
    larger count copies that prefix into fresh length-M arrays and runs only
    the missing rows, at the offsets a cold length-M solve uses, then stores
    the longer solution in ``store``.
    """
    m = len(k)
    b = np.empty(m)
    rev = np.empty(m)
    if known is None:
        b[0] = rev[m - 1] = 1.0 / d
        start = 1
    else:
        start = len(known)
        b[:start] = known
        rev[m - start :] = known[::-1]
    kv = np.asarray(k)
    for n in range(start, m):
        b[n] = rev[m - 1 - n] = np.dot(kv[1 : n + 1], rev[m - n :]) / d
    b.flags.writeable = False
    store[threshold] = b
    return float(b.sum())


def _p_outs(thresholds: list, p_a: float, antennas: int, alpha: float) -> list[float]:
    """Outage probabilities on already validated inputs, clipped to [0, 1].

    Each threshold makes one lookup: of its stored solution when
    ``antennas > 1`` (see :func:`_solutions`), else of its coefficient
    table.  A stored solution at least ``antennas`` long gives the sum of
    its prefix; the others get their tables from one batched
    :func:`coefficient_table` call.  One antenna needs no solve (``1/d``)
    and leaves the store alone, so one-antenna sweeps over many densities,
    each with its own p_a, do not push out the groups that larger counts
    reuse.
    """
    store = _solutions(p_a, alpha) if antennas > 1 else {}
    knowns = [store.get(t) for t in thresholds]
    misses = [t for t, known in zip(thresholds, knowns) if known is None or len(known) < antennas]
    tables = iter(coefficient_table(antennas, misses, alpha) if misses else ())
    inv = 1.0 / p_a
    p_outs = []
    for t, known in zip(thresholds, knowns):
        if known is not None and len(known) >= antennas:
            norm = float(known[:antennas].sum())
        else:
            k = next(tables)
            d = k[0] + inv
            if not d > 0.0:
                raise ArithmeticError(f"outage system lost positivity: diagonal {d}")
            norm = 1.0 / d if antennas == 1 else _solve(t, k, d, known, store)
        p_out = 1.0 - norm / p_a
        if not 0.0 <= p_out <= 1.0:
            if p_out < -1e-9 or p_out > 1.0 + 1e-9:
                raise ArithmeticError(f"outage left [0,1]: {p_out} at T={t}, p_a={p_a}, M={antennas}")
            p_out = min(max(p_out, 0.0), 1.0)
        p_outs.append(p_out)
    return p_outs


def outage_probability(threshold: float, p_a: float, antennas: int, alpha: float) -> OutageResult:
    """Outage probability of the typical user at a linear SINR threshold.

    Non-increasing in the antenna count and non-decreasing in the threshold.
    """
    _check_positive(threshold, "threshold")
    _check_activity(p_a)
    _check_count(antennas, "antennas", 1, MAX_ANTENNAS)
    _check_alpha(alpha)
    return OutageResult(
        p_out=_p_outs([threshold], p_a, int(antennas), alpha)[0],
        threshold=threshold,
        p_a=p_a,
        antennas=int(antennas),
        alpha=alpha,
    )


def _interval_nodes(u: float) -> list[float]:
    """``u`` followed by the other 20 nodes of the QAGS interval centred on it.

    QAGS bisects [0, 1], so each interval is [j/2^k, (j+1)/2^k] and its
    centre is an odd multiple of 2^-(k+1), the half-width.  The nodes are
    ``centre -/+ half_width * xgk``, computed as QUADPACK computes them; the
    product is exact, so only the sum rounds.  A ``u`` that is no such
    centre gives ``[u]``.
    """
    den = u.as_integer_ratio()[1]
    if not 2 <= den <= _MAX_DYADIC_DENOMINATOR:
        return [u]
    half = 1.0 / den
    nodes = [u]
    for x in _XGK:
        step = half * x
        nodes += (u - step, u + step)
    return nodes


@lru_cache(maxsize=4096)
def mean_log2_sinr(p_a: float, antennas: int, alpha: float, abs_tol: float = 1e-6) -> float:
    """E[log2(1 + SINR)] in bits/s/Hz via adaptive quadrature.

    The semi-infinite threshold integral is mapped to (0, 1) by
    T = u/(1-u); the integrand has an integrable (1-u)^(2/alpha - 1)
    endpoint singularity that the adaptive rule resolves by extrapolation.
    Raises QuadratureError when the absolute tolerance (in bits/s/Hz)
    cannot be certified.  Pure in its arguments, so results are memoized.
    The inputs are checked once here, not at every quadrature node.

    QAGS applies the 21-point Gauss-Kronrod rule one interval at a time and
    asks for the interval's centre first.  So a call at a dyadic ``u``
    evaluates all 21 nodes of the interval centred there as one batch
    (:func:`_interval_nodes`, :func:`_p_outs`) and keeps the other 20
    values, keyed by their exact ``u``, for the calls that follow.  Every
    value is the one a call at that ``u`` alone computes, bit for bit: the
    coefficients and solutions of a node depend only on its threshold.  A
    wrong prediction therefore costs time, never bits.
    """
    _check_activity(p_a)
    _check_count(antennas, "antennas", 1, MAX_ANTENNAS)
    _check_alpha(alpha)
    m = int(antennas)
    pending = {}

    def integrand(u):
        value = pending.pop(u, None)
        if value is None:
            nodes = _interval_nodes(u)
            try:
                thresholds = [x / (1.0 - x) for x in nodes]
            except ZeroDivisionError:
                raise QuadratureError(
                    "spectral-efficiency quadrature reached a node that rounds to "
                    f"u = 1 (an infinite SINR threshold) at p_a={p_a}, M={m}, alpha={alpha}"
                ) from None
            p_outs = _p_outs(thresholds, p_a, m, alpha)
            values = [(1.0 - p) / (1.0 - x) for x, p in zip(nodes, p_outs)]
            pending.update(zip(nodes[1:], values[1:]))
            value = values[0]
        return value

    from scipy.integrate import quad  # imported by the first integral, not at start-up

    result = quad(
        integrand, 0.0, 1.0, epsabs=abs_tol * LN2 * 0.25, epsrel=1e-10,
        limit=500, full_output=True,
    )
    nats, err = result[0], result[1]
    if err > abs_tol * LN2:
        raise QuadratureError(
            f"spectral-efficiency quadrature reached {err / LN2:.3e} bits/s/Hz "
            f"against a tolerance of {abs_tol:.3e}"
        )
    return nats / LN2


def spectral_efficiency(p_a: float, antennas: int, alpha: float, abs_tol: float = 1e-6) -> float:
    """Mean achievable spectral efficiency in bits/s/Hz.

    Strictly increasing in the antenna count, strictly decreasing in the
    active probability (more silent stations means less interference).
    """
    return mean_log2_sinr(p_a, antennas, alpha, abs_tol=abs_tol)


def mean_load_share(config: NetworkConfig, p_a: float) -> float:
    """Average round-robin bandwidth fraction a user receives at activity ``p_a``."""
    if config.load_model is LoadModel.NO_SHARING:
        return 1.0
    return min(1.0, p_a * config.lambda_b / config.lambda_u)


def user_rate(config: NetworkConfig) -> float:
    """Average per-user data rate in Mbps, exactly linear in bandwidth."""
    _check_noise(config.noise_power)
    p_a = active_probability(config.rho)
    se = spectral_efficiency(p_a, config.antennas, config.alpha)
    return config.bandwidth_mhz * se * mean_load_share(config, p_a)
