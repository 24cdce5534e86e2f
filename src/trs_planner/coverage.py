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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .hypergeom import coefficient_table

LN2 = math.log(2.0)


class ConfigError(ValueError):
    """A physical quantity is outside the model's domain."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


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
        for name in (
            "lambda_b", "lambda_u", "antennas", "bandwidth_mhz", "alpha", "noise_power", "tx_power"
        ):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lambda_b <= 0.0:
            raise ConfigError(f"lambda_b must be positive, got {self.lambda_b}")
        if self.lambda_u <= 0.0:
            raise ConfigError(f"lambda_u must be positive, got {self.lambda_u}")
        if int(self.antennas) != self.antennas or self.antennas < 1:
            raise ConfigError(f"antennas must be an integer >= 1, got {self.antennas}")
        if self.bandwidth_mhz < 0.0:
            raise ConfigError(f"bandwidth_mhz must be >= 0, got {self.bandwidth_mhz}")
        if self.alpha <= 2.0:
            raise ConfigError(f"alpha must exceed 2, got {self.alpha}")
        if self.noise_power < 0.0:
            raise ConfigError(f"noise_power must be >= 0, got {self.noise_power}")
        if self.tx_power <= 0.0:
            raise ConfigError(f"tx_power must be positive, got {self.tx_power}")
        if not isinstance(self.load_model, LoadModel):
            raise ConfigError(f"load_model must be a LoadModel, got {self.load_model!r}")

    @property
    def rho(self) -> float:
        """Station-to-user density ratio."""
        return self.lambda_b / self.lambda_u

    def with_(self, **changes) -> "NetworkConfig":
        return replace(self, **changes)


def active_probability(rho: float) -> float:
    """Probability that a station's Voronoi cell holds at least one user.

    Uses the gamma-distributed cell-area fit with shape 3.5; strictly
    decreasing in the density ratio and -> 1 as rho -> 0.
    """
    if rho <= 0.0:
        raise ConfigError(f"density ratio must be positive, got {rho}")
    return 1.0 - (1.0 + 1.0 / (3.5 * rho)) ** -3.5


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


def _first_column_sum(k: tuple[float, ...], p_a: float) -> float:
    """L1 induced norm of the inverse outage matrix.

    The matrix (k0 + 1/p_a) I - Q is lower-triangular Toeplitz with constant
    positive diagonal, so its inverse is lower-triangular Toeplitz with
    non-negative entries and the norm equals the first-column sum, obtained
    by forward substitution in O(M^2).
    """
    d = k[0] + 1.0 / p_a
    if not d > 0.0:
        raise ArithmeticError(f"outage system lost positivity: diagonal {d}")
    m = len(k)
    b = np.empty(m)
    b[0] = 1.0 / d
    kv = np.asarray(k)
    for n in range(1, m):
        b[n] = np.dot(kv[1 : n + 1], b[n - 1 :: -1]) / d
    return float(b.sum())


def outage_probability(threshold: float, p_a: float, antennas: int, alpha: float) -> OutageResult:
    """Outage probability of the typical user at a linear SINR threshold.

    Non-increasing in the antenna count and non-decreasing in the threshold.
    """
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    if threshold <= 0.0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    if not 0.0 < p_a <= 1.0:
        raise ConfigError(f"active probability must lie in (0, 1], got {p_a}")
    if int(antennas) != antennas or antennas < 1:
        raise ConfigError(f"antennas must be an integer >= 1, got {antennas}")
    table = coefficient_table(int(antennas), threshold, alpha)
    norm = _first_column_sum(table.values, p_a)
    p_out = 1.0 - norm / p_a
    if p_out < -1e-9 or p_out > 1.0 + 1e-9:
        raise ArithmeticError(
            f"outage left [0,1]: {p_out} at T={threshold}, p_a={p_a}, M={antennas}"
        )
    return OutageResult(
        p_out=min(max(p_out, 0.0), 1.0),
        threshold=threshold,
        p_a=p_a,
        antennas=int(antennas),
        alpha=alpha,
    )


@lru_cache(maxsize=4096)
def mean_log2_sinr(p_a: float, antennas: int, alpha: float, abs_tol: float = 1e-6) -> float:
    """E[log2(1 + SINR)] in bits/s/Hz via adaptive quadrature.

    The semi-infinite threshold integral is mapped to (0, 1) by
    T = u/(1-u); the integrand has an integrable (1-u)^(2/alpha - 1)
    endpoint singularity that the adaptive rule resolves by extrapolation.
    Raises QuadratureError when the absolute tolerance (in bits/s/Hz)
    cannot be certified.  Pure in its arguments, so results are memoized.
    """
    if not 0.0 < p_a <= 1.0:
        raise ConfigError(
            f"active probability must lie in (0, 1], got {p_a}"
            + (" (an interference-free network has unbounded spectral efficiency)" if p_a <= 0 else "")
        )

    def integrand(u):
        t = u / (1.0 - u)
        cov = 1.0 - outage_probability(t, p_a, antennas, alpha).p_out
        return cov / (1.0 - u)

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


def mean_load_share(config: NetworkConfig, p_a: float | None = None) -> float:
    """Average round-robin bandwidth fraction a user receives."""
    if p_a is None:
        p_a = active_probability(config.rho)
    if config.load_model is LoadModel.NO_SHARING:
        return 1.0
    return min(1.0, p_a * config.lambda_b / config.lambda_u)


def user_rate(config: NetworkConfig) -> float:
    """Average per-user data rate in Mbps, exactly linear in bandwidth."""
    if config.noise_power != 0.0:
        raise ConfigError(
            "the analytic model is interference-limited; set noise_power=0 "
            "(the Monte-Carlo module accepts a noise term)"
        )
    p_a = active_probability(config.rho)
    se = spectral_efficiency(p_a, config.antennas, config.alpha)
    return config.bandwidth_mhz * se * mean_load_share(config, p_a)
