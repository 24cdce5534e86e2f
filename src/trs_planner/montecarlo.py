"""Stochastic-geometry simulator used as an independent check on the analytic model.

Each drop realizes one network: stations from a Poisson process on a disc
window, the observed user at the origin (typical-point convention), service
from the nearest station, and per-drop fading realizations.  MRT toward the
served user makes the desired-signal gain a sum of ``antennas`` unit
exponentials (a Gamma(M, 1) variable, coupled monotonically across antenna
counts), while every interfering beam contributes an Exponential(1) gain.

Station activity comes from either of two models: VORONOI_OCCUPANCY switches
a station on iff its Voronoi cell contains a user (the ground truth), and
INDEPENDENT_THINNING keeps interferers with probability p_a independently
(the approximation the analytic model inherits).  ``activity_gap_report``
quantifies the difference with common random numbers.

Reproducibility: every drop draws from Philox substreams keyed by
``(seed, drop index, purpose)``, so results are bit-identical for a given
(seed, config) regardless of how many worker threads execute the drops.
``TRS_PLANNER_THREADS`` caps that count (0 or unset: one per CPU, at most 8).

Shared drops: a drop's stations, activity and interference do not depend on
the antenna count, and they cost nearly all of its time.  ``sinr_samples``
keeps that part of the last two runs, keyed by the config with its antenna
count normalised to 1 and by the worker-thread count, together with the fade
stream's Philox state right after the interference draw.  Another antenna
count, or another threshold on the same config, then only draws the desired
gains, from a generator restored to that state.  The restored generator
continues the very stream a cold run would draw from, so the bits are the
same either way.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np
from scipy.spatial import cKDTree

from .coverage import ConfigError, NetworkConfig, active_probability

THREADS_ENV_VAR = "TRS_PLANNER_THREADS"
_TRUNCATION_FRACTION = 1e-3
# Users placed and queried per step of a Voronoi-occupancy scan.  On one core,
# 1024 and 4096 ran alike where the scan stops early, and 16384 took 40%
# longer; 4096 makes fewer queries where the scan reads every user.
_USER_CHUNK = 4096


class ActivityModel(enum.Enum):
    VORONOI_OCCUPANCY = "voronoi-occupancy"
    INDEPENDENT_THINNING = "independent-thinning"


@dataclass(frozen=True)
class McConfig:
    """Simulation setup: network, disc window, sample counts, master seed."""

    network: NetworkConfig
    window_radius: float
    n_drops: int
    n_fading_per_drop: int
    seed: int
    activity_model: ActivityModel = ActivityModel.INDEPENDENT_THINNING

    def __post_init__(self):
        if not math.isfinite(self.window_radius):
            raise ConfigError(f"window_radius must be finite, got {self.window_radius}")
        if self.window_radius <= 0.0:
            raise ConfigError(f"window_radius must be positive, got {self.window_radius}")
        # a drop-level standard error needs two drops
        if self.n_drops < 2 or int(self.n_drops) != self.n_drops:
            raise ConfigError(f"n_drops must be an integer >= 2, got {self.n_drops}")
        if self.n_fading_per_drop < 1 or int(self.n_fading_per_drop) != self.n_fading_per_drop:
            raise ConfigError(f"n_fading_per_drop must be >= 1, got {self.n_fading_per_drop}")
        if self.seed < 0 or int(self.seed) != self.seed:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        expected_bs = self.expected_stations
        if not math.isfinite(expected_bs):
            raise ConfigError(
                f"expected_stations (lambda_b*pi*window_radius**2) must be finite, got {expected_bs}"
            )
        if self.activity_model is ActivityModel.VORONOI_OCCUPANCY:
            expected_users = self.expected_users
            if not math.isfinite(expected_users):
                raise ConfigError(
                    f"expected_users (lambda_u*pi*window_radius**2) must be finite, got {expected_users}"
                )
        if expected_bs < 50.0:
            warnings.warn(
                f"window holds only ~{expected_bs:.1f} stations on average; "
                "estimates will carry strong edge effects",
                stacklevel=2,
            )

    @property
    def expected_stations(self) -> float:
        return self.network.lambda_b * math.pi * self.window_radius**2

    @property
    def expected_users(self) -> float:
        return self.network.lambda_u * math.pi * self.window_radius**2


def recommended_window(lambda_b: float, factor: float = 20.0) -> float:
    """Disc radius giving ``factor`` mean nearest-station distances of margin."""
    return factor / math.sqrt(lambda_b)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with a drop-level standard error.

    Drops are the independent units (fading samples within a drop share its
    geometry), so ``std_error`` is the standard deviation of per-drop means
    over sqrt(n_drops); ``n_samples`` counts drops times fading realizations.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int
    n_drops: int
    annotations: tuple[str, ...] = ()


def resolve_workers() -> int:
    """Worker-thread count: the ``TRS_PLANNER_THREADS`` cap, or auto when 0 or unset."""
    raw = os.environ.get(THREADS_ENV_VAR, "0")
    try:
        workers = int(raw)
    except ValueError as err:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from err
    if workers < 0:
        raise ConfigError(f"{THREADS_ENV_VAR} must be >= 0, got {workers}")
    return workers or min(os.cpu_count() or 1, 8)


def _drop_streams(seed: int, drop: int):
    """Independent geometry/activity/fading generators for one drop."""
    children = np.random.SeedSequence(entropy=[int(seed), int(drop)]).spawn(3)
    return tuple(np.random.Generator(np.random.Philox(child)) for child in children)


@dataclass
class SinrSamples:
    """Raw per-drop SINR realizations plus bookkeeping for diagnostics."""

    sinr: np.ndarray  # (n_drops, n_fading_per_drop)
    desired_gain: np.ndarray  # same shape
    mean_interference: np.ndarray  # (n_drops,)
    n_active: np.ndarray  # (n_drops,)
    p_a_used: float
    annotations: tuple[str, ...]


def _map_drops(one_drop, n_drops: int) -> list:
    """``one_drop(d)`` for every drop index in order, on worker threads if allowed."""
    n_workers = resolve_workers()
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(one_drop, range(n_drops)))
    return [one_drop(d) for d in range(n_drops)]


def _stations(cfg: McConfig, geom, act):
    """One drop's station radii and, under Voronoi occupancy, which cells hold a user.

    The geometry stream draws the station count, radii and angles; the
    activity stream draws the users.  ``occupied`` is None under independent
    thinning, whose activity draws depend on the serving station.

    Both user arrays are drawn in full, so the stream and every later draw
    are as before.  The users are placed and queried ``_USER_CHUNK`` at a
    time, and the scan stops once every station is occupied: the occupied
    set depends only on the positions, so the result is the full query's.
    """
    radius = cfg.window_radius
    n_bs = geom.poisson(cfg.expected_stations)
    r = radius * np.sqrt(geom.random(n_bs))
    theta = 2.0 * math.pi * geom.random(n_bs)
    if cfg.activity_model is ActivityModel.INDEPENDENT_THINNING or n_bs == 0:
        return r, None
    occupied = np.zeros(n_bs, dtype=bool)
    n_users = act.poisson(cfg.expected_users)
    if n_users:
        u_r = radius * np.sqrt(act.random(n_users))
        u_theta = 2.0 * math.pi * act.random(n_users)
        tree = cKDTree(np.column_stack((r * np.cos(theta), r * np.sin(theta))))
        for lo in range(0, n_users, _USER_CHUNK):
            ur, ut = u_r[lo : lo + _USER_CHUNK], u_theta[lo : lo + _USER_CHUNK]
            _, nearest = tree.query(np.column_stack((ur * np.cos(ut), ur * np.sin(ut))))
            occupied[nearest] = True
            if occupied.all():
                break
    return r, occupied


def _drop_interference(cfg: McConfig, drop: int):
    """The part of a drop every antenna count shares, or None for an empty window.

    Returns the serving distance, the interference per fading sample, the
    active interferer count and the fade stream's state after the
    interference draw, from which ``_drop_sinr`` draws the desired gain.
    """
    net = cfg.network
    geom, act, fade = _drop_streams(cfg.seed, drop)
    r, occupied = _stations(cfg, geom, act)
    if r.size == 0:
        return None

    serving = int(np.argmin(r))
    others = np.delete(np.arange(r.size), serving)
    if occupied is None:
        active_mask = act.random(others.size) < active_probability(net.rho)
    else:
        active_mask = occupied[others]

    # Fading draw order is fixed (interference first, then the desired gain
    # as a sum of per-antenna exponentials) so that runs differing only in
    # the antenna count share interference samples and couple the desired
    # gain monotonically.
    n_fad = cfg.n_fading_per_drop
    weights = net.tx_power * r[others] ** (-net.alpha) * active_mask
    h = fade.exponential(1.0, size=(n_fad, others.size)) if others.size else np.zeros((n_fad, 0))
    interference = h @ weights if others.size else np.zeros(n_fad)
    interference.flags.writeable = False  # the memo hands it to every run it serves
    return r[serving], interference, int(active_mask.sum()), fade.bit_generator.state


def _drop_sinr(cfg: McConfig, shared):
    """One drop's SINR, gain, mean interference and active count at ``cfg``'s antenna count."""
    n_fad = cfg.n_fading_per_drop
    if shared is None:
        nan = np.full(n_fad, np.nan)
        return nan, nan, math.nan, 0
    net = cfg.network
    r_serving, interference, n_active, fade_state = shared
    bits = np.random.Philox(0)
    bits.state = fade_state
    gain = np.random.Generator(bits).exponential(1.0, size=(net.antennas, n_fad)).sum(axis=0)
    signal = net.tx_power * gain * r_serving ** (-net.alpha)
    denom = interference + net.noise_power
    with np.errstate(divide="ignore"):
        sinr = np.where(denom > 0.0, signal / np.where(denom > 0.0, denom, 1.0), np.inf)
    return sinr, gain, float(interference.mean()), n_active


@dataclass(frozen=True)
class _SharedKey:
    """Memo key of a run's shared drops: its config less the antenna count, and its workers.

    ``config`` is a tuple of the fields, not a rebuilt ``McConfig``, whose
    construction would repeat the small-window warning.  ``cfg`` rides along
    uncompared for the computation, which never reads the antenna count.
    The worker count is part of the key so that runs at different worker
    counts still compute their drops independently.
    """

    config: tuple
    workers: int
    cfg: McConfig = field(compare=False)

    @classmethod
    def of(cls, cfg: McConfig) -> "_SharedKey":
        config = (
            cfg.network.with_(antennas=1), cfg.window_radius, cfg.n_drops,
            cfg.n_fading_per_drop, cfg.seed, cfg.activity_model,
        )
        return cls(config, resolve_workers(), cfg)


@lru_cache(maxsize=2)
def _shared_drops(key: _SharedKey) -> list:
    return _map_drops(partial(_drop_interference, key.cfg), key.cfg.n_drops)


def sinr_samples(cfg: McConfig) -> SinrSamples:
    """SINR realizations for every (drop, fading) pair, deterministically."""
    results = [_drop_sinr(cfg, shared) for shared in _shared_drops(_SharedKey.of(cfg))]
    sinr = np.stack([res[0] for res in results])
    gain = np.stack([res[1] for res in results])
    mean_i = np.array([res[2] for res in results])
    n_active = np.array([res[3] for res in results])

    annotations = []
    net = cfg.network
    p_a = active_probability(net.rho)
    if net.alpha > 2.0:
        truncated = (
            2.0 * math.pi * p_a * net.lambda_b * net.tx_power
            * cfg.window_radius ** (2.0 - net.alpha) / (net.alpha - 2.0)
        )
        finite_mean = np.nanmean(mean_i) if np.isfinite(mean_i).any() else 0.0
        if finite_mean > 0.0 and truncated > _TRUNCATION_FRACTION * finite_mean:
            annotations.append(
                "window may truncate the interference tail: expected out-of-window "
                f"power {truncated:.3e} exceeds {_TRUNCATION_FRACTION:g} of the "
                f"simulated mean {finite_mean:.3e}; enlarge window_radius"
            )
    if not np.isfinite(sinr).all():
        annotations.append(
            "some drops produced non-finite SINR (empty window or no active "
            "interferer with zero noise)"
        )
    return SinrSamples(
        sinr=sinr,
        desired_gain=gain,
        mean_interference=mean_i,
        n_active=n_active,
        p_a_used=p_a,
        annotations=tuple(annotations),
    )


def _estimate_from_drop_values(values: np.ndarray, cfg: McConfig, annotations=()) -> McEstimate:
    mean = float(values.mean())
    if values.size >= 2:
        std_error = float(values.std(ddof=1) / math.sqrt(values.size))
    else:
        std_error = math.inf
    return McEstimate(
        mean=mean,
        std_error=std_error,
        n_samples=cfg.n_drops * cfg.n_fading_per_drop,
        seed=cfg.seed,
        n_drops=cfg.n_drops,
        annotations=tuple(annotations),
    )


def outage_from_samples(samples: SinrSamples, threshold: float, cfg: McConfig) -> McEstimate:
    """Empirical P[SINR < threshold] from shared samples."""
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    if threshold <= 0.0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    drop_means = (samples.sinr < threshold).mean(axis=1)
    return _estimate_from_drop_values(drop_means, cfg, samples.annotations)


def simulate_outage(cfg: McConfig, threshold: float) -> McEstimate:
    """Empirical outage probability of the typical user."""
    return outage_from_samples(sinr_samples(cfg), threshold, cfg)


def spectral_efficiency_from_samples(samples: SinrSamples, cfg: McConfig) -> McEstimate:
    """Empirical mean of log2(1 + SINR) in bits/s/Hz."""
    drop_means = np.log2(1.0 + samples.sinr).mean(axis=1)
    return _estimate_from_drop_values(drop_means, cfg, samples.annotations)


def simulate_spectral_efficiency(cfg: McConfig) -> McEstimate:
    return spectral_efficiency_from_samples(sinr_samples(cfg), cfg)


def simulate_desired_gain(cfg: McConfig) -> McEstimate:
    """Mean MRT desired-signal gain; should sit at the antenna count."""
    samples = sinr_samples(cfg)
    drop_means = samples.desired_gain.mean(axis=1)
    return _estimate_from_drop_values(drop_means, cfg, samples.annotations)


def simulate_active_probability(cfg: McConfig) -> McEstimate:
    """Fraction of interior stations whose Voronoi cell holds >= 1 user.

    Stations within one mean cell radius of the window edge are excluded:
    their cells spill outside the window where no users were drawn.
    """
    if cfg.activity_model is not ActivityModel.VORONOI_OCCUPANCY:
        raise ConfigError("activity estimation requires the voronoi-occupancy model")
    net = cfg.network
    guard = 1.0 / math.sqrt(math.pi * net.lambda_b)
    if cfg.window_radius <= guard:
        raise ConfigError(
            f"window radius {cfg.window_radius} leaves no interior once the "
            f"one-cell-radius guard band ({guard:.3g}) is removed"
        )

    def one_drop(drop):
        geom, act, _ = _drop_streams(cfg.seed, drop)
        r, occupied = _stations(cfg, geom, act)
        interior = r <= cfg.window_radius - guard
        # each drop owns its streams, so users drawn for a drop without an
        # interior station leave every other drop's draws unchanged
        return float(occupied[interior].mean()) if interior.any() else math.nan

    values = np.array(_map_drops(one_drop, cfg.n_drops))
    annotations = []
    if np.isnan(values).any():
        kept = values[~np.isnan(values)]
        annotations.append(f"{values.size - kept.size} empty drops skipped")
        values = kept
    if values.size == 0:
        raise ConfigError("every drop came up empty; enlarge the window or densities")
    est = _estimate_from_drop_values(values, cfg, annotations)
    return replace(est, n_drops=int(values.size), n_samples=int(values.size))


@dataclass(frozen=True)
class ActivityGapReport:
    """Outage under true cell occupancy vs independent thinning, paired."""

    threshold: float
    voronoi: McEstimate
    thinning: McEstimate
    gap: McEstimate  # voronoi minus thinning, common random numbers


def activity_gap_report(cfg: McConfig, threshold: float) -> ActivityGapReport:
    """Measure the error the independent-thinning approximation introduces.

    Both activity models run on identical geometry and fading streams (the
    activity substream is the only one consumed differently), so the paired
    per-drop differences isolate the activity correlation effect.
    """
    voronoi_cfg = replace(cfg, activity_model=ActivityModel.VORONOI_OCCUPANCY)
    thinning_cfg = replace(cfg, activity_model=ActivityModel.INDEPENDENT_THINNING)
    s_vor = sinr_samples(voronoi_cfg)
    s_thin = sinr_samples(thinning_cfg)
    vor_drops = (s_vor.sinr < threshold).mean(axis=1)
    thin_drops = (s_thin.sinr < threshold).mean(axis=1)
    return ActivityGapReport(
        threshold=threshold,
        voronoi=_estimate_from_drop_values(vor_drops, voronoi_cfg, s_vor.annotations),
        thinning=_estimate_from_drop_values(thin_drops, thinning_cfg, s_thin.annotations),
        gap=_estimate_from_drop_values(vor_drops - thin_drops, cfg),
    )
