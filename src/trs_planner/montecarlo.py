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
count, or another threshold, then restores each drop's state into the call's
one Philox, draws its desired gains (the very stream a cold run would draw)
and forms the SINR of all drops as one batch, with the same bits.  A Voronoi
drop also carries its thinning twin (same streams, one more matrix-vector
product), so ``activity_gap_report`` reads both models from one entry, and
``simulate_active_probability`` reads its occupied fractions from that entry
too; a cold call of the latter also draws the fading and the twin.
"""

from __future__ import annotations

import enum
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np
from scipy.spatial import cKDTree

from .coverage import NetworkConfig, active_probability
from .hypergeom import ConfigError, _check_count, _check_positive

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
        _check_positive(self.window_radius, "window_radius")
        # a drop-level standard error needs two drops; numpy sizes and ranges need ints,
        # and sample counts no larger than numpy's largest dimension
        for name, least, most in (
            ("n_drops", 2, sys.maxsize), ("n_fading_per_drop", 1, sys.maxsize), ("seed", 0, None),
        ):
            _check_count(getattr(self, name), name, least, most)
            object.__setattr__(self, name, int(getattr(self, name)))
        try:
            expected_bs = self.expected_stations
        except OverflowError:  # window_radius**2 beyond a float; expected_users would be too
            expected_bs = math.inf
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
    _check_positive(lambda_b, "lambda_b")
    _check_positive(factor, "window factor")
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
    _check_count(workers, THREADS_ENV_VAR, 0)
    return workers or min(os.cpu_count() or 1, 8)


def _guard_band(net: NetworkConfig) -> float:
    """One mean cell radius: stations this close to the window edge have cells spilling out."""
    return 1.0 / math.sqrt(math.pi * net.lambda_b)


def _drop_streams(seed: int, drop: int):
    """Independent geometry/activity/fading generators for one drop."""
    children = np.random.SeedSequence(entropy=[int(seed), int(drop)]).spawn(3)
    return tuple(np.random.Generator(np.random.Philox(child)) for child in children)


@dataclass
class SinrSamples:
    """SINR realizations and the window-truncation and non-finite notes on them."""

    sinr: np.ndarray  # (n_drops, n_fading_per_drop); NaN rows for empty windows
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


def _drop_interference(cfg: McConfig, drop: int) -> dict:
    """The part of a drop every antenna count shares, keyed by activity model.

    Each value is None for an empty window, or the tuple ``(r_serving,
    interference, mean, state, fraction)``: the serving distance, the
    read-only interference per fading sample and its mean (for the
    window-truncation note), the fade stream's state after the interference
    draw (the desired gains are drawn from it) and the occupied fraction of
    interior stations (NaN under thinning or with none).
    A Voronoi drop also carries its thinning twin: the drop a thinning config
    computes, whose activity comes from a fresh activity stream.
    """
    net = cfg.network
    thinning = ActivityModel.INDEPENDENT_THINNING
    geom, act, fade = _drop_streams(cfg.seed, drop)
    r, occupied = _stations(cfg, geom, act)
    if r.size == 0:
        return dict.fromkeys((cfg.activity_model, thinning))
    interior = r <= cfg.window_radius - _guard_band(net)
    fraction = math.nan if occupied is None or not interior.any() else float(occupied[interior].mean())

    serving = int(np.argmin(r))
    others = np.delete(np.arange(r.size), serving)
    p_a = active_probability(net.rho)
    if occupied is None:
        active_mask = act.random(others.size) < p_a
    else:
        active_mask = occupied[others]

    # Fading draw order is fixed (interference first, then the desired gain
    # as a sum of per-antenna exponentials) so that runs differing only in
    # the antenna count share interference samples and couple the desired
    # gain monotonically.
    n_fad = cfg.n_fading_per_drop
    weights = net.tx_power * r[others] ** (-net.alpha) * active_mask
    h = fade.exponential(1.0, size=(n_fad, others.size)) if others.size else np.zeros((n_fad, 0))
    state = fade.bit_generator.state

    def summary(weights, fraction):
        interference = h @ weights if others.size else np.zeros(n_fad)
        interference.flags.writeable = False  # the memo hands it to every run it serves
        return r[serving], interference, float(interference.mean()), state, fraction

    drops = {cfg.activity_model: summary(weights, fraction)}
    if occupied is not None:
        twin_mask = _drop_streams(cfg.seed, drop)[1].random(others.size) < p_a
        drops[thinning] = summary(net.tx_power * r[others] ** (-net.alpha) * twin_mask, math.nan)
    return drops


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
    return _samples(cfg, _shared_drops(_SharedKey.of(cfg)))


def _samples(cfg: McConfig, drops: list) -> SinrSamples:
    """``sinr_samples`` from a memo entry, read under ``cfg``'s activity model."""
    net = cfg.network
    n_fad = cfg.n_fading_per_drop
    # one generator per call, never per module: concurrent callers restore their own states
    fade = np.random.Generator(np.random.Philox(0))
    gain = np.full((len(drops), n_fad), np.nan)
    interference = np.full_like(gain, np.nan)
    path_gain = np.full(len(drops), np.nan)
    mean_i = np.full(len(drops), np.nan)
    for d, shared in enumerate(drop[cfg.activity_model] for drop in drops):
        if shared is None:
            continue
        r_serving, interference[d], mean_i[d], state, _ = shared
        fade.bit_generator.state = state
        gain[d] = fade.exponential(1.0, size=(int(net.antennas), n_fad)).sum(axis=0)
        # a scalar power: numpy's array power differs from it in the last bit of some elements
        path_gain[d] = r_serving ** (-net.alpha)
    # denom is never negative, and NaN in an empty drop's row, which stays NaN
    denom = interference + net.noise_power
    silent = denom == 0.0
    sinr = np.where(silent, np.inf, net.tx_power * gain * path_gain[:, None] / np.where(silent, 1.0, denom))

    annotations = []
    if net.alpha > 2.0:
        truncated = (
            2.0 * math.pi * active_probability(net.rho) * net.lambda_b * net.tx_power
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
    return SinrSamples(sinr=sinr, annotations=tuple(annotations))


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
    _check_positive(threshold, "threshold")
    drop_means = (samples.sinr < threshold).mean(axis=1)
    return _estimate_from_drop_values(drop_means, cfg, samples.annotations)


def simulate_outage(cfg: McConfig, threshold: float) -> McEstimate:
    """Empirical outage probability of the typical user."""
    return outage_from_samples(sinr_samples(cfg), threshold, cfg)


def simulate_spectral_efficiency(cfg: McConfig) -> McEstimate:
    """Empirical mean of log2(1 + SINR) in bits/s/Hz."""
    samples = sinr_samples(cfg)
    drop_means = np.log2(1.0 + samples.sinr).mean(axis=1)
    return _estimate_from_drop_values(drop_means, cfg, samples.annotations)


def simulate_active_probability(cfg: McConfig) -> McEstimate:
    """Fraction of interior stations whose Voronoi cell holds >= 1 user.

    Stations within one mean cell radius of the window edge are excluded:
    their cells spill outside the window where no users were drawn.  The
    fractions come from the shared drops, so a cold call also draws their fading.
    """
    if cfg.activity_model is not ActivityModel.VORONOI_OCCUPANCY:
        raise ConfigError("activity estimation requires the voronoi-occupancy model")
    guard = _guard_band(cfg.network)
    if cfg.window_radius <= guard:
        raise ConfigError(
            f"window radius {cfg.window_radius} leaves no interior once the "
            f"one-cell-radius guard band ({guard:.3g}) is removed"
        )
    drops = [d[cfg.activity_model] for d in _shared_drops(_SharedKey.of(cfg))]
    values = np.array([math.nan if d is None else d[-1] for d in drops])
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
    _check_positive(threshold, "threshold")
    voronoi_cfg = replace(cfg, activity_model=ActivityModel.VORONOI_OCCUPANCY)
    thinning_cfg = replace(cfg, activity_model=ActivityModel.INDEPENDENT_THINNING)
    drops = _shared_drops(_SharedKey.of(voronoi_cfg))  # each drop carries its thinning twin
    s_vor = _samples(voronoi_cfg, drops)
    s_thin = _samples(thinning_cfg, drops)
    vor_drops = (s_vor.sinr < threshold).mean(axis=1)
    thin_drops = (s_thin.sinr < threshold).mean(axis=1)
    return ActivityGapReport(
        threshold=threshold,
        voronoi=_estimate_from_drop_values(vor_drops, voronoi_cfg, s_vor.annotations),
        thinning=_estimate_from_drop_values(thin_drops, thinning_cfg, s_thin.annotations),
        gap=_estimate_from_drop_values(vor_drops - thin_drops, cfg),
    )
