"""Simulator tests: determinism, estimator correctness, analytic agreement."""

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from trs_planner import montecarlo
from trs_planner.coverage import ConfigError, NetworkConfig, active_probability, outage_probability
from trs_planner.montecarlo import (
    ActivityModel,
    McConfig,
    activity_gap_report,
    outage_from_samples,
    recommended_window,
    resolve_workers,
    simulate_active_probability,
    simulate_outage,
    simulate_spectral_efficiency,
    sinr_samples,
)


# an int too large for a float: math.isfinite and float() raise OverflowError on it
BIG = 10**400


def make_cfg(lambda_b=10.0, lambda_u=100.0, antennas=1, n_drops=200, n_fading=100,
             seed=42, window_factor=20.0, model=ActivityModel.INDEPENDENT_THINNING):
    net = NetworkConfig(lambda_b=lambda_b, lambda_u=lambda_u, antennas=antennas, alpha=4.0)
    return McConfig(
        network=net,
        window_radius=recommended_window(lambda_b, window_factor),
        n_drops=n_drops,
        n_fading_per_drop=n_fading,
        seed=seed,
        activity_model=model,
    )


class TestDeterminism:
    def test_bit_identical_same_seed(self):
        cfg = make_cfg(n_drops=40, n_fading=30)
        a = simulate_outage(cfg, 1.0)
        b = simulate_outage(cfg, 1.0)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_bit_identical_across_worker_counts(self, monkeypatch):
        cfg = make_cfg(n_drops=40, n_fading=30)
        monkeypatch.setenv("TRS_PLANNER_THREADS", "1")
        a = simulate_outage(cfg, 1.0)
        monkeypatch.setenv("TRS_PLANNER_THREADS", "4")
        b = simulate_outage(cfg, 1.0)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_env_var_worker_cap(self, monkeypatch):
        cfg = make_cfg(n_drops=25, n_fading=20)
        monkeypatch.setenv("TRS_PLANNER_THREADS", "1")
        base = simulate_outage(cfg, 1.0)
        monkeypatch.setenv("TRS_PLANNER_THREADS", "3")
        assert resolve_workers() == 3
        via_env = simulate_outage(cfg, 1.0)
        assert via_env.mean == base.mean

    def test_bad_env_var(self, monkeypatch):
        monkeypatch.setenv("TRS_PLANNER_THREADS", "lots")
        with pytest.raises(ConfigError):
            resolve_workers()

    def test_seed_changes_estimate(self):
        a = simulate_outage(make_cfg(n_drops=40, n_fading=30, seed=1), 1.0)
        b = simulate_outage(make_cfg(n_drops=40, n_fading=30, seed=2), 1.0)
        assert a.mean != b.mean


class TestActivityEstimation:
    def test_matches_formula_sparse(self):
        cfg = make_cfg(n_drops=300, n_fading=1, seed=99, model=ActivityModel.VORONOI_OCCUPANCY)
        est = simulate_active_probability(cfg)
        assert abs(est.mean - active_probability(0.1)) <= 3.0 * est.std_error

    def test_matches_formula_dense(self):
        cfg = make_cfg(lambda_b=1000.0, n_drops=300, n_fading=1, seed=99,
                       model=ActivityModel.VORONOI_OCCUPANCY)
        est = simulate_active_probability(cfg)
        assert abs(est.mean - active_probability(10.0)) <= 3.0 * est.std_error

    def test_saturates_with_many_users(self):
        cfg = make_cfg(lambda_b=10.0, lambda_u=10000.0, n_drops=4, n_fading=1,
                       seed=3, window_factor=8.0, model=ActivityModel.VORONOI_OCCUPANCY)
        est = simulate_active_probability(cfg)
        assert est.mean > 0.999

    def test_requires_voronoi_model(self):
        cfg = make_cfg(n_drops=2, n_fading=1)
        with pytest.raises(ConfigError):
            simulate_active_probability(cfg)

    def test_degenerate_window_rejected(self):
        net = NetworkConfig(lambda_b=10.0, lambda_u=100.0)
        with pytest.warns(UserWarning):
            cfg = McConfig(
                network=net,
                window_radius=0.5 / math.sqrt(math.pi * 10.0),
                n_drops=2,
                n_fading_per_drop=1,
                seed=0,
                activity_model=ActivityModel.VORONOI_OCCUPANCY,
            )
        with pytest.raises(ConfigError):
            simulate_active_probability(cfg)


class TestOutage:
    def test_full_interference_rayleigh_point(self):
        # rho = 1e-6 puts p_a at 1.0 in double precision
        cfg = make_cfg(lambda_b=10.0, lambda_u=1e7, n_drops=250, n_fading=100, seed=11)
        est = simulate_outage(cfg, 1.0)
        expected = 1.0 - 1.0 / (1.0 + math.pi / 4.0)
        assert abs(est.mean - expected) <= max(3.0 * est.std_error, 0.01)

    def test_vanishing_threshold(self):
        cfg = make_cfg(n_drops=30, n_fading=20)
        assert simulate_outage(cfg, 1e-9).mean == 0.0

    def test_agrees_with_analytic_multiantenna(self):
        cfg = make_cfg(lambda_b=100.0, antennas=4, n_drops=300, n_fading=100, seed=17)
        est = simulate_outage(cfg, 1.0)
        expected = outage_probability(1.0, active_probability(1.0), 4, 4.0).p_out
        assert abs(est.mean - expected) <= max(3.0 * est.std_error, 0.01)

    def test_shared_samples_give_consistent_thresholds(self):
        cfg = make_cfg(n_drops=50, n_fading=40)
        samples = sinr_samples(cfg)
        lo = outage_from_samples(samples, 0.1, cfg)
        hi = outage_from_samples(samples, 10.0, cfg)
        assert lo.mean <= hi.mean
        assert lo.n_samples == 50 * 40

    def test_edge_effect_under_control(self):
        a = simulate_outage(make_cfg(n_drops=250, n_fading=60, seed=5, window_factor=20.0), 1.0)
        b = simulate_outage(make_cfg(n_drops=250, n_fading=60, seed=6, window_factor=40.0), 1.0)
        assert abs(a.mean - b.mean) <= 2.0 * math.hypot(a.std_error, b.std_error)

    def test_small_window_annotated(self):
        with pytest.warns(UserWarning):
            cfg = make_cfg(n_drops=10, n_fading=5, window_factor=1.5)
        est = simulate_outage(cfg, 1.0)
        assert any("truncate" in note for note in est.annotations)


class TestFadingModel:
    def test_desired_gain_mean_is_antenna_count(self):
        # Noise far above the interference makes a sample's SINR its drop's path gain
        # over the noise times the desired gain, so a drop's mean SINR at M antennas over
        # its mean at M = 1 reads the Gamma(M, 1) mean.  The two runs share the drop's
        # path gain and the first antenna's draws S (a Gamma(n, 1) sum over n fading
        # samples); E[1/S] = 1/(n - 1) makes the ratio's expectation 1 + (M - 1) n/(n - 1).
        n = 60

        def drop_mean_sinr(m):
            cfg = make_cfg(lambda_b=100.0, antennas=m, n_drops=150, n_fading=n, seed=23)
            return sinr_samples(replace(cfg, network=cfg.network.with_(noise_power=1e9))).sinr.mean(axis=1)

        one = drop_mean_sinr(1)
        for m in (2, 4):
            ratios = drop_mean_sinr(m) / one
            std_error = ratios.std(ddof=1) / math.sqrt(ratios.size)
            assert abs(ratios.mean() - (1 + (m - 1) * n / (n - 1))) <= 3.0 * std_error

    def test_more_antennas_help_samplewise(self):
        # identical interference stream and coupled desired gains
        one = simulate_spectral_efficiency(make_cfg(antennas=1, n_drops=60, n_fading=40, seed=31))
        two = simulate_spectral_efficiency(make_cfg(antennas=2, n_drops=60, n_fading=40, seed=31))
        assert two.mean > one.mean


class TestActivityGap:
    def test_vanishes_when_everything_is_active(self):
        cfg = make_cfg(lambda_b=1.0, lambda_u=1000.0, n_drops=60, n_fading=40,
                       seed=8, window_factor=10.0)
        report = activity_gap_report(cfg, 1.0)
        assert abs(report.gap.mean) <= max(3.0 * report.gap.std_error, 0.005)

    def test_reports_paired_estimates(self):
        cfg = make_cfg(lambda_b=1000.0, n_drops=80, n_fading=60, seed=13)
        report = activity_gap_report(cfg, 1.0)
        assert report.voronoi.n_drops == report.thinning.n_drops == 80
        assert math.isfinite(report.gap.std_error)
        # paired differencing must be tighter than independent comparison
        independent = math.hypot(report.voronoi.std_error, report.thinning.std_error)
        assert report.gap.std_error <= independent


def full_scan_occupancy(cfg, drop):
    """A drop's station radii and occupancy from querying every user at once."""
    geom, act, _ = montecarlo._drop_streams(cfg.seed, drop)
    radius = cfg.window_radius
    n_bs = geom.poisson(cfg.expected_stations)
    r = radius * np.sqrt(geom.random(n_bs))
    theta = 2.0 * math.pi * geom.random(n_bs)
    n_users = act.poisson(cfg.expected_users)
    u_r = radius * np.sqrt(act.random(n_users))
    u_theta = 2.0 * math.pi * act.random(n_users)
    xy = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    users = np.column_stack((u_r * np.cos(u_theta), u_r * np.sin(u_theta)))
    occupied = np.zeros(n_bs, dtype=bool)
    occupied[cKDTree(xy).query(users)[1]] = True
    return r, occupied, n_users, act.random(4)


class TestOccupancyEarlyExit:
    """Scanning users in chunks until every station is occupied gives the full query's answer."""

    @pytest.mark.parametrize(
        "kw, saturates",
        [
            (dict(lambda_b=1.0, lambda_u=1000.0, window_factor=10.0, seed=8), True),
            (dict(lambda_b=10.0, lambda_u=100.0, seed=3), False),
        ],
        ids=["saturating", "stations-left-empty"],
    )
    def test_matches_full_query(self, monkeypatch, kw, saturates):
        cfg = make_cfg(model=ActivityModel.VORONOI_OCCUPANCY, n_drops=4, **kw)
        queried = []

        class CountingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                queried.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "cKDTree", CountingTree)
        for drop in range(cfg.n_drops):
            queried.clear()
            geom, act, _ = montecarlo._drop_streams(cfg.seed, drop)
            r, occupied = montecarlo._stations(cfg, geom, act)
            full_r, full_occupied, n_users, next_draws = full_scan_occupancy(cfg, drop)
            assert n_users > 2 * montecarlo._USER_CHUNK
            assert np.array_equal(r, full_r) and np.array_equal(occupied, full_occupied)
            assert np.array_equal(act.random(4), next_draws)  # later draws are unchanged
            assert occupied.all() == saturates
            assert (sum(queried) < n_users) == saturates


class TestConfigValidation:
    def test_bad_fields(self):
        net = NetworkConfig(lambda_b=10.0, lambda_u=100.0)
        with pytest.raises(ConfigError):
            McConfig(network=net, window_radius=0.0, n_drops=2, n_fading_per_drop=1, seed=0)
        with pytest.raises(ConfigError):
            McConfig(network=net, window_radius=5.0, n_drops=0, n_fading_per_drop=1, seed=0)
        with pytest.raises(ConfigError):
            McConfig(network=net, window_radius=5.0, n_drops=2, n_fading_per_drop=0, seed=0)
        with pytest.raises(ConfigError):
            McConfig(network=net, window_radius=5.0, n_drops=2, n_fading_per_drop=1, seed=-1)

    # numpy's largest dimension: a larger fading count failed in sinr_samples, and a
    # larger drop count queued drops without end; only construction runs here
    @pytest.mark.parametrize("name", ["n_drops", "n_fading_per_drop"])
    @pytest.mark.parametrize("count", [sys.maxsize + 1, BIG], ids=["maxsize+1", "beyond-float"])
    def test_sample_counts_within_numpy(self, name, count):
        counts = dict(n_drops=2, n_fading_per_drop=1) | {name: count}
        net = NetworkConfig(lambda_b=10.0, lambda_u=100.0)
        with pytest.raises(ConfigError) as err:
            McConfig(network=net, window_radius=5.0, seed=0, **counts)
        assert str(err.value) == f"{name} must be at most {sys.maxsize}, got {count}"
        McConfig(network=net, window_radius=5.0, seed=0, **counts | {name: sys.maxsize})

    def test_one_drop_rejected(self):
        # a drop-level standard error needs two drops; one drop would report it as inf
        net = NetworkConfig(lambda_b=10.0, lambda_u=100.0)
        with pytest.raises(ConfigError, match="n_drops must be an integer >= 2, got 1"):
            McConfig(network=net, window_radius=recommended_window(10.0), n_drops=1,
                     n_fading_per_drop=10, seed=0)

    def test_whole_number_float_counts(self, monkeypatch):
        # the analytic path takes antennas=2.0, so the simulator must too, with the int bits
        monkeypatch.setenv("TRS_PLANNER_THREADS", "1")

        def digest(num):
            net = NetworkConfig(lambda_b=10.0, lambda_u=30.0, antennas=num(2), alpha=4.0)
            cfg = McConfig(network=net, window_radius=recommended_window(10.0), n_drops=num(4),
                           n_fading_per_drop=num(3), seed=num(5))
            assert all(type(n) is int for n in (cfg.n_drops, cfg.n_fading_per_drop, cfg.seed))
            montecarlo._shared_drops.cache_clear()
            return _digest(sinr_samples(cfg))

        assert digest(float) == digest(int)

    def test_noise_accepted_here(self):
        net = NetworkConfig(lambda_b=10.0, lambda_u=100.0, noise_power=0.01)
        cfg = McConfig(network=net, window_radius=recommended_window(10.0),
                       n_drops=20, n_fading_per_drop=10, seed=1)
        noisy = simulate_outage(cfg, 1.0)
        quiet_net = NetworkConfig(lambda_b=10.0, lambda_u=100.0)
        quiet = simulate_outage(
            McConfig(network=quiet_net, window_radius=recommended_window(10.0),
                     n_drops=20, n_fading_per_drop=10, seed=1),
            1.0,
        )
        assert noisy.mean >= quiet.mean


# The digests below hash the SINR array alone.  Each was re-derived at commit a7d21ae,
# where the same runs also reproduced the earlier digests over the SINR, the desired
# gains, the mean interference and the active counts, which were recorded as each
# comment says; so no SINR bit moved when those three arrays left SinrSamples.
def _digest(samples):
    return hashlib.sha256(np.ascontiguousarray(samples.sinr).tobytes()).hexdigest()


@pytest.mark.filterwarnings("ignore:window holds only")
class TestFrozenBits:
    """Exact values recorded before the drop kernels were shared; a refactor
    of the simulator must reproduce every bit at any worker count."""

    def voronoi_cfg(self, **kw):
        base = dict(lambda_u=30.0, antennas=2, n_drops=16, n_fading=8, seed=2024,
                    model=ActivityModel.VORONOI_OCCUPANCY)
        base.update(kw)
        return make_cfg(**base)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_active_probability(self, monkeypatch, threads):
        monkeypatch.setenv("TRS_PLANNER_THREADS", str(threads))
        est = simulate_active_probability(self.voronoi_cfg())
        assert est.mean.hex() == "0x1.c56e7215dc03ep-1"
        assert est.std_error.hex() == "0x1.d6ccfc2592b72p-9"
        assert est.n_drops == 16 and est.annotations == ()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_active_probability_with_empty_drops(self, monkeypatch, threads):
        monkeypatch.setenv("TRS_PLANNER_THREADS", str(threads))
        cfg = self.voronoi_cfg(n_drops=24, seed=7, window_factor=1.5)
        est = simulate_active_probability(cfg)
        assert est.mean.hex() == "0x1.dd75d75d75d75p-1"
        assert est.std_error.hex() == "0x1.08e511fe87370p-5"
        assert est.n_drops == 21 and est.annotations == ("3 empty drops skipped",)

    @pytest.mark.parametrize(
        "kw, digest, p_out",
        [
            ({}, "21ab9038639050f3081857db7fc4f1ee200906ea7f63e81aa25d68b51749f2bb",
             "0x1.5800000000000p-2"),
            (dict(n_drops=24, seed=7, window_factor=1.5),
             "3103ef2f595006290b99419ed1f689167970d56999b9720b9a913c5ff1cc73d9",
             "0x1.aaaaaaaaaaaabp-4"),
            (dict(model=ActivityModel.INDEPENDENT_THINNING),
             "0263f32045ea8524f2afb96f26c93f3d22fd7c988ed565a2104a1c4436e0fd63", None),
        ],
        ids=["voronoi", "voronoi-small-window", "thinning"],
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sinr_samples(self, monkeypatch, threads, kw, digest, p_out):
        monkeypatch.setenv("TRS_PLANNER_THREADS", str(threads))
        cfg = self.voronoi_cfg(**kw)
        samples = sinr_samples(cfg)
        assert _digest(samples) == digest
        if p_out is not None:
            assert outage_from_samples(samples, 1.0, cfg).mean.hex() == p_out

    # recorded (over four arrays) before the SINR of all drops was formed as one batch
    @pytest.mark.parametrize(
        "kw, noise_power, digest, non_finite",
        [
            ({}, 50.0, "d1bc3aeaf0de36adb63e6dc33753f0440b3ec6ec3f96fb09546eda75fbc6b44b", False),
            (dict(model=ActivityModel.INDEPENDENT_THINNING), 50.0,
             "ce806d772bdddd12ba8c12ce5d4418b2333e4346d40d31c8262f02c54c9cb313", False),
            # 5 single-station and 5 empty drops of 16: inf rows and NaN rows
            (dict(window_factor=0.8), 0.0,
             "4cb36910ff337a7bf5586e5b81e53de35adf6c7f38329a017cffd8502eba0c01", True),
            (dict(window_factor=0.8, model=ActivityModel.INDEPENDENT_THINNING), 0.0,
             "6c2dd7b726e1128a5a2ae209616d6bff499afc61bbe9d14242677f9c715227b5", True),
        ],
        ids=["voronoi-noise", "thinning-noise", "voronoi-lone-station", "thinning-lone-station"],
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sinr_branches(self, monkeypatch, threads, kw, noise_power, digest, non_finite):
        monkeypatch.setenv("TRS_PLANNER_THREADS", str(threads))
        cfg = self.voronoi_cfg(**kw)
        cfg = replace(cfg, network=cfg.network.with_(noise_power=noise_power))
        montecarlo._shared_drops.cache_clear()
        samples = sinr_samples(cfg)
        assert _digest(samples) == digest
        assert np.isinf(samples.sinr).all(axis=1).sum() == np.isnan(samples.sinr).all(axis=1).sum() == (
            5 if non_finite else 0
        )
        assert any("non-finite SINR" in note for note in samples.annotations) == non_finite


class TestNonFiniteConfig:
    @pytest.mark.parametrize("radius", [math.nan, math.inf, pytest.param(BIG, id="beyond-float")])
    def test_window_radius(self, radius):
        net = NetworkConfig(lambda_b=10.0, lambda_u=100.0)
        with pytest.raises(ConfigError, match="window_radius must be finite"):
            McConfig(network=net, window_radius=radius, n_drops=2, n_fading_per_drop=1, seed=0)

    # ZeroDivisionError, "math domain error", nan, OverflowError and 0.0 before
    @pytest.mark.parametrize("lambda_b, factor, message", [
        (0, 20.0, "lambda_b must be positive, got 0"),
        (-1, 20.0, "lambda_b must be positive, got -1"),
        (10.0, math.nan, "window factor must be finite, got nan"),
        (BIG, 20.0, f"lambda_b must be finite, got {BIG}"),
        (10.0, 0.0, "window factor must be positive, got 0.0"),
    ], ids=["zero-density", "negative-density", "nan-factor", "density-beyond-float", "zero-factor"])
    def test_recommended_window(self, lambda_b, factor, message):
        with pytest.raises(ConfigError) as err:
            recommended_window(lambda_b, factor)
        assert str(err.value) == message

    def test_expected_station_count_overflow(self):
        net = NetworkConfig(lambda_b=1e308, lambda_u=1e308)
        with pytest.raises(ConfigError, match="expected_stations"):
            McConfig(network=net, window_radius=recommended_window(1e308), n_drops=2,
                     n_fading_per_drop=1, seed=0)
        # a window whose square overflows a float raised OverflowError
        with pytest.raises(ConfigError, match="expected_stations"):
            McConfig(network=NetworkConfig(lambda_b=10.0, lambda_u=100.0), window_radius=1e200,
                     n_drops=2, n_fading_per_drop=1, seed=0)

    def test_expected_user_count_overflow(self):
        net = NetworkConfig(lambda_b=1e8, lambda_u=1e308)
        window = recommended_window(1e8)
        with pytest.raises(ConfigError, match="expected_users"):
            McConfig(network=net, window_radius=window, n_drops=2, n_fading_per_drop=1, seed=0,
                     activity_model=ActivityModel.VORONOI_OCCUPANCY)
        # independent thinning draws no users, so the same numbers stand
        McConfig(network=net, window_radius=window, n_drops=2, n_fading_per_drop=1, seed=0)
        # a window whose square overflows a float raised OverflowError; the
        # station count, checked first, is then as infinite as the user count
        with pytest.raises(ConfigError, match="expected_stations"):
            McConfig(network=net, window_radius=1e200, n_drops=2, n_fading_per_drop=1, seed=0,
                     activity_model=ActivityModel.VORONOI_OCCUPANCY)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["n_drops", "n_fading_per_drop", "seed"])
    def test_counts(self, name, value):
        net = NetworkConfig(lambda_b=10.0, lambda_u=100.0)
        counts = dict(n_drops=2, n_fading_per_drop=1, seed=0) | {name: value}
        with pytest.raises(ConfigError, match=f"{name} must be"):
            McConfig(network=net, window_radius=5.0, **counts)

    @pytest.mark.parametrize(
        "threshold, message",
        [(math.nan, "finite"), (math.inf, "finite"), (-1.0, "positive"), (0.0, "positive")],
    )
    def test_gap_report_threshold(self, threshold, message):
        cfg = make_cfg(n_drops=4, n_fading=2, seed=1)
        montecarlo._shared_drops.cache_clear()
        with pytest.raises(ConfigError, match=f"threshold must be {message}"):
            activity_gap_report(cfg, threshold)
        # rejected before any drop is computed
        assert montecarlo._shared_drops.cache_info().misses == 0

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_threshold(self, threshold):
        cfg = make_cfg(n_drops=2, n_fading=2)
        samples = sinr_samples(cfg)
        with pytest.raises(ConfigError, match="threshold must be finite"):
            outage_from_samples(samples, threshold, cfg)
        with pytest.raises(ConfigError, match="threshold must be finite"):
            outage_probability(threshold, 0.5, 2, 4.0)


# sha256 of sinr_samples (over four arrays) recorded before drops were shared across
# antenna counts, then re-derived over the SINR alone as _digest says
COLD_DIGESTS = {
    (ActivityModel.VORONOI_OCCUPANCY, 1): "2a7dae3cdef50e5040a3c3f82bac00b71a8cb0151a0ec5fceccd52c32311c124",
    (ActivityModel.VORONOI_OCCUPANCY, 2): "21ab9038639050f3081857db7fc4f1ee200906ea7f63e81aa25d68b51749f2bb",
    (ActivityModel.VORONOI_OCCUPANCY, 4): "2981da264699f06cfb6f6104a31177246a3fd083cb0d79df6917609c837e728b",
    (ActivityModel.VORONOI_OCCUPANCY, 8): "2f00236bf849ed6bb813d4fd56499b8a888ebcd3f66a9facee1ecb2220f7ca2c",
    (ActivityModel.INDEPENDENT_THINNING, 1): "d1b98799fb439698ce423bcaa19a0775905bb724ce5f3b5171ccde4528a2cb5d",
    (ActivityModel.INDEPENDENT_THINNING, 2): "0263f32045ea8524f2afb96f26c93f3d22fd7c988ed565a2104a1c4436e0fd63",
    (ActivityModel.INDEPENDENT_THINNING, 4): "45750c84f94efbfb798b379690329cbd2f3f07f98f321f60e844be533a7c78fe",
    (ActivityModel.INDEPENDENT_THINNING, 8): "03ed44ef665315fb8674fa353fcf7021064503b66d8a0d9a4507761adbfc480b",
}

# (mean, std_error) hex of the voronoi, thinning and gap estimates, recorded the same way
COLD_GAPS = {
    0.3: [("0x1.1111111111111p-6", "0x1.7033f90087124p-7"),
          ("0x1.1111111111111p-6", "0x1.7033f90087124p-7"),
          ("0x0.0p+0", "0x1.9358a0689a616p-7")],
    1.0: [("0x1.1111111111111p-4", "0x1.7033f90087125p-6"),
          ("0x1.7777777777778p-4", "0x1.136254bfd1e04p-5"),
          ("-0x1.9999999999998p-6", "0x1.f31d8e7817ef3p-6")],
    3.0: [("0x1.4444444444445p-3", "0x1.99151ecf59590p-5"),
          ("0x1.bbbbbbbbbbbbdp-3", "0x1.cc40f740a8d6dp-5"),
          ("-0x1.ddddddddddde0p-5", "0x1.1640f6ad2faefp-4")],
}


def _gap_bits(report):
    return [(e.mean.hex(), e.std_error.hex()) for e in (report.voronoi, report.thinning, report.gap)]


@pytest.mark.filterwarnings("ignore:window holds only")
class TestSharedDrops:
    """Runs that differ only in antenna count or threshold reuse one drop set, bit for bit."""

    @staticmethod
    def cfg(model, antennas=1, seed=2024):
        return make_cfg(lambda_u=30.0, antennas=antennas, n_drops=16, n_fading=8, seed=seed,
                        model=model)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model", list(ActivityModel), ids=lambda m: m.value)
    def test_antenna_counts_in_sequence_match_cold_runs(self, monkeypatch, model, threads):
        monkeypatch.setenv("TRS_PLANNER_THREADS", str(threads))
        counts = (1, 2, 4, 8)
        montecarlo._shared_drops.cache_clear()
        shared = [_digest(sinr_samples(self.cfg(model, m))) for m in counts]
        assert montecarlo._shared_drops.cache_info().hits == len(counts) - 1
        cold = []
        for m in counts:
            montecarlo._shared_drops.cache_clear()
            cold.append(_digest(sinr_samples(self.cfg(model, m))))
        assert shared == cold == [COLD_DIGESTS[model, m] for m in counts]

    def test_activity_gap_thresholds_match_cold_runs(self, monkeypatch):
        monkeypatch.setenv("TRS_PLANNER_THREADS", "2")
        cfg = make_cfg(lambda_b=100.0, lambda_u=30.0, n_drops=12, n_fading=10, seed=5)
        montecarlo._shared_drops.cache_clear()
        shared = {t: _gap_bits(activity_gap_report(cfg, t)) for t in COLD_GAPS}
        # the first threshold computes the Voronoi drops and their thinning twins, the rest reuse them
        assert montecarlo._shared_drops.cache_info().hits == len(COLD_GAPS) - 1
        cold = {}
        for t in COLD_GAPS:
            montecarlo._shared_drops.cache_clear()
            cold[t] = _gap_bits(activity_gap_report(cfg, t))
        assert shared == cold == COLD_GAPS

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "kw, annotations",
        [({}, ()), (dict(n_drops=24, seed=7, window_factor=1.5), ("3 empty drops skipped",))],
        ids=["frozen", "empty-drops"],
    )
    def test_active_probability_reuses_gap_drops(self, monkeypatch, threads, kw, annotations):
        # the TestFrozenBits configs; the gap report computes the Voronoi twin's drops
        monkeypatch.setenv("TRS_PLANNER_THREADS", str(threads))
        cfg = make_cfg(**(dict(lambda_u=30.0, antennas=2, n_drops=16, n_fading=8, seed=2024) | kw))
        voronoi = replace(cfg, activity_model=ActivityModel.VORONOI_OCCUPANCY)

        def bits(est):
            return est.mean.hex(), est.std_error.hex(), est.n_drops, est.annotations

        montecarlo._shared_drops.cache_clear()
        activity_gap_report(cfg, 1.0)
        before = montecarlo._shared_drops.cache_info()
        shared = bits(simulate_active_probability(voronoi))
        after = montecarlo._shared_drops.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        montecarlo._shared_drops.cache_clear()
        assert shared == bits(simulate_active_probability(voronoi))
        assert shared[3] == annotations

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "kw, digest",
        [({}, COLD_DIGESTS[ActivityModel.INDEPENDENT_THINNING, 2]),
         (dict(n_drops=24, seed=7, window_factor=1.5), None)],
        ids=["frozen", "empty-drops"],
    )
    def test_gap_thinning_twin_matches_cold_run(self, monkeypatch, threads, kw, digest):
        # the TestFrozenBits Voronoi configs; the second has 3 empty drops
        monkeypatch.setenv("TRS_PLANNER_THREADS", str(threads))
        cfg = make_cfg(**(dict(lambda_u=30.0, antennas=2, n_drops=16, n_fading=8, seed=2024) | kw))
        thinning = replace(cfg, activity_model=ActivityModel.INDEPENDENT_THINNING)
        built = {}
        real = montecarlo._samples

        def spy(cfg, drops):
            built[cfg.activity_model] = real(cfg, drops)
            return built[cfg.activity_model]

        monkeypatch.setattr(montecarlo, "_samples", spy)
        montecarlo._shared_drops.cache_clear()
        report = activity_gap_report(cfg, 1.0)
        info = montecarlo._shared_drops.cache_info()
        assert (info.hits, info.misses) == (0, 1)  # one memo entry serves both models
        twin = built[ActivityModel.INDEPENDENT_THINNING]

        montecarlo._shared_drops.cache_clear()
        cold = sinr_samples(thinning)
        assert _digest(twin) == _digest(cold)
        assert digest is None or _digest(cold) == digest
        assert twin.annotations == cold.annotations
        cold_est = outage_from_samples(cold, 1.0, thinning)
        assert (report.thinning.mean.hex(), report.thinning.std_error.hex()) == (
            cold_est.mean.hex(), cold_est.std_error.hex()
        )
        assert report.thinning == cold_est

    def test_other_worker_count_recomputes(self, monkeypatch):
        calls = []
        real = montecarlo._drop_interference

        def counted(cfg, drop):
            calls.append(drop)
            return real(cfg, drop)

        monkeypatch.setattr(montecarlo, "_drop_interference", counted)
        montecarlo._shared_drops.cache_clear()
        model = ActivityModel.INDEPENDENT_THINNING
        monkeypatch.setenv("TRS_PLANNER_THREADS", "1")
        one = sinr_samples(self.cfg(model))
        assert len(calls) == 16
        sinr_samples(self.cfg(model, antennas=4))
        assert len(calls) == 16
        monkeypatch.setenv("TRS_PLANNER_THREADS", "4")
        four = sinr_samples(self.cfg(model))
        assert len(calls) == 32
        assert _digest(one) == _digest(four)

    def test_memo_stays_within_its_maxsize(self, monkeypatch):
        monkeypatch.setenv("TRS_PLANNER_THREADS", "1")
        montecarlo._shared_drops.cache_clear()
        maxsize = montecarlo._shared_drops.cache_info().maxsize
        assert maxsize is not None
        for seed in range(maxsize + 3):
            for model in ActivityModel:
                sinr_samples(self.cfg(model, seed=seed))
                assert montecarlo._shared_drops.cache_info().currsize <= maxsize

    def test_concurrent_callers_get_cold_bits(self, monkeypatch):
        # two seeds and two models keep four memo keys, twice the memo's size, in flight
        monkeypatch.setenv("TRS_PLANNER_THREADS", "2")
        seeds = (2024, 2025)
        jobs = [(model, m, seed) for model in ActivityModel for m in (1, 2, 4, 8)
                for seed in seeds] * 3

        def digest(job):
            model, m, seed = job
            return _digest(sinr_samples(self.cfg(model, m, seed)))

        cold = {}
        for job in set(jobs):
            montecarlo._shared_drops.cache_clear()
            cold[job] = digest(job)
        assert {(model, m): cold[model, m, seeds[0]] for model, m in COLD_DIGESTS} == COLD_DIGESTS

        montecarlo._shared_drops.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(digest, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [cold[job] for job in jobs]
