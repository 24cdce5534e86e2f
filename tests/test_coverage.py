"""Analytic model tests: activity, outage, spectral efficiency, user rate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from trs_planner.coverage import (
    ConfigError,
    LoadModel,
    NetworkConfig,
    active_probability,
    mean_load_share,
    outage_probability,
    spectral_efficiency,
    user_rate,
)
from trs_planner.hypergeom import coefficient_table


def scalar_outage(threshold, p_a, alpha):
    """Single-antenna closed form: 1 - 1/(1 + p_a k0)."""
    k0 = coefficient_table(1, threshold, alpha)[0]
    return 1.0 - 1.0 / (1.0 + p_a * k0)


def dense_norm(threshold, p_a, antennas, alpha):
    """L1 induced norm of the inverse via an explicit dense matrix."""
    k = coefficient_table(antennas, threshold, alpha)
    m = antennas
    q = np.zeros((m, m))
    for row in range(m):
        for col in range(row):
            q[row, col] = k[row - col]
    a = (k[0] + 1.0 / p_a) * np.eye(m) - q
    inv = np.linalg.inv(a)
    return np.abs(inv).sum(axis=0).max()


class TestActiveProbability:
    def test_reference_density_ratios(self):
        assert active_probability(0.1) == pytest.approx(0.99113, abs=1e-5)
        assert active_probability(10.0) == pytest.approx(0.09390, abs=1e-5)

    def test_limit_all_active(self):
        assert active_probability(1e-9) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(logr=st.floats(-4.0, 4.0), step=st.floats(0.01, 2.0))
    def test_strictly_decreasing(self, logr, step):
        rho = 10.0**logr
        assert active_probability(rho * (1.0 + step)) < active_probability(rho)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            active_probability(0.0)


# float.hex of outage_probability(T, p_a, M, alpha).p_out as computed when the
# Toeplitz solve read a reversed view of its solution on every row:
# (alpha, T, p_a, M) -> bits.
FROZEN_OUTAGE = {
    (3.0, 0.1, 0.05, 1): "0x1.3cd513a2ae4c0p-7",
    (3.0, 0.1, 0.05, 2): "0x1.488b5c6c32800p-12",
    (3.0, 0.1, 0.05, 8): "0x1.2e1f000000000p-35",
    (3.0, 0.1, 0.05, 64): "0x1.0000000000000p-53",
    (3.0, 0.1, 0.6, 1): "0x1.ad8f9f63c6648p-4",
    (3.0, 0.1, 0.6, 2): "0x1.af04772f523c0p-7",
    (3.0, 0.1, 0.6, 8): "0x1.2ea9659800000p-24",
    (3.0, 0.1, 0.6, 64): "0x0.0p+0",
    (3.0, 10.0, 0.05, 1): "0x1.5b436f8a5fbaap-2",
    (3.0, 10.0, 0.05, 2): "0x1.696c9bf4d1cf0p-3",
    (3.0, 10.0, 0.05, 8): "0x1.afce9ed5fc4e0p-6",
    (3.0, 10.0, 0.05, 64): "0x1.32c82271b8000p-16",
    (3.0, 10.0, 0.6, 1): "0x1.b8780c7efed13p-1",
    (3.0, 10.0, 0.6, 2): "0x1.8bcf56792804cp-1",
    (3.0, 10.0, 0.6, 8): "0x1.e65d071e1633ap-2",
    (3.0, 10.0, 0.6, 64): "0x1.9cb927170cfc0p-7",
    (3.0, 10000.0, 0.05, 1): "0x1.f7078e602944ep-1",
    (3.0, 10000.0, 0.05, 2): "0x1.f1261364ee00fp-1",
    (3.0, 10000.0, 0.05, 8): "0x1.da2c81553f6a6p-1",
    (3.0, 10000.0, 0.05, 64): "0x1.7b25109c9797dp-1",
    (3.0, 10000.0, 0.6, 1): "0x1.ff3d818a9e179p-1",
    (3.0, 10000.0, 0.6, 2): "0x1.febbeb9b81badp-1",
    (3.0, 10000.0, 0.6, 8): "0x1.fcaf18f85e842p-1",
    (3.0, 10000.0, 0.6, 64): "0x1.f2a59c55a435ep-1",
    (4.0, 0.1, 0.05, 1): "0x1.3bd6f93900000p-8",
    (4.0, 0.1, 0.05, 2): "0x1.655d77d7b0000p-13",
    (4.0, 0.1, 0.05, 8): "0x1.71b8000000000p-36",
    (4.0, 0.1, 0.05, 64): "0x0.0p+0",
    (4.0, 0.1, 0.6, 1): "0x1.c1e8a420d0980p-5",
    (4.0, 0.1, 0.6, 2): "0x1.2e0f23d971400p-8",
    (4.0, 0.1, 0.6, 8): "0x1.0b98638000000p-28",
    (4.0, 0.1, 0.6, 64): "0x1.0000000000000p-52",
    (4.0, 10.0, 0.05, 1): "0x1.553ec27398358p-3",
    (4.0, 10.0, 0.05, 2): "0x1.4d73961dbed08p-4",
    (4.0, 10.0, 0.05, 8): "0x1.d23e4108dcd40p-7",
    (4.0, 10.0, 0.05, 64): "0x1.77e3d6d370000p-17",
    (4.0, 10.0, 0.6, 1): "0x1.6960f977f569dp-1",
    (4.0, 10.0, 0.6, 2): "0x1.2823803517066p-1",
    (4.0, 10.0, 0.6, 8): "0x1.0d201e9832b3ep-2",
    (4.0, 10.0, 0.6, 64): "0x1.98859da139800p-10",
    (4.0, 10000.0, 0.05, 1): "0x1.c5d83187c8d1ap-1",
    (4.0, 10000.0, 0.05, 2): "0x1.abe788b7ad719p-1",
    (4.0, 10000.0, 0.05, 8): "0x1.64a4fcbe8d0a9p-1",
    (4.0, 10000.0, 0.05, 64): "0x1.a1ef9d61efc52p-2",
    (4.0, 10000.0, 0.6, 1): "0x1.fa97291e7aaa8p-1",
    (4.0, 10000.0, 0.6, 2): "0x1.f7e5aaec7e382p-1",
    (4.0, 10000.0, 0.6, 8): "0x1.ef1d07799e2c5p-1",
    (4.0, 10000.0, 0.6, 64): "0x1.d07f4c7b1726cp-1",
}


class TestOutage:
    def test_single_antenna_matches_scalar_form(self):
        for t in np.geomspace(1e-3, 1e3, 20):
            for p_a in (0.05, 0.3, 0.7, 1.0):
                got = outage_probability(t, p_a, 1, 4.0).p_out
                assert abs(got - scalar_outage(t, p_a, 4.0)) <= 1e-12

    def test_rayleigh_baseline_value(self):
        got = outage_probability(1.0, 1.0, 1, 4.0).p_out
        assert got == pytest.approx(1.0 - 1.0 / (1.0 + math.pi / 4), rel=1e-12)

    def test_mostly_idle_network_point(self):
        # p_a from the dense density ratio: outage drops to ~0.0687
        got = outage_probability(1.0, 0.0939, 1, 4.0).p_out
        assert got == pytest.approx(0.0687, abs=5e-4)

    def test_vanishing_threshold(self):
        assert outage_probability(1e-12, 0.7, 4, 4.0).p_out == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        antennas=st.integers(2, 32),
        logt=st.floats(-2.0, 2.0),
        p_a=st.floats(0.05, 1.0),
        alpha=st.sampled_from([2.5, 3.0, 4.0, 5.0]),
    )
    def test_recursion_matches_dense_solve(self, antennas, logt, p_a, alpha):
        t = 10.0**logt
        cov = 1.0 - outage_probability(t, p_a, antennas, alpha).p_out
        assert abs(cov - dense_norm(t, p_a, antennas, alpha) / p_a) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        antennas=st.integers(1, 16),
        logt=st.floats(-2.0, 2.0),
        p_a=st.floats(0.05, 1.0),
    )
    def test_monotone_in_antennas(self, antennas, logt, p_a):
        t = 10.0**logt
        more = outage_probability(t, p_a, antennas + 1, 4.0).p_out
        fewer = outage_probability(t, p_a, antennas, 4.0).p_out
        assert more <= fewer + 1e-14

    @settings(max_examples=40, deadline=None)
    @given(
        logt=st.floats(-2.0, 2.0),
        factor=st.floats(1.05, 4.0),
        p_a=st.floats(0.05, 1.0),
        antennas=st.integers(1, 8),
    )
    def test_monotone_in_threshold(self, logt, factor, p_a, antennas):
        t = 10.0**logt
        assert (
            outage_probability(t * factor, p_a, antennas, 4.0).p_out
            >= outage_probability(t, p_a, antennas, 4.0).p_out - 1e-14
        )

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            outage_probability(1.0, 0.0, 1, 4.0)
        with pytest.raises(ConfigError):
            outage_probability(1.0, 1.2, 1, 4.0)
        with pytest.raises(ConfigError):
            outage_probability(-1.0, 0.5, 1, 4.0)

    def test_frozen_bits(self):
        got = {
            (alpha, t, p_a, m): outage_probability(t, p_a, m, alpha).p_out.hex()
            for alpha, t, p_a, m in FROZEN_OUTAGE
        }
        assert got == FROZEN_OUTAGE


class TestSpectralEfficiency:
    def test_rayleigh_baseline_independent_quadrature(self):
        # direct T-domain quadrature of the alpha=4 closed form, no transform
        def integrand(t):
            return 1.0 / ((1.0 + t) * (1.0 + math.sqrt(t) * math.atan(math.sqrt(t))))

        ref = sum(
            quad(integrand, lo, hi, limit=300)[0]
            for lo, hi in ((0.0, 10.0), (10.0, 1e4), (1e4, np.inf))
        ) / math.log(2.0)
        assert spectral_efficiency(1.0, 1, 4.0) == pytest.approx(ref, abs=2e-6)

    def test_increasing_in_antennas(self):
        values = [spectral_efficiency(0.5, m, 4.0) for m in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_decreasing_in_activity(self):
        values = [spectral_efficiency(p, 2, 4.0) for p in (0.1, 0.3, 0.6, 1.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_low_activity_blows_up(self):
        # the integral diverges as p_a -> 0; certify only a loose tolerance here
        assert spectral_efficiency(1e-5, 1, 4.0, abs_tol=1e-3) > 20.0

    def test_unreachable_tolerance_raises(self):
        from trs_planner.coverage import QuadratureError

        with pytest.raises(QuadratureError):
            spectral_efficiency(1e-5, 1, 4.0, abs_tol=1e-9)

    def test_zero_activity_guarded(self):
        with pytest.raises(ConfigError):
            spectral_efficiency(0.0, 1, 4.0)


class TestUserRate:
    sparse = dict(lambda_b=10.0, lambda_u=100.0, antennas=1, alpha=4.0)

    def test_zero_bandwidth(self):
        cfg = NetworkConfig(bandwidth_mhz=0.0, **self.sparse)
        assert user_rate(cfg) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.0, 8.0), w=st.floats(0.5, 200.0))
    def test_homogeneous_in_bandwidth(self, scale, w):
        base = user_rate(NetworkConfig(bandwidth_mhz=w, **self.sparse))
        scaled = user_rate(NetworkConfig(bandwidth_mhz=scale * w, **self.sparse))
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)

    def test_sparse_usage_duality(self):
        # with rho <= 0.1 doubling the users halves the rate to within 1%
        w = 80.0
        base = user_rate(NetworkConfig(bandwidth_mhz=w, **self.sparse))
        doubled = user_rate(
            NetworkConfig(lambda_b=10.0, lambda_u=200.0, antennas=1, alpha=4.0, bandwidth_mhz=w)
        )
        assert abs(doubled - base / 2.0) / (base / 2.0) <= 0.01

    def test_no_sharing_matches_plain_product(self):
        cfg = NetworkConfig(bandwidth_mhz=10.0, load_model=LoadModel.NO_SHARING, **self.sparse)
        p_a = active_probability(cfg.rho)
        expected = 10.0 * spectral_efficiency(p_a, 1, 4.0)
        assert user_rate(cfg) == pytest.approx(expected, rel=1e-12)
        assert mean_load_share(cfg, p_a) == 1.0

    def test_share_caps_at_one(self):
        # Eq-3 activity keeps p_a*rho < 1, so the cap needs an explicit p_a
        cfg = NetworkConfig(lambda_b=5000.0, lambda_u=10.0, bandwidth_mhz=1.0)
        assert mean_load_share(cfg, p_a=1.0) == 1.0
        assert mean_load_share(cfg, active_probability(cfg.rho)) < 1.0

    def test_noise_rejected_on_analytic_path(self):
        cfg = NetworkConfig(bandwidth_mhz=10.0, noise_power=0.1, **self.sparse)
        with pytest.raises(ConfigError):
            user_rate(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(lambda_b=0.0, lambda_u=100.0)
        with pytest.raises(ConfigError):
            NetworkConfig(lambda_b=10.0, lambda_u=100.0, alpha=2.0)
        with pytest.raises(ConfigError):
            NetworkConfig(lambda_b=10.0, lambda_u=100.0, antennas=0)
        with pytest.raises(ConfigError):
            NetworkConfig(lambda_b=10.0, lambda_u=100.0, bandwidth_mhz=-1.0)
