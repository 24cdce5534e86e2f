"""Analytic model tests: activity, outage, spectral efficiency, user rate."""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from trs_planner import coverage
from trs_planner.coverage import (
    MAX_ANTENNAS,
    ConfigError,
    LoadModel,
    NetworkConfig,
    QuadratureError,
    active_probability,
    mean_load_share,
    outage_probability,
    spectral_efficiency,
    user_rate,
)
from trs_planner.hypergeom import coeff_k, coefficient_table

# an int too large for a float: math.isfinite and float() raise OverflowError on it
BIG = 10**400
# an int too long for str(), which prints at most 4,300 digits by default
HUGE = 10**5000


def scalar_outage(threshold, p_a, alpha):
    """Single-antenna closed form: 1 - 1/(1 + p_a k0)."""
    k0 = coefficient_table(1, [threshold], alpha)[0][0]
    return 1.0 - 1.0 / (1.0 + p_a * k0)


def dense_norm(threshold, p_a, antennas, alpha):
    """L1 induced norm of the inverse via an explicit dense matrix."""
    k = coefficient_table(antennas, [threshold], alpha)[0]
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

    # nan returned nan, inf and 1e16 returned 0.0, so a rate exited 2 blaming an
    # active probability the user never set
    @pytest.mark.parametrize("rho, rule", [
        (math.nan, "must be finite"), (math.inf, "must be finite"), (BIG, "must be finite"),
        (2.0**53 / 3.5, "must be below"), (1e16, "must be below"), (1e30, "must be below"),
    ], ids=["nan", "inf", "beyond-float", "bound", "1e16", "1e30"])
    def test_rejects_a_ratio_without_positive_activity(self, rho, rule):
        with pytest.raises(ConfigError) as err:
            active_probability(rho)
        assert str(err.value).startswith(f"density ratio lambda_b/lambda_u {rule}")

    @pytest.mark.parametrize("lambda_b", [1e16, 1e30])
    def test_rate_names_the_ratio(self, lambda_b):
        with pytest.raises(ConfigError, match="density ratio lambda_b/lambda_u must be below"):
            user_rate(NetworkConfig(lambda_b=lambda_b, lambda_u=1.0, bandwidth_mhz=1.0))

    def test_keeps_the_formula_below_the_bound(self):
        for rho in (1e-3, 1.0, 1e8, 1e15, 2.5e15):
            assert active_probability(rho) == 1.0 - (1.0 + 1.0 / (3.5 * rho)) ** -3.5 > 0.0


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

    def test_outage_is_a_python_float(self):
        # the coefficient tables are float64 arrays; a numpy scalar here would
        # print as np.float64(...) in the validate CSV
        coverage._solutions.cache_clear()
        for m in (1, 3, 2):  # one antenna, a cold solve, a stored prefix
            assert type(outage_probability(2.0, 0.5, m, 4.0).p_out) is float, m


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
        with pytest.raises(QuadratureError):
            spectral_efficiency(1e-5, 1, 4.0, abs_tol=1e-9)

    def test_zero_activity_guarded(self):
        with pytest.raises(ConfigError):
            spectral_efficiency(0.0, 1, 4.0)

    def test_node_rounding_to_one_is_a_quadrature_error(self):
        # at high alpha and low activity QAGS subdivides next to u = 1 until
        # a node rounds to 1.0, where T = u/(1-u) is infinite
        p_a = active_probability(150.0)
        with pytest.raises(QuadratureError, match=r"u = 1 .*p_a=0\.0066.*M=8, alpha=6\.4"):
            coverage.mean_log2_sinr(p_a, 8, 6.4)


# float.hex of spectral_efficiency(p_a, M, alpha), each computed cold before the
# Toeplitz solutions were reused across antenna counts: (p_a, M, alpha) -> bits.
FROZEN_SE = {
    (0.3, 1, 4.0): "0x1.fbc937b4e667fp+1",
    (0.3, 2, 4.0): "0x1.44076ce066031p+2",
    (0.3, 3, 4.0): "0x1.6c09450561b14p+2",
    (0.3, 4, 4.0): "0x1.87f96734175afp+2",
    (0.3, 5, 4.0): "0x1.9d6df77b4790cp+2",
    (0.3, 6, 4.0): "0x1.aed78f66d96ddp+2",
    (0.3, 7, 4.0): "0x1.bd7e34b4c0774p+2",
    (0.3, 8, 4.0): "0x1.ca235f76d2ab9p+2",
    (0.3, 9, 4.0): "0x1.d542b1369165cp+2",
    (0.3, 10, 4.0): "0x1.df2ff3ab2d6f4p+2",
    (0.3, 11, 4.0): "0x1.e8268d961ee11p+2",
    (0.3, 12, 4.0): "0x1.f05222d6acb36p+2",
    (0.3, 13, 4.0): "0x1.f7d3b3b40c89bp+2",
    (0.3, 14, 4.0): "0x1.fec4cf8db846ep+2",
    (0.3, 15, 4.0): "0x1.029cd4bb0b66fp+3",
    (0.3, 16, 4.0): "0x1.05a13f6adb068p+3",
    (0.3, 48, 4.0): "0x1.38ba96804c057p+3",
    (0.3, 56, 4.0): "0x1.3fdf6c988e6d3p+3",
    (0.3, 64, 4.0): "0x1.460ed32269986p+3",
    (0.9, 1, 3.5): "0x1.d208f6a924de3p+0",
    (0.9, 2, 3.5): "0x1.488da9a39c88cp+1",
    (0.9, 8, 3.5): "0x1.13d0233bcab77p+2",
    (0.9, 16, 3.5): "0x1.5059ef565e967p+2",
    (0.9, 56, 3.5): "0x1.c15636e4879dep+2",
    (0.9, 64, 3.5): "0x1.cd86ba168f959p+2",
}


def se_bits(p_a, antennas, alpha):
    """float.hex of the SE, computed past the SE memo (the stored solutions stay)."""
    coverage.mean_log2_sinr.cache_clear()
    return spectral_efficiency(p_a, antennas, alpha).hex()


class TestSolutionReuse:
    """Toeplitz solutions reused across antenna counts keep every bit of a cold solve."""

    def test_cold_values_keep_bits(self):
        got = {}
        for p_a, m, alpha in FROZEN_SE:
            coverage._solutions.cache_clear()
            got[p_a, m, alpha] = se_bits(p_a, m, alpha)
        assert got == FROZEN_SE

    @pytest.mark.parametrize(
        "counts",
        [list(range(1, 17)), list(range(16, 0, -1)), [64, 48, 56]],
        ids=["ascending", "descending", "64-48-56"],
    )
    def test_any_order_keeps_cold_bits(self, counts):
        coverage._solutions.cache_clear()
        got = [se_bits(0.3, m, 4.0) for m in counts]
        assert got == [FROZEN_SE[0.3, m, 4.0] for m in counts]

    def test_stored_solutions_are_read_only_and_bounded(self):
        coverage._solutions.cache_clear()
        maxsize = coverage._solutions.cache_info().maxsize
        assert maxsize is not None
        for p_a in np.linspace(0.1, 1.0, maxsize + 3):
            for m in (2, 5, 3):
                outage_probability(2.0, float(p_a), m, 4.0)
            assert coverage._solutions.cache_info().currsize <= maxsize
        group = coverage._solutions(1.0, 4.0)
        assert len(group[2.0]) == 5
        with pytest.raises(ValueError, match="read-only"):
            group[2.0][0] = 0.0

    def test_one_antenna_leaves_the_store_alone(self):
        coverage._solutions.cache_clear()
        se_bits(0.45, 1, 4.0)
        assert coverage._solutions.cache_info().currsize == 0

    def test_concurrent_callers_get_cold_bits(self):
        # one group more than the store holds, so groups are dropped while in use
        n_groups = coverage._solutions.cache_info().maxsize + 1
        groups = [(float(p_a), 4.0) for p_a in np.linspace(0.2, 1.0, n_groups)]
        jobs = [(t, p_a, m, alpha) for p_a, alpha in groups for t in (0.05, 1.0, 30.0)
                for m in (2, 7, 16, 33)] * 3
        random.Random(7).shuffle(jobs)

        def bits(job):
            return outage_probability(*job).p_out.hex()

        cold = {}
        for job in set(jobs):
            coverage._solutions.cache_clear()
            cold[job] = bits(job)
        coverage._solutions.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(bits, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [cold[job] for job in jobs]

    @pytest.mark.parametrize(
        "args, kind, message",
        [
            ((0.5, 0, 4.0), ConfigError, "antennas must be an integer >= 1, got 0"),
            ((0.5, 1.5, 4.0), ConfigError, "antennas must be an integer >= 1, got 1.5"),
            # a bare ValueError reading "path-loss exponent must exceed 2" before
            # every input rule had one check
            ((0.5, 1, 2.0), ConfigError, "alpha must exceed 2, got 2.0"),
            # an OverflowError from math.isfinite
            ((0.5, 1, BIG), ConfigError, f"alpha must be finite, got {BIG}"),
        ],
        ids=["zero-antennas", "fractional-antennas", "alpha-2", "alpha-beyond-float"],
    )
    def test_bad_input_raises_as_before(self, monkeypatch, args, kind, message):
        # the type and message that came from inside the quadrature before the
        # inputs were checked once per integral; now no node is evaluated
        def no_node(*_):
            raise AssertionError("a quadrature node was evaluated")

        monkeypatch.setattr(coverage, "coefficient_table", no_node)
        with pytest.raises(kind) as err:
            spectral_efficiency(*args)
        assert type(err.value) is kind and str(err.value) == message


# float.hex of spectral_efficiency(p_a, M, alpha) at alpha != 4, each computed
# cold before a quadrature interval's nodes were evaluated as one batch.
FROZEN_SE_OTHER_ALPHA = {
    (0.7, 1, 3.0): "0x1.8bdb14811c460p+0",
    (0.7, 3, 3.0): "0x1.5939c6b937fa2p+1",
    (0.7, 17, 3.0): "0x1.3bdd90b1fe994p+2",
    (0.25, 1, 5.5): "0x1.a42011fbd3770p+2",
    (0.25, 3, 5.5): "0x1.0f6a715e1ce1ep+3",
    (0.25, 17, 5.5): "0x1.6410486069ca1p+3",
    (0.95, 1, 2.5): "0x1.8dbd1d36bb213p-1",
    (0.95, 3, 2.5): "0x1.88d7ecd87ad62p+0",
    (0.95, 17, 2.5): "0x1.af33732bbead9p+1",
}


@pytest.fixture
def counted_quadrature(monkeypatch):
    """Per SE integral: quad's own node count, integrand calls and batch sizes."""
    record = {"neval": 0, "calls": 0, "batches": []}
    p_outs = coverage._p_outs

    def counted_quad(f, *args, **kwargs):
        def g(u):
            record["calls"] += 1
            return f(u)

        result = quad(g, *args, **kwargs)
        record["neval"] += result[2]["neval"]
        return result

    def counted_p_outs(thresholds, *args):
        record["batches"].append(len(thresholds))
        return p_outs(thresholds, *args)

    # mean_log2_sinr imports quad when it runs, so it reads the patched attribute
    monkeypatch.setattr("scipy.integrate.quad", counted_quad)
    monkeypatch.setattr(coverage, "_p_outs", counted_p_outs)
    return record


class TestIntervalBatches:
    """Each QUADPACK interval's 21 nodes are evaluated as one batch, bit for bit."""

    @pytest.mark.parametrize("key", sorted(FROZEN_SE_OTHER_ALPHA))
    def test_cold_values_keep_bits(self, key):
        coverage._solutions.cache_clear()
        assert se_bits(*key) == FROZEN_SE_OTHER_ALPHA[key]

    @pytest.mark.parametrize("antennas", [1, 3])
    def test_one_batch_per_interval(self, counted_quadrature, antennas):
        # fails if the quadrature stops asking for each interval's centre
        # first, or computes its nodes another way
        coverage._solutions.cache_clear()
        se_bits(0.7, antennas, 3.0)
        batches = counted_quadrature["batches"]
        assert batches and set(batches) == {21}
        assert counted_quadrature["calls"] == counted_quadrature["neval"] == 21 * len(batches)

    @pytest.mark.parametrize("mode", ["scalar", "mispredicted"])
    def test_other_node_sets_keep_bits(self, monkeypatch, mode):
        interval_nodes = coverage._interval_nodes

        def halved(u):
            # the nodes of an interval half as wide: only the centre is asked for
            nodes = interval_nodes(u)
            return [u] + [u + (x - u) * 0.5 for x in nodes[1:]]

        monkeypatch.setattr(coverage, "_interval_nodes", (lambda u: [u]) if mode == "scalar" else halved)
        for key in [(0.7, 1, 3.0), (0.25, 3, 5.5), (0.95, 17, 2.5)]:
            coverage._solutions.cache_clear()
            assert se_bits(*key) == FROZEN_SE_OTHER_ALPHA[key], key

    def test_interval_nodes(self):
        assert coverage._interval_nodes(0.3) == [0.3]
        assert coverage._interval_nodes(1.0 / 3.0) == [1.0 / 3.0]
        nodes = coverage._interval_nodes(0.375)  # centre of [1/4, 1/2]
        assert len(nodes) == 21 and nodes[0] == 0.375
        assert max(nodes) < 0.5 and min(nodes) > 0.25
        assert nodes[1] == 0.375 - 0.125 * coverage._XGK[0]


class TestAntennaCap:
    def test_config(self):
        assert NetworkConfig(lambda_b=10.0, lambda_u=100.0, antennas=MAX_ANTENNAS).antennas == 1024
        with pytest.raises(ConfigError, match="antennas must be at most 1024, got 1025"):
            NetworkConfig(lambda_b=10.0, lambda_u=100.0, antennas=MAX_ANTENNAS + 1)

    def test_outage(self):
        assert 0.0 <= outage_probability(1.0, 0.5, MAX_ANTENNAS, 4.0).p_out <= 1.0
        with pytest.raises(ConfigError, match="antennas must be at most 1024"):
            outage_probability(1.0, 0.5, MAX_ANTENNAS + 1, 4.0)

    def test_spectral_efficiency(self):
        with pytest.raises(ConfigError, match="antennas must be at most 1024, got 2048"):
            spectral_efficiency(0.5, 2048, 4.0)


class TestUserRate:
    sparse = dict(lambda_b=10.0, lambda_u=100.0, antennas=1, alpha=4.0)

    def test_zero_bandwidth(self):
        cfg = NetworkConfig(bandwidth_mhz=0.0, **self.sparse)
        assert user_rate(cfg) == 0.0
        # -0.0 was stored and gave a rate of -0.0
        cfg = NetworkConfig(bandwidth_mhz=-0.0, **self.sparse)
        assert math.copysign(1.0, cfg.bandwidth_mhz) == math.copysign(1.0, user_rate(cfg)) == 1.0
        assert math.copysign(1.0, cfg.with_(bandwidth_mhz=-0.0).bandwidth_mhz) == 1.0
        # any other bandwidth keeps its value and type
        assert type(NetworkConfig(bandwidth_mhz=20, **self.sparse).bandwidth_mhz) is int

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


class TestOneCheckPerRule:
    """Each input rule has one check, so every entry point raises ConfigError with its text.

    A bad exponent or threshold reached the coefficient layer's own checks,
    which raised a bare ValueError reading "path-loss exponent must exceed 2".
    """

    ENTRY_POINTS = {
        "outage_probability": lambda threshold, alpha: outage_probability(threshold, 0.5, 2, alpha),
        "coeff_k": lambda threshold, alpha: coeff_k(1, threshold, alpha),
        "coefficient_table": lambda threshold, alpha: coefficient_table(2, [threshold], alpha),
        "coefficient_table-list": lambda threshold, alpha: coefficient_table(2, [1.0, threshold], alpha),
    }

    @pytest.mark.parametrize("alpha, message", [
        (2.0, "alpha must exceed 2, got 2.0"),
        (-1.0, "alpha must exceed 2, got -1.0"),
        (math.nan, "alpha must be finite, got nan"),
        (math.inf, "alpha must be finite, got inf"),
        (BIG, f"alpha must be finite, got {BIG}"),  # OverflowError
    ], ids=["2", "-1", "nan", "inf", "beyond-float"])
    @pytest.mark.parametrize("entry", [*ENTRY_POINTS, "spectral_efficiency"])
    def test_bad_alpha(self, entry, alpha, message):
        with pytest.raises(ConfigError) as err:
            if entry == "spectral_efficiency":
                spectral_efficiency(0.5, 2, alpha)
            else:
                self.ENTRY_POINTS[entry](1.0, alpha)
        assert str(err.value) == message
        # NetworkConfig names the exponent in the same words
        with pytest.raises(ConfigError) as err:
            NetworkConfig(lambda_b=10.0, lambda_u=100.0, alpha=alpha)
        assert str(err.value) == message

    @pytest.mark.parametrize("threshold, message", [
        (0.0, "threshold must be positive, got 0.0"),
        (-1.0, "threshold must be positive, got -1.0"),
        (math.nan, "threshold must be finite, got nan"),
        (math.inf, "threshold must be finite, got inf"),
        (BIG, f"threshold must be finite, got {BIG}"),  # OverflowError
    ], ids=["0", "-1", "nan", "inf", "beyond-float"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bad_threshold(self, entry, threshold, message):
        with pytest.raises(ConfigError) as err:
            self.ENTRY_POINTS[entry](threshold, 4.0)
        assert str(err.value) == message

    @pytest.mark.parametrize("p_a", [0.0, -0.5, 1.5, math.nan])
    def test_bad_activity_reads_alike(self, p_a):
        with pytest.raises(ConfigError) as outage:
            outage_probability(1.0, p_a, 1, 4.0)
        with pytest.raises(ConfigError) as se:
            spectral_efficiency(p_a, 1, 4.0)
        assert str(outage.value) == str(se.value)
        assert str(se.value).startswith(f"active probability must lie in (0, 1], got {p_a}")

    @pytest.mark.parametrize("field", ["lambda_b", "lambda_u", "bandwidth_mhz", "noise_power", "tx_power"])
    def test_network_quantity_beyond_a_float(self, field):
        # each raised OverflowError from math.isfinite
        fields = dict(lambda_b=10.0, lambda_u=100.0) | {field: BIG}
        with pytest.raises(ConfigError) as err:
            NetworkConfig(**fields)
        assert str(err.value) == f"{field} must be finite, got {BIG}"

    @pytest.mark.parametrize("fields, message", [
        (dict(lambda_b=HUGE), "lambda_b must be finite, got an integer of 5001 digits"),
        (dict(lambda_u=-HUGE), "lambda_u must be finite, got a negative integer of 5001 digits"),
        (dict(antennas=HUGE), "antennas must be at most 1024, got an integer of 5001 digits"),
        (dict(antennas=-HUGE), "antennas must be an integer >= 1, got a negative integer of 5001 digits"),
        (dict(alpha=-HUGE), "alpha must exceed 2, got a negative integer of 5001 digits"),
        (dict(load_model=HUGE), "load_model must be a LoadModel, got an integer of 5001 digits"),
    ], ids=["lambda_b", "negative-lambda_u", "antennas", "negative-antennas", "negative-alpha",
            "load_model"])
    def test_quantity_too_long_to_print(self, fields, message):
        # str() and repr() refuse an int of more than 4,300 digits, so the message raised ValueError
        with pytest.raises(ConfigError) as err:
            NetworkConfig(**dict(lambda_b=10.0, lambda_u=100.0) | fields)
        assert str(err.value) == message

    def test_load_model_shown_by_repr(self):
        with pytest.raises(ConfigError) as err:
            NetworkConfig(1.0, 1.0, load_model="mean-load")
        assert str(err.value) == "load_model must be a LoadModel, got 'mean-load'"

    def test_activity_too_long_to_print(self):
        with pytest.raises(ConfigError) as err:
            outage_probability(1.0, HUGE, 1, 4.0)
        assert str(err.value) == "active probability must lie in (0, 1], got an integer of 5001 digits"
