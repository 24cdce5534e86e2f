"""Planner tests: rate inversion, curves, TRS values, doubling scenarios."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trs_planner import coverage, trs
from trs_planner.coverage import MAX_ANTENNAS, ConfigError, LoadModel, NetworkConfig, user_rate
from trs_planner.trs import (
    InfeasibleError,
    Lever,
    ScaleMode,
    TrsValue,
    doubling_scenario,
    indifference_curve,
    log_grid,
    make_operating_point,
    required_antennas,
    required_density,
    required_spectrum,
    trs_spectrum_antennas,
    trs_spectrum_density,
)

SPARSE = dict(lambda_b=10.0, antennas=1, lambda_u=100.0)
DENSE = dict(lambda_b=1000.0, antennas=1, lambda_u=100.0)
# an int too large for a float: math.isfinite and float() raise OverflowError on it
BIG = 10**400


class TestRequiredSpectrum:
    def test_zero_rate(self):
        assert required_spectrum(0.0, **SPARSE) == 0.0

    # OverflowError from math.isfinite
    @pytest.mark.parametrize("field", ["target_rate_mbps", "lambda_b", "lambda_u"])
    def test_quantity_beyond_a_float(self, field):
        args = dict(target_rate_mbps=10.0, **SPARSE) | {field: BIG}
        with pytest.raises(ConfigError) as err:
            required_spectrum(**args)
        name = "target rate" if field == "target_rate_mbps" else field
        assert str(err.value) == f"{name} must be finite, got {BIG}"

    def test_linearity(self):
        w1 = required_spectrum(15.0, **SPARSE)
        w2 = required_spectrum(30.0, **SPARSE)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_roundtrip_through_user_rate(self):
        w = required_spectrum(15.0, **SPARSE)
        cfg = NetworkConfig(lambda_b=10.0, lambda_u=100.0, antennas=1, bandwidth_mhz=w)
        assert user_rate(cfg) == pytest.approx(15.0, rel=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        rate=st.floats(1.0, 200.0),
        lam=st.floats(1.0, 400.0),
        m=st.integers(1, 4),
    )
    def test_roundtrip_property(self, rate, lam, m):
        w = required_spectrum(rate, lam, m, 100.0)
        cfg = NetworkConfig(lambda_b=lam, lambda_u=100.0, antennas=m, bandwidth_mhz=w)
        back = required_spectrum(user_rate(cfg), lam, m, 100.0)
        assert back == pytest.approx(w, rel=1e-8)


class TestRequiredDensity:
    def test_roundtrip_sparse_point(self):
        w = required_spectrum(15.0, **SPARSE)
        lam = required_density(15.0, w, 1, 100.0)
        assert lam == pytest.approx(10.0, rel=1e-9)

    def test_rate_monotone_in_density(self):
        w = 50.0
        rates = [
            user_rate(NetworkConfig(lambda_b=lam, lambda_u=100.0, bandwidth_mhz=w))
            for lam in log_grid(0.5, 5000.0, 12)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_infeasible_demand_detected(self):
        # rate grows ~logarithmically once the share saturates; an absurd
        # demand at tiny bandwidth exhausts the bracket expansion
        with pytest.raises(InfeasibleError):
            required_density(1e9, 1.0, 1, 100.0)

    def test_rate_error_inside_the_root_finder_reaches_the_caller(self, monkeypatch):
        # the demand of lambda_b = 120 brackets the root in [100, 400]; the
        # rate fails at the first density strictly inside, which only the
        # root finder asks for
        held = (1, 100.0, 4.0, LoadModel.MEAN_LOAD)
        target = trs._rate(120.0, 20.0, *held)
        error = coverage.QuadratureError("quadrature failed inside the bracket")
        real = trs.user_rate
        asked = []

        def failing(cfg):
            asked.append(cfg.lambda_b)
            if 100.0 < cfg.lambda_b < 400.0:
                raise error
            return real(cfg)

        monkeypatch.setattr(trs, "user_rate", failing)
        with pytest.raises(coverage.QuadratureError) as raised:
            required_density(target, 20.0, *held)
        assert raised.value is error
        assert asked[:-1] == [100.0, 400.0] and 100.0 < asked[-1] < 400.0


@pytest.fixture
def rate_calls(monkeypatch):
    """Counts the planner's rate evaluations (``trs.user_rate`` calls)."""
    calls = []
    real = trs.user_rate

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(trs, "user_rate", counted)
    return calls


# A density solve's rate evaluations, bracket included; bisection to the
# same tolerance took over 30.
MAX_DENSITY_RATE_EVALS = 16


class TestDensityRootCertificate:
    """Checks on the returned density that hold for any correct root finder:
    the rate crosses the demand within 1e-9 of it, exact roots are found,
    and a solve stays within its evaluation budget."""

    # (lambda_b the demand is scaled from, lambda_u, load model): a shared
    # bandwidth (mean round-robin share about 0.1) and a saturated share of 1
    REGIMES = [(10.0, 100.0, LoadModel.MEAN_LOAD), (1000.0, 100.0, LoadModel.NO_SHARING)]

    @pytest.mark.parametrize("lam0,lambda_u,load_model", REGIMES)
    @pytest.mark.parametrize("antennas", [1, 4])
    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
    def test_rate_crosses_the_demand_at_the_answer(
        self, lam0, lambda_u, load_model, antennas, alpha, rate_calls
    ):
        w = 20.0
        held = (antennas, lambda_u, alpha, load_model)
        target = 1.5 * trs._rate(lam0, w, *held)
        rate_calls.clear()
        lam = required_density(target, w, *held)
        assert len(rate_calls) <= MAX_DENSITY_RATE_EVALS
        below = trs._rate(lam * (1.0 - 1e-9), w, *held)
        above = trs._rate(lam * (1.0 + 1e-9), w, *held)
        assert below < target <= above

    @pytest.mark.parametrize("point,target", [(SPARSE, 15.0), (DENSE, 420.0)])
    def test_usage_doubling_doubles_density(self, point, target, rate_calls):
        # the rate depends on the densities only through rho = lambda_b/lambda_u,
        # so doubling lambda_u at the same demand needs exactly twice lambda_b
        w = required_spectrum(target, **point)
        rate_calls.clear()
        lam = required_density(target, w, 1, 2.0 * point["lambda_u"])
        assert len(rate_calls) <= MAX_DENSITY_RATE_EVALS
        assert lam == pytest.approx(2.0 * point["lambda_b"], rel=1e-9)

    @pytest.mark.parametrize("end", [0.25, 1.0, 4.0])
    def test_demand_met_at_a_bracket_end_returns_that_end(self, end, rate_calls):
        # the bracket's ends are lambda_u times powers of four
        lam = end * 100.0
        target = trs._rate(lam, 20.0, 1, 100.0, 4.0, LoadModel.MEAN_LOAD)
        rate_calls.clear()
        assert required_density(target, 20.0, 1, 100.0) == lam
        assert len(rate_calls) <= 3

    # lambda_b the demand is scaled from: far below lambda_u = 100 (the bottom
    # end shrinks), near it, and far above it (the top end grows)
    @pytest.mark.parametrize("lam0", [1.0, 80.0, 100.0, 30000.0])
    def test_no_density_is_evaluated_twice(self, lam0, rate_calls):
        held = (1, 100.0, 4.0, LoadModel.MEAN_LOAD)
        target = 1.5 * trs._rate(lam0, 20.0, *held)
        rate_calls.clear()
        required_density(target, 20.0, *held)
        densities = [cfg.lambda_b for cfg in rate_calls]
        assert 100.0 in densities
        assert len(set(densities)) == len(densities)


class TestRequiredAntennas:
    def test_single_antenna_suffices(self):
        w = required_spectrum(15.0, **SPARSE)
        assert required_antennas(10.0, w, 10.0, 100.0) == 1

    def test_sparse_rate_doubling_needs_six(self):
        w = required_spectrum(15.0, **SPARSE)
        assert required_antennas(30.0, w, 10.0, 100.0) == 6

    def test_dense_usage_doubling_needs_three(self):
        w = required_spectrum(420.0, **DENSE)
        assert required_antennas(420.0, w, 1000.0, 200.0) == 3

    def test_cap_reached(self):
        w = required_spectrum(15.0, **SPARSE)
        with pytest.raises(InfeasibleError):
            required_antennas(200.0, w, 10.0, 100.0, max_antennas=16)

    def test_never_returns_more_than_the_cap(self):
        # two antennas meet 20 Mbps at the sparse point, one does not
        w = required_spectrum(15.0, **SPARSE)
        assert required_antennas(20.0, w, 10.0, 100.0) == 2
        with pytest.raises(InfeasibleError, match="the 1-antenna search cap"):
            required_antennas(20.0, w, 10.0, 100.0, max_antennas=1)
        assert required_antennas(20.0, w, 10.0, 100.0, max_antennas=2) == 2
        for cap in range(1, 9):
            if cap < 6:
                with pytest.raises(InfeasibleError):
                    required_antennas(30.0, w, 10.0, 100.0, max_antennas=cap)
            else:
                assert required_antennas(30.0, w, 10.0, 100.0, max_antennas=cap) == 6

    @pytest.mark.parametrize("cap", [0, -3, 2.5, math.nan, math.inf, MAX_ANTENNAS + 1, 2048])
    def test_invalid_cap_rejected(self, cap):
        w = required_spectrum(15.0, **SPARSE)
        with pytest.raises(ConfigError, match="max_antennas"):
            required_antennas(20.0, w, 10.0, 100.0, max_antennas=cap)

    def test_dense_rate_doubling_needs_56_from_cold_solutions(self):
        # the search asks M = 1, 2, 4, .., 64, then 48, 56, 52, 54, 55: every count
        # after the first extends or reads a stored solution
        w = required_spectrum(420.0, **DENSE)
        coverage._solutions.cache_clear()
        coverage.mean_log2_sinr.cache_clear()
        assert required_antennas(840.0, w, 1000.0, 100.0) == 56


class TestIndifferenceCurve:
    def test_single_point_reproduces_required_spectrum(self):
        curve = indifference_curve(15.0, 100.0, "w-m", [4], lambda_b=10.0)
        assert curve.samples[0].axis2 == pytest.approx(
            required_spectrum(15.0, 10.0, 4, 100.0), rel=1e-12
        )

    def test_density_curve_monotone_tradeoff(self):
        curve = indifference_curve(15.0, 100.0, "w-density", log_grid(1.0, 30.0, 10), antennas=1)
        ws = [s.axis2 for s in curve.samples]
        assert all(s.feasible for s in curve.samples)
        assert all(b < a for a, b in zip(ws, ws[1:]))

    def test_antenna_curve_monotone_tradeoff(self):
        curve = indifference_curve(15.0, 100.0, "w-m", list(range(1, 9)), lambda_b=10.0)
        ws = [s.axis2 for s in curve.samples]
        assert all(b < a for a, b in zip(ws, ws[1:]))

    def test_curve_points_satisfy_demand(self):
        curve = indifference_curve(15.0, 100.0, "w-density", [2.0, 10.0, 25.0], antennas=1)
        for s in curve.samples:
            cfg = NetworkConfig(lambda_b=s.axis1, lambda_u=100.0, bandwidth_mhz=s.axis2)
            assert user_rate(cfg) == pytest.approx(15.0, rel=1e-9)

    def test_sparse_overlay_coincides(self):
        # doubling the rate and doubling the users need the same spectrum in
        # the sparse regime (1% pointwise)
        grid = log_grid(1.0, 10.0, 6)
        double_rate = indifference_curve(30.0, 100.0, "w-density", grid, antennas=1)
        double_usage = indifference_curve(15.0, 200.0, "w-density", grid, antennas=1)
        for a, b in zip(double_rate.samples, double_usage.samples):
            assert abs(a.axis2 - b.axis2) / a.axis2 <= 0.01

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            indifference_curve(15.0, 100.0, "w-m", [], lambda_b=10.0)
        with pytest.raises(ConfigError):
            indifference_curve(15.0, 100.0, "w-m", [4, 2], lambda_b=10.0)
        with pytest.raises(ConfigError):
            indifference_curve(15.0, 100.0, "w-density", [1.0], antennas=None)
        with pytest.raises(ConfigError):
            indifference_curve(15.0, 100.0, "nope", [1.0], antennas=1)

    # 2.5 and nan raised TypeError from numpy
    @pytest.mark.parametrize("points", [0, -1, 2.5, math.nan])
    def test_log_grid_needs_a_point(self, points):
        with pytest.raises(ConfigError, match="points"):
            log_grid(1.0, 10.0, points)

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 10.0), (10.0, 1.0), (1.0, math.inf), (math.nan, 10.0), (1.0, math.nan), (-math.inf, 10.0),
        pytest.param(1.0, BIG, id="1.0-beyond-float"),  # OverflowError from numpy
    ])
    def test_log_grid_needs_finite_ordered_bounds(self, lo, hi):
        with pytest.raises(ConfigError, match="grid bounds"):
            log_grid(lo, hi, 3)

    # the largest float64 array numpy holds: 2**62 points passed numpy's largest
    # dimension and failed as "array is too big"; 10**400 ended in OverflowError
    @pytest.mark.parametrize(
        "points", [2**62, sys.maxsize + 1, BIG], ids=["2**62", "maxsize+1", "beyond-float"]
    )
    def test_log_grid_points_within_numpy(self, points):
        with pytest.raises(ConfigError) as err:
            log_grid(1.0, 2.0, points)
        assert str(err.value) == f"grid points must be at most {sys.maxsize // 8}, got {points}"

    def test_log_grid_bound_too_long_to_print(self):
        with pytest.raises(ConfigError) as err:
            log_grid(-10**5000, 2.0, 3)
        assert str(err.value) == (
            "grid bounds must satisfy 0 < lo < hi < inf, got (a negative integer of 5001 digits, 2.0)"
        )


class TestTrsValues:
    def test_antenna_trs_positive_and_increasing(self):
        sparse = [
            trs_spectrum_antennas(15.0, 10.0, m, 100.0).magnitude for m in (1, 4, 8, 16)
        ]
        dense = [
            trs_spectrum_antennas(420.0, 1000.0, m, 100.0).magnitude for m in (1, 4, 8, 16)
        ]
        for row in (sparse, dense):
            assert all(v > 0 for v in row)
            assert all(b > a for a, b in zip(row, row[1:]))

    def test_density_trs_policies_consistent_where_smooth(self):
        # at the dense points one station is a small relative step, so the
        # unit-step and derivative policies agree closely
        for lam in (500.0, 1000.0):
            unit = trs_spectrum_density(420.0, lam, 1, 100.0).magnitude
            deriv = trs_spectrum_density(
                420.0, lam, 1, 100.0, policy="central-derivative"
            ).magnitude
            assert unit == pytest.approx(deriv, rel=0.01)

    def test_derivative_matches_curve_secant(self):
        # implicit-function value vs a secant along the traced curve, at
        # every published-table operating point
        points = (
            (15.0, 1.0, 1), (15.0, 5.0, 1), (15.0, 10.0, 1),
            (420.0, 100.0, 1), (420.0, 500.0, 1), (420.0, 1000.0, 1),
        )
        for rate, lam, m in points:
            h = 1e-3 * lam
            w_lo = required_spectrum(rate, lam - h, m, 100.0)
            w_hi = required_spectrum(rate, lam + h, m, 100.0)
            secant = 2.0 * h / (w_lo - w_hi)
            deriv = trs_spectrum_density(rate, lam, m, 100.0, policy="central-derivative").magnitude
            assert deriv == pytest.approx(secant, rel=0.01)

    def test_step_policy_recorded(self):
        v = trs_spectrum_density(15.0, 10.0, 1, 100.0)
        assert v.step_policy == "forward-unit-step dlambda_b=1"
        assert v.units == "lambda_b_per_mhz"
        v2 = trs_spectrum_antennas(15.0, 10.0, 1, 100.0)
        assert v2.step_policy == "forward-unit-step dM=1"

    def test_unknown_policy_rejected(self):
        # checked before any solve, whose cold spectral-efficiency integral would be wasted
        coverage.mean_log2_sinr.cache_clear()
        with pytest.raises(ConfigError, match="unknown TRS step policy 'secant-of-doom'$"):
            trs_spectrum_density(15.0, 10.0, 1, 100.0, policy="secant-of-doom")
        assert coverage.mean_log2_sinr.cache_info().misses == 0

    @pytest.mark.parametrize("lambda_b", [2.0**53, 1e16, 2**60], ids=["2**53", "1e16", "int-2**60"])
    def test_unit_step_beyond_exact_floats_rejected(self, lambda_b):
        # lambda_b + 1.0 == lambda_b here: the unit step would step nowhere and read inf
        coverage.mean_log2_sinr.cache_clear()
        with pytest.raises(ConfigError, match=r"^lambda_b \S+ is too large for a unit step .*"
                                              r"use --step-policy central-derivative$"):
            trs_spectrum_density(10.0, lambda_b, 1, 1e15)
        assert coverage.mean_log2_sinr.cache_info().misses == 0
        v = trs_spectrum_density(10.0, lambda_b, 1, 1e15, policy="central-derivative")
        assert math.isfinite(v.magnitude) and v.magnitude > 0.0

    @pytest.mark.parametrize("lambda_b, lambda_u", [(1e15, 1e15), (2.0**53 - 1, 2.0**53 - 1)],
                             ids=["1e15", "largest-exact"])
    def test_unit_step_within_rounding_rejected(self, lambda_b, lambda_u):
        # W0 - W1 is a few ulps of W0 or negative: the step read inf, or 2**50 at 2**53 - 1
        with pytest.raises(ConfigError, match=r"^lambda_b \S+ is too large for a unit step \(it saves .*"
                                              r"within 1024 ulps of W\); use --step-policy central-derivative$"):
            trs_spectrum_density(10.0, lambda_b, 1, lambda_u)
        v = trs_spectrum_density(10.0, lambda_b, 1, lambda_u, policy="central-derivative")
        assert math.isfinite(v.magnitude) and v.magnitude > 0.0

    def test_unit_step_at_zero_target_saves_nothing(self):
        # W0 = W1 = 0 exactly: no rounding, so no error
        v = trs_spectrum_density(0.0, 10.0, 1, 100.0)
        assert v.is_infinite and v.note == "densifying saves no spectrum here"

    def test_unit_step_at_a_fractional_lambda_b(self):
        # lambda_b + 1.0 crosses 32 and rounds, so the step is 1 + 3.6e-15: still one station
        lambda_b = 31.17298266165653
        assert (lambda_b + 1.0) - lambda_b != 1.0
        v = trs_spectrum_density(15.0, lambda_b, 1, 100.0)
        assert v.step_policy == "forward-unit-step dlambda_b=1"
        assert math.isfinite(v.magnitude) and v.magnitude > 0.0

    def test_names_too_long_to_print(self):
        # repr() refuses an int of more than 4,300 digits, so each message raised ValueError
        with pytest.raises(ConfigError) as err:
            trs_spectrum_density(15.0, 10.0, 1, 100.0, policy=10**5000)
        assert str(err.value) == "unknown TRS step policy an integer of 5001 digits"
        with pytest.raises(ConfigError) as err:
            indifference_curve(15.0, 100.0, -10**5000, [1.0], lambda_b=10.0)
        assert str(err.value) == (
            "unknown curve pair a negative integer of 5001 digits (expected 'w-m' or 'w-density')"
        )

    def test_infinite_value_representation(self):
        v = TrsValue(
            pair="spectrum-density", magnitude=math.inf, units="lambda_b_per_mhz",
            step_policy="forward-unit-step dlambda_b=1", target_rate_mbps=1.0,
            lambda_u=100.0, lambda_b=10.0, antennas=1, bandwidth_mhz=5.0,
            note="densifying saves no spectrum here",
        )
        assert v.is_infinite


class TestDoublingScenario:
    def test_sparse_spectrum_lever_ratio_two(self):
        base = make_operating_point(15.0, 10.0, 1, 100.0)
        for mode in (ScaleMode.DOUBLE_RATE, ScaleMode.DOUBLE_USAGE):
            report = doubling_scenario(base, mode, Lever.SPECTRUM)
            assert report.feasible
            assert report.ratio == pytest.approx(2.0, rel=0.01)

    def test_dense_density_lever_usage_doubling(self):
        base = make_operating_point(420.0, 1000.0, 1, 100.0)
        report = doubling_scenario(base, ScaleMode.DOUBLE_USAGE, Lever.DENSITY)
        assert report.feasible
        assert report.ratio == pytest.approx(2.0, rel=0.01)

    def test_factor_one_is_identity(self):
        base = make_operating_point(15.0, 10.0, 1, 100.0)
        for lever in (Lever.SPECTRUM, Lever.DENSITY, Lever.ANTENNAS):
            report = doubling_scenario(base, ScaleMode.DOUBLE_RATE, lever, factor=1.0)
            assert report.feasible
            assert report.ratio == pytest.approx(1.0, rel=1e-5)

    def test_antenna_lever_sparse_rate_doubling(self):
        base = make_operating_point(15.0, 10.0, 1, 100.0)
        report = doubling_scenario(base, ScaleMode.DOUBLE_RATE, Lever.ANTENNAS)
        assert report.feasible
        assert report.lever_value == 6.0

    def test_dense_usage_doubling_cheaper_than_rate_doubling(self):
        # waking idle stations absorbs extra users, so doubled usage needs
        # strictly less spectrum than doubled per-user rate in dense networks
        w_rate = required_spectrum(840.0, 1000.0, 1, 100.0)
        w_usage = required_spectrum(420.0, 1000.0, 1, 200.0)
        assert w_usage < w_rate

    def test_infeasible_is_a_result_not_an_exception(self):
        base = make_operating_point(15.0, 10.0, 1, 100.0)
        report = doubling_scenario(
            base, ScaleMode.DOUBLE_RATE, Lever.ANTENNAS, factor=20.0, max_antennas=32
        )
        assert not report.feasible
        assert report.lever_value is None
        assert "antenna-infeasible" in report.note

    def test_operating_point_validation(self):
        with pytest.raises(ConfigError):
            make_operating_point(-1.0, 10.0, 1, 100.0)


class TestFrozenBits:
    """Exact answers on the built-in scenarios, recorded before the planner's
    duplicated rate, curve and step code was folded into one path each.

    Rule for a change of numerical method: a pin it breaks becomes a check at
    the solver's certified tolerance against the same recorded value, and is
    never re-recorded to the new bits.  The density pins were recorded from a
    bisection midpoint accurate to about 5e-9, so they compare at 1e-8
    relative; every other pin compares bits."""

    def base_spectrum(self):
        return required_spectrum(15.0, **SPARSE), required_spectrum(420.0, **DENSE)

    def test_required_spectrum(self):
        w_sparse, w_dense = self.base_spectrum()
        assert w_sparse.hex() == "0x1.18671fcd9f3bdp+6"
        assert w_dense.hex() == "0x1.18e72acacb6fcp+6"

    def test_required_density(self):
        w_sparse, w_dense = self.base_spectrum()
        sparse = float.fromhex("0x1.457bfe8f50000p+4")
        dense = float.fromhex("0x1.f3fffffb50000p+10")
        assert required_density(30.0, w_sparse, 1, 100.0) == pytest.approx(sparse, rel=1e-8)
        assert required_density(420.0, w_dense, 1, 200.0) == pytest.approx(dense, rel=1e-8)

    def test_required_antennas(self):
        w_sparse, w_dense = self.base_spectrum()
        assert required_antennas(30.0, w_sparse, 10.0, 100.0) == 6
        assert required_antennas(420.0, w_dense, 1000.0, 200.0) == 3

    def test_antenna_curve(self):
        curve = indifference_curve(15.0, 100.0, "w-m", list(range(1, 9)), lambda_b=10.0)
        assert [s.axis2.hex() for s in curve.samples] == [
            "0x1.18671fcd9f3bdp+6", "0x1.984743f59b9bap+5", "0x1.5c9433318958ap+5",
            "0x1.3acbdc414bf59p+5", "0x1.245e984f046c8p+5", "0x1.1414381e5ef0bp+5",
            "0x1.078a6e95f34f3p+5", "0x1.fafc8d74f8e07p+4",
        ]
        assert all(type(s.axis2) is float for s in curve.samples)
        assert curve.held == {"lambda_b": 10.0, "alpha": 4.0, "load_model": "mean-load"}

    def test_density_curve(self):
        curve = indifference_curve(
            420.0, 100.0, "w-density", log_grid(100.0, 5000.0, 6), antennas=1
        )
        assert [s.axis2.hex() for s in curve.samples] == [
            "0x1.f4b36442845acp+7", "0x1.296e76f3c74f3p+7", "0x1.853d39d509e9dp+6",
            "0x1.13f524d4b64a9p+6", "0x1.a0ee0ebbae329p+5", "0x1.4acd74f00c6f2p+5",
        ]
        # log_grid points are numpy scalars and so is the spectrum there
        assert all(type(s.axis2) is np.float64 for s in curve.samples)
        assert curve.held == {"antennas": 1, "alpha": 4.0, "load_model": "mean-load"}

    def test_trs_values(self):
        assert trs_spectrum_antennas(15.0, 10.0, 1, 100.0).magnitude.hex() == "0x1.adaadb4b4543cp-5"
        assert trs_spectrum_antennas(15.0, 10.0, 4, 100.0).magnitude.hex() == "0x1.6d46e71b439bap-2"
        unit = trs_spectrum_density(420.0, 500.0, 1, 100.0)
        deriv = trs_spectrum_density(420.0, 500.0, 1, 100.0, policy="central-derivative")
        assert unit.magnitude.hex() == "0x1.5daec9a8e1753p+3"
        assert deriv.magnitude.hex() == "0x1.5d12698f1b20cp+3"
        assert unit.bandwidth_mhz.hex() == deriv.bandwidth_mhz.hex() == "0x1.7ceafefbb5680p+6"
