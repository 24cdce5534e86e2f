"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances and runtime budgets are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from trs_planner import cli
from trs_planner.coverage import (
    NetworkConfig,
    active_probability,
    outage_probability,
    spectral_efficiency,
    user_rate,
)
from trs_planner.hypergeom import coeff_k, coefficient_table
from trs_planner.montecarlo import (
    ActivityModel,
    McConfig,
    recommended_window,
    simulate_spectral_efficiency,
)
from trs_planner.trs import (
    Lever,
    ScaleMode,
    doubling_scenario,
    indifference_curve,
    log_grid,
    make_operating_point,
    required_antennas,
    trs_spectrum_antennas,
    trs_spectrum_density,
)

LN2 = math.log(2.0)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_special_function_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for t in np.geomspace(1e-3, 1e4, 200):
        expected = math.sqrt(t) * math.atan(math.sqrt(t))
        err = abs(coeff_k(0, t, 4.0) - expected) / max(1.0, expected)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, ok, f"max rel err {worst:.2e} (<=1e-10), {elapsed:.2f}s (<1s)")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_outage_closed_forms():
    start = time.perf_counter()
    worst_scalar = 0.0
    for t in np.geomspace(1e-3, 1e3, 25):
        for p_a in (0.05, 0.2, 0.5, 0.8, 1.0):
            closed = 1.0 - 1.0 / (1.0 + p_a * coeff_k(0, t, 4.0))
            got = outage_probability(t, p_a, 1, 4.0).p_out
            worst_scalar = max(worst_scalar, abs(got - closed))

    worst_dense = 0.0
    for m in (2, 4, 8, 16, 32):
        for t in (0.1, 1.0, 10.0, 100.0):
            for p_a in (0.1, 0.5, 1.0):
                k = coefficient_table(m, t, 4.0)
                q = np.zeros((m, m))
                for row in range(m):
                    for col in range(row):
                        q[row, col] = k[row - col]
                a = (k[0] + 1.0 / p_a) * np.eye(m) - q
                norm = np.abs(np.linalg.inv(a)).sum(axis=0).max()
                got = 1.0 - outage_probability(t, p_a, m, 4.0).p_out
                worst_dense = max(worst_dense, abs(got - norm / p_a))
    elapsed = time.perf_counter() - start
    ok = worst_scalar <= 1e-12 and worst_dense <= 1e-12 and elapsed < 5.0
    report(
        2, ok,
        f"scalar dev {worst_scalar:.2e}, dense-solve dev {worst_dense:.2e} "
        f"(<=1e-12), {elapsed:.2f}s (<5s)",
    )
    assert worst_scalar <= 1e-12
    assert worst_dense <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_baseline_spectral_efficiency():
    # The 1.49 baseline is the mean log-utility E[ln(1+SINR)] of the
    # full-interference Rayleigh network (nats/s/Hz); the bits/s/Hz value
    # is 1.49/ln 2 = 2.148.
    start = time.perf_counter()
    quad_nats = spectral_efficiency(1.0, 1, 4.0) * LN2
    net = NetworkConfig(lambda_b=10.0, lambda_u=1e7, antennas=1, alpha=4.0)
    cfg = McConfig(
        network=net,
        window_radius=recommended_window(10.0),
        n_drops=600,
        n_fading_per_drop=200,
        seed=20260809,
        activity_model=ActivityModel.INDEPENDENT_THINNING,
    )
    mc = simulate_spectral_efficiency(cfg)
    mc_nats = mc.mean * LN2
    mc_se_nats = mc.std_error * LN2
    elapsed = time.perf_counter() - start
    in_band = abs(quad_nats - 1.49) <= 0.01
    agrees = abs(mc_nats - quad_nats) <= 3.0 * mc_se_nats
    enough = mc.n_samples >= 10**5
    ok = in_band and agrees and enough and elapsed < 120.0
    report(
        3, ok,
        f"quadrature {quad_nats:.4f} nats (1.49+-0.01), MC {mc_nats:.4f}"
        f"+-{3 * mc_se_nats:.4f} on {mc.n_samples} samples, {elapsed:.1f}s (<2min)",
    )
    assert in_band
    assert enough
    assert agrees
    assert elapsed < 120.0


def test_criterion_4_monte_carlo_agreement_grid(capsys, tmp_path):
    start = time.perf_counter()
    out = tmp_path / "grid.csv"
    code = cli.main(
        ["validate", "--seed", "20260809", "--n-drops", "600", "--n-fading", "200",
         "--out", str(out)]
    )
    header, rows = cli.read_csv(out.read_text())
    elapsed = time.perf_counter() - start
    n_cells = len(rows)
    n_pass = sum(1 for row in rows if row[-1] is True)
    samples_per_cell = 600 * 200
    ok = code == 0 and n_cells == 36 and n_pass == 36 and samples_per_cell >= 10**5 and elapsed < 600.0
    report(4, ok, f"{n_pass}/{n_cells} cells within max(3SE, 0.01), {elapsed:.1f}s (<10min)")
    assert code == 0
    assert n_cells == 36
    assert n_pass == 36
    assert elapsed < 600.0


TABLE_I = {
    "sparse": dict(rate=15.0, lambda_b=10.0, published={1: 0.053, 4: 0.357, 8: 0.990, 16: 2.632}),
    "dense": dict(rate=420.0, lambda_b=1000.0, published={1: 0.083, 4: 0.513, 8: 1.250, 16: 3.030}),
}


def test_criterion_5_table_spectrum_vs_antennas():
    start = time.perf_counter()
    failures = []
    details = []
    for name, row in TABLE_I.items():
        computed = {
            m: trs_spectrum_antennas(row["rate"], row["lambda_b"], m, 100.0).magnitude
            for m in row["published"]
        }
        values = [computed[m] for m in sorted(computed)]
        if not all(b > a for a, b in zip(values, values[1:])):
            failures.append(f"{name}: not strictly increasing in M: {values}")
        for m, published in row["published"].items():
            rel = abs(computed[m] - published) / published
            details.append(f"{name} M={m}: {computed[m]:.4f} vs {published} ({rel:+.1%})")
            if rel > 0.20:
                failures.append(details[-1])
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(5, ok, f"{'; '.join(details)}; {elapsed:.1f}s (<1min)")
    assert not failures, failures
    assert elapsed < 60.0


TABLE_II = {
    "sparse": dict(rate=15.0, published={1.0: 0.00286, 5.0: 0.043, 10.0: 0.159}),
    "dense": dict(rate=420.0, published={100.0: 0.417, 500.0: 12.50, 1000.0: 33.30}),
}


def test_criterion_6_table_spectrum_vs_density():
    start = time.perf_counter()
    failures = []
    details = []
    computed = {}
    for name, row in TABLE_II.items():
        computed[name] = {
            lam: trs_spectrum_density(row["rate"], lam, 1, 100.0).magnitude
            for lam in row["published"]
        }
        values = [computed[name][lam] for lam in sorted(computed[name])]
        if not all(b > a for a, b in zip(values, values[1:])):
            failures.append(f"{name}: not strictly increasing in lambda_b: {values}")
        for lam, published in row["published"].items():
            rel = abs(computed[name][lam] - published) / published
            details.append(f"{name} lb={lam:g}: {computed[name][lam]:.5g} vs {published} ({rel:+.1%})")
            if rel > 0.20:
                failures.append(details[-1])
    contrast = computed["dense"][1000.0] / computed["sparse"][10.0]
    if contrast < 100.0:
        failures.append(f"dense/sparse contrast {contrast:.1f} < 100")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(6, ok, f"{'; '.join(details)}; contrast {contrast:.0f}x; {elapsed:.1f}s (<1min)")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_7_qualitative_claims():
    start = time.perf_counter()
    failures = []
    notes = []

    # (a) sparse double-rate vs double-usage curves coincide within 1%
    m_grid = list(range(1, 9))
    curve_rate_m = indifference_curve(30.0, 100.0, "w-m", m_grid, lambda_b=10.0)
    curve_usage_m = indifference_curve(15.0, 200.0, "w-m", m_grid, lambda_b=10.0)
    worst_m = max(
        abs(a.axis2 - b.axis2) / a.axis2
        for a, b in zip(curve_rate_m.samples, curve_usage_m.samples)
    )
    lam_grid = log_grid(1.0, 10.0, 6)
    curve_rate_d = indifference_curve(30.0, 100.0, "w-density", lam_grid, antennas=1)
    curve_usage_d = indifference_curve(15.0, 200.0, "w-density", lam_grid, antennas=1)
    worst_d = max(
        abs(a.axis2 - b.axis2) / a.axis2
        for a, b in zip(curve_rate_d.samples, curve_usage_d.samples)
    )
    notes.append(f"(a) curve overlays {worst_m:.2%}/{worst_d:.2%} (<=1%)")
    if worst_m > 0.01 or worst_d > 0.01:
        failures.append(notes[-1])

    # (b) sparse: six antennas double the single-antenna rate within 10%
    sparse = make_operating_point(15.0, 10.0, 1, 100.0)
    rate6 = user_rate(sparse.config.with_(antennas=6))
    ratio_b = rate6 / (2.0 * 15.0)
    m_star = required_antennas(30.0, sparse.config.bandwidth_mhz, 10.0, 100.0)
    notes.append(f"(b) rate(M=6)/2rate(M=1) = {ratio_b:.3f}, minimal M = {m_star}")
    if abs(ratio_b - 1.0) > 0.10 or m_star != 6:
        failures.append(notes[-1])

    # (c) dense: three antennas absorb doubled usage within 10%
    dense = make_operating_point(420.0, 1000.0, 1, 100.0)
    rate3 = user_rate(dense.config.with_(antennas=3, lambda_u=200.0))
    ratio_c = rate3 / 420.0
    m_star_c = required_antennas(420.0, dense.config.bandwidth_mhz, 1000.0, 200.0)
    notes.append(f"(c) doubled-usage rate(M=3)/target = {ratio_c:.3f}, minimal M = {m_star_c}")
    if abs(ratio_c - 1.0) > 0.10 or m_star_c != 3:
        failures.append(notes[-1])

    # (d) dense: rate doubling by antennas alone is out of reach up to M=1024
    rep_d = doubling_scenario(dense, ScaleMode.DOUBLE_RATE, Lever.ANTENNAS, max_antennas=1024)
    notes.append(
        "(d) dense double-rate via antennas: "
        + ("infeasible to 1024" if not rep_d.feasible else f"feasible at M={rep_d.lever_value:g}")
    )
    if rep_d.feasible:
        failures.append(notes[-1])

    # (e) dense: twofold densification still doubles usage within 10%
    rep_e = doubling_scenario(dense, ScaleMode.DOUBLE_USAGE, Lever.DENSITY)
    notes.append(f"(e) usage-doubling densification ratio = {rep_e.ratio:.3f}")
    if not rep_e.feasible or abs(rep_e.ratio - 2.0) > 0.20:
        failures.append(notes[-1])

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(7, ok, f"{'; '.join(notes)}; {elapsed:.1f}s (<2min)")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_8_byte_determinism(tmp_path, monkeypatch):
    validate_args = [
        "validate", "--rho-values", "1", "--m-values", "1,2", "--t-values", "0.5,2",
        "--n-drops", "80", "--n-fading", "40", "--seed", "7",
    ]
    curve_args = ["curve", "--scenario", "sparse", "--pair", "w-density", "--grid", "1,5,10"]
    outputs = {}
    for cap in ("1", "4"):
        monkeypatch.setenv("TRS_PLANNER_THREADS", cap)
        v_out = tmp_path / f"validate_{cap}.csv"
        c_out = tmp_path / f"curve_{cap}.csv"
        assert cli.main(validate_args + ["--out", str(v_out)]) == 0
        assert cli.main(curve_args + ["--out", str(c_out)]) == 0
        outputs[cap] = (v_out.read_bytes(), c_out.read_bytes())
    same_validate = outputs["1"][0] == outputs["4"][0]
    same_curve = outputs["1"][1] == outputs["4"][1]
    ok = same_validate and same_curve
    report(8, ok, f"validate identical: {same_validate}, curve identical: {same_curve}")
    assert same_validate
    assert same_curve
