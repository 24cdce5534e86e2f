"""Residual certificates for the planner's density and antenna answers, from an independent rate.

The planner inverts its rate: ``required_density`` returns the station
density whose rate meets a target, ``required_antennas`` the smallest antenna
count whose rate meets it.  A certificate recomputes the rate at the answer
without the package's code:

    rate = W * SE(p_a, M, alpha) * min(1, p_a * lambda_b / lambda_u)

with SE from :func:`se_oracle.oracle_se` (mpmath's ``hyp2f1`` and tanh-sinh
quadrature), and the active probability
``p_a = 1 - (1 + lambda_u / (3.5 lambda_b))^-3.5`` and the mean-load share
computed in mpmath from ``lambda_b`` and ``lambda_u``.

- A density answer passes when that rate is within ``RATE_REL_TOL`` times
  the target of the target.
- An antenna answer M passes when the rate at M meets
  ``target * (1 - RATE_REL_TOL)``, the planner's floor, and M = 1 or the
  rate at M - 1 does not.

Either also needs the oracle's own SE error below ``ORACLE_MAX_ERR``.
``tests/test_answer_oracle.py`` checks the sparse x1.5 headline points in
Tier-1.  Run this module to certify 10 density and 10 antenna answers drawn
at a fixed seed (under a minute)::

    PYTHONPATH=src python tests/answer_oracle.py

It prints each residual, relative to the target, and the worst of each kind,
and exits 1 on any failed certificate.
"""

import math
import random
import sys

import mpmath as mp

from se_oracle import ORACLE_MAX_ERR, oracle_se
from trs_planner.trs import RATE_REL_TOL, required_antennas, required_density, required_spectrum


def oracle_rate(bandwidth_mhz, lambda_b, antennas, lambda_u, alpha):
    """(rate in Mbps, SE error estimate), as mpmath numbers at 25 digits."""
    with mp.workdps(25):
        rho = mp.mpf(lambda_b) / mp.mpf(lambda_u)
        p_a = 1 - (1 + 1 / (mp.mpf(3.5) * rho)) ** mp.mpf(-3.5)
        se, err = oracle_se(p_a, antennas, alpha)
        return bandwidth_mhz * se * min(1, p_a * rho), err


def _residual(target, *point):
    """(oracle rate - target) / target at ``(W, lambda_b, M, lambda_u, alpha)``, and whether its SE is certified."""
    rate, err = oracle_rate(*point)
    return float((rate - target) / target), err <= ORACLE_MAX_ERR


def check_density(target, bandwidth_mhz, antennas, lambda_b, lambda_u, alpha):
    """(passed, residual at the planner's density ``lambda_b``)."""
    residual, certified = _residual(target, bandwidth_mhz, lambda_b, antennas, lambda_u, alpha)
    return certified and abs(residual) <= RATE_REL_TOL, residual


def check_antennas(target, bandwidth_mhz, lambda_b, antennas, lambda_u, alpha):
    """(passed, residual at M, residual at M - 1 or None at M = 1) for the planner's count M."""
    residual, certified = _residual(target, bandwidth_mhz, lambda_b, antennas, lambda_u, alpha)
    passed = certified and residual >= -RATE_REL_TOL
    below = None
    if antennas > 1:
        below, certified = _residual(target, bandwidth_mhz, lambda_b, antennas - 1, lambda_u, alpha)
        passed = passed and certified and below < -RATE_REL_TOL
    return passed, residual, below


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def sweep_points(n=10, seed=20170):
    """(kind, target, W, M, lambda_b, lambda_u, alpha) questions, drawn as the benchmark's fresh queries are.

    alpha is uniform in [3, 5], rho = lambda_b / lambda_u log-uniform in
    [0.05, 20] and the target log-uniform in [5, 200] Mbps, each stratified
    over the ``n = 10`` questions of a kind; lambda_u is one of 50, 100, 200
    and 400, and M is drawn, in shuffled order, from a fixed multiset.  Each
    question holds the W that meets the target at its drawn density and M,
    so a density answer is that density and an antenna answer that M.
    """
    rng = random.Random(seed)
    points = []
    for kind, counts in (
        ("density", [1, 1, 1, 1, 2, 2, 4, 4, 8, 8]),
        ("antennas", [1, 2, 2, 3, 3, 4, 5, 6, 7, 8]),
    ):
        draws = []
        for _ in range(3):
            strata = [(i + rng.random()) / n for i in range(n)]
            rng.shuffle(strata)
            draws.append(strata)
        rng.shuffle(counts)
        for u_rho, u_alpha, u_target, antennas in zip(*draws, counts):
            lambda_u = rng.choice((50.0, 100.0, 200.0, 400.0))
            lambda_b = _log_uniform(u_rho, 0.05, 20.0) * lambda_u
            alpha = 3.0 + 2.0 * u_alpha
            target = _log_uniform(u_target, 5.0, 200.0)
            w = required_spectrum(target, lambda_b, antennas, lambda_u, alpha)
            points.append((kind, target, w, antennas, lambda_b, lambda_u, alpha))
    return points


def main():
    failed = 0
    worst = {"density": 0.0, "antennas at M": math.inf, "antennas at M-1": -math.inf}
    for kind, target, w, m, lambda_b, lambda_u, alpha in sweep_points():
        where = f"target={target:.6g} W={w:.6g} lambda_u={lambda_u:g} alpha={alpha:.4f}"
        if kind == "density":
            lam = required_density(target, w, m, lambda_u, alpha)
            passed, residual = check_density(target, w, m, lam, lambda_u, alpha)
            worst["density"] = max(worst["density"], abs(residual))
            print(f"density  {where} M={m} lambda_b={lam:.10g} residual={residual:+.2e}", end="")
        else:
            got = required_antennas(target, w, lambda_b, lambda_u, alpha)
            passed, residual, below = check_antennas(target, w, lambda_b, got, lambda_u, alpha)
            worst["antennas at M"] = min(worst["antennas at M"], residual)
            if below is not None:
                worst["antennas at M-1"] = max(worst["antennas at M-1"], below)
            print(f"antennas {where} lambda_b={lambda_b:.6g} M={got} residual={residual:+.2e} "
                  f"at M-1={'none' if below is None else f'{below:+.2e}'}", end="")
        failed += not passed
        print("" if passed else "  FAIL", flush=True)
    print(f"{failed} failed certificates; worst |density residual| {worst['density']:.2e}, "
          f"lowest antenna residual at M {worst['antennas at M']:+.2e}, highest at M-1 "
          f"{worst['antennas at M-1']:+.2e} (tolerance {RATE_REL_TOL:g} of the target)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
