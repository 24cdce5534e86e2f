#!/usr/bin/env python3
"""The paper's headline claim, swept to four times the demand: the TRS of
spectrum rises with the rate demanded.

For the sparse (lambda_b = 10, 15 Mbps) and dense (lambda_b = 1000, 420 Mbps)
scenarios, with lambda_u = 100, W is held at its base value: the spectrum
meeting the scenario's target at its own density with one antenna (70.1 and
70.2 MHz).  The demand is then scaled by 1, 1.5, 2, 3 and 4 along two paths:
the density path solves the station density with one antenna, and the
antenna path solves the antenna count with lambda_b held, up to
MAX_ANTENNAS_SWEPT.  Each point prints its solved value and its unit-step
TRS, or "infeasible: ..." where the lever cannot meet the demand, or
"failed: ..." naming the error where the model gives no answer.

Exits 1 when the answered TRS values along a path do not rise strictly.
``tests/test_headline.py`` asserts every point of :func:`sweep`.
"""

import sys

from trs_planner.coverage import QuadratureError
from trs_planner.trs import (
    InfeasibleError,
    required_antennas,
    required_density,
    required_spectrum,
    trs_spectrum_antennas,
    trs_spectrum_density,
)

LAMBDA_U = 100.0
FACTORS = (1.0, 1.5, 2.0, 3.0, 4.0)
# scenario: (base lambda_b, base target Mbps)
SCENARIOS = {"sparse": (10.0, 15.0), "dense": (1000.0, 420.0)}
MAX_ANTENNAS_SWEPT = 256  # the cap of ROADMAP finding F12; 1024 takes ~20 s a point
LEVERS = {"density": "lambda_b", "antennas": "M"}


def solve(path, target, w, lambda_b):
    """The lever value meeting ``target`` at W = ``w``, and its unit-step TRS."""
    if path == "density":
        lam = required_density(target, w, 1, LAMBDA_U)
        return lam, trs_spectrum_density(target, lam, 1, LAMBDA_U).magnitude
    m = required_antennas(target, w, lambda_b, LAMBDA_U, max_antennas=MAX_ANTENNAS_SWEPT)
    return m, trs_spectrum_antennas(target, lambda_b, m, LAMBDA_U).magnitude


def sweep():
    """One row per point: (scenario, W, path, factor, solved, TRS).

    ``solved`` is the lever value, or the "infeasible: ..." or "failed: ..."
    text of a point with no answer, whose TRS is None.
    """
    rows = []
    for name, (lambda_b, target) in SCENARIOS.items():
        w = required_spectrum(target, lambda_b, 1, LAMBDA_U)
        for path in LEVERS:
            for factor in FACTORS:
                try:
                    solved, trs = solve(path, factor * target, w, lambda_b)
                except InfeasibleError as err:
                    solved, trs = f"infeasible: {err}", None
                except (QuadratureError, ArithmeticError) as err:
                    solved, trs = f"failed: {type(err).__name__}: {err}", None
                rows.append((name, w, path, factor, solved, trs))
    return rows


def main():
    rows = sweep()
    print(f"{'scenario':8s} {'W_mhz':>7s} {'path':8s} {'demand':>6s}  {'solved':16s} {'unit-step TRS':>13s}")
    answered = {}
    for name, w, path, factor, solved, trs in rows:
        point = f"{name:8s} {w:7.1f} {path:8s} {f'x{factor:g}':>6s}"
        if trs is None:
            print(f"{point}  {solved}")
        else:
            print(f"{point}  {f'{LEVERS[path]}={solved:.6g}':16s} {trs:13.6g}")
            answered.setdefault((name, path), []).append(trs)
    falling = [key for key, values in answered.items() if any(b <= a for a, b in zip(values, values[1:]))]
    for name, path in falling:
        print(f"the TRS does not rise strictly along the {name} {path} path", file=sys.stderr)
    return 1 if falling else 0


if __name__ == "__main__":
    sys.exit(main())
