"""Edge-of-domain sweep of the k-coefficients against mpmath's incomplete beta.

The reference shares no code with the package: with ``d = 2/alpha`` and
``w = T/(1+T)``, ``k_0 = d * T^d * B_w(1-d, d)`` and
``k_i = d * T^d * B_w(i-d, 1+d)`` for ``i >= 1``, by mpmath's ``betainc`` at
40 digits.  ``d`` is taken at the float ``2.0 / alpha`` the planner uses:
near ``alpha = 2`` the rounding of ``2/alpha`` alone moves ``k_0`` by up to
4.5e-11 relative, far above the error of the series.  The sweep covers
``alpha`` from ``2 + 1e-12`` to 8, orders 0, 1, 2, one random order, 1022
and 1023, thresholds from 1e-8 to 1e-3 and from 1e6 to 1e12, and thresholds
either side of each switch between a direct row and a connection-formula
row.  Run it with::

    PYTHONPATH=src python tests/k_oracle.py

It exits 1 when a direct row is past 1e-12 relative or a connection row past
5e-12, and prints the worst error of each row kind and the longest series
summed, in blocks of ``hypergeom._BLOCK`` terms.  References below the
smallest normal float are skipped: the planner's value underflows there.
Exponents above 8 are not swept: there the connection rows near
``i * (1 - w) = 1`` lose up to 6.5e-12 (k_903 at T = 902.13, alpha = 888.8).
"""

import random
import sys

import mpmath as mp

from trs_planner import hypergeom
from trs_planner.hypergeom import coeff_k

ALPHAS = (2.0 + 1e-12, 2.0 + 1e-6, 2.05, 3.0, 4.0, 8.0)
TOLERANCE = {"direct": 1e-12, "connection": 5e-12}
# the (p, q, r, b) finish of a row whose sum is k_i itself
DIRECT_FINISH = (1.0, 1.0, 1.0, 0.0)


def beta_k(i, threshold, alpha):
    """k_i by mpmath's (unregularized) incomplete beta, at the float delta."""
    with mp.workdps(40):
        d = mp.mpf(2.0 / alpha)
        t = mp.mpf(threshold)
        a, b = (1 - d, d) if i == 0 else (i - d, 1 + d)
        return d * t**d * mp.betainc(a, b, 0, t / (1 + t))


def sweep_points(seed=2014):
    """(i, T, alpha): tiny and huge thresholds, and each side of the row switches."""
    rng = random.Random(seed)
    points = []
    for alpha in ALPHAS:
        for i in (0, 1, 2, rng.randrange(3, 1022), 1022, 1023):
            thresholds = [1e-8, 10.0 ** rng.uniform(-8, -3), 1e6, 10.0 ** rng.uniform(6, 12)]
            thresholds += [98.9, 99.1]  # w = 0.99
            if i > 100:
                thresholds += [i - 1.5, i - 0.5]  # i * (1 - w) = 1
            points += [(i, t, alpha) for t in thresholds]
    return points


def main():
    starts = []
    block = hypergeom._block

    def counted(a, c, w, n, *args):
        starts.append(n)
        return block(a, c, w, n, *args)

    hypergeom._block = counted
    worst = {kind: (0.0, None) for kind in TOLERANCE}
    failed = skipped = longest = 0
    points = sweep_points()
    for i, t, alpha in points:
        ref = beta_k(i, t, alpha)
        if ref < sys.float_info.min:
            skipped += 1
            continue
        starts.clear()
        mine = coeff_k(i, t, alpha)
        longest = max(longest, max(starts) // hypergeom._BLOCK + 1)
        finish = hypergeom._row(i, t, 2.0 / alpha, t / (1.0 + t))[4:]
        kind = "direct" if finish == DIRECT_FINISH else "connection"
        rel = float(abs(mine - ref) / ref)
        if rel > worst[kind][0]:
            worst[kind] = rel, (i, t, alpha)
        if not rel <= TOLERANCE[kind]:
            failed += 1
            print(f"FAIL {kind} k_{i} T={t!r} alpha={alpha!r}: {mine!r} vs {mp.nstr(ref, 20)}, rel {rel:.2e}")
    for kind, (rel, point) in worst.items():
        print(f"{kind} rows: worst {rel:.2e} relative (limit {TOLERANCE[kind]:g}) at (i, T, alpha) = {point}")
    print(f"longest series: {longest} blocks ({longest * hypergeom._BLOCK} terms)")
    print(f"{len(points)} points: {failed} failed, {skipped} skipped as underflowing")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
