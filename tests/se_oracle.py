"""Independent spectral-efficiency oracle, and its sweep over the planner's domain.

The oracle shares no code with the package: the k-coefficients come from
mpmath's ``hyp2f1``, the Toeplitz forward substitution runs in mpmath, and
the SE integral is mpmath's tanh-sinh ``quad`` over ``s = ln T`` at 25 digits,
split at fixed breakpoints.  ``tests/test_se_oracle.py`` checks a few points
in Tier-1.  Run this module for the 100-point sweep (a few minutes)::

    PYTHONPATH=src python tests/se_oracle.py

It exits 1 when any point misses the certified contract of 1e-6 bits/s/Hz or
the oracle cannot certify its own value, and prints how many points sit past
1e-8 relative.
"""

import math
import random
import sys

import mpmath as mp

from trs_planner.coverage import active_probability, spectral_efficiency

# the spectral-efficiency contract the planner certifies, in bits/s/Hz
CERTIFIED_ABS = 1e-6
# the oracle's own error estimate stays far below any deviation it judges
ORACLE_MAX_ERR = 1e-20
BREAKPOINTS = [-mp.inf, -10, 0, 10, 30, 60, mp.inf]


def oracle_se(p_a, antennas, alpha):
    """(SE, error estimate) in bits/s/Hz, as mpmath numbers at 25 digits.

    SE = (1/ln 2) * int coverage(T) / (1 + T) dT; with T = e^s the integrand
    is coverage(e^s) * e^s / (1 + e^s).  Coverage is x * sum(b) for
    x = 1/p_a and b the first column of the inverse of (k_0 + x) I - Q, Q
    the strictly lower-triangular Toeplitz matrix of k_1 .. k_{M-1}.
    """
    with mp.workdps(25):
        d = mp.mpf(2) / alpha
        x = 1 / mp.mpf(p_a)

        def integrand(s):
            t = mp.exp(s)
            k = [d * t / (1 - d) * mp.hyp2f1(1, 1 - d, 2 - d, -t)]
            k += [d * t**i / (i - d) * mp.hyp2f1(i + 1, i - d, i + 1 - d, -t) for i in range(1, antennas)]
            b = [1 / (k[0] + x)]
            for n in range(1, antennas):
                b.append(mp.fsum(k[j] * b[n - j] for j in range(1, n + 1)) / (k[0] + x))
            return x * mp.fsum(b) * t / (1 + t)

        value, err = mp.quad(integrand, BREAKPOINTS, error=True)
        return value / mp.ln2, err / mp.ln2


def sweep_points(n=100, seed=20160):
    """(p_a, M, alpha) for alpha in [3, 5], rho log-uniform in [0.05, 20], M in {1, 2, 4, 8}."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        alpha = rng.uniform(3.0, 5.0)
        rho = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        points.append((active_probability(rho), rng.choice((1, 2, 4, 8)), alpha))
    return points


def main():
    failed = past_1e8 = 0
    worst = 0.0
    points = sweep_points()
    for p_a, m, alpha in points:
        exact, err = oracle_se(p_a, m, alpha)
        se = spectral_efficiency(p_a, m, alpha)
        dev = abs(se - float(exact))
        rel = dev / float(exact)
        worst = max(worst, rel)
        past_1e8 += rel > 1e-8
        bad = dev > CERTIFIED_ABS or err > ORACLE_MAX_ERR
        failed += bad
        print(f"p_a={p_a:.6g} M={m} alpha={alpha:.4f} se={se!r} oracle={mp.nstr(exact, 20)} "
              f"err={mp.nstr(err, 2)} rel={rel:.2e}{'  FAIL' if bad else ''}", flush=True)
    print(f"{len(points)} points: {failed} past {CERTIFIED_ABS:g} bits/s/Hz or uncertified, "
          f"{past_1e8} past 1e-8 relative, largest relative deviation {worst:.2e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
