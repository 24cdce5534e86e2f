#!/usr/bin/env python3
"""Recompute both substitution tables and compare against the published values.

Sparse scenario: lambda_u=100, lambda_b=10, 15 Mbps per user.
Dense scenario:  lambda_u=100, lambda_b=1000, 420 Mbps per user.
"""

import argparse
import sys

from trs_planner.coverage import ConfigError
from trs_planner.trs import trs_spectrum_antennas, trs_spectrum_density

ANTENNA_TABLE = {
    "sparse": (15.0, 10.0, {1: 0.053, 4: 0.357, 8: 0.990, 16: 2.632}),
    "dense": (420.0, 1000.0, {1: 0.083, 4: 0.513, 8: 1.250, 16: 3.030}),
}

DENSITY_TABLE = {
    "sparse": (15.0, {1.0: 0.00286, 5.0: 0.043, 10.0: 0.159}),
    "dense": (420.0, {100.0: 0.417, 500.0: 12.50, 1000.0: 33.30}),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda-u", type=float, default=100.0)
    args = parser.parse_args()

    # each table's rows are computed before its header, so bad input prints no table
    rows = [
        (name, m, trs_spectrum_antennas(rate, lam_b, m, args.lambda_u).magnitude, pub)
        for name, (rate, lam_b, published) in ANTENNA_TABLE.items()
        for m, pub in published.items()
    ]
    print("TRS spectrum vs antennas (dM per MHz)")
    print(f"{'case':8s} {'M':>4s} {'computed':>10s} {'published':>10s} {'rel':>8s}")
    for name, m, v, pub in rows:
        print(f"{name:8s} {m:4d} {v:10.4f} {pub:10.4f} {(v - pub) / pub:+8.1%}")

    rows = [
        (name, lam_b, trs_spectrum_density(rate, lam_b, 1, args.lambda_u).magnitude, pub)
        for name, (rate, published) in DENSITY_TABLE.items()
        for lam_b, pub in published.items()
    ]
    print()
    print("TRS spectrum vs densification (dlambda_b per MHz)")
    print(f"{'case':8s} {'lam_b':>6s} {'computed':>10s} {'published':>10s} {'rel':>8s}")
    for name, lam_b, v, pub in rows:
        print(f"{name:8s} {lam_b:6.0f} {v:10.5f} {pub:10.5f} {(v - pub) / pub:+8.1%}")


if __name__ == "__main__":
    try:
        main()
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
