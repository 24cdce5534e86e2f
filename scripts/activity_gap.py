#!/usr/bin/env python3
"""Quantify the independent-thinning approximation the analytic model inherits.

For each density ratio, simulate outage with true Voronoi cell occupancy and
with independent thinning on common random numbers, and report the paired gap.
"""

import argparse
import sys

from trs_planner.cli import _parse_grid
from trs_planner.coverage import ConfigError, NetworkConfig, outage_probability, active_probability
from trs_planner.montecarlo import McConfig, activity_gap_report, recommended_window


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rho-values", default="0.1,1,10")
    parser.add_argument("--threshold", type=float, default=1.0)
    parser.add_argument("--lambda-u", type=float, default=100.0)
    parser.add_argument("--n-drops", type=int, default=400)
    parser.add_argument("--n-fading", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rho_values = _parse_grid(args.rho_values)

    print(
        f"{'rho':>6s} {'analytic':>9s} {'thinning':>9s} {'voronoi':>9s} "
        f"{'gap':>9s} {'3se(gap)':>9s}"
    )
    for rho in rho_values:
        lam_b = rho * args.lambda_u
        net = NetworkConfig(lambda_b=lam_b, lambda_u=args.lambda_u, antennas=1)
        cfg = McConfig(
            network=net,
            window_radius=recommended_window(lam_b),
            n_drops=args.n_drops,
            n_fading_per_drop=args.n_fading,
            seed=args.seed,
        )
        rep = activity_gap_report(cfg, args.threshold)
        analytic = outage_probability(
            args.threshold, active_probability(rho), 1, net.alpha
        ).p_out
        print(
            f"{rho:6.2f} {analytic:9.5f} {rep.thinning.mean:9.5f} "
            f"{rep.voronoi.mean:9.5f} {rep.gap.mean:+9.5f} {3 * rep.gap.std_error:9.5f}"
        )


if __name__ == "__main__":
    try:
        main()
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
