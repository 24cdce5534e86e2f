#!/usr/bin/env python3
"""Emit the indifference-curve data behind the spectrum/antennas and
spectrum/density figures: basic service, doubled rate, doubled usage, for
the sparse and dense scenarios.  One CSV per (figure, curve)."""

import argparse
import sys
from pathlib import Path

from trs_planner.cli import curve_csv
from trs_planner.coverage import ConfigError
from trs_planner.trs import indifference_curve, log_grid

SCENARIOS = {
    "sparse": dict(rate=15.0, lambda_b=10.0, lambda_u=100.0,
                   density_grid=log_grid(1.0, 50.0, 64)),
    "dense": dict(rate=420.0, lambda_b=1000.0, lambda_u=100.0,
                  density_grid=log_grid(100.0, 5000.0, 64)),
}

DEMANDS = {
    "basic": (1.0, 1.0),        # (rate multiplier, usage multiplier)
    "double-rate": (2.0, 1.0),
    "double-usage": (1.0, 2.0),
}


def write_curve(curve, path):
    path.write_text(curve_csv(curve))
    print(f"wrote {path} ({len(curve.samples)} samples)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures_data")
    parser.add_argument("--max-antennas", type=int, default=16)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    m_grid = list(range(1, args.max_antennas + 1))
    for scen_name, scen in SCENARIOS.items():
        for demand_name, (rate_mult, usage_mult) in DEMANDS.items():
            rate = rate_mult * scen["rate"]
            lam_u = usage_mult * scen["lambda_u"]
            curve_m = indifference_curve(
                rate, lam_u, "w-m", m_grid, lambda_b=scen["lambda_b"]
            )
            write_curve(curve_m, out / f"spectrum_vs_antennas_{scen_name}_{demand_name}.csv")
            curve_d = indifference_curve(
                rate, lam_u, "w-density", scen["density_grid"], antennas=1
            )
            write_curve(curve_d, out / f"spectrum_vs_density_{scen_name}_{demand_name}.csv")


if __name__ == "__main__":
    try:
        main()
    except (ConfigError, OSError) as err:  # OSError: an --out-dir that cannot be made or written
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
