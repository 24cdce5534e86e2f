"""Which commands load the quadrature stack: only a spectral-efficiency integral does."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter; prints the quadrature modules loaded after each step.
CHILD = """
import json, sys

import trs_planner, trs_planner.cli
from trs_planner import cli, coverage, montecarlo, trs


def loaded():
    return [name for name in ("scipy.integrate", "scipy.optimize") if name in sys.modules]


seen = {"import": loaded()}
code = cli.main(["validate", "--n-drops", "4", "--n-fading", "4", "--rho-values", "1",
                 "--m-values", "1,2", "--t-values", "1"])
assert code in (0, 1), code
seen["validate"] = loaded()
cfg = montecarlo.McConfig(
    network=coverage.NetworkConfig(10.0, 100.0), window_radius=montecarlo.recommended_window(10.0),
    n_drops=4, n_fading_per_drop=4, seed=0,
    activity_model=montecarlo.ActivityModel.VORONOI_OCCUPANCY,
)
montecarlo.activity_gap_report(cfg, 1.0)
montecarlo.simulate_active_probability(cfg)
seen["activity"] = loaded()
coverage.outage_probability(1e4, 0.3, 8, 4.0)  # connection-formula rows, so gammaln
seen["outage"] = loaded()
seen["se"] = coverage.spectral_efficiency(0.5, 2, 4.0).hex()
seen["after_se"] = loaded()
before = set(sys.modules)
trs.required_density(15.0, 70.0, 1, 100.0)  # its root finder comes with scipy.integrate
seen["density_added"] = sorted(set(sys.modules) - before)
print(json.dumps(seen))
"""


def test_only_an_integral_loads_scipy_integrate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "validate", "activity", "outage"):
        assert seen[step] == [], step
    assert seen["se"] == "0x1.058f046f7f520p+2"  # the bits of the module-level import
    assert "scipy.integrate" in seen["after_se"]
    # scipy.integrate loads scipy.optimize, so a density solve's brentq costs no import
    assert "scipy.optimize" in seen["after_se"]
    assert seen["density_added"] == []
