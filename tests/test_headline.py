"""The paper's headline claim: the TRS of spectrum rises with the rate demanded.

The rows are those of ``scripts/headline.py``: each bundled scenario holds W
at its base value (the spectrum meeting its target at its own density and
one antenna) and scales the demand by 1, 1.5, 2, 3 and 4.  Along the density
path the station density meeting the scaled demand is solved with M = 1;
along the antenna path the antenna count is solved with lambda_b held, up to
256.  The unit-step TRS at each answered point must rise strictly along each
path.  The expected values are the model's, to three significant figures
(ROADMAP finding F12); the antenna counts are exact.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "headline.py"
_spec = importlib.util.spec_from_file_location("headline", SCRIPT)
headline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(headline)

# path: scenario: (solved, TRS) per demand factor; a point with no answer
# holds the start of its message and no TRS
EXPECTED = {
    "density": {
        "sparse": [(10.0, 0.159), (15.10, 0.236), (20.34, 0.319), (31.4, 0.506), (43.3, 0.726)],
        # x4 is recorded, not skipped: ROADMAP item 3 makes this point answer
        "dense": [(1000.0, 35.6), (3227.0, 154.0), (9587.0, 583.0), (78400.0, 6980.0),
                  ("failed: QuadratureError: ", None)],
    },
    "antennas": {
        "sparse": [(1, 0.0524), (3, 0.158), (6, 0.319), (28, 1.90), (123, 10.6)],
        "dense": [(1, 0.0848), (7, 0.701), (56, 7.08), ("infeasible: ", None), ("infeasible: ", None)],
    },
}
PRINTED = 5e-3  # relative width of three significant figures


@pytest.fixture(scope="module")
def rows():
    return headline.sweep()  # about 3 s: every test here reads one sweep


def _check_path(rows, path, scenario):
    points = [(solved, trs) for name, _, p, _, solved, trs in rows if (name, p) == (scenario, path)]
    expected = EXPECTED[path][scenario]
    assert len(points) == len(expected) == len(headline.FACTORS)
    answered = [trs for _, trs in points if trs is not None]
    assert all(b > a for a, b in zip(answered, answered[1:])), answered
    for factor, (solved, trs), (want, want_trs) in zip(headline.FACTORS, points, expected):
        if want_trs is None:
            assert trs is None and solved.startswith(want), (factor, solved)
            continue
        if path == "antennas":
            assert solved == want, factor
        else:
            assert solved == pytest.approx(want, rel=PRINTED), factor
        assert trs == pytest.approx(want_trs, rel=PRINTED), factor


@pytest.mark.parametrize("scenario", sorted(headline.SCENARIOS))
def test_trs_rises_with_demand_along_the_density_path(rows, scenario):
    _check_path(rows, "density", scenario)


@pytest.mark.parametrize("scenario", sorted(headline.SCENARIOS))
def test_trs_rises_with_demand_along_the_antenna_path(rows, scenario):
    _check_path(rows, "antennas", scenario)
