"""CLI fuzzing over arbitrary floats: every input exits 0, 2 or 3, never with a traceback.

On exit 0 stdout must be strict JSON or CSV whose numbers are all finite.
``validate`` is left out: its cost is set by the drop counts, not the floats.
Antenna counts stay small, because the cost of an answer grows with M^2.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trs_planner import cli

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1e308, -1e308]
# special values, any double, and the planner's working range
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.floats(0.01, 1e4))
# one- or two-point grids, as the comma-separated text the CLI parses
GRIDS = st.lists(FLOATS, min_size=1, max_size=2).map(lambda xs: ",".join(map(repr, xs)))
FUZZ = settings(max_examples=25, deadline=None)


def run(argv):
    """Exit code and stdout of one CLI call, checking the exit-code contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:  # argparse rejects a malformed flag with exit 2
            code = exit_.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith(("error: ", "numeric failure: ", "usage: ")), err.getvalue()
    return code, out.getvalue()


def finite_numbers(node):
    if isinstance(node, dict):
        return all(finite_numbers(value) for value in node.values())
    if isinstance(node, list):
        return all(finite_numbers(value) for value in node)
    return not isinstance(node, float) or math.isfinite(node)


def check_json(text):
    def refuse(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    assert finite_numbers(json.loads(text, parse_constant=refuse)), text


def check_csv(text, header, n_rows):
    got_header, rows = cli.read_csv(text)
    assert got_header == header and len(rows) == n_rows, text
    assert all(not isinstance(cell, float) or math.isfinite(cell) for row in rows for cell in row), text


@FUZZ
@given(lambda_b=FLOATS, lambda_u=FLOATS, bandwidth=FLOATS, alpha=FLOATS)
def test_rate(lambda_b, lambda_u, bandwidth, alpha):
    code, out = run(["rate", f"--lambda-b={lambda_b!r}", f"--lambda-u={lambda_u!r}",
                     f"--bandwidth-mhz={bandwidth!r}", f"--alpha={alpha!r}"])
    if code == 0:
        check_json(out)


@FUZZ
@given(at=GRIDS, target=FLOATS, alpha=FLOATS,
       policy=st.sampled_from(["unit-step", "central-derivative"]))
def test_trs_density(at, target, alpha, policy):
    code, out = run(["trs", "--scenario", "sparse", "--pair", "w-density", f"--at={at}",
                     f"--target-rate-mbps={target!r}", f"--alpha={alpha!r}",
                     "--step-policy", policy, "--output", "json"])
    if code == 0:
        check_json(out)


@FUZZ
@given(lambda_b=FLOATS, target=FLOATS, alpha=FLOATS, at=st.sampled_from(["1", "2", "1,2"]))
def test_trs_antennas(lambda_b, target, alpha, at):
    code, out = run(["trs", "--scenario", "sparse", "--pair", "w-m", f"--at={at}",
                     f"--lambda-b={lambda_b!r}", "--lambda-u=100",
                     f"--target-rate-mbps={target!r}", f"--alpha={alpha!r}", "--output", "json"])
    if code == 0:
        check_json(out)


@FUZZ
@given(grid=GRIDS, target=FLOATS, alpha=FLOATS)
@example(grid="10,20", target=1e308, alpha=4.0)  # printed inf in the CSV with exit 0
def test_curve_density_grid(grid, target, alpha):
    code, out = run(["curve", "--scenario", "sparse", "--pair", "w-density", f"--grid={grid}",
                     f"--target-rate-mbps={target!r}", f"--alpha={alpha!r}"])
    if code == 0:
        check_csv(out, ["axis1", "axis2", "feasible"], grid.count(",") + 1)


@FUZZ
@given(lo=FLOATS, hi=FLOATS, points=st.sampled_from([1, 2]), target=FLOATS)
def test_curve_density_bounds(lo, hi, points, target):
    code, out = run(["curve", "--scenario", "sparse", "--pair", "w-density",
                     f"--grid-min={lo!r}", f"--grid-max={hi!r}", f"--grid-points={points}",
                     f"--target-rate-mbps={target!r}"])
    if code == 0:
        check_csv(out, ["axis1", "axis2", "feasible"], points)


@FUZZ
@given(lambda_u=FLOATS, target=FLOATS)
@example(lambda_u=100.0, target=1e308)  # printed inf in the CSV with exit 0
def test_curve_antennas(lambda_u, target):
    code, out = run(["curve", "--scenario", "sparse", "--pair", "w-m", "--grid=1,2",
                     "--lambda-b=10", f"--lambda-u={lambda_u!r}", f"--target-rate-mbps={target!r}"])
    if code == 0:
        check_csv(out, ["axis1", "axis2", "feasible"], 2)


@settings(max_examples=15, deadline=None)
@given(lambda_b=FLOATS, lambda_u=FLOATS, target=FLOATS, factor=FLOATS,
       mode=st.sampled_from(["double-rate", "double-usage"]),
       lever=st.sampled_from(["spectrum", "density", "antennas"]))
def test_scenario(tmp_path_factory, lambda_b, lambda_u, target, factor, mode, lever):
    path = tmp_path_factory.mktemp("fuzz") / "f.scenario"
    path.write_text(f"x.lambda_b = {lambda_b!r}\nx.lambda_u = {lambda_u!r}\n"
                    f"x.target_rate_mbps = {target!r}\nx.max_antennas = 4\n")
    code, out = run(["scenario", "--file", str(path), "--mode", mode, "--lever", lever,
                     f"--factor={factor!r}"])
    if code == 0:
        check_json(out)
