"""Experiment scripts: the printed tables, and bad input exits 2 with an error line, as the CLI does."""

import importlib.util
import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args", [
    ("reproduce_tables.py", ["--lambda-u", "nan"]),
    ("trace_figures.py", ["--max-antennas", "0", "--out-dir", "figures_data"]),
    ("activity_gap.py", ["--rho-values", "1,abc"]),
    ("activity_gap.py", ["--n-drops", "1", "--rho-values", "10"]),
])
def test_bad_input_exits_2(script, args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 2
    # reproduce_tables.py printed its first table's title and header before the error
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_unwritable_out_dir_exits_2(tmp_path, monkeypatch, capsys):
    # ended in a NotADirectoryError traceback with exit 1
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out_dir = blocker / "sub"
    monkeypatch.setattr(sys, "argv", ["trace_figures.py", "--out-dir", str(out_dir)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "trace_figures.py"), run_name="__main__")
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(out_dir) in err


@pytest.mark.parametrize("args, error", [
    (["--threshold", "nan"], "threshold must be finite"),
    (["--threshold", "-1"], "threshold must be positive"),
    (["--threshold", "inf"], "threshold must be finite"),
    (["--rho-values", "10,-1", "--n-drops", "4", "--n-fading", "2"], "lambda_b must be positive"),
])
def test_activity_gap_bad_input_prints_no_table(args, error, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["activity_gap.py", *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "activity_gap.py"), run_name="__main__")
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {error}")


# stdout of reproduce_tables.py, recorded before the Toeplitz solutions were
# reused across antenna counts
REPRODUCE_TABLES = """\
TRS spectrum vs antennas (dM per MHz)
case        M   computed  published      rel
sparse      1     0.0524     0.0530    -1.0%
sparse      4     0.3567     0.3570    -0.1%
sparse      8     0.9645     0.9900    -2.6%
sparse     16     2.5943     2.6320    -1.4%
dense       1     0.0848     0.0830    +2.2%
dense       4     0.5122     0.5130    -0.1%
dense       8     1.2467     1.2500    -0.3%
dense      16     2.9967     3.0300    -1.1%

TRS spectrum vs densification (dlambda_b per MHz)
case      lam_b   computed  published      rel
sparse        1    0.00286    0.00286    +0.1%
sparse        5    0.04302    0.04300    +0.1%
sparse       10    0.15864    0.15900    -0.2%
dense       100    0.55055    0.41700   +32.0%
dense       500   10.92759   12.50000   -12.6%
dense      1000   35.59994   33.30000    +6.9%
"""
NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def test_reproduce_tables_output(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["reproduce_tables.py"])
    runpy.run_path(str(SCRIPTS / "reproduce_tables.py"), run_name="__main__")
    out = capsys.readouterr().out
    # the text between numbers matches exactly, each number within 1e-10 relative
    assert NUMBER.split(out) == NUMBER.split(REPRODUCE_TABLES)
    got, want = NUMBER.findall(out), NUMBER.findall(REPRODUCE_TABLES)
    assert len(got) == len(want) == 56
    for g, w in zip(got, want):
        assert float(g) == pytest.approx(float(w), rel=1e-10, abs=0.0), (g, w)


def test_activity_gap_prints_no_signed_zero(monkeypatch, capsys):
    # at rho = 1 the gap is -1.39e-18 and printed as -0.00000; a rounded zero prints unsigned
    monkeypatch.setattr(sys, "argv", ["activity_gap.py", "--n-drops", "20", "--n-fading", "10"])
    runpy.run_path(str(SCRIPTS / "activity_gap.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out == (
        "   rho  analytic  thinning   voronoi       gap  3se(gap)\n"
        "  0.10   0.43771   0.32500   0.32500   0.00000   0.00000\n"
        "  1.00   0.31483   0.26000   0.26000   0.00000   0.04867\n"
        " 10.00   0.06868   0.05500   0.04000  -0.01500   0.11776\n"
    )
    assert "-0.00000" not in out


def test_headline_exits_1_when_a_path_does_not_rise(monkeypatch, capsys):
    # canned rows: tests/test_headline.py asserts the rows of the real sweep
    spec = importlib.util.spec_from_file_location("headline", SCRIPTS / "headline.py")
    headline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(headline)
    monkeypatch.setattr(headline, "sweep", lambda: [
        ("sparse", 70.1, "density", 1.0, 10.0, 0.159),
        ("sparse", 70.1, "density", 1.5, 15.1, 0.236),
        ("sparse", 70.1, "antennas", 1.0, 1, 0.5),
        ("sparse", 70.1, "antennas", 1.5, 3, 0.5),
        ("sparse", 70.1, "antennas", 2.0, "infeasible: no count up to 256", None),
    ])
    assert headline.main() == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [
        "sparse      70.1 density      x1  lambda_b=10              0.159",
        "sparse      70.1 density    x1.5  lambda_b=15.1            0.236",
        "sparse      70.1 antennas     x1  M=1                        0.5",
        "sparse      70.1 antennas   x1.5  M=3                        0.5",
        "sparse      70.1 antennas     x2  infeasible: no count up to 256",
    ]
    assert err == "the TRS does not rise strictly along the sparse antennas path\n"
