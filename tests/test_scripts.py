"""Experiment scripts: bad input exits 2 with an error line, as the CLI does."""

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
    assert capsys.readouterr().err.startswith("error: ")
