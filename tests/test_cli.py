"""CLI contract tests: subcommands, formats, exit codes, determinism."""

import argparse
import json
import sys
from pathlib import Path

import pytest

from trs_planner import cli, coverage
from trs_planner.coverage import ConfigError, QuadratureError

ROOT = Path(__file__).resolve().parents[1]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCENARIO_TEXT = """
# fixture scenarios
tiny.lambda_b = 10
tiny.lambda_u = 100
tiny.antennas = 1
tiny.bandwidth_mhz = auto
tiny.alpha = 4
tiny.load_model = mean-load
tiny.target_rate_mbps = 15
big.lambda_b = 1000
big.lambda_u = 100
big.target_rate_mbps = 420
big.bandwidth_mhz = auto
"""


class TestScenarioFile:
    def test_parse_and_resolve(self):
        table = cli.parse_scenario_text(SCENARIO_TEXT)
        assert set(table) == {"tiny", "big"}
        assert table["tiny"].network.bandwidth_mhz == 0.0 and table["tiny"].auto_bandwidth
        cfg = table["tiny"].operating_point().config
        assert cfg.bandwidth_mhz == pytest.approx(70.1, abs=0.1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_scenario_text("x.lambda_b = 1\nx.lambda_u = 2\nx.target_rate_mbps = 1\nx.frobnicate = 7\n")

    def test_invalid_quantity_rejected_at_load(self):
        with pytest.raises(ConfigError):
            cli.parse_scenario_text("x.lambda_b = -5\nx.lambda_u = 100\nx.target_rate_mbps = 1\n")

    def test_missing_demand_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_scenario_text("x.lambda_b = 5\nx.lambda_u = 100\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_scenario_text("just some words\n")

    def test_builtin_scenarios_present(self):
        sparse = cli.builtin_scenario("sparse")
        dense = cli.builtin_scenario("dense")
        assert sparse.target_rate_mbps == 15.0 and sparse.network.lambda_b == 10.0
        assert dense.target_rate_mbps == 420.0 and dense.network.lambda_b == 1000.0

    def test_bundled_file_holds_the_builtins(self):
        text = (ROOT / "scenarios" / "baseline.scenario").read_text()
        assert cli.parse_scenario_text(text) == {
            name: cli.builtin_scenario(name) for name in ("sparse", "dense")
        }

    def test_key_set_twice_rejected(self):
        # the second value was taken without a word
        with pytest.raises(ConfigError, match=r"scenario line 3: key 'x.lambda_b' is already set"):
            cli.parse_scenario_text("x.lambda_b = 10\nx.lambda_u = 100\nx.lambda_b = 20\n")

    @pytest.mark.parametrize("target, error", [
        ("nan", "target_rate_mbps must be finite, got nan"),
        ("inf", "target_rate_mbps must be finite, got inf"),
        ("0", "target_rate_mbps must be positive"),
        ("-1", "target_rate_mbps must be positive"),
    ])
    def test_bad_target_rejected_at_load(self, capsys, tmp_path, target, error):
        # a nan target loaded, and `rate` at a fixed bandwidth exited 0
        path = tmp_path / "f.scenario"
        path.write_text("x.lambda_b = 10\nx.lambda_u = 100\nx.bandwidth_mhz = 20\n"
                        f"x.target_rate_mbps = {target}\n")
        code, out, err = run(["rate", "--file", str(path)], capsys)
        assert code == 2 and out == ""
        # the sign rule's message names the value too, as the finiteness rule's does
        message = error if ", got " in error else f"{error}, got {float(target)}"
        assert err == f"error: scenario 'x': {message}\n"

    @pytest.mark.parametrize("dropped", ["lambda_b", "lambda_u"])
    def test_missing_density_exit_2(self, capsys, tmp_path, dropped):
        # ended in a KeyError traceback with exit 1
        fields = {"lambda_b": "10", "lambda_u": "100", "target_rate_mbps": "15"}
        del fields[dropped]
        path = tmp_path / "f.scenario"
        path.write_text("".join(f"x.{key} = {value}\n" for key, value in fields.items()))
        code, out, err = run(["rate", "--file", str(path)], capsys)
        assert code == 2 and out == ""
        assert f"error: scenario 'x' is missing {dropped}" in err

    def test_unparsable_bandwidth_exit_2(self, capsys, tmp_path):
        # exited 3 as a numeric failure
        path = tmp_path / "f.scenario"
        path.write_text("x.lambda_b = 10\nx.lambda_u = 100\nx.target_rate_mbps = 15\n"
                        "x.bandwidth_mhz = abc\n")
        code, out, err = run(["rate", "--file", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'bandwidth_mhz'" in err


class TestFileErrors:
    """A scenario file or output path the system refuses is a bad config: exit 2, no traceback."""

    def test_missing_or_directory_file_exit_2(self, capsys, tmp_path):
        # ended in an OSError traceback with exit 1
        for path in (tmp_path / "absent.scenario", tmp_path):
            code, out, err = run(["rate", "--file", str(path)], capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and str(path) in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        # exited 3 as a numeric failure: UnicodeDecodeError is a ValueError
        path = tmp_path / "latin1.scenario"
        path.write_bytes("x.lambda_b = 10 # caf\u00e9\n".encode("latin-1"))
        code, out, err = run(["rate", "--file", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: scenario file {str(path)!r} is not UTF-8 text")

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        # ended in an OSError traceback with exit 1
        path = tmp_path / "absent" / "x.json"
        code, out, err = run(["rate", "--scenario", "sparse", "--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err


class TestRate:
    def test_json_report(self, capsys):
        code, out, _ = run(["rate", "--scenario", "sparse"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["rate_mbps"] == pytest.approx(15.0, rel=1e-9)

    def test_human_line(self, capsys):
        code, out, _ = run(["rate", "--scenario", "sparse", "--output", "human"], capsys)
        assert code == 0 and "Mbps" in out

    def test_zero_bandwidth(self, capsys):
        code, out, _ = run(
            ["rate", "--lambda-b", "10", "--lambda-u", "100", "--bandwidth-mhz", "0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["rate_mbps"] == 0.0
        # -0 printed "-0.0" and "-0" on both config paths
        code, out, _ = run(
            ["rate", "--lambda-b", "10", "--lambda-u", "100", "--bandwidth-mhz", "-0"], capsys
        )
        assert code == 0 and "-0" not in out
        report = json.loads(out)
        assert report["rate_mbps"] == 0.0 and report["config"]["bandwidth_mhz"] == 0.0
        code, out, _ = run(
            ["rate", "--scenario", "sparse", "--bandwidth-mhz", "-0", "--output", "human"], capsys
        )
        assert code == 0 and out.startswith("rate 0 Mbps  (W=0 MHz x ")

    def test_invalid_config_exit_2(self, capsys):
        code, _, err = run(["rate", "--lambda-b", "10", "--lambda-u", "100", "--alpha", "2"], capsys)
        assert code == 2 and "error" in err

    def test_numeric_failure_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureError("forced for the exit-code contract")

        monkeypatch.setattr(cli.coverage, "spectral_efficiency", boom)
        code, _, err = run(["rate", "--scenario", "sparse"], capsys)
        assert code == 3 and "numeric failure" in err

    def test_node_at_infinite_threshold_exit_3(self, capsys):
        argv = "rate --lambda-b 150 --lambda-u 1 --antennas 8 --bandwidth-mhz 20 --alpha 6.4"
        code, out, err = run(argv.split(), capsys)
        assert code == 3 and out == ""
        assert "numeric failure: spectral-efficiency quadrature" in err
        assert "division by zero" not in err


class TestFlagsBeforeSolve:
    """A bad flag over a scenario exits 2 before the scenario's bandwidth is solved."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["rate", "--scenario", "dense", "--antennas", "0"],
             "error: antennas must be an integer >= 1, got 0"),
            (["rate", "--scenario", "sparse", "--alpha", "2"], "error: alpha must exceed 2, got 2.0"),
            (["curve", "--scenario", "dense", "--pair", "w-density", "--antennas", "0"],
             "error: antennas must be an integer >= 1, got 0"),
        ],
        ids=["rate-antennas", "rate-alpha", "curve-antennas"],
    )
    def test_exit_2_with_no_integral(self, capsys, argv, named):
        # each ran one spectral-efficiency integral, the auto bandwidth, before the check
        coverage.mean_log2_sinr.cache_clear()
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert named in err
        assert coverage.mean_log2_sinr.cache_info().misses == 0

    def test_bandwidth_override_skips_the_solve(self, capsys):
        # the scenario's auto bandwidth was solved, at M = 1, and then replaced by the flag's
        coverage.mean_log2_sinr.cache_clear()
        code, out, _ = run(
            ["rate", "--scenario", "dense", "--antennas", "2", "--bandwidth-mhz", "20",
             "--output", "human"],
            capsys,
        )
        assert code == 0
        assert out == (
            "rate 143.756 Mbps  (W=20 MHz x SE=7.65531 b/s/Hz x share=0.938932; p_a=0.0938932)\n"
        )
        assert coverage.mean_log2_sinr.cache_info().misses == 1


class TestCurve:
    def test_csv_shape_and_roundtrip(self, capsys):
        code, out, _ = run(
            ["curve", "--scenario", "sparse", "--pair", "w-m", "--grid", "1,2,4,8"],
            capsys,
        )
        assert code == 0
        header, rows = cli.read_csv(out)
        assert header == ["axis1", "axis2", "feasible"]
        assert len(rows) == 4
        assert all(row[2] is True for row in rows)
        ws = [row[1] for row in rows]
        assert ws == sorted(ws, reverse=True)

    def test_single_point_grid(self, capsys):
        code, out, _ = run(
            ["curve", "--scenario", "sparse", "--pair", "w-density", "--grid", "10"],
            capsys,
        )
        assert code == 0
        _, rows = cli.read_csv(out)
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(70.1, abs=0.1)

    def test_json_output(self, capsys):
        code, out, _ = run(
            ["curve", "--scenario", "sparse", "--pair", "w-m", "--grid", "1,2", "--output", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pair"] == "w-m" and len(payload["samples"]) == 2

    def test_deterministic_across_thread_caps(self, capsys, monkeypatch):
        argv = ["curve", "--scenario", "sparse", "--pair", "w-density", "--grid", "1,5,10"]
        monkeypatch.setenv("TRS_PLANNER_THREADS", "1")
        _, out1, _ = run(argv, capsys)
        monkeypatch.setenv("TRS_PLANNER_THREADS", "4")
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(
            ["curve", "--scenario", "sparse", "--pair", "w-m", "--grid", "1,2", "--out", str(path)],
            capsys,
        )
        assert code == 0 and out == ""
        header, rows = cli.read_csv(path.read_text())
        assert header == ["axis1", "axis2", "feasible"] and len(rows) == 2

    def test_negative_grid_points_exit_2(self, capsys, recwarn):
        code, out, err = run(
            ["curve", "--scenario", "sparse", "--pair", "w-density", "--grid-points", "-1"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "points" in err
        # non-finite bounds are the grid's fault, named before numpy sees them
        for lo, hi in (("1", "inf"), ("nan", "100")):
            code, out, err = run(
                ["curve", "--scenario", "sparse", "--pair", "w-density",
                 "--grid-min", lo, "--grid-max", hi, "--grid-points", "3"],
                capsys,
            )
            assert code == 2 and out == ""
            assert err.startswith("error: grid bounds must satisfy 0 < lo < hi < inf"), err
        assert not recwarn.list


class TestHugeCounts:
    """A count too large for an array exits 2 naming its field, never with a traceback."""

    HUGE = str(2**62)  # past the largest float64 array numpy holds (sys.maxsize // 8)

    def test_grid_points_past_numpy_exit_2(self, capsys):
        code, out, err = run(
            ["curve", "--scenario", "sparse", "--pair", "w-density", "--grid-min", "10",
             "--grid-max", "20", "--grid-points", self.HUGE],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: grid points must be at most {sys.maxsize // 8}, got {self.HUGE}\n"

    def test_fading_count_past_numpy_exit_2(self, capsys):
        code, out, err = run(["validate", "--n-fading", self.HUGE], capsys)
        assert code == 2 and out == ""
        assert err == f"error: n_fading_per_drop must be at most {sys.maxsize // 8}, got {self.HUGE}\n"

    # a count numpy accepts but this machine cannot hold; the allocation is
    # stood in for, since a real multi-TiB request can succeed under overcommit
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["curve", "--scenario", "sparse", "--pair", "w-density", "--grid-points", "1099511627776"],
             (cli.trs, "log_grid")),
            (["validate", "--n-drops", "2", "--n-fading", "1099511627776", "--rho-values", "1",
              "--m-values", "1", "--t-values", "1"],
             (cli.montecarlo, "sinr_samples")),
        ],
        ids=["curve", "validate"],
    )
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, argv, target):
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)")

        monkeypatch.setattr(*target, allocate)
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory") and "8.00 TiB" in err
        assert "Traceback" not in err


class TestTrsCommand:
    def test_antenna_table(self, capsys):
        code, out, _ = run(
            ["trs", "--scenario", "sparse", "--pair", "w-m", "--at", "1,4,8,16"],
            capsys,
        )
        assert code == 0
        _, rows = cli.read_csv(out)
        values = [row[1] for row in rows]
        assert values[0] == pytest.approx(0.053, rel=0.2)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_density_table_json(self, capsys):
        code, out, _ = run(
            ["trs", "--scenario", "dense", "--pair", "w-density", "--at", "500,1000",
             "--output", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert [entry["lambda_b"] for entry in payload] == [500.0, 1000.0]
        assert payload[1]["magnitude"] > payload[0]["magnitude"]

    def test_infinite_rendered_as_literal(self):
        import math

        from trs_planner.trs import TrsValue

        value = TrsValue(
            pair="spectrum-density", magnitude=math.inf, units="lambda_b_per_mhz",
            step_policy="forward-unit-step dlambda_b=1", target_rate_mbps=1.0,
            lambda_u=100.0, lambda_b=1.0, antennas=1, bandwidth_mhz=2.0, note="flat",
        )
        text = cli.emit_csv(
            ("point", "trs", "units", "step_policy", "note"),
            [(value.lambda_b, value.magnitude if not value.is_infinite else "inf",
              value.units, value.step_policy, value.note)],
        )
        assert ",inf," in text.splitlines()[1]

    @pytest.mark.parametrize(
        "flags",
        [["--lambda-b", "1e16"], ["--lambda-b", "1e15", "--at", "1e15,1e16"]],
        ids=["lambda-b", "at-list"],
    )
    def test_unit_step_beyond_exact_density_exit_2(self, capsys, flags):
        # lambda_b + 1 == lambda_b: a unit step would step nowhere and print "magnitude": "inf"
        code, out, err = run(
            ["trs", *flags, "--lambda-u", "1e15", "--pair", "w-density", "--target-rate-mbps", "10",
             "--output", "json"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: lambda_b 1e+16 is too large for a unit step")
        assert err.endswith("use --step-policy central-derivative\n")

    @pytest.mark.parametrize(
        "densities",
        [("1e15", "1e15"), ("9007199254740991", "9007199254740991"), ("9007199254740991", "1e15")],
        ids=["1e15", "largest-exact", "largest-exact-lambda-b"],
    )
    def test_unit_step_within_rounding_exit_2(self, capsys, densities):
        # the step saves at most a few ulps of W: these printed inf with "densifying saves
        # no spectrum here", 2**50 and 2**52 (2**53 - 1 is the largest exact unit step)
        lambda_b, lambda_u = densities
        code, out, err = run(
            ["trs", "--lambda-b", lambda_b, "--lambda-u", lambda_u, "--pair", "w-density",
             "--target-rate-mbps", "10"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: lambda_b {float(lambda_b):g} is too large for a unit step (it saves ")
        assert err.endswith("within 1024 ulps of W); use --step-policy central-derivative\n")

    def test_degenerate_point_errors(self, capsys):
        code, _, err = run(
            ["trs", "--lambda-b", "0", "--lambda-u", "100", "--pair", "w-density",
             "--target-rate-mbps", "15"],
            capsys,
        )
        assert code == 2 and "error" in err


class TestValidate:
    ARGS = ["validate", "--rho-values", "1", "--m-values", "1,2", "--t-values", "1",
            "--n-drops", "120", "--n-fading", "60", "--seed", "5"]

    def test_small_grid_passes(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        header, rows = cli.read_csv(out)
        assert header[-1] == "pass" and len(rows) == 2
        assert all(row[-1] is True for row in rows)

    def test_negative_control_fails(self, capsys, monkeypatch):
        # the analytic side evaluated at alpha + 0.8 must disagree with the MC side
        outage = cli.coverage.outage_probability

        def offset(t, p_a, m, alpha):
            return outage(t, p_a, m, alpha + 0.8)

        monkeypatch.setattr(cli.coverage, "outage_probability", offset)
        code, out, _ = run(self.ARGS, capsys)
        assert code == 1
        _, rows = cli.read_csv(out)
        assert any(row[-1] is False for row in rows)

    def test_wide_intervals_still_pass(self, capsys):
        few = ["validate", "--rho-values", "1", "--m-values", "1", "--t-values", "1",
               "--n-drops", "30", "--n-fading", "10", "--seed", "5"]
        code, out, _ = run(few, capsys)
        assert code == 0

    def test_byte_identical_across_thread_caps(self, capsys, monkeypatch):
        monkeypatch.setenv("TRS_PLANNER_THREADS", "1")
        _, out1, _ = run(self.ARGS, capsys)
        monkeypatch.setenv("TRS_PLANNER_THREADS", "4")
        _, out2, _ = run(self.ARGS, capsys)
        assert out1 == out2

    def test_json_output(self, capsys):
        code, out, _ = run(self.ARGS + ["--output", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True and len(payload["cells"]) == 2


class TestScenarioCommand:
    def test_sparse_spectrum_doubling(self, capsys):
        for mode in ("double-rate", "double-usage"):
            code, out, _ = run(
                ["scenario", "--scenario", "sparse", "--mode", mode, "--lever", "spectrum"],
                capsys,
            )
            assert code == 0
            report = json.loads(out)["report"]
            assert report["feasible"] is True
            assert report["ratio"] == pytest.approx(2.0, rel=0.01)

    def test_sparse_antenna_doubling(self, capsys):
        code, out, _ = run(
            ["scenario", "--scenario", "sparse", "--mode", "double-rate", "--lever", "antennas"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["report"]["lever_value"] == 6.0

    def test_infeasible_reported_with_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text(SCENARIO_TEXT + "tiny.max_antennas = 8\n")
        code, out, _ = run(
            ["scenario", "--file", str(path), "--scenario", "tiny", "--mode", "double-rate",
             "--lever", "antennas", "--factor", "50"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["feasible"] is False and report["lever_value"] is None

    def test_antenna_cap_of_one_reports_infeasible(self, capsys, tmp_path):
        # two antennas would meet a 1.3x rate, but the file caps the array at one
        path = tmp_path / "s.scenario"
        path.write_text(SCENARIO_TEXT + "tiny.max_antennas = 1\n")
        code, out, _ = run(
            ["scenario", "--file", str(path), "--scenario", "tiny", "--mode", "double-rate",
             "--lever", "antennas", "--factor", "1.3"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["feasible"] is False and report["lever_value"] is None
        assert "1-antenna search cap" in report["note"]

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_antenna_cap_below_one_exit_2(self, capsys, tmp_path, cap):
        path = tmp_path / "s.scenario"
        path.write_text(SCENARIO_TEXT + f"tiny.max_antennas = {cap}\n")
        code, out, err = run(
            ["scenario", "--file", str(path), "--scenario", "tiny", "--mode", "double-rate",
             "--lever", "antennas"],
            capsys,
        )
        assert code == 2 and out == ""
        assert f"scenario 'tiny': max_antennas must be an integer >= 1, got {cap}" in err

    def test_scenario_from_file(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text(SCENARIO_TEXT)
        code, out, _ = run(
            ["scenario", "--file", str(path), "--scenario", "big", "--mode", "double-usage",
             "--lever", "density"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["report"]["ratio"] == pytest.approx(2.0, rel=0.01)

    def test_unknown_scenario_exit_2(self, capsys):
        code, _, err = run(
            ["scenario", "--scenario", "nope", "--mode", "double-rate", "--lever", "spectrum"],
            capsys,
        )
        assert code == 2


class TestNonFiniteInput:
    """A NaN or infinite quantity is a bad config (exit 2), never an answer."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["scenario", "--scenario", "dense", "--mode", "double-rate", "--lever", "antennas",
              "--factor", "nan"], "scale factor"),
            (["rate", "--lambda-b", "10", "--lambda-u", "100", "--bandwidth-mhz", "10",
              "--alpha", "inf"], "alpha"),
            (["rate", "--lambda-b", "10", "--lambda-u", "100", "--bandwidth-mhz", "nan"],
             "bandwidth_mhz"),
            (["trs", "--scenario", "sparse", "--pair", "w-m", "--at", "1",
              "--target-rate-mbps", "nan"], "target rate"),
        ],
        ids=["scenario-factor", "rate-alpha", "rate-bandwidth", "trs-target"],
    )
    def test_exit_2_naming_the_field(self, capsys, argv, field):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"error: {field} must be finite" in err

    def test_density_ratio_beyond_the_activity_model_exit_2(self, capsys):
        # p_a rounded to 0.0, and the error blamed an active probability the user never set
        code, out, err = run(["rate", "--lambda-b", "1e30", "--lambda-u", "1", "--bandwidth-mhz", "1"],
                             capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: density ratio lambda_b/lambda_u must be below")
        assert err.endswith("got 1e+30\n")

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--window-factor", "nan"], "window factor"),
            (["--lambda-u", "1e308"], "expected_stations"),
            (["--t-values", "nan"], "threshold"),
            # the window's square overflowed, an OverflowError with exit 3
            (["--window-factor", "1e200"], "expected_stations"),
        ],
        ids=["window-factor", "lambda-u-overflow", "t-values", "window-square-overflow"],
    )
    def test_validate_exit_2_naming_the_field(self, capsys, flags, field):
        argv = ["validate", "--rho-values", "1", "--m-values", "1", "--n-drops", "4",
                "--n-fading", "4"] + flags
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"error: {field}" in err and "must be finite" in err


class TestFrozenOutput:
    """Exact stdout recorded before `rate` took its figure from `user_rate`."""

    def test_rate_json(self, capsys):
        code, out, _ = run(["rate", "--scenario", "dense", "--antennas", "2"], capsys)
        assert code == 0
        assert out == (
            '{\n  "rate_mbps": 504.7696809418349,\n'
            '  "spectral_efficiency_bits_per_hz": 7.65531144374196,\n'
            '  "bandwidth_share": 0.9389317308100376,\n'
            '  "active_probability": 0.09389317308100376,\n'
            '  "config": {\n    "lambda_b": 1000.0,\n    "lambda_u": 100.0,\n'
            '    "antennas": 2,\n    "bandwidth_mhz": 70.22574917666128,\n'
            '    "alpha": 4.0,\n    "load_model": "mean-load"\n  }\n}\n'
        )

    def test_rate_human(self, capsys):
        code, out, _ = run(["rate", "--scenario", "sparse", "--output", "human"], capsys)
        assert code == 0
        assert out == (
            "rate 15 Mbps  (W=70.1007 MHz x SE=2.15893 b/s/Hz x share=0.0991127; p_a=0.991127)\n"
        )

    def test_density_curve_csv(self, capsys):
        # the np.float64(...) cells are the recorded text of this output
        code, out, _ = run(
            ["curve", "--scenario", "dense", "--pair", "w-density", "--grid-min", "100",
             "--grid-max", "5000", "--grid-points", "3"],
            capsys,
        )
        assert code == 0
        assert out == (
            "axis1,axis2,feasible\n"
            "100.0,np.float64(250.3503742968145),true\n"
            "707.1067811865474,np.float64(81.20590587840479),true\n"
            "5000.0,np.float64(41.35032069719263),true\n"
        )

    def test_antenna_curve_csv(self, capsys):
        code, out, _ = run(
            ["curve", "--pair", "w-m", "--grid", "1,2", "--target-rate-mbps", "40",
             "--lambda-b", "1", "--lambda-u", "100"],
            capsys,
        )
        assert code == 0
        assert out == "axis1,axis2,feasible\n1.0,1862.0687720257806,true\n2.0,1354.8587778510969,true\n"


class TestScenarioNoise:
    """The analytic commands have no noise term, so a noisy scenario is refused."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate"],
            ["curve", "--pair", "w-m", "--grid", "1,2"],
            ["trs", "--pair", "w-m", "--at", "1"],
            ["scenario", "--mode", "double-rate", "--lever", "spectrum"],
        ],
        ids=["rate", "curve", "trs", "scenario"],
    )
    def test_nonzero_noise_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "s.scenario"
        path.write_text(SCENARIO_TEXT + "tiny.noise_power = 5\n")
        code, out, err = run(argv + ["--file", str(path), "--scenario", "tiny"], capsys)
        assert code == 2 and out == ""
        assert "interference-limited; set noise_power=0" in err

    def test_zero_noise_accepted(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text(SCENARIO_TEXT + "tiny.noise_power = 0\n")
        code, out, _ = run(["rate", "--file", str(path), "--scenario", "tiny"], capsys)
        assert code == 0
        assert json.loads(out)["rate_mbps"] == pytest.approx(15.0, rel=1e-9)


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Every JSON document is standard JSON; a non-finite number is a numeric failure."""

    @pytest.mark.parametrize("drops", ["1", "0"])
    def test_validate_needs_two_drops(self, capsys, drops):
        code, out, err = run(
            ["validate", "--n-drops", drops, "--n-fading", "5", "--rho-values", "1",
             "--m-values", "1", "--t-values", "1", "--output", "json"],
            capsys,
        )
        assert code == 2 and out == ""
        assert f"error: n_drops must be an integer >= 2, got {drops}" in err

    def test_validate_two_drops_is_strict_json(self, capsys):
        code, out, _ = run(
            ["validate", "--n-drops", "2", "--n-fading", "5", "--rho-values", "1",
             "--m-values", "1", "--t-values", "1", "--output", "json"],
            capsys,
        )
        assert code in (0, 1)
        cell = _strict_json(out)["cells"][0]
        assert cell["std_error"] < float("inf") and cell["tolerance"] < float("inf")

    def test_overflowing_rate_exit_3(self, capsys):
        code, out, err = run(
            ["rate", "--lambda-b", "10", "--lambda-u", "100", "--bandwidth-mhz", "1e308"], capsys
        )
        assert code == 3 and out == ""
        assert "numeric failure" in err and "not JSON compliant" in err

    @pytest.mark.parametrize("argv", [
        ["trs", "--scenario", "sparse", "--pair", "w-density", "--at", "10"],
        ["curve", "--scenario", "sparse", "--pair", "w-m", "--grid", "1,2"],
    ], ids=["trs", "curve"])
    def test_overflowing_csv_cell_exit_3(self, capsys, argv):
        # the overflowing bandwidth printed nan (trs) or inf (curve) with exit 0
        code, out, err = run(argv + ["--target-rate-mbps", "1e308"], capsys)
        assert code == 3 and out == ""
        assert "numeric failure" in err and "not CSV compliant" in err

    def test_infinite_trs_keeps_its_literal(self, capsys, monkeypatch):
        import dataclasses
        import math

        from trs_planner import trs

        real = trs.trs_spectrum_antennas

        def flat(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), magnitude=math.inf)

        monkeypatch.setattr(trs, "trs_spectrum_antennas", flat)
        code, out, _ = run(
            ["trs", "--scenario", "sparse", "--pair", "w-m", "--at", "1", "--output", "json"], capsys
        )
        assert code == 0
        assert _strict_json(out)[0]["magnitude"] == "inf"


class TestUnparsableList:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--rho-values", "1,abc"],
            ["trs", "--scenario", "sparse", "--pair", "w-m", "--at", "1,x"],
        ],
        ids=["validate", "trs"],
    )
    def test_exit_2_quoting_the_list(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert "error: cannot parse the list" in err

    @pytest.mark.parametrize("flag", ["--rho-values", "--m-values", "--t-values"])
    def test_empty_validate_grid_exit_2(self, capsys, flag):
        # an empty grid checked no cell and passed with exit 0
        code, out, err = run(["validate", "--n-drops", "2", "--n-fading", "2", flag, ","], capsys)
        assert code == 2 and out == ""
        assert "error: validate needs a value in each of" in err


class TestCountLists:
    """Antenna-count lists take whole numbers; anything else is a bad flag."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["validate", "--rho-values", "1", "--m-values", "1.5", "--t-values", "1",
              "--n-drops", "4", "--n-fading", "4"], "--m-values"),
            (["validate", "--rho-values", "1", "--m-values", "nan", "--t-values", "1",
              "--n-drops", "4", "--n-fading", "4"], "--m-values"),
            (["trs", "--scenario", "sparse", "--pair", "w-m", "--at", "1.5,4"], "--at"),
        ],
        ids=["validate-fraction", "validate-nan", "trs-fraction"],
    )
    def test_exit_2_naming_the_flag(self, capsys, argv, flag):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert f"error: {flag} must be an integer >= 1, got " in err

    def test_whole_counts_keep_their_output(self, capsys):
        # stdout recorded before the counts were checked
        code, out, _ = run(["trs", "--scenario", "sparse", "--pair", "w-m", "--at", "1,4,8,16"], capsys)
        assert code == 0
        assert out == (
            "point,trs,units,step_policy,note\n"
            "1,0.052449634846347654,antennas_per_mhz,forward-unit-step dM=1,\n"
            "4,0.35671578506380863,antennas_per_mhz,forward-unit-step dM=1,\n"
            "8,0.9645066070352474,antennas_per_mhz,forward-unit-step dM=1,\n"
            "16,2.594327337744405,antennas_per_mhz,forward-unit-step dM=1,\n"
        )


class TestAntennaCap:
    """Antenna counts above the planner's cap of 1024 exit 2, naming the field or flag."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["rate", "--scenario", "sparse", "--antennas", "2048"],
             "error: antennas must be at most 1024, got 2048"),
            # too large for a float: the cap is checked before math.isfinite
            (["rate", "--scenario", "sparse", "--antennas", "1" + "0" * 400],
             "error: antennas must be at most 1024, got 1" + "0" * 400),
            (["curve", "--scenario", "sparse", "--pair", "w-m", "--grid", "1e9"],
             "error: antenna grid value must be at most 1024, got 1000000000.0"),
            (["trs", "--scenario", "sparse", "--pair", "w-m", "--at", "1024"],
             "error: --at must be at most 1023, got 1024.0"),
            (["validate", "--rho-values", "1", "--m-values", "1025", "--t-values", "1",
              "--n-drops", "4", "--n-fading", "4"], "error: --m-values must be at most 1024, got 1025.0"),
        ],
        ids=["rate-antennas", "rate-antennas-beyond-float", "curve-grid", "trs-at",
             "validate-m-values"],
    )
    def test_exit_2_naming_the_field(self, capsys, argv, named):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert named in err

    def test_scenario_file_cap_exit_2(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text(SCENARIO_TEXT + "tiny.max_antennas = 1025\n")
        code, out, err = run(
            ["scenario", "--file", str(path), "--scenario", "tiny", "--mode", "double-rate",
             "--lever", "antennas"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "scenario 'tiny': max_antennas must be at most 1024, got 1025" in err


class TestSharedParser:
    """``main`` parses with one parser per process, and no call leaks into the next."""

    # the first command sets no flag that a later one sets
    SESSION = [
        ["rate", "--scenario", "sparse", "--output", "human"],
        ["rate", "--scenario", "dense", "--antennas", "2"],
        ["curve", "--scenario", "sparse", "--pair", "w-m", "--grid", "1,2"],
        ["trs", "--scenario", "sparse", "--pair", "w-m", "--at", "1,4"],
        ["scenario", "--scenario", "sparse", "--mode", "double-rate", "--lever", "spectrum"],
    ]

    def test_many_calls_build_one_parser_tree(self, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            real_init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert cli.build_parser() is not cli.build_parser()  # the public builder stays fresh
        tree = len(built) // 2
        assert tree > 1  # the top-level parser and one per subcommand
        built.clear()
        cli._parser.cache_clear()
        for argv in self.SESSION * 2:
            assert run(argv, capsys)[0] == 0
        assert len(built) == tree

    def test_a_session_leaks_nothing_into_later_calls(self, capsys, tmp_path):
        first = [run(argv, capsys) for argv in self.SESSION]
        assert all(code == 0 and out and err == "" for code, out, err in first)
        with pytest.raises(SystemExit) as unknown_flag:
            cli.main(["rate", "--scenario", "sparse", "--frobnicate"])
        assert unknown_flag.value.code == 2
        code, out, err = run(["rate", "--lambda-b", "10"], capsys)
        assert code == 2 and out == "" and "missing ['--lambda-u']" in err
        path = tmp_path / "rate.json"
        assert run([*self.SESSION[1], "--out", str(path)], capsys) == (0, "", "")
        assert path.read_text() == first[1][1]
        # byte-identical again: no earlier --out, --output or --antennas sticks
        assert [run(argv, capsys) for argv in self.SESSION] == first
