import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import planeflow
from planeflow.cli import _build_parser, _config, parse_complex, run_cli
from planeflow.flow import IntegratorConfig
from planeflow.reports import load_schema, validate_report


def run(argv, capsys):
    code = run_cli(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseComplex:
    def test_pair(self):
        assert parse_complex("1,3.5") == 1 + 3.5j

    def test_literal(self):
        assert parse_complex("-1+2i") == -1 + 2j
        assert parse_complex("0.5") == 0.5

    def test_nonconstant_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("z+1")


class TestConfig:
    def test_tol_flag_matches_library_tolerance(self):
        args = _build_parser().parse_args(["classify", "--f", "z^2", "--z0", "1", "--tol", "1e-6"])
        assert _config(args) == IntegratorConfig(rel_tol=1e-6)
        assert IntegratorConfig().abs_tol == 1e-12

    @pytest.mark.parametrize("argv", [
        ["level-trace", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50"],
        ["transit", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50"],
        ["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e45"],
    ], ids=lambda argv: argv[0])
    def test_curve_commands_default_to_radius_1e9(self, argv):
        assert _config(_build_parser().parse_args(argv)) == IntegratorConfig(escape_radius=1e9)


class TestSimulate:
    def test_blowup_summary_line(self, tmp_path, capsys):
        code, out, _ = run(
            ["simulate", "--f", "-exp(-z)", "--z0", "0", "--kind", "holo",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "FiniteTimeBlowup T≈1.0000"
        csv = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,re_z,im_z,abs_z,step_error"

    def test_csv_row_count_matches_samples(self, tmp_path, capsys):
        code, out, _ = run(
            ["simulate", "--f", "i*z", "--z0", "1", "--json", "--csv",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert len(rows) - 1 == report["n_samples"]
        validate_report(report, load_schema())

    def test_svg_written(self, tmp_path, capsys):
        code, _, _ = run(
            ["simulate", "--f", "i*z", "--z0", "1", "--svg", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        doc = (tmp_path / "trajectory.svg").read_text()
        assert doc.startswith("<svg")

    def test_seed_beyond_the_radius_writes_one_sample(self, tmp_path, capsys):
        # the run reaches its radius at t = 0 and holds only the seed
        code, _, _ = run(
            ["simulate", "--f", "z^2", "--z0", "20", "--radius", "10", "--svg", "--csv", "--json",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        validate_report(report, load_schema())
        assert report["n_samples"] == 1
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 2
        doc = (tmp_path / "trajectory.svg").read_text()
        assert doc.startswith("<svg") and "nan" not in doc

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(["simulate", "--z0"], capsys)
        assert code == 2

    def test_demo_takes_no_argument(self, capsys):
        code, _, _ = run(["demo", "foo"], capsys)
        assert code == 2

    def test_module_entry_point_runs(self, tmp_path):
        src = str(Path(planeflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "planeflow.cli", "poly-summary", "--coeffs", "0,0,1",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert "finite" in proc.stdout

    def test_missing_expression_exit_2(self, capsys):
        code, _, err = run(["simulate", "--z0", "1"], capsys)
        assert code == 2
        assert "an expression is required" in err

    @pytest.mark.parametrize("command", ["simulate", "classify"])
    @pytest.mark.parametrize("flags", [
        ["--g", "z"],
        ["--g", "z", "--kind", "holo"],
        ["--f", "z", "--kind", "antiholo"],
        ["--f", "z", "--g", "z"],
        ["--f", "z", "--g", "z", "--kind", "antiholo"],
    ])
    def test_contradictory_expression_flags_exit_2(self, tmp_path, capsys, command, flags):
        out_dir = tmp_path / "out"
        code, out, err = run([command, *flags, "--z0", "1", "--out", str(out_dir)], capsys)
        assert code == 2
        assert "does not apply to --kind" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, error", [
        (["simulate", "--f", "z", "--z0", "abc"], "ParseError"),
        (["classify", "--g", "(z", "--kind", "antiholo", "--z0", "1"], "ParseError"),
        (["poly-summary", "--coeffs", "a,b"], "ParseError"),
        (["level-trace", "--G", "exp(1/z)", "--start", "1", "--Xmax", "5"], "EntiretyViolation"),
        (["simulate", "--f", "z^", "--z0", "1"], "ParseError"),
        (["transit", "--G", "z^z", "--start", "1", "--Xmax", "5"], "ParseError"),
        (["simulate", "--f", "z^2i", "--z0", "1"], "EntiretyViolation"),
        # a point or literal that is not finite is bad input, not a numerical failure
        (["simulate", "--f", "z", "--z0", "inf,0"], "ParseError"),
        (["classify", "--f", "z^2", "--z0", "1,nan"], "ParseError"),
        (["level-trace", "--G", "z^2", "--start", "nan,1", "--Xmax", "10"], "ParseError"),
        (["simulate", "--f", "z", "--z0", "1e400"], "ParseError"),
        (["simulate", "--f", "z", "--z0", "1e400i"], "ParseError"),
        (["simulate", "--f", "z", "--z0", "1e200*1e200"], "ParseError"),
        (["poly-summary", "--coeffs", "0,0,1e400"], "ParseError"),
        (["simulate", "--f", "1e400*z", "--z0", "1"], "ParseError"),
        (["simulate", "--f", "z", "--z0", "1.3e308,1.3e308"], "ParseError"),
        (["simulate", "--f", "z", "--z0", "1.3e308+1.3e308i"], "ParseError"),
        (["simulate", "--f", "exp(1000)*z", "--z0", "1"], "ParseError"),
        (["simulate", "--f", "1e200*1e200*z", "--z0", "1"], "ParseError"),
        (["simulate", "--f", "z/exp(1000)", "--z0", "1"], "ParseError"),
        (["simulate", "--f", ".", "--z0", "1"], "ParseError"),
        (["simulate", "--f", "z", "--z0", "."], "ParseError"),
        (["measure", "--f", "-exp(-z)", "--z0", "inf,0"], "ParseError"),
    ])
    def test_malformed_expression_or_point_exit_2(self, tmp_path, capsys, argv, error):
        out_dir = tmp_path / "out"
        code, out, err = run([*argv, "--out", str(out_dir)], capsys)
        assert code == 2
        assert f"error [{error}]" in err
        assert out == ""
        assert not out_dir.exists()

    def test_parse_error_exit(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--f", "1/z", "--z0", "1", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "EntiretyViolation" in err

    def test_deeply_nested_expression_exit_2(self, tmp_path, capsys):
        deep = "(" * 2000 + "z" + ")" * 2000
        code, _, err = run(
            ["classify", "--f", deep, "--z0", "1", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "nested too deeply" in err

    def test_long_flat_chain_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["classify", "--f", "+".join(["z"] * 1000), "--z0", "1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "nested too deeply" in err

    def test_exp_without_value_exit_3(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--f", "exp(1 + i*z^2*z^2)", "--z0", "1e80", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "EvaluationOverflow" in err

    @pytest.mark.parametrize("z0, shown", [("1e308,1e308", "(1e+308+1e+308j)"), ("1e308", "(1e+308+0j)")])
    def test_overflowing_first_step_names_the_given_point(self, tmp_path, capsys, z0, shown):
        # the first step's stage sums overflow; the message names the start
        # point, not the NaN stage point after the overflow
        code, out, err = run(["simulate", "--f", "z", "--z0", z0, "--out", str(tmp_path)], capsys)
        assert code == 3
        assert err == f"error [EvaluationOverflow]: evaluation overflow in Variable() at z={shown}\n"
        assert "nan" not in err and out == ""

    def test_nan_tolerance_exit_2(self, tmp_path, capsys):
        code, out, err = run(
            ["simulate", "--f", "z^2", "--z0", "1", "--tol", "nan", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "argument --tol:" in err  # rejected at the argparse edge
        assert out == ""


class TestSubcommands:
    def test_transit_json(self, tmp_path, capsys):
        code, out, _ = run(
            ["transit", "--G", "z^3 * (1/3)", "--start", "1", "--Xmax", "1e6",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "transit.json").read_text())
        validate_report(data, load_schema())
        assert abs(data["quadrature_time"] - 0.9930663) <= 1e-4
        assert data["relative_gap"] <= 1e-3
        assert data["agree"] is True and abs(data["quadrature_time"] - data["ode_time"]) <= data["gap_bar"]
        assert "; agree: |quadrature - flow| " in out

    def test_transit_keeps_to_its_branch(self, tmp_path, capsys):
        # the tracer's first step once jumped to the branch where G ~ z, and the
        # transit read a divergence near X = 310 and an infinite transit
        code, out, _ = run(
            ["transit", "--G", "exp(-z^2) + z", "--start", "(1.472387408715436-3.2575546477714203i)",
             "--Xmax", "1e4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("transit over X in [-4579.02, 10000]: quadrature 7.101643595657153e-05, flow ")
        assert "; agree: |quadrature - flow| " in lines[0]
        assert lines[1:] == ["slow-growth criterion inconclusive: curve too short: |z| must grow tenfold"]
        data = json.loads((tmp_path / "transit.json").read_text())
        assert data["agree"] is True and data["divergence_witness"] is None

    def test_level_trace_csv(self, tmp_path, capsys):
        code, out, _ = run(
            ["level-trace", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50",
             "--out", str(tmp_path), "--svg", "--json"],
            capsys,
        )
        assert code == 0
        rows = (tmp_path / "level.csv").read_text().splitlines()
        assert rows[0] == "x,re_z,im_z"
        assert len(rows) > 2
        validate_report(json.loads((tmp_path / "level.json").read_text()), load_schema())

    def test_measure_deterministic_bytes(self, tmp_path, capsys):
        files = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code, _, _ = run(
                ["measure", "--f", "-exp(-z)", "--z0", "0", "--delta", "1",
                 "--N", "40", "--seed", "7", "--tmax", "20", "--svg",
                 "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
            files.append(
                (
                    (out_dir / "measure.json").read_bytes(),
                    (out_dir / "measure.svg").read_bytes(),
                )
            )
        assert files[0] == files[1]

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_measure_nonpositive_samples_exit_2(self, tmp_path, capsys, n):
        code, out, err = run(
            ["measure", "--f", "-exp(-z)", "--z0", "0", "--N", n, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "--N" in err
        assert out == ""
        assert not (tmp_path / "measure.json").exists()

    def test_measure_delta_too_wide_to_sample_exit_2(self, tmp_path, capsys):
        # the samples' width 2 delta overflowed, and the error named a stop of inf
        code, out, err = run(
            ["measure", "--f", "z^2", "--z0", "1", "--N", "3", "--delta", "1e308", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert err == "error: delta must be at most half the largest double, 8.988465674311579e+307, got 1e+308\n"
        assert out == ""
        assert not (tmp_path / "measure.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["level-trace", "--G", "z^2 / 2", "--start", "1"], "--Xmax"),
            (["transit", "--G", "z", "--start", "1"], "--Xmax"),
            (["measure", "--f", "-exp(-z)", "--z0", "0", "--N", "5"], "--delta"),
            (["rubel", "--f", "exp(z)", "--seed-point", "2"], "--t-end"),
            (["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e18"], "--D"),
            (["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e18"], "--c"),
            (["classify", "--f", "z^2", "--z0", "1"], "--tol"),
        ],
        ids=["level-trace-Xmax", "transit-Xmax", "measure-delta", "rubel-t-end", "rubel-D", "rubel-c", "classify-tol"],
    )
    def test_nonfinite_float_option_exit_2(self, tmp_path, capsys, argv, option, value):
        out_dir = tmp_path / "out"
        code, out, err = run(argv + [option, value, "--out", str(out_dir)], capsys)
        assert code == 2
        assert option in err and "finite" in err
        assert out == ""
        assert not out_dir.exists()

    # the last four are finite and positive, but give no finite positive pixel scale
    @pytest.mark.parametrize(
        "window", ["nan,0,1", "0,0,inf", "0,0", "0,0,0", "0,0,-1", "0,0,1e-320", "0,0,5e-324", "1,1,1e-310", "0,0,1e308"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--f", "i*z", "--z0", "1", "--svg"],
            ["level-trace", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50", "--svg"],
            ["measure", "--f", "-exp(-z)", "--z0", "0", "--N", "5", "--svg"],
        ],
        ids=["simulate", "level-trace", "measure"],
    )
    def test_bad_window_exit_2(self, tmp_path, capsys, argv, window):
        out_dir = tmp_path / "out"
        code, out, err = run(argv + ["--window", window, "--out", str(out_dir)], capsys)
        assert code == 2
        assert "argument --window:" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["level-trace", "--G", "z^2 / 2", "--start", "1"], ["--Xmax", "abc"]),
            (["measure", "--f", "-exp(-z)", "--z0", "0"], ["--N", "abc"]),
            (["measure", "--f", "-exp(-z)", "--z0", "0", "--N", "5"], ["--delta", "x"]),
            (["simulate", "--f", "i*z", "--z0", "1", "--svg"], ["--window", "a,b,c"]),
            (["measure", "--f", "-exp(-z)", "--z0", "0", "--N", "5", "--svg"], ["--keep", "-3"]),
            (["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e18"], ["--m-max", "65"]),
            (["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e18"], ["--m-max", "-1"]),
            (["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e18"], ["--c", "-400"]),
            (["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e18"], ["--c", "0"]),
            (["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e18"], ["--c", "-1e-3"]),
        ],
        ids=["Xmax", "N", "delta", "window", "keep", "m-max-above-cap", "m-max-negative", "c-negative", "c-zero",
             "c-negative-exponent"],
    )
    def test_bad_option_value_plain_message(self, tmp_path, capsys, argv, bad):
        out_dir = tmp_path / "out"
        code, out, err = run(argv + bad + ["--out", str(out_dir)], capsys)
        assert code == 2
        assert f"argument {bad[0]}:" in err
        # no internal name such as a type function's leaks into the message
        assert re.search(r"(?<![\w-])_\w", err) is None
        assert out == ""
        assert not out_dir.exists()

    def test_negative_value_in_exponent_form(self, tmp_path, capsys):
        # -1e-3 is a value of --Xmax, not an option, as -0.001 is
        seen = []
        for value in ("-1e-3", "-0.001"):
            out_dir = tmp_path / value
            code, out, _ = run(["transit", "--G", "z", "--start", "-5", "--Xmax", value, "--out", str(out_dir)], capsys)
            assert code == 0
            seen.append((out, (out_dir / "transit.json").read_bytes()))
        assert seen[0] == seen[1]
        assert "quadrature 4.998999999999997," in seen[0][0]

    _BASE = {
        "simulate": ["simulate", "--f", "i*z", "--z0", "1"],
        "classify": ["classify", "--f", "z^2", "--z0", "1"],
        "level-trace": ["level-trace", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50"],
        "transit": ["transit", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50"],
        "measure": ["measure", "--f", "-exp(-z)", "--z0", "0", "--N", "5"],
        "rubel": ["rubel", "--f", "exp(z)", "--seed-point", "2", "--t-end", "1e18"],
        "poly-summary": ["poly-summary", "--coeffs", "0,0,1"],
    }
    _VALUES = {"--seed": ["3"], "--window": ["0,0,1"], "--tol": ["1e-8"], "--tmax": ["5"], "--radius": ["50"]}

    @pytest.mark.parametrize(
        "command, flag",
        [(c, "--seed") for c in ("simulate", "classify", "level-trace", "transit", "rubel", "poly-summary")]
        + [(c, f) for c in ("classify", "transit", "rubel") for f in ("--svg", "--window")]
        + [(c, "--csv") for c in ("classify", "transit", "measure", "rubel")]
        + [("poly-summary", f) for f in ("--tol", "--tmax", "--radius", "--svg", "--csv", "--window")]
        # each command writes its JSON report (level-trace its CSV table) unasked
        + [(c, "--json") for c in ("transit", "measure", "rubel", "poly-summary")]
        + [("level-trace", "--csv")]
        # the level tracer reads only the radius of the configuration
        + [(c, f) for c in ("level-trace", "rubel") for f in ("--tol", "--tmax")]
        # the transit's cross-check runs at the tolerance its bar needs, whatever --tol says
        + [("transit", "--tol")],
    )
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag):
        out_dir = tmp_path / "out"
        argv = self._BASE[command] + [flag] + self._VALUES.get(flag, []) + ["--out", str(out_dir)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "unrecognized arguments" in err
        assert out == ""
        assert not out_dir.exists()

    def test_window_sets_svg_view(self, tmp_path, capsys):
        code, _, _ = run(
            ["simulate", "--f", "i*z", "--z0", "1", "--svg", "--window", "-0.5,0,2",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        doc = (tmp_path / "trajectory.svg").read_text()
        # 640 px across 4 units: the imaginary axis x = 0 sits 2.5 units from the left
        assert '<polyline class="axis" points="400,0 400,640"/>' in doc

    def test_measure_svg_styles_segment(self, tmp_path, capsys):
        code, _, _ = run(
            ["measure", "--f", "-exp(-z)", "--z0", "0", "--delta", "1",
             "--N", "10", "--seed", "3", "--tmax", "20", "--svg",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        doc = (tmp_path / "measure.svg").read_text()
        assert 'class="segment"' in doc
        assert 'class="trajectory"' in doc

    def test_poly_summary(self, tmp_path, capsys):
        code, out, _ = run(
            ["poly-summary", "--coeffs", "0,0,1", "--kind", "antiholo",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "finite" in out
        data = json.loads((tmp_path / "poly_summary.json").read_text())
        assert data["finite_transit"] is True

    def test_rubel_cli(self, tmp_path, capsys):
        code, out, _ = run(
            ["rubel", "--f", "exp(z)", "--D", "0", "--seed-point", "2",
             "--t-end", "1e18", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "rubel.json").read_text())
        validate_report(data, load_schema())
        assert data["monotone"] is True
        # each tail prints its partial sum with its bar, which the report carries
        tails = [line for line in out.splitlines() if " c=" in line]
        assert len(tails) == 8 and all(" ± " in line for line in tails)
        assert all(0 < t["partial_err"] < 1e-2 * t["partial_sum"] for t in data["tail_integrals"])

    def test_rubel_cli_stopped_path_exits_3(self, tmp_path, capsys):
        # sin z from 2 stops at its critical value t = 1, far short of --t-end
        code, out, err = run(
            ["rubel", "--f", "(exp(i*z)-exp(-i*z))*(-0.5i)", "--D", "0", "--seed-point", "2",
             "--t-end", "1e45", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "TractViolation" in err and "critical_point" in err and "1.0000000000001017" in err
        assert not (tmp_path / "rubel.json").exists()

    def test_rubel_cli_near_critical_seed_exits_3(self, tmp_path, capsys):
        # f' = 4e-9 at the seed: below the tracer's threshold, so no path (it exited 2)
        code, out, err = run(
            ["rubel", "--f", "z^2 + 1", "--seed-point", "2e-9", "--t-end", "10", "--out", str(tmp_path)], capsys
        )
        assert code == 3
        assert out == ""
        assert "TractViolation" in err and "f' vanishes at the seed" in err
        assert not (tmp_path / "rubel.json").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            # |f''| = 2e-300: the term |f''|^(-2) / |f'| overflows (it ended in a traceback)
            (["--t-end", "1e6", "--c", "2"], "(math range error)"),
            # |f''/f| underflows to 0 and its log fails (it exited 2, as a usage error)
            (["--t-end", "1e40", "--c", "0.5", "--radius", "1e300"], "(math domain error)"),
        ],
        ids=["term-overflow", "quotient-underflow"],
    )
    def test_rubel_cli_walk_out_of_range_exits_3(self, tmp_path, capsys, args, message):
        code, out, err = run(
            ["rubel", "--f", "z + 1e-300*z^2", "--seed-point", "2", "--m-max", "2", *args, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err == f"error [TractViolation]: a term of the walk left the double range {message}\n"
        assert not (tmp_path / "rubel.json").exists()

    def test_level_trace_cli_names_the_critical_stop(self, tmp_path, capsys):
        code, out, _ = run(
            ["level-trace", "--G", "(exp(i*z)-exp(-i*z))*(-0.5i)", "--start", "2", "--Xmax", "1e45",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "stop: critical_point" in out

    def test_rubel_cli_prints_an_infinite_window_ratio(self, tmp_path, capsys):
        # f''' = 0 for z^2: the m = 3 tails are infinite, and so are their ratios
        code, out, _ = run(
            ["rubel", "--f", "z^2", "--D", "0", "--seed-point", "2", "--t-end", "1e6", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        lines = [line for line in out.splitlines() if "m=3 " in line]
        assert len(lines) == 2 and all("window ratio inf," in line for line in lines)
        assert all("partial inf ± inf," in line for line in lines)
        assert "nan" not in out
        data = json.loads((tmp_path / "rubel.json").read_text())
        assert [t["partial_err"] for t in data["tail_integrals"] if t["m"] == 3] == [None, None]

    def test_classify_output(self, tmp_path, capsys):
        code, out, _ = run(
            ["classify", "--f", "z^2", "--z0", "1", "--radius", "100",
             "--json", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "escape time" in out
        data = json.loads((tmp_path / "classify.json").read_text())
        assert data["conclusive"] is True


class TestOutputFiles:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("command", sorted(TestSubcommands._BASE))
    def test_out_that_cannot_be_a_directory_exit_2(self, tmp_path, capsys, command, below):
        # rejected at the edge: nothing is computed, printed or written
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out_dir = blocker / "sub" if below else blocker
        code, out, err = run(TestSubcommands._BASE[command] + ["--out", str(out_dir)], capsys)
        assert code == 2
        assert f"argument --out: must name a directory, but {blocker} exists and is not one" in err
        assert out == ""
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("argv, name", [
        (["poly-summary", "--coeffs", "0,0,1"], "poly_summary.json"),
        (["classify", "--f", "z^2", "--z0", "1", "--json"], "classify.json"),
        (["level-trace", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50"], "level.csv"),
    ], ids=["json", "classify-json", "csv"])
    def test_write_failure_exit_2(self, tmp_path, capsys, argv, name):
        # the file's own name is taken by a directory: an OSError from the writer
        (tmp_path / name).mkdir()
        code, _, err = run(argv + ["--out", str(tmp_path)], capsys)
        assert code == 2
        assert err == f"error: cannot write {tmp_path / name}: Is a directory\n"

    def test_failed_write_leaves_out_as_it_was(self, tmp_path, capsys):
        # the last of three files cannot be written: none of them is
        (tmp_path / "trajectory.svg").mkdir()
        argv = ["simulate", "--f", "-exp(-z)", "--z0", "0", "--csv", "--json", "--svg", "--out", str(tmp_path)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err == f"error: cannot write {tmp_path / 'trajectory.svg'}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.svg"]
        assert not any((tmp_path / "trajectory.svg").iterdir())

    def test_failed_write_makes_no_directory(self, tmp_path, capsys, monkeypatch):
        # the second file's write fails: --out and its parent, absent before, stay absent
        real, written = Path.write_text, []

        def write_once(path, *args, **kwargs):
            written.append(path)
            if len(written) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_once)
        out_dir = tmp_path / "new" / "sub"
        argv = ["simulate", "--f", "-exp(-z)", "--z0", "0", "--csv", "--json", "--out", str(out_dir)]
        code, _, err = run(argv, capsys)
        monkeypatch.undo()
        assert code == 2
        assert err == f"error: cannot write {out_dir / 'trajectory.json'}: {os.strerror(errno.ENOSPC)}\n"
        assert len(written) == 2
        assert not any(tmp_path.iterdir())

    def test_same_bytes_in_the_c_locale(self, tmp_path):
        src = str(Path(planeflow.__file__).resolve().parents[1])
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING", "PYTHONUTF8", "PYTHONCOERCECLOCALE"))
        }
        env["PYTHONPATH"] = src
        runs = {
            "c": (["-X", "utf8=0"], dict(env, LC_ALL="C", PYTHONCOERCECLOCALE="0")),
            "utf8": (["-X", "utf8"], env),
        }
        seen = {}
        for name, (mode, run_env) in runs.items():
            out_dir = tmp_path / name
            outputs = []
            for argv in (
                ["simulate", "--f", "-exp(-z)", "--z0", "0", "--svg", "--json", "--csv", "--out", str(out_dir)],
                ["classify", "--f", "z^2", "--z0", "1"],
            ):
                proc = subprocess.run(
                    [sys.executable, *mode, "-m", "planeflow.cli", *argv],
                    capture_output=True, env=run_env, timeout=60,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append((proc.stdout, proc.stderr))
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            seen[name] = outputs, files
        assert seen["c"] == seen["utf8"]
        outputs, files = seen["c"]
        assert all(stdout.startswith("FiniteTimeBlowup T≈1.0000\n".encode()) for stdout, _ in outputs)
        assert sorted(files) == ["trajectory.csv", "trajectory.json", "trajectory.svg"]
        assert "T≈1.0000".encode() in files["trajectory.svg"]

    def test_transit_names_an_undecided_criterion(self, tmp_path, capsys):
        # |z| grows from 1 to 2: too little for the slow-growth criterion
        code, out, _ = run(["transit", "--G", "z^2*(1/2)", "--start", "1", "--Xmax", "2", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["slow-growth criterion inconclusive: curve too short: |z| must grow tenfold"]

    def test_transit_names_an_unreached_cross_check(self, tmp_path, capsys):
        # the time left near X = 1e100 is below the resolution of t: the direct run stops short
        code, out, _ = run(
            ["transit", "--G", "z - exp(-z)", "--start", "-1+3.141592653589793i", "--Xmax", "1e100",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert out == (
            "transit over X in [1.71828, 1e+100]: quadrature 0.4586751453870502, "
            "the direct run did not reach Re G = 1e+100\n"
        )
        data = json.loads((tmp_path / "transit.json").read_text())
        assert data["ode_time"] is None and data["relative_gap"] is None
        assert data["gap_bar"] is None and data["agree"] is None
