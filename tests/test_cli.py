"""CLI tests: argument handling, exit codes, output formats, schema."""

import json
import math
import subprocess
import sys
from dataclasses import asdict

import pytest

import reference_values as ref
from thetaframe import (CheckResult, DomainError, ThetaFamily, VerifyConfig,
                        cli, eval_theta, frame_bounds, grid_extrema_F,
                        lattice_params, run_all)
from thetaframe.theta import FAMILIES
from thetaframe.cli import build_parser, main, parse_args


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def validator():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files
    schema = json.loads(files("thetaframe").joinpath(
        "schemas/cli_output.schema.json").read_text())
    return lambda doc: jsonschema.validate(doc, schema)


class TestParseArgs:
    def test_defaults(self):
        args = parse_args(["bounds", "--n", "2", "--beta", "0.7"])
        assert args.tol == 1e-12
        assert args.format == "human"

    def test_sweep_args(self):
        args = parse_args(["sweep", "--n", "2", "--beta-min", "0.4",
                           "--beta-max", "1.4", "--steps", "21",
                           "--out", "x.csv"])
        assert args.steps == 21
        assert not args.log
        assert args.svg is None
        assert args.column == "ratio"

    @pytest.mark.parametrize("argv", [
        [],
        ["bounds", "--n", "0", "--beta", "0.7"],
        ["eval", "--family", "theta_general", "--s", "1.0"],
        ["eval", "--family", "theta3", "--s", "1.0", "--z", "0.3"],
        ["sweep", "--n", "2", "--beta-min", "0.4", "--beta-max", "1.4",
         "--steps", "1", "--out", "x.csv"],
        ["sweep", "--n", "2", "--beta-min", "1.4", "--beta-max", "0.4",
         "--steps", "5", "--out", "x.csv"],
        ["verify", "--suite", "bogus"],
        ["oracle", "--n", "2", "--beta", "0.7", "--grid", "4"],
        ["oracle", "--n", "2", "--beta", "0.7", "--kmax", "0"],
        ["eval", "--family", "theta9", "--s", "1.0"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err != ""

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "thetaframe" in capsys.readouterr().out


class TestComputationErrors:
    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "theta3", "--s", "-1.0"],
        ["bounds", "--n", "2", "--beta", "-1.0"],
        ["bounds", "--n", "2", "--beta", "1000.0"],
    ])
    def test_domain_errors_exit_1(self, argv, capsys):
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err.startswith("error:")

    def test_unwritable_out_exit_1(self, capsys, tmp_path):
        dest = tmp_path / "no_such_dir" / "x.csv"
        code, out, err = run_main(capsys, [
            "sweep", "--n", "2", "--beta-min", "0.4", "--beta-max", "1.4",
            "--steps", "5", "--out", str(dest)])
        assert code == 1
        assert err.startswith("error:")


class TestEval:
    def test_human(self, capsys):
        code, out, err = run_main(capsys, [
            "eval", "--family", "theta3", "--s", "1.0"])
        assert code == 0
        assert "1.0864348112" in out
        assert "error bound" in out

    def test_json_schema(self, capsys, validator):
        code, out, _ = run_main(capsys, [
            "eval", "--family", "theta4", "--s", "0.5",
            "--order", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        validator(doc)
        assert doc["command"] == "eval"
        assert doc["z"] is None
        assert doc["order"] == 1

    def test_json_general(self, capsys, validator):
        code, out, _ = run_main(capsys, [
            "eval", "--family", "theta_general", "--s", "1.0",
            "--z", "0.25", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        validator(doc)
        assert doc["value"] == pytest.approx(ref.GENERAL_QUARTER_AT_1,
                                             abs=1e-12)


class TestBounds:
    def test_json_values(self, capsys, validator):
        code, out, _ = run_main(capsys, [
            "bounds", "--n", "2", "--beta", str(2.0 ** -0.5),
            "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        validator(doc)
        assert doc["lower"] == pytest.approx(ref.A_2_SQRT2, abs=1e-10)
        assert doc["upper"] == pytest.approx(ref.B_2_SQRT2, abs=1e-10)
        assert doc["valid"] is True

    def test_human_mentions_bounds(self, capsys):
        code, out, _ = run_main(capsys, ["bounds", "--n", "3",
                                         "--beta", "0.5"])
        assert code == 0
        assert "lower" in out and "upper" in out


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_main(capsys, [
            "verify", "--suite", "theta3-product-minimum"])
        assert code == 0
        assert "PASS theta3-product-minimum" in out
        assert "all checks passed" in out

    def test_json_all(self, capsys, validator):
        code, out, _ = run_main(capsys, ["verify", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        validator(doc)
        assert doc["all_passed"] is True
        assert len(doc["suites"]) == 10

    def test_failing_suite_exits_3(self, capsys, monkeypatch):
        fake = [CheckResult("x", False, -1.0, 2.0, 5)]
        monkeypatch.setattr(cli, "run_all", lambda config: fake)
        code, out, _ = run_main(capsys, ["verify"])
        assert code == 3
        assert "FAIL x" in out
        assert "some checks failed" in out

    def test_informational_failure_exits_0(self, capsys, monkeypatch):
        fake = [CheckResult("x", True, 1.0, None, 5),
                CheckResult("y", False, -1.0, None, 5, informational=True)]
        monkeypatch.setattr(cli, "run_all", lambda config: fake)
        code, out, _ = run_main(capsys, ["verify"])
        assert code == 0
        assert "[informational]" in out


class TestSweep:
    def test_csv_and_svg(self, capsys, tmp_path):
        csv = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        code, out, _ = run_main(capsys, [
            "sweep", "--n", "2", "--beta-min", "0.4", "--beta-max", "1.4",
            "--steps", "11", "--out", str(csv), "--svg", str(svg),
            "--column", "A"])
        assert code == 0
        assert "wrote 11 rows" in out
        assert csv.read_bytes().startswith(b"beta,A,B,ratio\n")
        assert svg.read_bytes().startswith(b"<svg")

    def test_byte_identical_runs(self, capsys, tmp_path):
        argvs = [["sweep", "--n", "3", "--beta-min", "0.3", "--beta-max",
                  "1.0", "--steps", "9", "--log", "--out",
                  str(tmp_path / f"{i}.csv")] for i in (0, 1)]
        for argv in argvs:
            assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "0.csv").read_bytes() == \
            (tmp_path / "1.csv").read_bytes()


class TestOracle:
    def test_json_schema(self, capsys, validator):
        code, out, _ = run_main(capsys, [
            "oracle", "--n", "3", "--beta", str(3.0 ** -0.5),
            "--grid", "64", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        validator(doc)
        assert doc["diff_lower"] < 1e-10
        assert doc["diff_upper"] < 1e-10
        assert doc["argmax"] == [0.0, 0.0]
        assert doc["argmin"] == [0.5, 0.5]

    def test_human(self, capsys):
        code, out, _ = run_main(capsys, ["oracle", "--n", "2",
                                         "--beta", "0.7"])
        assert code == 0
        assert "diff" in out


def _json_doc(capsys, argv):
    code, out, _ = run_main(capsys, argv + ["--format", "json"])
    assert code == 0
    return json.loads(out)


class TestFamilyRegistry:
    """P_z shares the series table with the families but is not one."""

    def test_families_are_the_cli_choices(self):
        sub = next(a for a in build_parser()._actions
                   if a.dest == "subcommand")
        family = next(a for a in sub.choices["eval"]._actions
                      if a.dest == "family")
        assert FAMILIES == tuple(family.choices) == (
            "theta3", "theta4", "theta_odd", "theta_general")

    def test_poisson_is_not_a_family(self, capsys):
        # P_z is the inner series of theta_general's transform only
        with pytest.raises(DomainError):
            ThetaFamily("poisson")
        assert main(["eval", "--family", "poisson", "--s", "1.0"]) == 2
        assert "invalid choice" in capsys.readouterr().err


class TestJsonEqualsLibrary:
    """Each JSON document carries the library's numbers exactly."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("s", [0.1, 2.0])
    def test_eval(self, capsys, validator, family, order, s):
        argv = ["eval", "--family", family, "--s", repr(s),
                "--order", str(order)]
        z = 0.3 if family == "theta_general" else None
        if z is not None:
            argv += ["--z", "0.3"]
        fam = ThetaFamily(family, z)
        doc = _json_doc(capsys, argv)
        validator(doc)
        tv = eval_theta(fam, s, order)
        assert doc == {
            "command": "eval", "family": family,
            "z": 0.3 if family == "theta_general" else None, "s": s,
            "order": order, "tol": 1e-12, "value": tv.value,
            "error_bound": tv.error_bound, "terms_used": tv.terms_used,
            "method": tv.method.value}

    @pytest.mark.parametrize("n,beta", [(1, 1.0), (2, 2.0 ** -0.5),
                                        (3, 0.5), (4, 0.3), (2, 1e-3)])
    def test_bounds(self, capsys, validator, n, beta):
        doc = _json_doc(capsys, ["bounds", "--n", str(n),
                                 "--beta", repr(beta)])
        validator(doc)
        fb = frame_bounds(lattice_params(n, beta))
        assert doc == {
            "command": "bounds", "n": n, "beta": beta, "tol": 1e-12,
            "lower": fb.lower, "upper": fb.upper,
            "ratio": fb.ratio if math.isfinite(fb.ratio) else None,
            "error_bound": fb.error_bound, "valid": fb.valid}

    def test_bounds_underflowed_lower_is_null_ratio(self, capsys):
        doc = _json_doc(capsys, ["bounds", "--n", "2", "--beta", "1e-3"])
        assert doc["ratio"] is None
        assert doc["valid"] is False

    def test_verify_suite(self, capsys, validator):
        name = "theta3-product-minimum"
        doc = _json_doc(capsys, ["verify", "--suite", name])
        validator(doc)
        (res,) = run_all(VerifyConfig(suites=(name,)))
        expected = asdict(res)
        expected["worst_location"] = list(res.worst_location)
        assert doc == {"command": "verify", "all_passed": True,
                       "suites": [expected]}

    def test_verify_non_finite_fields_are_null(self, capsys, validator,
                                               monkeypatch):
        fake = [CheckResult("x", False, math.nan, (1.0, 2.5), 0),
                CheckResult("y", False, math.inf, None, 0),
                CheckResult("w", False, -1.0, (1.0, math.inf), 3)]
        monkeypatch.setattr(cli, "run_all", lambda config: fake)
        code, out, _ = run_main(capsys, ["verify", "--format", "json"])
        assert code == 3
        doc = json.loads(out)
        validator(doc)
        assert doc["suites"] == [
            {"name": "x", "passed": False, "worst_residual": None,
             "worst_location": [1.0, 2.5], "points_tested": 0,
             "low_margin": False, "informational": False},
            {"name": "y", "passed": False, "worst_residual": None,
             "worst_location": None, "points_tested": 0,
             "low_margin": False, "informational": False},
            {"name": "w", "passed": False, "worst_residual": -1.0,
             "worst_location": [1.0, None], "points_tested": 3,
             "low_margin": False, "informational": False}]

    def test_verify_human_flags_low_margin(self, capsys, monkeypatch):
        fake = [CheckResult("x", True, 1e-9, 1.0, 4, low_margin=True)]
        monkeypatch.setattr(cli, "run_all", lambda config: fake)
        code, out, _ = run_main(capsys, ["verify"])
        assert code == 0
        assert out.splitlines() == [
            "PASS x: worst_residual=1e-09 points=4 [low margin]",
            "all checks passed"]

    def test_oracle(self, capsys, validator):
        params = lattice_params(2, 0.7)
        doc = _json_doc(capsys, ["oracle", "--n", "2", "--beta", "0.7",
                                 "--grid", "32"])
        validator(doc)
        fb = frame_bounds(params)
        rep = grid_extrema_F(params, 32)
        assert doc == {
            "command": "oracle", "n": 2, "beta": 0.7, "grid_steps": 32,
            "k_max": rep.truncation_K, "closed_lower": fb.lower,
            "closed_upper": fb.upper, "grid_min": rep.min_value,
            "grid_max": rep.max_value, "argmin": list(rep.argmin),
            "argmax": list(rep.argmax),
            "diff_lower": abs(fb.lower - rep.min_value),
            "diff_upper": abs(fb.upper - rep.max_value)}


class TestHumanOutput:
    """The human format, pinned byte for byte."""

    @pytest.mark.parametrize("argv,expected", [
        (["eval", "--family", "theta3", "--s", "1.0"],
         "value = 1.08643481121 [error bound 5.538e-16]\n"
         "terms = 4  method = direct-series\n"),
        (["bounds", "--n", "3", "--beta", "0.5"],
         "lower = 2.81306928791 [error bound 9.732e-14]\n"
         "upper = 3.18563163027 [error bound 9.732e-14]\n"
         "ratio = 1.13243980302\n"
         "valid = true\n"),
        (["verify", "--suite", "theta3-product-minimum"],
         "PASS theta3-product-minimum: worst_residual=1e-13 points=1204\n"
         "all checks passed\n"),
        (["oracle", "--n", "2", "--beta", "0.7"],
         "closed form: lower = 1.66876072008  upper = 2.36113753295\n"
         "grid search: min = 1.66876072007 at (0.5, 0.5)  "
         "max = 2.36113753295 at (0.0, 0.0)\n"
         "differences: lower 1.072e-12  upper 1.289e-12  "
         "(grid 128, k_max 4)\n"),
    ], ids=["eval", "bounds", "verify", "oracle"])
    def test_exact_stdout(self, capsys, argv, expected):
        code, out, err = run_main(capsys, argv)
        assert (code, out, err) == (0, expected, "")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaframe", "eval", "--family", "theta3",
         "--s", "1.0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "1.0864348112" in proc.stdout


def test_commands_leave_numpy_unimported(tmp_path):
    # numpy is imported on first use by the lattice oracle only, so the
    # other commands keep interpreter start-up cheap
    csv = str(tmp_path / "rows.csv")
    script = (
        "import sys\n"
        "from thetaframe.cli import main\n"
        "for argv in (\n"
        "        ['eval', '--family', 'theta3', '--s', '1.0'],\n"
        "        ['bounds', '--n', '3', '--beta', '0.5'],\n"
        "        ['sweep', '--n', '2', '--beta-min', '0.4',\n"
        f"         '--beta-max', '1.4', '--steps', '5', '--out', {csv!r}],\n"
        "        ['verify', '--suite', 'theta3-product-minimum']):\n"
        "    assert main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "False"


def test_build_parser_reusable():
    parser = build_parser()
    args = parser.parse_args(["eval", "--family", "theta3", "--s", "2.0"])
    assert args.subcommand == "eval"
