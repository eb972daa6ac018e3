import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conedet
from conedet.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def payload(result):
    return json.loads(result.output)["payload"]


FLAT_JSON = {
    "points": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]],
    "orders": [-2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0],
}

HYP_JSON = {
    "orders": [-0.8, -0.7, -0.9],
    "phi_consts": [0.1, -0.2, 0.3],
    "liouville_integral": 1.5,
}


class TestScalarCommands:
    def test_cbeta_zero(self, runner):
        res = invoke(runner, ["cbeta", "--beta", "0"])
        assert res.exit_code == 0
        assert abs(payload(res)["value"]) <= 1e-12

    def test_barnes_cross_check(self, runner):
        res = invoke(runner, ["barnes-zprime0", "--p", "2", "--q", "1", "--cross-check"])
        assert res.exit_code == 0
        data = payload(res)
        assert abs(data["difference"]) <= 1e-8
        assert data["value"] == pytest.approx(data["integral_route"], abs=1e-8)

    def test_det_spindle_kokot(self, runner, zp):
        res = invoke(runner, ["det", "spindle", "--beta", "1", "--mu", "0", "--k", "1"])
        expected = math.log(2.0) / 6.0 + 1.0 - 2.0 * zp
        assert payload(res)["value"] == pytest.approx(expected, abs=1e-11)

    def test_zeta0(self, runner):
        res = invoke(runner, ["zeta0", "--euler", "2", "--orders", "", "--closed"])
        assert payload(res)["value"] == pytest.approx(-2.0 / 3.0)

    def test_zeta0_with_cones_and_a0(self, runner):
        res = invoke(runner, ["zeta0", "--euler", "2", "--orders", "1,1", "--closed", "--a0"])
        data = payload(res)
        expected = (2.0 + 2.0) / 6.0 - 2.0 * (2.0 - 0.5) / 12.0 - 1.0
        assert data["value"] == pytest.approx(expected, abs=1e-14)
        assert data["heat_trace_a0"] == pytest.approx(expected + 1.0, abs=1e-14)

    def test_distance(self, runner):
        res = invoke(runner, ["distance", "spindle", "--beta", "0", "--mu", "0", "--k", "1"])
        assert payload(res)["value"] == pytest.approx(math.pi, rel=1e-15)

    def test_flat_disk(self, runner):
        res = invoke(runner, ["det", "flat-disk", "--radius", "1.0"])
        assert res.exit_code == 0

    def test_taylor_check(self, runner, gamma):
        res = invoke(runner, ["taylor-check", "--h", "1e-3"])
        data = payload(res)
        assert data["c2"] == pytest.approx(-(gamma / 3 + 1.0 / 9.0), abs=1e-4)

    def test_find_max(self, runner):
        res = invoke(runner, ["find-max", "--tol", "1e-6"])
        assert abs(payload(res)["location"]) <= 1e-6

    def test_find_max_default_flags(self, runner):
        res = invoke(runner, ["find-max"])
        assert res.exit_code == 0
        data = payload(res)
        assert data["tolerance_achieved"] <= 1e-8
        assert abs(data["location"]) <= 1e-8


class TestFileCommands:
    def test_flat_sphere_roundtrip(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FLAT_JSON))
        res = invoke(
            runner,
            ["det", "flat-sphere", "--input", str(path), "--tol", "1e-6", "--breakdown"],
        )
        data = payload(res)
        assert math.fsum(data["breakdown"].values()) == pytest.approx(
            data["value"], abs=1e-13
        )

    def test_flat_sphere_both_forms(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FLAT_JSON))
        a = payload(invoke(runner, ["det", "flat-sphere", "--input", str(path), "--tol", "1e-7"]))
        b = payload(
            invoke(
                runner,
                ["det", "flat-sphere", "--input", str(path), "--tol", "1e-7", "--form", "as"],
            )
        )
        assert a["value"] == pytest.approx(b["value"], abs=1e-6)

    def test_flat_sphere_order_near_minus_one_default_tol(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"points": [[0.0, 0.0], [1.0, 0.0], [0.4, 0.3]], "orders": [-0.999, -0.5, -0.501]}
        ))
        res = invoke(runner, ["det", "flat-sphere", "--input", str(path)])
        assert res.exit_code == 0
        assert math.isfinite(payload(res)["value"])

    def test_area_with_mc(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FLAT_JSON))
        res = invoke(
            runner,
            [
                "area", "flat-sphere", "--input", str(path), "--tol", "1e-6",
                "--mc-samples", "50000", "--mc-seed", "3",
            ],
        )
        data = payload(res)
        sigma = math.hypot(data["mc_stderr"], data["error_estimate"])
        assert abs(data["mc_estimate"] - data["value"]) <= 4.0 * sigma

    def test_hyperbolic(self, runner, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(HYP_JSON))
        res = invoke(runner, ["det", "hyperbolic", "--input", str(path), "--breakdown"])
        data = payload(res)
        assert math.fsum(data["breakdown"].values()) == pytest.approx(
            data["value"], abs=1e-13
        )


class TestBreakdownSums:
    @pytest.mark.parametrize(
        "args",
        [
            ["det", "spindle", "--beta", "2", "--mu", "1.0", "--k", "2.0"],
            ["det", "spindle-area4pi", "--beta", "1", "--mu", "0.5"],
            ["det", "disk", "--beta", "0.5", "--k", "0.3"],
            ["det", "flat-disk", "--radius", "2.5"],
        ],
    )
    def test_parts_sum_to_total(self, runner, args):
        data = payload(invoke(runner, args + ["--breakdown"]))
        assert math.fsum(data["breakdown"].values()) == pytest.approx(
            data["value"], abs=1e-13
        )


class TestValidationAndExitCodes:
    def test_domain_error_exit_3(self, runner):
        res = runner.invoke(main, ["det", "disk", "--beta", "-2", "--k", "0"])
        assert res.exit_code == 3
        err = json.loads(res.output)["error"]
        assert err["kind"] == "domain"

    def test_spindle_admissibility_exit_3(self, runner):
        res = runner.invoke(main, ["det", "spindle", "--beta", "0.5", "--mu", "1.0"])
        assert res.exit_code == 3

    def test_usage_error_exit_2(self, runner):
        res = runner.invoke(main, ["det", "disk", "--beta", "0.5"])  # missing --k
        assert res.exit_code == 2

    def test_barnes_requires_one_route(self, runner):
        res = runner.invoke(main, ["barnes-zprime0", "--a", "1.5", "--p", "3", "--q", "2"])
        assert res.exit_code == 2

    def test_validation_happens_before_math(self, runner):
        res = runner.invoke(main, ["cbeta", "--beta", "-1.0"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("command", [["det", "flat-sphere"], ["area", "flat-sphere"]])
    @pytest.mark.parametrize(
        "text, code, kind",
        [
            ('{"points": [[2], [1, 0], [-1, 0]], "orders": [-0.5, -0.75, -0.75]}', 2, "usage"),
            ('{"orders": [-0.5, -0.75, -0.75]}', 2, "usage"),
            ('{"points": [[0, 0], [1, 0], [-1, 0]], "orders": ["x", -0.75, -0.75]}', 2, "usage"),
            ("not json", 2, "usage"),
            ('{"points": [[0, 0], [1, 0], [-1, 0]], "orders": [NaN, -0.5, -0.5]}', 3, "domain"),
            ('{"points": [[Infinity, 0], [1, 0], [-1, 0]], "orders": [-0.5, -0.75, -0.75]}',
             3, "domain"),
            ('{"points": [[NaN, 1], [1, 0], [-1, 0]], "orders": [-0.5, -0.75, -0.75]}',
             3, "domain"),
        ],
        ids=["short-point", "no-points", "string-order", "not-json",
             "nan-order", "inf-point", "nan-point"],
    )
    def test_malformed_flat_sphere_input(self, runner, tmp_path, command, text, code, kind):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        res = runner.invoke(main, command + ["--input", str(path), "--tol", "1e-6"])
        assert res.exit_code == code
        lines = res.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == kind


DOMAIN_ARGS = [
    ["cbeta", "--beta", "nan"],
    ["cbeta", "--beta", "inf"],
    ["cbeta", "--beta", "0.5", "--tol", "nan"],
    ["cbeta", "--beta", "0.5", "--p", "2", "--q", "1"],
    ["det", "spindle", "--beta", "inf"],
    ["det", "spindle", "--beta", "nan"],
    ["det", "spindle", "--beta", "0.5", "--mu", "nan"],
    ["det", "spindle", "--beta", "0.5", "--k", "inf"],
    ["det", "disk", "--beta", "nan", "--k", "1"],
    ["det", "disk", "--beta", "0.5", "--k", "inf"],
    ["det", "spindle-area4pi", "--beta", "nan"],
    ["distance", "spindle", "--beta", "nan"],
    ["det", "flat-disk", "--radius", "nan"],
    ["det", "flat-disk", "--radius", "inf"],
    ["barnes-zprime0", "--a", "nan"],
    ["barnes-zprime0", "--a", "inf"],
    ["zeta0", "--euler", "2", "--orders", "nan", "--closed"],
]

# A tolerance that is not a finite positive number is rejected by --tol itself,
# also where the command's route never uses it.
BAD_TOL_ARGS = [
    ["barnes-zprime0", "--p", "2", "--q", "1", "--tol", "nan"],
    ["det", "spindle", "--beta", "1", "--tol", "nan"],
    ["det", "disk", "--beta", "1", "--k", "1", "--tol", "nan"],
    ["find-max", "--tol", "nan"],
    ["barnes-zprime0", "--a", "1.5", "--tol", "inf"],
    ["det", "spindle", "--beta", "1", "--tol", "0"],
    ["cbeta", "--beta", "0.5", "--tol", "-1"],
    ["det", "spindle-area4pi", "--beta", "1", "--tol", "inf"],
]
DOMAIN_ARGS += BAD_TOL_ARGS

HYPERBOLIC_INPUTS = [
    ('{"orders": [-0.8, -0.7, -0.9], "liouville_integral": 1.5}', 2, "usage"),
    ("not json", 2, "usage"),
    ("[1, 2]", 2, "usage"),
    ('{"orders": 5, "phi_consts": [0.1, -0.2, 0.3], "liouville_integral": 1.5}', 2, "usage"),
    ('{"orders": ["x", -0.7, -0.9], "phi_consts": [0.1, -0.2, 0.3], "liouville_integral": 1.5}',
     2, "usage"),
    ('{"orders": [-0.8, -0.7, -0.9], "phi_consts": [0.1, -0.2, 0.3], "liouville_integral": null}',
     2, "usage"),
    ('{"orders": [-0.8, NaN, -0.9], "phi_consts": [0.1, -0.2, 0.3], "liouville_integral": 1.5}',
     3, "domain"),
    ('{"orders": [-0.8, -0.7, -0.9], "phi_consts": [0.1, NaN, 0.3], "liouville_integral": 1.5}',
     3, "domain"),
    ('{"orders": [-0.8, -0.7, -0.9], "phi_consts": [0.1, -0.2, 0.3], '
     '"liouville_integral": Infinity}', 3, "domain"),
]


def assert_one_json_error(res, code, kind):
    """Exit ``code``, no traceback, and exactly one stdout line holding a
    JSON error object of the given kind; returns that error object."""
    assert isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code == code
    assert "Traceback" not in res.output
    lines = res.stdout.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert isinstance(obj, dict) and set(obj) == {"error"}
    assert obj["error"]["kind"] == kind
    return obj["error"]


class TestExitCodeTable:
    """Non-finite numbers and malformed input files end in a structured
    error (usage 2, domain 3), never in a traceback, a "convergence" exit 4,
    a warning or a NaN payload that is not valid JSON."""

    @pytest.mark.parametrize("args", DOMAIN_ARGS, ids=" ".join)
    def test_non_finite_arguments(self, runner, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, args)
        assert_one_json_error(res, 3, "domain")

    @pytest.mark.parametrize("args", BAD_TOL_ARGS, ids=" ".join)
    def test_bad_tolerance_names_the_option(self, runner, args):
        err = assert_one_json_error(runner.invoke(main, args), 3, "domain")
        assert err["parameter"] == "--tol"

    @pytest.mark.parametrize(
        "text, code, kind",
        HYPERBOLIC_INPUTS,
        ids=["no-phi-consts", "not-json", "list", "scalar-orders", "string-order",
             "null-liouville", "nan-order", "nan-phi", "inf-liouville"],
    )
    def test_malformed_hyperbolic_input(self, runner, tmp_path, text, code, kind):
        path = tmp_path / "h.json"
        path.write_text(text)
        res = runner.invoke(main, ["det", "hyperbolic", "--input", str(path)])
        assert_one_json_error(res, code, kind)

    def test_unreadable_hyperbolic_input(self, runner, tmp_path):
        res = runner.invoke(main, ["det", "hyperbolic", "--input", str(tmp_path)])
        assert_one_json_error(res, 2, "usage")


class TestBarnesIntegralLimits:
    """Inputs the J(a) quadrature cannot serve end in a convergence error
    (exit 4) that names the a or the tol the user gave."""

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--a", "1e-14"], "J(1e-14)"),
            (["--a", "1e-8", "--tol", "1e-300"], "tol=1e-300"),
            (["--a", "1e-8", "--tol", "5e-324"], "tol=5e-324"),
        ],
        ids=["series-overflow", "tiny-tol", "smallest-tol"],
    )
    def test_convergence_error_names_input(self, runner, args, named):
        res = runner.invoke(main, ["barnes-zprime0", *args])
        err = assert_one_json_error(res, 4, "convergence")
        assert named in err["message"]


# Every command that takes --beta, with its other required options.
BETA_COMMANDS = [
    ["cbeta"],
    ["det", "spindle"],
    ["det", "spindle-area4pi"],
    ["det", "disk", "--k", "0.5"],
    ["distance", "spindle"],
]


class TestBetaOption:
    """--beta is parsed once for every command: a plain integer is an exact
    order, any other number a float, and anything else exits 2."""

    def test_cbeta_integer_takes_the_rational_route(self, runner):
        plain = json.loads(invoke(runner, ["cbeta", "--beta", "2"]).output)
        pq = json.loads(invoke(runner, ["cbeta", "--beta", "2", "--p", "3", "--q", "1"]).output)
        assert plain["meta"]["route"] == "rational"
        assert plain == pq
        zero = json.loads(invoke(runner, ["cbeta", "--beta", "0"]).output)
        assert zero["payload"]["value"] == 0.0 and zero["meta"]["route"] == "rational"

    def test_cbeta_float_takes_the_integral_route(self, runner):
        res = json.loads(invoke(runner, ["cbeta", "--beta", "2.0"]).output)
        assert res["meta"]["route"] == "integral"

    @pytest.mark.parametrize("command", BETA_COMMANDS, ids=" ".join)
    def test_non_numeric_beta_is_a_usage_error(self, runner, command):
        res = runner.invoke(main, command + ["--beta", "abc"])
        assert isinstance(res.exception, SystemExit), res.exc_info
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert "--beta" in res.output

    @pytest.mark.parametrize("orders", ["abc", "0.5,abc", "1,,x"])
    def test_non_numeric_orders_is_a_usage_error(self, runner, orders):
        res = runner.invoke(main, ["zeta0", "--euler", "2", "--orders", orders])
        assert isinstance(res.exception, SystemExit), res.exc_info
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert "--orders" in res.output

    def test_orders_parse_like_beta(self, runner):
        res = invoke(runner, ["zeta0", "--euler", "2", "--orders", " 1, 0.5,", "--closed"])
        assert payload(res)["value"] == -0.611111111111111

    @pytest.mark.parametrize("args", [
        ["det", "spindle", "--beta", "100000000"],
        ["barnes-zprime0", "--p", "100001", "--q", "1"],
    ], ids=" ".join)
    def test_rational_term_limit_exits_3_fast(self, runner, args):
        started = time.perf_counter()
        res = runner.invoke(main, args)
        assert time.perf_counter() - started < 1.0
        assert "p + q" in assert_one_json_error(res, 3, "domain")["message"]

    @settings(deadline=None, max_examples=30)
    @given(
        command=st.sampled_from(BETA_COMMANDS),
        text=st.one_of(
            st.integers(-5, 1000).map(str),
            st.integers(100_000, 10**12).map(str),
            st.floats(-0.99, 1e5).map(repr),
        ),
    )
    @example(command=["det", "spindle"], text="abc")
    @example(command=["cbeta"], text="nan")
    @example(command=["det", "spindle-area4pi"], text="inf")
    @example(command=["det", "disk", "--k", "0.5"], text="1e400")
    @example(command=["distance", "spindle"], text="-1")
    @example(command=["cbeta"], text="2.0")
    @example(command=["det", "spindle"], text="100000000")
    def test_fuzz_ends_in_a_value_or_a_structured_error(self, command, text):
        res = CliRunner().invoke(main, command + ["--beta", text])
        assert res.exit_code in (0, 2, 3, 4), (text, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
        if res.exit_code != 2:
            lines = res.stdout.splitlines()
            assert len(lines) == 1
            assert isinstance(json.loads(lines[0]), dict)


# One fast invocation of every JSON command; FLAT and HYP stand for input files.
TIMED_ARGS = [
    ["barnes-zprime0", "--p", "3", "--q", "2"],
    ["cbeta", "--beta", "0.5"],
    ["zeta0", "--euler", "2", "--orders", "1,1", "--closed"],
    ["det", "spindle", "--beta", "1"],
    ["det", "spindle-area4pi", "--beta", "1"],
    ["det", "flat-sphere", "--input", "FLAT", "--tol", "1e-6"],
    ["det", "disk", "--beta", "0.5", "--k", "0.3"],
    ["det", "flat-disk", "--radius", "2"],
    ["det", "hyperbolic", "--input", "HYP"],
    ["area", "flat-sphere", "--input", "FLAT", "--tol", "1e-6"],
    ["find-max", "--tol", "1e-6"],
    ["taylor-check"],
    ["distance", "spindle", "--beta", "0"],
]


def _command_path(args):
    return " ".join(itertools.takewhile(lambda a: not a.startswith("--"), args))


def _timed_commands(group, prefix=""):
    for name, cmd in group.commands.items():
        path = f"{prefix}{name}"
        if isinstance(cmd, click.Group):
            yield from _timed_commands(cmd, path + " ")
        elif any(param.name == "timing" for param in cmd.params):
            yield path


class TestTiming:
    """--timing adds a finite, non-negative meta.wall_time_s and changes
    nothing else; without it the key is absent."""

    @pytest.fixture()
    def files(self, tmp_path):
        flat, hyp = tmp_path / "flat.json", tmp_path / "hyp.json"
        flat.write_text(json.dumps(FLAT_JSON))
        hyp.write_text(json.dumps(HYP_JSON))
        return {"FLAT": str(flat), "HYP": str(hyp)}

    def test_every_json_command_is_listed(self):
        assert sorted(_timed_commands(main)) == sorted(map(_command_path, TIMED_ARGS))

    @pytest.mark.parametrize("args", TIMED_ARGS, ids=_command_path)
    def test_wall_time_only_with_flag(self, runner, files, args):
        args = [files.get(a, a) for a in args]
        plain = json.loads(invoke(runner, args).output)
        timed = json.loads(invoke(runner, args + ["--timing"]).output)
        assert "wall_time_s" not in plain["meta"]
        wall = timed["meta"].pop("wall_time_s")
        assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0.0
        assert timed == plain


IMPORT_PROBE = """
import json, sys
loaded = {}
import conedet
loaded["import conedet"] = "scipy" in sys.modules
import conedet.cli
loaded["import conedet.cli"] = "scipy" in sys.modules
for argv in (["cbeta", "--beta", "0.5"], ["scan", "fixed-area"]):
    conedet.cli.main(argv, standalone_mode=False)
    loaded[" ".join(argv)] = "scipy" in sys.modules
cfg = conedet.FlatSphereConfig(points=[0j, 1 + 0j, -1 + 0j], orders=[-2 / 3] * 3)
conedet.flat_sphere_area(cfg, 1e-6)
loaded["flat_sphere_area"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_scipy_stays_off_the_import_path():
    """SciPy is never loaded: not by importing the package, not by a
    closed-form command and not by a flat-sphere area. A fresh interpreter
    is needed because this test process may already hold SciPy."""
    src = str(Path(conedet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import conedet": False,
        "import conedet.cli": False,
        "cbeta --beta 0.5": False,
        "scan fixed-area": False,
        "flat_sphere_area": False,
    }


NUMPY_PROBE = """
import json, sys
loaded = {}
import conedet
loaded["import conedet"] = "numpy" in sys.modules
import conedet.cli
loaded["import conedet.cli"] = "numpy" in sys.modules
for argv in (["cbeta", "--beta", "0.5"], ["scan", "fixed-area"], ["barnes-zprime0", "--a", "1.37"]):
    conedet.cli.main(argv, standalone_mode=False)
    loaded[" ".join(argv)] = "numpy" in sys.modules
cfg = conedet.FlatSphereConfig(points=[0j, 1 + 0j, -1 + 0j], orders=[-2 / 3] * 3)
conedet.flat_sphere_area(cfg, 1e-6)
loaded["flat_sphere_area"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_numpy_loads_only_for_the_flat_sphere_area():
    """J(a), the closed forms and the scans run on Python floats; NumPy is
    first imported by the flat-sphere area. A fresh interpreter is needed
    because this test process already holds NumPy."""
    src = str(Path(conedet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import conedet": False,
        "import conedet.cli": False,
        "cbeta --beta 0.5": False,
        "scan fixed-area": False,
        "barnes-zprime0 --a 1.37": False,
        "flat_sphere_area": True,
    }


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["cbeta", "--beta", "0.37"],
            ["barnes-zprime0", "--p", "3", "--q", "2", "--cross-check"],
            ["det", "spindle", "--beta", "2", "--mu", "1.0", "--breakdown"],
            ["find-max", "--tol", "1e-6"],
        ],
    )
    def test_bit_identical_output(self, runner, args):
        first = invoke(runner, args).output
        second = invoke(runner, args).output
        assert first == second

    def test_scan_deterministic_with_mc_free_path(self, runner, tmp_path):
        out1 = invoke(runner, ["scan", "cbeta", "--start", "-0.5", "--stop", "2", "--steps", "7"]).output
        out2 = invoke(runner, ["scan", "cbeta", "--start", "-0.5", "--stop", "2", "--steps", "7"]).output
        assert out1 == out2


class TestCsvOutput:
    def test_header_and_precision(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        res = invoke(
            runner,
            ["scan", "fixed-area", "--start", "-0.5", "--stop", "0.5", "--steps", "3",
             "--out", str(out)],
        )
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated-by: conedet scan fixed-area")
        assert lines[1] == "beta,det_fixed_area"
        assert len(lines) == 5
        # full-precision round trip
        x, v = lines[3].split(",")
        assert float(x) == 0.0
        assert float(v) == pytest.approx(math.exp(1.1616845748018039), rel=1e-12)

    def test_overflowing_row_is_skipped(self, runner):
        # near beta = -1 the fixed-area log-determinant passes 709, so
        # exp(logdet) overflows; that row is skipped with its log value
        res = invoke(runner, ["scan", "fixed-area", "--start", "-0.9999", "--stop", "0", "--steps", "3"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        skipped = [line for line in lines if line.startswith("# skipped")]
        assert len(skipped) == 1
        assert skipped[0].startswith("# skipped -0.9999")
        assert "log-determinant" in skipped[0]
        assert len(lines) == 5

    def test_json_round_trip_full_precision(self, runner):
        res = invoke(runner, ["barnes-zprime0", "--p", "7", "--q", "4"])
        value = payload(res)["value"]
        assert json.loads(json.dumps({"v": value}))["v"] == value
