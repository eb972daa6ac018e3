import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conedet
from conedet.cli import build_parser
from conftest import invoke


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
    def test_cbeta_zero(self):
        res = invoke(["cbeta", "--beta", "0"])
        assert res.exit_code == 0
        assert abs(payload(res)["value"]) <= 1e-12

    def test_barnes_cross_check(self):
        res = invoke(["barnes-zprime0", "--p", "2", "--q", "1", "--cross-check"])
        assert res.exit_code == 0
        data = payload(res)
        assert abs(data["difference"]) <= 1e-8
        assert data["value"] == pytest.approx(data["integral_route"], abs=1e-8)

    def test_det_spindle_kokot(self, zp):
        res = invoke(["det", "spindle", "--beta", "1", "--mu", "0", "--k", "1"])
        expected = math.log(2.0) / 6.0 + 1.0 - 2.0 * zp
        assert payload(res)["value"] == pytest.approx(expected, abs=1e-11)

    def test_zeta0(self):
        res = invoke(["zeta0", "--euler", "2", "--orders", "", "--closed"])
        assert payload(res)["value"] == pytest.approx(-2.0 / 3.0)

    def test_zeta0_with_cones_and_a0(self):
        res = invoke(["zeta0", "--euler", "2", "--orders", "1,1", "--closed", "--a0"])
        data = payload(res)
        expected = (2.0 + 2.0) / 6.0 - 2.0 * (2.0 - 0.5) / 12.0 - 1.0
        assert data["value"] == pytest.approx(expected, abs=1e-14)
        assert data["heat_trace_a0"] == pytest.approx(expected + 1.0, abs=1e-14)

    def test_distance(self):
        res = invoke(["distance", "spindle", "--beta", "0", "--mu", "0", "--k", "1"])
        assert payload(res)["value"] == pytest.approx(math.pi, rel=1e-15)

    def test_flat_disk(self):
        res = invoke(["det", "flat-disk", "--radius", "1.0"])
        assert res.exit_code == 0

    def test_taylor_check(self, fixed_area_taylor):
        data = payload(invoke(["taylor-check"]))
        assert abs(data["c2"] - fixed_area_taylor[0]) <= 1e-14
        assert abs(data["c3"] - fixed_area_taylor[1]) <= 1e-14

    def test_find_max(self):
        res = invoke(["find-max", "--tol", "1e-6"])
        assert abs(payload(res)["location"]) <= 1e-14

    def test_find_max_default_flags(self, fixed_area_taylor):
        res = invoke(["find-max"])
        assert res.exit_code == 0
        data = payload(res)
        assert data["tolerance_achieved"] <= 1e-8
        assert abs(data["location"]) <= 1e-14
        assert abs(data["second_derivative"] - 2.0 * fixed_area_taylor[0]) <= 1e-14

    def test_find_max_tight_tol(self):
        res = invoke(["find-max", "--tol", "1e-12"])
        assert res.exit_code == 0
        assert abs(payload(res)["location"]) <= 1e-14


class TestFileCommands:
    def test_flat_sphere_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FLAT_JSON))
        res = invoke(
            ["det", "flat-sphere", "--input", str(path), "--tol", "1e-6", "--breakdown"],
        )
        data = payload(res)
        assert math.fsum(data["breakdown"].values()) == pytest.approx(
            data["value"], abs=1e-13
        )

    def test_flat_sphere_both_forms(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FLAT_JSON))
        a = payload(invoke(["det", "flat-sphere", "--input", str(path), "--tol", "1e-7"]))
        b = payload(
            invoke(
                ["det", "flat-sphere", "--input", str(path), "--tol", "1e-7", "--form", "as"],
            )
        )
        assert a["value"] == pytest.approx(b["value"], abs=1e-6)

    def test_flat_sphere_order_near_minus_one_default_tol(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"points": [[0.0, 0.0], [1.0, 0.0], [0.4, 0.3]], "orders": [-0.999, -0.5, -0.501]}
        ))
        res = invoke(["det", "flat-sphere", "--input", str(path)])
        assert res.exit_code == 0
        assert math.isfinite(payload(res)["value"])

    def test_area_with_mc(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FLAT_JSON))
        res = invoke(
            [
                "area", "flat-sphere", "--input", str(path), "--tol", "1e-6",
                "--mc-samples", "50000", "--mc-seed", "3",
            ],
        )
        data = payload(res)
        sigma = math.hypot(data["mc_stderr"], data["error_estimate"])
        assert abs(data["mc_estimate"] - data["value"]) <= 4.0 * sigma

    def test_hyperbolic(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(HYP_JSON))
        res = invoke(["det", "hyperbolic", "--input", str(path), "--breakdown"])
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
    def test_parts_sum_to_total(self, args):
        data = payload(invoke(args + ["--breakdown"]))
        assert math.fsum(data["breakdown"].values()) == pytest.approx(
            data["value"], abs=1e-13
        )


class TestValidationAndExitCodes:
    def test_domain_error_exit_3(self):
        res = invoke(["det", "disk", "--beta", "-2", "--k", "0"])
        assert res.exit_code == 3
        err = json.loads(res.output)["error"]
        assert err["kind"] == "domain"

    def test_spindle_admissibility_exit_3(self):
        res = invoke(["det", "spindle", "--beta", "0.5", "--mu", "1.0"])
        assert res.exit_code == 3

    def test_usage_error_exit_2(self):
        res = invoke(["det", "disk", "--beta", "0.5"])  # missing --k
        err = assert_one_json_error(res, 2, "usage")
        assert "--k" in err["message"]
        assert err["parameter"] == "--k"

    def test_barnes_requires_one_route(self):
        res = invoke(["barnes-zprime0", "--a", "1.5", "--p", "3", "--q", "2"])
        err = assert_one_json_error(res, 2, "usage")
        assert err["message"] == "give exactly one of --a or --p/--q"

    def test_cross_check_needs_a_rational_period(self):
        res = invoke(["barnes-zprime0", "--a", "1.1", "--cross-check"])
        assert assert_one_json_error(res, 2, "usage")["parameter"] == "--cross-check"

    def test_taylor_check_takes_no_step(self):
        res = invoke(["taylor-check", "--h", "1e-3"])
        assert assert_one_json_error(res, 2, "usage")["parameter"] == "--h"

    def test_unknown_option_is_the_parameter(self):
        res = invoke(["cbeta", "--beta", "0.5", "--bogus", "1"])
        assert assert_one_json_error(res, 2, "usage")["parameter"] == "--bogus"

    def test_validation_happens_before_math(self):
        res = invoke(["cbeta", "--beta", "-1.0"])
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
    def test_malformed_flat_sphere_input(self, tmp_path, command, text, code, kind):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        res = invoke(command + ["--input", str(path), "--tol", "1e-6"])
        assert res.exit_code == code
        lines = res.output.splitlines()
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
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == code
    assert "Traceback" not in res.output
    lines = res.output.splitlines()
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
    def test_non_finite_arguments(self, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = invoke(args)
        assert_one_json_error(res, 3, "domain")

    @pytest.mark.parametrize("args", BAD_TOL_ARGS, ids=" ".join)
    def test_bad_tolerance_names_the_option(self, args):
        err = assert_one_json_error(invoke(args), 3, "domain")
        assert err["parameter"] == "--tol"

    @pytest.mark.parametrize(
        "text, code, kind",
        HYPERBOLIC_INPUTS,
        ids=["no-phi-consts", "not-json", "list", "scalar-orders", "string-order",
             "null-liouville", "nan-order", "nan-phi", "inf-liouville"],
    )
    def test_malformed_hyperbolic_input(self, tmp_path, text, code, kind):
        path = tmp_path / "h.json"
        path.write_text(text)
        res = invoke(["det", "hyperbolic", "--input", str(path)])
        assert_one_json_error(res, code, kind)

    def test_unreadable_hyperbolic_input(self, tmp_path):
        res = invoke(["det", "hyperbolic", "--input", str(tmp_path)])
        assert_one_json_error(res, 2, "usage")


class TestBarnesIntegralLimits:
    """Inputs the J(a) quadrature cannot serve end in a convergence error
    (exit 4) that names the a or the tol the user gave; orders near the
    ends that it can serve return values."""

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--a", "1e-300"], "J(1e-300)"),
            (["--a", "1e-8", "--tol", "1e-300"], "tol=1e-300"),
            (["--a", "1e-8", "--tol", "5e-324"], "tol=5e-324"),
        ],
        ids=["series-overflow", "tiny-tol", "smallest-tol"],
    )
    def test_convergence_error_names_input(self, args, named):
        res = invoke(["barnes-zprime0", *args])
        err = assert_one_json_error(res, 4, "convergence")
        assert named in err["message"]

    def test_disk_near_the_angle_zero_end(self):
        # the Barnes term, about 5e3 here, is held to tol (a + 1/a) like any other
        res = invoke(["det", "disk", "--beta", "-0.9999", "--k", "0", "--breakdown"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        a, tol = -0.9999 + 1.0, out["meta"]["tol"]
        want = -2.0 * conedet.zprime0_rational(conedet.RationalOrder(1, 10000))
        assert abs(out["payload"]["breakdown"]["barnes"] - want) <= 4.0 * tol * (a + 1.0 / a)

    @pytest.mark.parametrize("args", [
        ["cbeta", "--beta", "1.7e308"],
        ["barnes-zprime0", "--a", "1.7e308"],
    ], ids=" ".join)
    def test_largest_a_names_a_or_the_float_range(self, args):
        # past a ~ 8e306 the J(a) bracket series overflows a float; the
        # cutoff log(10 scale / tol) must not overflow on the way there
        res = invoke(args)
        assert res.exit_code in (3, 4)
        kind = "domain" if res.exit_code == 3 else "convergence"
        message = assert_one_json_error(res, res.exit_code, kind)["message"]
        assert "J(1.7e+308)" in message or "float range" in message


# Inputs whose result, or a step on the way, leaves the float range; FLAT
# and HYP stand for the input files below.
FLOAT_RANGE_ARGS = [
    ["cbeta", "--beta", "1e155"],
    ["det", "spindle", "--beta", "1e300", "--k", "1e-300"],
    ["det", "disk", "--beta", "0.5", "--k", "1e308"],
    ["det", "spindle", "--beta", "1", "--mu", "1e200"],
    ["det", "spindle-area4pi", "--beta", "1", "--mu", "1e300"],
    ["zeta0", "--euler", "2", "--orders", "1e308,1e308"],
    ["det", "hyperbolic", "--input", "HYP"],
    ["det", "flat-sphere", "--input", "FLAT"],
    ["area", "flat-sphere", "--input", "FAR"],
]
FLOAT_RANGE_FILES = {
    # phi terms of opposite infinite sign: -inf + inf in the sum
    "HYP": {"orders": [-0.8, -0.7, -0.9], "phi_consts": [1e308, -1e308, 1e308],
            "liouville_integral": 1e308},
    # the area scales like 1e150^-2 and underflows to 0 before its log
    "FLAT": {"points": [[0.0, 0.0], [1e150, 0.0], [0.0, 1e150]],
             "orders": [-2.0 / 3.0] * 3},
    # squared distances in the outside region would overflow past 1e150
    "FAR": {"points": [[1e200, 0.0], [0.0, 1.0], [1.0, 0.0]], "orders": [-0.9, -0.9, -0.2]},
}


class TestFloatRange:
    """A result outside the float range ends in a domain error (exit 3):
    never a NaN or +-inf payload, which is not JSON, nor a traceback."""

    @pytest.mark.parametrize("args", FLOAT_RANGE_ARGS, ids=" ".join)
    def test_domain_error(self, tmp_path, args):
        for i, arg in enumerate(args):
            if arg in FLOAT_RANGE_FILES:
                path = tmp_path / f"{arg}.json"
                path.write_text(json.dumps(FLOAT_RANGE_FILES[arg]))
                args = args[:i] + [str(path)] + args[i + 1:]
        assert_one_json_error(invoke(args), 3, "domain")

    def test_scan_skips_an_infinite_row(self):
        args = ["scan", "cbeta", "--start", "1e154", "--stop", "1e156", "--steps", "3"]
        res = invoke(args)
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[2].startswith("1e+154,")
        assert [line.split(":")[1] for line in lines[3:]] == [
            " C(beta) must be finite, got -inf"
        ] * 2

    @pytest.mark.parametrize("mu", ["-1", "nan", "inf"])
    def test_scan_rejects_bad_mu(self, mu):
        res = invoke(["scan", "fixed-area", "--mu", mu])
        assert_one_json_error(res, 3, "domain")

    @pytest.mark.parametrize("steps", ["10001", "10" * 20])
    def test_scan_rejects_too_many_steps(self, steps):
        # each row costs milliseconds and the grid is a list: a huge --steps
        # would run for hours or exhaust memory
        started = time.perf_counter()
        res = invoke(["scan", "cbeta", "--steps", steps])
        assert time.perf_counter() - started < 1.0
        assert "steps" in assert_one_json_error(res, 3, "domain")["message"]

    @pytest.mark.parametrize("args", [
        ["--mc-samples", "20000", "--mc-seed", "-1"],
        ["--mc-samples", "100000000000000"],
    ], ids=["negative-seed", "too-many-samples"])
    def test_monte_carlo_inputs(self, tmp_path, args):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FLAT_JSON))
        res = invoke(["area", "flat-sphere", "--input", str(path), "--tol", "1e-6", *args])
        assert_one_json_error(res, 3, "domain")


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

    def test_cbeta_integer_takes_the_rational_route(self):
        plain = json.loads(invoke(["cbeta", "--beta", "2"]).output)
        pq = json.loads(invoke(["cbeta", "--beta", "2", "--p", "3", "--q", "1"]).output)
        assert plain["meta"]["route"] == "rational"
        assert plain == pq
        zero = json.loads(invoke(["cbeta", "--beta", "0"]).output)
        assert zero["payload"]["value"] == 0.0 and zero["meta"]["route"] == "rational"

    def test_cbeta_float_takes_the_integral_route(self):
        res = json.loads(invoke(["cbeta", "--beta", "2.0"]).output)
        assert res["meta"]["route"] == "integral"

    @pytest.mark.parametrize("command", BETA_COMMANDS, ids=" ".join)
    def test_non_numeric_beta_is_a_usage_error(self, command):
        res = invoke(command + ["--beta", "abc"])
        assert assert_one_json_error(res, 2, "usage")["parameter"] == "--beta"

    @pytest.mark.parametrize("orders", ["abc", "0.5,abc", "1,,x"])
    def test_non_numeric_orders_is_a_usage_error(self, orders):
        res = invoke(["zeta0", "--euler", "2", "--orders", orders])
        assert assert_one_json_error(res, 2, "usage")["parameter"] == "--orders"

    def test_orders_parse_like_beta(self):
        res = invoke(["zeta0", "--euler", "2", "--orders", " 1, 0.5,", "--closed"])
        assert payload(res)["value"] == -0.611111111111111

    @pytest.mark.parametrize("args", [
        ["det", "spindle", "--beta", "100000000"],
        ["barnes-zprime0", "--p", "100001", "--q", "1"],
    ], ids=" ".join)
    def test_rational_term_limit_exits_3_fast(self, args):
        started = time.perf_counter()
        res = invoke(args)
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
        res = invoke(command + ["--beta", text])
        assert res.exit_code in (0, 2, 3, 4), (text, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        lines = res.output.splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)


# Number-like option texts: any float's repr (NaN, +-inf, huge, tiny),
# integers beyond the float range, and text that is not a number.
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-10**400, 10**400).map(str),
    st.sampled_from(["abc", "", "1e400", "-1e-3", " 2 ", "0x10", "1_000", "--beta"]),
)
COORDINATE = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
    st.sampled_from([math.nan, math.inf, 1e300, -1e-300, "x", None]),
)
FLAT_FILES = st.one_of(
    st.fixed_dictionaries({
        "points": st.lists(st.lists(COORDINATE, min_size=2, max_size=2), min_size=3, max_size=3),
        "orders": st.tuples(st.floats(-0.95, 0.5), st.floats(-0.95, 0.5)).map(
            lambda b: [b[0], b[1], -2.0 - b[0] - b[1]]),
    }),
    st.fixed_dictionaries({
        "points": st.lists(st.lists(COORDINATE, max_size=3), max_size=4),
        "orders": st.lists(st.one_of(st.floats(), st.text(max_size=2)), max_size=4),
    }),
    st.dictionaries(st.sampled_from(["points", "orders"]), st.integers()),
)
HYP_FILES = st.fixed_dictionaries({
    "orders": st.lists(st.floats(), min_size=3, max_size=4),
    "phi_consts": st.lists(st.floats(), min_size=3, max_size=4),
    "liouville_integral": st.one_of(st.floats(), st.none()),
})
# command -> the options whose text is fuzzed; the fixed part keeps each run cheap
FUZZED_OPTIONS = {
    ("cbeta", "--beta", "0.5"): ("--tol",),
    ("barnes-zprime0", "--a", "1.5"): ("--tol",),
    ("det", "spindle", "--beta", "1"): ("--mu", "--k", "--tol"),
    ("det", "spindle-area4pi", "--beta", "1"): ("--mu", "--tol"),
    ("det", "disk", "--beta", "0.5", "--k", "1"): ("--k", "--tol"),
    ("det", "flat-disk", "--radius", "1"): ("--radius",),
    ("distance", "spindle", "--beta", "0"): ("--mu", "--k"),
    ("zeta0", "--euler", "2"): ("--orders",),
    ("scan", "cbeta", "--steps", "3"): ("--start", "--stop", "--steps"),
    ("scan", "fixed-area", "--steps", "3"): ("--start", "--stop", "--steps", "--mu"),
    ("det", "hyperbolic", "--input", "HYP"): ("--tol",),
    ("det", "flat-sphere", "--tol", "1e-3", "--input", "FLAT"): (),
    ("area", "flat-sphere", "--tol", "1e-3", "--input", "FLAT"): (),
}


# --steps texts: the extremes and non-integers; a valid count above 5 only
# costs time (each row takes milliseconds)
STEPS_TEXT = st.one_of(
    st.integers(-2, 5).map(str),
    st.integers(10_001, 10**400).map(str),
    st.floats().map(repr),
    st.sampled_from(["abc", "", "3.0", "1e3"]),
)


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZED_OPTIONS)))
    argv = list(command)
    for name in FUZZED_OPTIONS[command]:
        if name == "--orders":
            argv += [name, ",".join(draw(st.lists(NUMBER_TEXT, max_size=3)))]
        elif name == "--steps":
            argv += [name, draw(STEPS_TEXT)]
        elif draw(st.booleans()):
            argv += [name, draw(NUMBER_TEXT)]
    return argv


class TestFuzzOptions:
    """Every option's text and every input file ends in exit 0, 2, 3 or 4
    with one JSON object on stdout (a scan's CSV on exit 0), and nothing but
    SystemExit is raised."""

    @settings(deadline=None, max_examples=60)
    @given(argv=fuzzed_argv(), flat=FLAT_FILES, hyp=HYP_FILES)
    @example(argv=["scan", "cbeta", "--steps", "3", "--start", "-1e-3"], flat={}, hyp={})
    @example(argv=["zeta0", "--euler", "2", "--orders", "-0.5,-0.25"], flat={}, hyp={})
    @example(argv=["det", "spindle", "--beta", "1", "--k", "--beta"], flat={}, hyp={})
    def test_exit_and_output(self, tmp_path_factory, argv, flat, hyp):
        files = {"FLAT": flat, "HYP": hyp}
        for i, arg in enumerate(argv):
            if arg in files:
                path = tmp_path_factory.getbasetemp() / f"fuzz-{arg}.json"
                path.write_text(json.dumps(files[arg]))
                argv[i] = str(path)
        res = invoke(argv)
        assert res.exit_code in (0, 2, 3, 4), (argv, res.output)
        if argv[0] == "scan" and res.exit_code == 0:
            assert res.output.startswith("# generated-by: conedet scan "), argv
            return
        lines = res.output.splitlines()
        assert len(lines) == 1, (argv, res.output)
        obj = json.loads(lines[0])
        assert set(obj) == ({"payload", "meta"} if res.exit_code == 0 else {"error"}), argv


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


def _command_parsers(parser, path=""):
    """(command path, parser) for every command of the argparse tree."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _command_parsers(sub, f"{path} {name}".strip())


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
        timed = [path for path, parser in _command_parsers(build_parser())
                 if "--timing" in parser._option_string_actions]
        assert sorted(timed) == sorted(map(_command_path, TIMED_ARGS))

    @pytest.mark.parametrize("args", TIMED_ARGS, ids=_command_path)
    def test_wall_time_only_with_flag(self, files, args):
        args = [files.get(a, a) for a in args]
        plain = json.loads(invoke(args).output)
        timed = json.loads(invoke(args + ["--timing"]).output)
        assert "wall_time_s" not in plain["meta"]
        wall = timed["meta"].pop("wall_time_s")
        assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0.0
        assert timed == plain


IMPORT_PROBE = """
import json, sys
loaded = {}
def record(step):
    loaded[step] = sorted(m for m in sys.modules
                          if m in ("click", "numpy", "scipy") or m.startswith("conedet."))
import conedet
record("import conedet")
import conedet.cli
record("import conedet.cli")
for argv in (["cbeta", "--beta", "0.5"], ["barnes-zprime0", "--a", "1.37"],
             ["zeta0", "--euler", "2", "--orders", "1,1", "--closed"],
             ["det", "spindle", "--beta", "1"], ["scan", "fixed-area"]):
    conedet.cli.main(argv, standalone_mode=False)
    record(" ".join(argv[:2]))
cfg = conedet.FlatSphereConfig(points=[0j, 1 + 0j, -1 + 0j], orders=[-2 / 3] * 3)
conedet.flat_sphere_area(cfg, 1e-6)
record("flat_sphere_area")
unresolved = [name for name in conedet.__all__ if getattr(conedet, name, None) is None]
record("conedet.__all__")
print(json.dumps({"loaded": loaded, "unresolved": unresolved}))
"""


@pytest.fixture(scope="module")
def import_probe():
    """The modules loaded after each step of IMPORT_PROBE, run in a fresh
    interpreter because this test process already holds NumPy and more."""
    src = str(Path(conedet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_stays_off_the_import_path(import_probe):
    """SciPy is never loaded: not by importing the package, not by a
    closed-form command and not by a flat-sphere area."""
    assert not [step for step, mods in import_probe["loaded"].items() if "scipy" in mods]


def test_numpy_loads_only_for_the_flat_sphere_area(import_probe):
    """J(a), the closed forms and the scans run on Python floats; NumPy is
    first imported by the flat-sphere area."""
    with_numpy = [step for step, mods in import_probe["loaded"].items() if "numpy" in mods]
    assert with_numpy == ["flat_sphere_area", "conedet.__all__"]


def test_each_command_loads_only_what_it_needs(import_probe):
    """The package imports its submodules on first use, the CLI parses
    without Click, and each command body imports only its formula modules."""
    loaded = import_probe["loaded"]
    assert loaded["import conedet"] == []
    assert loaded["import conedet.cli"] == ["conedet.cli", "conedet.errors"]
    for step in ("cbeta --beta", "barnes-zprime0 --a", "zeta0 --euler"):
        assert "conedet.determinants" not in loaded[step], step
        assert "conedet.extremal" not in loaded[step], step
    assert "conedet.determinants" in loaded["det spindle"]
    assert "conedet.extremal" not in loaded["det spindle"]
    assert not [step for step, mods in loaded.items() if "click" in mods]
    assert import_probe["unresolved"] == []


def test_submodules_resolve_after_a_bare_import():
    """``import conedet`` binds no submodule, yet ``conedet.determinants``
    and the other submodules resolve as attributes, imported on access."""
    src = str(Path(conedet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, conedet\n"
             "print(sorted(m for m in sys.modules if m.startswith('conedet.')))\n"
             "print(conedet.determinants.logdet_spindle.__module__)\n"
             "print(sorted(name for name in conedet._EXPORTS\n"
             "             if getattr(conedet, name).__name__ != 'conedet.' + name))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "conedet.determinants", "[]"]


@pytest.mark.parametrize("module", sorted(conedet._EXPORTS))
def test_export_lists_agree(module):
    """The package's lazy export table lists what each submodule's
    ``__all__`` lists, where it has one."""
    mod = getattr(conedet, module)
    if hasattr(mod, "__all__"):
        assert set(conedet._EXPORTS[module]) == set(mod.__all__)


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
    def test_bit_identical_output(self, args):
        first = invoke(args).output
        second = invoke(args).output
        assert first == second

    def test_scan_deterministic_with_mc_free_path(self, tmp_path):
        out1 = invoke(["scan", "cbeta", "--start", "-0.5", "--stop", "2", "--steps", "7"]).output
        out2 = invoke(["scan", "cbeta", "--start", "-0.5", "--stop", "2", "--steps", "7"]).output
        assert out1 == out2


class TestCsvOutput:
    def test_header_and_precision(self, tmp_path):
        out = tmp_path / "curve.csv"
        res = invoke(
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

    def test_overflowing_row_is_skipped(self):
        # near beta = -1 the fixed-area log-determinant passes 709, so
        # exp(logdet) overflows; that row is skipped with its log value
        res = invoke(["scan", "fixed-area", "--start", "-0.9999", "--stop", "0", "--steps", "3"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        skipped = [line for line in lines if line.startswith("# skipped")]
        assert len(skipped) == 1
        assert skipped[0].startswith("# skipped -0.9999")
        assert "log-determinant" in skipped[0]
        assert len(lines) == 5

    def test_json_round_trip_full_precision(self):
        res = invoke(["barnes-zprime0", "--p", "7", "--q", "4"])
        value = payload(res)["value"]
        assert json.loads(json.dumps({"v": value}))["v"] == value
