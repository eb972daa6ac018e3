"""Command-line interface: batch evaluation of every determinant formula
with JSON results on stdout, CSV curve emission for the scans, and
structured error objects with distinct exit codes (usage 2, domain 3,
convergence 4), each one JSON object on stdout.

Every command is declared once through ``command``: its path, its options
and its body.  A JSON command's body returns ``(payload, meta)``, which
``main`` prints as one JSON object; it also gets the shared ``--timing``
flag.  Output is bit-identical across identical invocations; wall-clock
timing is therefore opt-in via --timing, which adds ``meta.wall_time_s``.
``--tol`` is parsed by ``_tol``, the one place where the CLI validates a
tolerance, and ``--beta`` by ``_beta_value``, the one place where it parses
one.

The parser is the standard library's argparse.  Each command's body
imports the formula modules it uses when it runs, so a process loads only
what its command needs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from functools import lru_cache
from math import fsum, log

from .errors import ConvergenceError, DomainError, check_positive

EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4


def _fail(kind: str, message: str, parameter=None, code: int = EXIT_DOMAIN):
    print(json.dumps({"error": {"kind": kind, "message": message, "parameter": parameter}}))
    sys.exit(code)


def _usage(message: str, parameter=None):
    _fail("usage", message, parameter, code=EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors as JSON on stdout, and no positionals: a
    token that is not one of the parser's option strings is an option's
    value, also when it starts with "-" (``--beta -1e-3``, ``--orders
    -0.5,-0.2``)."""

    def error(self, message):
        named = re.search(r"(?:^argument |required: )(--[\w-]+)", message)
        _usage(message, named.group(1) if named else None)

    def _parse_optional(self, arg_string):
        if arg_string.split("=", 1)[0] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _beta_value(text: str):
    """Parse a cone order, preserving integer-typed inputs exactly."""
    try:
        return int(text)
    except ValueError:
        return _float(text)


def _orders_value(text: str) -> list:
    """Parse comma-separated cone orders, each as ``--beta`` is parsed."""
    return [_beta_value(tok) for tok in text.split(",") if tok.strip()]


def _tol(text: str) -> float:
    """NaN, +-inf and values <= 0 end as a domain error on --tol (exit 3),
    whether or not the command's route uses the tolerance."""
    value = _float(text)
    try:
        check_positive(value, "tolerance")
    except DomainError as err:
        _fail("domain", str(err), parameter="--tol")
    return value


def option(*flags, **kwargs):
    """One option: the ``add_argument`` arguments, applied when a parser is
    built."""
    return flags, kwargs


def tol_option(default: float, what: str = "Tolerance"):
    return option("--tol", type=_tol, default=default, help=f"{what} (default {default:g}).")


# the flat-sphere area's tolerance is absolute, not relative to the area
AREA_TOL = tol_option(1e-8, "Absolute tolerance on the area, not relative to it")


BETA = option("--beta", type=_beta_value, metavar="NUMBER", required=True,
              help="Cone order; plain integers stay exact.")
MU = option("--mu", type=float, default=0.0)
CURVATURE = option("--k", "--K", dest="curvature", type=float, default=1.0)
BREAKDOWN = option("--breakdown", action="store_true")
INPUT = option("--input", dest="input_path", required=True)
SCAN_STOP = option("--stop", type=float, default=5.0)
SCAN_STEPS = option("--steps", type=int, default=60)
OUT = option("--out")

GROUPS = {
    "det": "Log-determinant formulas.",
    "area": "Total-area integrals.",
    "scan": "Curve tabulation (CSV).",
    "distance": "Geodesic distances.",
}
COMMANDS = {}  # "det spindle" -> (body, options, prints JSON)


def command(path: str, *options, json_output: bool = True):
    """Declare the command at ``path`` with the given ``option`` entries.

    A JSON command's body returns ``(payload, meta)``; it also takes
    ``--timing``.  A scan's body prints its own CSV.
    """

    def register(fn):
        COMMANDS[path] = (fn, options, json_output)
        return fn

    return register


@lru_cache(maxsize=1)
def build_parser(prog: str = "conedet") -> argparse.ArgumentParser:
    """The whole command tree, built once per process."""
    parser = _Parser(
        prog=prog,
        description="Determinants of Laplacians on surfaces with conical singularities.",
    )
    subcommands = {(): parser.add_subparsers(required=True, metavar="COMMAND")}
    for path, (fn, options, json_output) in COMMANDS.items():
        *group, name = path.split()
        group = tuple(group)
        if group not in subcommands:
            sub = subcommands[()].add_parser(group[0], help=GROUPS[group[0]])
            subcommands[group] = sub.add_subparsers(required=True, metavar="COMMAND")
        cmd = subcommands[group].add_parser(name, help=fn.__doc__.splitlines()[0],
                                            description=fn.__doc__)
        for flags, kwargs in options:
            cmd.add_argument(*flags, **kwargs)
        if json_output:
            cmd.add_argument("--timing", action="store_true",
                             help="Add the wall time as meta.wall_time_s.")
        cmd.set_defaults(body=fn, json_output=json_output)
    return parser


def main(args=None, prog_name: str = "conedet", standalone_mode: bool = True) -> None:
    """Run one command: ``args`` defaults to ``sys.argv[1:]``.

    Output goes to ``sys.stdout`` as it is at call time.  An error raises
    SystemExit(2, 3 or 4) after printing its JSON object; success returns.
    ``standalone_mode`` changes nothing; it is accepted for callers written
    against the former Click entry point, as is ``main.main`` below.

    A DomainError is exit 3 and a ConvergenceError exit 4.  A float overflow
    or a math ValueError (log of 0, inf - inf in fsum, a NaN or inf refused
    by the JSON output) is a result outside the float range: exit 3 as well.
    """
    opts = vars(build_parser(prog_name).parse_args(sys.argv[1:] if args is None else args))
    body, json_output, timing = opts.pop("body"), opts.pop("json_output"), opts.pop("timing", False)
    try:
        started = time.perf_counter()
        if not json_output:
            body(**opts)
            return
        payload, meta = body(**opts)
        if timing:
            meta = dict(meta, wall_time_s=time.perf_counter() - started)
        print(json.dumps({"payload": payload, "meta": meta}, allow_nan=False))
    except DomainError as err:
        _fail("domain", str(err), code=EXIT_DOMAIN)
    except ConvergenceError as err:
        _fail("convergence", str(err), code=EXIT_CONVERGENCE)
    except (OverflowError, ValueError) as err:
        _fail("domain", f"result outside the float range: {err}", code=EXIT_DOMAIN)


main.main = main


def _logdet_payload(total: float, parts: dict, breakdown: bool) -> dict:
    payload = {"value": total}
    if breakdown:
        payload["breakdown"] = parts
    return payload


def _read_input(path: str, what: str, parse):
    """``parse`` applied to the JSON in ``path``; an unreadable file, bad JSON
    or a missing or ill-shaped field is a usage error on --input.

    Callers build their config object from the result, outside this call:
    ConfigurationError is a ValueError and must stay "domain".
    """
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, TypeError, KeyError) as err:
        _usage(f"malformed {what} input: {type(err).__name__}: {err}", "--input")


def _flat_config(path: str):
    from .quadrature import FlatSphereConfig

    points, orders = _read_input(path, "flat-sphere", lambda raw: (
        [complex(x, y) for x, y in raw["points"]],
        [float(b) for b in raw["orders"]],
    ))
    return FlatSphereConfig(points=points, orders=orders)


def _write_curve(result, header: str, generated_by: str, out):
    lines = [f"# generated-by: {generated_by}", header]
    for x, v in result.rows:
        lines.append(f"{x:.17g},{v:.17g}")
    for x, reason in result.skipped:
        lines.append(f"# skipped {x:.17g}: {reason}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@command(
    "barnes-zprime0",
    option("--a", dest="a_real", type=float, help="Real first period."),
    option("--p", type=int, help="Numerator of a rational period."),
    option("--q", type=int, help="Denominator of a rational period."),
    tol_option(1e-10),
    option("--cross-check", action="store_true",
           help="Evaluate both routes and their difference."),
)
def barnes_zprime0_cmd(a_real, p, q, tol, cross_check):
    """zeta'_B(0; a, 1, 1) for a = P/Q (closed form) or real --a (quadrature)."""
    from . import barnes
    from .special import RationalOrder

    if (p is None) != (q is None):
        _usage("--p and --q must be given together")
    if (a_real is None) == (p is None):
        _usage("give exactly one of --a or --p/--q")
    if p is not None:
        order = RationalOrder(p, q)
        value = barnes.zprime0_rational(order)
        payload = {"value": value}
        route = "rational"
        if cross_check:
            other = barnes.zprime0_integral(order.value, tol)
            payload["integral_route"] = other
            payload["difference"] = value - other
    else:
        payload = {"value": barnes.zprime0_integral(a_real, tol)}
        route = "integral"
        if cross_check:
            payload["taylor_route"] = (
                barnes.zprime0_taylor_near1(a_real) if abs(a_real - 1.0) <= 0.25 else None
            )
    return payload, {"tol": tol, "route": route}


@command(
    "cbeta",
    BETA,
    option("--p", type=int, help="Numerator of exact beta + 1."),
    option("--q", type=int, help="Denominator of exact beta + 1."),
    tol_option(1e-10),
    BREAKDOWN,
)
def cbeta_cmd(beta, p, q, tol, breakdown):
    """The per-singularity contribution C(beta)."""
    from .cone import ConeOrder, c_beta_parts
    from .special import RationalOrder

    if (p is None) != (q is None):
        _usage("--p and --q must be given together")
    order = ConeOrder.of(beta) if p is None else ConeOrder(beta, RationalOrder(p, q))
    parts = c_beta_parts(order, tol)
    route = "integral" if order.exact is None else "rational"
    return _logdet_payload(fsum(parts.values()), parts, breakdown), {"tol": tol, "route": route}


@command(
    "zeta0",
    option("--euler", type=int, required=True, help="Topological Euler characteristic."),
    option("--orders", type=_orders_value, default="", metavar="LIST",
           help="Comma-separated cone orders."),
    option("--boundary", action="store_true", default=False),
    option("--closed", dest="boundary", action="store_false", default=False),
    option("--a0", dest="want_a0", action="store_true",
           help="Also report the heat-trace constant."),
)
def zeta0_cmd(euler, orders, boundary, want_a0):
    """zeta(0) of the surface Laplacian from topology and cone orders."""
    from .cone import SurfaceTopology, heat_trace_a0, zeta0_surface

    topo = SurfaceTopology(euler_top=euler, orders=orders, has_boundary=boundary)
    payload = {"value": zeta0_surface(topo)}
    if want_a0:
        payload["heat_trace_a0"] = heat_trace_a0(topo)
    return payload, {"route": "closed-form"}


@command("det spindle", BETA, MU, CURVATURE, tol_option(1e-10), BREAKDOWN)
def det_spindle(beta, mu, curvature, tol, breakdown):
    """Constant-positive-curvature sphere with two equal cone points."""
    from . import determinants

    cfg = determinants.SpindleConfig(beta=beta, mu=mu, curvature=curvature)
    result = determinants.logdet_spindle(cfg, tol)
    return _logdet_payload(result.total, result.parts, breakdown), {
        "tol": tol, "route": "closed-form"}


@command("det spindle-area4pi", BETA, MU, tol_option(1e-10), BREAKDOWN)
def det_spindle_area4pi(beta, mu, tol, breakdown):
    """Fixed-area-4pi spindle determinant."""
    from . import determinants

    result = determinants.logdet_spindle_area4pi(beta, mu, tol)
    return _logdet_payload(result.total, result.parts, breakdown), {
        "tol": tol, "route": "closed-form"}


@command(
    "det flat-sphere",
    INPUT,
    AREA_TOL,
    option("--form", choices=["cone", "as"], default="cone",
           help="Which of the two equivalent singular-term assemblies to use."),
    BREAKDOWN,
)
def det_flat_sphere(input_path, tol, form, breakdown):
    """Flat conical metric on the sphere; config from a JSON file."""
    from . import determinants

    cfg = _flat_config(input_path)
    fn = determinants.logdet_flat_sphere if form == "cone" else determinants.logdet_flat_sphere_AS
    result = fn(cfg, tol)
    return _logdet_payload(result.total, result.parts, breakdown), {"tol": tol, "route": form}


@command("det disk", BETA, option("--k", type=float, required=True), tol_option(1e-10),
         BREAKDOWN)
def det_disk(beta, k, tol, breakdown):
    """Constant-curvature cone disk (Dirichlet).

    The disk |z| <= 1 with metric 4|z|^(2 beta)|dz|^2 / (1 + k|z|^(2 beta + 2))^2;
    beta = k = 0 is the flat disk of radius 2.
    """
    from . import determinants

    cfg = determinants.DiskConfig(beta=beta, k=k)
    result = determinants.logdet_disk(cfg, tol)
    return _logdet_payload(result.total, result.parts, breakdown), {
        "tol": tol, "route": "closed-form"}


@command("det flat-disk", option("--radius", type=float, required=True), BREAKDOWN)
def det_flat_disk(radius, breakdown):
    """Flat disk of the given radius (Dirichlet)."""
    from . import determinants

    value = determinants.logdet_flat_disk(radius)
    payload = {"value": value}
    if breakdown:
        radius_term = -log(radius) / 3.0
        payload["breakdown"] = {
            "log_radius": radius_term,
            "constant": value - radius_term,
        }
    return payload, {"route": "closed-form"}


@command("det hyperbolic", INPUT, tol_option(1e-10), BREAKDOWN)
def det_hyperbolic(input_path, tol, breakdown):
    """Hyperbolic conical sphere from a JSON summary
    {"orders": [...], "phi_consts": [...], "liouville_integral": x}."""
    from . import determinants

    orders, phi_consts, liouville = _read_input(input_path, "hyperbolic", lambda raw: (
        [float(b) for b in raw["orders"]],
        [float(c) for c in raw["phi_consts"]],
        float(raw["liouville_integral"]),
    ))
    summary = determinants.HyperbolicSummary(
        orders=orders, phi_consts=phi_consts, liouville_integral=liouville
    )
    result = determinants.logdet_hyperbolic_sphere(summary, tol)
    return _logdet_payload(result.total, result.parts, breakdown), {
        "tol": tol, "route": "closed-form"}


@command(
    "area flat-sphere",
    INPUT,
    AREA_TOL,
    option("--mc-samples", type=int, help="Also run the Monte-Carlo oracle."),
    option("--mc-seed", type=int, default=0),
)
def area_flat_sphere(input_path, tol, mc_samples, mc_seed):
    """Improper plane integral of the flat conical density."""
    from . import quadrature

    cfg = _flat_config(input_path)
    report = quadrature.flat_sphere_area(cfg, tol).require_converged("area")
    payload = {
        "value": report.value,
        "error_estimate": report.error_estimate,
        "evaluations": report.evaluations,
    }
    if mc_samples is not None:
        est, stderr = quadrature.flat_sphere_area_mc(cfg, mc_samples, mc_seed)
        payload["mc_estimate"] = est
        payload["mc_stderr"] = stderr
    return payload, {"tol": tol, "route": "partition-of-unity quadrature"}


@command("scan cbeta", option("--start", type=float, default=-0.9), SCAN_STOP, SCAN_STEPS, OUT,
         json_output=False)
def scan_cbeta(start, stop, steps, out):
    """Tabulate beta -> C(beta)."""
    from . import extremal

    grid = extremal.ScanGrid(param="beta", start=start, stop=stop, steps=steps)
    result = extremal.scan_curve("cbeta", grid)
    _write_curve(
        result,
        "beta,c_beta",
        f"conedet scan cbeta --start {start} --stop {stop} --steps {steps}",
        out,
    )


@command("scan fixed-area", option("--start", type=float, default=-0.89), SCAN_STOP,
         SCAN_STEPS, MU, OUT, json_output=False)
def scan_fixed_area(start, stop, steps, mu, out):
    """Tabulate beta -> det at fixed area 4 pi (exponentiated)."""
    from . import extremal

    grid = extremal.ScanGrid(param="beta", start=start, stop=stop, steps=steps, fixed_other=mu)
    result = extremal.scan_curve("fixed_area_det", grid)
    _write_curve(
        result,
        "beta,det_fixed_area",
        f"conedet scan fixed-area --start {start} --stop {stop} --steps {steps} --mu {mu}",
        out,
    )


@command("find-max", tol_option(1e-8))
def find_max_cmd(tol):
    """Locate the fixed-area determinant's interior maximum at mu = 0."""
    from . import extremal

    report = extremal.find_local_max(tol)
    return (
        {
            "location": report.location,
            "value": report.value,
            "second_derivative": report.second_derivative,
            "tolerance_achieved": report.tolerance_achieved,
        },
        {"tol": tol, "route": report.method},
    )


@command("taylor-check", option("--h", dest="step", type=float, default=1e-3))
def taylor_check_cmd(step):
    """Expansion coefficients of the fixed-area curve at 0 from its derivative."""
    from . import extremal

    c2, c3 = extremal.taylor_check_at_zero(step)
    route = "Richardson central differences of the exact derivative L' (J'(a) quadrature)"
    return {"c2": c2, "c3": c3}, {"h": step, "route": route}


@command("distance spindle", BETA, MU, CURVATURE)
def distance_spindle(beta, mu, curvature):
    """Distance between the two cone points of a spindle."""
    from . import determinants

    cfg = determinants.SpindleConfig(beta=beta, mu=mu, curvature=curvature)
    return {"value": determinants.spindle_distance(cfg)}, {"route": "closed-form"}


if __name__ == "__main__":
    main()
