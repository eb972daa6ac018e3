"""Command-line interface: batch evaluation of every determinant formula
with JSON results on stdout, CSV curve emission for the scans, and
structured error objects with distinct exit codes (usage 2, domain 3,
convergence 4).

Every JSON command is declared through ``json_command``: its body returns
``(payload, meta)`` and the decorator prints them as one JSON object, maps
math errors to exit codes and adds the shared ``--timing`` flag.  Output is
bit-identical across identical invocations; wall-clock timing is therefore
opt-in via --timing, which adds ``meta.wall_time_s``.  ``--tol`` is declared
through ``tol_option``, the one place where the CLI validates a tolerance,
and ``--beta`` through ``beta_option``, the one place where it parses one.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps
from math import log

import click

from . import barnes, determinants, extremal, quadrature
from .cone import ConeOrder, SurfaceTopology, c_beta_parts, heat_trace_a0, zeta0_surface
from .errors import ConvergenceError, DomainError, check_positive
from .special import RationalOrder

EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4


def _fail(kind: str, message: str, parameter=None, code: int = EXIT_DOMAIN):
    click.echo(json.dumps({"error": {"kind": kind, "message": message, "parameter": parameter}}))
    sys.exit(code)


def handle_math_errors(fn):
    """Map DomainError to exit 3 and ConvergenceError to exit 4.  A float
    overflow or a math ValueError (log of 0, inf - inf in fsum, a NaN or
    inf refused by the JSON output) is a result outside the float range:
    exit 3 as well."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DomainError as err:
            _fail("domain", str(err), code=EXIT_DOMAIN)
        except ConvergenceError as err:
            _fail("convergence", str(err), code=EXIT_CONVERGENCE)
        except (OverflowError, ValueError) as err:
            _fail("domain", f"result outside the float range: {err}", code=EXIT_DOMAIN)

    return wrapper


def json_command(fn):
    """Command body returning ``(payload, meta)`` -> one JSON line on stdout.

    Adds ``--timing`` and maps math errors to exit codes; a payload holding
    NaN or +-inf is a domain error, never output.  Apply it below the
    command's own options, so that ``--timing`` is listed last.
    """

    @click.option("--timing", is_flag=True, help="Add the wall time as meta.wall_time_s.")
    @wraps(fn)
    @handle_math_errors
    def command(*args, timing, **kwargs):
        started = time.perf_counter()
        payload, meta = fn(*args, **kwargs)
        if timing:
            meta = dict(meta, wall_time_s=time.perf_counter() - started)
        click.echo(json.dumps({"payload": payload, "meta": meta}, allow_nan=False))

    return command


def tol_option(default: float):
    """``--tol`` with the given default.  NaN, +-inf and values <= 0 end as a
    domain error on --tol (exit 3), whether or not the command's route uses
    the tolerance."""

    def check(ctx, param, value):
        try:
            check_positive(value, "tolerance")
        except DomainError as err:
            _fail("domain", str(err), parameter="--tol")
        return value

    return click.option("--tol", type=float, default=default, show_default=True, callback=check)


def _logdet_payload(result, breakdown: bool) -> dict:
    payload = {"value": result.total}
    if breakdown:
        payload["breakdown"] = result.parts
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
        _fail("usage", f"malformed {what} input: {type(err).__name__}: {err}",
              parameter="--input", code=2)


def _flat_config(path: str) -> quadrature.FlatSphereConfig:
    points, orders = _read_input(path, "flat-sphere", lambda raw: (
        [complex(re, im) for re, im in raw["points"]],
        [float(b) for b in raw["orders"]],
    ))
    return quadrature.FlatSphereConfig(points=points, orders=orders)


def _hyperbolic_summary(path: str) -> determinants.HyperbolicSummary:
    orders, phi_consts, liouville = _read_input(path, "hyperbolic", lambda raw: (
        [float(b) for b in raw["orders"]],
        [float(c) for c in raw["phi_consts"]],
        float(raw["liouville_integral"]),
    ))
    return determinants.HyperbolicSummary(
        orders=orders, phi_consts=phi_consts, liouville_integral=liouville
    )


def _beta_value(text: str):
    """Parse a cone order, preserving integer-typed inputs exactly."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _orders_value(text: str) -> list:
    """Parse comma-separated cone orders, each as ``--beta`` is parsed."""
    return [_beta_value(tok) for tok in text.split(",") if tok.strip()]


# click turns the ValueError of a non-number into a usage error (exit 2)
beta_option = click.option("--beta", type=_beta_value, metavar="NUMBER", required=True,
                           help="Cone order; plain integers stay exact.")


@click.group()
def main():
    """Determinants of Laplacians on surfaces with conical singularities."""


@main.command("barnes-zprime0")
@click.option("--a", "a_real", type=float, default=None, help="Real first period.")
@click.option("--p", type=int, default=None, help="Numerator of a rational period.")
@click.option("--q", type=int, default=None, help="Denominator of a rational period.")
@tol_option(1e-10)
@click.option("--cross-check", is_flag=True, help="Evaluate both routes and their difference.")
@json_command
def barnes_zprime0_cmd(a_real, p, q, tol, cross_check):
    """zeta'_B(0; a, 1, 1) for a = P/Q (closed form) or real --a (quadrature)."""
    if (p is None) != (q is None):
        raise click.UsageError("--p and --q must be given together")
    if (a_real is None) == (p is None):
        raise click.UsageError("give exactly one of --a or --p/--q")
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


@main.command("cbeta")
@beta_option
@click.option("--p", type=int, default=None, help="Numerator of exact beta + 1.")
@click.option("--q", type=int, default=None, help="Denominator of exact beta + 1.")
@tol_option(1e-10)
@click.option("--breakdown", is_flag=True)
@json_command
def cbeta_cmd(beta, p, q, tol, breakdown):
    """The per-singularity contribution C(beta)."""
    if (p is None) != (q is None):
        raise click.UsageError("--p and --q must be given together")
    order = ConeOrder.of(beta) if p is None else ConeOrder(beta, RationalOrder(p, q))
    result = determinants.LogDet.from_parts(c_beta_parts(order, tol))
    route = "integral" if order.exact is None else "rational"
    return _logdet_payload(result, breakdown), {"tol": tol, "route": route}


@main.command("zeta0")
@click.option("--euler", type=int, required=True, help="Topological Euler characteristic.")
@click.option("--orders", type=_orders_value, default="", metavar="LIST",
              help="Comma-separated cone orders.")
@click.option("--boundary/--closed", default=False)
@click.option("--a0", "want_a0", is_flag=True, help="Also report the heat-trace constant.")
@json_command
def zeta0_cmd(euler, orders, boundary, want_a0):
    """zeta(0) of the surface Laplacian from topology and cone orders."""
    topo = SurfaceTopology(euler_top=euler, orders=orders, has_boundary=boundary)
    payload = {"value": zeta0_surface(topo)}
    if want_a0:
        payload["heat_trace_a0"] = heat_trace_a0(topo)
    return payload, {"route": "closed-form"}


@main.group("det")
def det_group():
    """Log-determinant formulas."""


@det_group.command("spindle")
@beta_option
@click.option("--mu", type=float, default=0.0, show_default=True)
@click.option("--k", "--K", "curvature", type=float, default=1.0, show_default=True)
@tol_option(1e-10)
@click.option("--breakdown", is_flag=True)
@json_command
def det_spindle(beta, mu, curvature, tol, breakdown):
    """Constant-positive-curvature sphere with two equal cone points."""
    cfg = determinants.SpindleConfig(beta=beta, mu=mu, curvature=curvature)
    result = determinants.logdet_spindle(cfg, tol)
    return _logdet_payload(result, breakdown), {"tol": tol, "route": "closed-form"}


@det_group.command("spindle-area4pi")
@beta_option
@click.option("--mu", type=float, default=0.0, show_default=True)
@tol_option(1e-10)
@click.option("--breakdown", is_flag=True)
@json_command
def det_spindle_area4pi(beta, mu, tol, breakdown):
    """Fixed-area-4pi spindle determinant."""
    result = determinants.logdet_spindle_area4pi(beta, mu, tol)
    return _logdet_payload(result, breakdown), {"tol": tol, "route": "closed-form"}


@det_group.command("flat-sphere")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@tol_option(1e-8)
@click.option("--form", type=click.Choice(["cone", "as"]), default="cone", show_default=True,
              help="Which of the two equivalent singular-term assemblies to use.")
@click.option("--breakdown", is_flag=True)
@json_command
def det_flat_sphere(input_path, tol, form, breakdown):
    """Flat conical metric on the sphere; config from a JSON file."""
    cfg = _flat_config(input_path)
    fn = determinants.logdet_flat_sphere if form == "cone" else determinants.logdet_flat_sphere_AS
    result = fn(cfg, tol)
    return _logdet_payload(result, breakdown), {"tol": tol, "route": form}


@det_group.command("disk")
@beta_option
@click.option("--k", type=float, required=True)
@tol_option(1e-10)
@click.option("--breakdown", is_flag=True)
@json_command
def det_disk(beta, k, tol, breakdown):
    """Constant-curvature cone disk (Dirichlet).

    The disk |z| <= 1 with metric 4|z|^(2 beta)|dz|^2 / (1 + k|z|^(2 beta + 2))^2;
    beta = k = 0 is the flat disk of radius 2.
    """
    cfg = determinants.DiskConfig(beta=beta, k=k)
    result = determinants.logdet_disk(cfg, tol)
    return _logdet_payload(result, breakdown), {"tol": tol, "route": "closed-form"}


@det_group.command("flat-disk")
@click.option("--radius", type=float, required=True)
@click.option("--breakdown", is_flag=True)
@json_command
def det_flat_disk(radius, breakdown):
    """Flat disk of the given radius (Dirichlet)."""
    value = determinants.logdet_flat_disk(radius)
    payload = {"value": value}
    if breakdown:
        radius_term = -log(radius) / 3.0
        payload["breakdown"] = {
            "log_radius": radius_term,
            "constant": value - radius_term,
        }
    return payload, {"route": "closed-form"}


@det_group.command("hyperbolic")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@tol_option(1e-10)
@click.option("--breakdown", is_flag=True)
@json_command
def det_hyperbolic(input_path, tol, breakdown):
    """Hyperbolic conical sphere from a JSON summary
    {"orders": [...], "phi_consts": [...], "liouville_integral": x}."""
    summary = _hyperbolic_summary(input_path)
    result = determinants.logdet_hyperbolic_sphere(summary, tol)
    return _logdet_payload(result, breakdown), {"tol": tol, "route": "closed-form"}


@main.group("area")
def area_group():
    """Total-area integrals."""


@area_group.command("flat-sphere")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@tol_option(1e-8)
@click.option("--mc-samples", type=int, default=None, help="Also run the Monte-Carlo oracle.")
@click.option("--mc-seed", type=int, default=0, show_default=True)
@json_command
def area_flat_sphere(input_path, tol, mc_samples, mc_seed):
    """Improper plane integral of the flat conical density."""
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
        click.echo(text, nl=False)


@main.group("scan")
def scan_group():
    """Curve tabulation (CSV)."""


@scan_group.command("cbeta")
@click.option("--start", type=float, default=-0.9, show_default=True)
@click.option("--stop", type=float, default=5.0, show_default=True)
@click.option("--steps", type=int, default=60, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@handle_math_errors
def scan_cbeta(start, stop, steps, out):
    """Tabulate beta -> C(beta)."""
    grid = extremal.ScanGrid(param="beta", start=start, stop=stop, steps=steps)
    result = extremal.scan_curve("cbeta", grid)
    _write_curve(
        result,
        "beta,c_beta",
        f"conedet scan cbeta --start {start} --stop {stop} --steps {steps}",
        out,
    )


@scan_group.command("fixed-area")
@click.option("--start", type=float, default=-0.89, show_default=True)
@click.option("--stop", type=float, default=5.0, show_default=True)
@click.option("--steps", type=int, default=60, show_default=True)
@click.option("--mu", type=float, default=0.0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@handle_math_errors
def scan_fixed_area(start, stop, steps, mu, out):
    """Tabulate beta -> det at fixed area 4 pi (exponentiated)."""
    grid = extremal.ScanGrid(param="beta", start=start, stop=stop, steps=steps, fixed_other=mu)
    result = extremal.scan_curve("fixed_area_det", grid)
    _write_curve(
        result,
        "beta,det_fixed_area",
        f"conedet scan fixed-area --start {start} --stop {stop} --steps {steps} --mu {mu}",
        out,
    )


@main.command("find-max")
@tol_option(1e-8)
@json_command
def find_max_cmd(tol):
    """Locate the fixed-area determinant's interior maximum at mu = 0."""
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


@main.command("taylor-check")
@click.option("--h", "step", type=float, default=1e-3, show_default=True)
@json_command
def taylor_check_cmd(step):
    """Finite-difference expansion coefficients of the fixed-area curve at 0."""
    c2, c3 = extremal.taylor_check_at_zero(step)
    return (
        {"c2": c2, "c3": c3},
        {"h": step, "route": "Richardson-extrapolated central differences"},
    )


@main.group("distance")
def distance_group():
    """Geodesic distances."""


@distance_group.command("spindle")
@beta_option
@click.option("--mu", type=float, default=0.0, show_default=True)
@click.option("--k", "--K", "curvature", type=float, default=1.0, show_default=True)
@json_command
def distance_spindle(beta, mu, curvature):
    """Distance between the two cone points of a spindle."""
    cfg = determinants.SpindleConfig(beta=beta, mu=mu, curvature=curvature)
    return {"value": determinants.spindle_distance(cfg)}, {"route": "closed-form"}


if __name__ == "__main__":
    main()
