"""Parameter studies of the fixed-area two-cone sphere family: curve
scans for the cone contribution C(beta) and the fixed-area determinant,
bracketed maximization locating the round-sphere extremum, and
finite-difference recovery of the expansion coefficients at beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite

from .cone import c_beta
from .constants import euler_gamma
from .determinants import logdet_spindle_area4pi
from .errors import ConvergenceError, DomainError, check_order, check_positive

__all__ = [
    "ExtremumReport",
    "ScanGrid",
    "ScanResult",
    "find_local_max",
    "scan_curve",
    "taylor_check_at_zero",
]

_GOLDEN = 0.6180339887498949
# A scan row costs up to a few milliseconds, so this many take seconds.
MAX_SCAN_STEPS = 10_000
_OBJECTIVE_TOL = 1e-13  # quadrature tolerance for objective evaluations


@dataclass(frozen=True)
class ScanGrid:
    """Uniform parameter grid for curve scans."""

    param: str  # "beta" or "mu"
    start: float
    stop: float
    steps: int
    fixed_other: float = 0.0

    def __post_init__(self):
        if self.param not in ("beta", "mu"):
            raise DomainError(f"unknown scan parameter {self.param!r}")
        if not (isfinite(self.start) and isfinite(self.stop)):
            raise DomainError(
                f"scan grid requires finite start and stop, got {self.start}, {self.stop}"
            )
        if not self.start < self.stop:
            raise DomainError("scan grid requires start < stop")
        if not 2 <= self.steps <= MAX_SCAN_STEPS:
            raise DomainError(
                f"scan grid requires 2 to {MAX_SCAN_STEPS} steps, got {self.steps}"
            )
        # fixed_other is mu in a beta scan and the cone order in a mu scan
        if self.param == "beta":
            check_order(self.start)
            if not (isfinite(self.fixed_other) and self.fixed_other >= 0.0):
                raise DomainError(f"mu must be finite and nonnegative, got {self.fixed_other}")
        else:
            check_order(self.fixed_other)
            if self.start < 0.0:
                raise DomainError("mu scans must be nonnegative")

    def values(self):
        h = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * h for i in range(self.steps)]


@dataclass(frozen=True)
class ScanResult:
    """Tabulated (param, value) rows plus any skipped rows with reasons."""

    rows: tuple
    skipped: tuple


@dataclass(frozen=True)
class ExtremumReport:
    location: float
    value: float
    second_derivative: float
    method: str
    tolerance_achieved: float


def _row_value(target: str, grid: ScanGrid, x: float) -> float:
    if target == "cbeta":
        return c_beta(x)
    if grid.param == "beta":
        beta, mu = x, grid.fixed_other
    else:
        beta, mu = grid.fixed_other, x
    logdet = logdet_spindle_area4pi(beta, mu).total
    try:
        return exp(logdet)
    except OverflowError:
        raise DomainError(f"determinant overflows: log-determinant {logdet!r}") from None


def scan_curve(target: str, grid: ScanGrid) -> ScanResult:
    """Tabulate ``cbeta`` or ``fixed_area_det`` over the grid.

    The determinant curve is emitted exponentiated (the plotted quantity).
    Rows whose evaluation raises a domain error or leaves the float range
    are skipped and flagged rather than aborting the scan; the param column
    is monotone.
    """
    if target not in ("cbeta", "fixed_area_det"):
        raise DomainError(f"unknown scan target {target!r}")

    def run(x):
        try:
            value = _row_value(target, grid, x)
        except DomainError as err:
            return None, (x, str(err))
        if not isfinite(value):
            return None, (x, f"value {value!r} leaves the float range")
        return (x, value), None

    outcomes = [run(x) for x in grid.values()]

    rows = tuple(r for r, _ in outcomes if r is not None)
    skipped = tuple(s for _, s in outcomes if s is not None)
    return ScanResult(rows=rows, skipped=skipped)


def _objective(beta: float) -> float:
    return logdet_spindle_area4pi(float(beta), 0.0, tol=_OBJECTIVE_TOL).total


def find_local_max(tol: float = 1e-8) -> ExtremumReport:
    """Locate the interior maximum of the fixed-area determinant at mu = 0.

    Golden-section search on the fixed bracket [-0.7, 0.7], which contains
    the maximizer, takes 20 steps to narrow it below 1e-4; because
    the objective is locally quadratic, raw section search stalls at the
    noise floor ~sqrt(eps), so the vertex is then refined by
    Richardson-extrapolated three-point parabolic fits.
    """
    check_positive(tol, "tolerance")
    lo, hi = -0.7, 0.7
    cache: dict = {}

    def f(x):
        if x not in cache:
            cache[x] = _objective(x)
        return cache[x]

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    while hi - lo > 1e-4:
        if f(x1) < f(x2):
            lo, x1 = x1, x2
            x2 = lo + _GOLDEN * (hi - lo)
        else:
            hi, x2 = x2, x1
            x1 = hi - _GOLDEN * (hi - lo)

    center = 0.5 * (lo + hi)

    def vertex(c, h):
        fm, f0, fp = f(c - h), f(c), f(c + h)
        denom = fm - 2.0 * f0 + fp
        if denom >= 0.0:
            raise ConvergenceError("parabolic refinement lost concavity")
        return c + 0.5 * h * (fm - fp) / denom

    # the uncertainty is the change between successive Richardson results,
    # not |v2 - v1|, which is the bias the extrapolation removes
    for h in (3e-3, 6e-4):
        v1 = vertex(center, h)
        v2 = vertex(center, h / 2.0)
        refined = (4.0 * v2 - v1) / 3.0  # cubic-term bias is O(h^2)
        spread = abs(refined - center)
        center = refined

    if spread > tol:
        raise ConvergenceError(
            f"vertex refinement uncertainty {spread:.3e} exceeds requested {tol}"
        )

    h = 1e-2
    d2 = (f(center + h) - 2.0 * f(center) + f(center - h)) / (h * h)
    d2_half = (f(center + h / 2) - 2.0 * f(center) + f(center - h / 2)) / (h * h / 4.0)
    second = (4.0 * d2_half - d2) / 3.0

    return ExtremumReport(
        location=center,
        value=f(center),
        second_derivative=second,
        method="golden-section bracket + Richardson parabolic vertex refinement",
        tolerance_achieved=spread,
    )


def taylor_coefficients(h: float, *, richardson: bool = True):
    """(c1, c2, c3) central-difference estimates of the fixed-area
    log-determinant expansion at beta = 0.

    c1 should vanish (beta = 0 is critical); it is returned for the
    caller's scrutiny.  With ``richardson`` the two-step extrapolation
    removes the leading O(h^2) truncation of each stencil.
    """
    if not 1e-4 <= h <= 1e-2:
        raise DomainError(f"step size must lie in [1e-4, 1e-2], got {h}")

    cache: dict = {}

    def f(x):
        if x not in cache:
            cache[x] = _objective(x)
        return cache[x]

    def stencils(step):
        d1 = (f(step) - f(-step)) / (2.0 * step)
        d2 = (f(step) - 2.0 * f(0.0) + f(-step)) / (step * step)
        d3 = (f(2 * step) - 2.0 * f(step) + 2.0 * f(-step) - f(-2 * step)) / (
            2.0 * step**3
        )
        return d1, d2, d3

    d1a, d2a, d3a = stencils(h)
    if not richardson:
        return d1a, d2a / 2.0, d3a / 6.0
    d1b, d2b, d3b = stencils(h / 2.0)
    c1 = (4.0 * d1b - d1a) / 3.0
    c2 = (4.0 * d2b - d2a) / 3.0 / 2.0
    c3 = (4.0 * d3b - d3a) / 3.0 / 6.0
    return c1, c2, c3


def taylor_check_at_zero(h: float):
    """(c2, c3) Richardson-extrapolated expansion coefficients at beta = 0."""
    _, c2, c3 = taylor_coefficients(h)
    return c2, c3


def reference_second_derivative() -> float:
    """Expected curvature at the maximum from the closed-form expansion:
    the quadratic coefficient is -(gamma/3 + 1/9), so f'' = -2(gamma/3 + 1/9)."""
    return -2.0 * (euler_gamma() / 3.0 + 1.0 / 9.0)
