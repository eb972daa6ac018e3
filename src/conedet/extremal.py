"""Parameter studies of the fixed-area two-cone sphere family: curve
scans for the cone contribution C(beta) and the fixed-area determinant,
and, from the exact derivatives of the fixed-area log-determinant in the
cone order (through J'(a), J''(a) and J'''(a)), the round-sphere maximum
and the expansion coefficients at beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, log

from .barnes import _barnes_J_derivative
from .cone import c_beta
from .constants import euler_gamma
from .determinants import logdet_spindle_area4pi
from .errors import ConvergenceError, DomainError, check_finite, check_order, check_positive

__all__ = [
    "ExtremumReport",
    "ScanGrid",
    "ScanResult",
    "find_local_max",
    "scan_curve",
    "taylor_check_at_zero",
]

# A scan row costs up to a few milliseconds, so this many take seconds.
MAX_SCAN_STEPS = 10_000
_OBJECTIVE_TOL = 1e-13  # quadrature tolerance for objective evaluations
_NEWTON_STEPS = 8


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
        check_finite(self.start, "scan start")
        check_finite(self.stop, "scan stop")
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
    Rows whose evaluation raises a domain error, a value outside the float
    range among them, are skipped and flagged rather than aborting the
    scan; the param column is monotone.
    """
    if target not in ("cbeta", "fixed_area_det"):
        raise DomainError(f"unknown scan target {target!r}")
    if target == "cbeta" and grid.param != "beta":
        raise DomainError(f"C(beta) is scanned over beta, not {grid.param}")

    def run(x):
        try:
            value = _row_value(target, grid, x)
        except DomainError as err:
            return None, (x, str(err))
        return (x, value), None

    outcomes = [run(x) for x in grid.values()]

    rows = tuple(r for r, _ in outcomes if r is not None)
    skipped = tuple(s for _, s in outcomes if s is not None)
    return ScanResult(rows=rows, skipped=skipped)


def _objective(beta: float) -> float:
    """L'(beta), the exact derivative of the fixed-area log-determinant at mu = 0,
    L(beta) = logdet_spindle at curvature K = a, a = beta + 1,
    = (a + 1/a)(log a)/6 - (a + 1/a) gamma/3 - a/3 + log(2 pi) - 4 J(a):
        L' = (1 - a^-2)(log a - 1 - 2 gamma)/6 - 4 J'(a), exactly 0.0 at beta = 0.
    """
    a = float(beta) + 1.0
    closed = (1.0 - 1.0 / (a * a)) * (log(a) - 1.0 - 2.0 * euler_gamma()) / 6.0
    return closed - 4.0 * _barnes_J_derivative(a, 1, _OBJECTIVE_TOL)


def _curvature(beta: float) -> float:
    """L''(beta) = (log a - 1 - 2 gamma)/(3a^3) + (1 - a^-2)/(6a) - 4 J''(a), a = beta + 1."""
    a = float(beta) + 1.0
    closed = (log(a) - 1.0 - 2.0 * euler_gamma()) / (3.0 * a**3)
    closed += (1.0 - 1.0 / (a * a)) / (6.0 * a)
    return closed - 4.0 * _barnes_J_derivative(a, 2, _OBJECTIVE_TOL)


def find_local_max(tol: float = 1e-8) -> ExtremumReport:
    """Locate the interior maximum of the fixed-area determinant at mu = 0.

    Newton iteration on the exact L' and L'' from the midpoint of the
    bracket [-0.7, 0.7], which contains the maximizer; a step that leaves
    the bracket or a curvature L'' >= 0 is a ConvergenceError.  The
    achieved tolerance is the last Newton step.
    """
    check_positive(tol, "tolerance")
    lo, hi = -0.7, 0.7
    beta = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        slope, second = _objective(beta), _curvature(beta)
        if not second < 0.0:
            raise ConvergenceError(f"curvature {second!r} at beta = {beta!r} is not negative")
        step = slope / second
        beta -= step
        if not lo <= beta <= hi:
            raise ConvergenceError(f"Newton step left the bracket [{lo}, {hi}]: beta = {beta!r}")
        if abs(step) <= tol:
            break
    else:
        raise ConvergenceError(f"Newton step {abs(step):.3e} still exceeds requested {tol}")

    return ExtremumReport(
        location=beta,
        value=logdet_spindle_area4pi(beta, 0.0, tol=_OBJECTIVE_TOL).total,
        second_derivative=second,
        method="Newton iteration on the exact derivatives L' and L''"
        " (J'(a) and J''(a) quadrature)",
        tolerance_achieved=abs(step),
    )


def taylor_check_at_zero():
    """(c2, c3) = (L''/2, L'''/6) at beta = 0, the expansion coefficients
    of the fixed-area log-determinant, from J''(1) and J'''(1); the closed
    part of L''' at a = 1 is 5/3 + 2 gamma."""
    third = 5.0 / 3.0 + 2.0 * euler_gamma() - 4.0 * _barnes_J_derivative(1.0, 3, _OBJECTIVE_TOL)
    return _curvature(0.0) / 2.0, third / 6.0

