"""Numerical integration: adaptive Gauss-Kronrod quadrature on finite
intervals, and the improper plane integral giving the total area of a flat
conical-metric sphere, cross-validated by an importance-sampled Monte-Carlo
estimator.

The area integrand prod_j |z - p_j|^(2 beta_j) is integrable at each p_j
(beta_j > -1) and decays like |z|^-4 (sum beta_j = -2).  The plane is split
with a smooth partition of unity into

* a polar patch around each singularity, where the radial direction is
  integrated with a Gauss-Jacobi rule carrying the exact weight
  s^(2 beta_j + 1) (the change of variable u = s^(2b+2)/(2b+2) absorbs
  the power law; the Jacobi rule is that substitution composed with a rule
  exact for the induced measure, built here by Golub-Welsch),
* the rest of the plane, in polar coordinates about the origin with the
  radius mapped to t in [0, 1) by r = c t / (1 - t): the degree condition
  makes the mapped integrand analytic at t = 1, where it vanishes, so the
  radial adaptive Gauss-Kronrod needs no window at infinity; its first
  panels are split where the patch windows begin and end.

Every region takes its angle means from one spectrally convergent periodic
trapezoid: the means at all radial nodes of one Gauss-Kronrod panel or one
Gauss-Jacobi rule are evaluated together as one array, and each node's row
stops doubling on its own test.

All schemes are deterministic for fixed inputs: panel selection uses a
worst-first heap with sequence-number tie-breaking, and final sums are
compensated (math.fsum) in a fixed order.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from itertools import count
from math import fsum, isfinite, pi

from . import kernels
from .errors import ConfigurationError, ConvergenceError, DomainError, check_order, check_positive

__all__ = [
    "FlatSphereConfig",
    "QuadratureReport",
    "flat_sphere_area",
    "flat_sphere_area_mc",
    "integrate_adaptive",
]

# (G7, K15) Gauss-Kronrod pair, positive half written out (QUADPACK values).
_K15_NODES_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_K15_WEIGHTS_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_G7_WEIGHTS_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_XGK = tuple(-x for x in _K15_NODES_HALF[:-1]) + (0.0,) + tuple(reversed(_K15_NODES_HALF[:-1]))
_WGK = _K15_WEIGHTS_HALF + tuple(reversed(_K15_WEIGHTS_HALF[:-1]))
# the G7 nodes are the Kronrod nodes of odd index; the others weigh 0
_G7_WEIGHTS = _G7_WEIGHTS_HALF + tuple(reversed(_G7_WEIGHTS_HALF[:-1]))
_WG = tuple(w for g in _G7_WEIGHTS for w in (0.0, g)) + (0.0,)

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class QuadratureReport:
    """Result of a quadrature with its accounting."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def require_converged(self, what: str) -> "QuadratureReport":
        """This report, or ConvergenceError naming ``what`` if it did not converge."""
        if not self.converged:
            raise ConvergenceError(
                f"{what} quadrature did not converge (estimate {self.error_estimate:.3e})"
            )
        return self


def _gk15_panel(f, a: float, b: float):
    """One Gauss-Kronrod step on [a, b]: (K15 value, error estimate).

    ``f`` gets the 15 nodes as a list of floats and returns 15 values.
    """
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fx = f([c + h * x for x in _XGK])
    if len(fx) != 15:
        raise ValueError(f"integrand returned {len(fx)} values for 15 nodes")
    resk = fsum(w * v for w, v in zip(_WGK, fx))
    resg = fsum(w * v for w, v in zip(_WG, fx))
    resabs = fsum(w * abs(v) for w, v in zip(_WGK, fx))
    resasc = fsum(w * abs(v - 0.5 * resk) for w, v in zip(_WGK, fx))
    err = abs(resk - resg) * h
    resasc *= h
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs * h)
    return resk * h, err


def integrate_adaptive(
    f,
    a: float,
    b: float,
    tol: float,
    *,
    initial_breakpoints=None,
    max_panels: int = 4000,
) -> QuadratureReport:
    """Adaptive Gauss-Kronrod integral of ``f`` on [a, b].

    ``f`` gets a list of 15 floats, the nodes of one panel, and returns
    their 15 values; any other count raises ValueError.  Both endpoints
    must be finite.  Non-convergence is reported through
    ``converged=False``, never as a silently wrong value.
    """
    check_positive(tol, "tolerance")
    if not (isfinite(a) and isfinite(b)):
        raise DomainError(f"integration limits must be finite, got [{a}, {b}]")
    if not a < b:
        raise DomainError(f"empty interval [{a}, {b}]")

    evaluations = 0

    def counted(x):
        nonlocal evaluations
        evaluations += len(x)
        return f(x)

    heap = []  # splittable panels (-err, seq, left, right, val), worst first
    frozen = []  # panels at the width floor, kept out of the heap
    seq = count()

    def push(left, right):
        val, err = _gk15_panel(counted, left, right)
        mid = 0.5 * (left + right)
        panel = (-err, next(seq), left, right, val)
        if err == 0.0 or mid - left < 1e-15 * (abs(left) + abs(right) + 1.0):
            frozen.append(panel)
        else:
            heapq.heappush(heap, panel)

    bks = sorted(x for x in (initial_breakpoints or ()) if a < x < b)
    edges = [a, *bks, b]
    for left, right in zip(edges[:-1], edges[1:]):
        push(left, right)

    # math.fsum is correctly rounded, so the order of the panels does not
    # matter; a NaN error estimate keeps refining, up to max_panels
    while not (error := fsum(-p[0] for p in heap + frozen)) <= tol:
        if len(heap) + len(frozen) >= max_panels or not heap:
            break
        _, _, left, right, _ = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        push(left, mid)
        push(mid, right)

    value = fsum(p[4] for p in heap + frozen)
    return QuadratureReport(value, error, evaluations, error <= tol)


def _jacobi_rule(n: int, beta: float):
    """n-point Gauss rule for the weight (1 + x)^beta on [-1, 1], beta > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the weight's three-term recurrence, and each weight is
    the weight's mass 2^(beta+1)/(beta+1) times the squared first component
    of the node's normalized eigenvector.
    """
    import numpy as np

    k = np.arange(n, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off2 = 4.0 * k * k * (k + beta) ** 2 / (s * s * (s + 1.0) * (s - 1.0))
    off2[0] = 4.0 * (1.0 + beta) / ((2.0 + beta) ** 2 * (3.0 + beta))
    off = np.sqrt(off2)
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2


# ----------------------------------------------------------------------
# Flat conical metrics on the sphere: total area
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlatSphereConfig:
    """n >= 3 distinct plane singularities p_j with orders beta_j summing to -2.

    Defines the flat conical metric  prod_j |z - p_j|^(2 beta_j) |dz|^2 .
    """

    points: tuple
    orders: tuple

    def __init__(self, points, orders):
        object.__setattr__(self, "points", tuple(complex(p) for p in points))
        object.__setattr__(self, "orders", tuple(float(b) for b in orders))
        self._validate()

    def _validate(self):
        n = len(self.points)
        if n < 3:
            raise ConfigurationError(f"need at least 3 singular points, got {n}")
        if len(self.orders) != n:
            raise ConfigurationError("points and orders must have equal length")
        if not all(isfinite(v) for p in self.points for v in (p.real, p.imag)):
            raise ConfigurationError("every point must be finite")
        for b in self.orders:
            check_order(b)
        if abs(fsum(self.orders) + 2.0) > 1e-12:
            raise ConfigurationError(f"orders must sum to -2, got {fsum(self.orders)!r}")
        for i in range(n):
            for j in range(i + 1, n):
                if abs(self.points[i] - self.points[j]) <= 1e-10:
                    raise ConfigurationError(f"points {i} and {j} coincide")

    def patch_radii(self):
        """Half the minimum pairwise distance per point, capped at 1."""
        radii = []
        for j, pj in enumerate(self.points):
            d = min(abs(pj - pi_) for i, pi_ in enumerate(self.points) if i != j)
            radii.append(min(1.0, 0.5 * d))
        return radii

    def outer_radius(self):
        radii = self.patch_radii()
        return 4.0 * max(1.0, max(abs(p) + r for p, r in zip(self.points, radii)))


def _window(t):
    """C^inf step: 1 for t <= 1/2, 0 for t >= 1, exp-smooth between."""
    import numpy as np

    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t <= 0.5] = 1.0
    mid = (t > 0.5) & (t < 1.0)
    tm = t[mid]
    hi = np.exp(-1.0 / (1.0 - tm))
    lo = np.exp(-1.0 / (tm - 0.5))
    out[mid] = hi / (hi + lo)
    return out


def _density(cfg: FlatSphereConfig, x, y, skip=None):
    px = [p.real for j, p in enumerate(cfg.points) if j != skip]
    py = [p.imag for j, p in enumerate(cfg.points) if j != skip]
    orders = [b for j, b in enumerate(cfg.orders) if j != skip]
    return kernels.product_density(x, y, px, py, orders)


def _patch_term(cfg: FlatSphereConfig, j: int, radius: float, tol: float):
    """Windowed patch integral around p_j via Gauss-Jacobi x trapezoid.

    integral over s in (0, r], phi in [0, 2 pi) of
        window(s/r) * prod_{i != j} |p_j + s e^{i phi} - p_i|^(2 b_i)
        * s^(2 b_j + 1) ds dphi.
    The radial rule doubles until the change drops below tol/2; the angle
    means at its nodes come from _theta_means, with a row tolerance that
    keeps their weighted sum within the other tol/2.
    """
    import numpy as np

    pj = cfg.points[j]
    alpha = 2.0 * cfg.orders[j] + 1.0
    scale = 2.0 * pi * (0.5 * radius) ** (alpha + 1.0)
    # the Jacobi weights sum to 2^(alpha+1)/(alpha+1)
    row_tol = tol / (2.0 * scale * 2.0 ** (alpha + 1.0) / (alpha + 1.0))

    def ring(s, phi):
        return _density(cfg, pj.real + s * np.cos(phi), pj.imag + s * np.sin(phi), skip=j)

    def level(n_rad):
        x, w = _jacobi_rule(n_rad, alpha)
        s = radius * 0.5 * (x + 1.0)
        means, evals, ok = _theta_means(ring, s, row_tol)
        return scale * float(w @ (_window(s / radius) * means)), evals, ok

    n_rad = 12
    prev, total_evals, _ = level(n_rad)
    while True:
        n_rad *= 2
        cur, evals, ok = level(n_rad)
        total_evals += evals
        err = abs(cur - prev)
        if err <= tol / 2.0 or n_rad > 800:
            return QuadratureReport(cur, err + tol / 2.0, total_evals, ok and err <= tol / 2.0)
        prev = cur


def _theta_means(fn, rs, tol: float, cap: int = 1 << 14):
    """Mean over theta in [0, 2 pi) of fn(r, theta) for each r in ``rs``.

    Trapezoid doubling that reuses points.  All rows start at 32 points and
    share the doubled level, but each row keeps its own stopping test, and
    only rows still refining get new points.  Returns the means, the summed
    evaluation count and whether every row converged before ``cap``.
    """
    import numpy as np

    col = rs[:, None]
    m = 32
    means = fn(col, 2.0 * pi * np.arange(m) / m).mean(axis=1)
    evals = m * len(rs)
    live = np.arange(len(rs))
    while m < cap and live.size:
        new = fn(col[live], 2.0 * pi * (np.arange(m) + 0.5) / m).mean(axis=1)
        evals += m * live.size
        means2 = 0.5 * (means[live] + new)
        m *= 2
        done = np.abs(means2 - means[live]) <= tol
        means[live] = means2
        live = live[~done]
    return means, evals, live.size == 0


def _polar_iterated(fn, r_hi: float, tol: float, breakpoints=()):
    """integral over the polar rectangle [0, r_hi] x [0, 2 pi) of fn(r, theta) r dr dtheta.

    Outer: adaptive Gauss-Kronrod in r, started from panels split at
    ``breakpoints``.  Inner: periodic trapezoid mean, taken for the 15
    radial nodes of a panel in one call with ``r`` as a column and
    ``theta`` as a row; each node's row stops on its own.
    """
    import numpy as np

    inner_tol = tol / (4.0 * pi * r_hi * r_hi)
    evals = [0]
    inner_ok = [True]

    def radial(rs):
        rs = np.asarray(rs)
        means, n, ok = _theta_means(fn, rs, inner_tol)
        evals[0] += n
        inner_ok[0] = inner_ok[0] and ok
        return 2.0 * pi * rs * means

    rep = integrate_adaptive(
        radial, 0.0, r_hi, tol / 2.0, initial_breakpoints=breakpoints, max_panels=600
    )
    return QuadratureReport(
        rep.value,
        rep.error_estimate + pi * r_hi * r_hi * inner_tol,
        evals[0],
        rep.converged and inner_ok[0],
    )


def flat_sphere_area(cfg: FlatSphereConfig, tol: float = 1e-8) -> QuadratureReport:
    """Total area of the plane under prod_j |z - p_j|^(2 beta_j).

    Smooth partition of unity: per-singularity polar patches (Gauss-Jacobi
    radial weight) and the rest of the plane in polar coordinates about the
    origin, its radius mapped onto t in [0, 1) by r = c t / (1 - t).
    """
    import numpy as np

    check_positive(tol, "tolerance")
    radii = cfg.patch_radii()
    tol_piece = tol / (len(cfg.points) + 1)
    reports = [_patch_term(cfg, j, rj, tol_piece) for j, rj in enumerate(radii)]

    # c bounds every patch disk, so the patches lie in t < 1/2
    c = 0.25 * cfg.outer_radius()
    px = np.array([p.real for p in cfg.points])
    py = np.array([p.imag for p in cfg.points])
    rad = np.array(radii)

    def outside(t, theta):
        # r dr = t * c^2 / (1 - t)^3 dt; _polar_iterated supplies the t.
        # The density decays like r^-4, so the mapped integrand vanishes
        # linearly at t = 1.
        u = 1.0 / (1.0 - t)
        r = c * t * u
        x = r * np.cos(theta)
        y = r * np.sin(theta)
        bracket = 1.0
        for xj, yj, rj in zip(px, py, rad):
            bracket = bracket - _window(np.hypot(x - xj, y - yj) / rj)
        out = np.zeros_like(bracket)
        live = bracket != 0.0
        if np.any(live):
            out[live] = bracket[live] * _density(cfg, x[live], y[live])
        return out * (c * c * u * u * u)

    # the patch window around p_j is nonzero only for |p_j| - r_j < |z| < |p_j| + r_j
    rims = {abs(p) + sign * rj for p, rj in zip(cfg.points, radii) for sign in (-1.0, 1.0)}
    breaks = {r / (c + r) for r in rims if r > 0.0}
    reports.append(_polar_iterated(outside, 1.0, tol_piece, breakpoints=breaks))

    value = fsum(rep.value for rep in reports)
    error = fsum(rep.error_estimate for rep in reports)
    if not isfinite(value):
        raise ConvergenceError("area integral produced a non-finite value")
    converged = all(rep.converged for rep in reports) and error <= tol
    return QuadratureReport(value, error, sum(rep.evaluations for rep in reports), converged)


def flat_sphere_area_mc(cfg: FlatSphereConfig, samples: int, seed: int):
    """Importance-sampled Monte-Carlo oracle for flat_sphere_area.

    Mixture proposal: half the mass on a heavy-tailed global component with
    density 1/(pi (1+|z|^2)^2) (matches the |z|^-4 decay), the rest split
    over per-singularity patch components with radial density
    proportional to s^(2 b_j + 1) (matches each local power law).  The
    integrand-over-proposal ratio is bounded, so the reported standard
    error is an honest CLT estimate.  Deterministic for a fixed seed.
    """
    import numpy as np

    if samples < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {samples}")
    rng = np.random.default_rng(seed)
    n = len(cfg.points)
    radii = np.array(cfg.patch_radii())
    orders = np.array(cfg.orders)
    px = np.array([p.real for p in cfg.points])
    py = np.array([p.imag for p in cfg.points])

    lam0 = 0.5
    lamj = 0.5 / n

    u_comp = rng.random(samples)
    # floor avoids the measure-zero draw u = 0 (a sample exactly on a center)
    u_rad = np.maximum(rng.random(samples), 1e-300)
    u_ang = rng.random(samples)
    theta = 2.0 * pi * u_ang

    w = np.empty(samples)

    # Patch components.  The self power-law of the integrand and of the
    # patch proposal cancel symbolically; dividing them numerically would
    # overflow when the radial draw s underflows the position resolution
    # (z rounds onto the center).  Other patch densities vanish here since
    # the patch disks are disjoint.
    for j in range(n):
        sel = (u_comp >= lam0 + j * lamj) & (u_comp < lam0 + (j + 1) * lamj)
        bj = orders[j]
        expo = 1.0 / (2.0 * bj + 2.0)
        s = radii[j] * u_rad[sel] ** expo
        xj = px[j] + s * np.cos(theta[sel])
        yj = py[j] + s * np.sin(theta[sel])
        f_other = kernels.product_density(
            xj, yj, np.delete(px, j), np.delete(py, j), np.delete(orders, j)
        )
        q0 = lam0 / (pi * (1.0 + xj * xj + yj * yj) ** 2)
        s_neg_pow = s ** (-2.0 * bj)  # harmless: -> 0 as s -> 0 for bj < 0
        q_over_self = q0 * s_neg_pow + lamj * (2.0 * bj + 2.0) / (
            2.0 * pi * radii[j] ** (2.0 * bj + 2.0)
        )
        w[sel] = f_other / q_over_self

    # Global heavy-tailed component: plain ratio (no overflow away from the
    # centers; the radial draw cannot land exactly on one).
    gsel = u_comp < lam0
    r_glob = np.sqrt(u_rad[gsel] / (1.0 - u_rad[gsel]))
    xg = r_glob * np.cos(theta[gsel])
    yg = r_glob * np.sin(theta[gsel])
    q = lam0 / (pi * (1.0 + xg * xg + yg * yg) ** 2)
    for j in range(n):
        s = np.hypot(xg - px[j], yg - py[j])
        inside = s < radii[j]
        bj = orders[j]
        dens = np.zeros(xg.shape)
        dens[inside] = (2.0 * bj + 2.0) * s[inside] ** (2.0 * bj) / (
            2.0 * pi * radii[j] ** (2.0 * bj + 2.0)
        )
        q += lamj * dens
    w[gsel] = kernels.product_density(xg, yg, px, py, orders) / q

    if not np.all(np.isfinite(w)):
        raise ConvergenceError("Monte-Carlo weights overflowed; degenerate configuration")
    estimate = float(np.mean(w))
    stderr = float(np.std(w, ddof=1) / np.sqrt(samples))
    return estimate, stderr
