"""Numerical integration: adaptive Gauss-Kronrod quadrature on finite
intervals, and the total area of a flat conical-metric sphere as an improper
plane integral, cross-validated by an importance-sampled Monte-Carlo oracle.

The area integrand prod_j |z - p_j|^(2 beta_j) is integrable at each p_j
(beta_j > -1) and decays like |z|^-4 (sum beta_j = -2).  A smooth partition
of unity splits the plane into

* a polar patch around each singularity: a Gauss-Jacobi rule (Golub-Welsch)
  carries the radial weight s^(2 beta_j + 1) exactly, and
  kernels.product_density gives the other cones' factors on each ring;
* the rest of the plane, in polar coordinates about the origin with the
  radius mapped to t in [0, 1) by r = c t / (1 - t), where the integrand is
  analytic and vanishes at t = 1; its first Gauss-Kronrod panels are split
  where the patch windows begin and end.  One pass of squared distances per
  cone yields the density and the points where that cone's window can be
  nonzero, the only points where the window is evaluated.

Every region takes its angle means from one periodic trapezoid over the
rows of all radial nodes of a panel or a Jacobi rule, each row doubling up
to _ANGLE_CAP points on its own test.  All schemes are deterministic: panel
selection uses a worst-first heap with sequence-number tie-breaking, and
final sums are compensated (math.fsum) in a fixed order.
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

MAX_MC_SAMPLES = 10**7  # flat_sphere_area_mc's sample cap
_ANGLE_CAP = 1 << 14  # most points of one angle row of the flat-sphere area
MAX_COORDINATE = 1e150  # FlatSphereConfig's bound on |Re p| and |Im p|


@dataclass(frozen=True)
class QuadratureReport:
    """Result of a quadrature with its accounting."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    capped_rows: int = 0  # angle rows that reached the trapezoid's point cap

    def require_converged(self, what: str) -> "QuadratureReport":
        """This report, or ConvergenceError naming ``what`` and any capped rows."""
        if not self.converged:
            cap = f"; {self.capped_rows} angle rows reached the {_ANGLE_CAP}-point cap"
            raise ConvergenceError(f"{what} quadrature did not converge (estimate "
                                   f"{self.error_estimate:.3e}{cap if self.capped_rows else ''})")
        return self


def _gk15_panel(f, a: float, b: float):
    """One Gauss-Kronrod step on [a, b]: (K15 value, error estimate, whether
    the estimate is the panel's rounding floor 50 eps * integral of |f|).

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
    floor = 50.0 * _EPS * resabs * h
    return resk * h, max(err, floor), err <= floor


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

    A panel whose error estimate is its rounding floor, 50 eps times the
    integral of |f| over it, is final (QUADPACK's roundoff rule): its
    halves' floors sum to about the same, so splitting cannot lower it.
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
    frozen = []  # panels at the rounding or the width floor, kept out of the heap
    seq = count()

    def push(left, right):
        val, err, at_floor = _gk15_panel(counted, left, right)
        mid = 0.5 * (left + right)
        panel = (-err, next(seq), left, right, val)
        if at_floor or mid - left < 1e-15 * (abs(left) + abs(right) + 1.0):
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
        # beyond this, squared distances in the outside region overflow a float
        if not all(abs(v) <= MAX_COORDINATE for p in self.points for v in (p.real, p.imag)):
            raise ConfigurationError(
                f"every point must be finite, with |Re p| and |Im p| at most {MAX_COORDINATE:g}"
            )
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

    # clamped strictly into (1/2, 1), the formula gives exactly 1.0 and 0.0 at the ends
    t = np.minimum(np.maximum(t, 0.5 + 0.5 * _EPS), 1.0 - 0.5 * _EPS)
    hi = np.exp(-1.0 / (1.0 - t))
    lo = np.exp(-1.0 / (t - 0.5))
    return hi / (hi + lo)


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
    px, py, orders = zip(*[(p.real, p.imag, b) for p, b in zip(cfg.points, cfg.orders) if p != pj])

    def ring(s, phi):
        return kernels.product_density(
            pj.real + s * np.cos(phi), pj.imag + s * np.sin(phi), px, py, orders
        )

    def level(n_rad):
        x, w = _jacobi_rule(n_rad, alpha)
        s = radius * 0.5 * (x + 1.0)
        capped = [0]
        means, evals, _ = _theta_means(ring, s, row_tol, _ANGLE_CAP, capped)
        return scale * float(w @ (_window(s / radius) * means)), evals, capped[0]

    n_rad = 12
    prev, total_evals, _ = level(n_rad)
    while True:
        n_rad *= 2
        cur, evals, capped = level(n_rad)
        total_evals += evals
        err = abs(cur - prev)
        if err <= tol / 2.0 or n_rad > 800:
            ok = not capped and err <= tol / 2.0
            return QuadratureReport(cur, err + tol / 2.0, total_evals, ok, capped)
        prev = cur


def _theta_means(fn, rs, tol: float, cap: int, capped=None):
    """Mean over theta in [0, 2 pi) of fn(r, theta) for each r in ``rs``.

    Trapezoid doubling that reuses points.  All rows start at 32 points and
    share the doubled level, but each row keeps its own stopping test, and
    only rows still refining get new points.  Returns the means, the summed
    evaluation count and whether every row converged before ``cap``; the
    number of rows that did not is added to ``capped[0]`` when given.
    """
    import numpy as np

    col = rs[:, None]
    m = 32
    # np.add.reduce(...) / m is .mean(axis=1) without its Python overhead
    means = np.add.reduce(fn(col, 2.0 * pi * np.arange(m) / m), axis=1) / m
    evals = m * len(rs)
    live = np.arange(len(rs))
    while m < cap and live.size:
        new = np.add.reduce(fn(col[live], 2.0 * pi * (np.arange(m) + 0.5) / m), axis=1) / m
        evals += m * live.size
        means2 = 0.5 * (means[live] + new)
        m *= 2
        done = np.abs(means2 - means[live]) <= tol
        means[live] = means2
        live = live[~done]
    if capped is not None:
        capped[0] += live.size
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
    capped = [0]

    def radial(rs):
        rs = np.asarray(rs)
        means, n, _ = _theta_means(fn, rs, inner_tol, _ANGLE_CAP, capped)
        evals[0] += n
        return 2.0 * pi * rs * means

    rep = integrate_adaptive(
        radial, 0.0, r_hi, tol / 2.0, initial_breakpoints=breakpoints, max_panels=600
    )
    error = rep.error_estimate + pi * r_hi * r_hi * inner_tol
    return QuadratureReport(rep.value, error, evals[0], rep.converged and not capped[0], capped[0])


def flat_sphere_area(cfg: FlatSphereConfig, tol: float = 1e-8) -> QuadratureReport:
    """Total area of the plane under prod_j |z - p_j|^(2 beta_j).

    ``tol`` is absolute: the summed error estimate of all regions must stay
    below ``tol`` itself, whatever the size of the area.  Smooth partition
    of unity: per-singularity polar patches (Gauss-Jacobi radial weight) and
    the rest of the plane in polar coordinates about the origin, its radius
    mapped onto t in [0, 1) by r = c t / (1 - t).  ``capped_rows`` counts the
    angle rows that stopped at the trapezoid's point cap unconverged.
    """
    import numpy as np

    check_positive(tol, "tolerance")
    radii = cfg.patch_radii()
    tol_piece = tol / (len(cfg.points) + 1)
    reports = [_patch_term(cfg, j, rj, tol_piece) for j, rj in enumerate(radii)]

    # c bounds every patch disk, so the patches lie in t < 1/2
    c = 0.25 * cfg.outer_radius()
    # per cone: center, r_j, a bound on |z - p_j|^2 wherever its window is nonzero, order
    cones = [(p.real, p.imag, rj, rj * rj * (1.0 + 1e-12), bj)
             for p, rj, bj in zip(cfg.points, radii, cfg.orders)]

    def outside(t, theta):
        # r dr = t c^2 / (1 - t)^3 dt, and the density decays like r^-4, so
        # this vanishes linearly at t = 1.
        u = 1.0 / (1.0 - t)
        r = c * t * u
        x = r * np.cos(theta)
        y = (r * np.sin(theta)).reshape(-1)
        near, ts = [], []  # per cone: the points its window may reach, their |z - p_j| / r_j
        density = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for xj, yj, rj, reach, bj in cones:  # one squared-distance pass per cone
                dx = x.reshape(-1) - xj
                dy = y - yj
                d2 = dx * dx + dy * dy
                near.append(np.flatnonzero(d2 < reach))
                ts.append(np.hypot(dx[near[-1]], dy[near[-1]]) / rj)
                density = density * d2 ** bj
            # 1 minus the windows in cone order, all from one _window call
            bracket = np.ones(x.size)
            np.subtract.at(bracket, np.concatenate(near), _window(np.concatenate(ts)))
            out = np.where(bracket != 0.0, bracket * density, 0.0)
        return out.reshape(x.shape) * (c * c * u * u * u)

    # the patch window around p_j is nonzero only for |p_j| - r_j < |z| < |p_j| + r_j
    rims = {abs(p) + sign * rj for p, rj in zip(cfg.points, radii) for sign in (-1.0, 1.0)}
    breaks = {r / (c + r) for r in rims if r > 0.0}
    reports.append(_polar_iterated(outside, 1.0, tol_piece, breakpoints=breaks))

    value = fsum(rep.value for rep in reports)
    error = fsum(rep.error_estimate for rep in reports)
    if not isfinite(value):
        raise ConvergenceError("area integral produced a non-finite value")
    converged = all(rep.converged for rep in reports) and error <= tol
    evals = sum(rep.evaluations for rep in reports)
    return QuadratureReport(value, error, evals, converged, sum(rep.capped_rows for rep in reports))


def flat_sphere_area_mc(cfg: FlatSphereConfig, samples: int, seed: int):
    """Importance-sampled Monte-Carlo oracle for flat_sphere_area.

    Mixture proposal: half the mass on a heavy-tailed global component with
    density 1/(pi (1+|z|^2)^2) (matches the |z|^-4 decay), the rest split
    over per-singularity patch components with radial density
    proportional to s^(2 b_j + 1) (matches each local power law).  The
    integrand-over-proposal ratio is bounded, so the reported standard
    error is an honest CLT estimate.  Deterministic for a fixed seed.

    ``samples`` runs from 1e4 to MAX_MC_SAMPLES = 1e7 (about 100 bytes and
    0.5 s per 1e6 samples, so 1 GB at the cap); ``seed`` is a non-negative
    integer.  Anything else is a DomainError, raised before any allocation.
    """
    if not 10**4 <= samples <= MAX_MC_SAMPLES:
        raise DomainError(f"need 1e4 to 1e7 samples, got {samples}")
    if seed < 0:
        raise DomainError(f"Monte-Carlo seed must be non-negative, got {seed}")
    import numpy as np

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
