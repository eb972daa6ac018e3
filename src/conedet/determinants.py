"""Explicit log-determinant formulas for Laplacians on singular surfaces:
the generic conformal-comparison evaluators, constant-positive-curvature
two-cone spheres (spindles), flat conical metrics on the sphere in two
equivalent forms, constant-curvature disks, and hyperbolic spheres with
the covering variational constant.

Every assembled determinant is returned as a :class:`LogDet` whose labeled
parts sum to the total, so a disagreement in any cross-check can be traced
to the term responsible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import atan, exp, fsum, inf, isfinite, log, pi, sqrt

from .barnes import zprime0, zprime_a0
from .cone import ConeOrder, c_beta
from .constants import zeta_prime_minus1
from .errors import (
    ConfigurationError, DomainError, check_finite, check_order, check_positive, finite_fsum,
)
from .quadrature import FlatSphereConfig, flat_sphere_area
from .special import LOG_2PI

__all__ = [
    "ComparisonData",
    "DiskConfig",
    "HyperbolicSummary",
    "LogDet",
    "SpindleConfig",
    "logdet_disk",
    "logdet_flat_disk",
    "logdet_flat_sphere",
    "logdet_flat_sphere_AS",
    "logdet_hyperbolic_sphere",
    "logdet_pullback",
    "logdet_spindle",
    "logdet_spindle_area4pi",
    "polyakov_compare",
    "polyakov_compare_two_singular",
    "pullback_constant_C",
    "round_sphere_logdet",
    "spindle_asymptotic",
    "spindle_distance",
]


@dataclass(frozen=True)
class LogDet:
    """A log-determinant with an itemized breakdown; total = sum of parts."""

    total: float
    parts: dict

    @classmethod
    def from_parts(cls, parts: dict) -> "LogDet":
        """DomainError when the total leaves the float range."""
        total = finite_fsum(parts.values(), "log-determinant")
        return cls(total=total, parts=dict(parts))


@dataclass(frozen=True)
class SpindleConfig:
    """Constant-positive-curvature sphere with two conical singularities
    of equal order beta at 0 and infinity.

    The classification of such metrics requires beta to be an integer
    whenever mu > 0.  beta becomes a cone order through ConeOrder.of, so a
    plain int is exact and integer orders are detected structurally: a
    float beta (even 2.0) claims a non-integer order and therefore demands
    mu = 0.
    """

    beta: int | float | ConeOrder
    mu: float = 0.0
    curvature: float = 1.0
    order: ConeOrder = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "order", ConeOrder.of(self.beta))
        if not (isfinite(self.mu) and self.mu >= 0):
            raise ConfigurationError(f"mu must be finite and nonnegative, got {self.mu}")
        if not (isfinite(self.curvature) and self.curvature > 0):
            raise ConfigurationError(
                f"curvature must be finite and positive, got {self.curvature}"
            )
        exact = self.order.exact
        if self.mu > 0 and not (exact is not None and exact.q == 1):
            raise ConfigurationError(
                "admissible two-cone metrics require an integer order when mu > 0 "
                "(pass beta as a Python int)"
            )


def _angle_area(a: float, mu: float, k: float) -> float:
    """-(1/6)(a - 1/a) log(1 + mu^2/K), the mu term of the spindle determinants;
    DomainError when mu^2 overflows."""
    try:
        return -(a - 1.0 / a) / 6.0 * log(1.0 + mu**2 / k)
    except OverflowError:
        raise DomainError(f"mu^2 leaves the float range: mu = {mu}") from None


def round_sphere_logdet() -> float:
    """log det on the standard round curvature-one sphere (area 4 pi):
    1/2 - 4 zeta'_R(-1)."""
    return 0.5 - 4.0 * zeta_prime_minus1()


def logdet_spindle(cfg: SpindleConfig, tol: float = 1e-12) -> LogDet:
    """log det on the two-cone constant-curvature sphere:

        -(1/6)(a - 1/a) log(1 + mu^2/K) + a/2
        - (1/3)(a + 1/a) log(a/sqrt(K)) - 4 zeta'_B(0; a,1,1) - log K,

    a = beta + 1, K the curvature.
    """
    order = cfg.order
    a = order.beta + 1.0
    k = cfg.curvature
    parts = {
        "angle_area": _angle_area(a, cfg.mu, k),
        "linear": 0.5 * a,
        "cone_scale": -(a + 1.0 / a) / 3.0 * log(a / sqrt(k)),
        "barnes": -4.0 * zprime0(order.barnes_argument(), tol),
        "curvature_norm": -log(k),
    }
    return LogDet.from_parts(parts)


def logdet_spindle_area4pi(beta, mu: float = 0.0, tol: float = 1e-12) -> LogDet:
    """Fixed-area-4pi spindle determinant: :func:`logdet_spindle` at the
    curvature K = beta + 1 that Gauss-Bonnet pins, with its five parts,

        -(1/6)(a - 1/a) log(1 + mu^2/a)
        - (1 + (1/6)(a + 1/a)) log a - 4 zeta'_B(0; a,1,1) + a/2.
    """
    order = ConeOrder.of(beta)
    return logdet_spindle(SpindleConfig(beta=order, mu=mu, curvature=order.beta + 1.0), tol)


def spindle_asymptotic(beta: float, mu: float = 0.0, regime: str = "beta_to_minus1") -> float:
    """Truncated expansions of the fixed-area log-determinant; beta, mu as in SpindleConfig.

    ``beta_to_minus1`` (remainder O(beta+1); derived at, and held to, mu = 0):
        -log(a)/(6a) - (1/3 - 4 zeta'_R(-1))/a - log(a/(2 pi)) - a log(a)/6.
    ``beta_to_infinity`` (remainder O(1/beta)):
        -(1/6)(a - 1/a) log(1 + mu^2/a) + (1/6)(a + 1/a) log a
        + (1/6 + 4 zeta'_R(-1)) a + log(2 pi).
    """
    if regime == "beta_to_minus1" and mu != 0:
        raise DomainError(f"the beta_to_minus1 expansion holds at mu = 0 only, got mu={mu}")
    a = SpindleConfig(beta=beta, mu=mu).order.beta + 1.0
    zp = zeta_prime_minus1()
    if regime == "beta_to_minus1":
        return fsum(
            [
                -log(a) / (6.0 * a),
                -(1.0 / 3.0 - 4.0 * zp) / a,
                -log(a / (2.0 * pi)),
                -a * log(a) / 6.0,
            ]
        )
    if regime == "beta_to_infinity":
        return fsum(
            [
                _angle_area(a, mu, a),
                (a + 1.0 / a) / 6.0 * log(a),
                (1.0 / 6.0 + 4.0 * zp) * a,
                LOG_2PI,
            ]
        )
    raise DomainError(f"unknown regime {regime!r}")


def spindle_distance(cfg: SpindleConfig) -> float:
    """Geodesic distance between the two cone points:
    (2/sqrt(K)) arctan(sqrt(K)/mu), equal to pi/sqrt(K) at mu = 0."""
    rk = sqrt(cfg.curvature)
    if cfg.mu == 0:
        return pi / rk
    return 2.0 / rk * atan(rk / cfg.mu)


# ----------------------------------------------------------------------
# Flat conical metrics on the sphere
# ----------------------------------------------------------------------


def _pairwise_log_sum(cfg: FlatSphereConfig) -> float:
    """(1/6) sum_j sum_{i != j} b_i b_j log|p_i - p_j| / (b_j + 1)."""
    terms = []
    for j, (pj, bj) in enumerate(zip(cfg.points, cfg.orders)):
        for i, (pi_, bi) in enumerate(zip(cfg.points, cfg.orders)):
            if i == j:
                continue
            terms.append(bi * bj / (bj + 1.0) * log(abs(pi_ - pj)))
    return fsum(terms) / 6.0


def _resolve_area(cfg: FlatSphereConfig, tol: float, area) -> float:
    if area is not None:
        return float(area)
    return flat_sphere_area(cfg, tol).require_converged("area").value


def logdet_flat_sphere(cfg: FlatSphereConfig, tol: float = 1e-8, *, area=None) -> LogDet:
    """log det for the flat conical metric prod |z - p_j|^(2 b_j) |dz|^2:

        log(det/A) = pairwise log sum - sum_j C(b_j)
                     - 4 zeta'_R(-1) - (4/3) log 2 + 1/6 - log pi,

    returned with log A added back (A from quadrature unless supplied).
    """
    parts = {
        "pairwise_log": _pairwise_log_sum(cfg),
        "cone_terms": -fsum(c_beta(b, tol=min(tol, 1e-10)) for b in cfg.orders),
        "constant": fsum(
            [-4.0 * zeta_prime_minus1(), -4.0 / 3.0 * log(2.0), 1.0 / 6.0, -log(pi)]
        ),
        "log_area": log(_resolve_area(cfg, tol, area)),
    }
    return LogDet.from_parts(parts)


def logdet_flat_sphere_AS(cfg: FlatSphereConfig, tol: float = 1e-8, *, area=None) -> LogDet:
    """Equivalent form of :func:`logdet_flat_sphere`:

        log(det/A) = pairwise log sum
                     - sum_j (2 Z'_{b_j+1}(0) + log(b_j+1)/2) - log 2.
    """
    parts = {
        "pairwise_log": _pairwise_log_sum(cfg),
        "cone_terms": -fsum(
            2.0 * zprime_a0(b + 1.0, tol=min(tol, 1e-10)) + 0.5 * log(b + 1.0)
            for b in cfg.orders
        ),
        "constant": -log(2.0),
        "log_area": log(_resolve_area(cfg, tol, area)),
    }
    return LogDet.from_parts(parts)


# ----------------------------------------------------------------------
# Constant-curvature disks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiskConfig:
    """Coordinate disk |z| <= 1 with the metric
    4 |z|^(2 beta) |dz|^2 / (1 + k |z|^(2 beta + 2))^2: a cone of order beta
    at the center and curvature parameter k > -1 (Gaussian curvature
    (beta+1)^2 k). The beta = k = 0 member is the flat disk of radius 2;
    beta = 0, k = 1 is the unit hemisphere.  beta becomes a cone order
    through ConeOrder.of, so a plain int is exact."""

    beta: int | float | ConeOrder
    k: float
    order: ConeOrder = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "order", ConeOrder.of(self.beta))
        k = float(self.k)
        if not (isfinite(k) and k > -1.0 + 1e-9):
            raise DomainError(f"curvature parameter k={self.k} must be finite and exceed -1")


def logdet_disk(cfg: DiskConfig, tol: float = 1e-12) -> LogDet:
    """Dirichlet log-determinant on the constant-curvature cone disk, the
    coordinate disk |z| <= 1 with metric
    4 |z|^(2 beta) |dz|^2 / (1 + k |z|^(2 beta + 2))^2 (see DiskConfig):

        -2 zeta'_B(0; a,1,1) - log(a)/2 + (11k - 5) a / (12 (1+k))
        - log(2 pi)/2,    a = beta + 1.

    At beta = k = 0 this equals logdet_flat_disk(2), not logdet_flat_disk(1).
    """
    order = cfg.order
    a = order.beta + 1.0
    parts = {
        "barnes": -2.0 * zprime0(order.barnes_argument(), tol),
        "log_angle": -0.5 * log(a),
        "curvature_linear": (11.0 * cfg.k - 5.0) / (12.0 * (1.0 + cfg.k)) * a,
        "constant": -0.5 * LOG_2PI,
    }
    return LogDet.from_parts(parts)


def logdet_flat_disk(radius: float) -> float:
    """Dirichlet log-determinant of the flat disk of given radius:
    -(1/3) log(radius) + (1/3) log 2 - zeta'_<(0, 0),
    where zeta'_<(0,0) = 2 zeta'_R(-1) + 5/12 + log(2 pi)/2."""
    check_positive(radius, "radius")
    zeta_disk0_prime = 2.0 * zeta_prime_minus1() + 5.0 / 12.0 + 0.5 * LOG_2PI
    return -log(radius) / 3.0 + log(2.0) / 3.0 - zeta_disk0_prime


# ----------------------------------------------------------------------
# Hyperbolic spheres
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HyperbolicSummary:
    """Summary data of a hyperbolic (curvature -1) conical metric on the
    sphere: cone orders beta_j (the last entry is the singularity at
    infinity), the constant terms phi_j of the potential's local expansion,
    and the bulk Liouville integral of phi e^(2 phi) over the plane.
    The metric potential itself is consumed only through these numbers.
    """

    orders: tuple
    phi_consts: tuple
    liouville_integral: float

    def __init__(self, orders, phi_consts, liouville_integral):
        object.__setattr__(self, "orders", tuple(check_order(b) for b in orders))
        object.__setattr__(self, "phi_consts", tuple(float(c) for c in phi_consts))
        object.__setattr__(self, "liouville_integral", float(liouville_integral))
        if len(self.orders) < 3:
            raise ConfigurationError("need n >= 3 conical singularities")
        if len(self.orders) != len(self.phi_consts):
            raise ConfigurationError("orders and phi_consts must have equal length")
        if not all(isfinite(v) for v in (*self.phi_consts, self.liouville_integral)):
            raise ConfigurationError("phi_consts and liouville_integral must be finite")
        if fsum(self.orders) >= -2.0:
            raise ConfigurationError(
                f"hyperbolic metrics require sum of orders < -2, got {fsum(self.orders)}"
            )

    @property
    def degree(self) -> float:
        return fsum(self.orders)


def logdet_hyperbolic_sphere(summary: HyperbolicSummary, tol: float = 1e-10) -> LogDet:
    """log det on the hyperbolic conical sphere:

        log(-2 - |b|) + I_phi/(12 pi) - (1/6)(1 + 1/(b_n+1)) phi_n
        + (1/6) sum_{j<n} b_j phi_j / (b_j+1) - sum_j C(b_j)
        - (1/3) log 2 + 1/6 - 4 zeta'_R(-1).
    """
    orders = summary.orders
    phis = summary.phi_consts
    bn = orders[-1]
    parts = {
        "log_area_degree": log(-2.0 - summary.degree),
        "liouville": summary.liouville_integral / (12.0 * pi),
        "potential_infinity": -(1.0 + 1.0 / (bn + 1.0)) * phis[-1] / 6.0,
        "potential_finite": finite_fsum(
            (b / (b + 1.0) * p for b, p in zip(orders[:-1], phis[:-1])), "potential sum"
        )
        / 6.0,
        "cone_terms": -fsum(c_beta(b, tol=tol) for b in orders),
        "constant": fsum(
            [-log(2.0) / 3.0, 1.0 / 6.0, -4.0 * zeta_prime_minus1()]
        ),
    }
    return LogDet.from_parts(parts)


def pullback_constant_C(logdet_phi: float, degree: float) -> float:
    """Variational constant of the degree-two covering family:
    C = -2^(2/3) e^(6 zeta'_R(-1)) (det)^2 / (2 + |b|), positive for
    degree < -2."""
    if not (isfinite(degree) and 2.0 + degree < 0.0):
        raise DomainError(f"degree must be finite and below -2, got {degree}")
    check_finite(logdet_phi, "log det of the base metric")
    try:
        det_squared = exp(2.0 * logdet_phi)
    except OverflowError:
        det_squared = inf
    value = -(2.0 ** (2.0 / 3.0)) * exp(6.0 * zeta_prime_minus1()) / (2.0 + degree) * det_squared
    return check_finite(value, "constant C")


def logdet_pullback(c: float, mu: float, phi_at_0: float, phi_at_1_over_mu: float) -> float:
    """log det of the pulled-back metric:
    log C - log(mu)/2 + (phi(0) + phi(1/mu))/4."""
    check_positive(c, "constant C")
    check_positive(mu, "mu")
    check_finite(phi_at_0 + phi_at_1_over_mu, "phi(0) + phi(1/mu)")
    return log(c) - 0.5 * log(mu) + 0.25 * (phi_at_0 + phi_at_1_over_mu)


# ----------------------------------------------------------------------
# Conformal comparison evaluators
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonData:
    """User-supplied integral and singularity data for the conformal
    comparison of two metrics m_new = e^(2 phi) m_ref.

    bulk_phi = integral of K_new phi dA_new, bulk_0 = integral of
    K_ref phi dA_ref.  ``singularities`` holds triples
    (order, phi_j(0), psi_j(0)); boundary integrals are of phi with
    respect to the reference geometry and must be zero on closed surfaces.
    """

    bulk_phi: float = 0.0
    bulk_0: float = 0.0
    boundary_quad: float = 0.0
    boundary_geo: float = 0.0
    boundary_normal: float = 0.0
    singularities: tuple = field(default_factory=tuple)
    has_boundary: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "singularities",
            tuple((check_order(b), float(u), float(v)) for b, u, v in self.singularities),
        )
        boundary = (self.boundary_quad, self.boundary_geo, self.boundary_normal)
        potentials = (x for _, u, v in self.singularities for x in (u, v))
        if not all(isfinite(x) for x in (self.bulk_phi, self.bulk_0, *boundary, *potentials)):
            raise ConfigurationError("integrals and potential constants must be finite")
        if not self.has_boundary and any(x != 0.0 for x in boundary):
            raise ConfigurationError("boundary integrals must vanish on a closed surface")


def _singular_bracket(sings) -> float:
    """(1/6) sum_j order * (phi_j(0)/(order+1) - psi_j(0))."""
    return fsum(b * (u / (b + 1.0) - v) for b, u, v in sings) / 6.0


def _comparison_value(new: ComparisonData, bulk_ref: float, ref_sings, tol: float) -> float:
    """The comparison terms of m_new = e^(2 phi) m_ref, summed: the bulk
    integrals, the boundary integrals of ``new``, the singular brackets and
    -C(b_j) of the new orders, +C(a_j) of the reference orders."""
    terms = [-(new.bulk_phi + bulk_ref) / (12.0 * pi)]
    if new.has_boundary:
        terms.append(-new.boundary_quad / (12.0 * pi))
        terms.append(-new.boundary_geo / (6.0 * pi))
        terms.append(-new.boundary_normal / (4.0 * pi))
    terms.append(_singular_bracket(new.singularities))
    terms.append(-_singular_bracket(ref_sings))
    terms.extend(-c_beta(b, tol=tol) for b, _, _ in new.singularities)
    terms.extend(c_beta(a, tol=tol) for a, _, _ in ref_sings)
    return finite_fsum(terms, "comparison value")


def polyakov_compare(data: ComparisonData, tol: float = 1e-10) -> float:
    """Conformal-comparison value for m_new = e^(2 phi) m_ref with m_ref smooth.

    Closed surfaces:  log[(det_new/A_new)/(det_ref/A_ref)] =
        -(bulk_phi + bulk_0)/(12 pi) + singular bracket - sum C(b_j).
    With boundary the three boundary integrals enter and the result is
    log(det_new/det_ref) without area normalization.
    """
    return _comparison_value(data, data.bulk_0, (), tol)


def polyakov_compare_two_singular(
    data_new: ComparisonData, data_ref: ComparisonData, tol: float = 1e-10
) -> float:
    """Comparison of two singular metrics m_new = e^(2 phi) m_ref.

    ``data_new`` carries the new metric's orders b_j, its potential
    constants phi_j(0) in the second slot, the reference's psi_j(0) in the
    third, and bulk_phi = integral K_new phi dA_new.  ``data_ref`` mirrors
    this for the reference metric (orders a_j, slots psi_j(0), phi_j(0),
    bulk over the reference), with the same phi.  Singularity lists must be
    aligned over the union of cone points, order 0 where a metric is
    regular.  Exchanging the roles (with phi -> -phi in the supplied
    integrals) negates the result.
    """
    if len(data_new.singularities) != len(data_ref.singularities):
        raise ConfigurationError("singularity lists must be aligned (same length)")
    if data_new.has_boundary != data_ref.has_boundary:
        raise ConfigurationError("boundary flags must agree")
    return _comparison_value(data_new, data_ref.bulk_phi, data_ref.singularities, tol)
