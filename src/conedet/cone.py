"""Per-singularity quantities: the cone contribution C(beta), the
flat-cone disk zeta values, the surface zeta(0), the heat-trace constant,
and the metric-rescaling rule for log-determinants.

A cone point of order beta > -1 has total angle 2 pi (beta + 1).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from math import fsum, log

from .barnes import barnes_tol, zprime0
from .constants import zeta_prime_minus1
from .errors import ConfigurationError, DomainError, check_finite, check_order, check_positive
from .special import LOG_2PI, RationalOrder

__all__ = [
    "ConeOrder",
    "SurfaceTopology",
    "c_beta",
    "c_beta_parts",
    "heat_trace_a0",
    "rescale_logdet",
    "zeta0_surface",
    "zeta_disk_at0",
    "zeta_disk_prime0",
]

@dataclass(frozen=True)
class ConeOrder:
    """Order beta of a conical singularity, optionally exact.

    ``exact``, when present, is the rational value of beta + 1; it routes
    Barnes-derivative evaluations through the closed rational form.
    :meth:`of` turns any accepted beta into an order; construct other exact
    orders with :meth:`from_rational`.
    """

    beta: float
    exact: RationalOrder | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", check_order(self.beta))
        if self.exact is not None and self.exact.value - 1.0 != self.beta:
            raise DomainError(
                f"exact order {self.exact.p}/{self.exact.q} does not match beta={self.beta}"
            )

    @classmethod
    def of(cls, beta) -> "ConeOrder":
        """The order for ``beta``: a ConeOrder passes through, a plain int is
        exact (beta + 1 = (beta+1)/1), any other real number is a float order,
        and a bool or a non-number is a ConfigurationError."""
        if isinstance(beta, cls):
            return beta
        if isinstance(beta, bool) or not isinstance(beta, numbers.Real):
            raise ConfigurationError(f"cone order must be a real number, got {type(beta)!r}")
        if isinstance(beta, int):
            check_order(beta)
            return cls.from_rational(RationalOrder(beta + 1, 1))
        return cls(beta=beta)

    @classmethod
    def from_rational(cls, a_plus: RationalOrder) -> "ConeOrder":
        """Cone order with beta + 1 = p/q held exactly."""
        return cls(beta=a_plus.value - 1.0, exact=a_plus)

    def barnes_argument(self):
        """beta + 1 in the form the Barnes routes dispatch on."""
        return self.exact if self.exact is not None else self.beta + 1.0


@dataclass(frozen=True)
class SurfaceTopology:
    """Topological Euler characteristic (a plain int), cone orders, boundary flag."""

    euler_top: int
    orders: tuple = field(default_factory=tuple)
    has_boundary: bool = False

    def __post_init__(self):
        if type(self.euler_top) is not int:
            raise ConfigurationError(f"Euler characteristic must be an int, got {self.euler_top!r}")
        object.__setattr__(self, "orders", tuple(ConeOrder.of(o) for o in self.orders))

    @property
    def chi_divisor(self) -> float:
        """Euler characteristic with the divisor degree added."""
        return self.euler_top + fsum(o.beta for o in self.orders)

    @property
    def dim_ker(self) -> int:
        return 0 if self.has_boundary else 1


def c_beta_parts(order, tol: float = 1e-12) -> dict:
    """Itemized terms of C(beta); their fsum is c_beta.

    C(beta) = 2 zeta'_B(0; beta+1, 1, 1) - 2 zeta'_R(-1)
              - beta^2 log(2) / (6 (beta+1)) - beta/12 + log(beta+1)/2.
    """
    order = ConeOrder.of(order)
    beta = order.beta
    a = beta + 1.0
    return {
        "barnes": 2.0 * zprime0(order.barnes_argument(), barnes_tol(a, tol))
        - 2.0 * zeta_prime_minus1(),
        "log2": -beta * beta / (6.0 * a) * log(2.0),
        "linear": -beta / 12.0,
        "log_angle": 0.5 * log(a),
    }


def c_beta(order, tol: float = 1e-12) -> float:
    """The cone contribution C(beta); C(0) = 0, C -> +inf as beta -> -1+,
    C -> -inf as beta -> +inf."""
    return fsum(c_beta_parts(order, tol).values())


def zeta_disk_at0(beta: float) -> float:
    """zeta(0) of the flat cone disk, metric 4 |z|^(2 beta) |dz|^2 on |z| <= 1:
    (beta + 1 + 1/(beta+1)) / 12. It does not depend on the scale of the
    metric."""
    a = ConeOrder.of(beta).beta + 1.0
    return (a + 1.0 / a) / 12.0


def zeta_disk_prime0(beta: float, tol: float = 1e-12) -> float:
    """zeta'(0) of the flat cone disk, metric 4 |z|^(2 beta) |dz|^2 on
    |z| <= 1:
    2 zeta'_B(0; beta+1,1,1) + 5(beta+1)/12 + log(beta+1)/2 + log(2 pi)/2.

    At beta = 0 that metric is the flat disk of radius 2, so the value is
    -logdet_flat_disk(2), not the unit flat disk's zeta'(0).
    """
    order = ConeOrder.of(beta)
    a = order.beta + 1.0
    return fsum(
        [
            2.0 * zprime0(order.barnes_argument(), barnes_tol(a, tol)),
            5.0 * a / 12.0,
            0.5 * log(a),
            0.5 * LOG_2PI,
        ]
    )


def zeta0_surface(topo: SurfaceTopology) -> float:
    """zeta(0) of the surface Laplacian:
    chi(M, divisor)/6 - (1/12) sum_j (b_j + 1 - 1/(b_j+1)) - dim ker."""
    corr = fsum(o.beta + 1.0 - 1.0 / (o.beta + 1.0) for o in topo.orders)
    return topo.chi_divisor / 6.0 - corr / 12.0 - topo.dim_ker


def heat_trace_a0(topo: SurfaceTopology) -> float:
    """Constant heat-trace coefficient a_0 = zeta(0) + dim ker."""
    return zeta0_surface(topo) + topo.dim_ker


def rescale_logdet(logdet: float, zeta0: float, r: float) -> float:
    """log-determinant after scaling the metric by r^2:
    eigenvalues scale by r^-2, so zeta'(0) gains 2 zeta(0) log r and the
    log-determinant drops by the same amount."""
    check_finite(logdet, "log-determinant")
    check_finite(zeta0, "zeta(0)")
    check_positive(r, "scale factor")
    return logdet - 2.0 * zeta0 * log(r)
