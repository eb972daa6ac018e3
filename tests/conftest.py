import contextlib
import io
import math
from dataclasses import dataclass

import pytest


@pytest.fixture(scope="session")
def zp():
    """zeta'_R(-1) via the package's production route (checked against
    mpmath in test_constants.py)."""
    from conedet import zeta_prime_minus1

    return zeta_prime_minus1()


@pytest.fixture(scope="session")
def gamma():
    from conedet import euler_gamma

    return euler_gamma()


@pytest.fixture(scope="session")
def fixed_area_taylor():
    """(c2, c3) = (-(gamma/3 + 1/9), gamma/3 + 7/36), the expansion
    coefficients of the fixed-area log-determinant at beta = 0, formed at
    30 digits and rounded once: ``euler_gamma()`` is 5 ulps high."""
    import mpmath

    with mpmath.workdps(30):
        g, one = mpmath.euler, mpmath.mpf(1)
        return float(-(g / 3 + one / 9)), float(g / 3 + 7 * one / 36)


def zprime_a0_ir(a, tol=1e-12):
    """Z'_a(0) by its integral-representation definition,
        (1/a - a)(gamma - log 2)/12 - (1/a + 3 + a) log(a)/12 + J(a)
        - a (-gamma/6 - 5/24 + log(2 pi)/4 + zeta'_R(-1)),
    assembled apart from ``zprime_a0`` on the same J(a)."""
    from conedet import barnes_J, euler_gamma, zeta_prime_minus1

    g = euler_gamma()
    return math.fsum(
        [
            (1.0 / a - a) * (g - math.log(2.0)) / 12.0,
            -(1.0 / a + 3.0 + a) * math.log(a) / 12.0,
            barnes_J(a, tol),
            -a * (-g / 6.0 - 5.0 / 24.0 + 0.25 * math.log(2.0 * math.pi) + zeta_prime_minus1()),
        ]
    )


def logdet_spindle_area4pi_ref(beta, mu=0.0, tol=1e-12):
    """The fixed-area-4pi spindle log-determinant by its own four-part float
    assembly (K = beta + 1 substituted by hand),
        -(1/6)(a - 1/a) log(1 + mu^2/a) - (1 + (1/6)(a + 1/a)) log a
        - 4 zeta'_B(0; a,1,1) + a/2,
    apart from ``logdet_spindle`` on the same zeta'_B(0; a, 1, 1)."""
    from conedet import ConeOrder, zprime0

    order = ConeOrder.of(beta)
    a = order.beta + 1.0
    return math.fsum(
        [
            -(a - 1.0 / a) / 6.0 * math.log(1.0 + mu**2 / a),
            -(1.0 + (a + 1.0 / a) / 6.0) * math.log(a),
            -4.0 * zprime0(order.barnes_argument(), tol),
            0.5 * a,
        ]
    )


def dedekind_sum_definition(q, p):
    """S(q, p) = sum_{j=1..p} ((j/p)) ((j q/p)) summed term by term, exact:
    for 0 < j < p, ((j/p)) = (2j - p)/(2p) and ((j q/p)) = (2 (j q mod p) - p)/(2p),
    and the j = p term is 0."""
    from fractions import Fraction

    return Fraction(sum((2 * j - p) * (2 * (j * q % p) - p) for j in range(1, p)), 4 * p * p)


def zprime0_mpmath(a, terms=30):
    """zeta'_B(0; a, 1, 1) at 40 digits, for a <= 0.02 or a >= 50, as an mpf.

    Summing the large-argument expansion of the Hurwitz zeta over the rows
    of zeta_B(s; a, 1, 1) = a^-s sum_n zeta_H(s, (n + 1)/a) gives
        (1/12 - zeta'_R(-1))/a - log(2 pi)/4 + gamma a/12
        + sum_{k>=2} B_{2k} zeta_R(2k - 1) a^(2k-1) / (2k (2k - 1)),
    asymptotic with an error of order e^(-2 pi/a); past its thirtieth term
    the series is below 1e-70 for a <= 0.02.  Large a is reduced by the
    reciprocity zeta'_B(0; a) = zeta'_B(0; 1/a) - (a + 1/a + 3) log(a)/12.
    """
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        if a > 1:
            return zprime0_mpmath(1 / a, terms) - (a + 1 / a + 3) * mpmath.log(a) / 12
        assert a <= 0.02, "the series serves a <= 0.02"
        total = (
            (mpmath.mpf(1) / 12 - mpmath.zeta(-1, derivative=1)) / a
            - mpmath.log(2 * mpmath.pi) / 4
            + mpmath.euler * a / 12
        )
        for k in range(2, terms + 1):
            total += (
                mpmath.bernoulli(2 * k) * mpmath.zeta(2 * k - 1) * a ** (2 * k - 1)
                / (2 * k * (2 * k - 1))
            )
        return total


def j_mpmath(a):
    """J(a) at 40 digits from ``zprime0_mpmath`` less the closed-form terms
    of the J(a) representation, as an mpf."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        closed = (
            (a + 1 / a) * mpmath.euler / 12
            - (1 / a + 3 + a) * mpmath.log(a) / 12
            + 5 * a / 24
            - mpmath.log(2 * mpmath.pi) / 4
        )
        return zprime0_mpmath(a) - closed


def coprime_pairs(limit):
    """All coprime (p, q) with 1 <= p, q <= limit."""
    return [
        (p, q)
        for p in range(1, limit + 1)
        for q in range(1, limit + 1)
        if math.gcd(p, q) == 1
    ]


def random_flat_config(rng, n):
    """Admissible flat-sphere configuration: orders drawn in (-0.9, 0.5),
    shifted to sum to -2, redrawn until every order stays above -0.95."""
    from conedet import FlatSphereConfig

    while True:
        orders = rng.uniform(-0.9, 0.5, size=n)
        orders += (-2.0 - orders.sum()) / n
        if orders.min() > -0.95:
            break
    while True:
        pts = rng.normal(size=n) + 1j * rng.normal(size=n)
        if min(
            abs(pts[i] - pts[j]) for i in range(n) for j in range(i + 1, n)
        ) > 0.15:
            break
    return FlatSphereConfig(points=pts, orders=orders)


@dataclass
class CliResult:
    exit_code: int
    output: str
    exception: BaseException | None


def invoke(args):
    """Run ``conedet`` in this process: its exit code, its stdout and the
    SystemExit that ended it, if any.  Any other exception propagates."""
    from conedet.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            return CliResult(exc.code, buf.getvalue(), exc)
    return CliResult(0, buf.getvalue(), None)
