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
