"""The double zeta function zeta_B(s; a, 1, x) = sum_{m,n>=0} (a m + n + x)^(-s)
and its s-derivative at s = 0 on the (a, 1, 1) slice, by two independent
routes that cross-check one another:

* ``zprime0_rational``  - closed form for rational a = p/q in terms of
  zeta'_R(-1), Dedekind sums and log-gamma values at exact sawtooth
  arguments;
* ``zprime0_integral``  - the representation
      zeta'_B(0; a,1,1) = (a + 1/a) gamma/12 - (1/a + 3 + a) log(a)/12
                          + 5a/24 - log(2 pi)/4 + J(a)
  with J(a) an exponentially convergent improper integral.

J and its a-derivatives, for the cone-order derivatives of the
determinants, are one family of integrals on the same half line, each held
to tol times the size bound of its bracket."""

from __future__ import annotations

import sys
from fractions import Fraction
from math import expm1, factorial, fsum, isfinite, log, prod

from . import kernels
from .constants import BERNOULLI_2K, euler_gamma, zeta_prime_minus1
from .errors import ConvergenceError, DomainError, check_positive
from .quadrature import integrate_adaptive
from .special import LOG_2PI, RationalOrder, dedekind_sum, log_gamma, sawtooth

__all__ = [
    "barnes_J",
    "zprime0",
    "zprime0_integral",
    "zprime0_rational",
    "zprime_a0",
]

# The closed form sums p + q terms in Python loops (the Dedekind sum and the
# log-gamma sums); past this many it runs for seconds, growing linearly.
MAX_RATIONAL_TERMS = 100_000

_LOG_MAX_FLOAT = log(sys.float_info.max)


def _series_coefficients(a: float, n: int):
    """Crossover x0 = 0.35 min(a, 1) and the series coefficients of the
    J^(n) bracket, n = 0 ... 3.

    For x below the convergence radius 2 pi min(a, 1) the J(a) bracket
    equals
        sum_{k>=2} g_k(a) x^(2k-2),
        g_k(a) = B_{2k}/(2k)! * (a^(1-2k) + (2k-1) a),
    (the 1/x^2 poles of the three terms cancel, as do the constants); the
    J^(n) bracket has the n-th a-derivatives of the g_k as coefficients,
    B_{2k}/(2k)! times (1-2k)(-2k)...(2-2k-n) a^(1-2k-n) plus the n-th
    derivative of (2k-1) a; for n = 1 each is 0.0 at a = 1.
    The terms through B_22 are kept; at x0 the first omitted one is at most
    5.9e-25 of the first kept one for a from 1e-10 to 1e10, far below the
    rounding floor of any quadrature panel.

    OverflowError when a coefficient leaves the float range: a ** (1 - 2k)
    for a below about 2e-15, (2k - 1) a for a above about 8e306.
    """
    linear = (a, 1.0, 0.0, 0.0)[n]  # the n-th a-derivative of a
    gs = [
        b / factorial(2 * k)
        * (prod(range(1 - 2 * k, 1 - 2 * k - n, -1)) * a ** (1 - 2 * k - n) + (2 * k - 1) * linear)
        for k, b in enumerate(BERNOULLI_2K[1:], start=2)
    ]
    if not all(map(isfinite, gs)):
        raise OverflowError("bracket series coefficient is not finite")
    return 0.35 * min(a, 1.0), tuple(gs)


def _barnes_J_derivative(a: float, n: int, tol: float = 1e-12) -> float:
    """d^n J/da^n for n = 0 ... 3 within tol * scale: the integral over
    (0, inf) of the n-th a-derivative of the J(a) bracket over e^x - 1.

    scale = max(1, a + 1/a) for n = 0 and max(1, a^-(n+1)) for n >= 1
    bounds the bracket past x = 40; the value grows alike, so an absolute
    tol below scale * eps would be unattainable.  ``kernels.j_bracket``
    sums the bracket below x0 by the series of ``_series_coefficients``.
    The tail beyond the cut X is under scale * e^-X <= tol * scale / 10,
    and the rest is integrated adaptively to tol * scale / 2.
    J'(1) = 0.0, J''(1) = -1/36 and J'''(1) = 1/8.

    ConvergenceError, naming the a or the tol given, when the series
    overflows a float, when tol * scale is not finite or its half
    underflows to 0, or when the quadrature cannot certify its target.
    """
    name = "J" + "'" * n
    check_positive(a, "Barnes period a")
    check_positive(tol, "tolerance")
    try:
        x0, coeffs = _series_coefficients(a, n)
    except OverflowError:
        raise ConvergenceError(
            f"{name}({a}) bracket series overflows a float; a is outside the quadrature's range"
        ) from None
    scale = max(1.0, a + 1 / a if n == 0 else a ** -(n + 1))
    target = tol * scale
    if not isfinite(target) or target / 2.0 == 0.0:
        raise ConvergenceError(
            f"{name}({a}) quadrature cannot reach tol={tol}: tol * {scale} leaves the float range"
        )

    # the tail beyond X is under scale e^-X <= target/10; log(10 scale / target)
    # is taken as a sum of logs, which stays finite
    upper = max(40.0, log(10.0) + log(scale) - log(target) + 5.0)

    def integrand(x):
        # past log(max float), e^x - 1 overflows and the integrand is 0
        return [
            v / expm1(t) if t <= _LOG_MAX_FLOAT else 0.0
            for v, t in zip(kernels.j_bracket(x, a, x0, coeffs, n), x)
        ]

    breaks = []
    edge = x0
    while edge < upper:
        breaks.append(edge)
        edge *= 2.0
    report = integrate_adaptive(
        integrand, 0.0, upper, target / 2.0, initial_breakpoints=breaks
    )
    return report.require_converged(f"{name}({a}) at tol={tol}").value


def barnes_J(a: float, tol: float = 1e-12) -> float:
    """J(a) = integral over (0, inf) of
        [ coth(x/(2a))/(2x) - (a/4) csch(x/2)^2 - (a + 1/a)/12 ] / (e^x - 1) dx,
    within tol * max(1, a + 1/a): the n = 0 member of
    ``_barnes_J_derivative``.

    The bracket is O(x^2) at the origin through cancellation of the three
    1/x^2 poles, so it is evaluated there by its power series; direct
    evaluation loses all digits.
    """
    return _barnes_J_derivative(a, 0, tol)


def zprime0_integral(a: float, tol: float = 1e-12) -> float:
    """zeta'_B(0; a, 1, 1) from the J(a) representation, within
    2 tol max(1, a + 1/a): the bound of ``barnes_J`` with as much again for
    the closed-form terms, which grow alike."""
    check_positive(a, "Barnes period a")
    g = euler_gamma()
    return fsum(
        [
            (a + 1.0 / a) * g / 12.0,
            -(1.0 / a + 3.0 + a) * log(a) / 12.0,
            5.0 * a / 24.0,
            -0.25 * LOG_2PI,
            barnes_J(a, tol),
        ]
    )


def zprime0_rational(r: RationalOrder) -> float:
    """zeta'_B(0; p/q, 1, 1) in closed form for coprime p, q.

    (1/pq) zeta'_R(-1) - log(q)/(12 p q) + (1/4 + S(q,p)) log(q/p)
      + sum_{k<p} (1/2 - k/p) log Gamma(((k q/p)) + 1/2)
      + sum_{j<q} (1/2 - j/q) log Gamma(((j p/q)) + 1/2),
    with exact rational sawtooth arguments (k q/p is never an integer for
    0 < k < p, so the arguments lie strictly inside (0, 1)).

    Raises DomainError when p + q exceeds MAX_RATIONAL_TERMS (100000).
    """
    p, q = r.p, r.q
    if p + q > MAX_RATIONAL_TERMS:
        raise DomainError(
            f"closed form needs p + q <= {MAX_RATIONAL_TERMS}, got {p}/{q}"
        )
    s = dedekind_sum(q, p)
    terms = [
        zeta_prime_minus1() / (p * q),
        -log(q) / (12.0 * p * q),
        float(Fraction(1, 4) + s) * log(q / p),
    ]
    for k in range(1, p):
        arg = sawtooth(Fraction(k * q, p)) + Fraction(1, 2)
        terms.append((0.5 - k / p) * log_gamma(float(arg)))
    for j in range(1, q):
        arg = sawtooth(Fraction(j * p, q)) + Fraction(1, 2)
        terms.append((0.5 - j / q) * log_gamma(float(arg)))
    return fsum(terms)


def zprime0(a, tol: float = 1e-12) -> float:
    """zeta'_B(0; a, 1, 1): closed form for RationalOrder, quadrature for
    floats (within 2 tol max(1, a + 1/a), see ``zprime0_integral``).

    Rational inputs are never detected from floats; pass a RationalOrder
    explicitly to opt into the closed form.
    """
    if isinstance(a, RationalOrder):
        return zprime0_rational(a)
    return zprime0_integral(float(a), tol)


def zprime_a0(a, tol: float = 1e-12) -> float:
    """Z'_a(0) = zeta'_B(0;a,1,1) - a zeta'_R(-1) + (a - 1/a) log(2)/12
    - (a - 1)/4 log(2 pi)."""
    av = a.value if isinstance(a, RationalOrder) else float(a)
    check_positive(av, "Barnes period a")
    return fsum(
        [
            zprime0(a, tol),
            -av * zeta_prime_minus1(),
            (av - 1.0 / av) * log(2.0) / 12.0,
            -(av - 1.0) / 4.0 * LOG_2PI,
        ]
    )
