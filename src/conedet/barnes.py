"""The double zeta function zeta_B(s; a, 1, x) = sum_{m,n>=0} (a m + n + x)^(-s)
and its s-derivative at s = 0 on the (a, 1, 1) slice, by three independent
routes that cross-check one another:

* ``zprime0_rational``  - closed form for rational a = p/q in terms of
  zeta'_R(-1), Dedekind sums and log-gamma values at exact sawtooth
  arguments;
* ``zprime0_integral``  - the representation
      zeta'_B(0; a,1,1) = (a + 1/a) gamma/12 - (1/a + 3 + a) log(a)/12
                          + 5a/24 - log(2 pi)/4 + J(a)
  with J(a) an exponentially convergent improper integral;
* ``zprime0_taylor_near1`` - the cubic expansion about a = 1.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import exp, expm1, factorial, fsum, isfinite, log

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
    "zprime0_taylor_near1",
    "zprime_a0",
]

# The closed form sums p + q terms in Python loops (the Dedekind sum and the
# log-gamma sums); past this many it runs for seconds, growing linearly.
MAX_RATIONAL_TERMS = 100_000

_LOG_MAX_FLOAT = log(sys.float_info.max)


def _series_coefficients(a: float, weight):
    """x0 = 0.35 min(a, 1) and the bracket series coefficients
    B_{2k}/(2k)! * weight(k), k >= 2; OverflowError when one is not finite."""
    gs = [b / factorial(2 * k) * weight(k) for k, b in enumerate(BERNOULLI_2K[1:], start=2)]
    if not all(map(isfinite, gs)):
        raise OverflowError("bracket series coefficient is not finite")
    return 0.35 * min(a, 1.0), tuple(gs)


def _bracket_coefficients(a: float):
    """Crossover x0 = 0.35 min(a, 1) and series coefficients for the J(a)
    bracket.

    For x below the convergence radius 2 pi min(a, 1) the bracket equals
        sum_{k>=2} g_k(a) x^(2k-2),
        g_k(a) = B_{2k}/(2k)! * (a^(1-2k) + (2k-1) a),
    (the 1/x^2 poles of the three terms cancel, as do the constants).
    The terms through B_22 are kept; at x0 the first omitted one is at most
    5.9e-25 of the first kept one for a from 1e-10 to 1e10, far below the
    rounding floor of any quadrature panel.

    OverflowError when a coefficient leaves the float range: a ** (1 - 2k)
    for a below about 2e-15, (2k - 1) a for a above about 8e306.
    """
    return _series_coefficients(a, lambda k: a ** (1 - 2 * k) + (2 * k - 1) * a)


def _bracket_prime_coefficients(a: float):
    """As above for the a-derivative of the bracket: g_k'(a), all 0.0 at a = 1."""
    return _series_coefficients(a, lambda k: (1 - 2 * k) * a ** (-2 * k) + 2 * k - 1)


def _j_prime_bracket(x, a, x0, coeffs):
    """The a-derivative csch(x/(2a))^2/(4a^2) - csch(x/2)^2/4 - (1 - 1/a^2)/12
    of the J(a) bracket, like ``kernels.j_bracket``; the two csch terms are
    formed alike, so every value is 0.0 at a = 1."""
    rev = coeffs[::-1]
    const = (1.0 - 1.0 / (a * a)) / 12.0
    out = []
    for t in x:
        if t <= x0:
            t2 = t * t
            acc = 0.0
            for c in rev:
                acc = (acc + c) * t2
            out.append(acc)
        else:
            # csch(t/2)^2 / 4 = e^{-t}/(1 - e^{-t})^2, finite for any large t
            d1, d2 = -expm1(-t / a), -expm1(-t)
            out.append(exp(-t / a) / (d1 * d1) / (a * a) - exp(-t) / (d2 * d2) - const)
    return out


def _half_line(name: str, a: float, tol: float, coefficients, bracket, bound) -> float:
    """Integral over (0, inf) of bracket(x) / (e^x - 1); the bracket is O(x^2)
    at the origin, summed below x0 by the series of ``coefficients(a)``, and
    at most max(1, bound(a)) for x >= 40."""
    check_positive(a, "Barnes period a")
    check_positive(tol, "tolerance")
    if tol / 2.0 == 0.0:
        raise ConvergenceError(
            f"{name}({a}) quadrature cannot reach tol={tol}: half of it underflows to 0"
        )
    try:
        x0, coeffs = coefficients(a)
    except OverflowError:
        raise ConvergenceError(
            f"{name}({a}) bracket series overflows a float; a is outside the quadrature's range"
        ) from None

    # the tail beyond X is under scale*e^-X; log(10 scale / tol) is taken
    # as a sum of logs, which stays finite.
    scale = max(1.0, bound(a))
    upper = max(40.0, log(10.0) + log(scale) - log(tol) + 5.0)

    def integrand(x):
        # past log(max float), e^x - 1 overflows and the integrand is 0
        return [
            v / expm1(t) if t <= _LOG_MAX_FLOAT else 0.0
            for v, t in zip(bracket(x, a, x0, coeffs), x)
        ]

    breaks = []
    edge = x0
    while edge < upper:
        breaks.append(edge)
        edge *= 2.0
    report = integrate_adaptive(
        integrand, 0.0, upper, tol / 2.0, initial_breakpoints=breaks
    )
    return report.require_converged(f"{name}({a}) at tol={tol}").value


def barnes_J(a: float, tol: float = 1e-12) -> float:
    """J(a) = integral over (0, inf) of
        [ coth(x/(2a))/(2x) - (a/4) csch(x/2)^2 - (a + 1/a)/12 ] / (e^x - 1) dx.

    The bracket is O(x^2) at the origin through cancellation of the three
    1/x^2 poles, so it is evaluated there by its power series (see
    ``_bracket_coefficients``); direct evaluation loses all digits.  The
    integral is truncated at X with the exponential tail bounded below
    tol/10 and the remainder integrated adaptively.
    """
    # |bracket| <= 1/(2x) coth(x/(2a)) + (a/4) csch^2(x/2) + (a+1/a)/12 = O(a + 1/a)
    return _half_line("J", a, tol, _bracket_coefficients, kernels.j_bracket, lambda a: a + 1 / a)


def _barnes_J_prime(a: float, tol: float = 1e-12) -> float:
    """J'(a), the same integral over the a-derivative of the bracket; J'(1) = 0.0."""
    # past x = 40 the bracket is about -(1 - 1/a^2)/12
    return _half_line("J'", a, tol, _bracket_prime_coefficients, _j_prime_bracket, lambda a: a**-2)


def zprime0_integral(a: float, tol: float = 1e-12) -> float:
    """zeta'_B(0; a, 1, 1) from the J(a) representation; error <= 2 tol."""
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


def barnes_tol(a: float, tol: float) -> float:
    """Tolerance for zeta'_B(0; a, 1, 1) inside a sum held to ``tol``.

    The Barnes term grows like a log a; absolute tolerances finer than its
    magnitude times eps are unattainable, so the tolerance scales with a.
    """
    return tol * max(1.0, a + 1.0 / a)


def zprime0(a, tol: float = 1e-12) -> float:
    """zeta'_B(0; a, 1, 1): closed form for RationalOrder, quadrature for floats.

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


def zprime0_taylor_near1(a: float) -> float:
    """Cubic expansion of zeta'_B(0; a, 1, 1) about a = 1 (trust radius 1/4):

        zeta'_R(-1) - 5 b/24 + (gamma/12 + 7/36) b^2 - (gamma/12 + 29/144) b^3,

    b = a - 1; truncation error O(b^4).
    """
    b = float(a) - 1.0
    if not abs(b) <= 0.25:  # NaN fails this too
        raise DomainError(f"Taylor form trusted only for |a-1| <= 0.25, got a={a}")
    g = euler_gamma()
    return zeta_prime_minus1() + b * (
        -5.0 / 24.0 + b * ((g / 12.0 + 7.0 / 36.0) + b * (-(g / 12.0 + 29.0 / 144.0)))
    )

