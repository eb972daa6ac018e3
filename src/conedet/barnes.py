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

The a-derivatives of J, for the cone-order derivatives of the
determinants, are integrals of the same kind on the same half line."""

from __future__ import annotations

import sys
from fractions import Fraction
from math import exp, expm1, factorial, fsum, isfinite, log, prod

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


def _derivative_coefficients(a: float, n: int):
    """As above for the n-th a-derivative of the bracket: B_{2k}/(2k)! times
    (1-2k)(-2k)...(2-2k-n) a^(1-2k-n), plus (2k-1) when n = 1, the n-th
    derivative of a^(1-2k) + (2k-1) a; for n = 1 each is 0.0 at a = 1."""

    def weight(k):
        falling = prod(range(1 - 2 * k, 1 - 2 * k - n, -1))
        return falling * a ** (1 - 2 * k - n) + (2 * k - 1 if n == 1 else 0)

    return _series_coefficients(a, weight)


def _derivative_direct(t: float, a: float, n: int) -> float:
    """The n-th a-derivative of the J(a) bracket at t > x0.  With u = t/(2a),
    s = csch(u)^2 = 4e^{-t/a}/(1 - e^{-t/a})^2, c = coth(u) = (1 + e^{-t/a})/(1 - e^{-t/a}):
        n = 1:  s/(4a^2) - csch(t/2)^2/4 - (1 - 1/a^2)/12,
        n = 2:  (s(u c - 1) - 1/3)/(2a^3),
        n = 3:  (1 + s(3 + 2u^2 + 3u^2 s - 6u c))/(2a^4).
    For n = 1 the two csch terms are formed alike, so the value is 0.0 at
    a = 1.  The decaying-exponential forms stay finite for any large t."""
    e, d1 = exp(-t / a), -expm1(-t / a)
    if n == 1:
        d2 = -expm1(-t)
        return e / (d1 * d1) / (a * a) - exp(-t) / (d2 * d2) - (1.0 - 1.0 / (a * a)) / 12.0
    u, s, c = t / (2.0 * a), 4.0 * e / (d1 * d1), (1.0 + e) / d1
    if n == 2:
        return (s * (u * c - 1.0) - 1.0 / 3.0) / (2.0 * a**3)
    return (1.0 + s * (3.0 + 2.0 * u * u + 3.0 * u * u * s - 6.0 * u * c)) / (2.0 * a**4)


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


def _barnes_J_derivative(a: float, n: int, tol: float = 1e-12) -> float:
    """d^n J/da^n for n = 1, 2, 3, the same integral over the n-th
    a-derivative of the bracket: J'(1) = 0.0, J''(1) = -1/36 and
    J'''(1) = 1/8.  Below x0 the bracket is summed by its series, as in
    ``kernels.j_bracket``; n = 3 is used (and checked) at a = 1 only."""

    def bracket(x, a, x0, coeffs):
        rev = coeffs[::-1]
        out = []
        for t in x:
            if t <= x0:
                t2 = t * t
                acc = 0.0
                for c in rev:
                    acc = (acc + c) * t2
                out.append(acc)
            else:
                out.append(_derivative_direct(t, a, n))
        return out

    # past x = 40 the n-th derivative of the bracket is about a^-(n+1) in size
    return _half_line("J" + "'" * n, a, tol, lambda a: _derivative_coefficients(a, n), bracket,
                      lambda a: a ** -(n + 1))


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
