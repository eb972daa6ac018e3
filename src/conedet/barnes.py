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

``barnes_zeta_series`` evaluates the defining double sum for s > 2 and
serves as the convergent-region oracle (zeta_B(s;1,1,1) = zeta_R(s-1)).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import expm1, factorial, fsum, isfinite, log

from . import kernels
from .constants import euler_gamma, zeta_prime_minus1
from .errors import ConvergenceError, DomainError, check_positive
from .quadrature import integrate_adaptive
from .special import LOG_2PI, RationalOrder, dedekind_sum, log_gamma, sawtooth

__all__ = [
    "barnes_J",
    "barnes_zeta_series",
    "zprime0",
    "zprime0_integral",
    "zprime0_rational",
    "zprime0_taylor_near1",
    "zprime_a0",
    "zprime_a0_IR",
]

# The closed form sums p + q terms in Python loops (the Dedekind sum and the
# log-gamma sums); past this many it runs for seconds, growing linearly.
MAX_RATIONAL_TERMS = 100_000

_LOG_MAX_FLOAT = log(sys.float_info.max)

# B_4, B_6, ..., B_24: enough series terms for the J(a) bracket at the
# crossover radius used below (terms shrink by >= two decades each).
_BERNOULLI = (
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
)


def _bracket_coefficients(a: float, tol: float):
    """Crossover x0 and series coefficients for the J(a) bracket.

    For x below the convergence radius 2 pi min(a, 1) the bracket equals
        sum_{k>=2} g_k(a) x^(2k-2),
        g_k(a) = B_{2k}/(2k)! * (a^(1-2k) + (2k-1) a),
    (the 1/x^2 poles of the three terms cancel, as do the constants).
    x0 starts at 0.35 min(a, 1) and shrinks until the first omitted term
    is below tol, which bounds the series truncation error on (0, x0].
    """
    gs = [
        float(b) / factorial(2 * k) * (a ** (1 - 2 * k) + (2 * k - 1) * a)
        for k, b in enumerate(_BERNOULLI, start=2)
    ]
    x0 = 0.35 * min(a, 1.0)
    while abs(gs[-1]) * x0 ** (2 * len(gs)) > tol and x0 > 1e-30:
        x0 *= 0.7
    return x0, tuple(gs[:-1])


def barnes_J(a: float, tol: float = 1e-12) -> float:
    """J(a) = integral over (0, inf) of
        [ coth(x/(2a))/(2x) - (a/4) csch(x/2)^2 - (a + 1/a)/12 ] / (e^x - 1) dx.

    The bracket is O(x^2) at the origin through cancellation of the three
    1/x^2 poles, so it is evaluated there by its power series (see
    ``_bracket_coefficients``); direct evaluation loses all digits.  The
    integral is truncated at X with the exponential tail bounded below
    tol/10 and the remainder integrated adaptively.
    """
    check_positive(a, "Barnes period a")
    check_positive(tol, "tolerance")
    if tol / 2.0 == 0.0:
        raise ConvergenceError(
            f"J({a}) quadrature cannot reach tol={tol}: half of it underflows to 0"
        )
    scale = max(1.0, a + 1.0 / a)
    try:
        x0, coeffs = _bracket_coefficients(a, tol / (20.0 * scale))
    except OverflowError:
        raise ConvergenceError(
            f"J({a}) bracket series overflows a float; a is too small for the quadrature"
        ) from None

    # |bracket| <= 1/(2x) coth(x/(2a)) + (a/4) csch^2(x/2) + (a+1/a)/12 is
    # O(a + 1/a) for x >= 40, so the tail beyond X is under scale*e^-X;
    # log(scale / tol) is taken as a difference, which stays finite.
    upper = max(40.0, log(10.0 * scale) - log(tol) + 5.0)

    def integrand(x):
        # past log(max float), e^x - 1 overflows and the integrand is 0
        return [
            v / expm1(t) if t <= _LOG_MAX_FLOAT else 0.0
            for v, t in zip(kernels.j_bracket(x, a, x0, coeffs), x)
        ]

    breaks = []
    edge = x0
    while edge < upper:
        breaks.append(edge)
        edge *= 2.0
    report = integrate_adaptive(
        integrand, 0.0, upper, tol / 2.0, initial_breakpoints=breaks
    )
    if not report.converged:
        raise ConvergenceError(
            f"J({a}) quadrature did not reach tol={tol} "
            f"(error estimate {report.error_estimate:.3e})"
        )
    return report.value


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


def zprime_a0_IR(a: float, tol: float = 1e-12) -> float:
    """Z'_a(0) by its integral-representation definition:
    (1/a - a)(gamma - log 2)/12 - (1/a + 3 + a) log(a)/12 + J(a)
    - a (-gamma/6 - 5/24 + log(2 pi)/4 + zeta'_R(-1)).
    """
    a = float(a)
    check_positive(a, "Barnes period a")
    g = euler_gamma()
    return fsum(
        [
            (1.0 / a - a) * (g - log(2.0)) / 12.0,
            -(1.0 / a + 3.0 + a) * log(a) / 12.0,
            barnes_J(a, tol),
            -a * (-g / 6.0 - 5.0 / 24.0 + 0.25 * LOG_2PI + zeta_prime_minus1()),
        ]
    )


def zprime0_taylor_near1(a: float) -> float:
    """Cubic expansion of zeta'_B(0; a, 1, 1) about a = 1 (trust radius 1/4):

        zeta'_R(-1) - 5 b/24 + (gamma/12 + 7/36) b^2 - (gamma/12 + 29/144) b^3,

    b = a - 1; truncation error O(b^4).
    """
    b = float(a) - 1.0
    if abs(b) > 0.25:
        raise DomainError(f"Taylor form trusted only for |a-1| <= 0.25, got a={a}")
    g = euler_gamma()
    return zeta_prime_minus1() + b * (
        -5.0 / 24.0 + b * ((g / 12.0 + 7.0 / 36.0) + b * (-(g / 12.0 + 29.0 / 144.0)))
    )


# ----------------------------------------------------------------------
# Convergent-region double sum (oracle for the continuation routes)
# ----------------------------------------------------------------------


def _hurwitz(s: float, c: float, n_direct: int = 64) -> float:
    """sum_{n>=0} (c + n)^(-s) for s > 1 via direct head + Euler-Maclaurin tail."""
    head = fsum((c + n) ** (-s) for n in range(n_direct))
    y = c + n_direct
    tail = (
        y ** (1.0 - s) / (s - 1.0)
        + 0.5 * y ** (-s)
        + s * y ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * y ** (-s - 3.0) / 720.0
    )
    return head + tail


def barnes_zeta_series(s: float, a: float, x: float, tol: float = 1e-10) -> float:
    """zeta_B(s; a, 1, x) for s > 2 by row reduction of the double sum.

    Row m sums to the Hurwitz value zeta_H(s; a m + x); rows are added
    directly up to M and the remainder is bounded by Euler-Maclaurin in m
    (the antiderivative of zeta_H(s; a t + x) is zeta_H(s-1;.)/((s-1) a)).
    M doubles until the rigorous remainder bound is under tol.
    """
    if not (isfinite(s) and s > 2.0):
        raise DomainError(f"double sum converges only for finite s > 2, got s={s}")
    check_positive(a, "a")
    check_positive(x, "x")
    m_rows = 32
    while True:
        c = a * m_rows + x
        tail = (
            _hurwitz(s - 1.0, c) / ((s - 1.0) * a)
            + 0.5 * _hurwitz(s, c)
            + s * a * _hurwitz(s + 1.0, c) / 12.0
        )
        # next Euler-Maclaurin term bounds the remainder of the m-tail
        bound = s * (s + 1.0) * (s + 2.0) * a**3 * _hurwitz(s + 3.0, c) / 720.0
        if bound <= tol / 2.0 or m_rows > 2**20:
            break
        m_rows *= 2
    head = fsum(_hurwitz(s, a * m + x) for m in range(m_rows))
    return head + tail
