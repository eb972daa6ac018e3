"""Fundamental real constants computed at first use: the Euler-Mascheroni
constant gamma (harmonic sum with Euler-Maclaurin correction, not copied
from a table) and zeta'_R(-1), on which everything downstream leans,
through the functional equation of the Riemann zeta function,
    zeta'_R(-1) = -(1/12) [log(2 pi) + gamma - 1 - zeta'_R(2)/zeta_R(2)],
with zeta'_R(2) from 28 terms and an Euler-Maclaurin tail.  The test suite
checks both against 30-digit values.

All constants are memoized through lru_cache; every function here is pure,
so a second computation under concurrent first use returns the same value.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import fsum, log, pi

__all__ = [
    "FundamentalConstants",
    "euler_gamma",
    "fundamental_constants",
    "zeta_prime_minus1",
]


@dataclass(frozen=True)
class FundamentalConstants:
    """Snapshot of the memoized constants (gamma, zeta'_R(-1), log 2pi)."""

    euler_gamma: float
    zeta_prime_minus1: float
    log_2pi: float


@lru_cache(maxsize=1)
def euler_gamma() -> float:
    """Euler-Mascheroni constant gamma = -Gamma'(1).

    H_n - log n with Euler-Maclaurin corrections through n^-8; at n = 400
    the first omitted term is below 1e-22.
    """
    n = 400
    h = fsum(1.0 / k for k in range(1, n + 1))
    n2 = float(n) * n
    corr = -1.0 / (2 * n) + 1.0 / (12 * n2) - 1.0 / (120 * n2 * n2) + 1.0 / (252 * n2 * n2 * n2)
    return h - log(n) + corr


# B_2, B_4, ..., B_22: B_2..B_12 are the Euler-Maclaurin corrections of
# _zeta_prime_2, B_4..B_22 the series terms of the Barnes J(a) bracket.
BERNOULLI_2K = (
    1 / 6,
    -1 / 30,
    1 / 42,
    -1 / 30,
    5 / 66,
    -691 / 2730,
    7 / 6,
    -3617 / 510,
    43867 / 798,
    -174611 / 330,
    854513 / 138,
)


@lru_cache(maxsize=1)
def _zeta_prime_2() -> float:
    """zeta'_R(2) = -sum_{n>=2} f(n), f(x) = log(x)/x^2: the terms below
    N = 30 summed directly, the rest by Euler-Maclaurin,
        sum_{n>=N} f(n) = (log N + 1)/N + f(N)/2 - sum_{k=1..6} B_2k/(2k)! f^(2k-1)(N).
    The derivatives have the closed form
        f^(m)(x) = (-1)^m (m+1)! x^-(m+2) (log x - H_{m+1} + 1),
    so the k-th correction is B_2k N^-(2k+1) (log N - H_2k + 1).  The first
    omitted one, with B_14, is about 1e-22.
    """
    n = 30
    x = float(n)
    log_x = log(x)
    terms = [log(k) / (k * k) for k in range(2, n)]
    terms += [(log_x + 1.0) / x, log_x / (2.0 * x * x)]
    for k, b in enumerate(BERNOULLI_2K[:6], start=1):
        harmonic = fsum(1.0 / j for j in range(1, 2 * k + 1))
        terms.append(b * x ** -(2 * k + 1) * (log_x - harmonic + 1.0))
    return -fsum(terms)


@lru_cache(maxsize=1)
def zeta_prime_minus1() -> float:
    """zeta'_R(-1) via the functional equation of the Riemann zeta function.

    Differentiating zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    at s = -1 (where zeta(-1) = -1/12, psi(2) = 1 - gamma) gives
        zeta'(-1) = -(1/12) [log(2 pi) + gamma - 1 - zeta'(2)/zeta(2)].
    """
    zeta2 = pi * pi / 6.0
    return -(log(2.0 * pi) + euler_gamma() - 1.0 - _zeta_prime_2() / zeta2) / 12.0


def fundamental_constants() -> FundamentalConstants:
    return FundamentalConstants(
        euler_gamma=euler_gamma(),
        zeta_prime_minus1=zeta_prime_minus1(),
        log_2pi=log(2.0 * pi),
    )
