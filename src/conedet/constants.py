"""Fundamental real constants computed at first use.

Everything downstream leans on zeta'_R(-1), so that constant is computed by
two genuinely independent routes which are required to agree:

* the functional-equation route,
      zeta'_R(-1) = -(1/12) [log(2 pi) + gamma - 1 - zeta'_R(2)/zeta_R(2)],
  with zeta'_R(2) from 28 terms and an Euler-Maclaurin tail, and

* the Glaisher-constant route, where log A is extracted from the defining
  limit  log A = lim_n [ sum_{k<=n} k log k - (n^2/2 + n/2 + 1/12) log n
  + n^2/4 ]  (telescoped so no catastrophic cancellation occurs) and
      zeta'_R(-1) = 1/12 - log A.

The Euler-Mascheroni constant is likewise computed (harmonic sum with
Euler-Maclaurin correction), not copied from a table.

All constants are memoized through lru_cache; every function here is pure,
so a second computation under concurrent first use returns the same value.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import fsum, log, log1p, pi

__all__ = [
    "FundamentalConstants",
    "euler_gamma",
    "fundamental_constants",
    "zeta_prime_minus1",
    "zeta_prime_minus1_glaisher",
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


@lru_cache(maxsize=1)
def zeta_prime_minus1_glaisher() -> float:
    """zeta'_R(-1) = 1/12 - log A with log A from the hyperfactorial limit.

    Telescoping the limit against its own asymptote gives
        log A = 1/4 + sum_{k>=2} delta_k,
        delta_k = k log k - [A(k) - A(k-1)],
        A(x) = (x^2/2 + x/2 + 1/12) log x - x^2/4.
    Writing log(k-1) = log k + log1p(-1/k) reduces delta_k to
        delta_k = Q(k) log1p(-1/k) + k/2 - 1/4,   Q(k) = (k^2 - k)/2 + 1/12,
    which for large k is evaluated through the cancellation-free expansion
        delta_k = sum_{m>=3} d_m k^-m,
        d_m = -1/(2(m+2)) + 1/(2(m+1)) - 1/(12 m),
    (d_3 = -1/360, d_4 = -1/240, ...).  Direct evaluation is used for
    k < 32 where the cancellation loses at most ~2 digits.
    """
    n = 100000
    k_switch = 32
    terms = []
    for k in range(2, k_switch):
        q = (k * k - k) / 2.0 + 1.0 / 12.0
        terms.append(q * log1p(-1.0 / k) + k / 2.0 - 0.25)
    d = [-1.0 / (2 * (m + 2)) + 1.0 / (2 * (m + 1)) - 1.0 / (12 * m) for m in range(3, 13)]
    for k in range(k_switch, n + 1):
        inv = 1.0 / k
        acc = 0.0
        p = inv * inv * inv
        for dm in d:
            acc += dm * p
            p *= inv
        terms.append(acc)
    # integral tail of the m = 3, 4 series pieces beyond n
    tail = d[0] * (0.5 / (n * n)) + d[1] * (1.0 / (3.0 * n**3))
    log_a = 0.25 + fsum(terms) + tail
    return 1.0 / 12.0 - log_a


def fundamental_constants() -> FundamentalConstants:
    return FundamentalConstants(
        euler_gamma=euler_gamma(),
        zeta_prime_minus1=zeta_prime_minus1(),
        log_2pi=log(2.0 * pi),
    )
