"""Real-analysis primitives: log-gamma, Hurwitz zeta values at s = 0,
the sawtooth symbol ((x)), and Dedekind sums in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lgamma, log, pi

from .errors import DomainError, check_positive

__all__ = [
    "RationalOrder",
    "dedekind_sum",
    "hurwitz_zero_values",
    "log_gamma",
    "sawtooth",
]

LOG_2PI = log(2.0 * pi)


def _positive_ints(*values) -> bool:
    """Whether every value is a plain int (not a bool) of at least 1."""
    return all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values)


@dataclass(frozen=True)
class RationalOrder:
    """An exact positive rational p/q in lowest terms."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if not _positive_ints(p, q):
            raise DomainError(f"rational order must be positive integers, got {p}/{q}")
        if gcd(p, q) != 1:
            raise DomainError(f"{p}/{q} is not in lowest terms")

    @property
    def value(self) -> float:
        return self.p / self.q

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for finite x > 0 (``math.lgamma``)."""
    check_positive(x, "log_gamma argument")
    return lgamma(x)


def hurwitz_zero_values(x: float) -> tuple[float, float]:
    """(zeta_H(0; x), zeta'_H(0; x)) for x > 0.

    Closed forms: zeta_H(0; x) = 1/2 - x and
    zeta'_H(0; x) = log Gamma(x) - log(2 pi)/2.
    """
    check_positive(x, "hurwitz_zero_values argument")
    return 0.5 - x, log_gamma(x) - 0.5 * LOG_2PI


def sawtooth(x) -> Fraction:
    """The symbol ((x)): x - floor(x) - 1/2 for non-integer x, 0 at integers.

    Exact: x (an int, a Fraction or a float taken at its binary value) is
    turned into a Fraction, and so is the result.  ((.)) is discontinuous
    at the integers, where floats cannot tell the two sides apart.
    """
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - floor(x) - Fraction(1, 2)


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum S(q, p) = sum_{j=1..p} ((j/p)) ((j q/p)), exact.

    Requires positive ints (not bools) with gcd(p, q) = 1.  Computed by
    reciprocity, s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4 with
    s(h, k) = s(h mod k, k), down Euclid's algorithm to s(0, 1) = 0, in
    rational arithmetic: O(log p) steps.
    """
    if not _positive_ints(q, p):
        raise DomainError(f"dedekind_sum requires positive integers, got q={q}, p={p}")
    if gcd(p, q) != 1:
        raise DomainError(f"dedekind_sum requires gcd(p, q) = 1, got q={q}, p={p}")
    total, sign = Fraction(0), 1
    h, k = q % p, p
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total
