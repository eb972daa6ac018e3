"""Exception types shared across the package, and the three input guards
every layer uses: ``check_order`` for cone orders, ``check_positive`` for
periods, radii, scales and tolerances, ``check_finite`` for any other real.

The CLI maps these onto distinct exit codes, so the math layers should
raise the most specific type that applies instead of bare ValueError.
"""

from math import inf, isfinite


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(DomainError):
    """A configuration object violates its structural invariants."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach the requested tolerance."""


# C(beta) blows up at the angle-zero end; reject rather than overflow.
_MIN_BETA = -1.0 + 1e-9


def check_order(beta) -> float:
    """``beta`` as a float; ConfigurationError unless it is a finite cone
    order above -1 + 1e-9 (NaN and +-inf included)."""
    try:
        beta = float(beta)
    except OverflowError:  # an int beyond the float range
        beta = inf
    if not (isfinite(beta) and beta > _MIN_BETA):
        raise ConfigurationError(f"cone order {beta} must be finite and exceed -1 + 1e-9")
    return beta


def check_positive(value, what: str) -> None:
    """DomainError unless ``value`` is a finite positive number; ``what``
    names it in the message."""
    if not (isfinite(value) and value > 0):
        raise DomainError(f"{what} must be finite and positive, got {value}")


def check_finite(value, what: str) -> None:
    """DomainError on NaN and +-inf; ``what`` names ``value`` in the message."""
    if not isfinite(value):
        raise DomainError(f"{what} must be finite, got {value}")
