"""Library values against independent high-precision oracles (mpmath)."""

import mpmath
import pytest

from conedet import ConvergenceError, barnes_J, zprime0_integral
from conedet.barnes import _barnes_J_derivative
from conftest import j_mpmath, zprime0_mpmath


def j_bracket_mpmath(a, bracket):
    """30-digit integral over (0, inf) of bracket(x, a) / (e^x - 1), with
    ``a`` as an mpf; cut at x = 1e-12, below which the integrand is O(x)."""

    def f(x):
        # the 1/x^2 poles in the bracket cancel: 30 guard digits keep 30 near the cut
        with mpmath.extradps(30):
            return bracket(x, mpmath.mpf(a)) / mpmath.expm1(x)

    with mpmath.workdps(30):
        return mpmath.quad(f, [mpmath.mpf("1e-12"), 0.1, 1, 4, 16, 64, mpmath.inf])


def j_prime_mpmath(a):
    """J'(a): the bracket csch(x/(2a))^2/(4a^2) - csch(x/2)^2/4 - (1 - 1/a^2)/12."""
    return j_bracket_mpmath(a, lambda x, b: (
        mpmath.csch(x / (2 * b)) ** 2 / (4 * b * b)
        - mpmath.csch(x / 2) ** 2 / 4
        - (1 - 1 / (b * b)) / 12
    ))


def j_second_mpmath(a):
    """J''(a): the bracket csch(u)^2 (u coth u - 1)/(2a^3) - 1/(6a^3), u = x/(2a)."""

    def bracket(x, b):
        u = x / (2 * b)
        return mpmath.csch(u) ** 2 * (u * mpmath.coth(u) - 1) / (2 * b**3) - 1 / (6 * b**3)

    return j_bracket_mpmath(a, bracket)


def j_third_mpmath(a):
    """J'''(a): the bracket
    (csch(u)^2 (2u^2 coth(u)^2 + u^2 csch(u)^2 - 6u coth(u) + 3) + 1)/(2a^4),
    u = x/(2a), the third a-derivative of the J(a) bracket."""

    def bracket(x, b):
        u = x / (2 * b)
        s, c = mpmath.csch(u) ** 2, mpmath.coth(u)
        return (s * (2 * u * u * c * c + u * u * s - 6 * u * c + 3) + 1) / (2 * b**4)

    return j_bracket_mpmath(a, bracket)


class TestZPrimeFarFromOne:
    @pytest.mark.parametrize("a", [1e-14, 1e-8, 1e-4, 1e4, 1e8, 1e12])
    def test_matches_the_series(self, a):
        # the J route serves a from 1e-14 to 1e12 with tol scaled by a + 1/a
        want = float(zprime0_mpmath(a))
        assert abs(zprime0_integral(a) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("tol", [1e-13, 1e-14])
    def test_error_within_the_scaled_tol(self, tol):
        # an a whose K15 estimate under-reported the error of an absolute tol
        a = 58.434141337351754
        assert abs(barnes_J(a, tol) - float(j_mpmath(a))) <= tol * (a + 1 / a)


class TestJPrime:
    @pytest.mark.parametrize("a", [0.3, 0.8, 1.7, 4.0])
    def test_matches_mpmath(self, a):
        assert abs(_barnes_J_derivative(a, 1, 1e-13) - float(j_prime_mpmath(a))) <= 1e-13

    def test_vanishes_exactly_at_one(self):
        assert _barnes_J_derivative(1.0, 1) == 0.0
        assert _barnes_J_derivative(1.0, 1, 1e-13) == 0.0

    def test_unservable_input_is_convergence_error(self):
        with pytest.raises(ConvergenceError, match=r"^J'\(1e-300\) bracket series overflows"):
            _barnes_J_derivative(1e-300, 1)


class TestJSecond:
    @pytest.mark.parametrize("a", [0.3, 0.8, 1.7, 4.0])
    def test_matches_mpmath(self, a):
        assert abs(_barnes_J_derivative(a, 2, 1e-13) - float(j_second_mpmath(a))) <= 1e-13

    def test_exact_values_at_one(self):
        # J''(1) = -1/36 and J'''(1) = 1/8, from the Taylor coefficients of
        # zeta'_B(0; a, 1, 1) at a = 1 (tests/test_barnes.py)
        with mpmath.workdps(30):
            second, third = -mpmath.mpf(1) / 36, mpmath.mpf(1) / 8
        assert abs(_barnes_J_derivative(1.0, 2, 1e-13) - float(second)) <= 1e-15
        assert abs(_barnes_J_derivative(1.0, 3, 1e-13) - float(third)) <= 1e-15

    @pytest.mark.parametrize("n, name", [(2, "J''"), (3, "J'''")])
    def test_errors_name_the_derivative(self, n, name):
        with pytest.raises(ConvergenceError, match=rf"^{name}\(1e-300\) bracket series overflows"):
            _barnes_J_derivative(1e-300, n)


class TestJThird:
    @pytest.mark.parametrize("a", [0.3, 0.8, 1.7, 4.0])
    def test_matches_mpmath(self, a):
        want = float(j_third_mpmath(a))
        assert abs(_barnes_J_derivative(a, 3, 1e-13) - want) <= 1e-13 * max(1.0, abs(want))
