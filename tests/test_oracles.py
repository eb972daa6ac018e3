"""Library values against independent high-precision oracles (mpmath)."""

import mpmath
import pytest

from conedet import ConvergenceError
from conedet.barnes import _barnes_J_prime


def j_prime_mpmath(a):
    """30-digit J'(a), the integral over (0, inf) of
    [csch(x/(2a))^2/(4a^2) - csch(x/2)^2/4 - (1 - 1/a^2)/12] / (e^x - 1);
    cut at x = 1e-12, below which the integrand is O(x)."""

    def f(x):
        # the three 1/x^2 poles cancel: 30 guard digits keep 30 near the cut
        with mpmath.extradps(30):
            b = mpmath.mpf(a)
            bracket = (
                mpmath.csch(x / (2 * b)) ** 2 / (4 * b * b)
                - mpmath.csch(x / 2) ** 2 / 4
                - (1 - 1 / (b * b)) / 12
            )
            return bracket / mpmath.expm1(x)

    with mpmath.workdps(30):
        return mpmath.quad(f, [mpmath.mpf("1e-12"), 0.1, 1, 4, 16, 64, mpmath.inf])


class TestJPrime:
    @pytest.mark.parametrize("a", [0.3, 0.8, 1.7, 4.0])
    def test_matches_mpmath(self, a):
        assert abs(_barnes_J_prime(a, 1e-13) - float(j_prime_mpmath(a))) <= 1e-13

    def test_vanishes_exactly_at_one(self):
        assert _barnes_J_prime(1.0) == 0.0
        assert _barnes_J_prime(1.0, 1e-13) == 0.0

    def test_unservable_input_is_convergence_error(self):
        with pytest.raises(ConvergenceError, match=r"^J'\(1e-300\) bracket series overflows"):
            _barnes_J_prime(1e-300)
