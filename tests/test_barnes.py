import math
import re

import numpy as np
import pytest

from conedet import (
    ConvergenceError,
    DomainError,
    RationalOrder,
    barnes_J,
    log_gamma,
    zeta_prime_minus1,
    zprime0,
    zprime0_integral,
    zprime0_rational,
    zprime0_taylor_near1,
    zprime_a0,
)
from conedet.barnes import MAX_RATIONAL_TERMS, _bracket_coefficients
from conedet import kernels, quadrature
from conftest import coprime_pairs, zprime_a0_ir

LOG_2PI = math.log(2 * math.pi)


def blf1(p, zp):
    """Integer-period specialization, test-only evaluator."""
    return (
        zp / p
        - (p / 12.0 + 0.25 + 1.0 / (6.0 * p)) * math.log(p)
        - sum(j / p * log_gamma(j / p) for j in range(1, p))
        + (p - 1) / 4.0 * LOG_2PI
    )


def blf2(q, zp):
    """Reciprocal-integer-period specialization, test-only evaluator."""
    return (
        zp / q
        - math.log(q) / (12.0 * q)
        - sum(j / q * log_gamma(j / q) for j in range(1, q))
        + (q - 1) / 4.0 * LOG_2PI
    )


class TestJIntegral:
    def test_end_to_end_anchor(self, zp, gamma):
        # assembling zeta'_B(0;1,1,1) from J(1) must land on zeta'_R(-1)
        j1 = barnes_J(1.0, 1e-13)
        assert gamma / 6.0 + 5.0 / 24.0 - 0.25 * LOG_2PI + j1 == pytest.approx(
            zp, abs=1e-12
        )

    def test_integrand_vanishes_at_origin(self):
        # bracket is O(x^2), prefactor O(1/x): the integrand falls linearly
        x0, coeffs = _bracket_coefficients(1.0)
        x = np.array([1e-8, 1e-6, 1e-4])
        vals = kernels.j_bracket(x, 1.0, x0, coeffs) / np.expm1(x)
        np.testing.assert_array_less(np.abs(vals), 0.01 * x)

    def test_bracket_series_matches_direct_at_crossover(self):
        for a in (0.2, 1.0, 3.7):
            x0, coeffs = _bracket_coefficients(a)
            x = np.array([x0 * 0.98, x0 * 1.02])
            both = kernels.j_bracket(x, a, x0, coeffs)
            direct = kernels.j_bracket(x, a, 0.0, coeffs)  # force direct branch
            assert both[1] == direct[1]
            assert both[0] == pytest.approx(direct[0], rel=1e-9)

    def test_derivative_behaviour_near_one(self):
        # J'(a) = -(a-1)/36 + (a-1)^2/16 + O((a-1)^3)
        h = 1e-4
        d_at_1 = (barnes_J(1.0 + h, 1e-13) - barnes_J(1.0 - h, 1e-13)) / (2 * h)
        assert abs(d_at_1) < 1e-6
        for da in (0.05, 0.1):
            d = (barnes_J(1.0 + da + h, 1e-13) - barnes_J(1.0 + da - h, 1e-13)) / (2 * h)
            pred = -da / 36.0 + da * da / 16.0
            assert d == pytest.approx(pred, abs=3.0 * da**3)

    def test_domain(self):
        with pytest.raises(DomainError):
            barnes_J(-1.0)
        with pytest.raises(DomainError):
            barnes_J(1.0, tol=-1e-10)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                barnes_J(bad)
            with pytest.raises(DomainError):
                zprime0_integral(bad)
        for bad_tol in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="tolerance"):
                barnes_J(1.0, tol=bad_tol)
            with pytest.raises(DomainError, match="tolerance"):
                zprime0_integral(1.5, bad_tol)

    @pytest.mark.parametrize(
        "a, tol", [(1e-14, 1e-10), (1e-300, 1e-10), (1e-8, 5e-324), (1.7e308, 1e298)]
    )
    def test_unservable_input_is_convergence_error(self, a, tol):
        # a bracket series that overflows a float, or a tol whose half
        # underflows to 0, ends in ConvergenceError naming the input
        with pytest.raises(ConvergenceError, match=re.escape(f"J({a})")):
            barnes_J(a, tol)

    @pytest.mark.parametrize(
        "a, tol, max_estimate",
        [(1e-6, 1e-12, math.inf), (1e4, 1e-12, math.inf), (2.0, 1e-300, 1e-10)],
    )
    def test_unmeetable_tol_fails_fast(self, monkeypatch, a, tol, max_estimate):
        # panels at their rounding floor are final, so a tol below what the
        # panels can certify fails long before the 4000-panel budget, and
        # the crossover stays where the series is exact
        calls = []
        panel = quadrature._gk15_panel

        def spy(*args):
            calls.append(args)
            return panel(*args)

        monkeypatch.setattr(quadrature, "_gk15_panel", spy)
        with pytest.raises(ConvergenceError, match=re.escape(f"J({a}) at tol={tol}")) as info:
            barnes_J(a, tol)
        assert len(calls) <= 1000
        estimate = float(re.search(r"estimate (\S+)\)", str(info.value)).group(1))
        assert estimate < max_estimate


class TestRationalClosedForm:
    def test_rational_value_table(self, zp):
        cases = {
            (1, 1): zp,
            (2, 1): 0.5 * zp - 0.25 * math.log(2),
            (1, 2): 0.5 * zp + 5.0 / 24.0 * math.log(2),
            (3, 1): zp / 3.0
            + math.log(2) / 6.0
            - 7.0 / 18.0 * math.log(3)
            - log_gamma(2.0 / 3.0) / 3.0
            + math.log(math.pi) / 6.0,
            (1, 3): zp / 3.0
            + math.log(2) / 6.0
            + 5.0 / 36.0 * math.log(3)
            - log_gamma(2.0 / 3.0) / 3.0
            + math.log(math.pi) / 6.0,
            (4, 1): zp / 4.0
            - 5.0 / 8.0 * math.log(2)
            - 0.5 * log_gamma(0.75)
            + 0.25 * math.log(math.pi),
            (1, 4): zp / 4.0
            + 7.0 / 12.0 * math.log(2)
            - 0.5 * log_gamma(0.75)
            + 0.25 * math.log(math.pi),
        }
        for (p, q), expected in cases.items():
            assert zprime0_rational(RationalOrder(p, q)) == pytest.approx(
                expected, abs=1e-12
            ), (p, q)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_reduces_to_integer_specialization(self, p, zp):
        assert zprime0_rational(RationalOrder(p, 1)) == pytest.approx(
            blf1(p, zp), abs=1e-12
        )

    @pytest.mark.parametrize("q", range(1, 7))
    def test_reduces_to_reciprocal_specialization(self, q, zp):
        assert zprime0_rational(RationalOrder(1, q)) == pytest.approx(
            blf2(q, zp), abs=1e-12
        )


    @pytest.mark.parametrize("p, q", [(100001, 1), (1, 100000), (50001, 50000)])
    def test_term_limit(self, p, q):
        assert p + q > MAX_RATIONAL_TERMS
        with pytest.raises(DomainError, match="p \\+ q"):
            zprime0_rational(RationalOrder(p, q))


class TestIntegralRouteAnchors:
    def test_at_one(self, zp):
        assert zprime0_integral(1.0, 1e-13) == pytest.approx(zp, abs=1e-12)

    def test_at_two(self, zp):
        assert zprime0_integral(2.0, 1e-13) == pytest.approx(
            0.5 * zp - 0.25 * math.log(2), abs=1e-12
        )

    def test_at_half(self, zp):
        assert zprime0_integral(0.5, 1e-13) == pytest.approx(
            0.5 * zp + 5.0 / 24.0 * math.log(2), abs=1e-12
        )


class TestRouteAgreement:
    @pytest.mark.parametrize("pq", coprime_pairs(8))
    def test_rational_vs_integral(self, pq):
        p, q = pq
        r = zprime0_rational(RationalOrder(p, q))
        i = zprime0_integral(p / q, 1e-10)
        assert abs(r - i) <= 1e-8, (p, q, r - i)

    def test_dispatch(self):
        assert zprime0(RationalOrder(3, 2)) == zprime0_rational(RationalOrder(3, 2))
        assert zprime0(1.5, 1e-10) == zprime0_integral(1.5, 1e-10)
        assert abs(zprime0(RationalOrder(3, 2)) - zprime0(1.5, 1e-10)) <= 1e-8

    def test_anchor_at_one(self, zp):
        assert zprime0(RationalOrder(1, 1)) == pytest.approx(zp, abs=1e-13)

    def test_two_thirds(self):
        assert zprime0(RationalOrder(2, 3)) == pytest.approx(
            zprime0_integral(2.0 / 3.0, 1e-11), abs=1e-9
        )


class TestZPrimeA0:
    def test_vanishes_at_one(self):
        assert abs(zprime_a0(1.0, 1e-12)) < 1e-11
        assert abs(zprime_a0_ir(1.0, 1e-12)) < 1e-11

    def test_symbolic_at_two(self, zp):
        # substitute the closed rational value into the defining combination
        expected = (
            (0.5 * zp - 0.25 * math.log(2))
            - 2.0 * zp
            + (2.0 - 0.5) * math.log(2) / 12.0
            - 0.25 * LOG_2PI
        )
        assert zprime_a0(RationalOrder(2, 1)) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0])
    def test_equivalence_of_definitions(self, a):
        assert abs(zprime_a0(a, 1e-10) - zprime_a0_ir(a, 1e-10)) <= 1e-8

    def test_equivalence_on_rational_route(self):
        got = zprime_a0(RationalOrder(1, 3))
        assert abs(got - zprime_a0_ir(1.0 / 3.0, 1e-11)) <= 1e-8


class TestTaylorNearOne:
    def test_center(self, zp):
        assert zprime0_taylor_near1(1.0) == zp

    def test_close_agreement(self):
        assert abs(zprime0_taylor_near1(1.01) - zprime0_integral(1.01, 1e-12)) <= 5e-8

    def test_tenth_away(self):
        assert abs(zprime0_taylor_near1(0.9) - zprime0_integral(0.9, 1e-12)) <= 1e-4

    def test_trust_radius(self):
        with pytest.raises(DomainError):
            zprime0_taylor_near1(1.3)

    def test_quartic_remainder_scaling(self):
        # |taylor - integral| / (a-1)^4 stays bounded as a -> 1
        ratios = []
        for k in range(3, 8):
            b = 2.0**-k
            for a in (1.0 + b, 1.0 - b):
                diff = abs(zprime0_taylor_near1(a) - zprime0_integral(a, 1e-13))
                ratios.append(diff / b**4)
        assert max(ratios) < 1.0
