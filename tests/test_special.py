import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedet import (
    DomainError,
    RationalOrder,
    dedekind_sum,
    hurwitz_zero_values,
    log_gamma,
    sawtooth,
)
from conftest import coprime_pairs, dedekind_sum_definition


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=5e-15)

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_reflection_oracle_two_thirds(self):
        # Gamma(1/3) Gamma(2/3) = pi / sin(pi/3), computed independently
        lhs = log_gamma(1.0 / 3.0) + log_gamma(2.0 / 3.0)
        rhs = math.log(math.pi / math.sin(math.pi / 3.0))
        assert lhs == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("x", [0.1 * k for k in range(1, 101)])
    def test_recurrence_grid(self, x):
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-13, abs=1e-13
        )

    @pytest.mark.parametrize("x", [1e-3, 0.37, 1.0, 2.5, 10.0, 41.7, 100.0])
    def test_against_libm(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestHurwitzZeroValues:
    def test_at_one(self):
        z0, z0p = hurwitz_zero_values(1.0)
        assert z0 == -0.5
        assert z0p + 0.5 * math.log(2 * math.pi) == pytest.approx(0.0, abs=5e-15)

    def test_at_half(self):
        z0, z0p = hurwitz_zero_values(0.5)
        assert z0 == 0.0
        assert z0p == pytest.approx(
            0.5 * math.log(math.pi) - 0.5 * math.log(2 * math.pi), rel=1e-14
        )

    def test_at_quarter(self):
        z0, z0p = hurwitz_zero_values(0.25)
        assert z0 == 0.25
        assert z0p == pytest.approx(
            log_gamma(0.25) - 0.5 * math.log(2 * math.pi), rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zero_values(-0.1)


class TestSawtooth:
    def test_integers_vanish(self):
        assert sawtooth(2) == 0
        assert sawtooth(Fraction(6, 3)) == 0
        assert sawtooth(2.0) == 0.0
        assert sawtooth(-5) == 0

    def test_quarter(self):
        assert sawtooth(0.25) == -0.25

    def test_seven_thirds_exact(self):
        assert sawtooth(Fraction(7, 3)) == Fraction(-1, 6)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_float_range(self, x):
        v = sawtooth(x)
        assert -0.5 <= v < 0.5

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_exact_matches_float_away_from_integers(self, num, den):
        fr = Fraction(num, den)
        exact = sawtooth(fr)
        if fr.denominator == 1:
            assert exact == 0
        else:
            assert abs(float(exact) - sawtooth(num / den)) < 1e-9


class TestDedekindSum:
    def test_trivial(self):
        assert dedekind_sum(1, 1) == 0

    def test_q1_p3(self):
        # direct summation of the defining formula: ((1/3))^2 + ((2/3))^2
        assert dedekind_sum(1, 3) == Fraction(1, 18)

    def test_matches_definition(self):
        # reciprocity against the defining sum, at every coprime pair up to 60
        for p, q in coprime_pairs(60):
            assert dedekind_sum(q, p) == dedekind_sum_definition(q, p), (p, q)

    def test_far_denominator(self):
        # s(1, k) = (k - 1)(k - 2)/(12 k); the defining sum would take 10^12 terms
        k = 10**12
        assert dedekind_sum(1, k) == Fraction((k - 1) * (k - 2), 12 * k)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            dedekind_sum(2, 4)
        with pytest.raises(DomainError):
            dedekind_sum(0, 3)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(coprime_pairs(50)))
    def test_reciprocity(self, pq):
        # classical reciprocity as the oracle, in exact arithmetic
        p, q = pq
        lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
        rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12
        assert lhs == rhs

    def test_reciprocity_exhaustive_small(self):
        for p, q in coprime_pairs(12):
            lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
            rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12
            assert lhs == rhs, (p, q)


class TestRationalOrder:
    def test_valid(self):
        r = RationalOrder(3, 2)
        assert r.value == 1.5
        assert r.as_fraction() == Fraction(3, 2)

    def test_rejects_common_factor(self):
        with pytest.raises(DomainError):
            RationalOrder(4, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            RationalOrder(0, 1)
        with pytest.raises(DomainError):
            RationalOrder(1, -2)
