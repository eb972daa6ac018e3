import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conedet import (
    ConeOrder,
    ConfigurationError,
    DomainError,
    RationalOrder,
    SurfaceTopology,
    c_beta,
    c_beta_parts,
    heat_trace_a0,
    rescale_logdet,
    zeta0_surface,
    zeta_disk_at0,
    zeta_disk_prime0,
    zprime0_rational,
)

LOG2 = math.log(2)


class TestCBeta:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_orders(self, bad):
        with pytest.raises(DomainError):
            ConeOrder(beta=bad)
        with pytest.raises(DomainError):
            c_beta(bad)

    def test_vanishes_at_regular_point(self):
        order = ConeOrder.from_rational(RationalOrder(1, 1))
        assert abs(c_beta(order)) <= 1e-12

    def test_order_one(self, zp):
        order = ConeOrder.from_rational(RationalOrder(2, 1))
        assert c_beta(order) == pytest.approx(-zp - LOG2 / 12.0 - 1.0 / 12.0, abs=1e-12)

    def test_order_minus_half(self, zp):
        order = ConeOrder.from_rational(RationalOrder(1, 2))
        assert c_beta(order) == pytest.approx(-zp - LOG2 / 6.0 + 1.0 / 24.0, abs=1e-12)

    def test_parts_sum_to_total(self):
        order = ConeOrder(beta=0.37)
        parts = c_beta_parts(order)
        assert math.fsum(parts.values()) == c_beta(order)
        assert set(parts) == {"barnes", "log2", "linear", "log_angle"}

    def test_float_and_exact_routes_agree(self):
        exact = c_beta(ConeOrder.from_rational(RationalOrder(3, 2)))
        numeric = c_beta(0.5, tol=1e-11)
        assert abs(exact - numeric) <= 1e-8

    def test_divergence_thresholds(self):
        assert c_beta(-1.0 + 1e-4) > 10.0
        assert c_beta(1e4) < -10.0

    def test_angle_guard(self):
        with pytest.raises(DomainError):
            c_beta(-1.0 + 1e-12)
        with pytest.raises(DomainError):
            ConeOrder(beta=-1.5)

    def test_exact_field_must_match(self):
        with pytest.raises(DomainError):
            ConeOrder(beta=0.5, exact=RationalOrder(2, 1))


class TestConeOrderOf:
    """ConeOrder.of is the one conversion from a caller's beta to an order."""

    def test_c_beta_vanishes_exactly_at_zero(self):
        assert c_beta(0) == 0.0

    @pytest.mark.parametrize("n", range(5))
    def test_plain_int_is_exact(self, n):
        exact = ConeOrder.from_rational(RationalOrder(n + 1, 1))
        assert ConeOrder.of(n) == exact
        assert c_beta(n) == c_beta(exact)

    def test_floats_and_orders(self):
        assert ConeOrder.of(2.0) == ConeOrder(beta=2.0)
        order = ConeOrder.from_rational(RationalOrder(3, 2))
        assert ConeOrder.of(order) is order

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, 1j])
    def test_rejects_bools_and_non_numbers(self, bad):
        with pytest.raises(ConfigurationError):
            ConeOrder.of(bad)
        with pytest.raises(ConfigurationError):
            c_beta(bad)

    @pytest.mark.parametrize("bad", [-1, -5, 10**400])
    def test_int_range(self, bad):
        with pytest.raises(DomainError, match="cone order"):
            ConeOrder.of(bad)


class TestDiskZetaValues:
    def test_at_zero_order(self):
        assert zeta_disk_at0(0.0) == pytest.approx(1.0 / 6.0, abs=1e-16)

    def test_at_one(self):
        assert zeta_disk_at0(1.0) == pytest.approx(5.0 / 24.0, abs=1e-15)

    def test_at_minus_half(self):
        assert zeta_disk_at0(-0.5) == pytest.approx(5.0 / 24.0, abs=1e-15)

    def test_angle_duality_dyadic_exact(self):
        for beta in (1.0, 3.0, -0.5, -0.75):
            dual = 1.0 / (beta + 1.0) - 1.0
            assert zeta_disk_at0(beta) == zeta_disk_at0(dual)

    @given(st.floats(-0.9, 20.0))
    def test_angle_duality(self, beta):
        dual = 1.0 / (beta + 1.0) - 1.0
        assert zeta_disk_at0(beta) == pytest.approx(zeta_disk_at0(dual), rel=1e-15)

    def test_prime_at_zero(self, zp):
        expected = 2.0 * zp + 5.0 / 12.0 + 0.5 * math.log(2 * math.pi)
        assert zeta_disk_prime0(0.0) == pytest.approx(expected, abs=1e-11)

    def test_prime_at_one(self, zp):
        got = zeta_disk_prime0(ConeOrder.from_rational(RationalOrder(2, 1)))
        expected = (
            2.0 * zprime0_rational(RationalOrder(2, 1))
            + 5.0 / 6.0
            + 0.5 * LOG2
            + 0.5 * math.log(2 * math.pi)
        )
        assert got == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("beta", [-0.5, 0.5, 1.0, 2.0])
    def test_bridge_to_c_beta(self, beta):
        # C(beta) = zeta'_<(0,b) - (2 zeta_<(0,b) - 1/3) log 2 - zeta'_<(0,0) - b/2
        lhs = c_beta(beta, tol=1e-12)
        rhs = (
            zeta_disk_prime0(beta, tol=1e-12)
            - (2.0 * zeta_disk_at0(beta) - 1.0 / 3.0) * LOG2
            - zeta_disk_prime0(0.0, tol=1e-12)
            - beta / 2.0
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_bridge_on_grid(self):
        for k in range(20):
            beta = -0.9 + k * (5.0 + 0.9) / 19.0
            lhs = c_beta(beta, tol=1e-12)
            rhs = (
                zeta_disk_prime0(beta, tol=1e-12)
                - (2.0 * zeta_disk_at0(beta) - 1.0 / 3.0) * LOG2
                - zeta_disk_prime0(0.0, tol=1e-12)
                - beta / 2.0
            )
            assert lhs == pytest.approx(rhs, abs=1e-10), beta


class TestSurfaceZeta0:
    def test_smooth_closed_sphere(self):
        topo = SurfaceTopology(euler_top=2)
        assert zeta0_surface(topo) == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_two_cone_sphere(self):
        beta = 0.7
        topo = SurfaceTopology(euler_top=2, orders=[beta, beta])
        expected = (beta + 1.0 + 1.0 / (beta + 1.0)) / 6.0 - 1.0
        assert zeta0_surface(topo) == pytest.approx(expected, abs=1e-14)

    def test_disk_with_cone_matches_disk_zeta(self):
        beta = 0.3
        topo = SurfaceTopology(euler_top=1, orders=[beta], has_boundary=True)
        assert zeta0_surface(topo) == pytest.approx(zeta_disk_at0(beta), abs=1e-14)


class TestHeatTrace:
    def test_smooth_sphere(self):
        assert heat_trace_a0(SurfaceTopology(euler_top=2)) == pytest.approx(1.0 / 3.0)

    def test_spindle(self):
        beta = 1.4
        topo = SurfaceTopology(euler_top=2, orders=[beta, beta])
        expected = (2.0 + 2.0 * beta) / 6.0 - (beta + 1.0 - 1.0 / (beta + 1.0)) / 6.0
        assert heat_trace_a0(topo) == pytest.approx(expected, abs=1e-14)

    def test_smooth_disk(self):
        topo = SurfaceTopology(euler_top=1, has_boundary=True)
        assert heat_trace_a0(topo) == pytest.approx(1.0 / 6.0)


class TestRescale:
    def test_identity_at_unit_scale(self):
        assert rescale_logdet(1.234, -2.0 / 3.0, 1.0) == 1.234

    def test_euler_scale(self):
        assert rescale_logdet(0.0, -2.0 / 3.0, math.e) == pytest.approx(4.0 / 3.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            rescale_logdet(0.0, 1.0, 0.0)

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(-2.0, 2.0),
        st.floats(-5.0, 5.0),
    )
    def test_composition(self, r1, r2, z0, ld):
        once = rescale_logdet(rescale_logdet(ld, z0, r1), z0, r2)
        joint = rescale_logdet(ld, z0, r1 * r2)
        assert once == pytest.approx(joint, rel=1e-12, abs=1e-12)
