import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedet import (
    ComparisonData,
    ConeOrder,
    ConfigurationError,
    DiskConfig,
    DomainError,
    FlatSphereConfig,
    HyperbolicSummary,
    RationalOrder,
    SpindleConfig,
    SurfaceTopology,
    c_beta,
    flat_sphere_area,
    logdet_disk,
    logdet_flat_disk,
    logdet_flat_sphere,
    logdet_flat_sphere_AS,
    logdet_hyperbolic_sphere,
    logdet_pullback,
    logdet_spindle,
    logdet_spindle_area4pi,
    polyakov_compare,
    polyakov_compare_two_singular,
    pullback_constant_C,
    rescale_logdet,
    round_sphere_logdet,
    spindle_asymptotic,
    spindle_distance,
    zeta0_surface,
)
from conftest import logdet_spindle_area4pi_ref, random_flat_config

LOG2 = math.log(2)


class TestSpindleConfig:
    def test_integer_order_with_mu(self):
        SpindleConfig(beta=2, mu=1.5, curvature=1.0)

    def test_float_order_requires_zero_mu(self):
        SpindleConfig(beta=0.7, mu=0.0, curvature=1.0)
        with pytest.raises(ConfigurationError):
            SpindleConfig(beta=0.7, mu=0.5, curvature=1.0)

    def test_float_valued_integer_is_not_integer(self):
        # structural detection: 2.0 is a float, so it claims a non-integer order
        with pytest.raises(ConfigurationError):
            SpindleConfig(beta=2.0, mu=0.5, curvature=1.0)

    def test_exact_integer_order_allows_mu(self):
        SpindleConfig(beta=ConeOrder.from_rational(RationalOrder(3, 1)), mu=0.5)
        with pytest.raises(ConfigurationError):
            SpindleConfig(beta=ConeOrder.from_rational(RationalOrder(3, 2)), mu=0.5)

    def test_order_is_the_cone_order_of_beta(self):
        assert SpindleConfig(beta=2).order == ConeOrder.of(2)
        assert SpindleConfig(beta=2.0).order.exact is None
        assert DiskConfig(2, 0.5).order.exact == RationalOrder(3, 1)

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_configs_reject_non_numbers(self, bad):
        with pytest.raises(ConfigurationError):
            SpindleConfig(beta=bad)
        with pytest.raises(ConfigurationError):
            DiskConfig(beta=bad, k=0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            SpindleConfig(beta=-1, mu=0.0, curvature=1.0)
        with pytest.raises(ConfigurationError):
            SpindleConfig(beta=1, mu=-0.1, curvature=1.0)
        with pytest.raises(ConfigurationError):
            SpindleConfig(beta=1, mu=0.0, curvature=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            SpindleConfig(beta=bad, mu=0.0, curvature=1.0)
        with pytest.raises(ConfigurationError):
            SpindleConfig(beta=1, mu=bad, curvature=1.0)
        with pytest.raises(ConfigurationError):
            SpindleConfig(beta=1, mu=0.0, curvature=bad)


class TestSpindle:
    def test_round_sphere_value(self, zp):
        assert round_sphere_logdet() == pytest.approx(0.5 - 4.0 * zp, abs=0.0)
        assert round_sphere_logdet() == pytest.approx(1.1617, abs=1e-4)

    def test_degenerates_to_round_sphere(self):
        got = logdet_spindle(SpindleConfig(beta=0, mu=0.0, curvature=1.0))
        assert got.total == pytest.approx(round_sphere_logdet(), abs=1e-11)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 3.0])
    def test_order_one_closed_form(self, mu, zp):
        got = logdet_spindle(SpindleConfig(beta=1, mu=mu, curvature=1.0)).total
        expected = LOG2 / 6.0 + 1.0 - 2.0 * zp - 0.25 * math.log(1.0 + mu * mu)
        assert got == pytest.approx(expected, abs=1e-11)

    def test_fixed_area_same_assembly(self):
        for beta, mu in ((2, 3.0), (1, 0.0), (5, 0.25)):
            got = logdet_spindle_area4pi(beta, mu).total
            assert got == pytest.approx(logdet_spindle_area4pi_ref(beta, mu), abs=1e-13)

    def test_fixed_area_same_assembly_float_orders(self):
        for beta in (0.3, -0.4, 2.7):
            got = logdet_spindle_area4pi(beta, 0.0).total
            assert got == pytest.approx(logdet_spindle_area4pi_ref(beta, 0.0), abs=1e-13)

    @pytest.mark.parametrize("beta,mu", [(2, 1.0), (5, 3.0), (0.3, 0.0), (-0.4, 0.0), (7.46, 0.0)])
    def test_fixed_area_is_spindle_at_pinned_curvature(self, beta, mu):
        got = logdet_spindle_area4pi(beta, mu)
        want = logdet_spindle(SpindleConfig(beta, mu, curvature=beta + 1.0))
        assert got.total == want.total
        assert got.parts == want.parts

    def test_fixed_area_round_sphere(self):
        assert logdet_spindle_area4pi(0, 0.0).total == pytest.approx(
            round_sphere_logdet(), abs=1e-12
        )

    def test_fixed_area_order_one(self):
        got = logdet_spindle_area4pi(1, 0.0).total
        assert got == pytest.approx(logdet_spindle_area4pi_ref(1, 0.0), abs=1e-13)

    def test_mu_monotone_decrease(self):
        vals = [logdet_spindle_area4pi(1, mu).total for mu in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_curvature_rescaling_consistency(self):
        # dividing the metric by K adds zeta(0) log K to the log-determinant
        beta, mu, k = 2, 3.0, 4.0
        z0 = zeta0_surface(SurfaceTopology(euler_top=2, orders=[float(beta)] * 2))
        at_k = logdet_spindle(SpindleConfig(beta=beta, mu=mu, curvature=k)).total
        at_1 = logdet_spindle(
            SpindleConfig(beta=beta, mu=mu / math.sqrt(k), curvature=1.0)
        ).total
        assert at_k == pytest.approx(
            rescale_logdet(at_1, z0, 1.0 / math.sqrt(k)), abs=1e-12
        )

    def test_breakdown_sums(self):
        res = logdet_spindle(SpindleConfig(beta=3, mu=1.0, curvature=2.0))
        assert res.total == pytest.approx(math.fsum(res.parts.values()), abs=1e-13)

    @settings(deadline=None, max_examples=25)
    @given(
        st.floats(-0.95, 40.0),
        st.floats(0.02, 50.0),
    )
    def test_breakdown_invariant_random(self, beta, curvature):
        res = logdet_spindle(SpindleConfig(beta=beta, mu=0.0, curvature=curvature))
        assert math.isfinite(res.total)
        assert abs(res.total - math.fsum(res.parts.values())) <= 1e-13


class TestSpindleAsymptotics:
    def test_near_angle_collapse(self):
        beta = -1.0 + 1e-3
        exact = logdet_spindle_area4pi(beta, 0.0).total
        approx = spindle_asymptotic(beta, 0.0, "beta_to_minus1")
        assert abs(exact - approx) < 10.0 * 1e-3  # remainder O(beta+1)

    def test_large_order(self):
        beta = 1e3
        exact = logdet_spindle_area4pi(beta, 0.0).total
        approx = spindle_asymptotic(beta, 0.0, "beta_to_infinity")
        assert abs(exact - approx) < 10.0 / beta  # remainder O(1/beta)

    @pytest.mark.parametrize("beta", [1e50, 1e80])
    def test_huge_order_meets_the_asymptote(self, beta):
        # the O(1/beta) remainder is below rounding; the J(a) crossover
        # stays at 0.35, where the bracket is not cancellation noise
        exact = logdet_spindle_area4pi(beta, 0.0).total
        approx = spindle_asymptotic(beta, 0.0, "beta_to_infinity")
        assert exact == pytest.approx(approx, rel=1e-14)

    @pytest.mark.parametrize(
        "regime,betas",
        [
            ("beta_to_minus1", (-1.0 + 1e-3, -1.0 + 1e-4)),
            ("beta_to_infinity", (1e3, 1e4)),
        ],
    )
    def test_residual_scales_at_remainder_order(self, regime, betas):
        res = [
            logdet_spindle_area4pi(b, 0.0).total - spindle_asymptotic(b, 0.0, regime)
            for b in betas
        ]
        ratio = abs(res[0] / res[1])
        assert 3.0 <= ratio <= 30.0  # predicted order ratio is 10

    def test_divergence_toward_both_limits(self):
        seq_minus = [spindle_asymptotic(b, 0.0, "beta_to_minus1") for b in (-1 + 1e-5, -1 + 1e-6)]
        assert seq_minus[1] > seq_minus[0] > 100.0
        seq_inf = [spindle_asymptotic(b, 0.0, "beta_to_infinity") for b in (1e5, 1e6)]
        assert seq_inf[1] > seq_inf[0] > 100.0

    def test_unknown_regime(self):
        with pytest.raises(DomainError):
            spindle_asymptotic(1.0, 0.0, "sideways")

    def test_angle_collapse_expansion_holds_at_mu_zero_only(self):
        # it was derived at mu = 0; any other mu would get the mu = 0 value
        spindle_asymptotic(-0.5, 0.0, "beta_to_minus1")
        for beta, mu in ((-0.5, 3.0), (0, 1.0)):  # (0, 1.0) is an admissible spindle
            with pytest.raises(DomainError, match="mu = 0"):
                spindle_asymptotic(beta, mu, "beta_to_minus1")


class TestSpindleDistance:
    def test_antipodal(self):
        assert spindle_distance(SpindleConfig(beta=0, mu=0.0, curvature=1.0)) == math.pi

    def test_quarter_circle(self):
        cfg = SpindleConfig(beta=0, mu=2.0, curvature=4.0)
        assert spindle_distance(cfg) == pytest.approx(math.pi / 4.0, rel=1e-15)

    def test_monotone_vanishing_in_mu(self):
        ds = [
            spindle_distance(SpindleConfig(beta=1, mu=mu, curvature=1.0))
            for mu in (0.0, 1.0, 10.0, 1e3, 1e6)
        ]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 1e-5


SYMMETRIC = FlatSphereConfig(points=[0, 1, -1], orders=[-2 / 3, -2 / 3, -2 / 3])


class TestFlatSphere:
    def test_two_forms_agree_symmetric(self):
        area = flat_sphere_area(SYMMETRIC, 1e-9).value
        a = logdet_flat_sphere(SYMMETRIC, 1e-9, area=area)
        b = logdet_flat_sphere_AS(SYMMETRIC, 1e-9, area=area)
        assert abs(a.total - b.total) <= 1e-10

    def test_two_forms_agree_random(self):
        rng = np.random.default_rng(2718)
        for trial in range(5):
            cfg = random_flat_config(rng, 3 + (trial % 2))
            area = flat_sphere_area(cfg, 1e-8).value
            a = logdet_flat_sphere(cfg, 1e-8, area=area)
            b = logdet_flat_sphere_AS(cfg, 1e-8, area=area)
            assert abs(a.total - b.total) <= 1e-10, trial

    def test_relabeling_invariance(self):
        perm = FlatSphereConfig(
            points=[1, -1, 0], orders=[-2 / 3, -2 / 3, -2 / 3]
        )
        area = flat_sphere_area(SYMMETRIC, 1e-9).value
        assert logdet_flat_sphere(perm, 1e-9, area=area).total == pytest.approx(
            logdet_flat_sphere(SYMMETRIC, 1e-9, area=area).total, abs=1e-13
        )

    def test_rotation_invariance_as_form(self):
        w = complex(math.cos(1.1), math.sin(1.1))
        rot = FlatSphereConfig(
            points=[w * p for p in SYMMETRIC.points], orders=SYMMETRIC.orders
        )
        a = logdet_flat_sphere_AS(SYMMETRIC, 1e-8)
        b = logdet_flat_sphere_AS(rot, 1e-8)
        assert a.total == pytest.approx(b.total, abs=1e-6)

    def test_scaling_covariance(self):
        # log(det/A) shift under p -> c p is (2 zeta(0) + 2) log|c|
        z0 = zeta0_surface(SurfaceTopology(euler_top=2, orders=list(SYMMETRIC.orders)))
        base = logdet_flat_sphere(SYMMETRIC, 1e-8)
        base_norm = base.total - base.parts["log_area"]
        for c in (2.0, 0.5):
            scaled_cfg = FlatSphereConfig(
                points=[c * p for p in SYMMETRIC.points], orders=SYMMETRIC.orders
            )
            scaled = logdet_flat_sphere(scaled_cfg, 1e-8)
            shift = (scaled.total - scaled.parts["log_area"]) - base_norm
            assert shift == pytest.approx((2.0 * z0 + 2.0) * math.log(abs(c)), abs=1e-6)

    def test_breakdown_parts(self):
        res = logdet_flat_sphere(SYMMETRIC, 1e-8)
        assert set(res.parts) == {"pairwise_log", "cone_terms", "constant", "log_area"}
        assert res.total == pytest.approx(math.fsum(res.parts.values()), abs=1e-13)


class TestDisks:
    def test_flat_case_value(self, zp):
        got = logdet_disk(DiskConfig(beta=0.0, k=0.0)).total
        expected = -2.0 * zp - 5.0 / 12.0 - 0.5 * math.log(2 * math.pi)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_flat_disk_unit(self, zp):
        expected = LOG2 / 3.0 - 2.0 * zp - 5.0 / 12.0 - 0.5 * math.log(2 * math.pi)
        assert logdet_flat_disk(1.0) == pytest.approx(expected, abs=1e-13)

    def test_flat_disk_radius_dependence(self):
        assert logdet_flat_disk(2.0) - logdet_flat_disk(1.0) == pytest.approx(
            -LOG2 / 3.0, abs=1e-14
        )

    def test_flat_disk_rescaling_consistency(self):
        # smooth unit disk has zeta(0) = 1/6
        for r in (0.5, 3.0):
            assert logdet_flat_disk(r) == pytest.approx(
                rescale_logdet(logdet_flat_disk(1.0), 1.0 / 6.0, r), abs=1e-13
            )

    def test_cone_disk_metric_is_doubled_flat_disk(self):
        # the beta = k = 0 member carries the metric 4 |dz|^2, i.e. the
        # flat disk of radius 2, not radius 1
        assert logdet_disk(DiskConfig(0.0, 0.0)).total == pytest.approx(
            logdet_flat_disk(2.0), abs=1e-12
        )

    def test_hemisphere_regression(self):
        # unit hemisphere (beta=0, k=1); frozen at first computation
        assert logdet_disk(DiskConfig(0.0, 1.0)).total == pytest.approx(
            -0.338096245803771, abs=1e-12
        )

    def test_flat_cone_disk_via_rescaled_zeta_values(self):
        # k = 0 disk against the flat-cone zeta route: the metric is
        # 4|z|^(2b)|dz|^2, so the determinant is -zeta'_<(0,b) exactly
        from conedet import zeta_disk_prime0

        for beta in (0.4, 1.0, -0.3):
            got = logdet_disk(DiskConfig(beta=beta, k=0.0)).total
            assert got == pytest.approx(-zeta_disk_prime0(beta, tol=1e-12), abs=1e-10)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            logdet_disk(DiskConfig(beta=-1.0, k=0.0))
        with pytest.raises(DomainError):
            logdet_disk(DiskConfig(beta=0.0, k=-1.0))
        with pytest.raises(DomainError):
            logdet_flat_disk(0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                logdet_flat_disk(bad)
            with pytest.raises(DomainError):
                DiskConfig(beta=bad, k=0.0)
            with pytest.raises(DomainError):
                DiskConfig(beta=0.0, k=bad)


class TestHyperbolic:
    def test_constant_part_only(self, zp):
        orders = (-0.8, -0.7, -0.9)
        s = HyperbolicSummary(orders=orders, phi_consts=(0.0, 0.0, 0.0), liouville_integral=0.0)
        got = logdet_hyperbolic_sphere(s)
        expected = (
            math.log(-2.0 - sum(orders))
            - math.fsum(c_beta(b) for b in orders)
            - LOG2 / 3.0
            + 1.0 / 6.0
            - 4.0 * zp
        )
        assert got.total == pytest.approx(expected, abs=1e-12)

    def test_area_collapse_divergence(self):
        for delta, bound in ((1e-6, -10.0), (1e-12, -20.0)):
            orders = [-1.0 + 0.1, -1.0 + 0.2, (-2.0 - delta) + 2.0 - 0.3]
            s = HyperbolicSummary(
                orders=orders, phi_consts=[0.0] * 3, liouville_integral=0.0
            )
            assert s.degree == pytest.approx(-2.0 - delta, abs=1e-13)
            assert math.log(-2.0 - s.degree) < bound

    def test_potential_terms(self):
        s = HyperbolicSummary(
            orders=(-0.5, -0.8, -0.9),
            phi_consts=(0.2, -0.4, 1.1),
            liouville_integral=3.7,
        )
        res = logdet_hyperbolic_sphere(s)
        assert res.parts["liouville"] == pytest.approx(3.7 / (12 * math.pi))
        expected_inf = -(1.0 + 1.0 / (-0.9 + 1.0)) * 1.1 / 6.0
        assert res.parts["potential_infinity"] == pytest.approx(expected_inf)
        expected_fin = ((-0.5) / 0.5 * 0.2 + (-0.8) / 0.2 * (-0.4)) / 6.0
        assert res.parts["potential_finite"] == pytest.approx(expected_fin)
        assert res.total == pytest.approx(math.fsum(res.parts.values()), abs=1e-13)

    def test_summary_validation(self):
        with pytest.raises(ConfigurationError):
            HyperbolicSummary(orders=(-0.5, -0.6), phi_consts=(0.0, 0.0), liouville_integral=0.0)
        with pytest.raises(ConfigurationError):
            HyperbolicSummary(
                orders=(-0.5, -0.6, -0.7), phi_consts=(0.0,) * 3, liouville_integral=0.0
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["order", "phi", "liouville"])
    def test_summary_rejects_non_finite(self, field, bad):
        orders, phis, liouville = [-0.8, -0.7, -0.9], [0.1, -0.2, 0.3], 1.5
        if field == "order":
            orders[1] = bad
        elif field == "phi":
            phis[1] = bad
        else:
            liouville = bad
        with pytest.raises(ConfigurationError, match="finite"):
            HyperbolicSummary(orders=orders, phi_consts=phis, liouville_integral=liouville)


class TestPullback:
    def test_constant_at_reference_point(self, zp):
        got = pullback_constant_C(0.0, -3.0)
        assert got == pytest.approx(2.0 ** (2.0 / 3.0) * math.exp(6.0 * zp), rel=1e-14)

    def test_positive(self):
        for deg in (-2.5, -3.0, -7.7):
            assert pullback_constant_C(0.3, deg) > 0.0

    def test_square_law(self):
        c1 = pullback_constant_C(0.1, -3.0)
        c2 = pullback_constant_C(0.1 + LOG2, -3.0)  # doubling det squares through
        assert c2 / c1 == pytest.approx(4.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            pullback_constant_C(0.0, -1.5)

    def test_pullback_logdet(self):
        assert logdet_pullback(1.0, 1.0, 0.0, 0.0) == 0.0
        base = logdet_pullback(2.0, 1.0, 0.3, -0.1)
        assert logdet_pullback(2.0, 4.0, 0.3, -0.1) == pytest.approx(base - LOG2)

    def test_pullback_domain(self):
        with pytest.raises(DomainError):
            logdet_pullback(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            logdet_pullback(1.0, 0.0, 0.0, 0.0)


def spindle_comparison_data(beta, mu):
    """Comparison-formula inputs for the two-cone curvature-one sphere
    against the round sphere, with the bulk integrals in closed form."""
    bulk_total = (
        2.0 * math.pi * beta * math.log(1.0 + mu * mu)
        - 4.0 * math.pi * beta
        + 4.0 * math.pi * (beta + 2.0) * math.log(beta + 1.0)
    )
    return ComparisonData(
        bulk_phi=bulk_total / 2.0,
        bulk_0=bulk_total / 2.0,
        singularities=[
            (beta, math.log(2.0 * beta + 2.0), LOG2),
            (beta, math.log((2.0 * beta + 2.0) / (1.0 + mu * mu)), LOG2),
        ],
    )


class TestPolyakovCompare:
    def test_smooth_trivial(self):
        assert polyakov_compare(ComparisonData()) == 0.0

    def test_spindle_end_to_end(self):
        # symbolic bulk integrals; the comparison must reproduce the
        # closed-form spindle determinant relative to the round sphere
        for beta, mu in ((1, 0.7), (2, 0.0), (3, 2.0)):
            value = polyakov_compare(spindle_comparison_data(beta, mu), tol=1e-12)
            spindle = logdet_spindle(
                SpindleConfig(beta=beta, mu=mu, curvature=1.0)
            ).total
            expected = (spindle - math.log(4.0 * math.pi * (beta + 1.0))) - (
                round_sphere_logdet() - math.log(4.0 * math.pi)
            )
            assert value == pytest.approx(expected, abs=1e-11), (beta, mu)

    def test_boundary_terms_enter(self):
        closed = ComparisonData(singularities=[(0.5, 0.1, 0.2)])
        with_boundary = ComparisonData(
            singularities=[(0.5, 0.1, 0.2)],
            boundary_quad=1.2,
            boundary_geo=-0.7,
            boundary_normal=0.4,
            has_boundary=True,
        )
        diff = polyakov_compare(with_boundary) - polyakov_compare(closed)
        expected = -1.2 / (12 * math.pi) + 0.7 / (6 * math.pi) - 0.4 / (4 * math.pi)
        assert diff == pytest.approx(expected, abs=1e-15)

    def test_boundary_fields_rejected_on_closed(self):
        with pytest.raises(ConfigurationError):
            ComparisonData(boundary_geo=1.0)


class TestCrossDerivations:
    """Each explicit formula re-derived through the comparison evaluator
    with its bulk/boundary integrals supplied in closed form."""

    def test_flat_sphere_from_closed_comparison(self):
        # flat conical metric vs the round sphere: K_phi = 0, and the
        # reference-side bulk integral of phi = chi - psi over the round
        # metric reduces to elementary terms plus the pairwise potentials
        cfg = FlatSphereConfig(
            points=[0.3 + 0.1j, 1.2 - 0.4j, -0.8 + 0.9j],
            orders=[-0.55, -0.75, -0.7],
        )
        log2 = math.log(2.0)
        chi_bulk = -4.0 * math.pi * log2 - 2.0 * math.pi * math.fsum(
            b * math.log(2.0 / (1.0 + abs(p) ** 2))
            for p, b in zip(cfg.points, cfg.orders)
        )
        psi_bulk = 4.0 * math.pi * (log2 - 1.0)
        sings = []
        for j, (pj, bj) in enumerate(zip(cfg.points, cfg.orders)):
            phi0 = math.fsum(
                bi * math.log(abs(pj - pi_))
                for i, (pi_, bi) in enumerate(zip(cfg.points, cfg.orders))
                if i != j
            )
            sings.append((bj, phi0, math.log(2.0 / (1.0 + abs(pj) ** 2))))
        data = ComparisonData(
            bulk_phi=0.0, bulk_0=chi_bulk - psi_bulk, singularities=sings
        )
        compare = polyakov_compare(data, tol=1e-12)

        area = flat_sphere_area(cfg, 1e-9).value
        lhs = logdet_flat_sphere(cfg, 1e-9, area=area).total - math.log(area)
        rhs = compare + round_sphere_logdet() - math.log(4.0 * math.pi)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("beta,k", [(0.5, 1.0), (1.3, 0.25), (-0.4, 3.0), (0.0, 1.0)])
    def test_disk_from_boundary_comparison(self, beta, k):
        # cone disk vs the flat unit disk through the boundary variant:
        # all four integrals of phi = beta log|z| - log(1 + K |z|^(2b+2))
        # have elementary values, and the final log 2 shift of the potential
        # costs 2 zeta(0) log 2 by rescaling
        from conedet import zeta_disk_at0

        a = beta + 1.0
        l1k = math.log(1.0 + k)
        bulk_phi = -2.0 * math.pi * beta * l1k + 4.0 * math.pi * a * (l1k - k) / (1.0 + k)
        data = ComparisonData(
            bulk_phi=bulk_phi,
            bulk_0=0.0,
            boundary_quad=2.0 * math.pi * l1k * (2.0 * a * k / (1.0 + k) - beta),
            boundary_geo=-2.0 * math.pi * l1k,
            boundary_normal=2.0 * math.pi * (beta - 2.0 * a * k / (1.0 + k)),
            singularities=[(beta, 0.0, 0.0)],
            has_boundary=True,
        )
        compare = polyakov_compare(data, tol=1e-12)
        rederived = (
            logdet_flat_disk(1.0) + compare - 2.0 * zeta_disk_at0(beta) * math.log(2.0)
        )
        assert logdet_disk(DiskConfig(beta, k)).total == pytest.approx(
            rederived, abs=1e-11
        )


class TestPolyakovTwoSingular:
    def test_identical_metrics_vanish(self):
        data = ComparisonData(
            bulk_phi=0.0, singularities=[(0.4, 0.3, 0.3), (0.9, -0.2, -0.2)]
        )
        assert polyakov_compare_two_singular(data, data) == pytest.approx(0.0, abs=1e-15)

    def test_reduces_to_single_comparison(self):
        # a regular reference point carries order 0 with the slots swapped;
        # the boundary integrals ride on the new metric's data
        with_boundary = ComparisonData(
            bulk_phi=0.8,
            bulk_0=-0.3,
            boundary_quad=1.3,
            boundary_geo=-0.6,
            boundary_normal=0.9,
            singularities=[(0.5, 0.3, -0.2), (-0.4, -0.1, 0.6)],
            has_boundary=True,
        )
        for data in (spindle_comparison_data(1, 0.7), with_boundary):
            ref = ComparisonData(
                bulk_phi=data.bulk_0,
                singularities=[(0.0, v, u) for _, u, v in data.singularities],
                has_boundary=data.has_boundary,
            )
            new = replace(data, bulk_0=0.0)
            assert polyakov_compare_two_singular(new, ref, tol=1e-12) == pytest.approx(
                polyakov_compare(data, tol=1e-12), abs=1e-12
            )

    def test_antisymmetry(self):
        new = ComparisonData(
            bulk_phi=0.8, singularities=[(0.5, 0.3, -0.1), (1.5, 0.0, 0.7)]
        )
        ref = ComparisonData(
            bulk_phi=-0.2, singularities=[(0.25, -0.1, 0.3), (0.0, 0.7, 0.0)]
        )
        forward = polyakov_compare_two_singular(new, ref)
        # exchanging roles flips the conformal factor: bulk integrals negate
        new_swapped = ComparisonData(
            bulk_phi=0.2, singularities=ref.singularities
        )
        ref_swapped = ComparisonData(
            bulk_phi=-0.8, singularities=new.singularities
        )
        backward = polyakov_compare_two_singular(new_swapped, ref_swapped)
        assert forward == pytest.approx(-backward, abs=1e-12)

    def test_alignment_required(self):
        a = ComparisonData(singularities=[(0.5, 0.0, 0.0)])
        b = ComparisonData(singularities=[(0.5, 0.0, 0.0), (0.1, 0.0, 0.0)])
        with pytest.raises(ConfigurationError):
            polyakov_compare_two_singular(a, b)

    @pytest.mark.parametrize("beta_a,beta_b", [(0.5, 1.25), (-0.4, 0.7), (2.0, -0.3)])
    def test_two_flat_cone_disks_boundary_case(self, beta_a, beta_b):
        # two flat cone disks 4|z|^(2b)|dz|^2: the conformal factor
        # (b_B - b_A) log|z| vanishes on the rim, so of the boundary
        # integrals only the normal derivative survives:
        # int d_n phi ds_0 = 2 pi (b_B - b_A) in the reference geometry
        log2 = math.log(2.0)
        new = ComparisonData(
            boundary_normal=2.0 * math.pi * (beta_b - beta_a),
            singularities=[(beta_b, log2, log2)],
            has_boundary=True,
        )
        ref = ComparisonData(
            singularities=[(beta_a, log2, log2)],
            has_boundary=True,
        )
        value = polyakov_compare_two_singular(new, ref, tol=1e-12)
        expected = (
            logdet_disk(DiskConfig(beta_b, 0.0)).total
            - logdet_disk(DiskConfig(beta_a, 0.0)).total
        )
        assert value == pytest.approx(expected, abs=1e-11)
