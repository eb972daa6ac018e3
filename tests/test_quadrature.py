import math

import numpy as np
import pytest

from conedet import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    FlatSphereConfig,
    flat_sphere_area,
    flat_sphere_area_mc,
    integrate_adaptive,
)
from conedet import quadrature


class TestIntegrateAdaptive:
    def test_exponential_tail(self):
        # the tail beyond 40 is e^-40 < 1e-17
        rep = integrate_adaptive(lambda x: np.exp(-np.asarray(x)), 0.0, 40.0, 1e-12)
        assert rep.converged
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_bose_integral(self):
        # oracle: sum_{n>=1} 1/n^2 summed independently; the tail beyond 50
        # is below 51 e^-50 < 1e-20
        zeta2 = sum(1.0 / n**2 for n in range(1, 2000)) + 1.0 / 1999.5
        rep = integrate_adaptive(lambda x: x / np.expm1(x), 0.0, 50.0, 1e-12)
        assert rep.converged
        assert rep.value == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
        assert rep.value == pytest.approx(zeta2, abs=1e-6)

    def test_converged_respects_tolerance_contract(self):
        # an oscillatory integrand under a tiny panel budget must not
        # claim convergence with error above tol
        rep = integrate_adaptive(
            lambda x: np.sin(50.0 * np.asarray(x)), 0.0, 10.0, 1e-14, max_panels=4
        )
        assert not rep.converged or rep.error_estimate <= 1e-14

    def test_nonconvergence_reported(self):
        rep = integrate_adaptive(
            lambda x: np.abs(np.asarray(x) - math.sqrt(2)) ** -0.9, 0.0, 2.0, 1e-10, max_panels=10
        )
        assert not rep.converged

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-8)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, -1e-8)

    @pytest.mark.parametrize(
        "a, b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (math.nan, 1.0)]
    )
    def test_rejects_non_finite_limits(self, a, b):
        with pytest.raises(DomainError, match="finite"):
            integrate_adaptive(lambda x: x, a, b, 1e-8)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_rejects_tolerance_not_finite_positive(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            integrate_adaptive(lambda x: x, 0.0, 1.0, tol)

    @pytest.mark.parametrize(
        "f", [lambda x: 3 * x, lambda x: x[:14], lambda x: x + [0.0]], ids=["45", "14", "16"]
    )
    def test_rejects_integrand_not_returning_15_values(self, f):
        with pytest.raises(ValueError, match="15"):
            integrate_adaptive(f, 0.0, 1.0, 1e-8)

    def test_deterministic(self):
        f = lambda x: np.cos(3 * np.asarray(x)) * np.exp(-np.asarray(x))
        r1 = integrate_adaptive(f, 0.0, 40.0, 1e-11)
        r2 = integrate_adaptive(f, 0.0, 40.0, 1e-11)
        assert r1.value == r2.value
        assert r1.evaluations == r2.evaluations


def _weighted_exp_integral(beta):
    """integral over [-1, 1] of (1 + x)^beta e^x dx
    = e^-1 sum_k 2^(beta+1+k) / (k! (beta+1+k)), summed to double precision."""
    terms = []
    k = 0
    while True:
        t = 2.0 ** (beta + 1 + k) / (math.factorial(k) * (beta + 1 + k))
        terms.append(t)
        if t < 1e-18 * terms[0]:
            break
        k += 1
    return math.exp(-1.0) * math.fsum(terms)


class TestJacobiRule:
    @pytest.mark.parametrize("n", [12, 192, 384])
    @pytest.mark.parametrize("beta", [-0.9998, -0.84, 0.0, 2.5])
    def test_weighted_exponential(self, beta, n):
        x, w = quadrature._jacobi_rule(n, beta)
        exact = _weighted_exp_integral(beta)
        assert abs(math.fsum(w * np.exp(x)) / exact - 1.0) <= 1e-13

    def test_nodes_inside_weights_positive(self):
        # the patch radii s = r (x + 1) / 2 must stay inside (0, r)
        x, w = quadrature._jacobi_rule(384, -0.9998)
        assert np.all((x > -1.0) & (x < 1.0))
        assert np.all(w > 0.0)


SYMMETRIC = FlatSphereConfig(points=[0, 1, -1], orders=[-2 / 3, -2 / 3, -2 / 3])


class TestFlatSphereConfig:
    def test_order_sum_enforced(self):
        with pytest.raises(ConfigurationError):
            FlatSphereConfig(points=[0, 1, -1], orders=[-0.5, -0.5, -0.5])

    def test_distinct_points_enforced(self):
        with pytest.raises(ConfigurationError):
            FlatSphereConfig(points=[0, 1, 1 + 1e-12], orders=[-2 / 3, -2 / 3, -2 / 3])

    def test_minimum_count(self):
        with pytest.raises(ConfigurationError):
            FlatSphereConfig(points=[0, 1], orders=[-1.5, -0.5])

    def test_order_range(self):
        with pytest.raises(ConfigurationError):
            FlatSphereConfig(points=[0, 1, -1], orders=[-1.2, -0.5, -0.3])

    def test_patch_radii(self):
        radii = SYMMETRIC.patch_radii()
        assert radii == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            FlatSphereConfig(points=[0, 1, -1], orders=[bad, -0.5, -0.5])

    @pytest.mark.parametrize(
        "bad", [complex(math.inf, 0), complex(math.nan, 1), complex(0, -math.inf)]
    )
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            FlatSphereConfig(points=[bad, 1, -1], orders=[-0.5, -0.75, -0.75])


class TestFlatSphereArea:
    def test_finite_positive(self):
        rep = flat_sphere_area(SYMMETRIC, 1e-8)
        assert rep.converged
        assert rep.value > 0.0
        assert rep.error_estimate <= 1e-8

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
    def test_rejects_tolerance_not_finite_positive(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            flat_sphere_area(SYMMETRIC, tol)

    def test_scaling_law(self):
        # z -> c z multiplies the area by |c|^-2 exactly
        base = flat_sphere_area(SYMMETRIC, 1e-8).value
        for c in (2.0, 1.0 / 3.0):
            scaled = FlatSphereConfig(
                points=[c * p for p in SYMMETRIC.points], orders=SYMMETRIC.orders
            )
            got = flat_sphere_area(scaled, 1e-8).value
            assert got * c * c == pytest.approx(base, abs=1e-7)

    def test_complex_scaling(self):
        c = (1.0 + 1.0j) / abs(1.0 + 1.0j) * 2.0
        scaled = FlatSphereConfig(
            points=[c * p for p in SYMMETRIC.points], orders=SYMMETRIC.orders
        )
        got = flat_sphere_area(scaled, 1e-8).value
        base = flat_sphere_area(SYMMETRIC, 1e-8).value
        assert got * abs(c) ** 2 == pytest.approx(base, abs=1e-7)

    def test_middle_region_sees_patch_windows(self):
        # four cones on a circle of radius 0.428: a middle-region quadrature
        # whose first panels miss the patch windows near r = 0.43 still passes
        # its error test, with an area 1.3 low
        cfg = FlatSphereConfig(
            points=[
                0.4181000565195359 + 0.08987981316895674j,
                -0.0898798131689567 + 0.4181000565195359j,
                -0.4181000565195359 - 0.08987981316895677j,
                0.08987981316895655 - 0.41810005651953597j,
            ],
            orders=[
                -0.5045576004118199, -0.5227764068962104,
                -0.5182498323625443, -0.45441616032942544,
            ],
        )
        loose = flat_sphere_area(cfg, 1e-6)
        assert loose.converged
        assert loose.value == pytest.approx(flat_sphere_area(cfg, 1e-10).value, abs=1e-6)

    def test_rotation_invariance(self):
        w = complex(math.cos(0.7), math.sin(0.7))
        rot = FlatSphereConfig(
            points=[w * p for p in SYMMETRIC.points], orders=SYMMETRIC.orders
        )
        assert flat_sphere_area(rot, 1e-8).value == pytest.approx(
            flat_sphere_area(SYMMETRIC, 1e-8).value, abs=1e-7
        )


def _theta_mean_reference(fn, r, tol, cap=1 << 14):
    """One row at a time: the per-node loop that _theta_means replaced."""
    m = 32
    vals = fn(r, 2.0 * math.pi * np.arange(m) / m)
    mean = float(vals.mean())
    evals = m
    while m < cap:
        new = fn(r, 2.0 * math.pi * (np.arange(m) + 0.5) / m)
        evals += m
        mean2 = 0.5 * (mean + float(new.mean()))
        m *= 2
        if abs(mean2 - mean) <= tol:
            return mean2, evals, True
        mean = mean2
    return mean, evals, False


@pytest.fixture(scope="module")
def polar_integrands():
    """The integrands of flat_sphere_area(SYMMETRIC, 1e-8) with their radial
    upper limits and row tolerances: the outside integrand as handed to
    _polar_iterated, and the first patch's ring function as
    _patch_term hands it to _theta_means."""
    polar, rows, patches = [], [], []
    originals = {
        name: getattr(quadrature, name)
        for name in ("_polar_iterated", "_patch_term", "_theta_means")
    }

    def polar_spy(fn, r_hi, tol, breakpoints=()):
        polar.append((fn, r_hi, tol / (4.0 * math.pi * r_hi * r_hi)))
        return originals["_polar_iterated"](fn, r_hi, tol, breakpoints)

    def patch_spy(cfg, j, radius, tol):
        patches.append((len(rows), radius))
        return originals["_patch_term"](cfg, j, radius, tol)

    def theta_spy(fn, rs, tol, *rest):
        rows.append((fn, tol))
        return originals["_theta_means"](fn, rs, tol, *rest)

    quadrature._polar_iterated = polar_spy
    quadrature._patch_term = patch_spy
    quadrature._theta_means = theta_spy
    try:
        flat_sphere_area(SYMMETRIC, 1e-8)
    finally:
        for name, fn in originals.items():
            setattr(quadrature, name, fn)
    first, radius = patches[0]
    ring, row_tol = rows[first]
    return {"outside": polar[0], "patch": (ring, radius, row_tol)}


def exact_three_cone_area(points, orders):
    """Closed-form area of a three-cone flat sphere, the double of a Euclidean
    triangle with angles pi a_j, a_j = b_j + 1 (Moebius plus Schwarz-Christoffel):
        A = prod_{i<j} |p_i - p_j|^(-2 a_k) B(a_1, a_2)^2
            sin(pi a_1) sin(pi a_2) / sin(pi a_3),
    with k the index other than i and j."""
    a = [b + 1.0 for b in orders]
    log_area = 2.0 * (math.lgamma(a[0]) + math.lgamma(a[1]) - math.lgamma(a[0] + a[1]))
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        log_area -= 2.0 * a[k] * math.log(abs(points[i] - points[j]))
    sines = math.sin(math.pi * a[0]) * math.sin(math.pi * a[1]) / math.sin(math.pi * a[2])
    return math.exp(log_area) * sines


NEAR_MINUS_ONE = FlatSphereConfig(points=[0, 1, 0.4 + 0.3j], orders=[-0.999, -0.5, -0.501])


class TestExactArea:
    """flat_sphere_area against the three-cone closed form."""

    def test_reproduces_symmetric_area(self):
        assert exact_three_cone_area(SYMMETRIC.points, SYMMETRIC.orders) == pytest.approx(
            15.324347153497644, rel=1e-14
        )

    @pytest.mark.parametrize(
        "cfg, tol",
        [
            (NEAR_MINUS_ONE, 1e-8),
            (FlatSphereConfig(points=[0, 2, 0.5 + 1.5j], orders=[-0.95, -0.9, -0.15]), 1e-10),
            (FlatSphereConfig(points=[0, 1, -0.3 + 0.8j], orders=[-5 / 6, -2 / 3, -1 / 2]), 1e-10),
            (SYMMETRIC, 1e-8),
            (
                FlatSphereConfig(
                    points=[0, 1, -0.16355403979032512 + 1.4997182979463848j],
                    orders=[-0.8742360863108145, -0.5572877421582202, -0.5684761715309653],
                ),
                1e-10,
            ),
        ],
        ids=["near-minus-one", "wide", "hexagonal-quotient", "symmetric", "steep-cone"],
    )
    def test_matches_closed_form(self, cfg, tol):
        rep = flat_sphere_area(cfg, tol)
        err = abs(rep.value - exact_three_cone_area(cfg.points, cfg.orders))
        assert rep.converged
        assert err <= tol
        assert err <= rep.error_estimate


class TestThetaMeans:
    """The row-wise angular means equal the one-row loop bit for bit."""

    @pytest.mark.parametrize("region", ["outside", "patch"])
    @pytest.mark.parametrize("panel", [(0.0, 1.0), (0.25, 0.5), (0.6, 0.65)])
    @pytest.mark.parametrize("cap", [1 << 14, 64])
    def test_matches_one_row_loop(self, polar_integrands, region, panel, cap):
        fn, r_hi, tol = polar_integrands[region]
        lo, hi = panel[0] * r_hi, panel[1] * r_hi
        rs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.asarray(quadrature._XGK)
        ref = [_theta_mean_reference(fn, float(r), tol, cap) for r in rs]
        means, evals, ok = quadrature._theta_means(fn, rs, tol, cap)
        assert [float(v) for v in means] == [row[0] for row in ref]
        assert evals == sum(row[1] for row in ref)
        assert ok == all(row[2] for row in ref)

    def test_rows_need_different_levels(self, polar_integrands):
        # the outside region needs different angular levels at different radii,
        # so the comparison above covers rows that stop at different levels
        fn, r_hi, tol = polar_integrands["outside"]
        rs = 0.5 * r_hi * (1.0 + np.asarray(quadrature._XGK))
        counts = {_theta_mean_reference(fn, float(r), tol)[1] for r in rs}
        assert len(counts) > 1


class TestPinnedCounts:
    """Evaluation counts of the row-wise angle means, where every patch and
    outside radius stops on its own, and values that match the
    earlier schemes (a shared patch grid, a per-node loop) to rel 1e-12."""

    @pytest.mark.parametrize(
        "tol, evaluations, value",
        [(1e-6, 221440, 15.324347153496445), (1e-8, 418368, 15.32434715349721)],
    )
    def test_symmetric(self, tol, evaluations, value):
        rep = flat_sphere_area(SYMMETRIC, tol)
        assert rep.evaluations == evaluations
        assert rep.value == pytest.approx(value, rel=1e-12)
        assert rep.converged


class TestMonteCarlo:
    def test_agreement_with_deterministic(self):
        det = flat_sphere_area(SYMMETRIC, 1e-8)
        est, se = flat_sphere_area_mc(SYMMETRIC, 10**6, seed=20240801)
        assert abs(est - det.value) <= 3.0 * math.hypot(se, det.error_estimate)

    def test_seed_reproducibility(self):
        a = flat_sphere_area_mc(SYMMETRIC, 10**4, seed=7)
        b = flat_sphere_area_mc(SYMMETRIC, 10**4, seed=7)
        assert a == b

    def test_stderr_scaling(self):
        # quadrupling samples roughly halves the standard error
        _, se1 = flat_sphere_area_mc(SYMMETRIC, 10**5, seed=5)
        _, se4 = flat_sphere_area_mc(SYMMETRIC, 4 * 10**5, seed=5)
        assert 0.3 < se1 / se4 / 2.0 < 1.7

    def test_minimum_samples(self):
        with pytest.raises(DomainError):
            flat_sphere_area_mc(SYMMETRIC, 9_999, seed=0)

    def test_randomized_configs_cross_validate(self):
        from conftest import random_flat_config

        rng = np.random.default_rng(99)
        for trial in range(5):
            cfg = random_flat_config(rng, 3 + (trial % 2))
            det = flat_sphere_area(cfg, 1e-7)
            est, se = flat_sphere_area_mc(cfg, 2 * 10**5, seed=1000 + trial)
            assert det.converged
            assert abs(est - det.value) <= 3.0 * math.hypot(se, det.error_estimate), trial


def test_unconverged_report_raises():
    """The one unconverged-quadrature error, shared by logdet_flat_sphere and
    the area CLI command."""
    report = quadrature.QuadratureReport(1.0, 0.5, 15, converged=False)
    message = r"^area quadrature did not converge \(estimate 5.000e-01\)$"
    with pytest.raises(ConvergenceError, match=message):
        report.require_converged("area")
    done = quadrature.QuadratureReport(1.0, 0.0, 15, converged=True)
    assert done.require_converged("area") is done
