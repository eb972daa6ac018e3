"""One table of bad inputs: every public function that guards a cone order,
a positive number or a finite real raises DomainError on NaN, +inf, -inf
and its boundary value, instead of returning NaN or inf."""

import math

import pytest

from conedet import (
    ComparisonData,
    ConeOrder,
    DomainError,
    FlatSphereConfig,
    HyperbolicSummary,
    RationalOrder,
    ScanGrid,
    SurfaceTopology,
    barnes_J,
    c_beta,
    dedekind_sum,
    find_local_max,
    flat_sphere_area,
    hurwitz_zero_values,
    integrate_adaptive,
    log_gamma,
    logdet_flat_disk,
    logdet_pullback,
    polyakov_compare,
    pullback_constant_C,
    rescale_logdet,
    spindle_asymptotic,
    zprime0_integral,
    zprime0_taylor_near1,
    zprime_a0,
)

NAN, INF = math.nan, math.inf
TRIANGLE = FlatSphereConfig(points=(0, 1, 1j), orders=(-2 / 3,) * 3)

# (call pattern, call of the bad value v, boundary values); "{}" in the
# pattern marks where v goes and names the row.
GUARDED = [
    # cone orders: finite and above -1
    ("ConeOrder({})", lambda v: ConeOrder(v), -1.0),
    ("c_beta({})", c_beta, -1.0),
    ("FlatSphereConfig(orders=({}, -0.5, -0.5))",
     lambda v: FlatSphereConfig(points=(0, 1, 1j), orders=(v, -0.5, -0.5)), -1.0),
    ("HyperbolicSummary(orders=({}, -0.7, -0.9))",
     lambda v: HyperbolicSummary((v, -0.7, -0.9), (0.0, 0.0, 0.0), 0.0), -1.0),
    ("ComparisonData(singularities=(({}, 0, 0),))",
     lambda v: ComparisonData(singularities=((v, 0.0, 0.0),)), -1.0),
    ("ScanGrid(start={})", lambda v: ScanGrid(param="beta", start=v, stop=1.0, steps=3), -1.0),
    ("ScanGrid(stop={})", lambda v: ScanGrid(param="beta", start=0.0, stop=v, steps=3)),
    ("ScanGrid(param='mu', stop={})", lambda v: ScanGrid(param="mu", start=0.0, stop=v, steps=3)),
    ("ScanGrid(steps={})", lambda v: ScanGrid(param="beta", start=0.0, stop=1.0, steps=v),
     1, 10_001, 10**20),
    ("ScanGrid(fixed_other={})",
     lambda v: ScanGrid(param="beta", start=0.0, stop=1.0, steps=3, fixed_other=v), -1.0),
    ("ScanGrid(param='mu', fixed_other={})",
     lambda v: ScanGrid(param="mu", start=0.0, stop=1.0, steps=3, fixed_other=v), -1.0),
    ("spindle_asymptotic({})", spindle_asymptotic, -1.0),
    ("SurfaceTopology(euler_top={})", lambda v: SurfaceTopology(euler_top=v), 2.5, True),
    # tolerances
    ("integrate_adaptive(tol={})", lambda v: integrate_adaptive(lambda x: x, 0.0, 1.0, v), 0.0),
    ("flat_sphere_area(tol={})", lambda v: flat_sphere_area(TRIANGLE, v), 0.0),
    ("barnes_J(1, tol={})", lambda v: barnes_J(1.0, v), 0.0),
    ("find_local_max({})", find_local_max, 0.0),
    # Barnes periods
    ("barnes_J({})", barnes_J, 0.0),
    ("zprime0_integral({})", zprime0_integral, 0.0),
    ("zprime_a0({})", zprime_a0, 0.0),
    ("zprime0_taylor_near1({})", zprime0_taylor_near1),
    # special functions
    ("log_gamma({})", log_gamma, 0.0),
    ("hurwitz_zero_values({})", hurwitz_zero_values, 0.0),
    ("RationalOrder({}, 1)", lambda v: RationalOrder(v, 1), 0, 1.5),
    ("RationalOrder(1, {})", lambda v: RationalOrder(1, v), 0, 1.5, True),
    ("dedekind_sum({}, 3)", lambda v: dedekind_sum(v, 3), 0, 1.5, True),
    ("dedekind_sum(1, {})", lambda v: dedekind_sum(1, v), 0, 1.5, True),
    # radii, scales and covering data
    ("FlatSphereConfig(points=({}, 1, 1j))",
     lambda v: FlatSphereConfig(points=(v, 1, 1j), orders=(-2 / 3,) * 3), 1.01e150, -2e150j),
    ("logdet_flat_disk({})", logdet_flat_disk, 0.0),
    ("rescale_logdet(1, 0.1, {})", lambda v: rescale_logdet(1.0, 0.1, v), 0.0),
    ("logdet_pullback({}, 1, 0, 0)", lambda v: logdet_pullback(v, 1.0, 0.0, 0.0), 0.0),
    ("logdet_pullback(1, {}, 0, 0)", lambda v: logdet_pullback(1.0, v, 0.0, 0.0), 0.0),
    ("pullback_constant_C(0, {})", lambda v: pullback_constant_C(0.0, v), -2.0),
    # other real arguments: finite; mu of the spindle expansions nonnegative
    ("spindle_asymptotic(1, mu={}, 'beta_to_infinity')",
     lambda v: spindle_asymptotic(1.0, v, "beta_to_infinity"), -1.0),
    ("pullback_constant_C({}, -3)", lambda v: pullback_constant_C(v, -3.0)),
    ("logdet_pullback(1, 1, {}, 0)", lambda v: logdet_pullback(1.0, 1.0, v, 0.0)),
    ("logdet_pullback(1, 1, 0, {})", lambda v: logdet_pullback(1.0, 1.0, 0.0, v)),
    ("rescale_logdet({}, 0.1, 2)", lambda v: rescale_logdet(v, 0.1, 2.0)),
    ("rescale_logdet(1, {}, 2)", lambda v: rescale_logdet(1.0, v, 2.0)),
    ("polyakov_compare(ComparisonData(bulk_phi={}))",
     lambda v: polyakov_compare(ComparisonData(bulk_phi=v))),
]

CASES = [
    pytest.param(call, v, id=pattern.format(v))
    for pattern, call, *edges in GUARDED
    for v in (NAN, INF, -INF, *edges)
]


@pytest.mark.parametrize("call, value", CASES)
def test_rejects_non_finite_and_boundary_values(call, value):
    with pytest.raises(DomainError):
        call(value)

