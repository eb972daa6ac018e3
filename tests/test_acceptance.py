"""Acceptance suite: every exit criterion at its stated tolerance, one
printed PASS/FAIL line per criterion (run with -s to see them inline).

Criterion 9a ties the flat member of the cone-disk family to the flat-disk
closed form. The beta = k = 0 member carries the metric 4|dz|^2 on |z| <= 1,
the flat disk of radius 2, so 9a asserts logdet_disk(0, 0) =
logdet_flat_disk(2), and reaches the unit disk logdet_flat_disk(1) from it
through the metric-rescaling rule with the computed zeta(0) = 1/6.
"""

import json
import math
import time

import numpy as np
import pytest

import conedet
from conedet import (
    ComparisonData,
    DiskConfig,
    FlatSphereConfig,
    RationalOrder,
    SpindleConfig,
    SurfaceTopology,
    c_beta,
    dedekind_sum,
    find_local_max,
    flat_sphere_area,
    flat_sphere_area_mc,
    hurwitz_zero_values,
    log_gamma,
    logdet_disk,
    logdet_flat_disk,
    logdet_flat_sphere,
    logdet_flat_sphere_AS,
    logdet_spindle,
    logdet_spindle_area4pi,
    rescale_logdet,
    round_sphere_logdet,
    spindle_asymptotic,
    taylor_check_at_zero,
    zeta0_surface,
    zeta_prime_minus1,
    zprime0_integral,
    zprime0_rational,
    zprime_a0,
)
from conftest import coprime_pairs, invoke, random_flat_config, zprime_a0_ir

LOG2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_01_rational_barnes_table(zp):
    # right-hand sides assembled independently from the primitive layer
    lg = log_gamma
    table = {
        (1, 1): zp,
        (2, 1): zp / 2.0 - LOG2 / 4.0,
        (1, 2): zp / 2.0 + 5.0 * LOG2 / 24.0,
        (3, 1): zp / 3.0 + LOG2 / 6.0 - 7.0 / 18.0 * math.log(3.0)
        - lg(2.0 / 3.0) / 3.0 + math.log(math.pi) / 6.0,
        (1, 3): zp / 3.0 + LOG2 / 6.0 + 5.0 / 36.0 * math.log(3.0)
        - lg(2.0 / 3.0) / 3.0 + math.log(math.pi) / 6.0,
        (4, 1): zp / 4.0 - 5.0 / 8.0 * LOG2 - lg(0.75) / 2.0 + math.log(math.pi) / 4.0,
        (1, 4): zp / 4.0 + 7.0 / 12.0 * LOG2 - lg(0.75) / 2.0 + math.log(math.pi) / 4.0,
    }
    worst = max(
        abs(zprime0_rational(RationalOrder(p, q)) - rhs) for (p, q), rhs in table.items()
    )
    report("1 rational-Barnes-table", worst <= 1e-12, f"worst |diff| = {worst:.2e}")


def test_criterion_02_route_agreement():
    started = time.perf_counter()
    worst = 0.0
    for p, q in coprime_pairs(8):
        diff = abs(zprime0_rational(RationalOrder(p, q)) - zprime0_integral(p / q, 1e-10))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    report(
        "2 route-agreement-49-grid",
        worst <= 1e-8 and elapsed <= 60.0,
        f"worst |diff| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_zprime_equivalence():
    worst = max(
        abs(zprime_a0(a, 1e-10) - zprime_a0_ir(a, 1e-10))
        for a in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
    )
    report("3 Z-prime-equivalence", worst <= 1e-8, f"worst |diff| = {worst:.2e}")


def test_criterion_04_c_function_anchors(zp):
    d0 = abs(c_beta(conedet.ConeOrder.from_rational(RationalOrder(1, 1))))
    d1 = abs(
        c_beta(conedet.ConeOrder.from_rational(RationalOrder(2, 1)))
        - (-zp - LOG2 / 12.0 - 1.0 / 12.0)
    )
    dh = abs(
        c_beta(conedet.ConeOrder.from_rational(RationalOrder(1, 2)))
        - (-zp - LOG2 / 6.0 + 1.0 / 24.0)
    )
    worst = max(d0, d1, dh)
    report("4 C-function-anchors", worst <= 1e-12, f"worst |diff| = {worst:.2e}")


def test_criterion_05_sphere_degenerations(zp):
    d_round = abs(
        logdet_spindle(SpindleConfig(beta=0, mu=0.0, curvature=1.0)).total
        - (0.5 - 4.0 * zp)
    )
    worst_kokot = max(
        abs(
            logdet_spindle(SpindleConfig(beta=1, mu=mu, curvature=1.0)).total
            - (LOG2 / 6.0 + 1.0 - 2.0 * zp - math.log(1.0 + mu * mu) / 4.0)
        )
        for mu in (0.0, 0.5, 1.0, 3.0)
    )
    report(
        "5 sphere-degenerations",
        d_round <= 1e-11 and worst_kokot <= 1e-11,
        f"round |diff| = {d_round:.2e}, kokot worst = {worst_kokot:.2e}",
    )


def test_criterion_06_extremal_reproduction(fixed_area_taylor):
    rep = find_local_max(tol=1e-6)
    loc_ok = abs(rep.location) <= 1e-14
    val_ok = abs(rep.value - round_sphere_logdet()) <= 1e-15
    c2, c3 = taylor_check_at_zero()
    c2_err, c3_err = abs(c2 - fixed_area_taylor[0]), abs(c3 - fixed_area_taylor[1])
    c2_ok = c2_err <= 1e-14
    c3_ok = c3_err <= 1e-14
    report(
        "6 extremal-reproduction",
        loc_ok and val_ok and c2_ok and c3_ok,
        f"beta* = {rep.location:.2e}, value diff = {abs(rep.value - round_sphere_logdet()):.2e}, "
        f"c2 err = {c2_err:.2e}, c3 err = {c3_err:.2e}",
    )


def test_criterion_07_aurell_salomonson_equivalence():
    rng = np.random.default_rng(20250810)
    worst = 0.0
    for trial in range(5):
        cfg = random_flat_config(rng, 3 + (trial % 2))
        area = flat_sphere_area(cfg, 1e-8).value
        a = logdet_flat_sphere(cfg, 1e-8, area=area).total
        b = logdet_flat_sphere_AS(cfg, 1e-8, area=area).total
        worst = max(worst, abs(a - b))
    report("7 two-form-equivalence", worst <= 1e-10, f"worst |diff| = {worst:.2e}")


def test_criterion_08_flat_sphere_covariance():
    started = time.perf_counter()
    cfg = FlatSphereConfig(points=[0, 1, -1], orders=[-2 / 3, -2 / 3, -2 / 3])
    z0 = zeta0_surface(SurfaceTopology(euler_top=2, orders=list(cfg.orders)))

    base = logdet_flat_sphere(cfg, 1e-8)
    base_norm = base.total - base.parts["log_area"]
    base_area = math.exp(base.parts["log_area"])
    shift_ok, area_ok = True, True
    for c in (2.0, 0.5):
        scaled_cfg = FlatSphereConfig(
            points=[c * p for p in cfg.points], orders=cfg.orders
        )
        scaled = logdet_flat_sphere(scaled_cfg, 1e-8)
        shift = (scaled.total - scaled.parts["log_area"]) - base_norm
        shift_ok &= abs(shift - (2.0 * z0 + 2.0) * math.log(abs(c))) <= 1e-6
        # the areas themselves obey the exact scaling law within quadrature error
        scaled_area = math.exp(scaled.parts["log_area"])
        area_ok &= abs(scaled_area * c * c - base_area) <= 1e-6 * max(1.0, base_area)

    est, se = flat_sphere_area_mc(cfg, 10**6, seed=8)
    rep = flat_sphere_area(cfg, 1e-8)
    mc_ok = abs(est - rep.value) <= 3.0 * math.hypot(se, rep.error_estimate)
    elapsed = time.perf_counter() - started
    report(
        "8 covariance-and-mc",
        shift_ok and area_ok and mc_ok and elapsed <= 120.0,
        f"mc pull = {abs(est - rep.value) / se:.2f} sigma, {elapsed:.1f}s",
    )


def test_criterion_09a_disk_anchor_equality():
    # the beta = k = 0 metric 4|dz|^2 on |z| <= 1 is the flat disk of radius 2
    lhs = logdet_disk(DiskConfig(0.0, 0.0)).total
    diff_r2 = abs(lhs - logdet_flat_disk(2.0))
    # halving the radius (metric scaled by 1/4) gives the unit flat disk
    zeta0 = zeta0_surface(SurfaceTopology(euler_top=1, has_boundary=True))
    diff_r1 = abs(rescale_logdet(lhs, zeta0, 0.5) - logdet_flat_disk(1.0))
    report(
        "9a disk-anchor-equality",
        diff_r2 <= 1e-12 and diff_r1 <= 1e-12,
        f"beta=k=0 disk metric 4|dz|^2: "
        f"|logdet_disk(0,0) - logdet_flat_disk(2)| = {diff_r2:.2e}, "
        f"|rescaled to radius 1 (zeta(0) = {zeta0:.15f}) - logdet_flat_disk(1)| = {diff_r1:.2e}",
    )


def test_criterion_09b_hemisphere_regression():
    got = logdet_disk(DiskConfig(0.0, 1.0)).total
    diff = abs(got - (-0.338096245803771))
    report("9b hemisphere-regression", diff <= 1e-12, f"|diff| = {diff:.2e}")


def test_criterion_10_asymptotic_regimes():
    oks, details = [], []
    for regime, b1, b2 in (
        ("beta_to_minus1", -1.0 + 1e-3, -1.0 + 1e-4),
        ("beta_to_infinity", 1e3, 1e4),
    ):
        r1 = logdet_spindle_area4pi(b1, 0.0).total - spindle_asymptotic(b1, 0.0, regime)
        r2 = logdet_spindle_area4pi(b2, 0.0).total - spindle_asymptotic(b2, 0.0, regime)
        ratio = abs(r1 / r2)
        oks.append(3.0 <= ratio <= 30.0)
        details.append(f"{regime} ratio = {ratio:.2f}")
    report("10 asymptotic-scaling", all(oks), "; ".join(details))


def test_criterion_11_invariant_bundle(zp):
    ok = True
    details = []

    # Dedekind reciprocity, exhaustive to 50, exact arithmetic
    from fractions import Fraction

    for p, q in coprime_pairs(50):
        lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
        rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12
        if lhs != rhs:
            ok = False
            details.append(f"reciprocity fails at ({p},{q})")
            break

    # Hurwitz identities
    z0, z0p = hurwitz_zero_values(1.0)
    if abs(z0 + 0.5) > 0 or abs(z0p + 0.5 * LOG_2PI) > 5e-15:
        ok = False
        details.append("hurwitz identity at x=1")

    # LogDet breakdown sums across families
    results = [
        logdet_spindle(SpindleConfig(beta=2, mu=1.0, curvature=2.0)),
        logdet_spindle_area4pi(1, 0.5),
        logdet_disk(DiskConfig(0.3, 0.7)),
        logdet_flat_sphere(
            FlatSphereConfig(points=[0, 1, -1], orders=[-2 / 3, -2 / 3, -2 / 3]), 1e-7
        ),
    ]
    for r in results:
        if abs(r.total - math.fsum(r.parts.values())) > 1e-13:
            ok = False
            details.append("breakdown sum")

    # CLI determinism and breakdown-sum check through the real interface
    args = ["det", "spindle", "--beta", "2", "--mu", "1.0", "--k", "2.0", "--breakdown"]
    out1 = invoke(args).output
    out2 = invoke(args).output
    if out1 != out2:
        ok = False
        details.append("CLI nondeterministic")
    data = json.loads(out1)["payload"]
    if abs(math.fsum(data["breakdown"].values()) - data["value"]) > 1e-13:
        ok = False
        details.append("CLI breakdown sum")

    # smooth-case comparison returns exactly zero
    if polyakov_zero := conedet.polyakov_compare(ComparisonData()):
        ok = False
        details.append(f"smooth comparison nonzero: {polyakov_zero}")

    report("11 invariant-bundle", ok, "; ".join(details) or "all sub-checks passed")
