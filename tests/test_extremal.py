import math

import pytest

from conedet import (
    DomainError,
    ScanGrid,
    c_beta,
    extremal,
    find_local_max,
    logdet_spindle_area4pi,
    round_sphere_logdet,
    scan_curve,
    taylor_check_at_zero,
)
from conedet.extremal import _objective


class TestScanGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            ScanGrid(param="beta", start=1.0, stop=0.0, steps=5)
        with pytest.raises(DomainError):
            ScanGrid(param="beta", start=-0.5, stop=1.0, steps=1)
        with pytest.raises(DomainError):
            ScanGrid(param="beta", start=-1.0, stop=1.0, steps=5)
        with pytest.raises(DomainError):
            ScanGrid(param="sigma", start=0.0, stop=1.0, steps=5)

    def test_values_monotone(self):
        grid = ScanGrid(param="beta", start=-0.5, stop=2.0, steps=11)
        vals = grid.values()
        assert len(vals) == 11
        assert vals[0] == -0.5 and vals[-1] == 2.0
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestScanCurve:
    def test_cbeta_zero_row(self):
        grid = ScanGrid(param="beta", start=-1.0 + 0.5, stop=1.5, steps=5)
        result = scan_curve("cbeta", grid)
        xs = [x for x, _ in result.rows]
        assert 0.0 in xs
        at_zero = dict(result.rows)[0.0]
        assert abs(at_zero) <= 1e-12
        for (x, v) in result.rows:
            assert v == pytest.approx(c_beta(x), abs=1e-12)

    def test_fixed_area_peak_value(self):
        grid = ScanGrid(param="beta", start=-0.5, stop=0.5, steps=5)
        result = scan_curve("fixed_area_det", grid)
        at_zero = dict(result.rows)[0.0]
        assert at_zero == pytest.approx(math.exp(round_sphere_logdet()), rel=1e-10)

    def test_large_order_exceeds_peak(self):
        # unbounded growth: far enough out the curve tops the local maximum
        grid = ScanGrid(param="beta", start=20.0, stop=40.0, steps=3)
        result = scan_curve("fixed_area_det", grid)
        peak = math.exp(round_sphere_logdet())
        assert all(v > peak for _, v in result.rows)

    def test_mu_scan_strictly_decreasing(self):
        grid = ScanGrid(param="mu", start=0.0, stop=3.0, steps=7, fixed_other=1)
        result = scan_curve("fixed_area_det", grid)
        vals = [v for _, v in result.rows]
        assert len(vals) == 7
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_inadmissible_rows_skipped_and_flagged(self):
        # non-integer beta with mu > 0 is not an admissible metric
        grid = ScanGrid(param="beta", start=0.25, stop=1.75, steps=4, fixed_other=1.0)
        result = scan_curve("fixed_area_det", grid)
        assert len(result.rows) == 0
        assert len(result.skipped) == 4
        assert all("integer" in reason for _, reason in result.skipped)

    def test_unknown_target(self):
        grid = ScanGrid(param="beta", start=0.0, stop=1.0, steps=3)
        with pytest.raises(DomainError):
            scan_curve("entropy", grid)

    def test_cbeta_over_mu_rejected(self):
        # C is a function of the cone order; mu values are not cone orders
        grid = ScanGrid(param="mu", start=0.0, stop=1.0, steps=3, fixed_other=0.5)
        with pytest.raises(DomainError, match="beta"):
            scan_curve("cbeta", grid)


class TestObjective:
    def test_exactly_critical_at_zero(self):
        assert abs(_objective(0.0)) <= 1e-15

    @pytest.mark.parametrize("beta", [-0.5, 0.3, 2.0])
    def test_is_derivative_of_logdet(self, beta):
        def f(x):
            return logdet_spindle_area4pi(x, 0.0, tol=1e-13).total

        # fourth-order central difference: truncation about 1e-12 at h = 1e-3
        h = 1e-3
        slope = (8.0 * (f(beta + h / 2) - f(beta - h / 2)) - (f(beta + h) - f(beta - h))) / (6.0 * h)
        assert _objective(beta) == pytest.approx(slope, abs=1e-10)


class TestFindLocalMax:
    def test_matches_round_sphere(self):
        report = find_local_max(tol=1e-6)
        assert abs(report.location) <= 1e-14
        assert report.value == pytest.approx(round_sphere_logdet(), abs=1e-15)

    def test_second_derivative(self, fixed_area_taylor):
        # L''(0) is twice the quadratic coefficient c2 of the fixed-area curve
        report = find_local_max(tol=1e-6)
        assert abs(report.second_derivative - 2.0 * fixed_area_taylor[0]) <= 1e-14

    def test_default_tolerance(self):
        # the maximizer is beta = 0 exactly; the reported uncertainty must
        # meet the default tol and still cover the true location error
        report = find_local_max()
        assert report.tolerance_achieved <= 1e-8
        assert abs(report.location) <= report.tolerance_achieved

    def test_objective_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(extremal, "_objective", lambda b: calls.append(b) or _objective(b))
        find_local_max()
        assert calls == [0.0]  # L'(0) is 0.0 exactly, so the first Newton step is 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_tolerance(self, bad):
        with pytest.raises(DomainError, match="tolerance"):
            find_local_max(bad)


class TestTaylorCheck:
    def test_coefficients(self, fixed_area_taylor):
        c2, c3 = taylor_check_at_zero()
        assert abs(c2 - fixed_area_taylor[0]) <= 1e-14
        assert abs(c3 - fixed_area_taylor[1]) <= 1e-14
