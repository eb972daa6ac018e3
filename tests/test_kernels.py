import numpy as np
import pytest

from conedet import kernels
from conedet.barnes import _bracket_coefficients


def _density_oracle(x, y, px, py, orders):
    """Straight complex-arithmetic restatement of the product density."""
    z = np.asarray(x) + 1j * np.asarray(y)
    out = np.ones_like(np.asarray(x, dtype=float))
    for pxj, pyj, bj in zip(px, py, orders):
        out *= np.abs(z - (pxj + 1j * pyj)) ** (2.0 * bj)
    return out


class TestReferenceKernels:
    def test_product_density_matches_complex_form(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=200), rng.normal(size=200)
        px, py, orders = [0.0, 1.0, -1.0], [0.0, 0.0, 0.5], [-2 / 3, -0.5, -0.9]
        got = kernels.product_density(x, y, px, py, orders)
        np.testing.assert_allclose(got, _density_oracle(x, y, px, py, orders), rtol=1e-13)

    def test_product_density_2d_grid(self):
        # the area quadrature passes (radius x angle) grids
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(15, 64)), rng.normal(size=(15, 64))
        px, py, orders = [0.0, 1.0, -1.0], [0.0, 0.0, 0.5], [-2 / 3, -0.5, -0.9]
        got = kernels.product_density(x, y, px, py, orders)
        assert got.shape == (15, 64)
        np.testing.assert_allclose(got, _density_oracle(x, y, px, py, orders), rtol=1e-13)

    def test_product_density_empty_points(self):
        got = kernels.product_density(np.array([1.0, 2.0]), np.array([0.0, 0.0]), [], [], [])
        np.testing.assert_array_equal(got, [1.0, 1.0])

    def test_product_density_at_singularity(self):
        got = kernels.product_density(
            np.array([0.0]), np.array([0.0]), [0.0], [0.0], [-0.5]
        )
        assert np.isinf(got[0])

    def test_j_bracket_large_x_finite(self):
        x0, coeffs = _bracket_coefficients(0.001)
        vals = kernels.j_bracket(np.array([500.0, 1000.0]), 0.001, x0, coeffs)
        assert np.all(np.isfinite(vals))

    def test_j_bracket_continuous_at_crossover(self):
        for a in (0.05, 1.0, 20.0):
            x0, coeffs = _bracket_coefficients(a)
            left = kernels.j_bracket(np.array([x0 * (1 - 1e-9)]), a, x0, coeffs)[0]
            right = kernels.j_bracket(np.array([x0 * (1 + 1e-9)]), a, x0, coeffs)[0]
            assert left == pytest.approx(right, rel=1e-7)
