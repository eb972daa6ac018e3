"""The two hot NumPy kernels of the quadratures.

The adaptive quadratures spend essentially all of their time evaluating two
integrands over float64 arrays of any shape:

product_density(x, y, px, py, orders)
    prod_j ((x - px_j)^2 + (y - py_j)^2)^(orders_j) elementwise over the
    sample arrays.  A sample coinciding with a singular point produces
    0.0 for a positive order and +inf for a negative one.

j_bracket(x, a, x0, coeffs)
    The bracket
        coth(x/(2a))/(2x) - (a/4) csch(x/2)^2 - (a + 1/a)/12,
    evaluated directly for x > x0 and by the even power series
        sum_k coeffs[k] * x^(2k + 2)
    for x <= x0 (the three 1/x^2 poles cancel; direct evaluation near zero
    is catastrophic).  ``coeffs`` holds the series coefficients of
    x^2, x^4, ... produced by conedet.barnes._bracket_coefficients.
"""

import numpy as np

# read by the benchmark's environment fingerprint
BACKEND = "python"


def product_density(x, y, px, py, orders):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.ones_like(x)
    for pxj, pyj, bj in zip(px, py, orders):
        dx = x - pxj
        dy = y - pyj
        with np.errstate(divide="ignore"):
            out = out * (dx * dx + dy * dy) ** bj
    return out


def j_bracket(x, a, x0, coeffs):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = x <= x0
    xs = x[small]
    x2 = xs * xs
    acc = np.zeros_like(xs)
    for c in coeffs[::-1]:
        acc = (acc + c) * x2
    out[small] = acc

    xl = x[~small]
    # coth(t) = 1 + 2 e^{-2t}/(1 - e^{-2t}), csch(t)^2 = 4 e^{-2t}/(1 - e^{-2t})^2;
    # the decaying-exponential forms stay finite for arbitrarily large t.
    d1 = -np.expm1(-xl / a)
    coth = 1.0 + 2.0 * np.exp(-xl / a) / d1
    d2 = -np.expm1(-xl)
    csch2 = 4.0 * np.exp(-xl) / (d2 * d2)
    out[~small] = coth / (2.0 * xl) - 0.25 * a * csch2 - (a + 1.0 / a) / 12.0
    return out
