"""The two integrand kernels of the quadratures.

product_density(x, y, px, py, orders)
    prod_j ((x - px_j)^2 + (y - py_j)^2)^(orders_j) elementwise over
    float64 sample arrays of any shape.  A sample coinciding with a singular
    point produces 0.0 for a positive order and +inf for a negative one.
    This is the only kernel that needs NumPy, which it imports on first
    call.  The flat-sphere area calls it for the cone patches' rings and the
    Monte-Carlo oracle; the outside region forms the same product itself,
    in the same cone order, from the squared distances it already holds for
    the patch windows (bit-identical values).

j_bracket(x, a, x0, coeffs)
    The bracket
        coth(x/(2a))/(2x) - (a/4) csch(x/2)^2 - (a + 1/a)/12,
    as a list, one value per float of ``x``, evaluated directly for x > x0
    and by the even power series
        sum_k coeffs[k] * x^(2k + 2)
    for x <= x0 (the three 1/x^2 poles cancel; direct evaluation near zero
    is catastrophic).  ``coeffs`` holds the series coefficients of
    x^2, x^4, ... produced by conedet.barnes._bracket_coefficients.  Plain
    Python floats: J(a) takes 15 points per call, too few for arrays to pay.
"""

from math import exp, expm1

# read by the benchmark's environment fingerprint
BACKEND = "python"


def product_density(x, y, px, py, orders):
    import numpy as np

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
    rev = coeffs[::-1]
    const = (a + 1.0 / a) / 12.0
    out = []
    for t in x:
        if t <= x0:
            t2 = t * t
            acc = 0.0
            for c in rev:
                acc = (acc + c) * t2
            out.append(acc)
        else:
            # coth(t) = 1 + 2 e^{-2t}/(1 - e^{-2t}), csch(t)^2 = 4 e^{-2t}/(1 - e^{-2t})^2;
            # the decaying-exponential forms stay finite for arbitrarily large t.
            coth = 1.0 + 2.0 * exp(-t / a) / -expm1(-t / a)
            d2 = -expm1(-t)
            csch2 = 4.0 * exp(-t) / (d2 * d2)
            out.append(coth / (2.0 * t) - 0.25 * a * csch2 - const)
    return out
