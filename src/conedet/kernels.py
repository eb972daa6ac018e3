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

j_bracket(x, a, x0, coeffs, n=0)
    The n-th a-derivative, n = 0 ... 3, of the bracket
        coth(x/(2a))/(2x) - (a/4) csch(x/2)^2 - (a + 1/a)/12,
    as a list, one value per float of ``x``, evaluated directly for x > x0
    and by the even power series
        sum_k coeffs[k] * x^(2k + 2)
    for x <= x0 (the three 1/x^2 poles cancel; direct evaluation near zero
    is catastrophic).  ``coeffs`` holds the series coefficients of
    x^2, x^4, ... produced by conedet.barnes._series_coefficients(a, n).
    Plain Python floats: J(a) takes 15 points per call, too few for arrays
    to pay.
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


def j_bracket(x, a, x0, coeffs, n=0):
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
        elif n == 0:
            # coth(t) = 1 + 2 e^{-2t}/(1 - e^{-2t}), csch(t)^2 = 4 e^{-2t}/(1 - e^{-2t})^2;
            # the decaying-exponential forms stay finite for arbitrarily large t.
            coth = 1.0 + 2.0 * exp(-t / a) / -expm1(-t / a)
            d2 = -expm1(-t)
            csch2 = 4.0 * exp(-t) / (d2 * d2)
            out.append(coth / (2.0 * t) - 0.25 * a * csch2 - const)
        else:
            out.append(_derivative_direct(t, a, n))
    return out


def _derivative_direct(t, a, n):
    """The n-th a-derivative, n = 1, 2, 3, of the bracket at t > x0.  With
    u = t/(2a), s = csch(u)^2 = 4e^{-t/a}/(1 - e^{-t/a})^2 and
    c = coth(u) = (1 + e^{-t/a})/(1 - e^{-t/a}):
        n = 1:  s/(4a^2) - csch(t/2)^2/4 - (1 - 1/a^2)/12,
        n = 2:  (s(u c - 1) - 1/3)/(2a^3),
        n = 3:  (1 + s(3 + 2u^2 + 3u^2 s - 6u c))/(2a^4).
    For n = 1 the two csch terms are formed alike, so the value is 0.0 at
    a = 1."""
    e, d1 = exp(-t / a), -expm1(-t / a)
    if n == 1:
        d2 = -expm1(-t)
        return e / (d1 * d1) / (a * a) - exp(-t) / (d2 * d2) - (1.0 - 1.0 / (a * a)) / 12.0
    u, s, c = t / (2.0 * a), 4.0 * e / (d1 * d1), (1.0 + e) / d1
    if n == 2:
        return (s * (u * c - 1.0) - 1.0 / 3.0) / (2.0 * a**3)
    return (1.0 + s * (3.0 + 2.0 * u * u + 3.0 * u * u * s - 6.0 * u * c)) / (2.0 * a**4)
