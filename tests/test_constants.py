import math

import mpmath
import numpy as np

from conedet import euler_gamma, fundamental_constants, zeta_prime_minus1
from conedet.constants import _zeta_prime_2


def test_gamma_sanity_band():
    g = euler_gamma()
    assert 0.577 < g < 0.578


def test_gamma_matches_numpy_constant():
    assert abs(euler_gamma() - np.euler_gamma) < 1e-14


def test_zeta_prime_minus1_sanity_band():
    z = zeta_prime_minus1()
    assert -0.166 < z < -0.165
    assert z < 0.0


def test_zeta_prime_minus1_meets_mpmath():
    # 30-digit oracle; the pinned value below is 2 ulps (6.6e-17) off
    with mpmath.workdps(30):
        assert abs(zeta_prime_minus1() - mpmath.zeta(-1, 1, 1)) <= 1e-16


def test_euler_gamma_meets_mpmath():
    # 30-digit oracle; euler_gamma() is 5 ulps (5.6e-16) above gamma
    with mpmath.workdps(30):
        assert abs(euler_gamma() - mpmath.euler) <= 1e-15


def test_glaisher_consistency():
    # 1/12 - zeta'(-1) is log A; A must satisfy the coarse known bracket
    log_a = 1.0 / 12.0 - zeta_prime_minus1()
    assert 0.24 < log_a < 0.26
    assert abs(math.exp(log_a) - 1.2824271291) < 1e-9


def test_constants_record():
    c = fundamental_constants()
    assert c.euler_gamma == euler_gamma()
    assert c.zeta_prime_minus1 == zeta_prime_minus1()
    assert abs(c.log_2pi - math.log(2 * math.pi)) == 0.0


def test_zeta_prime_2_is_correctly_rounded():
    # zeta'_R(2) = -0.93754825431584375370257409457 (30 digits) rounds to this
    assert _zeta_prime_2().hex() == "-0x1.e00653256ab8ap-1"


def test_zeta_prime_minus1_pinned():
    # Every closed form leans on this value, so it must not move by a bit.
    # It is 2 ulps from zeta'_R(-1) = -0.16542114370045092921 (-0x1.52c8521215341p-3),
    # mostly through euler_gamma(), which is 5 ulps above gamma.
    assert zeta_prime_minus1().hex() == "-0x1.52c8521215343p-3"
