from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

from heckelab import heights, modpoly, numerics, scan
from heckelab.hecke import coset_reps
from heckelab.numerics import ModularMatrix, UpperHalfPoint, eval_j


def _fraction(x) -> Fraction:
    """The finite mpf x as an exact rational."""
    sign, man, exp, _ = x._mpf_
    value = man * Fraction(2) ** exp
    return -value if sign else value


def _rounded(value: Fraction, wp: int):
    """value rounded to nearest, ties to even, to wp significant bits."""
    if not value:
        return mp.zero
    num, den = abs(value).numerator, abs(value).denominator
    k = num.bit_length() - den.bit_length()  # 2^k <= |value| < 2^(k + 1) after the fix
    if Fraction(num, den) < Fraction(2) ** k:
        k -= 1
    man = round(value * Fraction(2) ** (wp - 1 - k))  # Fraction rounds ties to even
    return mp.make_mpf(from_man_exp(man, k + 1 - wp))


def exact_reduce(tau, prec, start=(1, 0, 0, 1)):
    """The reduction of start * tau on exact rationals, with no float64
    fast exit: translate by the nearest integer (ties to even), invert
    while |z|^2 < 1 - 2^-(wp - 8), then round each part once to wp bits.
    The oracle of reduce_to_fundamental_domain."""
    wp = prec.bits + numerics._GUARD
    A, B, C, D = start
    x = _fraction(tau.re)
    if mp.isinf(tau.im):  # only translated
        re = (A * x + B) / D
        n = round(re)
        return UpperHalfPoint(_rounded(re - n, wp), tau.im), ModularMatrix(1, -n, 0, 1)
    y = _fraction(tau.im)
    # z = (A tau + B) / (C tau + D), a pair of rationals
    pr, pi, qr, qi = A * x + B, A * y, C * x + D, C * y
    norm = qr * qr + qi * qi
    zr, zi = (pr * qr + pi * qi) / norm, (pi * qr - pr * qi) / norm
    threshold = 1 - Fraction(1, 2 ** (wp - 8))
    a, b, c, d = 1, 0, 0, 1
    for _ in range(numerics._MAX_REDUCTION_STEPS):
        n = round(zr)
        zr, a, b = zr - n, a - n * c, b - n * d
        norm = zr * zr + zi * zi
        if not norm < threshold:
            point = UpperHalfPoint(_rounded(zr, wp), _rounded(zi, wp))
            return point, ModularMatrix(a, b, c, d)
        zr, zi = -zr / norm, zi / norm
        a, b, c, d = -c, -d, a, b
    raise ArithmeticError("fundamental-domain reduction did not terminate")


def _reference_orbit(tau, n, prec, with_j=True):
    """T_N * tau point by point: the exact reduction of
    (alpha*tau + beta)/delta, then eval_j.  Returns (reduced point, j or
    None) pairs in coset order."""
    out = []
    for rep in coset_reps(n):
        reduced, _ = exact_reduce(tau, prec, (rep.alpha, rep.beta, 0, rep.delta))
        out.append((reduced, eval_j(reduced, prec) if with_j else None))
    return out


@pytest.fixture
def reference_orbit():
    return _reference_orbit


@pytest.fixture
def exact_reduction():
    return exact_reduce


@pytest.fixture(autouse=True)
def fresh_base_point_caches():
    """heights keeps the last base point's tau, integral-j check and log
    norm, modpoly the last orbit polynomial and the j-records of the
    certificate, and scan the primes over p in Z[i] and Z[omega]; every test
    starts without them, so that counts of inversions and evaluations do
    not depend on which test ran before."""
    for cached in (
        heights._base_point, heights._integral_j, heights._log_norm,
        modpoly._orbit_polynomial, modpoly._j_record, scan._gaussian_prime,
        scan._eisenstein_prime,
    ):
        cached.cache_clear()
