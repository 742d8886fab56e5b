import math
import warnings

import pytest
from mpmath import mp

from heckelab.hecke import HeckeOrbit, hecke_orbit
from heckelab.heights import (
    CoincidenceError,
    cusp_height,
    global_identity_residual,
    heuristic_integral,
    local_arch_sum,
    phi_value,
)
from heckelab.numerics import (
    Precision,
    UpperHalfPoint,
    log_petersson_norm_delta,
    tau_from_j,
)

PREC = Precision(96)


def _classical_phi2(x, y):
    """The classical symmetric level-2 modular polynomial, exact integers."""
    return (
        x**3
        + y**3
        - x**2 * y**2
        + 1488 * (x**2 * y + x * y**2)
        - 162000 * (x**2 + y**2)
        + 40773375 * x * y
        + 8748000000 * (x + y)
        - 157464000000000
    )


def test_phi_frozen_values():
    assert phi_value(1, 2, 2, PREC) == -157437675254317
    assert phi_value(1, 2, 3, PREC) == 5564738242019498631577


def test_phi_symmetry():
    assert phi_value(2, 1, 2, PREC) == phi_value(1, 2, 2, PREC)
    assert phi_value(-7, 11, 2, PREC) == phi_value(11, -7, 2, PREC)


def test_phi_order_two_matches_classical_polynomial():
    # prod over the orbit of (z - j) is the classical polynomial in z with
    # the base j substituted, up to the sign fixed by the monic X-degree
    for y, z in ((287496, 0), (287496, 1), (8000, -3)):
        assert phi_value(y, z, 2, PREC) == _classical_phi2(z, y)
    assert phi_value(287496, 0, 2, PREC) == 12730291119207936


def test_phi_at_cm_base():
    with pytest.raises(ValueError):
        phi_value(0, 5, 2, PREC)
    with pytest.raises(ValueError):
        phi_value(1728, 5, 2, PREC)
    # the orbit of j=0 is 54000 with multiplicity 3
    assert phi_value(0, 5, 2, PREC, allow_cm=True) == (5 - 54000) ** 3
    assert phi_value(0, 5, 2, PREC, allow_cm=True) == _classical_phi2(5, 0)


def test_cusp_height_frozen():
    h = cusp_height(tau_from_j(1, PREC), 2, PREC)
    assert h.n == 2
    assert h.e_n == 3
    assert h.value == pytest.approx(-43.39686924828896, rel=1e-9)
    assert h.normalized == pytest.approx(h.value / (6 * 3 * math.log(2)), rel=1e-12)
    assert h.normalized == pytest.approx(-3.47824711414518, rel=1e-9)


_ORACLE_NS = (4, 6, 8, 9, 12, 25, 30, 36)


def _oracle_bases():
    # the CM bases j = 0 and j = 1728, and a point off integral j
    return [tau_from_j(0, PREC), tau_from_j(1728, PREC), UpperHalfPoint(0.3, 1.7)]


def _orbit_norm_sum(tau, n):
    """sum of log ||Delta|| over the orbit, point by point."""
    with mp.workprec(PREC.bits + 32):
        return mp.fsum(
            log_petersson_norm_delta(p.tau, PREC) for p in HeckeOrbit(tau, n, PREC).points
        )


def test_cusp_height_matches_the_orbit_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # j(0.3+1.7i) is not near an integer
        for tau in _oracle_bases():
            for n in _ORACLE_NS:
                h = cusp_height(tau, n, PREC)
                assert h.e_n == len(HeckeOrbit(tau, n, PREC).points)
                assert h.value == pytest.approx(float(-_orbit_norm_sum(tau, n)), rel=1e-12)


def test_local_arch_sum_matches_the_orbit_sum():
    for tau in _oracle_bases():
        for n in (1,) + _ORACLE_NS:
            orbit = hecke_orbit(tau, n, PREC)
            norm_sum = _orbit_norm_sum(tau, n)
            for z in (2, 5 - 3j):
                with mp.workprec(PREC.bits + 32):
                    dist = mp.fsum(mp.log(abs(mp.mpc(z) - p.j)) for p in orbit.points)
                    expected = float(dist + norm_sum)
                assert local_arch_sum(tau, z, n, PREC) == pytest.approx(expected, rel=1e-12)


def test_cusp_height_warns_off_integral_j():
    with pytest.warns(UserWarning, match="not near an integer"):
        cusp_height(UpperHalfPoint(0.3, 1.7), 2, PREC)


def test_cusp_height_quiet_at_integral_j():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cusp_height(tau_from_j(1, PREC), 2, PREC)
        cusp_height(UpperHalfPoint(0, 2), 2, PREC)  # j = 287496


def test_decomposition_identity():
    # log|phi| - S_N equals the height sum, so the normalized residual is
    # exactly (normalized height) - 1
    tau = tau_from_j(1, PREC)
    for n in (2, 3, 5):
        r = global_identity_residual(1, 2, n, PREC)
        h = cusp_height(tau, n, PREC)
        assert abs(r - (h.normalized - 1)) < 1e-8, n


def test_local_arch_sum_coincidence_guard():
    tau = UpperHalfPoint(0, 2)
    with pytest.raises(CoincidenceError):
        local_arch_sum(tau, 287496, 1, PREC)
    # away from the orbit the sum is finite
    val = local_arch_sum(tau, 287496, 2, PREC)
    assert math.isfinite(val)


def test_heuristic_integral_determinism():
    a = heuristic_integral(12345, 40, PREC, seed=7)
    b = heuristic_integral(12345, 40, PREC, seed=7)
    assert a == b
    c = heuristic_integral(12345, 40, PREC, seed=8)
    assert c.value != a.value
    assert a.samples == 40
    assert a.rejected == 0
    assert a.std_error > 0
    # two independent estimates agree within combined error bars
    spread = abs(a.value - c.value)
    assert spread < 8 * (a.std_error + c.std_error)
    with pytest.raises(ValueError):
        heuristic_integral(12345, 1, PREC)
