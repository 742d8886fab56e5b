import math
import random

import numpy as np
import pytest
from mpmath import mp, mpc

from heckelab import hecke
from heckelab.hecke import (
    HeckeOrbit,
    close_point_count,
    coset_reps,
    e_n,
    equi_fraction,
    hecke_orbit,
    orbit_symmetry_check,
)
from heckelab.numerics import Precision, UpperHalfPoint, eval_j, tau_from_j

PREC = Precision(128)
FAST = Precision(96)


def _degree_oracle(n):
    # cyclic order-n subgroups of (Z/n)^2: pairs generating order exactly n,
    # counted up to the phi(n) generators each subgroup has
    gens = sum(
        1
        for u in range(n)
        for v in range(n)
        if math.gcd(math.gcd(u, v), n) == 1
    )
    phi = sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)
    return gens // phi


def test_degree_matches_subgroup_count():
    for n in range(1, 61):
        assert e_n(n) == _degree_oracle(n)
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"N must be positive, got {n}"):
            e_n(n)


def test_degree_multiplicative():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randrange(1, 200)
        n = rng.randrange(1, 200)
        if math.gcd(m, n) == 1:
            assert e_n(m * n) == e_n(m) * e_n(n)
    for p in (2, 3, 5, 97):
        assert e_n(p) == p + 1


def test_coset_reps_structure():
    assert [tuple(t) for t in coset_reps(1)] == [(1, 0, 1, 1)]
    for n in (2, 3, 4, 6, 12, 30, 36, 360):
        reps = coset_reps(n)
        rows = list(reps)
        assert len(reps) == e_n(n) == len(rows)
        assert len(set(rows)) == len(rows)
        keys = [(t.alpha, t.beta) for t in rows]
        assert keys == sorted(keys)
        for t in rows:
            assert all(type(v) is int for v in t)
            assert t.alpha * t.delta == n
            assert 0 <= t.beta < t.delta
            assert math.gcd(math.gcd(t.alpha, t.beta), t.delta) == 1
        for k in (0, len(rows) // 2, -1):
            assert reps[k] == rows[k]
            assert all(type(v) is int for v in reps[k])
        assert reps[1:-1] == rows[1:-1]
        assert reps[:] == rows
    with pytest.raises(ValueError):
        coset_reps(0)


def test_order_two_orbit_matches_classical_polynomial():
    # For y = j(2i) the orbit j-values are the roots of the classical
    # degree-3 modular polynomial in X at Y = y; its coefficients pin the
    # orbit sum and product exactly.
    y = 287496
    orbit = hecke_orbit(UpperHalfPoint(0, 2), 2, PREC)
    assert orbit.n == 2 and len(orbit.points) == 3
    expected_sum = y * y - 1488 * y + 162000
    expected_prod = -(y**3 - 162000 * y**2 + 8748000000 * y - 157464000000000)
    with mp.workprec(192):
        got_sum = sum(p.j for p in orbit.points)
        got_prod = orbit.points[0].j * orbit.points[1].j * orbit.points[2].j
        assert abs(got_sum - expected_sum) < 1e-18 * abs(expected_sum)
        assert abs(got_prod - expected_prod) < 1e-18 * abs(expected_prod)


def test_orbit_points_are_reduced_and_complete():
    tau = UpperHalfPoint(0.13, 1.21)
    for n in (1, 2, 6):
        orbit = hecke_orbit(tau, n, FAST)
        assert len(orbit.points) == e_n(n)
        for p in orbit.points:
            assert abs(p.tau.re) <= 0.5 + 1e-20
            assert p.tau.re**2 + p.tau.im**2 >= 1 - 1e-20
    single = hecke_orbit(tau, 1, FAST).points[0]
    assert abs(single.j - eval_j(tau, FAST)) < 1e-20


def test_orbit_symmetry():
    assert orbit_symmetry_check(UpperHalfPoint(0.13, 1.21), 2, FAST)
    assert orbit_symmetry_check(UpperHalfPoint(-0.31, 0.95), 3, FAST)


def test_equi_fraction_edges():
    orbit = hecke_orbit(UpperHalfPoint(0.3, 1.7), 5, FAST)
    low = equi_fraction(orbit, 0.5)  # every reduced point has Im >= sqrt(3)/2
    assert low.fraction == 1.0
    assert low.prediction == 1.0
    high = equi_fraction(orbit, 1e6)
    assert high.fraction == 0.0
    assert high.prediction == pytest.approx(3 / (math.pi * 1e6))
    with pytest.raises(ValueError):
        equi_fraction(orbit, 0)


def test_close_point_count():
    orbit = hecke_orbit(UpperHalfPoint(0, 2), 2, PREC)
    assert close_point_count(orbit, 1728, 1e-6) == 1  # j(i) is 2-isogenous
    assert close_point_count(orbit, 1728, 1e12) == 3
    assert close_point_count(orbit, -5e8, 1.0) == 0
    with pytest.raises(ValueError):
        close_point_count(orbit, 0, 0)


def test_close_point_count_works_at_the_orbits_precision():
    # j(i) = 1728 lies on T_2 i; at 53 bits z would round to 1728 itself
    orbit = hecke_orbit(UpperHalfPoint(0, 1), 2, PREC)
    with mp.workprec(PREC.bits):
        z = mp.mpf(1728) + mp.mpf(10) ** -20
        eta = mp.mpf(10) ** -25
    assert close_point_count(orbit, z, eta) == 0
    assert close_point_count(orbit, z, 2 * 10.0**-20) == 1
    # an eta below the float64 range is positive all the same
    assert close_point_count(orbit, -5e8, mp.mpf("1e-400")) == 0


def test_equi_fraction_compares_the_exact_im():
    # Im = 1.5 - 2^-70 is 1.5 as a float64, and lies inside the screen's bound
    with mp.workprec(PREC.bits):
        below = mp.mpf(1.5) - mp.mpf(2) ** -70
        above = mp.mpf(1.5) + mp.mpf(2) ** -70
    for im, want in ((below, 0.0), (mp.mpf(1.5), 1.0), (above, 1.0)):
        orbit = HeckeOrbit(UpperHalfPoint(mp.mpf("0.25"), im), 1, PREC)
        assert equi_fraction(orbit, 1.5).fraction == want


def test_orbit_of_cm_point_collapses():
    # tau at j=0 has a 3-fold stabilizer; all three order-2 cosets land on
    # j = 54000 (the full T_2-image of the CM point is one value)
    tau = tau_from_j(0, PREC)
    orbit = hecke_orbit(tau, 2, PREC)
    for p in orbit.points:
        assert abs(p.j - 54000) < 1e-20 * 54000


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_orbit_points_equal_the_reference_path(bits, reference_orbit):
    prec = Precision(bits)
    tau = UpperHalfPoint(0.3, 1.7)
    for n in (1, 2, 6, 12, 97):
        orbit = HeckeOrbit(tau, n, prec)
        ref = reference_orbit(tau, n, prec)
        assert len(orbit.points) == len(ref) == e_n(n)
        # read back to front: a point does not depend on the access order
        for i in reversed(range(len(ref))):
            p, (t, j) = orbit.points[i], ref[i]
            assert p.coset == coset_reps(n)[i]
            assert p.tau.re == t.re and p.tau.im == t.im
            assert p.j == j
        assert [p.tau for p in orbit.points] == [t for t, _ in ref]
        assert orbit.points[-1] is orbit.points[len(ref) - 1]
        assert [(p.tau, p.j) for p in hecke_orbit(tau, n, prec).points] == ref
        with pytest.raises(IndexError):
            orbit.points[len(ref)]


def _counting(monkeypatch, name):
    calls = []
    orig = getattr(hecke, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(hecke, name, counted)
    return calls


def test_hecke_orbit_evaluates_every_j_once(monkeypatch):
    j_calls = _counting(monkeypatch, "eval_j")
    orbit = hecke_orbit(UpperHalfPoint(0.3, 1.7), 12, FAST)
    assert len(j_calls) == 24
    assert all(p.j is not None for p in orbit.points)
    assert len(j_calls) == 24


def test_screen_tier_evaluates_no_j(monkeypatch):
    j_calls = _counting(monkeypatch, "eval_j")
    reductions = _counting(monkeypatch, "reduce_to_fundamental_domain")
    orbit = HeckeOrbit(UpperHalfPoint(0.3, 1.7), 97, FAST)
    assert len(orbit.points) == 98
    assert not j_calls and not reductions
    equi_fraction(orbit, 1.5)
    equi_fraction(orbit, 1.0)
    assert not j_calls
    point = orbit.points[5]
    assert len(reductions) == 1 and not j_calls
    assert point.j == point.j
    assert len(j_calls) == 1


def test_equi_fraction_matches_exact_count_at_orbit_values(monkeypatch, reference_orbit):
    tau = UpperHalfPoint(0.3, 1.7)
    for n in (12, 97):
        # the oracle compares the exact Im with the float threshold
        ims = [t.im for t, _ in reference_orbit(tau, n, FAST, with_j=False)]
        for y in sorted({float(v) for v in ims})[::7]:
            for threshold in (y - 1e-12, y, y + 1e-12):
                reductions = _counting(monkeypatch, "reduce_to_fundamental_domain")
                want = sum(1 for v in ims if v >= threshold) / len(ims)
                assert equi_fraction(HeckeOrbit(tau, n, FAST), threshold).fraction == want
                assert reductions, "a threshold this close must use the exact tier"
                monkeypatch.undo()


def test_screen_stays_within_its_error_bounds():
    bases = [
        UpperHalfPoint(0.3, 1.7),
        UpperHalfPoint(0, 1),  # j = 1728: E6 vanishes
        tau_from_j(0, FAST),  # j = 0: E4 vanishes
        UpperHalfPoint(0.1, 150),  # Im tau_i up to 1500: |j| overflows float64
        UpperHalfPoint(3.7, 0.2),
        UpperHalfPoint(0.25, 0.01),
    ]
    for base in bases:
        for n in (2, 6, 10, 97):
            orbit = HeckeOrbit(base, n, FAST)
            screen = orbit.screen
            assert screen.trusted.all()
            for i, p in enumerate(orbit.points):
                assert abs(screen.tau.imag[i] - float(p.tau.im)) <= screen.tau_err[i]
                with mp.workprec(128):
                    j_screen = mp.exp(mpc(screen.log_j[i].real, screen.log_j[i].imag))
                    assert abs(j_screen - p.j) <= mp.exp(screen.log_j_err[i])
    big = HeckeOrbit(UpperHalfPoint(0.1, 150), 10, FAST).screen
    assert big.log_j.real.max() > 710  # beyond float64 range as |j|
    assert np.isfinite(big.log_j_err).all()


def test_points_below_the_moved_im_floor_use_the_exact_tier(reference_orbit):
    tau = UpperHalfPoint(0.3183098861837907, 1e-9)  # moved Im below 2^-32 for delta >= 5
    orbit = HeckeOrbit(tau, 12, FAST)
    trusted = orbit.screen.trusted
    assert trusted.any() and not trusted.all()
    ims = [float(t.im) for t, _ in reference_orbit(tau, 12, FAST, with_j=False)]
    for threshold in (0.9, 1.5, 3.0):
        want = sum(1 for v in ims if v >= threshold) / len(ims)
        assert equi_fraction(orbit, threshold).fraction == want
