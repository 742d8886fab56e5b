"""Cross-checks of the q-series evaluator against an independent
construction from Jacobi theta nulls, plus the classical special values."""

import cmath
import functools
import importlib
import itertools
import math
import operator
import pkgutil
import random
import re
import time

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int, from_man_exp, fzero, mpf_div, round_nearest

import heckelab
from heckelab import numerics
from heckelab.cli import main
from heckelab.hecke import HeckeOrbit, coset_reps
from heckelab.numerics import (
    ModularMatrix,
    Precision,
    PrecisionOverflowError,
    UpperHalfPoint,
    eval_delta,
    eval_e4,
    eval_e6,
    eval_j,
    log_petersson_norm_delta,
    petersson_norm_delta,
    reduce_to_fundamental_domain,
    tau_from_j,
)

PREC = Precision(128)


def _theta_oracle(tau: UpperHalfPoint, bits: int):
    """E4, E6, Delta built from theta nulls -- shares no code with the
    series evaluator under test."""
    with mp.workprec(bits + 48):
        w = mp.expjpi(mpc(tau.re, tau.im))  # nome e^{i pi tau}
        t2 = mp.jtheta(2, 0, w)
        t3 = mp.jtheta(3, 0, w)
        t4 = mp.jtheta(4, 0, w)
        e4 = (t2**8 + t3**8 + t4**8) / 2
        e6 = (t3**4 + t4**4) * (t2**4 + t3**4) * (t4**4 - t2**4) / 2
        delta = (2 * mp.pi) ** 12 * (t2 * t3 * t4 / 2) ** 8
        return e4, e6, delta


def _rel(err, ref):
    return float(abs(err) / max(1, abs(ref)))


def _random_points(seed, count, re_span=2.0, im_lo=0.25, im_hi=3.0):
    rng = random.Random(seed)
    return [
        UpperHalfPoint(rng.uniform(-re_span, re_span), rng.uniform(im_lo, im_hi))
        for _ in range(count)
    ]


def test_series_match_theta_nulls():
    pts = [
        UpperHalfPoint(0.3, 1.1),
        UpperHalfPoint(-0.25, 0.9),
        UpperHalfPoint(0, 2),
        UpperHalfPoint(0.5, 0.87),
    ] + _random_points(101, 8)
    tol = 2.0**-96
    for tau in pts:
        e4_o, e6_o, d_o = _theta_oracle(tau, PREC.bits)
        assert _rel(eval_e4(tau, PREC) - e4_o, e4_o) < tol
        assert _rel(eval_e6(tau, PREC) - e6_o, e6_o) < tol
        assert _rel(eval_delta(tau, PREC) - d_o, d_o) < tol


def test_classical_j_values():
    with mp.workprec(PREC.bits + 64):  # inputs must carry full precision
        cases = [
            (UpperHalfPoint(0, 1), 1728),
            (UpperHalfPoint(0, 2), 287496),
            (UpperHalfPoint(-0.5, mp.sqrt(3) / 2), 0),
            (UpperHalfPoint(0, mp.sqrt(2)), 8000),
            (UpperHalfPoint(0, mp.sqrt(3)), 54000),
            (UpperHalfPoint(0.5, mp.sqrt(7) / 2), -3375),
            (UpperHalfPoint(0.5, mp.sqrt(11) / 2), -32768),
            (UpperHalfPoint(0.5, mp.sqrt(163) / 2), -262537412640768000),
        ]
    for tau, expected in cases:
        got = eval_j(tau, PREC)
        assert _rel(got - expected, expected) < 2.0**-90, (expected, got)


def test_j_is_unimodular_invariant():
    rng = random.Random(2024)
    tol = 2.0 ** -(PREC.bits - 16)
    s = ModularMatrix(0, -1, 1, 0)
    for _ in range(25):
        tau = UpperHalfPoint(rng.uniform(-2, 2), rng.uniform(0.3, 3))
        gamma = ModularMatrix(1, 0, 0, 1)
        for _ in range(rng.randrange(1, 10)):
            if rng.random() < 0.5:
                gamma = gamma @ s
            else:
                gamma = gamma @ ModularMatrix(1, rng.choice([-1, 1]), 0, 1)
        assert gamma.det() == 1
        moved = gamma.apply(tau, PREC)
        j0 = eval_j(tau, PREC)
        assert _rel(eval_j(moved, PREC) - j0, j0) < tol


def test_cocycle_weights():
    rng = random.Random(77)
    tol = 2.0**-90
    for _ in range(10):
        tau = UpperHalfPoint(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5))
        gamma = ModularMatrix(0, -1, 1, rng.randrange(-3, 4))
        moved = gamma.apply(tau, PREC)
        with mp.workprec(PREC.bits + 32):
            factor = gamma.c * tau.to_mpc() + gamma.d
            for fn, weight in ((eval_e4, 4), (eval_e6, 6), (eval_delta, 12)):
                lhs = fn(moved, PREC)
                rhs = factor**weight * fn(tau, PREC)
                assert _rel(lhs - rhs, rhs) < tol


def test_petersson_norm_is_invariant():
    rng = random.Random(9)
    tol = 2.0**-90
    for _ in range(10):
        tau = UpperHalfPoint(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5))
        gamma = ModularMatrix(2, 1, 1, 1) if rng.random() < 0.5 else ModularMatrix(1, -2, 0, 1)
        moved = gamma.apply(tau, PREC)
        n0 = petersson_norm_delta(tau, PREC)
        assert _rel(petersson_norm_delta(moved, PREC) - n0, n0) < tol
        l0 = log_petersson_norm_delta(tau, PREC)
        assert abs(log_petersson_norm_delta(moved, PREC) - l0) < tol * max(1, abs(l0))
        # the log variant is literally log of the norm
        with mp.workprec(PREC.bits + 32):
            assert abs(l0 - mp.log(n0)) < tol * max(1, abs(l0))


def test_log_norm_stays_finite_at_extreme_height():
    tau = UpperHalfPoint(0, 10000)
    with mp.workprec(192):
        got = log_petersson_norm_delta(tau, Precision(128))
        expected = 12 * mp.log(2 * mp.pi) - 2 * mp.pi * mpf(10000) + 6 * mp.log(mpf(10000))
        # the product term is 1 - O(e^-62000); the closed form is exact here
        assert abs(got - expected) < 1e-20


def test_reduction_lands_in_domain_with_witness():
    rng = random.Random(5)
    slack = mpf(2) ** -100
    for _ in range(200):
        tau = UpperHalfPoint(rng.uniform(-8, 8), rng.uniform(0.05, 5))
        red, wit = reduce_to_fundamental_domain(tau, PREC)
        assert wit.det() == 1
        assert abs(red.re) <= mpf("0.5") + slack
        assert red.re**2 + red.im**2 >= 1 - slack
        replay = wit.apply(tau, PREC)
        scale = max(1, abs(red.to_mpc()))
        assert abs(replay.to_mpc() - red.to_mpc()) <= slack * scale
        # already-reduced points come back untouched
        again, wit2 = reduce_to_fundamental_domain(red, PREC)
        assert wit2.is_identity()
        assert again == red


def _near_boundary_points(wp: int) -> list[UpperHalfPoint]:
    """Points where a reduction step is a close call: ties x = k + 1/2
    (nint rounds them to even, +-1/2 to 0) below and above the arc; points
    on |tau| = 1, within 2^-wp of it and on either side of the band
    1 - 2^-(wp - 8) <= |tau|^2 < 1 where the loop stops inverting; and
    points whose norm |tau|^2 is a power of two."""
    with mp.workprec(wp):
        eps = mpf(2) ** -wp
        points = [
            UpperHalfPoint(k + mpf(1) / 2, y)
            for k in range(-4, 4)
            for y in (mpf(1) / 4, mpf("0.8"), mpf("0.9"), mpf(3))
        ]
        for k in range(1, 12):
            z = mp.expjpi(mpf(k) / 12)
            for scale in (1, 1 - eps, 1 + eps, 1 - 2**7 * eps, 1 - 2**8 * eps):
                points.append(UpperHalfPoint(z.real * scale, z.imag * scale))
        edge = mp.sqrt(1 - mpf(2) ** -(wp - 8))
        for k in range(-3, 4):
            for x in (0, eps, mpf(1) / 2 - eps):
                points.append(UpperHalfPoint(x, mp.sqrt(edge**2 - x**2) + k * eps))
        for k in range(1, 60, 4):
            points += [UpperHalfPoint(0, mpf(2) ** -k), UpperHalfPoint(mpf(2) ** -k, mpf(2) ** -k)]
    return points


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_integer_reduction_matches_the_mpc_loop(bits, exact_reduction):
    # the integer loop against the reduction on exact rationals
    prec = Precision(bits)
    rng = random.Random(6000 + bits)
    cases = [(tau, (1, 0, 0, 1)) for tau in _near_boundary_points(prec.bits + numerics._GUARD)]
    # seeded orbits, their bases from Im 1e-30 up, reduced from their cosets
    for n, im in ((149, 1.3), (151, 1e-30), (256, 1e-6), (293, 0.02), (300, 40.0)):
        base = UpperHalfPoint(rng.uniform(-2, 2), im * rng.uniform(1, 2))
        cases += [(base, (rep.alpha, rep.beta, 0, rep.delta)) for rep in coset_reps(n)]
    for tau, start in cases:
        got, got_witness = reduce_to_fundamental_domain(tau, prec, start=start)
        want, witness = exact_reduction(tau, prec, start)
        assert (got.re, got.im, got_witness) == (want.re, want.im, witness), (tau, start)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_reducing_a_reduced_point_gives_it_back(bits):
    # the float64 exit and the loop both return a reduced point unchanged,
    # with the identity witness; every witness lies in SL2(Z)
    prec = Precision(bits)
    rng = random.Random(6100 + bits)
    cases = [(tau, (1, 0, 0, 1)) for tau in _near_boundary_points(bits + numerics._GUARD)]
    base = UpperHalfPoint(rng.uniform(-2, 2), rng.uniform(0.01, 2))
    cases += [(base, (rep.alpha, rep.beta, 0, rep.delta)) for rep in coset_reps(97)]
    for tau, start in cases:
        reduced, witness = reduce_to_fundamental_domain(tau, prec, start=start)
        assert witness.det() == 1, (tau, start)
        again, identity = reduce_to_fundamental_domain(reduced, prec)
        assert (again.re, again.im) == (reduced.re, reduced.im), (tau, start)
        assert identity.is_identity(), (tau, start)


def test_reduction_that_runs_out_of_steps_raises(monkeypatch):
    # 0.3 + 0.01i needs an inversion after its first translation
    monkeypatch.setattr(numerics, "_MAX_REDUCTION_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not terminate"):
        reduce_to_fundamental_domain(UpperHalfPoint(0.3, 0.01), PREC)


def test_reduction_of_points_that_are_not_finite(exact_reduction):
    for x in (mp.inf, -mp.inf, mp.nan):
        tau = UpperHalfPoint(x, 1)
        with pytest.raises(ValueError, match=re.escape(f"Re tau = {x} is not finite")):
            reduce_to_fundamental_domain(tau, PREC)
        with pytest.raises(ValueError, match=re.escape(f"Re tau = {x} is not finite")):
            HeckeOrbit(tau, 5, PREC).points[3]
    # Im = +inf is only translated, from the identity as from a coset
    for x, n in ((mpf("2.75"), 3), (mpf("-0.5"), 0), (mpf("0.3"), 0), (mpf(7), 7)):
        tau = UpperHalfPoint(x, mp.inf)
        got, witness = reduce_to_fundamental_domain(tau, PREC)
        assert (got.re, got.im, witness) == (x - n, mp.inf, ModularMatrix(1, -n, 0, 1))
        want, want_witness = exact_reduction(tau, PREC)
        assert (got.re, got.im, witness) == (want.re, want.im, want_witness)
        for point, rep in zip(HeckeOrbit(tau, 6, PREC).points, coset_reps(6)):
            want, _ = exact_reduction(tau, PREC, (rep.alpha, rep.beta, 0, rep.delta))
            assert (point.tau.re, point.tau.im) == (want.re, mp.inf)
    # a start with C != 0 would send Im = +inf to the real line
    with pytest.raises(ValueError, match=r"^a start with C != 0 sends Im tau = \+inf"):
        reduce_to_fundamental_domain(UpperHalfPoint(mpf("0.3"), mp.inf), PREC, (0, -1, 1, 0))


def test_tau_from_j_round_trips():
    targets = [0, 1, 1728, 287496, 8000, -3375, 10**8, -(10**8), 1728.5, 12.25]
    for t in targets:
        tau = tau_from_j(t, PREC)
        assert abs(tau.re) <= mpf("0.5") + mpf(2) ** -100
        got = eval_j(tau, PREC)
        assert abs(got.real - t) <= 1e-10 * max(1, abs(t))
        assert abs(got.imag) <= 1e-10 * max(1, abs(t))


def _plain_tau_from_j(y, prec):
    """tau_from_j by plain bisection, one eval_j per midpoint: the oracle
    that the located root must lie next to."""

    def bisect(f, neg_end, pos_end):
        for _ in range(prec.bits + 32 + 8):
            mid = (neg_end + pos_end) / 2
            if mid == neg_end or mid == pos_end:
                break
            if f(mid) < 0:
                neg_end = mid
            else:
                pos_end = mid
        return (neg_end + pos_end) / 2

    with mp.workprec(prec.bits + 32):
        y = mpf(y)
        if y >= 1728:
            def f(t):
                return numerics.eval_j(UpperHalfPoint(mpf(0), t), prec).real - y

            hi = mpf(2)
            while f(hi) < 0:
                hi *= 2
            return UpperHalfPoint(mpf(0), bisect(f, mpf(1), hi))
        if y >= 0:
            def f(th):
                z = mp.expjpi(th)
                return numerics.eval_j(UpperHalfPoint(z.real, z.imag), prec).real - y

            z = mp.expjpi(bisect(f, mpf(2) / 3, mpf(1) / 2))
            return UpperHalfPoint(z.real, z.imag)

        def f(t):
            return numerics.eval_j(UpperHalfPoint(mpf(1) / 2, t), prec).real - y

        lo, hi = mp.sqrt(3) / 2, mpf(2)
        while f(hi) > 0:
            hi *= 2
        return UpperHalfPoint(mpf(1) / 2, bisect(f, hi, lo))


def _inversion_targets():
    rng = random.Random(23)
    special = [0, 1, 2, -1, 1727, 1728, 1729, 1728.5, 12.25,
               10**6, -(10**6), 10**30, -(10**30)]
    axis = [1728 * 10 ** rng.uniform(0, 4) for _ in range(10)]
    unit = [rng.uniform(0, 1728) for _ in range(10)]
    negative = [-(10 ** rng.uniform(-3, 6)) for _ in range(10)]
    return special + axis + unit + negative


def test_tau_from_j_rejects_a_non_finite_target():
    # no bracket holds such a root: NaN compares false with every value
    for target in ("nan", "inf", "-inf", math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            tau_from_j(target, PREC)


_ORACLE_PREC = Precision(256)


@functools.cache
def _plain_root_and_slope(y):
    """The plain bisection's root at 256 bits and |j'| there, once per
    target for every precision checked against them: |j'| = 2 pi |E4^2 E6|
    / |eta|^24, with eval_delta = (2 pi)^12 eta^24."""
    want = _plain_tau_from_j(y, _ORACLE_PREC)
    with mp.workprec(_ORACLE_PREC.bits + 32):
        e4, e6, delta = (f(want, _ORACLE_PREC) for f in (eval_e4, eval_e6, eval_delta))
        return want, (2 * mp.pi) ** 13 * abs(e4**2 * e6 / delta)


def _cm_point(y, prec):
    """i for y = 1728 and rho = (-1 + sqrt(3) i) / 2 for y = 0, the ends of
    the unit arc, at working precision."""
    with mp.workprec(prec.bits + 32):
        if y == 1728:
            return UpperHalfPoint(mpf(0), mpf(1))
        return UpperHalfPoint(mpf(-1) / 2, mp.sqrt(3) / 2)


def _assert_next_to_the_oracle(got, y, bits):
    want, slope = _plain_root_and_slope(y)
    with mp.workprec(_ORACLE_PREC.bits + 32):
        err = mpf(2) ** -bits * max(1, abs(mpf(y)))
        assert abs(got.to_mpc() - want.to_mpc()) <= 2 * err / slope, y


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_tau_from_j_lies_next_to_the_plain_bisection(bits):
    # The root at bits has |j - y| within err = 2^-bits max(1, |y|), the
    # accuracy of eval_j, so it lies within about err / |j'| of the true
    # root; the 256-bit plain bisection lies within 2^(bits - 256) times
    # that.  So the two lie within 2 err / |j'| of each other.  At y = 0 and
    # y = 1728, where j' = 0, the root is the CM point itself.
    prec = Precision(bits)
    for y in _inversion_targets():
        got = tau_from_j(y, prec)
        if y in (0, 1728):
            assert got == _cm_point(y, prec)
            continue
        _assert_next_to_the_oracle(got, y, bits)


def _counting_passes(monkeypatch) -> list:
    """Record every kernel pass from now on: each forms q once (_nome), and
    a _series call that a point of tau_from_j answers forms none."""
    calls = []
    nome = numerics._nome

    def counted(*args):
        calls.append(1)
        return nome(*args)

    monkeypatch.setattr(numerics, "_nome", counted)
    return calls


def _next_to_cm_points():
    """Targets just off 1728 and 0 at 128 bits, where j' nearly vanishes
    and the float64 seed cannot see the root."""
    with mp.workprec(160):
        near_i = [mpf(1728) + s * mpf(10) ** -k for k in range(10, 39) for s in (1, -1)]
        near_rho = [s * mpf(10) ** -k for k in range(28, 39) for s in (1, -1)]
        return near_i + near_rho


def test_tau_from_j_settles_next_to_a_cm_point(monkeypatch):
    # Just off 1728 and 0 the safeguarded Newton loop bisects the arc until
    # its steps take hold, and the root lies next to the 256-bit plain
    # bisection within 90 kernel passes (the loop takes at most 41 here)
    calls = _counting_passes(monkeypatch)
    for y in _next_to_cm_points():
        calls.clear()
        got = tau_from_j(y, PREC)
        assert len(calls) <= 90, y
        _assert_next_to_the_oracle(got, y, PREC.bits)
    # within err = 2^-128 max(1, |y|) of 1728 or 0 the root is the CM point,
    # read off no kernel pass
    calls.clear()
    with mp.workprec(160):
        for y, cm in ((1728 * (1 - mpf(2) ** -129), 1728), (-mpf(2) ** -129, 0)):
            assert tau_from_j(y, PREC) == _cm_point(cm, PREC), y
    assert calls == []


def test_tau_from_j_evaluates_j_about_three_times(monkeypatch):
    calls = _counting_passes(monkeypatch)

    def count(y, prec):
        calls.clear()
        tau_from_j(y, prec)
        return len(calls)

    # the seed, good to about 2^-46, and Newton steps of some 50 bits, one
    # kernel pass each: 2, 3 and 5.3 passes at 64, 128 and 256 bits; the
    # bounds are what chord steps with the seed's fixed slope took
    for bits, most in ((64, 2.0), (128, 3.02), (256, 5.68)):
        prec = Precision(bits)
        counts = {y: count(y, prec) for y in _inversion_targets()}
        # at j = 0 and j = 1728 the root is the CM point itself, read off no j
        assert (counts.pop(0), counts.pop(1728)) == (0, 0)
        assert sum(counts.values()) / len(counts) <= most, bits


def _raw(value) -> tuple:
    return value._mpc_ if isinstance(value, mpc) else value._mpf_


def test_evaluators_at_an_inverted_point_read_its_pass_bit_for_bit(monkeypatch):
    # the point of tau_from_j carries the pass its loop accepted: at its
    # precision every evaluator reads it and makes no pass, at another one
    # it makes its own, and each value is, bit for bit, the one at a fresh
    # point with the same parts.  0 and 1728 give the CM points, with no pass
    evaluators = (eval_e4, eval_e6, eval_delta, eval_j, petersson_norm_delta,
                  log_petersson_norm_delta)
    rng = random.Random(40)
    targets = [0, 1728] + [
        rng.randrange(lo, hi) for lo, hi in ((1, 1728), (1729, 10**6), (-(10**6), 0))
        for _ in range(3)
    ]
    precs = [Precision(bits) for bits in (64, 128, 256)]
    calls = _counting_passes(monkeypatch)
    for prec in precs:
        for y in targets:
            tau = tau_from_j(y, prec)
            fresh = UpperHalfPoint(tau.re, tau.im)
            assert tau == fresh and hash(tau) == hash(fresh) and repr(tau) == repr(fresh)
            for other in precs:
                for evaluate in evaluators:
                    calls.clear()
                    got = evaluate(tau, other)
                    assert len(calls) == (0 if other == prec and y not in (0, 1728) else 1)
                    assert _raw(got) == _raw(evaluate(fresh, other)), (y, prec, other, evaluate)


def test_float_series_agrees_on_a_complex_and_an_array():
    rng = random.Random(31)
    for _ in range(40):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.86, 4.0))
        q = cmath.exp(2j * math.pi * tau)
        for one, many in zip(numerics._float_series(q), numerics._float_series(np.array([q]))):
            assert abs(one - many[0]) <= 2.0**-50 * abs(one), tau


def _closed_domain_points() -> list[UpperHalfPoint]:
    """Seeded points of the closed fundamental domain: the corner rho, i and
    rho + 1, points on the unit arc and on Re tau = +-1/2, and inside up
    to Im 40."""
    rng = random.Random(45)
    with mp.workprec(PREC.wp):
        rho = mp.expjpi(mpf(2) / 3)
        points = [UpperHalfPoint(x, rho.imag) for x in (rho.real, -rho.real)]
        points.append(UpperHalfPoint(0, 1))
        for _ in range(8):
            z = mp.expjpi(mpf(rng.uniform(1 / 3, 2 / 3)))
            points.append(UpperHalfPoint(z.real, z.imag))
            points.append(UpperHalfPoint(rng.choice((-0.5, 0.5)), rng.uniform(0.87, 3.0)))
    return points + [UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(1, 40)) for _ in range(24)]


def test_float_series_reads_d_off_the_tau_table_next_to_the_kernel():
    # the float64 D is 1 + sum_(n<=10) tau(n + 1) q^n, with tau(2..11) as
    # Ramanujan tabulated it, and E4, E6 and D lie within _SCREEN_SERIES_ERR
    # of the fixed-point pass at the same reduced point
    tau_2_11 = (-24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612)
    for tau in _closed_domain_points():
        series = numerics._series(tau, PREC)
        reduced, _, t, _, _, e4, _, disc = series
        e6 = numerics._e6(series)
        q = cmath.exp(2j * math.pi * complex(float(reduced.re), float(reduced.im)))
        got = numerics._float_series(q)
        with mp.workprec(160):
            want = 1 + mp.fsum(c * mpc(q) ** n for n, c in enumerate(tau_2_11, 1))
        assert abs(got[2] - complex(want)) <= 2.0**-50, tau
        for value, fixed in zip(got, (e4, e6, disc)):
            kernel = complex(mp.make_mpc(numerics._to_mpc(fixed, t.w)))
            assert abs(value - kernel) <= numerics._SCREEN_SERIES_ERR, (tau, value, kernel)


def test_newton_keeps_to_its_bracket():
    # a start outside the bracket takes its middle, and the accepted value
    # comes back with its x; with no slope to step on the bisections end
    # once the bracket stops shrinking: the last x evaluated comes back,
    # with no value, long before the step count runs out
    seen = []

    def f(x, slope):
        seen.append(x)
        return x - 0.3, slope

    x, fx = numerics._newton(lambda x: f(x, 1.0), 5.0, 0.0, 1.0, 100, lambda x, v, s: v == 0)
    assert (seen[0], x, fx) == (0.5, 0.3, (0.0, 1.0))
    seen.clear()
    x, fx = numerics._newton(lambda x: f(x, 0.0), 0.5, 0.0, 1.0, 1000, lambda x, v, s: False)
    assert x == seen[-1] and fx is None and len(seen) < 100
    assert abs(x - 0.3) <= 2 * math.ulp(0.3)


def test_tau_from_j_raises_where_its_loop_accepts_no_point(monkeypatch):
    # a negative resolution accepts no |j - y|: the loop ends on a point it
    # never accepted, and the inversion raises rather than return it
    monkeypatch.setattr(Precision, "resolution", lambda self, x: mpf(-1))
    for bits in (64, 128):
        for y in (5, 2417, -40):
            with pytest.raises(numerics.InversionError, match=f"at y = {y}.0"):
                tau_from_j(y, Precision(bits))


def test_float_seed_lies_next_to_the_root():
    # the float64 Newton seed against the plain bisection's root at 256 bits
    for y in _inversion_targets():
        if y in (0, 1728):
            continue
        with mp.workprec(160):
            arc = numerics._arc(mpf(y))
            x = numerics._seed(mpf(y), *arc)
        want, _ = _plain_root_and_slope(y)
        root = float(want.re if arc[2] is None else want.im)
        assert abs(x - root) <= 2.0**-40 * max(1.0, abs(root)), y


def _sigma_one(terms: int) -> list[int]:
    """sigma_1(n) at n = 0..terms, 0 at n = 0, by its own sieve."""
    s1 = [0] * (terms + 1)
    for d in range(1, terms + 1):
        for m in range(d, terms + 1, d):
            s1[m] += d
    return s1


def _reference(tau: UpperHalfPoint, prec: Precision) -> dict:
    """The formulas of the six evaluators at the point tau' that the
    reduction at prec gives, in mpc arithmetic at 2 bits + 64, each with
    its scale |c tau + d|^-k (1 for j and the norms): the oracle of the
    fixed-point kernel's bound.  The series keep the terms that the E6
    tail bound asks for at 2 bits + 64, whose tail lies 2^-(2 bits + 128)
    |q| below, or the cap of _upward_series_order."""
    reduced, witness = reduce_to_fundamental_domain(tau, prec)
    high = Precision(2 * prec.bits + 64)
    terms = _upward_series_order(float(reduced.im), high)
    with mp.workprec(high.bits + 32):
        q = mp.expjpi(2 * mpc(reduced.re, reduced.im))
        pw = [q]
        for _ in range(terms - 1):
            pw.append(pw[-1] * q)
        s3, s5 = numerics._sigma(3, terms), numerics._sigma(5, terms)
        e4, e6 = 1 + 240 * mp.fdot(s3, pw), 1 - 504 * mp.fdot(s5, pw)
        # log prod (1 - q^n) = -sum_n sigma_1(n) q^n / n
        s1 = _sigma_one(terms)
        log_prod = -mp.fdot([mpf(s1[n]) / n for n in range(1, terms + 1)], pw)
        prod24 = mp.exp(24 * log_prod)
        delta = (2 * mp.pi) ** 12 * q * prod24

        def cocycle(weight):
            if witness.c == 0 and witness.d in (1, -1):
                return mpc(1)
            return (witness.c * tau.to_mpc() + witness.d) ** (-weight)

        return {
            eval_e4: (e4 * cocycle(4), abs(cocycle(4))),
            eval_e6: (e6 * cocycle(6), abs(cocycle(6))),
            eval_delta: (delta * cocycle(12), abs(cocycle(12))),
            eval_j: (e4**3 / (q * prod24), 1),
            petersson_norm_delta: (abs(delta) * reduced.im**6, 1),
            log_petersson_norm_delta: (
                12 * mp.log(2 * mp.pi)
                - 2 * mp.pi * reduced.im
                + 24 * log_prod.real
                + 6 * mp.log(reduced.im),
                1,
            ),
        }


def _kernel_points(bits: int, seed: int) -> list[UpperHalfPoint]:
    """Seeded Hecke orbit points, points on the three arcs where j is real
    (up to Im 90, deep in the cusp), and unreduced points."""
    rng = random.Random(seed)
    prec = Precision(bits)
    base = UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
    points = [p.tau for p in HeckeOrbit(base, 149, prec).points]
    with mp.workprec(bits + 32):
        for k in range(12):
            t = 1 + mpf(k) ** 2 * 89 / 121
            z = mp.expjpi(mpf(1) / 2 + mpf(k) / 72)
            points += [
                UpperHalfPoint(0, t),
                UpperHalfPoint(mpf(1) / 2, t),
                UpperHalfPoint(z.real, z.imag),
            ]
    # off the arcs high in the cusp, where q rounds to 0 in fixed point
    points += [UpperHalfPoint(rng.uniform(-0.5, 0.5), t) for t in (80, 300, 600)]
    return points + _random_points(seed, 12, im_lo=0.05, im_hi=40.0)


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
def test_series_lie_within_the_bound_of_a_high_precision_reference(bits):
    # the bound of numerics._series: 2^-(bits + 24) max(|v|, |c tau + d|^-k);
    # Delta, its norm and the log norm form (2 pi)^12 or sum their terms
    # with 16 extra bits and keep 2^-(bits + 30)
    prec = Precision(bits)
    for tau in _kernel_points(bits, 1000 + bits):
        _assert_within_the_bound(tau, prec)


def _assert_within_the_bound(tau: UpperHalfPoint, prec: Precision) -> None:
    bits = prec.bits
    for fn, (want, scale) in _reference(tau, prec).items():
        got = fn(tau, prec)
        slack = 24 if fn in (eval_e4, eval_e6, eval_j) else 30
        with mp.workprec(2 * bits + 96):
            err = abs(got - want)
            assert err <= mpf(2) ** -(bits + slack) * max(abs(want), scale), (
                fn.__name__, tau, mp.nstr(err, 5))


def _corner(bits: int) -> list[UpperHalfPoint]:
    """rho and 2^-20 above it: the bottom corner, where |q| is largest."""
    with mp.workprec(bits + 32):
        rho = mp.expjpi(mpf(2) / 3)
        return [UpperHalfPoint(rho.real, rho.imag + d) for d in (0, mpf(2) ** -20)]


@pytest.mark.parametrize("bits, kept", [(4096, False), (4106, True)])
def test_series_lie_within_the_bound_at_4096_bits(bits, kept):
    # at the bottom corner: at 4096 bits q^T, T the former cap, rounds to
    # 0, some 0.2 units 2^-W, and at 4106 bits all T powers stay above 0,
    # so the first zero power lies past that cap and within the raised one
    prec = Precision(bits)
    t = numerics._kernel_tables(prec)
    for tau in _corner(bits):
        reduced, _ = reduce_to_fundamental_domain(tau, prec)
        powers = _powers_before_zero(reduced, t)
        assert powers < t.terms, tau
        assert (powers >= _former_cap(bits)) == kept, tau
        _assert_within_the_bound(tau, prec)


@pytest.mark.parametrize("bits", [53, 64, 128, 256, 1024])
def test_j_is_real_where_re_tau_is_zero_or_one_half(bits):
    # there q is real, so every fixed-point part Im is exactly 0
    prec = Precision(bits)
    for t in ("1.01", "1.7", "12.5", "90"):
        with mp.workprec(bits + 32):
            im = mpf(t)
            points = [UpperHalfPoint(x, im) for x in (0, 0.5, -0.5, 2.5, -7)]
            points.append(UpperHalfPoint(0, 1 / im))
        for tau in points:
            reduced, _ = reduce_to_fundamental_domain(tau, prec)
            assert abs(reduced.re) in (0, 0.5), tau
            assert eval_j(tau, prec).imag == 0, (bits, tau)


def _former_cap(bits: int) -> int:
    """The cap on the powers of q before _kernel_tables raised it: |q|^T <=
    2^-bits e^-64 on the fundamental domain."""
    return math.ceil((bits * math.log(2) + 64.0) / (math.pi * math.sqrt(3)))


def _log_tail(terms: int, im: float) -> float:
    """log of a bound on the E6 tail dropped after `terms` terms, divided
    by |q|, at Im = im: sigma_5(n) <= zeta(5) n^5, so the tail of E6, the
    worst of the three series, is below 700 (T+1)^5 |q|^(T+1), and log|q| =
    -2 pi im."""
    return math.log(700.0) + 5 * math.log(terms + 1) - 2 * math.pi * im * terms


def _upward_series_order(im: float, prec: Precision) -> int:
    """The fewest T below the former cap whose E6 tail bound, _log_tail, is
    below 2^-(bits + 2 _GUARD) relative to |q| at Im = im, searched upward
    from 1, else that cap: the order rule that truncated the series before
    the first power of q that rounds to 0 did."""
    cap = _former_cap(prec.bits)
    limit = -(prec.bits + 2 * numerics._GUARD) * math.log(2)
    for terms in range(1, cap):
        if _log_tail(terms, im) < limit:
            return terms
    return cap


def _powers_before_zero(tau: UpperHalfPoint, t) -> int:
    """The number of powers of q at tau, each rounded to the nearest unit
    2^-W, before the first that rounds to 0, with no cap."""
    _, _, (qx, qy) = numerics._nome(tau, t)
    x, y, half = qx, qy, 1 << (t.w - 1)
    for kept in itertools.count(1):
        x, y = (x * qx - y * qy + half) >> t.w, (x * qy + y * qx + half) >> t.w
        if not (x or y):
            return kept


@pytest.mark.parametrize("bits", [53, 64, 96, 128, 160, 256, 512, 1024])
def test_powers_stop_within_the_tail_bound_order(bits):
    # _series keeps the powers of q before the first that rounds to 0, and
    # the order rule T = _upward_series_order kept the first T of them:
    # both keep the same powers when no more than T come before the zero.
    # Tried where T steps, at each height h(T) above which T passes (as the
    # table of that rule computed it) and its float64 neighbours, at the
    # bottom corner and at log-spaced heights, on Re tau' = 0, 1/2, 0.123
    prec = Precision(bits)
    t = numerics._kernel_tables(prec)
    limit = -(bits + 2 * numerics._GUARD) * math.log(2)
    terms = np.arange(1, _former_cap(bits), dtype=np.float64)
    steps = (math.log(700.0) - limit + 5 * np.log(terms + 1)) / (2 * math.pi * terms)
    corner = math.sqrt(3) / 2
    heights = [corner * (1000 / corner) ** (k / 199) for k in range(200)]
    for h in steps.tolist():
        heights += [math.nextafter(h, 0), h, math.nextafter(h, math.inf)]
    for im in heights:
        order = _upward_series_order(im, prec)
        for re in (0, 0.5, 0.123):
            assert _powers_before_zero(UpperHalfPoint(re, im), t) <= order, (re, im)


def _pentagonal(terms: int) -> list[int]:
    """Euler's prod (1 - q^n) to q^terms, by the pentagonal number theorem:
    1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2))."""
    coefficients = [1] + [0] * terms
    for k in range(1, terms + 1):
        for n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if n <= terms:
                coefficients[n] = (-1) ** k
    return coefficients


def _sigma_one_tau(terms: int) -> list[int]:
    """tau(n + 1), n = 1..terms, from log prod (1 - q^n)^24 =
    -24 sum sigma_1(k) q^k / k: n a(n) = -24 sum_(k=1..n) sigma_1(k)
    a(n - k), O(terms^2)."""
    s1, a = _sigma_one(terms), [1]
    for n in range(1, terms + 1):
        a.append(-24 * sum(s1[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a[1:]


def test_the_cap_reaches_the_first_zero_power_at_every_precision():
    # the rule of _kernel_tables by arithmetic alone, from 53 to 10^5 bits:
    # T is the least T from the former cap with |q|^(T-1) 2^W <= 114 at the
    # corner, W read off T, so the product of a kept q^(T-1), within 1
    # unit, and q, within 0.71 units, has both parts below 1/2 unit
    # (_series); the 2^-20 covers float64 and a corner rounded low
    bits = np.arange(53, 100_001)
    former = np.array([_former_cap(b) for b in bits.tolist()])
    top = int(former[-1]) + 16
    s3, s5 = numerics._sigma(3, top), numerics._sigma(5, top)
    tau = map(abs, numerics._delta_coefficients(top))
    sums = zip(itertools.accumulate(s3), itertools.accumulate(s5), itertools.accumulate(tau))
    weight_bits = np.array([0] + [
        (2**24 * a + 2**9 * b + 2 * c + 3 * (n + 1) ** 6).bit_length()
        for n, (a, b, c) in enumerate(sums, 1)
    ])
    log2_inv_q = math.pi * math.sqrt(3) / math.log(2)
    terms = former
    while True:
        w = bits + numerics._GUARD + weight_bits[terms]
        short = (w - (terms - 1) * log2_inv_q) * math.log(2) > math.log(114.0)
        if not short.any():
            break
        terms = terms + short
    log2_x = w - (terms - 1) * log2_inv_q  # |q|^(T-1) 2^W at the corner
    assert ((2.0 ** (log2_x + 2.0**-20) + 1) * (0.0043335 + 2.0**-80) < 0.5).all()
    assert (terms >= 19).all() and (terms - former <= 4).all()
    assert (terms[bits < 3134] == former[bits < 3134]).all()
    assert terms[bits == 3134] == former[bits == 3134] + 1
    # the kernel's T and W are the rule's, and at rho and 2^-20 above it
    # the first zero power comes within T
    for b in (53, 1024, 3134, 3165, 4096, 4106, 5390):
        prec = Precision(b)
        t = numerics._kernel_tables(prec)
        assert (t.terms, t.w) == (terms[b - 53], w[b - 53]), b
        for tau in _corner(b):
            reduced, _ = reduce_to_fundamental_domain(tau, prec)
            assert _powers_before_zero(reduced, t) < t.terms, (b, tau)


def _truncated_product(a: list[int], b: list[int]) -> list[int]:
    return [sum(map(operator.mul, a[: n + 1], reversed(b[: n + 1]))) for n in range(len(a))]


@pytest.mark.parametrize("bits", [64, 128, 1024, 5880])
def test_delta_coefficients_are_the_24th_power_of_the_pentagonal_series(bits):
    # prod (1 - q^n)^24 by five truncated products of Euler's series: the
    # table that D is read from, up to the cap T at bits
    t = numerics._kernel_tables(Precision(bits))
    p = _pentagonal(t.terms)
    p2 = _truncated_product(p, p)
    p4 = _truncated_product(p2, p2)
    p8 = _truncated_product(p4, p4)
    p16 = _truncated_product(p8, p8)
    assert t.delta == tuple(_truncated_product(p16, p8)[1:])


def test_delta_coefficients_are_ramanujans_tau():
    terms = numerics._kernel_tables(Precision(5880)).terms
    tau = (1,) + numerics._delta_coefficients(terms)
    assert tau[:6] == (1, -24, 252, -1472, 4830, -6048)
    # Ramanujan's congruence tau(n) = sigma_11(n) mod 691
    for n, value in enumerate(tau, 1):
        sigma_11 = sum(d**11 for d in range(1, n + 1) if n % d == 0)
        assert (value - sigma_11) % 691 == 0, n
    # every table up to T + 1 (763 at 5880 bits), each with its own list of
    # pentagonal numbers, against the sigma_1 recurrence
    want = tuple(_sigma_one_tau(terms + 1))
    for n_terms in range(1, terms + 2):
        assert numerics._delta_coefficients(n_terms) == want[:n_terms], n_terms


def test_quotient_rounds_as_mpf_div():
    # num 2^exp / den to nearest at wp bits, ties to even, bit for bit
    rng = random.Random(2702)
    cases = []
    for _ in range(20000):
        wp = rng.randrange(53, 1100)
        num = rng.getrandbits(rng.randrange(1, 2 * wp)) * rng.choice((1, -1))
        den = rng.getrandbits(rng.randrange(1, 2 * wp)) or 1
        cases.append((num, den, wp, rng.randrange(-2000, 2000)))
    for _ in range(2000):
        wp = rng.randrange(53, 300)
        den = rng.choice((1, 2, 2 ** rng.randrange(1, 80), rng.getrandbits(200) | 1))
        # a quotient of wp + 1 bits ending in 1: an exact half, odd or even
        # below; a run of ones that rounds up to a power of two; and one
        # unit either side of a half
        half = rng.getrandbits(wp) | (1 << wp) | 1
        for man in (half, (1 << (wp + 1)) - 1, 4 * half + 1, 4 * half - 1):
            cases.append((man * den, den, wp, rng.randrange(-200, 200)))
            cases.append((-man * den, den, wp, rng.randrange(-200, 200)))
    for num, den, wp, exp in cases:
        want = mpf_div(from_man_exp(num, exp), from_int(den), wp, round_nearest)
        assert numerics._quotient(num, den, wp, exp) == want, (num, den, wp, exp)
    assert numerics._quotient(0, 7, 64) == mpf_div(fzero, from_int(7), 64, round_nearest)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_table_entries_lie_within_half_a_unit_and_a_bit(bits):
    # each entry within 1/2 + 2^-7 units 2^-p of its value at p + 64 bits
    prec = Precision(bits)
    t = numerics._kernel_tables(prec)
    assert t.p == t.w + 24
    bound = 0.5 + 2.0**-7
    with mp.workprec(t.p + 64):
        scale = mpf(2) ** t.p
        for level, step in enumerate((8, 16, 24)):
            for i in range(256):
                x = mpf(i) / 2**step
                assert abs(t.exps[level][i] - mp.exp(-x) * scale) <= bound, (level, i)
                assert abs(t.cos[level][i] - mp.cospi(2 * x) * scale) <= bound, (level, i)
                assert abs(t.sin[level][i] - mp.sinpi(2 * x) * scale) <= bound, (level, i)


@pytest.mark.parametrize("bits", [53, 128, 256, 1024])
def test_nome_lies_within_its_bound(bits):
    # r within 2^-(W + 20) relative, u and q within 1/2 + 2^-20 units 2^-W
    # per part, from Im tau' at the corner up to the cap on the powers
    prec = Precision(bits)
    t = numerics._kernel_tables(prec)
    w = t.w
    rng = random.Random(2703 + bits)
    points = [UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 4.0)) for _ in range(150)]
    with mp.workprec(bits + 32):
        points += [UpperHalfPoint(mpf(rng.uniform(-0.5, 0.5)) * 2.0 ** -k, 2 ** rng.uniform(0, 20))
                   for k in (0, 30, 100, 200)]
    for tau in points:
        reduced, _ = reduce_to_fundamental_domain(tau, prec)
        (m, e), u, q = numerics._nome(reduced, t)
        with mp.workprec(2 * w + 64):
            r = mp.exp(-2 * mp.pi * reduced.im)
            want_u = mp.expjpi(2 * reduced.re) * mpf(2) ** w
            want_q = r * want_u
            assert abs(m * mpf(2) ** e / r - 1) <= mpf(2) ** -(w + 20), tau
            for got, want in ((u, want_u), (q, want_q)):
                assert abs(got[0] - want.real) <= 0.5 + 2.0**-20, tau
                assert abs(got[1] - want.imag) <= 0.5 + 2.0**-20, tau
    # Re tau' on the symmetry lines gives u = +-1 exactly, and a reduced
    # Im tau' of 2^28 or more gives no r and q = 0
    for re, u in ((0, (1 << w, 0)), (mpf(1) / 2, (-1 << w, 0))):
        assert numerics._nome(UpperHalfPoint(re, 3), t)[1] == u
    assert numerics._nome(UpperHalfPoint(0.25, 2**28), t) == (None, (0, 1 << w), (0, 0))


def test_raw_parts_read_as_float_reads_them():
    # the reduction's fast exit and tau_from_j's slope read float64 from
    # raw mantissas
    rng = random.Random(31)
    values = [mp.inf, -mp.inf, mpf(0), mpf(2) ** 1100, -(mpf(2) ** 1023) * 1.9]
    for bits in (53, 60, 160, 1100, 2000):
        with mp.workprec(bits):
            for _ in range(300):
                scale = mpf(2) ** rng.randrange(-1100, 1100)
                values += [v * scale for v in (mpf(rng.random()) / 3, -mp.sqrt(rng.random() + 1))]
    for v in values:
        assert numerics._float(v._mpf_) == float(v), v
    assert math.isnan(numerics._float(mp.nan._mpf_))


def test_precision_and_point_validation():
    with pytest.raises(ValueError):
        Precision(52)
    # the cap on the powers of q follows from the bits alone
    with pytest.raises(TypeError):
        Precision(128, series_terms=3)
    assert numerics._kernel_tables(Precision(53)).terms >= 19  # as the error bound needs
    assert numerics._kernel_tables(Precision(128)).terms >= numerics._kernel_tables(Precision(53)).terms
    with pytest.raises(ValueError):
        UpperHalfPoint(0, -1)
    with pytest.raises(ValueError):
        UpperHalfPoint(0, 0)
    z = UpperHalfPoint.from_complex(mpc(1, 2))
    assert (z.re, z.im) == (1, 2)


def test_precision_owns_the_working_precision_and_the_resolution():
    for bits in (53, 128, 1100):
        assert Precision(bits).wp == bits + 32
    prec = Precision(64)
    with mp.workprec(200):
        assert prec.resolution(0.5) == mpf(2) ** -64
        assert prec.resolution(-1728) == 1728 * mpf(2) ** -64
        assert prec.resolution(mpc(3, 4)) == 5 * mpf(2) ** -64
    # an mpf at the context precision, below the float64 range as well
    tiny = Precision(1100).resolution(1)
    assert isinstance(tiny, mpf) and tiny == mp.ldexp(1, -1100) > 0
    # bits stays the only field: caches keyed on a Precision still match
    assert Precision(128) == Precision(128) != Precision(129)
    assert hash(Precision(128)) == hash(Precision(128))
    assert {Precision(128): 1}[Precision(128)] == 1
    assert repr(Precision(128)) == "Precision(bits=128)"


def test_only_numerics_binds_the_guard_bits():
    names = [m.name for m in pkgutil.iter_modules(heckelab.__path__) if m.name != "__main__"]
    assert "numerics" in names and "cli" in names
    for name in names:
        module = importlib.import_module(f"heckelab.{name}")
        assert ("_GUARD" in vars(module)) == (name == "numerics"), name
    assert "_GUARD" not in vars(heckelab)


def test_upper_half_point_keeps_its_precision(exact_reduction):
    with mp.workprec(400):
        x, y = mpf(1) / 3, mp.sqrt(2)
        intended = UpperHalfPoint(x, y)
        shifted = UpperHalfPoint(x + 1, y)
    with mp.workprec(53):
        point = UpperHalfPoint(x, y)
        # other numbers are still read at the context precision
        assert UpperHalfPoint("0.1", 1).re == mpf("0.1")
    assert (point.re, point.im) == (x, y)
    assert point.re._mpf_[3] == point.im._mpf_[3] == 400
    prec = Precision(256)
    wp = prec.bits + numerics._GUARD
    assert eval_j(point, prec) == eval_j(intended, prec)
    # the reduction decides on the exact parts, all 400 bits of them, and
    # rounds the result once to the working precision, inside the domain
    # (the float64 exit) as outside it, so j is that of the point rounded
    # to wp bits
    for tau in (point, shifted):
        reduced, witness = reduce_to_fundamental_domain(tau, prec)
        expected, expected_witness = exact_reduction(tau, prec)
        assert (reduced.re, reduced.im) == (expected.re, expected.im)
        assert witness == expected_witness
        assert max(reduced.re._mpf_[3], reduced.im._mpf_[3]) <= wp
    with mp.workprec(wp):
        rounded = UpperHalfPoint(+x, +y)
    assert rounded != point
    assert eval_j(point, prec) == eval_j(rounded, prec)
    with mp.workprec(400):
        assert UpperHalfPoint("0.1", 1).re == mpf("0.1")


def test_eval_j_raises_when_no_power_within_the_cap_rounds_to_0(monkeypatch):
    # with a cap of 3 powers, none of which rounds to 0 at Im tau' = 1,
    # eval_j raises rather than drop the rest; at Im tau' = 30, q^2 rounds
    # to 0 first, so the cap changes nothing
    high = UpperHalfPoint(mpf(1) / 8, 30)
    want = eval_j(high, PREC)
    tables = numerics._kernel_tables
    monkeypatch.setattr(numerics, "_kernel_tables", lambda prec: tables(prec)._replace(terms=3))
    with pytest.raises(PrecisionOverflowError, match=r"no power of q up to q\^3 rounds to 0"):
        eval_j(UpperHalfPoint(mpf(1) / 4, 1), PREC)
    assert eval_j(high, PREC) == want


def test_matrix_algebra():
    m = ModularMatrix(2, 1, 1, 1)
    assert m.det() == 1
    assert (m.inverse() @ m).is_identity()
    tau = UpperHalfPoint(0.3, 0.8)
    back = m.inverse().apply(m.apply(tau, PREC), PREC)
    assert abs(back.to_mpc() - tau.to_mpc()) < mpf(2) ** -100
    with pytest.raises(ValueError):
        ModularMatrix(2, 0, 0, 2).inverse()
    with pytest.raises(ValueError):
        ModularMatrix(1, 0, 0, -1).apply(tau)


def test_powers_are_refused_above_the_im_cap(capsys):
    cap = numerics._MAX_POWER_IM
    for im in (cap + 1, 10**10, 10**20):
        tau = UpperHalfPoint(mpf(1) / 8, im)
        for fn in (eval_j, eval_delta, petersson_norm_delta):
            start = time.perf_counter()
            with pytest.raises(PrecisionOverflowError, match=r"Im tau = .* cap 2\^20"):
                fn(tau, PREC)
            assert time.perf_counter() - start < 1.0
        # the series and the log norm need no power and keep working
        assert abs(eval_e4(tau, PREC) - 1) < 2.0**-100
        assert abs(eval_e6(tau, PREC) - 1) < 2.0**-100
        with mp.workprec(160):
            want = 12 * mp.log(2 * mp.pi) - 2 * mp.pi * im + 6 * mp.log(im)
        assert abs(log_petersson_norm_delta(tau, PREC) - want) < 2.0**-60 * abs(want)
    assert abs(eval_j(UpperHalfPoint(mpf(1) / 8, 2**19), PREC)) > 0
    assert main(["orbit", "0.1+1e-30i", "2"]) == 2
    assert "cap 2^20" in capsys.readouterr().err


def test_delta_keeps_its_constant_per_precision_bit_for_bit():
    # _delta reads (2 pi)^12 from _kernel_tables, and eval_delta multiplies
    # by no cocycle when the witness is a translation; the former code formed
    # the constant on every call and always multiplied.  Same bits.
    from mpmath.libmp import mpf_mul, mpf_pi, mpf_pow_int, mpf_shift

    rng = random.Random(2061)
    corners = ((1, 6), (3, 9), (-20, 6), (2, 40))
    points = [UpperHalfPoint(mpf(x) / 7, mpf(y) / 5) for x, y in corners]
    points += [
        UpperHalfPoint(mpf(rng.uniform(-3, 3)), mpf(rng.uniform(0.05, 2))) for _ in range(12)
    ]
    translations = 0
    for bits in (64, 128, 256, 512, 1024):
        prec = Precision(bits)
        wp = bits + numerics._GUARD
        for tau in points:
            with mp.workprec(wp):
                reduced, witness, t, r, u, _, _, disc = numerics._series(tau, prec)
                w = t.w
                z = numerics._fmul(*u, *disc, w)
                x, y = numerics._to_mpc(z, w)
                two_pi_12 = mpf_pow_int(mpf_shift(mpf_pi(wp + 16), 1), 12, wp + 16)
                scale = mpf_mul(from_man_exp(*r), two_pi_12, wp + 10)
                former = mp.make_mpc(
                    (mpf_mul(x, scale, wp, round_nearest), mpf_mul(y, scale, wp, round_nearest))
                )
                want = former * numerics._cocycle(tau, witness, 12)
                norm = abs(former) * reduced.im**6
            translations += witness.c == 0
            assert eval_delta(tau, prec)._mpc_ == want._mpc_, (bits, tau)
            assert petersson_norm_delta(tau, prec)._mpf_ == norm._mpf_, (bits, tau)
    assert 0 < translations < 5 * len(points)
