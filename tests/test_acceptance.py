"""Acceptance gate: thirteen release criteria, one test each, tolerances
pinned.  pytest -v prints one pass/fail line per criterion.

Three criteria (2, 3, 7) assert windows that the underlying mathematics does
not satisfy; each such test implements the stated check faithfully, carries a
comment with the closed-form reason it cannot pass, and is expected to FAIL.
Nothing is weakened or skipped to hide that.
"""

import math
import random
import statistics
import time
from collections import Counter
from fractions import Fraction

from heckelab.arith import factorize, primes_up_to
from heckelab.cm import (
    condition_p_lemma_check,
    density_experiment,
    density_fraction,
    enumerate_cm_points,
    min_separation_constant,
)
from heckelab.hecke import HeckeOrbit, coset_reps, equi_fraction
from heckelab.heights import cusp_height, global_identity_residual
from heckelab.lattices import (
    GramForm,
    ball_count,
    counting_bound,
    dense_fiber_set,
    fiber_count,
)
from heckelab.numerics import Precision, UpperHalfPoint, tau_from_j
from heckelab.scan import (
    CurveQ,
    Ordinary,
    Supersingular,
    cm_field_hits,
    count_points,
    scan_pair,
    trace_power,
)
from heckelab.tate import cyclic_subgroups, no_collision_check, valuation_orbit

PREC128 = Precision(128)
PREC64 = Precision(64)


def _primes_in(lo, hi):
    return [p for p in primes_up_to(hi) if p >= lo]


def test_criterion_01_coset_subgroup_counts():
    start = time.monotonic()
    for n in range(1, 5001):
        expected = n
        for p, _ in factorize(n):
            expected = expected // p * (p + 1)
        assert len(coset_reps(n)) == expected, n
        assert len(cyclic_subgroups(n)) == expected, n
    assert time.monotonic() - start < 10.0


def test_criterion_02_height_window_and_trend():
    # Expected to fail: for prime N the orbit Delta-product collapses to
    # Delta(tau)^(N+1), so normalized = (N-1)/(N+1) - log||Delta||(tau_y) /
    # (6 log N) = (N-1)/(N+1) - 15.8519/(6 log N), which spans only
    # [0.408, 0.584] over primes 100..600; [0.8, 1.2] would need N > ~5e5.
    # The median-trend half of the criterion does hold.
    tau_y = tau_from_j(1, PREC128)
    series = {
        n: cusp_height(tau_y, n, PREC128).normalized
        for n in _primes_in(100, 600)
    }
    outside = {n: v for n, v in series.items() if not 0.8 <= v <= 1.2}
    assert not outside, f"normalized heights outside [0.8, 1.2]: {outside}"
    early = statistics.median(v for n, v in series.items() if 100 <= n <= 200)
    late = statistics.median(v for n, v in series.items() if 400 <= n <= 600)
    assert abs(late - 1) < abs(early - 1), (early, late)


def test_criterion_03_global_identity_residuals():
    # Expected to fail: log|phi| - S_N = -sum log ||Delta||(tau_i), so the
    # residual is exactly (normalized height) - 1 whatever z is; it
    # inherits criterion 2's range and sits in [-0.592, -0.509] over primes
    # 100..200, where |r| <= 0.25 cannot hold.  The residual is read off
    # the closed form of that sum and never forms phi.
    residuals = {}
    for n in _primes_in(100, 200):
        residuals[n] = global_identity_residual(1, 2, n, PREC128)
    too_big = {n: r for n, r in residuals.items() if abs(r) > 0.25}
    assert not too_big, f"|residual| > 0.25 at: {too_big}"


def test_criterion_04_tate_orbit_exactness():
    start = time.monotonic()
    assert valuation_orbit(Fraction(-1), 2) == Counter(
        {Fraction(-2): 1, Fraction(-1, 2): 2}
    )
    assert valuation_orbit(Fraction(-1), 4)[Fraction(-1)] == 1
    rng = random.Random(404)
    checked = 0
    while checked < 1000:
        v = Fraction(-rng.randrange(1, 30), rng.randrange(1, 30))
        x = Fraction(
            rng.choice([-1, 1]) * rng.randrange(1, 30), rng.randrange(1, 30)
        )
        modulus = abs(
            v.numerator * v.denominator * x.numerator * x.denominator
        )
        n = rng.randrange(2, 501)
        if math.isqrt(n) ** 2 == n or math.gcd(n, modulus) != 1:
            continue
        assert no_collision_check(v, x, n), (v, x, n)
        checked += 1
    assert time.monotonic() - start < 5.0


def test_criterion_05_equidistribution_statistic():
    tau = UpperHalfPoint(0, 2)
    target = 2 / math.pi
    for n in _primes_in(900, 1100):
        stat = equi_fraction(HeckeOrbit(tau, n, PREC64), 1.5)
        assert abs(stat.fraction - target) <= 0.05, (n, stat.fraction)


def test_criterion_06_representation_counting_bound():
    start = time.monotonic()
    rng = random.Random(606)
    for _ in range(500):
        a = rng.randrange(1, 101)
        b = Fraction(rng.randrange(-a, a + 1), 2 if rng.random() < 0.5 else 1)
        if 2 * abs(b) > a:
            b = Fraction(rng.randrange(-(a // 2), a // 2 + 1))
        c = rng.randrange(a, a + 400)
        form = GramForm.from_rows(((a, b), (b, c)))
        assert fiber_count(form, 10**4) <= counting_bound(10**4, form.disc)
    assert time.monotonic() - start < 60.0


def test_criterion_07_condition_p_index_lemma():
    start = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        assert condition_p_lemma_check(p, 2000), p
    assert time.monotonic() - start < 10.0
    # Expected to fail: the parity branch is false.  N = 3 satisfies the
    # condition at p = 2 (3 = 3 mod 4), yet alpha = sqrt(-3) has t = 0 and
    # t^2 - 4N = -12 = 2^2 * (-3): index f = 2.  Every N = 3 mod 4 breaks
    # the same way through its t = 0 order, so no bound on N rescues it.
    assert condition_p_lemma_check(2, 2000), "index lemma fails at p = 2"


def test_criterion_08_ball_density_scaling():
    start = time.monotonic()
    n = 100
    identity4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    chain = []
    for scale in (1, 4, 16):  # Z^4, 2Z^4, 4Z^4 in Gram form
        gram = GramForm.from_rows(
            tuple(tuple(scale * v for v in row) for row in identity4)
        )
        chain.append(ball_count(gram, n) / n**2)
    assert chain[0] > chain[1] > chain[2]

    i4 = GramForm.from_rows(identity4)
    stretched = GramForm.from_rows(
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2))
    )
    for form in (i4, stretched):
        for eps1 in (2, 8, 16, 24):
            for bound in (10, 30, 100):
                members = dense_fiber_set(form, eps1, bound)
                size = len(members)
                assert eps1 * size * (size + 1) // 2 <= ball_count(form, bound)
    assert time.monotonic() - start < 60.0


def test_criterion_09_cm_separation_constant():
    start = time.monotonic()
    values = {}
    for bits in (128, 256):
        points = enumerate_cm_points(40, Precision(bits))
        values[bits] = min_separation_constant(
            points, float("inf"), Precision(bits)
        )
    assert values[128] > 0
    assert abs(values[128] - values[256]) <= 1e-6 * values[128]
    # frozen on first verified run: the tightest pair is the two degree-1
    # points j = 0 and j = 1728, giving 1728 * 1 * 2
    assert abs(values[128] - 3456.0) <= 1e-6
    assert time.monotonic() - start < 60.0


def test_criterion_10_near_miss_density():
    points = density_experiment(UpperHalfPoint(0.3, 1.7), 0, 4, 500, PREC64)
    assert density_fraction(points, 4) < 0.02  # frozen: observed 0.0


def test_criterion_11_supersingular_pair_scan():
    start = time.monotonic()
    hits = scan_pair(CurveQ(-1, 0), CurveQ(0, -1), 5, 10**4)
    hit_primes = {h.p for h in hits}
    for p in _primes_in(5, 10**4):
        if p % 12 == 11:
            assert p in hit_primes, p
    by_prime = {h.p: h for h in hits}
    for p in sorted(hit_primes):
        h = by_prime[p]
        assert 1 <= h.k <= 12
        if p % 12 == 11:
            assert h.left.a_p == 0 and h.right.a_p == 0, p
    assert len(hits) == 307  # frozen count for the window
    assert time.monotonic() - start < 120.0


def _trace_partition(p, k_max):
    traces = sorted(
        {
            count_points(CurveQ(a, b), p).a_p
            for a in range(p)
            for b in range(p)
            if (4 * a**3 + 27 * b**2) % p != 0
        }
    )
    parent = {t: t for t in traces}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for i, t1 in enumerate(traces):
        for t2 in traces[i + 1 :]:
            if any(
                trace_power(t1, p, k) == trace_power(t2, p, k)
                for k in range(1, k_max + 1)
            ):
                parent[find(t1)] = find(t2)
    groups = {}
    for t in traces:
        groups.setdefault(find(t), set()).add(t)
    return {frozenset(g) for g in groups.values()}


def test_criterion_12_trace_power_partition_oracle():
    start = time.monotonic()
    for p in (5, 7, 11, 13):
        assert _trace_partition(p, 12) == _trace_partition(p, 24), p
    assert time.monotonic() - start < 60.0


def test_criterion_13_cm_field_scan_exhibit():
    curve = CurveQ(1, 1)
    supersingular = []
    ordinary_m4 = []
    for p in _primes_in(5, 10**4):
        if p == 31:  # bad reduction
            continue
        rec = count_points(curve, p)
        if isinstance(rec.classification, Supersingular):
            supersingular.append(p)
        elif (
            isinstance(rec.classification, Ordinary)
            and rec.classification.cm_fundamental_disc == -4
        ):
            ordinary_m4.append(p)
    assert supersingular, "no supersingular prime found"
    assert ordinary_m4, "no ordinary prime with CM discriminant -4"
    assert ordinary_m4 == cm_field_hits(curve, -4, 5, 10**4)
    # frozen counts from the first verified run
    assert len(supersingular) == 9
    assert len(ordinary_m4) == 13
    assert ordinary_m4[:5] == [13, 53, 61, 89, 149]
