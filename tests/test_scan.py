import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from heckelab import scan
from heckelab.arith import factorize, is_prime, primes_up_to, split_discriminant
from heckelab.cli import main
from heckelab.scan import (
    _INT32_BELOW,
    _INT64_BELOW,
    _half_sweep,
    _j0_trace,
    _j1728_trace,
    _prime_tables,
    BadReductionError,
    CurveQ,
    HasseBoundError,
    MismatchedPrimeError,
    Ordinary,
    Supersingular,
    TraceRecord,
    cm_field_hits,
    count_points,
    geom_isogenous,
    scan_pair,
    trace_power,
)


def _brute_count(a, b, p):
    sq = {x * x % p for x in range(p)}
    total = p  # x sweep plus the point at infinity counted below
    pts = 1
    for x in range(p):
        f = (x * x * x + a * x + b) % p
        if f == 0:
            pts += 1
        elif f in sq:
            pts += 2
    return p + 1 - pts


def test_count_points_against_brute_force(monkeypatch):
    # the oracle of the array pass must not reach its closed forms, its
    # twist lanes or Cornacchia: each of them raises here
    def broken(*args):
        raise AssertionError("the oracle reached the array pass")

    for name in ("_j1728_trace", "_j0_trace", "_traces", "_cornacchia"):
        monkeypatch.setattr(scan, name, broken)
    for cache in (scan._gaussian_prime, scan._eisenstein_prime):
        cache.cache_clear()
    with pytest.raises(AssertionError, match="reached the array pass"):
        scan._trace_table((CurveQ(-1, 0),), 5, 5)
    rng = random.Random(19)
    for _ in range(30):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        rec = count_points(CurveQ(a, b), p)
        assert rec.a_p == _brute_count(a, b, p)
        assert rec.a_p * rec.a_p <= 4 * p
    # every nonsingular curve at the smallest primes, j = 0, j = 1728 and
    # the twists of one j included
    for p in (5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p:
                    rec = count_points(CurveQ(a, b), p)
                    assert rec.a_p == _brute_count(a, b, p), (a, b, p)


def _reduce(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _passed(curves, p):
    """a_p of each curve at the one prime p by the array pass of a scan,
    the only path that reads the closed forms and the twist."""
    primes, a_p = scan._trace_table(tuple(curves), p, p)
    assert primes.tolist() == [p]
    return a_p[:, 0].tolist()


def test_half_sweep_matches_brute_force_on_both_sides_of_int32():
    rng = random.Random(2029)
    below = [p for p in primes_up_to(_INT32_BELOW) if p >= 17]
    above = [p for p in primes_up_to(100_000) if p > _INT32_BELOW]
    # spread over the range, plus the primes next to the dtype switch
    primes = sorted(
        set(rng.sample(below, 16) + rng.sample(above, 10) + below[-2:] + above[:2])
    )
    assert min(primes) < _INT32_BELOW < max(primes) and len(primes) >= 28
    # the sweep's largest value, (p - 1)^2, fits in int32 below the switch
    assert (_INT32_BELOW - 2) ** 2 < 2**31 <= _INT32_BELOW**2
    assert _prime_tables(below[-1]).x.dtype == np.int32
    assert _prime_tables(above[0]).x.dtype == np.int64
    for p in primes:
        while True:
            a4 = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 1000))
            a6 = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 1000))
            if a4.denominator % p == 0 or a6.denominator % p == 0:
                continue
            a, b = _reduce(a4, p), _reduce(a6, p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        assert count_points(CurveQ(a4, a6), p).a_p == _brute_count(a, b, p), (a4, a6, p)
    # the largest unreduced x (x^2 mod p + a), at a = p - 1, just below the switch
    p = below[-1]
    assert count_points(CurveQ(-1, 1), p).a_p == _brute_count(p - 1, 1, p)


def test_half_sweep_counts_the_roots_of_the_cubic():
    # chi(0) enters through x = 0 when b = 0 and through b + g(x) = 0 or
    # b - g(x) = 0 at a root x != 0; these cubics split over Q
    split = [(-1, 0), (-4, 0), (-7, 6), (-43, 42)]
    for p in primes_up_to(400):
        if p < 5:
            continue
        curves = split + [(3, p), (Fraction(2, 3), 5 * p)]  # b = 0 mod p only
        for a4, a6 in curves:
            try:
                rec = count_points(CurveQ(a4, a6), p)
            except BadReductionError:
                continue
            a, b = _reduce(a4, p), _reduce(a6, p)
            roots = sum((x**3 + a * x + b) % p == 0 for x in range(p))
            assert roots == 3 or b == 0
            # count_points is the half-sweep, which must count these cubics
            assert rec.a_p == _brute_count(a, b, p) == _half_sweep(a, b, p), (a4, a6, p)


def test_classification_fields():
    rec = count_points(CurveQ(-1, 0), 5)  # y^2 = x^3 - x
    assert rec.a_p == -2
    assert rec.classification == Ordinary(cm_fundamental_disc=-4, conductor=2)
    ss = count_points(CurveQ(1, 1), 17)
    assert ss.a_p == 0
    assert ss.classification == Supersingular()


def test_a_record_classifies_itself_on_first_read():
    # nothing is factored until classification is read, and once read it is
    # kept; records still compare and hash by (p, a_p)
    rec = TraceRecord(101, 12)
    assert "classification" not in vars(rec)
    conductor, d_k = split_discriminant(12 * 12 - 4 * 101)
    assert rec.classification == Ordinary(d_k, conductor)
    assert rec.classification is rec.classification
    fresh = TraceRecord(101, 12)
    assert rec == fresh and hash(rec) == hash(fresh) and repr(rec) == repr(fresh)


def test_trace_record_validation():
    with pytest.raises(HasseBoundError):
        TraceRecord(5, 5)
    with pytest.raises(HasseBoundError):
        TraceRecord(7, -6)
    # a record derives its classification from a_p alone, at every a_p of
    # the Hasse interval, p = 2 and 3 included
    for p in primes_up_to(61):
        r = math.isqrt(4 * p)
        for a in range(-r, r + 1):
            rec = TraceRecord(p, a)
            if a == 0:
                assert rec.classification == Supersingular(), p
            else:
                conductor, d_k = split_discriminant(a * a - 4 * p)
                assert rec.classification == Ordinary(d_k, conductor), (p, a)
    # records compare equal exactly when (p, a_p) do
    records = [TraceRecord(p, a) for p in (2, 3, 5, 7) for a in (-2, 0, 1, 2)]
    for left in records:
        for right in records:
            assert (left == right) == ((left.p, left.a_p) == (right.p, right.a_p))


def test_curve_validation_and_reduction():
    with pytest.raises(ValueError):
        CurveQ(0, 0)
    with pytest.raises(ValueError):
        CurveQ(-3, 2)  # 4(-27) + 27(4) = 0
    with pytest.raises(ValueError):
        count_points(CurveQ(1, 1), 4)
    with pytest.raises(ValueError):
        count_points(CurveQ(1, 1), 3)
    with pytest.raises(BadReductionError):
        count_points(CurveQ(Fraction(1, 5), 1), 5)
    with pytest.raises(BadReductionError):
        count_points(CurveQ(1, 1), 31)  # disc -496 = -16 * 31
    # any integer type is a prime, NumPy's too (a scan's primes are int64);
    # a float is not
    rec = count_points(CurveQ(1, 1), np.int64(7))
    assert rec == count_points(CurveQ(1, 1), 7) and type(rec.p) is int
    with pytest.raises(TypeError):
        count_points(CurveQ(1, 1), 5.0)
    # composite p >= 5 on the closed-form curves, too
    for curve, p in ((CurveQ(-1, 0), 25), (CurveQ(0, 1), 49), (CurveQ(1, 1), 91)):
        with pytest.raises(ValueError, match="need a prime p >= 5"):
            count_points(curve, p)


def test_trace_power_recurrence():
    assert trace_power(-2, 5, 1) == -2
    assert trace_power(-2, 5, 2) == (-2) ** 2 - 2 * 5  # t^2 - 2p
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([5, 7, 11, 13, 17])
        a = rng.randrange(-math.isqrt(4 * p), math.isqrt(4 * p) + 1)
        for k in (1, 2, 3):
            for m in (1, 2):
                # a_{p^(km)} factors through a_{p^k} with base p^k
                assert trace_power(a, p, k * m) == trace_power(
                    trace_power(a, p, k), p**k, m
                )
    with pytest.raises(HasseBoundError):
        trace_power(5, 5, 2)
    with pytest.raises(ValueError):
        trace_power(1, 5, 0)


def test_trace_power_names_a_bad_p():
    # checked before the Hasse bound, which would blame a_p; at p = 0 the
    # recurrence would return a value
    assert trace_power(1, 1, 3) == -2
    for a_p, p in ((1, -5), (0, 0), (2, -1)):
        with pytest.raises(ValueError, match=rf"^p must be positive, got {p}$") as info:
            trace_power(a_p, p, 2)
        assert not isinstance(info.value, HasseBoundError)



def test_geom_isogenous_small():
    r5a = count_points(CurveQ(-1, 0), 5)
    r5b = count_points(CurveQ(0, -1), 5)
    assert geom_isogenous(r5a, r5a) == 1
    with pytest.raises(MismatchedPrimeError):
        geom_isogenous(r5a, count_points(CurveQ(-1, 0), 7))
    # frozen: a = 1 vs a = 2 at p = 7 never match through k = 12
    assert geom_isogenous(TraceRecord(7, 1), TraceRecord(7, 2)) is None
    assert r5b.a_p == 0
    assert geom_isogenous(r5a, r5b) is None
    # below p = 5 a_p = 0 does not mark supersingularity
    assert geom_isogenous(TraceRecord(2, 2), TraceRecord(2, 0)) == 8


def test_geom_isogenous_equals_the_per_k_trace_power_definition():
    def per_k(left, right):
        for k in range(1, 13):
            if trace_power(left.a_p, left.p, k) == trace_power(right.a_p, right.p, k):
                return k
        return None

    for p in primes_up_to(61):
        r = math.isqrt(4 * p)
        records = [TraceRecord(p, a) for a in range(-r, r + 1)]
        for left in records:
            for right in records:
                assert geom_isogenous(left, right) == per_k(left, right), (p, left, right)


def test_geom_isogenous_equals_the_recurrence_at_larger_primes():
    # from p = 5 on, the scalar rule decides k = 1 and 2 and the pairs of
    # different CM fields without the recurrence; every pair of traces in
    # the Hasse interval gives the recurrence's k
    for p in (5, 7, 67, 101, 389, 1009):
        r = math.isqrt(4 * p)
        records = [TraceRecord(p, a) for a in range(-r, r + 1)]
        for left in records:
            for right in records:
                want = scan._first_match(left.a_p, right.a_p, p)
                assert geom_isogenous(left, right) == want, (p, left.a_p, right.a_p)


def _legendre(u, p):
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def test_twist_identity_against_brute_force():
    # y^2 = x^3 + u^2 a x + u^3 b has a_p = (u/p) a_p(y^2 = x^3 + a x + b);
    # the array pass reads each twist off the lane of its j
    for p in (5, 7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                a_p = _brute_count(a, b, p)
                twists = [CurveQ(u * u * a, u**3 * b) for u in range(1, p)]
                for u, got in zip(range(1, p), _passed(twists, p)):
                    assert got == _legendre(u, p) * a_p, (a, b, u, p)
                    assert got == _brute_count(u * u * a % p, u**3 * b % p, p)


def test_same_j_pairs_match_the_sweep_on_both_sides_of_int32():
    rng = random.Random(2033)
    below = [p for p in primes_up_to(_INT32_BELOW) if p >= 17]
    above = [p for p in primes_up_to(100_000) if p > _INT32_BELOW]
    primes = sorted(
        set(rng.sample(below, 16) + rng.sample(above, 10) + below[-2:] + above[:2])
    )
    assert min(primes) < _INT32_BELOW < max(primes) and len(primes) >= 28
    symbols = set()
    for p in primes:
        while True:
            a4, a6, u = (
                Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 1000))
                for _ in range(3)
            )
            if any(x.denominator % p == 0 or x.numerator % p == 0 for x in (a4, a6, u)):
                continue
            if (4 * _reduce(a4, p) ** 3 + 27 * _reduce(a6, p) ** 2) % p:
                break
        symbols.add(_legendre(_reduce(u, p), p))
        for c4, c6 in ((a4, a6), (u * u * a4, u**3 * a6)):
            a, b = _reduce(c4, p), _reduce(c6, p)
            assert _passed([CurveQ(c4, c6)], p) == [_half_sweep(a, b, p)], (c4, c6, p)
    assert symbols == {1, -1}


def test_quadratic_twist_matches_at_k_two():
    base, twist = CurveQ(0, -2), CurveQ(0, 2)
    expected = {5: 1, 7: 2, 11: 1, 13: 1, 19: 2, 23: 1}
    for p, k in expected.items():
        got = geom_isogenous(count_points(base, p), count_points(twist, p))
        assert got == k, p


def test_scan_pair_frozen_window():
    hits = scan_pair(CurveQ(-1, 0), CurveQ(0, -1), 5, 100)
    assert [(h.p, h.k) for h in hits] == [
        (11, 1), (23, 1), (47, 1), (59, 1), (71, 1), (83, 1)
    ]
    for h in hits:
        assert h.p % 12 == 11  # both sides supersingular exactly there
        assert h.left.a_p == h.right.a_p == 0
    with pytest.raises(ValueError):
        scan_pair(CurveQ(-1, 0), CurveQ(0, -1), 3, 100)


def test_cm_field_hits_frozen_window():
    assert cm_field_hits(CurveQ(1, 1), -4, 5, 200) == [13, 53, 61, 89, 149]
    for p in cm_field_hits(CurveQ(1, 1), -4, 5, 200):
        rec = count_points(CurveQ(1, 1), p)
        assert isinstance(rec.classification, Ordinary)
        assert rec.classification.cm_fundamental_disc == -4
    # y^2 = x^3 + x is supersingular at 7 and 11, where a_p^2 - 4p = -4p is
    # 2^2 times -7 and -11; only its ordinary records have a CM field
    for d_k in (-7, -11):
        assert cm_field_hits(CurveQ(1, 0), d_k, 5, 100) == []
    with pytest.raises(ValueError):
        cm_field_hits(CurveQ(1, 1), -12, 5, 100)  # not fundamental
    with pytest.raises(ValueError):
        cm_field_hits(CurveQ(1, 1), -4, 2, 100)


def test_supersingular_primes_frozen_window():
    e = CurveQ(1, 1)
    ss = [
        p
        for p in primes_up_to(200)
        if p >= 5 and p != 31
        and isinstance(count_points(e, p).classification, Supersingular)
    ]
    assert ss == [17, 179]


def _scan_summary(capsys, left: str, right: str, p_max: int) -> dict:
    """The trailer of `heckelab scan left right 5 p_max` in JSON lines."""
    assert main(["scan", left, right, "5", str(p_max), "--format", "jsonl"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])["_summary"]


def test_coincidence_statistic(capsys):
    stat = _scan_summary(capsys, "-1,0", "0,-1", 200)
    assert stat["coincidences"] == 11
    assert stat["heuristic"] == pytest.approx(8.457164232373442, rel=1e-12)
    # a curve against itself matches at every good prime
    self_stat = _scan_summary(capsys, "-1,0", "-1,0", 100)
    assert self_stat["coincidences"] == len([p for p in primes_up_to(100) if p >= 5])
    # the count is read off the k = 1 hits of the scan; it must equal the
    # count of good primes where a_p agrees, for twist, sextic-twist,
    # rational and generic pairs, some with bad primes
    pairs = [
        ("3,-7", "27,-189"),
        ("0,1", "0,-2"),
        ("1/3,-5/7", "2/9,7/4"),
        ("1,1", "-1,1"),
    ]
    for left, right in pairs:
        curves = [CurveQ(*(Fraction(c) for c in text.split(","))) for text in (left, right)]
        agree = 0
        for p in primes_up_to(800)[2:]:
            try:
                agree += count_points(curves[0], p).a_p == count_points(curves[1], p).a_p
            except BadReductionError:
                continue
        assert _scan_summary(capsys, left, right, 800)["coincidences"] == agree, (left, right)


def _loop_statistic(matches, p_max):
    """The coincidence statistic with its sums of 1/sqrt(p) taken one prime
    at a time, in a Python loop."""
    half = p_max // 2
    s_full = s_half = 0.0
    for p in primes_up_to(p_max)[2:]:
        s_full += 1 / math.sqrt(p)
        if p <= half:
            s_half += 1 / math.sqrt(p)
    obs_half = sum(p <= half for p in matches)
    scale = obs_half / s_half if obs_half and s_half else 1.0
    return len(matches), scale * s_full


def test_coincidence_prefix_sums_equal_the_loop_bit_for_bit():
    # the trailer's heuristic is printed with every digit, so the prefix
    # sums must round as the loop does, at every p_max, on both sides of
    # each prime and of each half
    p_maxes = list(range(4, 400)) + list(range(9000, 9401, 7)) + [10**5, 10**6]
    for p_max in p_maxes:
        matches = primes_up_to(p_max)[2::3]
        stat = scan._coincidences(matches, p_max)
        assert type(stat.heuristic) is float
        assert tuple(stat) == _loop_statistic(matches, p_max), p_max


def test_a_scan_counts_each_record_once(capsys, monkeypatch):
    # the rows and the coincidence trailer come from one array pass over the
    # primes of [5, 500]: each curve's a4 and a6 are reduced once, mod all of
    # them at once, and each distinct lane (t, p) is counted once
    reduced, counted = [], []
    reduce, traces = scan._reduce, scan._traces

    def reducing(curve, p):
        reduced.append((curve, p.tolist()))
        return reduce(curve, p)

    def counting(t, p):
        counted.append(list(zip(t.tolist(), p.tolist())))
        return traces(t, p)

    monkeypatch.setattr(scan, "_reduce", reducing)
    monkeypatch.setattr(scan, "_traces", counting)
    primes = [p for p in primes_up_to(500) if p >= 5]
    assert main(["scan", "-1,0", "0,-1", "5", "500"]) == 0
    capsys.readouterr()
    assert reduced == [(CurveQ(-1, 0), primes), (CurveQ(0, -1), primes)]
    assert counted == [[]]  # j = 1728 and j = 0: every a_p in closed form
    # a generic pair, from p = 5 whatever p_min: y^2 = x^3 + x + 1 is bad at
    # 31, y^2 = x^3 - x + 1 at 23, and each prime where both are good gives
    # the lanes t = 1 and t = -1
    reduced.clear()
    counted.clear()
    assert main(["scan", "1,1", "-1,1", "100", "500"]) == 0
    capsys.readouterr()
    assert reduced == [(CurveQ(1, 1), primes), (CurveQ(-1, 1), primes)]
    good = [p for p in primes if p not in (23, 31)]
    assert counted == [[(t % p, p) for p in good for t in (1, -1)]]
    # a twist pair shares them: one lane per prime, where ab != 0
    reduced.clear()
    counted.clear()
    assert main(["scan", "7,10", "63,-270", "5", "500"]) == 0
    capsys.readouterr()
    assert len(reduced) == 2
    assert counted == [[(343 * pow(100, -1, p) % p, p) for p in primes if p > 7]]


def test_a_scan_is_the_per_prime_count_points_loop():
    # the array pass reads each curve's coefficients once and takes its
    # primes from the sieve; count_points checks each p and reduces one at a
    # time.  Both give the same a_p at every prime of [5, 2000], and
    # scan_pair the same hits and records
    pairs = [
        # denominators 3 and 7 on the left, 5, 11 and 13 on the right
        (CurveQ(Fraction(1, 3), Fraction(-5, 7)), CurveQ(Fraction(2, 5), Fraction(7, 143))),
        # a quadratic twist pair with the denominators 5 and 25
        (CurveQ(Fraction(-7, 5), Fraction(3, 25)), CurveQ(Fraction(-28, 5), Fraction(24, 25))),
        # j = 0: y^2 = x^3 + d, a rational d included
        (CurveQ(0, 1), CurveQ(0, Fraction(-2, 17))),
        (CurveQ(0, 7), CurveQ(0, -189)),
        # j = 1728: y^2 = x^3 - d x
        (CurveQ(-1, 0), CurveQ(Fraction(3, 19), 0)),
        (CurveQ(-6, 0), CurveQ(-54, 0)),
        # numerators above 2^63, of both signs, whose residues need more than
        # one 31-bit digit
        (CurveQ(2**64 + 7, -(3**41)), CurveQ(Fraction(-(5**30), 11), 2**70 + 1)),
        # denominators that scanned primes divide: 1013 and 1999, and 1009
        # in a denominator above 2^63
        (CurveQ(Fraction(5, 1013 * 1999), 3), CurveQ(-2, Fraction(7, 1009 * 2**64))),
    ]
    primes = [p for p in primes_up_to(2000) if p >= 5]
    for left, right in pairs:
        rows, hits = [], []
        for p in primes:
            try:
                lrec, rrec = count_points(left, p), count_points(right, p)
            except BadReductionError:
                continue
            rows.append((p, lrec.a_p, rrec.a_p))
            k = geom_isogenous(lrec, rrec)
            if k is not None:
                hits.append(scan.ScanHit(p, k, lrec, rrec))
        p, a_p = scan._trace_table((left, right), 5, 2000)
        assert list(zip(p.tolist(), *a_p.tolist())) == rows, (left, right)
        assert scan_pair(left, right, 5, 2000) == hits, (left, right)
        assert scan_pair(left, right, 101, 1999) == [h for h in hits if h.p >= 101]
        assert hits and len(rows) >= 290, (left, right)

    def good(pair):
        return set(scan._trace_table(pair, 5, 2000)[0].tolist())

    # the primes where a denominator vanishes are skipped
    assert good(pairs[0]) & {5, 7, 11, 13, 17} == {17}
    assert 19 not in good(pairs[4])
    assert good(pairs[7]) & {1009, 1013, 1999} == set()


def test_the_array_hit_rule_is_geom_isogenous():
    # every pair of traces in the Hasse interval at each prime 5 <= p <= 37,
    # as records of curves: k = 1 and 2 on the arrays, the recurrence for
    # the other pairs of one CM field, 0 for None
    recurrence = set()
    for p in primes_up_to(37)[2:]:
        r = math.isqrt(4 * p)
        pairs = [(a_l, a_r) for a_l in range(-r, r + 1) for a_r in range(-r, r + 1)]
        a_l, a_r = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        k = scan._hit_rule(np.full(a_l.size, p, dtype=np.int64), a_l, a_r)
        want = [
            geom_isogenous(TraceRecord(p, left), TraceRecord(p, right)) or 0
            for left, right in pairs
        ]
        assert k.tolist() == want, p
        recurrence |= {n for n in want if n > 2}
    assert recurrence == {3, 4, 6}


def test_a_scan_past_the_hasse_bound_raises_and_writes_no_row(capsys, monkeypatch, tmp_path):
    # a lane's a_p of p cannot come from a curve: the pass raises before any
    # hit is formed, and the command writes nothing
    monkeypatch.setattr(scan, "_traces", lambda t, p: p.copy())
    with pytest.raises(HasseBoundError, match=r"^\|5\| > 2 sqrt\(5\)$"):
        scan._hit_table(CurveQ(1, 1), CurveQ(-1, 1), 5, 500)
    out = tmp_path / "scan.csv"
    assert main(["scan", "1,1", "-1,1", "5", "500"]) == 2
    assert capsys.readouterr() == ("", "error: |5| > 2 sqrt(5)\n")
    assert main(["scan", "1,1", "-1,1", "5", "500", "--out", str(out)]) == 2
    assert not out.exists()


def test_a_scan_past_two_to_thirty_one_raises_before_the_sieve(capsys, monkeypatch):
    # the sieve to 2^31 would need 2 GiB of marks: p_max is refused first
    def refuse(n):
        raise AssertionError(f"sieve to {n}")

    monkeypatch.setattr(scan, "primes_up_to", refuse)
    message = "a scan needs the primes below 2^31, got p_max = 2147483648"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scan._hit_table(CurveQ(1, 1), CurveQ(-1, 1), 5, 2**31)
    assert main(["scan", "1,1", "-1,1", "5", "2147483648"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_scan_of_a_cm_pair_reads_every_a_p_with_its_sign():
    # y^2 = x^3 - a x against y^2 = x^3 + b, as the benchmark draws them:
    # its hits are the supersingular primes, so only the a_p of the scan
    # itself show a sign error of a closed form.  Each must be the
    # half-sweep of its own curve, at every good prime below 2000
    rng = random.Random(2059)
    pairs = [(1, 1), (1, -1)] + [
        (rng.randrange(1, 60), rng.choice([-1, 1]) * rng.randrange(1, 60)) for _ in range(6)
    ]
    for a, b in pairs:
        p, (a_l, a_r) = scan._trace_table((CurveQ(-a, 0), CurveQ(0, b)), 5, 1999)
        assert p.size >= 290
        for q, left, right in zip(p.tolist(), a_l.tolist(), a_r.tolist()):
            assert left == _half_sweep(-a % q, 0, q), (a, q)
            assert right == _half_sweep(0, b % q, q), (b, q)
        assert np.count_nonzero(a_l) >= 140 and np.count_nonzero(a_r) >= 140


def _watch_lanes(monkeypatch):
    """The lanes (t, p) of each _bsgs_traces call, one list per block, the
    lanes it declines, and the (t, p) of each _half_sweep(t, t, p)."""
    blocks, declined, sweeps = [], [], []
    kernel = scan._bsgs_traces

    def recording(t, p):
        a_p, accepted = kernel(t, p)
        blocks.append(list(zip(t.tolist(), p.tolist())))
        declined.extend(lane for lane, ok in zip(blocks[-1], accepted.tolist()) if not ok)
        return a_p, accepted

    def counting(a, b, p):
        sweeps.append((a, p))
        return _half_sweep(a, b, p)

    monkeypatch.setattr(scan, "_bsgs_traces", recording)
    monkeypatch.setattr(scan, "_half_sweep", counting)
    return blocks, declined, sweeps


def test_prime_tables_are_built_once_per_prime_of_a_scan(capsys, monkeypatch):
    # a4 a6 is a unit at every prime, so no record takes the closed form:
    # each prime where both curves are good gives the kernel one lane of
    # y^2 = x^3 + x + 1 (t = 1) and one of y^2 = x^3 - x + 1 (t = -1), in one
    # block.  The tables are built only at the primes of the lanes the kernel
    # declines, once each, and the coincidence trailer counts nothing.
    blocks, declined, sweeps = _watch_lanes(monkeypatch)
    _prime_tables.cache_clear()
    assert main(["scan", "1,1", "-1,1", "5", "500"]) == 0
    capsys.readouterr()
    # 31 | disc(left), 23 | disc(right)
    both_good = [p for p in primes_up_to(500) if p >= 5 and p not in (23, 31)]
    assert blocks == [[(t % p, p) for p in both_good for t in (1, -1)]]
    assert sweeps == declined
    assert 0 < len(declined) < len(blocks[0]) / 2  # half of them at p < 100
    swept = {p for _, p in declined}
    info = _prime_tables.cache_info()
    assert (info.misses, info.hits) == (len(swept), len(declined) - len(swept))


def test_a_twist_pair_gives_one_lane_per_prime_of_a_scan(capsys, monkeypatch):
    # y^2 = x^3 + 7 x + 10 and its twist by d = -3; 4 * 7^3 + 27 * 10^2 =
    # 8 * 509, so every prime of [5, 500] is good on both sides, and only at
    # p = 5 (b = 0) and p = 7 (a = 0) is a record read in closed form
    blocks, declined, sweeps = _watch_lanes(monkeypatch)
    _prime_tables.cache_clear()
    assert main(["scan", "7,10", "63,-270", "5", "500"]) == 0
    capsys.readouterr()
    # both curves are twists of y^2 = x^3 + t x + t, t = 7^3/10^2, at every
    # p > 7: the kernel counts it once per prime, in one block, and the
    # half-sweep runs only on the lanes it declines
    generic = [p for p in primes_up_to(500) if p > 7]
    assert blocks == [[(343 * pow(100, -1, p) % p, p) for p in generic]]
    assert sweeps == declined
    assert 0 < len(declined) < len(generic) / 2
    info = _prime_tables.cache_info()
    assert (info.misses, info.hits) == (len(declined), 0)


def test_closed_forms_match_the_sweep_for_every_d():
    # y^2 = x^3 - d x (j = 1728) and y^2 = x^3 + d (j = 0) for every d != 0
    # mod p; a_p = 0 exactly at the inert primes, and elsewhere 4p - a_p^2
    # is 4, resp. 3, times a square: the CM field is Q(i), resp. Q(sqrt -3)
    for p in primes_up_to(600):
        if p < 5:
            continue
        for d in range(1, p):
            for a_p, a, b, d_k in (
                (_j1728_trace(d, p), p - d, 0, -4),
                (_j0_trace(d, p), 0, d, -3),
            ):
                assert a_p == _half_sweep(a, b, p), (a, b, p)
                inert = p % 4 == 3 if b == 0 else p % 3 == 2
                assert (a_p == 0) == inert, (a, b, p)
                if not inert:
                    f2, rest = divmod(4 * p - a_p * a_p, -d_k)
                    assert rest == 0 and math.isqrt(f2) ** 2 == f2, (a, b, p)


def test_a_wrong_cornacchia_pair_raises(capsys, monkeypatch):
    # x^2 + d y^2 = p is checked once per prime, before pi is cached: a
    # wrong pair raises from the array pass, from a scan and from the
    # command; count_points, the oracle, never reaches Cornacchia
    cornacchia = scan._cornacchia

    def off_by_one(d, p, root):
        x, y = cornacchia(d, p, root)
        return x + 1, y

    monkeypatch.setattr(scan, "_cornacchia", off_by_one)
    for cache in (scan._gaussian_prime, scan._eisenstein_prime):
        cache.cache_clear()
    with pytest.raises(ArithmeticError, match=r"^Cornacchia gave 3\^2 \+ 1\^2 != 5$"):
        _passed([CurveQ(-1, 0)], 5)
    with pytest.raises(ArithmeticError, match=r"^Cornacchia gave 3\^2 \+ 3 1\^2 != 7$"):
        _passed([CurveQ(0, 1)], 7)
    assert count_points(CurveQ(-1, 0), 5).a_p == -2
    with pytest.raises(ArithmeticError, match="Cornacchia gave"):
        scan_pair(CurveQ(-1, 0), CurveQ(1, 1), 5, 100)
    with pytest.raises(ArithmeticError, match="Cornacchia gave"):
        scan._hit_table(CurveQ(1, 1), CurveQ(0, 1), 5, 100)
    assert main(["scan", "-1,0", "0,1", "5", "100"]) == 2
    assert capsys.readouterr().err == "error: Cornacchia gave 3^2 + 1^2 != 5\n"
    # the supersingular primes need no pi: a_p = 0 there
    assert _passed([CurveQ(-1, 0)], 7) == _passed([CurveQ(0, 1)], 5) == [0]


def test_closed_forms_match_the_sweep_on_both_sides_of_int32():
    rng = random.Random(2031)
    below = [p for p in primes_up_to(_INT32_BELOW) if p >= 17]
    above = [p for p in primes_up_to(100_000) if p > _INT32_BELOW]
    primes = sorted(
        set(rng.sample(below, 16) + rng.sample(above, 10) + below[-2:] + above[:2])
    )
    assert min(primes) < _INT32_BELOW < max(primes) and len(primes) >= 28
    # both shapes split (ordinary) and inert (supersingular) somewhere
    assert {p % 12 for p in primes} >= {1, 5, 7, 11}
    for p in primes:
        for _ in range(2):
            while True:
                d = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 1000))
                if d.denominator % p and d.numerator % p:
                    break
            k = _reduce(d, p)
            got = _passed([CurveQ(-d, 0), CurveQ(0, d)], p)
            assert got == [_half_sweep(p - k, 0, p), _half_sweep(0, k, p)], (d, p)


def test_closed_form_serves_primes_dividing_one_coefficient():
    # 6 = 2 * 3 and 35 = 5 * 7: b = 0 at 5 and 7.  385 = 5 * 7 * 11 and
    # 4199 = 13 * 17 * 19: a = 0 at 5, 7, 11 and b = 0 at 13, 17, 19
    cases = [(6, 35, [5, 7]), (385, 4199, [5, 7, 11, 13, 17, 19]),
             (Fraction(385, 23), Fraction(-4199, 29), [5, 7, 11, 13, 17, 19])]
    for a4, a6, primes in cases:
        curve = CurveQ(a4, a6)
        for p in primes:
            a, b = _reduce(a4, p), _reduce(a6, p)
            assert (a == 0) != (b == 0), (a4, a6, p)
            rec = TraceRecord(p, *_passed([curve], p))
            assert rec.a_p == _brute_count(a, b, p), (a4, a6, p)
            if rec.a_p:
                assert rec.classification.cm_fundamental_disc == (-4 if b == 0 else -3)


def test_closed_form_curves_keep_their_bad_primes():
    # p | d makes y^2 = x^3 - d x and y^2 = x^3 + d singular mod p
    for p in (5, 7, 11, 13):
        for curve in (CurveQ(-p, 0), CurveQ(3 * p, 0), CurveQ(0, p), CurveQ(0, -2 * p)):
            with pytest.raises(BadReductionError, match=f"discriminant vanishes mod {p}"):
                count_points(curve, p)
        for curve in (CurveQ(Fraction(1, p), 0), CurveQ(0, Fraction(2, p))):
            with pytest.raises(BadReductionError, match=f"vanishes mod {p}"):
                count_points(curve, p)
    assert cm_field_hits(CurveQ(-5, 0), -4, 5, 60) == [13, 17, 29, 37, 41, 53]


# -- the batched kernel against the half-sweep -------------------------------


def _nonsingular_t(p):
    # y^2 = x^3 + t x + t has discriminant -16 t^2 (4 t + 27)
    return [t for t in range(1, p) if (4 * t + 27) % p]


def _traces_of(lanes):
    """scan._traces on lanes (t, p) in ascending p, as a list."""
    t, p = (np.array(column, dtype=np.int64) for column in zip(*lanes))
    return scan._traces(t, p).tolist()


def _check_kernel(lanes, min_share):
    """Run _bsgs_traces on lanes as one block; every accepted a_p must equal
    the half-sweep's, and at least min_share of the lanes be accepted.
    Returns the accepted flags and the sweeps."""
    t = np.array([t for t, _ in lanes], dtype=np.int64)
    p = np.array([p for _, p in lanes], dtype=np.int64)
    a_p, accepted = scan._bsgs_traces(t, p)
    swept = [_half_sweep(t, t, p) for t, p in lanes]
    wrong = [lane for lane, a, ok, s in zip(lanes, a_p.tolist(), accepted, swept) if ok and a != s]
    assert wrong == []
    assert accepted.mean() >= min_share, accepted.mean()
    return accepted, swept


def test_kernel_matches_the_sweep_on_every_curve_at_small_primes():
    # one block per prime, then all primes in one block (m from p = 61).
    # Half the lanes are accepted: where 4 sqrt(p) is near p, orders that
    # share the Hasse interval are common
    lanes = [(t, p) for p in primes_up_to(61)[2:] for t in _nonsingular_t(p)]
    accepted = np.concatenate(
        [_check_kernel([(t, p) for t in _nonsingular_t(p)], 0)[0] for p in primes_up_to(61)[2:]]
    )
    assert accepted.mean() >= 0.5
    _, swept = _check_kernel(lanes, 0.5)
    assert _traces_of(lanes) == swept


def test_kernel_matches_the_sweep_at_every_prime_to_20000():
    rng = random.Random(2041)
    lanes = []
    for p in primes_up_to(20_000)[2:]:
        t = rng.randrange(1, p)
        while (4 * t + 27) % p == 0:
            t = rng.randrange(1, p)
        lanes.append((t, p))
    _, swept = _check_kernel(lanes, 0.9)
    # _traces runs the kernel in blocks and the half-sweep where it declines
    assert _traces_of(lanes) == swept


def test_kernel_matches_the_sweep_near_two_to_sixteen_and_ten_to_five():
    rng = random.Random(2043)
    primes = [p for p in range(65_500, 65_600) if is_prime(p)][:4]
    primes += [p for p in range(99_950, 100_050) if is_prime(p)][:4]
    lanes = [(rng.randrange(1, p), p) for p in primes for _ in range(3)]
    accepted, _ = _check_kernel(lanes, 0.75)
    # one lane at a time, too: each block sizes its own steps
    for lane, ok in zip(lanes, accepted):
        assert _check_kernel([lane], 1.0 if ok else 0.0)[0][0] == ok


def _affine_add(u, v, a, p):
    """u + v on y^2 = x^3 + a x + b over F_p, None for O."""
    if u is None or v is None:
        return v if u is None else u
    if u[0] == v[0] and (u[1] + v[1]) % p == 0:
        return None
    if u == v:
        slope = (3 * u[0] * u[0] + a) * pow(2 * u[1], -1, p) % p
    else:
        slope = (v[1] - u[1]) * pow(v[0] - u[0], -1, p) % p
    x = (slope * slope - u[0] - v[0]) % p
    return x, (slope * (u[0] - x) - u[1]) % p


def _affine_mul(k, point, a, p):
    """k point, by double and add."""
    result = None
    for bit in bin(k)[2:]:
        result = _affine_add(result, result, a, p)
        if bit == "1":
            result = _affine_add(result, point, a, p)
    return result


def test_kernel_is_exact_at_the_int64_bound():
    # every product of two residues and the sum of two fits in int64 below
    # the bound, and 2 (p - 1)^2 just does at its largest prime
    assert 2 * (_INT64_BELOW - 2) ** 2 < 2**63 <= 2 * _INT64_BELOW**2
    primes = []
    p = _INT64_BELOW - 1
    while len(primes) < 3:
        if p % 4 == 3 and is_prime(p):
            primes.append(p)
        p -= 2
    assert primes[0] == 2**31 - 1
    rng = random.Random(2047)
    for p in primes:
        t = rng.randrange(1, p)
        a_p, accepted = scan._bsgs_traces(np.array([t]), np.array([p]))
        assert accepted[0]
        a_p = int(a_p[0])
        # p = 3 mod 4, so -1 is a non-square and y^2 = x^3 + t x - t is the
        # twist, of order p + 1 + a_p; a square root is a (p + 1)/4-th power
        for b, order in ((t, p + 1 - a_p), (p - t, p + 1 + a_p)):
            found = 0
            while found < 4:
                x = rng.randrange(p)
                f = (x * x * x + t * x + b) % p
                y = pow(f, (p + 1) // 4, p)
                if y * y % p == f and y:
                    found += 1
                    assert _affine_mul(order, (x, y), t, p) is None, (t, p, b)


def _base_point(t, p, a_p):
    """The kernel's base point x0 as an affine point, the curve's a4 and the
    order of that curve: on y^2 = x^3 + t x + t, or on its twist by f(x0) as
    (f x0, f^2) on y^2 = x^3 + f^2 t x + f^3 t."""
    x0 = next(x for x in range(1, 5) if (x**3 + t * x + t) % p)
    f = (x0**3 + t * x0 + t) % p
    if pow(f, (p - 1) // 2, p) == 1:
        y = pow(f, (p + 1) // 4, p)  # p = 3 mod 4
        assert y * y % p == f
        return (x0, y), t, p + 1 - a_p
    return (f * x0 % p, f * f % p), f * f * t % p, p + 1 + a_p


def _order(point, a4, n, p):
    order = n
    for q, _ in factorize(n):
        while order % q == 0 and _affine_mul(order // q, point, a4, p) is None:
            order //= q
    return order


def test_kernel_declines_exactly_the_lanes_its_rule_names():
    # every curve at two primes p = 3 mod 4, one block per prime.  A lane is
    # declined exactly when the order of its base point P has two multiples
    # in the Hasse interval (a small group exponent), when two of the baby
    # steps 0 .. m share x (the order is at most 2m - 1), when S = sP or
    # S - P = 2mP is O, or when a difference of the baby steps (jP, j < m),
    # of the ladder (S, S - P) or of the giant steps (cP and cP + P for the
    # first steps - 2 multiples c of s from k0 s) has x = 0
    reasons = set()
    for p in (1019, 1423):
        lanes = [(t, p) for t in _nonsingular_t(p)]
        accepted, swept = _check_kernel(lanes, 0.85)
        r = math.isqrt(4 * p)
        m = scan._baby_steps(r)
        s = 2 * m + 1
        k0 = (p + 1 - r + m) // s
        steps = max(2, (p + 1 + r + m) // s - k0 + 1)
        for (t, _), ok, a_p in zip(lanes, accepted, swept):
            point, a4, n = _base_point(t, p, a_p)
            order = _order(point, a4, n, p)
            diffs = [point]  # jP, j = 1 .. m - 1
            for _ in range(m - 2):
                diffs.append(_affine_add(diffs[-1], point, a4, p))
            giant = _affine_mul(s, point, a4, p)
            diffs += [giant, _affine_mul(2 * m, point, a4, p)]
            g = _affine_mul(k0 * s, point, a4, p)
            for _ in range(steps - 2):
                diffs += [g, _affine_add(g, point, a4, p)]
                g = _affine_add(g, giant, a4, p)
            why = {
                "small exponent": (p + 1 + r) // order - (p - r) // order > 1,
                "repeated baby x": order <= 2 * m - 1,
                "S or S - P at O": s % order == 0 or 2 * m % order == 0,
                "difference at x = 0": any(d is not None and d[0] == 0 for d in diffs),
            }
            assert ok != any(why.values()), (t, p, order, why)
            reasons |= {name for name, hit in why.items() if hit}
        declined = [lane for lane, ok in zip(lanes, accepted) if not ok]
        assert _traces_of(declined) == [s for s, ok in zip(swept, accepted) if not ok]
    assert reasons == {
        "small exponent", "repeated baby x", "S or S - P at O", "difference at x = 0"
    }


def test_kernel_accepts_the_ends_of_the_hasse_interval():
    # a curve through x0 of order p + 1 - r or p + 1 + r lies at an end of the
    # interval, in the first or the last giant step, on the curve or its
    # twist; each is accepted where no other order of the interval kills x0
    # (and no difference has x = 0, which none of these meets)
    rng = random.Random(2053)
    ends = set()
    for p in [p for p in primes_up_to(3000) if p > 1000 and p % 4 == 3][::4]:
        r = math.isqrt(4 * p)
        for t in rng.sample(range(1, p), 200):
            if (4 * t + 27) % p == 0:
                continue
            a_p = _half_sweep(t, t, p)
            if abs(a_p) != r:
                continue
            point, a4, n = _base_point(t, p, a_p)
            order = _order(point, a4, n, p)
            if (p + 1 + r) // order - (p - r) // order == 1:
                a, ok = scan._bsgs_traces(np.array([t]), np.array([p]))
                assert ok[0] and a[0] == a_p, (t, p)
                ends.add(n > p + 1)
    assert ends == {True, False}
