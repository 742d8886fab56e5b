import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heckelab import scan
from heckelab.arith import primes_up_to, split_discriminant
from heckelab.cli import main
from heckelab.scan import (
    _INT32_BELOW,
    _half_sweep,
    _j0_record,
    _j1728_record,
    _prime_tables,
    _sweep_of_j,
    BadReductionError,
    CurveQ,
    HasseBoundError,
    MismatchedPrimeError,
    Ordinary,
    Supersingular,
    TraceRecord,
    cm_field_hits,
    coincidence_statistic,
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


def test_count_points_against_brute_force():
    rng = random.Random(19)
    for _ in range(30):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        rec = count_points(CurveQ(a, b), p)
        assert rec.a_p == _brute_count(a, b, p)
        assert rec.a_p * rec.a_p <= 4 * p
    # every nonsingular curve at the smallest primes
    for p in (5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p:
                    rec = count_points(CurveQ(a, b), p)
                    assert rec.a_p == _brute_count(a, b, p), (a, b, p)


def _reduce(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


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
            # count_points takes the closed form when b = 0; the sweep,
            # its oracle, must count those cubics too
            assert rec.a_p == _brute_count(a, b, p) == _half_sweep(a, b, p), (a4, a6, p)


def test_classification_fields():
    rec = count_points(CurveQ(-1, 0), 5)  # y^2 = x^3 - x
    assert rec.a_p == -2
    assert rec.classification == Ordinary(cm_fundamental_disc=-4, conductor=2)
    ss = count_points(CurveQ(1, 1), 17)
    assert ss.a_p == 0
    assert ss.classification == Supersingular()


def test_trace_record_validation():
    with pytest.raises(HasseBoundError):
        TraceRecord(5, 5, Supersingular())
    with pytest.raises(ValueError):
        TraceRecord(7, 0, Ordinary(-28, 1))
    with pytest.raises(ValueError):
        TraceRecord(7, 1, Supersingular())
    with pytest.raises(ValueError):
        TraceRecord(7, 2, Ordinary(-4, 1))  # 4 - 28 = -24, not -4
    TraceRecord(7, 2, Ordinary(-24, 1))


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
    # a float p reaches is_prime, which rejects it
    count_points(CurveQ(1, 1), 5)
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


def test_geom_isogenous_small():
    r5a = count_points(CurveQ(-1, 0), 5)
    r5b = count_points(CurveQ(0, -1), 5)
    assert geom_isogenous(r5a, r5a) == 1
    with pytest.raises(MismatchedPrimeError):
        geom_isogenous(r5a, count_points(CurveQ(-1, 0), 7))
    # frozen: a = 1 vs a = 2 at p = 7 never match through k = 12
    assert geom_isogenous(
        TraceRecord(7, 1, Ordinary(-27, 1)), TraceRecord(7, 2, Ordinary(-24, 1))
    ) is None
    assert r5b.a_p == 0
    assert geom_isogenous(r5a, r5b) is None
    # below p = 5 a_p = 0 does not mark supersingularity: no early None
    assert geom_isogenous(
        TraceRecord(2, 2, Ordinary(-4, 1)), TraceRecord(2, 0, Supersingular())
    ) == 8


def test_geom_isogenous_equals_the_per_k_trace_power_definition():
    def per_k(left, right):
        for k in range(1, 13):
            if trace_power(left.a_p, left.p, k) == trace_power(right.a_p, right.p, k):
                return k
        return None

    for p in primes_up_to(61):
        records = []
        for a in range(-math.isqrt(4 * p), math.isqrt(4 * p) + 1):
            if a == 0:
                records.append(TraceRecord(p, 0, Supersingular()))
            else:
                conductor, d_k = split_discriminant(a * a - 4 * p)
                records.append(TraceRecord(p, a, Ordinary(d_k, conductor)))
        for left in records:
            for right in records:
                assert geom_isogenous(left, right) == per_k(left, right), (p, left, right)


def _legendre(u, p):
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def test_twist_identity_against_brute_force():
    # y^2 = x^3 + u^2 a x + u^3 b has a_p = (u/p) a_p(y^2 = x^3 + a x + b)
    for p in (5, 7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                a_p = _brute_count(a, b, p)
                for u in range(1, p):
                    rec = count_points(CurveQ(u * u * a, u**3 * b), p)
                    assert rec.a_p == _legendre(u, p) * a_p, (a, b, u, p)
                    assert rec.a_p == _brute_count(u * u * a % p, u**3 * b % p, p)


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
            assert count_points(CurveQ(c4, c6), p).a_p == _half_sweep(a, b, p), (c4, c6, p)
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


def test_coincidence_statistic():
    stat = coincidence_statistic(CurveQ(-1, 0), CurveQ(0, -1), 200)
    assert stat.observed == 11
    assert stat.heuristic == pytest.approx(8.457164232373442, rel=1e-12)
    # a curve against itself matches at every good prime
    self_stat = coincidence_statistic(CurveQ(-1, 0), CurveQ(-1, 0), 100)
    assert self_stat.observed == len([p for p in primes_up_to(100) if p >= 5])
    with pytest.raises(ValueError):
        coincidence_statistic(CurveQ(-1, 0), CurveQ(0, -1), 4)
    # a float p_max reaches the sieve, which rejects it, also after a scan
    # to the same integer p_max
    for p_max in (100.0, 200.0):
        with pytest.raises(TypeError):
            coincidence_statistic(CurveQ(-1, 0), CurveQ(0, -1), p_max)
    # observed is read off the k = 1 hits of scan_pair; it must equal the
    # count of good primes where a_p agrees, for twist, sextic-twist,
    # rational and generic pairs, some with bad primes
    pairs = [
        (CurveQ(3, -7), CurveQ(27, -189)),
        (CurveQ(0, 1), CurveQ(0, -2)),
        (CurveQ(Fraction(1, 3), Fraction(-5, 7)), CurveQ(Fraction(2, 9), Fraction(7, 4))),
        (CurveQ(1, 1), CurveQ(-1, 1)),
    ]
    for left, right in pairs:
        agree = 0
        for p in primes_up_to(800)[2:]:
            try:
                agree += count_points(left, p).a_p == count_points(right, p).a_p
            except BadReductionError:
                continue
        assert coincidence_statistic(left, right, 800).observed == agree, (left, right)


def test_a_scan_counts_each_record_once(capsys, monkeypatch):
    # the rows and the coincidence trailer come from one pass, so each curve
    # is counted once at each good prime of [5, 500], by the per-prime
    # record function that count_points also calls
    calls = []
    record = scan._record

    def counting(coefficients, p):
        calls.append((coefficients, p))
        return record(coefficients, p)

    monkeypatch.setattr(scan, "_record", counting)
    assert main(["scan", "-1,0", "0,-1", "5", "500"]) == 0
    capsys.readouterr()
    good = [p for p in primes_up_to(500) if p >= 5]  # both curves are good there
    expected = [(curve, p) for p in good for curve in ((-1, 1, 0, 1), (0, 1, -1, 1))]
    assert calls == expected
    # count_points takes the same path, once per call
    calls.clear()
    assert count_points(CurveQ(Fraction(-1, 3), 0), 7).a_p == _brute_count(2, 0, 7)
    assert calls == [((-1, 3, 0, 1), 7)]


def test_a_scan_is_the_per_prime_count_points_loop():
    # scan_pair reads each curve's coefficients once and takes its primes
    # from the sieve; count_points checks each p.  Both give the same
    # records at every prime of [5, 2000]
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
    ]
    primes = [p for p in primes_up_to(2000) if p >= 5]
    for left, right in pairs:
        records, hits = [], []
        for p in primes:
            try:
                lrec, rrec = count_points(left, p), count_points(right, p)
            except BadReductionError:
                continue
            records.append((p, [lrec, rrec]))
            k = geom_isogenous(lrec, rrec)
            if k is not None:
                hits.append(scan.ScanHit(p, k, lrec, rrec))
        assert list(scan._records((left, right), 5, 2000)) == records, (left, right)
        assert scan_pair(left, right, 5, 2000) == hits, (left, right)
        assert scan_pair(left, right, 101, 1999) == [h for h in hits if h.p >= 101]
        assert hits and len(records) >= 290, (left, right)
    # the primes where a denominator vanishes are skipped
    assert {p for p, _ in scan._records(pairs[0], 5, 2000)} & {5, 7, 11, 13, 17} == {17}
    assert 19 not in {p for p, _ in scan._records(pairs[4], 5, 2000)}


def test_prime_tables_are_built_once_per_prime_of_a_scan(capsys):
    # a4 a6 is a unit at every prime, so no record takes the closed form
    left, right = (1, 1), (-1, 1)
    _prime_tables.cache_clear()
    assert main(["scan", "1,1", "-1,1", "5", "500"]) == 0
    capsys.readouterr()

    def good(a4, a6, p):
        return (4 * a4**3 + 27 * a6**2) % p != 0

    # scan_pair counts the left curve at each prime of [5, 500] and, where it
    # is good, the right curve from the same tables; a bad right curve raises
    # before it reads them.  The coincidence trailer is read off the same
    # hits and counts nothing.
    primes = [p for p in primes_up_to(500) if p >= 5]
    left_good = [p for p in primes if good(*left, p)]
    both_good = [p for p in left_good if good(*right, p)]
    assert len(both_good) == len(primes) - 2  # 31 | disc(left), 23 | disc(right)
    info = _prime_tables.cache_info()
    assert (info.misses, info.hits) == (len(left_good), len(both_good))


def test_a_twist_pair_reads_one_sweep_per_prime_of_a_scan(capsys, monkeypatch):
    # y^2 = x^3 + 7 x + 10 and its twist by d = -3; 4 * 7^3 + 27 * 10^2 =
    # 8 * 509, so every prime of [5, 500] is good on both sides, and only at
    # p = 5 (b = 0) and p = 7 (a = 0) is a record read in closed form
    sweeps = []

    def counting(a, b, p):
        sweeps.append(p)
        return _half_sweep(a, b, p)

    monkeypatch.setattr(scan, "_half_sweep", counting)
    _sweep_of_j.cache_clear()
    _prime_tables.cache_clear()
    assert main(["scan", "7,10", "63,-270", "5", "500"]) == 0
    capsys.readouterr()
    # scan_pair counts the left curve at p, which sweeps y^2 = x^3 + t x + t,
    # and the right curve, which reads that sweep; the coincidence trailer
    # is read off the same hits
    swept = [p for p in primes_up_to(500) if p > 7]
    info = _sweep_of_j.cache_info()
    assert (info.misses, info.hits) == (len(swept), len(swept))
    assert sweeps == swept
    info = _prime_tables.cache_info()
    assert (info.misses, info.hits) == (len(swept), 0)


def test_closed_forms_match_the_sweep_for_every_d():
    # y^2 = x^3 - d x (j = 1728) and y^2 = x^3 + d (j = 0) for every d != 0
    # mod p; ordinary records carry the CM field Q(i), resp. Q(sqrt -3)
    for p in primes_up_to(600):
        if p < 5:
            continue
        for d in range(1, p):
            for rec, a, b, d_k in (
                (_j1728_record(d, p), p - d, 0, -4),
                (_j0_record(d, p), 0, d, -3),
            ):
                assert rec.p == p and rec.a_p == _half_sweep(a, b, p), (a, b, p)
                inert = p % 4 == 3 if b == 0 else p % 3 == 2
                assert isinstance(rec.classification, Supersingular) == inert
                if not inert:
                    c = rec.classification
                    assert (c.conductor, c.cm_fundamental_disc) == split_discriminant(
                        rec.a_p**2 - 4 * p
                    )
                    assert c.cm_fundamental_disc == d_k


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
            for curve, a, b in ((CurveQ(-d, 0), p - k, 0), (CurveQ(0, d), 0, k)):
                assert count_points(curve, p).a_p == _half_sweep(a, b, p), (curve, p)


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
            rec = count_points(curve, p)
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
