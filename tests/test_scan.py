import math
import random
from fractions import Fraction

import pytest

from heckelab.arith import primes_up_to
from heckelab.cli import main
from heckelab.scan import (
    _counted,
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


def test_record_cache_is_bounded_and_shared_within_a_scan(capsys):
    assert _counted.cache_info().maxsize == 1 << 14
    _counted.cache_clear()
    # scan_pair counts both curves at each prime of [5, 500]; then
    # coincidence_statistic reads the same records back over p <= 500
    assert main(["scan", "-1,0", "0,-1", "5", "500"]) == 0
    capsys.readouterr()
    info = _counted.cache_info()
    records = 2 * (len(primes_up_to(500)) - 2)  # both curves are good at p >= 5
    assert (info.misses, info.hits) == (records, records)
    _counted.cache_clear()
