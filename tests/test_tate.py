import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from heckelab.hecke import coset_reps, e_n
from heckelab.tate import (
    badred_constant,
    cyclic_subgroups,
    no_collision_check,
    valuation_orbit,
)


def test_subgroup_triples_structure():
    for n in (1, 2, 4, 6, 12, 36, 97, 360):
        subgroups = cyclic_subgroups(n)
        triples = list(subgroups)
        assert len(subgroups) == e_n(n) == len(triples)
        assert len(set(triples)) == len(triples)
        keys = [(t.r, t.s) for t in triples]
        assert keys == sorted(keys)
        for t in triples:
            assert all(type(v) is int for v in t)
            assert t.r * t.t == n
            assert 0 <= t.s < t.t
            assert math.gcd(math.gcd(t.r, t.s), t.t) == 1
        for k in (0, len(triples) // 2, -1):
            assert subgroups[k] == triples[k]
            assert all(type(v) is int for v in subgroups[k])
        assert subgroups[1:-1] == triples[1:-1]
        assert subgroups[:] == triples
        # the same enumeration as the cosets of T_N, (r, s, t) = (alpha, beta, delta)
        assert [(t.r, t.s, t.t, t.n) for t in triples] == [
            (c.alpha, c.beta, c.delta, c.n) for c in coset_reps(n)
        ]
    with pytest.raises(ValueError):
        cyclic_subgroups(0)


def test_orbit_valuations_exact():
    assert valuation_orbit(Fraction(-1), 2) == Counter(
        {Fraction(-2): 1, Fraction(-1, 2): 2}
    )
    orbit4 = valuation_orbit(Fraction(-1), 4)
    assert orbit4[Fraction(-4)] == 1
    assert orbit4[Fraction(-1)] == 1  # the square-degree self-valuation
    assert orbit4[Fraction(-1, 4)] == 4
    assert sum(orbit4.values()) == e_n(4)


def test_orbit_valuation_sum_identity():
    # sum over triples of r/t equals the degree e_N, so the orbit total
    # is v * e_N exactly
    rng = random.Random(21)
    for n in list(range(1, 40)) + [60, 97]:
        v = Fraction(-rng.randrange(1, 30), rng.randrange(1, 30))
        orbit = valuation_orbit(v, n)
        assert sum(val * mult for val, mult in orbit.items()) == v * e_n(n)


def test_orbit_valuations_match_the_subgroup_enumeration():
    # the closed form against the orbit walked subgroup by subgroup
    rng = random.Random(4)
    for n in list(range(1, 301)) + [3600, 4620]:
        v = Fraction(-rng.randrange(1, 30), rng.randrange(1, 30))
        walked = Counter(Fraction(t.r, t.t) * v for t in cyclic_subgroups(n))
        assert valuation_orbit(v, n) == walked, (v, n)
    with pytest.raises(ValueError):
        valuation_orbit(Fraction(-1), 0)


def test_orbit_requires_negative_valuation():
    with pytest.raises(ValueError):
        valuation_orbit(Fraction(0), 2)
    with pytest.raises(ValueError):
        valuation_orbit(Fraction(1, 3), 2)


def test_no_collision_check():
    # v = -1: order-4 orbit contains -1 (square degree), order-2 does not
    assert not no_collision_check(Fraction(-1), Fraction(-1), 4)
    assert no_collision_check(Fraction(-1), Fraction(-1), 2)
    assert no_collision_check(Fraction(-1), Fraction(-3, 7), 6)


def test_no_collision_on_coprime_nonsquare_degrees():
    # degrees prime to the modulus |abcd| and non-square never collide
    rng = random.Random(33)
    for _ in range(200):
        v = Fraction(-rng.randrange(1, 12), rng.randrange(1, 12))
        x = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 12), rng.randrange(1, 12))
        if x == 0:
            continue
        floor_c = badred_constant(v, x)
        for n in range(2, 40):
            if math.gcd(n, floor_c.n) != 1:
                continue
            if math.isqrt(n) ** 2 == n:
                continue
            assert no_collision_check(v, x, n), (v, x, n)


def test_badred_constant_fields():
    c = badred_constant(Fraction(-3, 2), Fraction(-1, 1))
    assert c.floor == 1
    assert c.n == 6
    c2 = badred_constant(Fraction(-1), Fraction(5, 4))
    assert c2.floor == Fraction(-5, 4)
    assert c2.n == 20
    with pytest.raises(ValueError):
        badred_constant(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        badred_constant(Fraction(-1), Fraction(0))
