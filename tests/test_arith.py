import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heckelab.arith import (
    TripleRows,
    divisors,
    factorize,
    is_fundamental_discriminant,
    is_prime,
    pairwise_sum,
    prime_divisors,
    primes_up_to,
    split_discriminant,
    triple_counts,
)
from heckelab.hecke import coset_reps, e_n


def _trial_division_primes(n):
    out = []
    for k in range(2, n + 1):
        if all(k % d for d in range(2, int(math.isqrt(k)) + 1)):
            out.append(k)
    return out


def test_primes_up_to_matches_trial_division():
    assert primes_up_to(500) == _trial_division_primes(500)
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_is_prime_agrees_with_sieve():
    table = set(primes_up_to(2000))
    for n in range(-3, 2001):
        assert is_prime(n) == (n in table)


def test_factorize_rebuilds_and_sorts():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        fac = factorize(n)
        rebuilt = 1
        for p, e in fac:
            assert is_prime(p)
            assert e >= 1
            rebuilt *= p**e
        assert rebuilt == n
        assert list(fac) == sorted(fac)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def test_divisors_complete():
    for n in (1, 2, 12, 36, 97, 360):
        ds = divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)
    assert prime_divisors(360) == [2, 3, 5]


def test_split_discriminant_examples():
    # t^2 - 4N = f^2 d_K with d_K fundamental
    assert split_discriminant(-4) == (1, -4)
    assert split_discriminant(-16) == (2, -4)
    assert split_discriminant(-3) == (1, -3)
    assert split_discriminant(-12) == (2, -3)
    assert split_discriminant(-75) == (5, -3)
    assert split_discriminant(-7) == (1, -7)
    assert split_discriminant(-8) == (1, -8)
    for disc in (0, 1, 4, 5):
        with pytest.raises(ValueError, match="must be negative"):
            split_discriminant(disc)


def test_split_discriminant_random_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        disc = -rng.randrange(1, 40000)
        if disc % 4 not in (0, 1):
            with pytest.raises(ValueError):
                split_discriminant(disc)
            continue
        f, d_k = split_discriminant(disc)
        assert f * f * d_k == disc
        assert is_fundamental_discriminant(d_k)


def test_fundamental_discriminant_classifier():
    good = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]
    bad = [-12, -16, -27, -28, -32, -36, -44, -45, -48, 0, 5, -1, -2, -5]
    for d in good:
        assert is_fundamental_discriminant(d)
    for d in bad:
        assert not is_fundamental_discriminant(d)


def test_pairwise_reducers_are_exact_on_fractions():
    rng = random.Random(3)
    vals = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 50)) for _ in range(97)]
    assert pairwise_sum(vals) == sum(vals)
    assert pairwise_sum([]) == 0
    assert pairwise_sum([Fraction(5)]) == 5


def test_triple_counts_match_the_enumerated_rows():
    for n in range(1, 1001):
        a, counts = np.unique(coset_reps(n).columns[0], return_counts=True)
        expected = [(int(x), n // int(x), int(c)) for x, c in zip(a, counts)]
        assert triple_counts(n) == expected, n
        assert sum(count for _, _, count in triple_counts(n)) == e_n(n)
    for bad in (0, -4):
        with pytest.raises(ValueError):
            TripleRows(tuple, bad)
        with pytest.raises(ValueError):
            triple_counts(bad)
    with pytest.raises(TypeError):
        TripleRows(tuple, 2.5)
    with pytest.raises(TypeError):
        triple_counts(2.5)
