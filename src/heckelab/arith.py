"""Small exact-integer helpers shared across modules.

Everything here is elementary and exhaustively testable: trial division,
divisor lists, the triples of N that index both Hecke cosets and cyclic
subgroups, discriminant splitting.  Inputs are desk-scale, so no
attempt is made at sub-exponential factoring.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat

import numpy as np


class TooLargeToAllocateError(ValueError):
    """An array whose size the input sets cannot be allocated."""


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    try:
        mark = np.ones(n + 1, dtype=bool)
        mark[:2] = False
        for p in range(2, math.isqrt(n) + 1):
            if mark[p]:
                mark[p * p :: p] = False
        return np.flatnonzero(mark).tolist()
    except MemoryError as exc:
        raise TooLargeToAllocateError(
            f"cannot sieve the primes up to {n}: {(n + 1) / 2**30:.1f} GiB of marks"
        ) from exc


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


# Bounded: most of the a_p^2 - 4p that scan factors are never asked for again.
@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...), p ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out = []
    m = n
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= m:
        for step in (d, d + 2):
            e = 0
            while m % step == 0:
                m //= step
                e += 1
            if e:
                out.append((step, e))
        d += 6
    if m > 1:
        out.append((m, 1))
    return tuple(sorted(out))


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


class TripleRows(Sequence):
    """The triples (a, b, d) of N >= 1, with a*d = N, 0 <= b < d and
    gcd(a, b, d) = 1, in lexicographic (a, b) order.

    They index the cosets of T_N and the cyclic subgroups of order N alike;
    ``row`` is the row type, called as row(a, b, d, N).  The triples are
    enumerated once into three integer columns, and rows are built only
    when read: iteration and integer indexing yield rows with plain int
    fields, and a slice returns a list of rows.  len() is the number of
    enumerated triples.  The sequence is read-only.
    """

    __slots__ = ("_row", "_n", "_a", "_b", "_d")

    def __init__(self, row, n: int):
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"N must be positive, got {n}")
        divs = divisors(n)
        try:
            betas = []
            for a in divs:
                d = n // a
                b = np.arange(d, dtype=np.int64)
                g = math.gcd(a, d)
                betas.append(b[np.gcd(b, g) == 1] if g > 1 else b)
            self._a = np.repeat(np.array(divs, dtype=np.int64), [b.size for b in betas])
            self._b = np.concatenate(betas)
            self._d = n // self._a
        except MemoryError as exc:
            rows = sum(count for _, _, count in triple_counts(n))
            raise TooLargeToAllocateError(
                f"cannot allocate the {rows} triples of N = {n}: "
                f"{rows * 24 / 2**30:.1f} GiB"
            ) from exc
        self._row = row
        self._n = n
        for col in (self._a, self._b, self._d):
            col.flags.writeable = False

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The a, b and d columns, as read-only int64 arrays in row order."""
        return self._a, self._b, self._d

    def __len__(self) -> int:
        return self._b.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            # tuple.__new__ skips the row type's Python-level __new__, which
            # halves the cost of building rows for callers that iterate
            a, b, d = (c[index].tolist() for c in (self._a, self._b, self._d))
            fields = zip(a, b, d, repeat(self._n))
            return list(map(tuple.__new__, repeat(self._row), fields))
        i = operator.index(index)
        return self._row(int(self._a[i]), int(self._b[i]), int(self._d[i]), self._n)

    def __iter__(self):
        return iter(self[:])


def triple_counts(n: int) -> list[tuple[int, int, int]]:
    """(a, d, count) for each divisor a of N >= 1, a ascending, d = N/a:
    count is the number of triples (a, b, d) that TripleRows enumerates,
    d * prod_{p | gcd(a, d)} (1 - 1/p).  The counts sum to the degree of T_N.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"N must be positive, got {n}")
    out = []
    for a in divisors(n):
        d = n // a
        count = d
        for p in prime_divisors(math.gcd(a, d)):
            count = count // p * (p - 1)
        out.append((a, d, count))
    return out


def split_discriminant(disc: int) -> tuple[int, int]:
    """Write a negative discriminant as disc = f^2 * d_K with d_K fundamental.

    Returns (conductor f, fundamental discriminant d_K).  Requires
    disc < 0 and disc = 0 or 1 mod 4.
    """
    if disc >= 0:
        raise ValueError(f"discriminant must be negative, got {disc}")
    if disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a discriminant (need 0 or 1 mod 4)")
    f = 1
    core = -disc
    for p, e in factorize(-disc):
        f *= p ** (e // 2)
        core //= p ** (2 * (e // 2))
    d0 = -core  # squarefree part, negative
    if d0 % 4 == 1:
        d_k = d0
    else:
        d_k = 4 * d0
        f //= 2
    assert f * f * d_k == disc
    return f, d_k


def is_fundamental_discriminant(d: int) -> bool:
    """True for discriminants of imaginary quadratic fields (d < 0)."""
    if d >= 0 or d % 4 not in (0, 1):
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    q = d // 4
    return q % 4 in (2, 3) and _is_squarefree(q)


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n)))


def pairwise_sum(values):
    """Sum in a fixed pairwise tree, deterministic regardless of chunking."""
    vals = list(values)
    if not vals:
        return 0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def pairwise_product(values):
    """Product in a fixed pairwise tree (mirrors pairwise_sum)."""
    vals = list(values)
    if not vals:
        return 1
    while len(vals) > 1:
        nxt = [vals[i] * vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]
