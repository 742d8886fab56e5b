"""Positive-definite quadratic lattices of rank 2 and 4.

Gram matrices carry exact rational entries (degree forms produce
half-integral bilinear values); every count below comes from exhaustive
enumeration inside a rigorous box, never from an asymptotic.  The
discriminant convention is the Gram determinant q(e)q(f) - q(e,f)^2; the
classical binary-form discriminant b^2 - 4ac equals -4 times it and is not
used internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np


class UnsupportedConfigurationError(ValueError):
    """The requested ideal-lattice model falls outside the covered cases."""


class SweepOverflowError(OverflowError):
    """The integer-scaled values of a form over its box exceed int64."""


class CountArrayTooLargeError(ValueError):
    """The array of counts up to n_max cannot be allocated."""


# Box points per block of the lattice sweep: a block of leading coordinates
# times the last coordinate's range stays near this many int64 values.
_BLOCK_POINTS = 1 << 16


def _det(rows: tuple[tuple[Fraction, ...], ...]) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for col in range(n):
        minor = tuple(r[:col] + r[col + 1 :] for r in rows[1:])
        term = rows[0][col] * _det(minor)
        total += term if col % 2 == 0 else -term
    return total


@dataclass(frozen=True)
class GramForm:
    """Symmetric Gram matrix over the rationals, rank 2 or 4."""

    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rank = len(self.gram)
        if rank not in (2, 4):
            raise ValueError(f"rank must be 2 or 4, got {rank}")
        norm = tuple(
            tuple(Fraction(v) for v in row) for row in self.gram
        )
        object.__setattr__(self, "gram", norm)
        for i in range(rank):
            if len(norm[i]) != rank:
                raise ValueError("gram matrix is not square")
            for j in range(i):
                if norm[i][j] != norm[j][i]:
                    raise ValueError("gram matrix is not symmetric")
        for k in range(1, rank + 1):
            if _det(tuple(row[:k] for row in norm[:k])) <= 0:
                raise ValueError("form is not positive definite")

    @classmethod
    def from_rows(cls, rows) -> "GramForm":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def disc(self) -> Fraction:
        return _det(self.gram)

    def value(self, vector) -> Fraction:
        """q(v) = v^T G v for an integer coordinate vector."""
        total = Fraction(0)
        for i, vi in enumerate(vector):
            for j, vj in enumerate(vector):
                total += self.gram[i][j] * vi * vj
        return total


def lagrange_reduce(form: GramForm) -> GramForm:
    """Classical rank-2 reduction: q(e) <= q(f) and 2|q(e,f)| <= q(e)."""
    if form.rank != 2:
        raise ValueError("lagrange_reduce applies to rank-2 forms")
    a, b, c = form.gram[0][0], form.gram[0][1], form.gram[1][1]
    while True:
        if c < a:
            a, c = c, a
        t = round(b / a)
        if t:
            # f -> f - t e
            c = c - 2 * t * b + t * t * a
            b = b - t * a
        if 2 * abs(b) <= a <= c:
            return GramForm(((a, b), (b, c)))


def counting_bound(n: int, disc) -> float:
    """1 + 8 sqrt(n) + 16 n / sqrt(disc)."""
    disc = Fraction(disc)
    if disc <= 0:
        raise ValueError("disc must be positive")
    return 1.0 + 8.0 * math.sqrt(n) + 16.0 * n / math.sqrt(disc)


def _integer_scale(form: GramForm) -> tuple[int, list[list[int]]]:
    scale = 1
    for row in form.gram:
        for v in row:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
    mat = [[int(v * scale) for v in row] for row in form.gram]
    return scale, mat


def _coordinate_bounds(form: GramForm, n) -> list[int]:
    """|x_i| <= sqrt(n * (G^-1)_ii), the rigorous ellipsoid box."""
    rank = form.rank
    det = form.disc
    bounds = []
    cap = Fraction(n)
    for i in range(rank):
        minor_rows = tuple(
            tuple(form.gram[r][c] for c in range(rank) if c != i)
            for r in range(rank)
            if r != i
        )
        inv_ii = _det(minor_rows) / det
        limit = cap * inv_ii
        bounds.append(isqrt(limit.numerator // limit.denominator))
    return bounds


def _check_int64(mat: list[list[int]], bounds: list[int]) -> None:
    """Raise SweepOverflowError unless sum_ij |m_ij| b_i b_j < 2^63.

    Each term m_ij x_i x_j is at most |m_ij| b_i b_j in the box, so the sum
    bounds every partial sum of the sweep.  It also bounds every coefficient
    2 m_ij whose b_i and b_j are both nonzero.
    """
    reach = sum(
        abs(m) * bi * bj for row, bi in zip(mat, bounds) for m, bj in zip(row, bounds)
    )
    if reach >= 1 << 63:
        raise SweepOverflowError(
            f"lattice sweep values reach {reach} >= 2^63 in the integer-scaled "
            "form; int64 cannot hold them"
        )


def _value_counts(form: GramForm, n: int) -> np.ndarray:
    """counts[N] = #{v : q(v) = N} for 0 <= N <= n, by exact enumeration.

    One vectorized pass over the rigorous box: the leading coordinates come
    from a flat index in blocks of about _BLOCK_POINTS box points, each block
    forms its (block x last coordinate) matrix of integer-scaled values, and
    np.bincount counts the ones that are multiples of the scale and <= n.
    The arithmetic is int64; _check_int64 rejects a box whose values could
    leave that range before any of it is built.
    """
    if n < 0:
        return np.zeros(0, dtype=np.int64)
    try:
        counts = np.zeros(n + 1, dtype=np.int64)
    except MemoryError as exc:
        raise CountArrayTooLargeError(
            f"cannot allocate the counts for n_max = {n}: "
            f"{n + 1} int64s, {(n + 1) * 8 / 2**30:.1f} GiB"
        ) from exc
    scale, mat = _integer_scale(form)
    bounds = _coordinate_bounds(form, n)
    # x_i = 0 all over the box when b_i = 0, so the terms of such an i drop out
    mat = [
        [m if bi and bj else 0 for m, bj in zip(row, bounds)]
        for row, bi in zip(mat, bounds)
    ]
    _check_int64(mat, bounds)
    cap = scale * n
    last = form.rank - 1
    xs = np.arange(-bounds[last], bounds[last] + 1, dtype=np.int64)
    quad = mat[last][last] * xs * xs
    shape = tuple(2 * b + 1 for b in bounds[:last])
    total = math.prod(shape)
    step = max(1, _BLOCK_POINTS // len(xs))
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total), dtype=np.int64)
        lead = [c - b for c, b in zip(np.unravel_index(flat, shape), bounds)]
        const = np.zeros(len(flat), dtype=np.int64)
        lin = np.zeros(len(flat), dtype=np.int64)
        for i, xi in enumerate(lead):
            const += mat[i][i] * xi * xi
            for j in range(i + 1, last):
                const += 2 * mat[i][j] * xi * lead[j]
            lin += 2 * mat[i][last] * xi
        q = const[:, None] + lin[:, None] * xs + quad
        vals = q[q <= cap]
        vals = vals[vals % scale == 0] // scale
        counts += np.bincount(vals, minlength=n + 1)
    return counts


def represented_values(form: GramForm, n: int) -> set[int]:
    """Positive integers N <= n of the shape q(v), v a lattice vector."""
    if form.rank != 2:
        raise ValueError("represented_values applies to rank-2 forms")
    if n <= 0:
        return set()
    counts = _value_counts(lagrange_reduce(form), n)
    return {int(v) for v in np.nonzero(counts[1:])[0] + 1}


def fiber_count(form: GramForm, n: int) -> int:
    """Exact number of lattice vectors with q(v) = n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return int(_value_counts(form, n)[n])


def ball_count(form: GramForm, n: int) -> int:
    """Exact number of lattice vectors with q(v) <= n (zero included)."""
    if form.rank != 4:
        raise ValueError("ball_count applies to rank-4 forms")
    if n < 0:
        return 0
    return int(_value_counts(form, n).sum())


def dense_fiber_set(form: GramForm, eps1, n: int) -> set[int]:
    """{N <= n : fiber_count(form, N) >= eps1 * N}."""
    if form.rank != 4:
        raise ValueError("dense_fiber_set applies to rank-4 forms")
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    counts = _value_counts(form, n)
    return {N for N in range(1, n + 1) if counts[N] >= eps1 * N}


def reduced_primitive_forms(disc: int) -> list[tuple[int, int, int]]:
    """All reduced primitive (a, b, c) with b^2 - 4ac = disc < 0, a > 0.

    One per proper ideal class of the order of that discriminant.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not an imaginary quadratic discriminant")
    out = []
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b - disc) % 2:
                continue
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or a == abs(b)):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                out.append((a, b, c))
        a += 1
    return sorted(out)


def ideal_hom_disc_check(fundamental_disc: int, conductor: int) -> bool:
    """|disc End(E)| >= |disc Hom(E, E')| on ideal-lattice models.

    E and E' are complex tori for proper ideals of the order of the given
    conductor inside the field of the fundamental discriminant.  The End
    lattice carries the norm form of the order; each Hom lattice carries
    the scaled norm form of an ideal class, whose Gram matrix is read off a
    reduced primitive form.  Returns True iff the inequality holds against
    every class.
    """
    from .arith import is_fundamental_discriminant

    if conductor < 1:
        raise UnsupportedConfigurationError("conductor must be >= 1")
    if not is_fundamental_discriminant(fundamental_disc):
        raise UnsupportedConfigurationError(
            f"{fundamental_disc} is not a fundamental imaginary quadratic discriminant"
        )
    disc = conductor * conductor * fundamental_disc
    parity = disc & 1
    end_form = GramForm.from_rows(
        (
            (1, Fraction(parity, 2)),
            (Fraction(parity, 2), Fraction(parity - disc, 4)),
        )
    )
    end_disc = end_form.disc
    for a, b, c in reduced_primitive_forms(disc):
        hom_form = GramForm.from_rows(
            ((a, Fraction(b, 2)), (Fraction(b, 2), c))
        )
        if end_disc < hom_form.disc:
            return False
    return True
