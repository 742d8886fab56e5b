"""Positive-definite quadratic lattices of rank 2 and 4.

Gram matrices carry exact rational entries (degree forms produce
half-integral bilinear values); every count below comes from exhaustive
enumeration inside a rigorous box, never from an asymptotic.  The
discriminant convention is the Gram determinant q(e)q(f) - q(e,f)^2; the
classical binary-form discriminant b^2 - 4ac equals -4 times it and is not
used internally.

Every count sweeps the pairwise Lagrange-reduced form: steps e_j -> e_j -
t e_i, t the integer nearest q(e_i, e_j)/q(e_i), are taken until
|q(e_i, e_j)| <= q(e_i)/2 for every pair.  Each step lowers q(e_j) in a
discrete set of values, so the steps end, and each is unimodular, so the
counts are the form's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .arith import TooLargeToAllocateError, is_fundamental_discriminant


class UnsupportedConfigurationError(ValueError):
    """The requested ideal-lattice model falls outside the covered cases."""


class SweepOverflowError(OverflowError):
    """The integer-scaled values of a form over its box exceed int64."""


class CountArrayTooLargeError(TooLargeToAllocateError):
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
    """The pairwise Lagrange-reduced form: |q(e_i, e_j)| <= q(e_i)/2 for all
    i != j, and q(e_1) <= ... <= q(e_r).

    While some pair has 2|q(e_i, e_j)| > q(e_i), the step e_j -> e_j - t e_i,
    t the integer nearest q(e_i, e_j)/q(e_i), is taken; then the basis is
    ordered by q(e_i).  Each step lowers q(e_j), and the Gram entries stay in
    the discrete set (1/m)Z, m the lcm of their denominators, so the steps
    end.  The steps are unimodular: every value and the disc stay the form's
    own.  At rank 2 this is 2|b| <= a <= c.  It is not LLL: at rank 4 a form
    skewed only through a combination of three vectors stays skewed.  A form
    that no step or reordering moves is returned as it is.
    """
    rank = form.rank
    g = [list(row) for row in form.gram]
    moved = False
    stepped = True
    while stepped:
        stepped = False
        for i in range(rank):
            for j in range(rank):
                if i == j or 2 * abs(g[i][j]) <= g[i][i]:
                    continue
                t = round(g[i][j] / g[i][i])
                # e_j -> e_j - t e_i: row j, then column j
                g[j] = [x - t * y for x, y in zip(g[j], g[i])]
                for row in g:
                    row[j] -= t * row[i]
                stepped = moved = True
    order = sorted(range(rank), key=lambda k: g[k][k])
    if not moved and order == list(range(rank)):
        return form
    return GramForm(tuple(tuple(g[r][c] for c in order) for r in order))


def counting_bound(n: int, disc) -> float:
    """1 + 8 sqrt(n) + 16 n / sqrt(disc)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    disc = Fraction(disc)
    if disc <= 0:
        raise ValueError("disc must be positive")
    return 1.0 + 8.0 * math.sqrt(n) + 16.0 * n / math.sqrt(disc)


def _integer_coefficients(form: GramForm) -> tuple[int, list[list[int]]]:
    """(s, c): the least s >= 1 with s q integral, and the coefficients of
    s q(x) = sum_{i <= j} c_ij x_i x_j, that is c_ii = s g_ii and
    c_ij = 2 s g_ij above the diagonal; c_ij = 0 below it.

    Every form with integer values has s = 1, the half-integral Gram
    entries of x^2 + xy + y^2 included."""
    rank = form.rank
    terms = [
        (i, j, form.gram[i][j] * 2 if i < j else form.gram[i][j])
        for i in range(rank)
        for j in range(i, rank)
    ]
    scale = math.lcm(*(c.denominator for _, _, c in terms))
    coef = [[0] * rank for _ in range(rank)]
    for i, j, c in terms:
        coef[i][j] = c.numerator * (scale // c.denominator)
    return scale, coef


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


def _check_int64(coef: list[list[int]], bounds: list[int]) -> None:
    """Raise SweepOverflowError unless sum_ij |c_ij| b_i b_j < 2^63.

    Each term c_ij x_i x_j is at most |c_ij| b_i b_j in the box, so the sum
    bounds every partial sum of the sweep, and every value of a fibre at a
    box point.  It also bounds every coefficient c_ij whose b_i and b_j are
    both nonzero.
    """
    reach = sum(
        abs(c) * bi * bj for row, bi in zip(coef, bounds) for c, bj in zip(row, bounds)
    )
    if reach >= 1 << 63:
        raise SweepOverflowError(
            f"lattice sweep values reach {reach} >= 2^63 in the integer-scaled "
            "form; int64 cannot hold them"
        )


def _fibre_meets(
    const: np.ndarray, lin: np.ndarray, a: int, bound: int, cap: int
) -> np.ndarray:
    """Mask of the rows whose fibre q(t) = const + lin t + a t^2, t an
    integer of [-bound, bound], takes a value <= cap.

    q is convex, so its least value on those integers is q(t) or q(t + 1)
    for t = floor(v), the vertex v = -lin / (2 a), clipped to
    [-bound, bound - 1].  Both are box points, whose values _check_int64
    bounds, so the test is exact: it forms no lin^2 and keeps every row that
    holds a value <= cap.  a = 0 only where bound = 0, and then t = 0 alone.
    """
    if a == 0:
        return const <= cap
    # floor(floor(-lin / a) / 2) = floor(v)
    t = np.maximum(np.minimum(-lin // a // 2, bound - 1), -bound)
    slope = lin + a * t  # q(t) = const + slope t
    return const + np.minimum(slope * t, (slope + a) * (t + 1)) <= cap


def _value_counts(form: GramForm, n: int) -> np.ndarray:
    """counts[N] = #{v : q(v) = N} for 0 <= N <= n, by exact enumeration.

    The sweep runs over the box of the pairwise-reduced form: reduction is
    unimodular, so the counts are the form's own, and a skewed form sweeps
    the small box of its reduced form.
    """
    return _sweep(lagrange_reduce(form), n)


def _sweep(form: GramForm, n: int) -> np.ndarray:
    """The counts of _value_counts, swept over the box of the form as given.

    One vectorized pass over the rigorous box.  The form is scaled by the
    least s that makes its coefficients integers (s q = sum_{i <= j} c_ij
    x_i x_j, c_ij = 2 s g_ij off the diagonal), so s = 1 for every form with
    integer values and its values need no division.  The leading coordinates
    come from a flat index in blocks of about _BLOCK_POINTS box points; each
    leading row has a fibre const + lin t + c t^2 in the last coordinate t.
    A row whose fibre has no value <= s n on the integers of its range
    (_fibre_meets, an exact test) misses the ellipsoid and is dropped; the
    kept rows form their (rows x last coordinate) matrix of values, and
    np.bincount counts the ones that are <= s n and multiples of s.  The
    arithmetic is int64; _check_int64 rejects a box whose values could
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
    scale, coef = _integer_coefficients(form)
    bounds = _coordinate_bounds(form, n)
    # x_i = 0 all over the box when b_i = 0, so the terms of such an i drop out
    coef = [
        [c if bi and bj else 0 for c, bj in zip(row, bounds)]
        for row, bi in zip(coef, bounds)
    ]
    _check_int64(coef, bounds)
    cap = scale * n
    last = form.rank - 1
    a = coef[last][last]
    xs = np.arange(-bounds[last], bounds[last] + 1, dtype=np.int64)
    quad = a * xs * xs
    shape = tuple(2 * b + 1 for b in bounds[:last])
    total = math.prod(shape)
    step = max(1, _BLOCK_POINTS // len(xs))
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total), dtype=np.int64)
        lead = [c - b for c, b in zip(np.unravel_index(flat, shape), bounds)]
        const = np.zeros(len(flat), dtype=np.int64)
        lin = np.zeros(len(flat), dtype=np.int64)
        for i, xi in enumerate(lead):
            const += coef[i][i] * xi * xi
            for j in range(i + 1, last):
                const += coef[i][j] * xi * lead[j]
            lin += coef[i][last] * xi
        meets = _fibre_meets(const, lin, a, bounds[last], cap)
        q = const[meets, None] + lin[meets, None] * xs + quad
        vals = q[q <= cap]
        if scale > 1:
            vals = vals[vals % scale == 0] // scale
        counts += np.bincount(vals, minlength=n + 1)
    return counts


def represented_values(form: GramForm, n: int) -> set[int]:
    """Positive integers N <= n of the shape q(v), v a lattice vector."""
    if form.rank != 2:
        raise ValueError("represented_values applies to rank-2 forms")
    if n <= 0:
        return set()
    counts = _value_counts(form, n)
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
    conductor inside the field of the fundamental discriminant, and
    D = conductor^2 * fundamental_disc is the discriminant of that order.
    The End lattice carries the norm form of the order, x^2 + e xy +
    (e - D)/4 y^2 with e = D mod 2, whose Gram determinant is
    (e - D)/4 - e^2/4 = -D/4.  Each Hom lattice carries the scaled norm
    form of an ideal class, read off a reduced primitive form (a, b, c) of
    discriminant D, whose Gram determinant is ac - b^2/4 = -D/4 as well.
    So the inequality holds with equality against every class, and the
    answer is True once the input is valid.
    """
    if conductor < 1:
        raise UnsupportedConfigurationError("conductor must be >= 1")
    if not is_fundamental_discriminant(fundamental_disc):
        raise UnsupportedConfigurationError(
            f"{fundamental_disc} is not a fundamental imaginary quadratic discriminant"
        )
    return True
