"""CM points as fixed points of integral matrices.

A point tau with an integral matrix of determinant M fixing it generates an
imaginary quadratic order; everything here is exact integer arithmetic about
traces and discriminants, plus controlled floating point for the j-values.
The density experiment at the end probes how rarely a Hecke orbit of a
non-CM point lands within N^-D of a fixed target.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from mpmath import mp, mpf

from .arith import is_prime, split_discriminant
from .hecke import HeckeOrbit
from .numerics import (
    DEFAULT_PRECISION,
    ModularMatrix,
    Precision,
    UpperHalfPoint,
    eval_j,
)

logger = logging.getLogger(__name__)


class ScalarMatrixError(ValueError):
    """A homothety has no isolated fixed point in H."""


class DegenerateSetError(ValueError):
    """All supplied points share a single j-value."""


@dataclass(frozen=True)
class CmPoint:
    matrix: ModularMatrix
    trace: int
    tau0: UpperHalfPoint
    conductor: int
    fundamental_disc: int
    M: int

    def __post_init__(self) -> None:
        m = self.matrix
        if m.b == 0 and m.c == 0 and m.a == m.d:
            raise ScalarMatrixError("matrix is a homothety")
        if m.det() != self.M:
            raise ValueError("matrix determinant does not match M")
        if m.a + m.d != self.trace:
            raise ValueError("matrix trace mismatch")
        if self.trace * self.trace >= 4 * self.M:
            raise ValueError("need t^2 < 4M for a fixed point in H")
        if self.conductor**2 * self.fundamental_disc != self.trace**2 - 4 * self.M:
            raise ValueError("conductor/fundamental_disc do not rebuild t^2 - 4M")


class ConditionPVerdict(NamedTuple):
    N: int
    p: int
    satisfies: bool


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"condition (P) needs a prime p, got {p}")


def condition_p(N: int, p: int) -> ConditionPVerdict:
    """Whether N avoids the squares modulo p (p odd), or N = 3 mod 4 (p = 2).

    Zero counts as a square, so satisfying N are automatically prime to p.
    Raises ValueError unless N >= 1 and p is prime.
    """
    if N < 1:
        raise ValueError("N must be positive")
    _check_prime(p)
    if p == 2:
        satisfies = N % 4 == 3
    else:
        # Euler's criterion: N^((p-1)/2) = -1 mod p exactly for the non-squares
        satisfies = pow(N, (p - 1) // 2, p) == p - 1
    return ConditionPVerdict(N=N, p=p, satisfies=satisfies)


def order_index(t: int, N: int) -> tuple[int, int]:
    """Write t^2 - 4N = f^2 d_K; f is the index of Z[alpha] in the maximal
    order, alpha a root of x^2 - tx + N."""
    disc = t * t - 4 * N
    if disc >= 0:
        raise ValueError(f"t^2 - 4N = {disc} is not negative")
    return split_discriminant(disc)


def condition_p_lemma_check(p: int, n_max: int) -> bool:
    """For every N <= n_max satisfying condition (P) at p and every trace t
    with t^2 < 4N, the order index f of t^2 - 4N = f^2 d_K is prime to p.

    The answer is a closed form.  At an odd p, p | f needs p^2 | 4N - t^2,
    so t^2 = 4N mod p and N is a square mod p, which condition (P)
    excludes: the lemma holds.  At p = 2 condition (P) is N = 3 mod 4, and
    its least N, 3, fails at t = 0: 0 - 12 = 2^2 (-3), f = 2.  So the
    answer is False exactly when p = 2 and n_max >= 3, and that first
    failure of the (N, t) loop is split by order_index and logged.  Raises
    ValueError unless p is prime.
    """
    _check_prime(p)
    if p != 2 or n_max < 3:
        return True
    N, t = 3, 0
    f, d_k = order_index(t, N)
    logger.warning("index divisible by p: N=%d t=%d f=%d d_K=%d", N, t, f, d_k)
    return False


def fixed_point(
    matrix: ModularMatrix, prec: Precision = DEFAULT_PRECISION
) -> CmPoint | None:
    """The fixed point of the matrix in H, or None when t^2 >= 4 det."""
    if matrix.b == 0 and matrix.c == 0 and matrix.a == matrix.d:
        raise ScalarMatrixError("matrix is a homothety")
    m = matrix.det()
    if m <= 0:
        raise ValueError("determinant must be positive")
    t = matrix.a + matrix.d
    if t * t >= 4 * m:
        return None
    # c = 0 would force t^2 - 4m = (a - d)^2 >= 0, so c != 0 here
    f, d_k = split_discriminant(t * t - 4 * m)
    with mp.workprec(prec.wp):
        re = mpf(matrix.a - matrix.d) / (2 * matrix.c)
        im = mp.sqrt(4 * m - t * t) / (2 * abs(matrix.c))
        tau0 = UpperHalfPoint(re, im)
    return CmPoint(
        matrix=matrix,
        trace=t,
        tau0=tau0,
        conductor=f,
        fundamental_disc=d_k,
        M=m,
    )


def enumerate_cm_points(
    m_max: int, prec: Precision = DEFAULT_PRECISION
) -> list[CmPoint]:
    """One canonical point per CM j-value arising from a self-isogeny of
    degree at most m_max: the fixed points of the companion matrices
    (0, -M; 1, t), t = 0 and 1, for M = 1..m_max, in that order.

    (0, -M; 1, t) fixes the root of x^2 + t xy + M y^2, the principal form
    of discriminant D = t^2 - 4M, so its j-value is j of the order of
    discriminant D: equal D gives equal j, and distinct D distinct j.  Each
    D with t^2 < 4M first appears at t = 0 or 1: a larger t repeats the D
    of (M - t + 1, t - 2).  The fixed point (-t + i sqrt(4M - t^2))/2
    already lies in the fundamental domain, with |Re| <= 1/2 and
    |tau|^2 = M, so no point needs a reduction.
    """
    if m_max < 2:
        raise ValueError("need m_max >= 2")
    return [
        fixed_point(ModularMatrix(0, -m, 1, t), prec)
        for m in range(1, m_max + 1)
        for t in (0, 1)
    ]


def min_separation_constant(
    points: Sequence[CmPoint],
    j_box_bound: float,
    prec: Precision = DEFAULT_PRECISION,
) -> float:
    """min over distinct pairs of |j1 - j2| sqrt(M1 M2) (sqrt(M1) + sqrt(M2))
    among points with |j| <= j_box_bound, with j at prec."""
    with mp.workprec(prec.wp):
        tagged = []
        for p in points:
            jval = eval_j(p.tau0, prec)
            if abs(jval) <= j_box_bound:
                tagged.append((jval, p.M))
        if len(tagged) < 2:
            raise DegenerateSetError("need at least two points inside the box")
        best = None
        for i, (j1, m1) in enumerate(tagged):
            for j2, m2 in tagged[i + 1 :]:
                gap = abs(j1 - j2)
                if gap <= 2**20 * prec.resolution(j1):
                    continue
                val = gap * mp.sqrt(m1 * m2) * (mp.sqrt(m1) + mp.sqrt(m2))
                if best is None or val < best:
                    best = val
        if best is None:
            raise DegenerateSetError("all points share one j-value")
        return float(best)


class DensityPoint(NamedTuple):
    n: int
    # an mpf at working precision: it may lie beyond the float64 range
    best_distance: mpf


def density_experiment(
    y_tau: UpperHalfPoint,
    z,
    d_exp: int,
    n_max: int,
    prec: Precision = DEFAULT_PRECISION,
) -> list[DensityPoint]:
    """For each N <= n_max, the smallest |j(alpha) - z| over the order-N
    orbit of y_tau.  N belongs to the near-miss set when that distance is
    at most N^-d_exp; see density_fraction.

    OrbitScreen.nearest picks the points whose distance may be the smallest
    under the j bounds it forms; only those are evaluated exactly.
    """
    if d_exp < 1:
        raise ValueError("need D >= 1")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    out = []
    with mp.workprec(prec.wp):
        zc = mp.mpc(z)
        for n in range(1, n_max + 1):
            orbit = HeckeOrbit(y_tau, n, prec)
            best = min(
                abs(orbit.points[i].j - zc) for i in orbit.screen.nearest(zc)
            )
            out.append(DensityPoint(n=n, best_distance=best))
    return out


def density_fraction(points: Sequence[DensityPoint], d_exp: int) -> float:
    """|{N <= n_max : best_distance <= N^-D}| / n_max.  Each distance is
    compared exactly, its mantissa and exponent against N^-D in integers,
    so neither side can underflow; a nan or infinite distance is no hit."""
    if d_exp < 1:
        raise ValueError("need D >= 1")
    if not points:
        raise ValueError("empty experiment")
    hits = 0
    for p in points:
        d = p.best_distance if isinstance(p.best_distance, mpf) else mpf(p.best_distance)
        if mp.isfinite(d):
            sign, man, exp, _ = d._mpf_  # d = (-1)^sign man 2^exp
            left = man * p.n**d_exp  # d <= N^-D  <=>  man 2^exp N^D <= 1
            hits += bool(sign) or (left << exp <= 1 if exp >= 0 else left <= 1 << -exp)
    return hits / len(points)
