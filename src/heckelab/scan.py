"""Point counts over prime fields and what the Frobenius traces reveal.

A curve y^2 = x^3 + a4 x + a6 over Q is reduced at each good prime p >= 5
and counted by a half-sweep over x = 1 .. (p - 1)/2 against tables built
once per prime (x^3 mod p and a doubled Legendre table), which the two
curves of a scan share.  Two reductions are geometrically isogenous exactly
when their Frobenius eigenvalue ratio is a root of unity, which a
trace-power match at some k <= 12 detects: the ratio lives in a degree <= 4
field, so its order n has phi(n) <= 4, i.e.
n in {1, 2, 3, 4, 5, 6, 8, 10, 12}.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .arith import is_fundamental_discriminant, is_prime, primes_up_to, split_discriminant

logger = logging.getLogger(__name__)


class BadReductionError(ValueError):
    """The curve does not reduce to an elliptic curve at this prime."""


class HasseBoundError(ValueError):
    """|a_p| > 2 sqrt(p) cannot come from an elliptic curve."""


class MismatchedPrimeError(ValueError):
    """Trace records at different primes cannot be compared."""


@dataclass(frozen=True)
class CurveQ:
    """Short Weierstrass y^2 = x^3 + a4 x + a6 over Q."""

    a4: Fraction
    a6: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a4", Fraction(self.a4))
        object.__setattr__(self, "a6", Fraction(self.a6))
        if 4 * self.a4**3 + 27 * self.a6**2 == 0:
            raise ValueError("singular curve: 4 a4^3 + 27 a6^2 = 0")


@dataclass(frozen=True)
class Supersingular:
    pass


@dataclass(frozen=True)
class Ordinary:
    cm_fundamental_disc: int
    conductor: int


@dataclass(frozen=True)
class TraceRecord:
    p: int
    a_p: int
    classification: "Supersingular | Ordinary"

    def __post_init__(self) -> None:
        if self.a_p * self.a_p > 4 * self.p:
            raise HasseBoundError(f"|{self.a_p}| > 2 sqrt({self.p})")
        if isinstance(self.classification, Supersingular) != (self.a_p == 0):
            raise ValueError("supersingular iff a_p = 0 (p >= 5)")
        if isinstance(self.classification, Ordinary):
            c = self.classification
            if c.conductor**2 * c.cm_fundamental_disc != self.a_p**2 - 4 * self.p:
                raise ValueError("conductor^2 d_K != a_p^2 - 4p")


class ScanHit(NamedTuple):
    p: int
    k: int
    left: TraceRecord
    right: TraceRecord


def _reduce_mod(x: Fraction, p: int) -> int:
    if x.denominator % p == 0:
        raise BadReductionError(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


# Every value the tables and the half-sweep form fits in int32 below this
# bound.  With h = (p - 1)/2 and x <= h, the largest is the unreduced
# x^3 mod p + a x <= (p - 1) + (p - 1) h = (p - 1)(h + 1) = (p^2 - 1)/2; x^2
# and (x^2 mod p) x are smaller.  (p^2 - 1)/2 < 2^31 exactly when
# p^2 <= 2^32, i.e. p < 2^16 for odd p.  At larger p the tables are int64,
# which holds (p^2 - 1)/2 for every p < 2^32, far past any prime a sweep can
# reach.
_INT32_BELOW = 1 << 16


class _PrimeTables(NamedTuple):
    x: np.ndarray  # 1 .. (p - 1)/2
    cube: np.ndarray  # x^3 mod p
    chi2: np.ndarray  # chi2[v] = Legendre symbol (v/p) for v in [0, 2p), int64


# A scan counts both curves at p one after the other, so the tables are
# built once per prime and only the last few primes are worth keeping.
@lru_cache(maxsize=2)
def _prime_tables(p: int) -> _PrimeTables:
    x = np.arange(1, (p - 1) // 2 + 1, dtype=np.int32 if p < _INT32_BELOW else np.int64)
    sq = x * x
    sq -= sq // p * p  # the nonzero squares mod p, each once
    cube = sq * x
    cube -= cube // p * p
    chi = np.full(p, -1, dtype=np.int64)
    chi[sq] = 1
    chi[0] = 0
    return _PrimeTables(x, cube, np.concatenate((chi, chi)))


# A record takes 0.4-0.6 KB, so the cache stays below about 10 MB.  One scan
# command (scan_pair, then coincidence_statistic over the same primes) reads
# 2 pi(p_max) records, which still fit up to p_max ~ 8e4.
@lru_cache(maxsize=1 << 14)
def _counted(a4: Fraction, a6: Fraction, p: int) -> TraceRecord:
    a = _reduce_mod(a4, p)
    b = _reduce_mod(a6, p)
    if (4 * a * a % p * a + 27 * b * b) % p == 0:
        raise BadReductionError(f"discriminant vanishes mod {p}")
    x, cube, chi2 = _prime_tables(p)
    g = cube + a * x
    g -= g // p * p  # g(x) mod p; NumPy divides by a scalar faster than %
    a_p = -(
        int(chi2[b])
        + int(chi2.take(b + g).sum())
        + int(chi2.take((p + b) - g).sum())
    )
    if a_p == 0:
        cls: Supersingular | Ordinary = Supersingular()
    else:
        conductor, d_k = split_discriminant(a_p * a_p - 4 * p)
        cls = Ordinary(cm_fundamental_disc=d_k, conductor=conductor)
    return TraceRecord(p=p, a_p=a_p, classification=cls)


def count_points(curve: CurveQ, p: int) -> TraceRecord:
    """a_p = p + 1 - |E(F_p)|, with classification.

    With f(x) = x^3 + a x + b = b + g(x) and g odd, f(-x) = b - g(x), so
    a_p = -sum_x chi(f(x)) pairs x with -x:

        a_p = -(chi(b) + sum_{x=1}^{(p-1)/2} [chi(b + g(x)) + chi(b - g(x))]).

    One remainder g(x) mod p serves both terms, which are read from the
    doubled Legendre table at b + g and p + b - g.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime p >= 5, got {p}")
    return _counted(curve.a4, curve.a6, p)


def trace_power(a_p: int, p: int, k: int) -> int:
    """a_{p^k} from a_{k+1} = a_p a_k - p a_{k-1}, a_0 = 2.

    p may be a prime power here (the recurrence only sees the Weil number),
    which is what the power-consistency identity exercises.
    """
    if a_p * a_p > 4 * p:
        raise HasseBoundError(f"|{a_p}| > 2 sqrt({p})")
    if k < 1:
        raise ValueError("k must be positive")
    prev, cur = 2, a_p
    for _ in range(k - 1):
        prev, cur = cur, a_p * cur - p * prev
    return cur


def geom_isogenous(left: TraceRecord, right: TraceRecord) -> Optional[int]:
    """Minimal k <= 12 with a_{p^k} equal on both sides, else None."""
    if left.p != right.p:
        raise MismatchedPrimeError(f"records at p={left.p} and p={right.p}")
    for k in range(1, 13):
        if trace_power(left.a_p, left.p, k) == trace_power(right.a_p, right.p, k):
            return k
    return None


def scan_pair(
    left: CurveQ, right: CurveQ, p_min: int, p_max: int
) -> list[ScanHit]:
    """All geometric-isogeny hits over good primes in [p_min, p_max]."""
    if not 5 <= p_min <= p_max:
        raise ValueError("need 5 <= p_min <= p_max")
    hits = []
    for p in primes_up_to(p_max):
        if p < p_min:
            continue
        try:
            lrec = count_points(left, p)
            rrec = count_points(right, p)
        except BadReductionError as exc:
            logger.info("skipping p=%d: %s", p, exc)
            continue
        k = geom_isogenous(lrec, rrec)
        if k is not None:
            hits.append(ScanHit(p=p, k=k, left=lrec, right=rrec))
    return hits


def cm_field_hits(
    curve: CurveQ, d_k: int, p_min: int, p_max: int
) -> list[int]:
    """Good primes where the reduction is ordinary with CM field of the
    given fundamental discriminant."""
    if not is_fundamental_discriminant(d_k):
        raise ValueError(f"{d_k} is not a fundamental imaginary quadratic discriminant")
    if not 5 <= p_min <= p_max:
        raise ValueError("need 5 <= p_min <= p_max")
    out = []
    for p in primes_up_to(p_max):
        if p < p_min:
            continue
        try:
            rec = count_points(curve, p)
        except BadReductionError as exc:
            logger.info("skipping p=%d: %s", p, exc)
            continue
        cls = rec.classification
        if isinstance(cls, Ordinary) and cls.cm_fundamental_disc == d_k:
            out.append(p)
    return out


class CoincidenceStat(NamedTuple):
    observed: int
    heuristic: float


def coincidence_statistic(
    left: CurveQ, right: CurveQ, p_max: int
) -> CoincidenceStat:
    """observed = #{good p <= p_max : a_p agrees}; heuristic = c sum 1/sqrt(p)
    with c calibrated on the first half of the range."""
    if p_max < 5:
        raise ValueError("need p_max >= 5")
    half = p_max // 2
    observed = 0
    obs_half = 0
    s_full = 0.0
    s_half = 0.0
    for p in primes_up_to(p_max):
        if p < 5:
            continue
        s_full += 1 / math.sqrt(p)
        if p <= half:
            s_half += 1 / math.sqrt(p)
        try:
            match = count_points(left, p).a_p == count_points(right, p).a_p
        except BadReductionError:
            continue
        if match:
            observed += 1
            if p <= half:
                obs_half += 1
    scale = obs_half / s_half if obs_half and s_half else 1.0
    return CoincidenceStat(observed=observed, heuristic=scale * s_full)
