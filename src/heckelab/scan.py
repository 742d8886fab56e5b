"""Point counts over prime fields and what the Frobenius traces reveal.

A curve y^2 = x^3 + a4 x + a6 over Q is reduced at each good prime p >= 5.
A reduction with b = 0 (j = 1728) or a = 0 (j = 0) has CM by Z[i], resp.
Z[omega], and its a_p is read in closed form off the primary prime pi over
p there (Gauss and Jacobi via Jacobi sums: Ireland-Rosen, GTM 84, Ch. 18):
0 at the primes inert in the CM field, otherwise 2 Re(conj(chi) pi) for
y^2 = x^3 - D x with pi = 1 (mod 2 + 2i) and chi = (D/pi)_4, and
-Tr(conj(chi) pi) for y^2 = x^3 + D with pi = 2 (mod 3) and
chi = (4D/pi)_6; pi comes from Cornacchia's algorithm.  The choice rests on
the reduced curve alone, so it serves any curve at a prime dividing a4 or
a6.  Every other reduction, ab != 0, is the quadratic twist by b/a of
y^2 = x^3 + t x + t with t = a^3/b^2, the curve of its j mod p, so its a_p
is (ab/p) times that curve's (Silverman, AEC, Sec. X.5).  That a_p is
counted by a half-sweep over x = 1 .. (p - 1)/2 against tables built once
per prime (x^2 mod p and a doubled Legendre table), and kept for the last
two (t, p): the two curves of a twist pair share one sweep at each prime,
those of any other pair share the tables.  The half-sweep of the curve
itself is the tests' oracle of the closed forms and of the twist.

Two reductions are geometrically isogenous exactly when their Frobenius
eigenvalue ratio is a root of unity, which a trace-power match at some
k <= 12 detects: the ratio lives in a degree <= 4 field, so its order n
has phi(n) <= 4, i.e. n in {1, 2, 3, 4, 5, 6, 8, 10, 12}.  A coincidence
a_p(E) = a_p(E') is the k = 1 case, so the coincidence statistic is read
off the hits of a scan: each record of a scan is counted once, and none is
kept after it.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

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


# Every value the tables and the half-sweep form fits in int32 below this
# bound.  With h = (p - 1)/2 and x <= h, the largest is the unreduced
# g = x (x^2 mod p + a) <= h (2p - 2) = (p - 1)^2; x^2 is smaller, and the
# Legendre table is read at b + g and p + b - g after g is reduced, both
# below 2p.  (p - 1)^2 < 2^31 exactly when p - 1 <= 46340 (46340^2 =
# 2147395600), so every p below the bound is safe.  At larger p the tables
# are int64, which holds (p - 1)^2 for every p < 2^32, far past any prime a
# sweep can reach.
_INT32_BELOW = 46341


class _PrimeTables(NamedTuple):
    x: np.ndarray  # 1 .. (p - 1)/2
    sq: np.ndarray  # x^2 mod p
    chi2: np.ndarray  # chi2[v] = Legendre symbol (v/p) for v in [0, 2p), int8


# A scan counts both curves at p one after the other, so the tables are
# built once per prime and only the last few primes are worth keeping.
@lru_cache(maxsize=2)
def _prime_tables(p: int) -> _PrimeTables:
    x = np.arange(1, (p - 1) // 2 + 1, dtype=np.int32 if p < _INT32_BELOW else np.int64)
    sq = x * x
    sq -= sq // p * p  # the nonzero squares mod p, each once
    chi2 = np.full(2 * p, -1, dtype=np.int8)
    chi2[sq.astype(np.intp)] = 1  # NumPy scatters at intp indices fastest
    chi2[0] = 0
    chi2[p:] = chi2[:p]
    return _PrimeTables(x, sq, chi2)


def _half_sweep(a: int, b: int, p: int) -> int:
    """a_p of y^2 = x^3 + a x + b over F_p by the half-sweep (see
    count_points), for every curve; the tests' oracle of the closed forms
    and of the twist by b/a."""
    x, sq, chi2 = _prime_tables(p)
    g = (sq + a) * x
    g -= g // p * p  # g(x) mod p; NumPy divides by a scalar faster than %
    return -(
        int(chi2[b])
        + int(chi2.take(b + g).sum())
        + int(chi2.take((p + b) - g).sum())
    )


# Both curves of a twist pair have the same j, hence the same t, at every
# prime and are counted at p one after the other, so the sweeps of the last
# two (t, p) are kept, as the tables are.
@lru_cache(maxsize=2)
def _sweep_of_j(t: int, p: int) -> tuple[int, "Supersingular | Ordinary"]:
    """a_p of y^2 = x^3 + t x + t, the curve with t = 27 j/(4 (1728 - j)),
    and its classification, which every twist shares (a_p^2 is the same)."""
    a_p = _half_sweep(t, t, p)
    if a_p == 0:
        return 0, Supersingular()
    conductor, d_k = split_discriminant(a_p * a_p - 4 * p)
    return a_p, Ordinary(cm_fundamental_disc=d_k, conductor=conductor)


def _cornacchia(d: int, p: int, root: int) -> tuple[int, int]:
    """(x, y) with x^2 + d y^2 = p, from a root of root^2 = -d (mod p).

    Cornacchia's algorithm: Euclid's remainders of p and root, from the
    root below p/2, down to the first below sqrt(p).  d = 1 and 3 have class
    number one, so every prime p = 1 mod 4, resp. mod 3, is reached; a
    wrong pair would fail the Hasse and conductor checks of TraceRecord.
    """
    limit = math.isqrt(p)
    a, b = p, min(root, p - root)
    while b > limit:
        a, b = b, a % b
    return b, math.isqrt((p - b * b) // d)


def _gaussian_prime(p: int) -> tuple[int, int, int]:
    """(alpha, beta, u) for a prime p = 1 (mod 4): pi = alpha + beta i is
    primary, pi = 1 (mod 2 + 2i), with p = pi conj(pi), and u is -i mod pi,
    i.e. alpha/beta mod p."""
    c = 2
    while (root := pow(c, (p - 1) // 4, p)) * root % p != p - 1:
        c += 1  # c^((p-1)/4) is a square root of -1 once c is a non-residue
    alpha, beta = _cornacchia(1, p, root)
    if alpha % 2 == 0:
        alpha, beta = beta, alpha
    if (alpha - beta - 1) % 4:  # primary: beta even, alpha = 1 + beta (mod 4)
        alpha, beta = -alpha, -beta
    return alpha, beta, alpha * pow(beta, -1, p) % p


def _eisenstein_prime(p: int) -> tuple[int, int, int]:
    """(A, B, u) for a prime p = 1 (mod 3): pi = A + B omega is primary,
    pi = 2 (mod 3), with p = pi conj(pi), and u is zeta^-1 = -omega mod pi,
    i.e. A/B mod p, for the sixth root of unity zeta = 1 + omega."""
    c = 2
    while (w := pow(c, (p - 1) // 3, p)) == 1:
        c += 1  # w is a primitive cube root of 1 once c is a non-cube
    x, y = _cornacchia(3, p, (2 * w + 1) % p)  # (2w + 1)^2 = -3
    big_a, big_b = x + y, 2 * y  # x + y sqrt(-3), as sqrt(-3) = 1 + 2 omega
    while big_a % 3 != 2 or big_b % 3:
        big_a, big_b = big_a - big_b, big_a  # times zeta: the six associates
    return big_a, big_b, big_a * pow(big_b, -1, p) % p


def _j1728_record(d: int, p: int) -> TraceRecord:
    """The record of y^2 = x^3 - d x, d != 0 mod p.

    a_p = 0 at p = 3 (mod 4).  Otherwise a_p = chi conj(pi) + conj(chi) pi
    = 2 Re(conj(chi) pi) with chi = (d/pi)_4 = d^((p-1)/4) mod pi
    (Ireland-Rosen, GTM 84, Ch. 18, Sec. 4, Thm. 5).  chi = i^k is read
    off by dividing out i while multiplying pi by -i = conj(i).
    """
    if p % 4 == 3:
        return TraceRecord(p, 0, Supersingular())
    alpha, beta, u = _gaussian_prime(p)
    chi = pow(d, (p - 1) // 4, p)
    while chi != 1:
        chi, alpha, beta = chi * u % p, beta, -alpha
    # a_p^2 - 4p = -4 beta^2
    return TraceRecord(p, 2 * alpha, Ordinary(cm_fundamental_disc=-4, conductor=abs(beta)))


def _j0_record(d: int, p: int) -> TraceRecord:
    """The record of y^2 = x^3 + d, d != 0 mod p.

    a_p = 0 at p = 2 (mod 3).  Otherwise a_p = -(chi conj(pi) + conj(chi)
    pi) = -Tr(conj(chi) pi) with chi = (4d/pi)_6 = (4d)^((p-1)/6) mod pi
    (Ireland-Rosen, GTM 84, Ch. 18, Sec. 3, Thm. 4), and Tr(A + B omega)
    = 2A - B.  chi = zeta^k is read off by dividing out zeta while
    multiplying pi by zeta^-1 = -omega.
    """
    if p % 3 == 2:
        return TraceRecord(p, 0, Supersingular())
    big_a, big_b, u = _eisenstein_prime(p)
    chi = pow(4 * d, (p - 1) // 6, p)
    while chi != 1:
        chi, big_a, big_b = chi * u % p, big_b, big_b - big_a
    # a_p^2 - 4p = -3 B^2
    return TraceRecord(
        p, big_b - 2 * big_a, Ordinary(cm_fundamental_disc=-3, conductor=abs(big_b))
    )


def _coefficients(curve: CurveQ) -> tuple[int, int, int, int]:
    """The numerators and denominators of a4 and a6, read once per curve."""
    return curve.a4.numerator, curve.a4.denominator, curve.a6.numerator, curve.a6.denominator


def _reduce_mod(num: int, den: int, p: int) -> int:
    if den == 1:
        return num % p
    if den % p == 0:
        raise BadReductionError(f"denominator of {num}/{den} vanishes mod {p}")
    return num * pow(den, -1, p) % p


def _record(coefficients: tuple[int, int, int, int], p: int) -> TraceRecord:
    """The record at a prime p >= 5 of the curve whose a4 and a6 have these
    numerators and denominators (_coefficients): the one per-prime path of
    count_points, which checks p first, and of a scan, whose p come from the
    sieve."""
    num4, den4, num6, den6 = coefficients
    a = _reduce_mod(num4, den4, p)
    b = _reduce_mod(num6, den6, p)
    if (4 * a * a % p * a + 27 * b * b) % p == 0:
        raise BadReductionError(f"discriminant vanishes mod {p}")
    if b == 0:
        return _j1728_record(p - a, p)
    if a == 0:
        return _j0_record(b, p)
    # the twist by b/a of y^2 = x^3 + t x + t, t = a^3/b^2; its a_p carries
    # (b/a / p) = (ab/p), read by Euler's criterion
    a_p, classification = _sweep_of_j(a * a % p * a * pow(b, -2, p) % p, p)
    if pow(a * b, (p - 1) // 2, p) != 1:
        a_p = -a_p
    return TraceRecord(p, a_p, classification)


def count_points(curve: CurveQ, p: int) -> TraceRecord:
    """a_p = p + 1 - |E(F_p)|, with classification.

    When the reduction has b = 0 (j = 1728) or a = 0 (j = 0), a_p is read
    off the primary prime over p in Z[i] or Z[omega] (_j1728_record,
    _j0_record), and is 0 at the primes inert there.  Every other curve
    takes (ab/p) times a_p of y^2 = x^3 + t x + t, t = a^3/b^2, which is
    counted by a half-sweep: with f(x) = x^3 + a x + b = b + g(x) and g
    odd, f(-x) = b - g(x), so a_p = -sum_x chi(f(x)) pairs x with -x:

        a_p = -(chi(b) + sum_{x=1}^{(p-1)/2} [chi(b + g(x)) + chi(b - g(x))]).

    One remainder g(x) mod p serves both terms, which are read from the
    doubled Legendre table at b + g and p + b - g.
    """
    if not (p >= 5 and is_prime(p)):
        raise ValueError(f"need a prime p >= 5, got {p}")
    return _record(_coefficients(curve), p)


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
    """Minimal k <= 12 with a_{p^k} equal on both sides, else None.

    Both trace_power recurrences are stepped together, one k at a time.
    At p >= 5, records of different kinds never match, so they return None
    first: a_{p^k} = a_p^k (mod p) is 0 for a supersingular record and not
    for an ordinary one, and an ordinary pi^k is never rational, so it
    generates Q(pi) and two ordinary records can match only when their
    cm_fundamental_disc is equal.  At p = 2 and 3 a_p = 0 does not mark the
    supersingular records (a_p = 2 against 0 at p = 2 match at k = 8), so
    there the recurrences always run.
    """
    if left.p != right.p:
        raise MismatchedPrimeError(f"records at p={left.p} and p={right.p}")
    l_kind, r_kind = left.classification, right.classification
    if left.p >= 5 and (
        type(l_kind) is not type(r_kind)
        or (
            isinstance(l_kind, Ordinary)
            and l_kind.cm_fundamental_disc != r_kind.cm_fundamental_disc
        )
    ):
        return None
    p, a_l, a_r = left.p, left.a_p, right.a_p
    l_prev, l_k, r_prev, r_k = 2, a_l, 2, a_r
    for k in range(1, 13):
        if l_k == r_k:
            return k
        l_prev, l_k = l_k, a_l * l_k - p * l_prev
        r_prev, r_k = r_k, a_r * r_k - p * r_prev
    return None


def _records(
    curves: tuple[CurveQ, ...], p_min: int, p_max: int
) -> Iterator[tuple[int, list[TraceRecord]]]:
    """(p, the records of the curves at p) for each prime p of [p_min,
    p_max] where every curve has good reduction."""
    if not 5 <= p_min <= p_max:
        raise ValueError("need 5 <= p_min <= p_max")
    coefficients = [_coefficients(curve) for curve in curves]
    primes = primes_up_to(p_max)
    for p in primes[bisect_left(primes, p_min) :]:
        try:
            records = [_record(c, p) for c in coefficients]
        except BadReductionError as exc:
            logger.info("skipping p=%d: %s", p, exc)
            continue
        yield p, records


def scan_pair(
    left: CurveQ, right: CurveQ, p_min: int, p_max: int
) -> list[ScanHit]:
    """All geometric-isogeny hits over good primes in [p_min, p_max]."""
    hits = []
    for p, (lrec, rrec) in _records((left, right), p_min, p_max):
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
    return [
        p
        for p, (rec,) in _records((curve,), p_min, p_max)
        if isinstance(rec.classification, Ordinary)
        and rec.classification.cm_fundamental_disc == d_k
    ]


class CoincidenceStat(NamedTuple):
    observed: int
    heuristic: float


def _coincidences(hits: list[ScanHit], p_max: int) -> CoincidenceStat:
    """The coincidence statistic of a pair, read off its scan_pair hits over
    [5, p_max]: a_p agrees exactly where geom_isogenous finds k = 1."""
    half = p_max // 2
    s_full = 0.0
    s_half = 0.0
    for p in primes_up_to(p_max)[2:]:
        s_full += 1 / math.sqrt(p)
        if p <= half:
            s_half += 1 / math.sqrt(p)
    matches = [h.p for h in hits if h.k == 1]
    obs_half = sum(p <= half for p in matches)
    scale = obs_half / s_half if obs_half and s_half else 1.0
    return CoincidenceStat(observed=len(matches), heuristic=scale * s_full)


def coincidence_statistic(
    left: CurveQ, right: CurveQ, p_max: int
) -> CoincidenceStat:
    """observed = #{good p <= p_max : a_p agrees}; heuristic = c sum 1/sqrt(p)
    over all primes 5 <= p <= p_max, with c calibrated on the first half of
    the range."""
    return _coincidences(scan_pair(left, right, 5, p_max), p_max)
