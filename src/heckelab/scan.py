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
E_t: y^2 = x^3 + t x + t with t = a^3/b^2, the curve of its j mod p, so its
a_p is (ab/p) times that of E_t (Silverman, AEC, Sec. X.5).

A scan classifies every curve at every prime first, and then counts the a_p
of all its distinct (t, p), its lanes, in one NumPy pass (_bsgs_traces):
Shanks-Mestre baby-step giant-step on the x-line, which serves E_t and its
twist alike, over blocks of lanes of like p.  It accepts a lane only when
exactly one order in the Hasse interval kills its point, which is then the
order of the curve through it, so every accepted a_p is exact.  The lanes
it declines, and all p >= 2^31, where its int64 arithmetic could overflow,
take the half-sweep, which also serves count_points: a sum over x = 1 ..
(p - 1)/2 against tables built once per prime (x^2 mod p and a doubled
Legendre table).  The two curves of a twist pair share one lane at each
prime.  The half-sweep of the curve itself is the tests' oracle of the
kernel, of the closed forms and of the twist.

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


# A scan sweeps the lanes the kernel declines in order of p, and a pair's
# count_points calls come at one p after the other, so the tables are built
# once per prime and only the last few primes are worth keeping.
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


# -- the traces of many y^2 = x^3 + t x + t at once -------------------------
#
# Every lane (t, p) of _bsgs_traces is one curve E_t over one F_p, and every
# array holds one int64 per lane (a row per step for the 2-D ones).  A point
# of the Kummer line x(E) = P^1 is a pair (X, Z) of residues in [0, p), with
# O = (1 : 0); each formula below reduces a product before it forms the next.

# Every value the kernel forms fits in int64 below this bound.  The largest
# is X_P Z_Q + X_Q Z_P < 2 (p - 1)^2 in _x_add; every other sum or difference
# of two products is below (p - 1)^2 in size, and the keys of the match,
# (lane (p_max + 1) + x)(m + 1) + j, are below 2^16 (p_max + 1), as a block
# has fewer than 2^16 / (m + 1) lanes.  2 (p - 1)^2 < 2^63 for every p below
# 2^31, and 2 (2^31 - 1)^2 is the largest value at the largest such prime.
_INT64_BELOW = 2**31

# No 2-D array of the kernel holds more int64 than this (1 MiB): a block of
# lanes has at most _BLOCK_ELEMENTS // (2 m + 4) lanes for its m (_baby_steps).
_BLOCK_ELEMENTS = 2**17


def _pow_mod(base: np.ndarray, exponent: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^exponent mod p, lane by lane, by square and multiply."""
    result = np.ones_like(base)
    for bit in range(int(exponent.max()).bit_length() - 1, -1, -1):
        result = result * result % p
        result = np.where((exponent >> bit) & 1 == 1, result * base % p, result)
    return result


def _x_add(left, right, diff, t, p):
    """x(P + Q) from x(P), x(Q) and x(P - Q) on y^2 = x^3 + t x + t:
    x(P + Q) x(P - Q) = ((x_P x_Q - t)^2 - 4 t (x_P + x_Q)) / (x_P - x_Q)^2,
    in (X : Z).  Exact when x(P - Q) is neither O nor 0; O is a valid P or
    Q, and P = -Q gives O."""
    (xp, zp), (xq, zq), (xd, zd) = left, right, diff
    xz = xp * zq
    zx = xq * zp
    tz = t * (zp * zq % p) % p
    u = (xp * xq - tz) % p
    w = 4 * tz % p * ((xz + zx) % p)
    d = (xz - zx) % p
    return (u * u - w) % p * zd % p, d * d % p * xd % p


def _x_double(point, t, p):
    """x(2P) = ((x^2 - t)^2 - 8 t x) / (4 (x^3 + t x + t)) in (X : Z); O and
    the points of order 2 give O."""
    x, z = point
    xx = x * x % p
    tz = t * (z * z % p) % p
    u = (xx - tz) % p
    big_x = (u * u - 8 * tz % p * (x * z % p)) % p
    cubic = (x * ((xx + tz) % p) + tz * z) % p  # X^3 + t X Z^2 + t Z^3
    return big_x, 4 * (z * cubic % p) % p


def _baby_steps(radius: int) -> int:
    """m, the baby steps for Hasse intervals of half-width up to radius: a
    giant step covers 2 m + 1 orders, and about sqrt(2 radius) balances
    the m baby steps against the two sequences of giant steps."""
    return max(2, math.isqrt(2 * radius))


def _bsgs_traces(t: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a_p, accepted) of y^2 = x^3 + t x + t at each lane (t, p), p < 2^31,
    by Shanks-Mestre baby-step giant-step (Cohen, GTM 138, Sec. 7.4.3) on
    x-coordinates.  a_p is exact where accepted is True.

    P = (x0 : 1) for the least x0 >= 1 with f(x0) = x0^3 + t x0 + t != 0 lies
    on E_t when sigma = (f(x0)/p) = 1 and on its quadratic twist when it is
    -1; the Kummer line serves both.  Every order in the Hasse interval
    [p + 1 - r, p + 1 + r], r = isqrt(4p), is c + delta with c a multiple
    of s = 2m + 1 and |delta| <= m, and (c + delta) P = O exactly when
    cP = -delta P.  So the baby steps jP, j = 0 .. m + 1, are matched by
    x against the giant steps G = cP over the interval, and H = G + P,
    carried beside G, tells the sign: cP = jP gives x(H) = x((j + 1) P), so
    c - j annihilates P, and cP = -jP gives x(H) = x((j - 1) P), so c + j
    does (both when 2jP = O).  With x(jP) distinct for j = 0 .. m, that
    enumerates every N in the interval with NP = O.  The order of the curve
    through P is one of them, so where there is exactly one, it is that
    order N, and a_p = sigma (p + 1 - N).

    A lane is declined (accepted False) when the N are not one, when two of
    x(0 P) .. x(mP) agree, or when an addition's difference is O or has
    x = 0, where the formula fails; a giant step whose difference is O is a
    doubling instead.  The giant steps come from a ladder over the multiple
    of s that starts the interval, which keeps kS, (k + 1) S, kS + P and
    (k + 1) S + P, with differences S, P and S - P.
    """
    n = p.size
    r = np.sqrt(4 * p).astype(np.int64)
    r -= r * r > 4 * p
    r += (r + 1) * (r + 1) <= 4 * p
    low, high = p + 1 - r, p + 1 + r
    m = _baby_steps(int(r.max()))
    s = 2 * m + 1
    k0 = (low + m) // s  # the first giant step c = k0 s, within m of low
    steps = max(2, int(((high + m) // s - k0).max()) + 1)
    one, zero = np.ones_like(p), np.zeros_like(p)
    # the base point: f(x0) != 0 for some x0 <= 4, as f has at most 3 roots
    x0, f = one, (1 + 2 * t) % p
    for x in (2, 3, 4):
        root = f == 0
        x0 = np.where(root, x, x0)
        f = np.where(root, (x * x * x + x * t + t) % p, f)
    sigma = np.where(_pow_mod(f, (p - 1) // 2, p) == 1, 1, -1)
    declined = np.zeros(n, dtype=bool)

    def add(left, right, diff):
        nonlocal declined
        declined |= (diff[0] == 0) | (diff[1] == 0)
        return _x_add(left, right, diff, t, p)

    # baby steps: row j holds jP
    bx = np.empty((m + 2, n), dtype=np.int64)
    bz = np.empty_like(bx)
    bx[0], bz[0] = one, zero
    bx[1], bz[1] = x0, one
    bx[2], bz[2] = _x_double((x0, one), t, p)
    base = (x0, one)
    for j in range(2, m + 1):
        bx[j + 1], bz[j + 1] = add((bx[j], bz[j]), base, (bx[j - 1], bz[j - 1]))
    giant = add((bx[m], bz[m]), (bx[m + 1], bz[m + 1]), base)  # S = sP
    giant_less = _x_double((bx[m], bz[m]), t, p)  # x(S - P) = x(2m P)
    for diff in (giant, giant_less):  # the ladder's differences
        declined |= (diff[0] == 0) | (diff[1] == 0)
    # the ladder: (R0, R1, R2, R3) = (kS, (k + 1) S, kS + P, (k + 1) S + P)
    # from k = 0 up to k0, one bit of k0 at a time
    regs = ((one, zero), giant, base, _x_double((bx[m + 1], bz[m + 1]), t, p))
    for bit in range(int(k0.max()).bit_length() - 1, -1, -1):
        odd = (k0 >> bit) & 1 == 1

        def pick(if_odd, if_even):
            return np.where(odd, if_odd[0], if_even[0]), np.where(odd, if_odd[1], if_even[1])

        r0, r1, r2, r3 = regs
        both = _x_add(r0, r1, giant, t, p)  # (2k + 1) S
        shifted = _x_add(r2, r1, giant_less, t, p)  # (2k + 1) S + P
        other = _x_add(pick(r3, r2), pick(r1, r0), base, t, p)  # 2kS + P or (2k + 2) S + P
        doubled = _x_double(pick(r1, r0), t, p)  # 2kS or (2k + 2) S
        regs = pick(both, doubled), pick(doubled, both), pick(shifted, other), pick(other, shifted)
    # giant steps: row k holds G = (k0 + k) sP, and H = G + P
    gx = np.empty((steps, n), dtype=np.int64)
    gz, hx, hz = np.empty_like(gx), np.empty_like(gx), np.empty_like(gx)
    (gx[0], gz[0]), (gx[1], gz[1]), (hx[0], hz[0]), (hx[1], hz[1]) = regs
    for k in range(2, steps):
        for xs, zs in ((gx, gz), (hx, hz)):
            declined |= xs[k - 2] == 0
            xs[k], zs[k] = _x_add((xs[k - 1], zs[k - 1]), giant, (xs[k - 2], zs[k - 2]), t, p)
            at_o = np.flatnonzero(zs[k - 2] == 0)  # the last step was from O: double
            if at_o.size:
                xs[k, at_o], zs[k, at_o] = _x_double(
                    (xs[k - 1, at_o], zs[k - 1, at_o]), t[at_o], p[at_o]
                )
    # the x of baby steps 1 .. m and of every G, by one inversion per lane
    xs = np.concatenate((bx[1 : m + 1], gx))
    zs = np.concatenate((bz[1 : m + 1], gz))
    infinite = zs == 0
    zs[infinite] = 1
    before = np.empty_like(zs)
    acc = one
    for row in range(zs.shape[0]):
        before[row] = acc
        acc = acc * zs[row] % p
    inverse = _pow_mod(acc, p - 2, p)
    for row in range(zs.shape[0] - 1, -1, -1):
        xs[row] = xs[row] * (inverse * before[row] % p) % p
        inverse = inverse * zs[row] % p
    xs[infinite] = np.broadcast_to(p, xs.shape)[infinite]  # x(O) is read as p
    # match on keys lane (p_max + 1) + x, so that lanes never meet; a baby
    # step's key carries j below it, as key (m + 1) + j, and sorts per lane
    width = int(p.max()) + 1
    offset = np.arange(n, dtype=np.int64) * width
    baby = np.concatenate(((offset + p)[None], xs[:m] + offset)) * (m + 1)
    baby += np.arange(m + 1)[:, None]
    baby = np.sort(baby.T).ravel()
    baby_keys = baby // (m + 1)
    repeats = baby_keys[1:] == baby_keys[:-1]
    declined[baby_keys[1:][repeats] // width] = True  # x(jP) repeats
    keys = (xs[m:] + offset).ravel()
    at = np.minimum(np.searchsorted(baby_keys, keys), baby.size - 1)
    hit = np.flatnonzero(baby_keys[at] == keys)
    k, lane = np.divmod(hit, n)
    j = baby[at[hit]] % (m + 1)
    c = (k0[lane] + k) * s
    hxk, hzk, pl = hx[k, lane], hz[k, lane], p[lane]
    up, down = j + 1, np.maximum(j - 1, 0)
    plus = (hxk * bz[up, lane] - bx[up, lane] * hzk) % pl == 0  # cP = jP
    minus = (hxk * bz[down, lane] - bx[down, lane] * hzk) % pl == 0  # cP = -jP
    first, second = (j == 0) | plus, (j > 0) & minus
    lanes = np.concatenate((lane[first], lane[second]))
    orders = np.concatenate((c[first] - j[first], c[second] + j[second]))
    inside = (orders >= low[lanes]) & (orders <= high[lanes])
    lanes, orders = lanes[inside], orders[inside]
    found = np.zeros_like(p)
    found[lanes] = orders
    accepted = (np.bincount(lanes, minlength=n) == 1) & ~declined
    return sigma * (p + 1 - found), accepted


def _traces(lanes: list[tuple[int, int]]) -> list[int]:
    """a_p of y^2 = x^3 + t x + t at each lane (t, p): _bsgs_traces over the
    lanes below _INT64_BELOW in blocks of like p, and _half_sweep for the
    lanes it declines and those above."""
    traces: list[Optional[int]] = [None] * len(lanes)
    kernel = sorted(
        (i for i, (_, p) in enumerate(lanes) if p < _INT64_BELOW), key=lambda i: lanes[i][1]
    )
    if kernel:
        t = np.array([lanes[i][0] for i in kernel], dtype=np.int64)
        p = np.array([lanes[i][1] for i in kernel], dtype=np.int64)
        m = _baby_steps(math.isqrt(4 * int(p[-1])))
        size = max(1, _BLOCK_ELEMENTS // (2 * m + 4))
        for start in range(0, len(kernel), size):
            block = slice(start, start + size)
            a_p, accepted = _bsgs_traces(t[block], p[block])
            for i, a, ok in zip(kernel[block], a_p.tolist(), accepted.tolist()):
                if ok:
                    traces[i] = a
    return [
        _half_sweep(t, t, p) if a is None else a for a, (t, p) in zip(traces, lanes)
    ]


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


def _classify(
    coefficients: tuple[int, int, int, int], p: int
) -> "TraceRecord | tuple[int, int]":
    """The first half of the record at a prime p >= 5 of the curve whose a4
    and a6 have these numerators and denominators (_coefficients): the
    record itself where the reduction has j = 1728 or j = 0, otherwise
    (t, ab mod p) for the twist by b/a of y^2 = x^3 + t x + t, t = a^3/b^2,
    whose record _finish reads."""
    num4, den4, num6, den6 = coefficients
    a = _reduce_mod(num4, den4, p)
    b = _reduce_mod(num6, den6, p)
    if (4 * a * a % p * a + 27 * b * b) % p == 0:
        raise BadReductionError(f"discriminant vanishes mod {p}")
    if b == 0:
        return _j1728_record(p - a, p)
    if a == 0:
        return _j0_record(b, p)
    return a * a % p * a * pow(b, -2, p) % p, a * b % p


def _record_of_t(p: int, trace: int) -> TraceRecord:
    """The record of y^2 = x^3 + t x + t with a_p = trace; its classification,
    that of a_p^2 - 4p, is every twist's."""
    if trace == 0:
        return TraceRecord(p, 0, Supersingular())
    conductor, d_k = split_discriminant(trace * trace - 4 * p)
    return TraceRecord(p, trace, Ordinary(cm_fundamental_disc=d_k, conductor=conductor))


def _finish(record: TraceRecord, ab: int) -> TraceRecord:
    """The record of the twist by b/a of the curve of record (_record_of_t):
    its a_p carries (b/a / p) = (ab/p), read by Euler's criterion."""
    p = record.p
    if record.a_p == 0 or pow(ab, (p - 1) // 2, p) == 1:
        return record
    return TraceRecord(p, -record.a_p, record.classification)


def _record(coefficients: tuple[int, int, int, int], p: int) -> TraceRecord:
    """The record at p of one curve, the per-prime path of count_points,
    which checks p first: _classify, and _finish on the half-sweep of
    y^2 = x^3 + t x + t."""
    kind = _classify(coefficients, p)
    if isinstance(kind, TraceRecord):
        return kind
    t, ab = kind
    return _finish(_record_of_t(p, _half_sweep(t, t, p)), ab)


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
    p_max] where every curve has good reduction.

    Every curve is classified at every prime first; the twists of
    y^2 = x^3 + t x + t leave a hole in their row, and the distinct (t, p)
    of the holes are counted together by _traces before the rows from the
    first hole on are given out."""
    if not 5 <= p_min <= p_max:
        raise ValueError("need 5 <= p_min <= p_max")
    coefficients = [_coefficients(curve) for curve in curves]
    primes = primes_up_to(p_max)
    rows = []
    lanes: dict[tuple[int, int], int] = {}  # (t, p) -> its index
    holes = []  # (the records at p, the place of one, its lane, ab mod p)
    for p in primes[bisect_left(primes, p_min) :]:
        try:
            records = [_classify(c, p) for c in coefficients]
        except BadReductionError as exc:
            logger.info("skipping p=%d: %s", p, exc)
            continue
        for i, kind in enumerate(records):
            if not isinstance(kind, TraceRecord):
                holes.append((records, i, lanes.setdefault((kind[0], p), len(lanes)), kind[1]))
        if holes:
            rows.append((p, records))
        else:  # no record waits for a trace yet, so none need be kept
            yield p, records
    of_t = [_record_of_t(p, a_p) for (_, p), a_p in zip(lanes, _traces(list(lanes)))]
    for records, i, lane, ab in holes:
        records[i] = _finish(of_t[lane], ab)
    yield from rows


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
