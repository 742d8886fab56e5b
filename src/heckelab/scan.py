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

A trace is one integer: every path computes a_p alone, and a
TraceRecord(p, a_p), built only at the public edge, derives its
classification from a_p^2 - 4p when it is first read.  Only _trace_table,
the array pass of a scan, reads the closed forms and the twist.  count_points, the one entry
for one prime, takes the half-sweep of the curve itself: an oracle that
shares none of their code, and the count that modpoly.vanishes reads.

A scan of the primes of a range is one array pass (_trace_table): it
reduces each curve's a4 and a6 mod every prime at once, drops the primes of
bad reduction, reads the j = 1728 and j = 0 entries off the closed forms
and forms t and (ab/p) for all the others.  The a_p of all its distinct
(t, p), its lanes, are counted in one NumPy pass (_traces, _bsgs_traces):
Shanks-Mestre baby-step giant-step on the x-line, which serves E_t and its
twist alike, over blocks of lanes of like p.  It accepts a lane only when
exactly one order in the Hasse interval kills its point, which is then the
order of the curve through it, so every accepted a_p is exact.  The lanes
it declines take the half-sweep (_half_sweep): a sum over
x = 1 .. (p - 1)/2 against tables built once per prime (x^2 mod p and a
doubled Legendre table).  A scan refuses p_max >= 2^31, where the kernel's
int64 arithmetic could overflow, before it sieves.  The two curves of a
twist pair share one lane at each prime.  count_points, the half-sweep of
one curve at one prime, is the tests' oracle of the pass: of the kernel,
of the closed forms and of the twist alike.

Two reductions are geometrically isogenous exactly when their Frobenius
eigenvalue ratio is a root of unity, which a trace-power match at some
k <= 12 detects: the ratio lives in a degree <= 4 field, so its order n
has phi(n) <= 4, i.e. n in {1, 2, 3, 4, 5, 6, 8, 10, 12}.  A scan decides
k on the arrays of a_p (_hit_table), and runs the recurrence only where
a_l != +-a_r share a CM field.  A coincidence a_p(E) = a_p(E') is the
k = 1 case, so the coincidence statistic is read off the hits of a scan.
"""

from __future__ import annotations

import logging
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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
    """a_p at p, and the classification it implies: supersingular at
    a_p = 0, else ordinary with a_p^2 - 4p = conductor^2 d_K, which every
    twist of the curve shares.  Records compare and hash by (p, a_p)."""

    p: int
    a_p: int

    def __post_init__(self) -> None:
        if self.a_p * self.a_p > 4 * self.p:
            raise HasseBoundError(f"|{self.a_p}| > 2 sqrt({self.p})")

    @cached_property
    def classification(self) -> "Supersingular | Ordinary":
        """Derived on first read, as it factors a_p^2 - 4p, and kept."""
        if self.a_p == 0:
            return Supersingular()
        conductor, d_k = split_discriminant(self.a_p * self.a_p - 4 * self.p)
        return Ordinary(cm_fundamental_disc=d_k, conductor=conductor)


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


# A scan sweeps the lanes the kernel declines in order of p, and the tests'
# per-prime count_points loops move from one p to the next, so the tables
# are built once per prime and only the last few primes are worth keeping.
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
    """a_p of y^2 = x^3 + a x + b over F_p, 0 <= a, b < p, nonsingular, for
    every such curve, j = 0 and 1728 included.

    With f(x) = x^3 + a x + b = b + g(x) and g odd, f(-x) = b - g(x), so
    a_p = -sum_x chi(f(x)) pairs x with -x:

        a_p = -(chi(b) + sum_{x=1}^{(p-1)/2} [chi(b + g(x)) + chi(b - g(x))]).

    One remainder g(x) mod p serves both terms, which are read from the
    doubled Legendre table at b + g and p + b - g."""
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
    for bit in range(int(exponent.max(initial=0)).bit_length() - 1, -1, -1):
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


def _traces(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a_p of y^2 = x^3 + t x + t at each lane (t, p), p ascending and below
    _INT64_BELOW: _bsgs_traces over blocks of like p, and _half_sweep for
    the lanes it declines, in order of p."""
    a_p = np.empty_like(p)
    m = _baby_steps(math.isqrt(4 * int(p.max(initial=0))))
    size = max(1, _BLOCK_ELEMENTS // (2 * m + 4))
    for start in range(0, p.size, size):
        block = slice(start, start + size)
        a_p[block], accepted = _bsgs_traces(t[block], p[block])
        declined = np.flatnonzero(~accepted) + start
        for i, u, q in zip(declined.tolist(), t[declined].tolist(), p[declined].tolist()):
            a_p[i] = _half_sweep(u, u, q)
    return a_p


def _cornacchia(d: int, p: int, root: int) -> tuple[int, int]:
    """(x, y) with x^2 + d y^2 = p, from a root of root^2 = -d (mod p).

    Cornacchia's algorithm: Euclid's remainders of p and root, from the
    root below p/2, down to the first below sqrt(p).  d = 1 and 3 have class
    number one, so every prime p = 1 mod 4, resp. mod 3, is reached; its
    callers check x^2 + d y^2 = p.
    """
    limit = math.isqrt(p)
    a, b = p, min(root, p - root)
    while b > limit:
        a, b = b, a % b
    return b, math.isqrt((p - b * b) // d)


# The decompositions depend on p alone; a scan asks for one at each prime of
# its range, and the scans of one process cover the same primes.
@lru_cache(maxsize=4096)
def _gaussian_prime(p: int) -> tuple[int, int, int]:
    """(alpha, beta, u) for a prime p = 1 (mod 4): pi = alpha + beta i is
    primary, pi = 1 (mod 2 + 2i), with p = pi conj(pi), and u is -i mod pi,
    i.e. alpha/beta mod p."""
    c = 2
    while (root := pow(c, (p - 1) // 4, p)) * root % p != p - 1:
        c += 1  # c^((p-1)/4) is a square root of -1 once c is a non-residue
    alpha, beta = _cornacchia(1, p, root)
    if alpha * alpha + beta * beta != p:
        raise ArithmeticError(f"Cornacchia gave {alpha}^2 + {beta}^2 != {p}")
    if alpha % 2 == 0:
        alpha, beta = beta, alpha
    if (alpha - beta - 1) % 4:  # primary: beta even, alpha = 1 + beta (mod 4)
        alpha, beta = -alpha, -beta
    return alpha, beta, alpha * pow(beta, -1, p) % p


@lru_cache(maxsize=4096)
def _eisenstein_prime(p: int) -> tuple[int, int, int]:
    """(A, B, u) for a prime p = 1 (mod 3): pi = A + B omega is primary,
    pi = 2 (mod 3), with p = pi conj(pi), and u is zeta^-1 = -omega mod pi,
    i.e. A/B mod p, for the sixth root of unity zeta = 1 + omega."""
    c = 2
    while (w := pow(c, (p - 1) // 3, p)) == 1:
        c += 1  # w is a primitive cube root of 1 once c is a non-cube
    x, y = _cornacchia(3, p, (2 * w + 1) % p)  # (2w + 1)^2 = -3
    if x * x + 3 * y * y != p:
        raise ArithmeticError(f"Cornacchia gave {x}^2 + 3 {y}^2 != {p}")
    big_a, big_b = x + y, 2 * y  # x + y sqrt(-3), as sqrt(-3) = 1 + 2 omega
    while big_a % 3 != 2 or big_b % 3:
        big_a, big_b = big_a - big_b, big_a  # times zeta: the six associates
    return big_a, big_b, big_a * pow(big_b, -1, p) % p


def _j1728_trace(d: int, p: int) -> int:
    """a_p of y^2 = x^3 - d x, d != 0 mod p.

    a_p = 0 at p = 3 (mod 4).  Otherwise a_p = chi conj(pi) + conj(chi) pi
    = 2 Re(conj(chi) pi) with chi = (d/pi)_4 = d^((p-1)/4) mod pi
    (Ireland-Rosen, GTM 84, Ch. 18, Sec. 4, Thm. 5).  chi = i^k is read
    off by dividing out i while multiplying pi by -i = conj(i).
    """
    if p % 4 == 3:
        return 0
    alpha, beta, u = _gaussian_prime(p)
    chi = pow(d, (p - 1) // 4, p)
    while chi != 1:
        chi, alpha, beta = chi * u % p, beta, -alpha
    return 2 * alpha


def _j0_trace(d: int, p: int) -> int:
    """a_p of y^2 = x^3 + d, d != 0 mod p.

    a_p = 0 at p = 2 (mod 3).  Otherwise a_p = -(chi conj(pi) + conj(chi)
    pi) = -Tr(conj(chi) pi) with chi = (4d/pi)_6 = (4d)^((p-1)/6) mod pi
    (Ireland-Rosen, GTM 84, Ch. 18, Sec. 3, Thm. 4), and Tr(A + B omega)
    = 2A - B.  chi = zeta^k is read off by dividing out zeta while
    multiplying pi by zeta^-1 = -omega.
    """
    if p % 3 == 2:
        return 0
    big_a, big_b, u = _eisenstein_prime(p)
    chi = pow(4 * d, (p - 1) // 6, p)
    while chi != 1:
        chi, big_a, big_b = chi * u % p, big_b, big_b - big_a
    return big_b - 2 * big_a


def count_points(curve: CurveQ, p: int) -> TraceRecord:
    """The record of a_p = p + 1 - |E(F_p)| at one prime, by the half-sweep
    of the reduced curve itself: the tests' oracle of the array pass of a
    scan (_trace_table), whose closed forms and twist it never calls.  p
    may be any integer type (a NumPy prime included); a float raises
    TypeError."""
    p = operator.index(p)
    if not (p >= 5 and is_prime(p)):
        raise ValueError(f"need a prime p >= 5, got {p}")
    residues = []
    for c in (curve.a4, curve.a6):
        if c.denominator % p == 0:
            raise BadReductionError(f"denominator of {c} vanishes mod {p}")
        residues.append(c.numerator * pow(c.denominator, -1, p) % p)
    a, b = residues
    if (4 * a * a % p * a + 27 * b * b) % p == 0:
        raise BadReductionError(f"discriminant vanishes mod {p}")
    return TraceRecord(p, _half_sweep(a, b, p))


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


def _first_match(a_l: int, a_r: int, p: int) -> Optional[int]:
    """Minimal k <= 12 with a_{p^k} equal for the traces a_l and a_r at p,
    else None: both trace_power recurrences stepped together, one k at a
    time."""
    l_prev, l_k, r_prev, r_k = 2, a_l, 2, a_r
    for k in range(1, 13):
        if l_k == r_k:
            return k
        l_prev, l_k = l_k, a_l * l_k - p * l_prev
        r_prev, r_k = r_k, a_r * r_k - p * r_prev
    return None


def geom_isogenous(left: TraceRecord, right: TraceRecord) -> Optional[int]:
    """Minimal k <= 12 with a_{p^k} equal on both sides, else None.

    At p >= 5 this is the scalar form of _hit_rule: k = 1 when a_l = a_r,
    2 when a_l = -a_r != 0, None when exactly one trace is 0, and
    otherwise the recurrences of _first_match, only when
    (4p - a_l^2)(4p - a_r^2) is a square.  Records of different kinds
    never match: a_{p^k} = a_p^k (mod p) is 0 for a supersingular record
    and not for an ordinary one, and an ordinary pi^k is never rational,
    so it generates Q(pi) and two ordinary records can match only when
    their cm_fundamental_disc is equal.  At p = 2 and 3 a_p = 0 does not
    even mark the supersingular records (a_p = 2 against 0 at p = 2 match
    at k = 8), so there the recurrence alone decides.
    """
    if left.p != right.p:
        raise MismatchedPrimeError(f"records at p={left.p} and p={right.p}")
    p, a_l, a_r = left.p, left.a_p, right.a_p
    if p >= 5:
        if a_l == a_r:
            return 1
        if a_l == -a_r:  # != 0, as a_l != a_r
            return 2
        if not (a_l and a_r):
            return None
        product = (4 * p - a_l * a_l) * (4 * p - a_r * a_r)
        if math.isqrt(product) ** 2 != product:  # two CM fields
            return None
    return _first_match(a_l, a_r, p)


# -- a scan: every prime of a range in one array pass ------------------------
#
# Every array of a scan holds one int64 per prime.  A scan reaches no prime
# from _INT64_BELOW = 2^31 on, so a product of two residues, below 2^62, and
# every sum of a few of them fit, as in the kernel.


def _residues(n: int, p: np.ndarray) -> np.ndarray:
    """n mod p at each p < 2^31, exact for an n of any size: Horner's rule
    over the 31-bit digits of |n|, whose steps r 2^31 + digit stay below
    2^62 + 2^31."""
    m, digits = abs(n), []
    while m:
        digits.append(m & (2**31 - 1))
        m >>= 31
    r = np.zeros_like(p)
    for digit in reversed(digits):
        r = ((r << 31) + digit) % p
    return (p - r) % p if n < 0 else r


def _reduce(curve: CurveQ, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, good): a4 and a6 mod each p, and where the curve has good
    reduction, neither a denominator nor the discriminant vanishing."""
    good = np.ones(p.shape, dtype=bool)
    residues = []
    for c in (curve.a4, curve.a6):
        r = _residues(c.numerator, p)
        if c.denominator != 1:
            d = _residues(c.denominator, p)
            good &= d != 0
            r = r * _pow_mod(d, p - 2, p) % p  # 1/d by Fermat, garbage at d = 0
        residues.append(r)
    a, b = residues
    good &= (4 * (a * a % p * a % p) + 27 * (b * b % p)) % p != 0
    return a, b, good


def _trace_table(
    curves: tuple[CurveQ, ...], p_min: int, p_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(p, a_p): the primes of [p_min, p_max] where every curve has good
    reduction, and a_p[i] of curves[i] at each, in one array pass.

    Each curve is reduced once (_reduce).  Its j = 1728 and j = 0 entries
    take the closed forms, one prime at a time; every other entry is the
    twist by b/a of E_t, t = a^3/b^2, whose a_p carries (ab/p).  The
    distinct (t, p) of all curves, the lanes, are counted once each by
    _traces.  An a_p past the Hasse bound raises HasseBoundError.
    p_max >= 2^31 raises ValueError before the sieve, which would need
    2 GiB of marks there."""
    if not 5 <= p_min <= p_max:
        raise ValueError("need 5 <= p_min <= p_max")
    if p_max >= _INT64_BELOW:
        raise ValueError(f"a scan needs the primes below 2^31, got p_max = {p_max}")
    primes = primes_up_to(p_max)
    p = np.array(primes[bisect_left(primes, p_min) :], dtype=np.int64)
    reduced = [_reduce(curve, p) for curve in curves]
    good = np.logical_and.reduce([g for _, _, g in reduced])
    for q in p[~good].tolist():
        logger.info("skipping p=%d: bad reduction", q)
    p = p[good]
    a_p = np.empty((len(curves), p.size), dtype=np.int64)
    width = p_max + 1  # a lane's key p width + t, below 2^62
    twists = []  # (a_p row, the entries, their (ab/p), their lane keys)
    for row, (a, b, _) in zip(a_p, reduced):
        a, b = a[good], b[good]
        at = np.flatnonzero(b == 0)
        row[at] = [_j1728_trace(d, q) for d, q in zip((p - a)[at].tolist(), p[at].tolist())]
        at = np.flatnonzero(a == 0)
        row[at] = [_j0_trace(d, q) for d, q in zip(b[at].tolist(), p[at].tolist())]
        at = np.flatnonzero((a != 0) & (b != 0))
        q, a, b = p[at], a[at], b[at]
        t = a * a % q * a % q * _pow_mod(b * b % q, q - 2, q) % q
        sign = np.where(_pow_mod(a * b % q, (q - 1) // 2, q) == 1, 1, -1)
        twists.append((row, at, sign, q * width + t))
    # np.unique sorts the keys, so the lanes come in ascending p
    keys, lane = np.unique(np.concatenate([key for *_, key in twists]), return_inverse=True)
    traces = _traces(keys % width, keys // width)
    start = 0
    for row, at, sign, _ in twists:
        row[at] = sign * traces[lane[start : start + at.size]]
        start += at.size
    curve, entry = np.nonzero(a_p * a_p > 4 * p)
    if entry.size:
        raise HasseBoundError(f"|{a_p[curve[0], entry[0]]}| > 2 sqrt({p[entry[0]]})")
    return p, a_p


def _is_square(n: np.ndarray) -> np.ndarray:
    """Where n >= 0 is a perfect square; exact for n < 2^52, where the
    correctly rounded sqrt of a square is its root."""
    root = np.rint(np.sqrt(n)).astype(np.int64)
    return root * root == n


def _hit_rule(p: np.ndarray, a_l: np.ndarray, a_r: np.ndarray) -> np.ndarray:
    """The k of geom_isogenous for the traces a_l and a_r at each p >= 5,
    0 where it is None.

    k = 1 where a_l = a_r, and 2 where a_l = -a_r != 0 (a_{p^2} = a_p^2 -
    2p).  Any other match needs two ordinary records of one CM field, and
    only there does the recurrence run (_first_match), which decides k.
    They share d_K exactly when (4p - a_l^2)(4p - a_r^2) is a square, as
    each is f^2 |d_K| for a fundamental d_K.  The product reaches 16 p^2,
    past int64 above p = 2^29.5; with g the gcd of u = 4p - a_l^2 and
    v = 4p - a_r^2, both in (0, 4p] and so below 2^33, uv is a square
    exactly when the coprime u/g and v/g both are."""
    k = np.where(a_l == a_r, 1, np.where((a_l == -a_r) & (a_l != 0), 2, 0))
    rest = np.flatnonzero((k == 0) & (a_l != 0) & (a_r != 0))
    u, v = 4 * p[rest] - a_l[rest] ** 2, 4 * p[rest] - a_r[rest] ** 2
    g = np.gcd(u, v)
    for i in rest[_is_square(u // g) & _is_square(v // g)].tolist():
        k[i] = _first_match(int(a_l[i]), int(a_r[i]), int(p[i])) or 0
    return k


def _hit_table(
    left: CurveQ, right: CurveQ, p_min: int, p_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p, k, a_left, a_right) at the good primes of [p_min, p_max] where
    the reductions are geometrically isogenous, k as geom_isogenous's."""
    p, (a_l, a_r) = _trace_table((left, right), p_min, p_max)
    k = _hit_rule(p, a_l, a_r)
    hit = k > 0
    return p[hit], k[hit], a_l[hit], a_r[hit]


def scan_pair(
    left: CurveQ, right: CurveQ, p_min: int, p_max: int
) -> list[ScanHit]:
    """All geometric-isogeny hits over good primes in [p_min, p_max], with
    the records of both sides at each."""
    columns = (column.tolist() for column in _hit_table(left, right, p_min, p_max))
    return [
        ScanHit(p, k, TraceRecord(p, a_l), TraceRecord(p, a_r))
        for p, k, a_l, a_r in zip(*columns)
    ]


def cm_field_hits(
    curve: CurveQ, d_k: int, p_min: int, p_max: int
) -> list[int]:
    """Good primes where the reduction is ordinary with CM field of the
    given fundamental discriminant: a_p != 0 and a_p^2 - 4p = f^2 d_k."""
    if not is_fundamental_discriminant(d_k):
        raise ValueError(f"{d_k} is not a fundamental imaginary quadratic discriminant")
    p, (a,) = _trace_table((curve,), p_min, p_max)
    disc = a * a - 4 * p
    field = (a != 0) & (disc % d_k == 0)
    field[field] = _is_square(disc[field] // d_k)
    return p[field].tolist()


class CoincidenceStat(NamedTuple):
    observed: int
    heuristic: float


def _coincidences(matches: list[int], p_max: int) -> CoincidenceStat:
    """The coincidence statistic of a pair from the primes of [5, p_max]
    where its a_p agree, the k = 1 hits of its scan."""
    primes = primes_up_to(p_max)[2:]
    # cumsum adds in order and rounds each step, as a loop would
    sums = np.cumsum(1 / np.sqrt(np.array(primes, dtype=np.float64)))
    half = p_max // 2
    below = bisect_right(primes, half)
    s_full = float(sums[-1]) if primes else 0.0
    s_half = float(sums[below - 1]) if below else 0.0
    obs_half = sum(p <= half for p in matches)
    scale = obs_half / s_half if obs_half and s_half else 1.0
    return CoincidenceStat(observed=len(matches), heuristic=scale * s_full)


def coincidence_statistic(
    left: CurveQ, right: CurveQ, p_max: int
) -> CoincidenceStat:
    """observed = #{good p <= p_max : a_p agrees}; heuristic = c sum 1/sqrt(p)
    over all primes 5 <= p <= p_max, with c calibrated on the first half of
    the range."""
    p, k, _, _ = _hit_table(left, right, 5, p_max)
    return _coincidences(p[k == 1].tolist(), p_max)
