"""Arbitrary-precision evaluation of Delta, E4, E6, j on the upper half-plane.

All evaluation routes through one q-series pass, _series: reduction to the
standard fundamental domain |Re tau| <= 1/2, |tau| >= 1, where
|q| <= exp(-pi*sqrt(3)) ~ 0.00433 makes the q-expansions converge fast, then
the E4 sum and D = prod (1 - q^n)^24 = sum tau(n + 1) q^n in fixed point,
truncated at the first power of q that rounds to 0, within an a-priori
error bound.  The pass keeps those powers of q, and the E6 sum is read off
them where it is wanted (_e6).
Values at unreduced points are recovered through the weight-k cocycle
(c*tau + d)^(-k).

q = r u is formed from tables (_nome): r = e^(-2 pi Im tau'), after
reduction by ln 2, and u = e^(2 pi i Re tau') are products of entries of
three levels of 256-entry tables at W + 24 bits and a Taylor sum of the
rest below 2^-24.  One cached table per precision (_kernel_tables) holds
these and the series' coefficients.

A point can carry one full pass (_attach_pass), as tau_from_j's root and
heuristic_integral's samples do, and _series hands it back at the same
precision: j, E4, E6, Delta and log ||Delta|| there make no pass of their
own, and each is bit for bit what a pass would give.

The reduction decides on exact integers: the Hecke orbit hands it a base
point and a coset matrix, and it rounds only the reduced image, once, so
each point is the correctly rounded image of the exact one.  Every
quotient is an exact integer divmod rounded once (_quotient).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    from_man_exp,
    fzero,
    mpf_mul,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    pi_fixed,
    round_nearest,
    to_float,
)
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed

# Guard bits added on top of the requested precision for internal work.
_GUARD = 32

# ln(1/|q|) on the fundamental domain: 2*pi*(sqrt(3)/2).
_LOG_INV_Q_MIN = math.pi * math.sqrt(3.0)

_LN2 = math.log(2.0)

# ln of the bound on |q|^(T-1) 2^W at the bottom corner under which q^T
# rounds to 0 (_series)
_LOG_LAST_POWER = math.log(114.0)


class InversionError(ArithmeticError):
    """tau_from_j's Newton loop ended on no point with |j - y| <= err."""


class PrecisionOverflowError(ArithmeticError):
    """j or Delta is asked for above the reduced Im tau = 2^20
    (_MAX_POWER_IM), or no power of q within the cap T of _kernel_tables
    rounds to 0, which the proof in _series rules out."""


@dataclass(frozen=True)
class Precision:
    """Mantissa bits, at least 53, and the rules read off them: the working
    precision wp and the resolution."""

    bits: int = 128

    def __post_init__(self):
        if self.bits < 53:
            raise ValueError(f"bits must be >= 53, got {self.bits}")

    @property
    def wp(self) -> int:
        """bits plus _GUARD guard bits."""
        return self.bits + _GUARD

    def resolution(self, x) -> mpf:
        """2^-bits max(1, |x|) as an mpf at the context precision."""
        return mpf(2) ** -self.bits * max(1, abs(x))


DEFAULT_PRECISION = Precision()


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point re + im*i with im > 0.  Components are mpmath reals: an mpf
    part is kept exactly, any other number is converted at the context
    precision.

    A point can carry one kernel pass, as (prec, the tuple of _series),
    written by _attach_pass alone, and _series hands it back at that
    precision; points compare, hash and print by re and im alone."""

    re: mpf
    im: mpf
    _pass: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("re", "im"):
            value = getattr(self, name)
            if not isinstance(value, mpf):
                object.__setattr__(self, name, mpf(value))
        if not self.im > 0:
            raise ValueError(f"point must lie in the upper half-plane, Im = {self.im}")

    def to_mpc(self) -> mpc:
        return mpc(self.re, self.im)

    @classmethod
    def _of_raw(cls, re: tuple, im: tuple) -> "UpperHalfPoint":
        """The point with these raw mpf parts, Im positive, without the
        constructor's checks: the hot path of the orbit and the reduction."""
        point = object.__new__(cls)
        object.__setattr__(point, "re", mp.make_mpf(re))
        object.__setattr__(point, "im", mp.make_mpf(im))
        return point

    @classmethod
    def from_complex(cls, z) -> "UpperHalfPoint":
        z = mpc(z)
        return cls(z.real, z.imag)


@dataclass(frozen=True)
class ModularMatrix:
    """Integer matrix (a b; c d); used with det 1 as a reduction witness."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def apply(
        self, tau: UpperHalfPoint, prec: "Precision | None" = None
    ) -> UpperHalfPoint:
        """Moebius action; requires positive determinant to stay in H."""
        if self.det() <= 0:
            raise ValueError("matrix must have positive determinant")
        with mp.workprec(prec.wp if prec else mp.prec):
            z = tau.to_mpc()
            w = (self.a * z + self.b) / (self.c * z + self.d)
            return UpperHalfPoint(w.real, w.imag)

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ModularMatrix":
        if self.det() != 1:
            raise ValueError("only unimodular matrices are inverted here")
        return ModularMatrix(self.d, -self.b, -self.c, self.a)


_MAX_REDUCTION_STEPS = 20_000

# A point whose float64 coordinates lie this far inside the fundamental
# domain is reduced already: float64 rounding is below 2^-52 relative.
_INSIDE_MARGIN = 2.0**-40

_IDENTITY = ModularMatrix(1, 0, 0, 1)


def reduce_to_fundamental_domain(
    tau: UpperHalfPoint,
    prec: Precision = DEFAULT_PRECISION,
    start: tuple[int, int, int, int] = (1, 0, 0, 1),
) -> tuple[UpperHalfPoint, ModularMatrix]:
    """Reduce start * tau into |Re| <= 1/2, |tau| >= 1 and return the witness.

    start = (A, B, C, D) is an integer matrix of positive determinant, the
    identity by default; the Hecke orbit passes its coset (alpha, beta, 0,
    delta).  The witness gamma is in SL2(Z), and the point returned is
    gamma * (start * tau), each part rounded once, to nearest, to the
    working precision wp = bits + _GUARD.

    Every decision is exact.  With tau = (x + iy)/s, x and y integers and
    s a power of two, z = P/Q for the Gaussian integers P = A(x + iy) + Bs
    and Q = C(x + iy) + Ds.  The loop translates by n = nint(Re z), ties
    to even, and inverts z -> -1/z while |P|^2 < (1 - 2^-(wp - 8)) |Q|^2: a
    point within 2^-(wp - 8) of the arc |tau| = 1 is not inverted.  Only
    the result is rounded, from Re z = Re(P conj Q)/|Q|^2 and
    Im z = det(start) s y/|Q|^2.

    With the identity start, a point with |Re| < 1/2 - 2^-40 and
    |tau|^2 > 1 + 2^-40 in float64 is returned at once, as the loop would
    return it.  A point with Im tau = +inf is only translated (start must
    then have C = 0); an infinite or NaN Re tau raises ValueError.
    """
    wp = prec.wp
    re, im = tau.re._mpf_, tau.im._mpf_
    sign, xm, xe, _ = re
    if not xm and xe:
        raise ValueError(f"cannot reduce a point whose Re tau = {tau.re} is not finite")
    A, B, C, D = start
    infinite = not im[1] and im[2]  # Im tau = +inf: only translated
    if infinite and C:
        raise ValueError("a start with C != 0 sends Im tau = +inf to the real line")
    if start == (1, 0, 0, 1):
        fx, fy = _float(re), _float(im)
        if abs(fx) < 0.5 - _INSIDE_MARGIN and fx * fx + fy * fy > 1 + _INSIDE_MARGIN:
            if re[3] <= wp and im[3] <= wp:
                return tau, _IDENTITY
            re, im = mpf_pos(re, wp, round_nearest), mpf_pos(im, wp, round_nearest)
            return UpperHalfPoint._of_raw(re, im), _IDENTITY
    _, ym, ye, _ = (0, 0, 0, 0) if infinite else im
    e = min(xe, ye, 0)  # tau = (x + iy)/s, y = 0 standing in for +inf
    x, y, s = (-xm if sign else xm) << (xe - e), ym << (ye - e), 1 << -e
    pr, pi, qr, qi = A * x + B * s, A * y, C * x + D * s, C * y
    p2, q2 = pr * pr + pi * pi, qr * qr + qi * qi
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_MAX_REDUCTION_STEPS):
        num = pr * qr + pi * qi  # Re z = num / q2
        n = _nearest(num, q2)
        if n:
            pr, pi = pr - n * qr, pi - n * qi
            p2, num = pr * pr + pi * pi, num - n * q2
            a, b = a - n * c, b - n * d
        if infinite or (q2 - p2) << (wp - 8) <= q2:  # |z|^2 >= 1 - 2^-(wp - 8)
            re = _quotient(num, q2, wp)
            im = im if infinite else _quotient((A * D - B * C) * s * y, q2, wp)
            return UpperHalfPoint._of_raw(re, im), ModularMatrix(a, b, c, d)
        pr, pi, qr, qi, p2, q2 = -qr, -qi, pr, pi, q2, p2
        a, b, c, d = -c, -d, a, b
    raise ArithmeticError("fundamental-domain reduction did not terminate")


def _nearest(num: int, den: int) -> int:
    """The integer nearest num/den, den > 0, ties to even."""
    n, rem = divmod(2 * num + den, 2 * den)
    return n - 1 if not rem and n & 1 else n


def _quotient(num: int, den: int, wp: int, exp: int = 0) -> tuple:
    """num 2^exp / den, den > 0, as a raw mpf rounded to nearest at wp bits,
    ties to even, as mpf_div rounds it: one exact divmod leaves a quotient
    of wp + 2 or wp + 3 bits, whose cut bits and the remainder, a sticky
    bit, decide the rounding."""
    if not num:
        return fzero
    sign = num < 0
    num = -num if sign else num
    shift = wp + 2 - num.bit_length() + den.bit_length()
    if shift >= 0:
        man, rem = divmod(num << shift, den)
    else:
        man, rem = divmod(num, den << -shift)
    cut = man.bit_length() - wp
    low, man = man & ((1 << cut) - 1), man >> cut
    half = 1 << (cut - 1)
    if low > half or (low == half and (rem or man & 1)):
        man += 1
    zeros = (man & -man).bit_length() - 1  # mpmath keeps mantissas odd
    man >>= zeros
    return int(sign), man, exp - shift + cut + zeros, man.bit_length()


def _float(part: tuple) -> float:
    """The raw mpf part as a float64, rounded to nearest as float(mpf)
    rounds it: float(int) is correctly rounded below 2^1024."""
    sign, man, exp, bc = part
    if not man or bc > 1000 or exp + bc > 1000:  # rare: a special value or a huge one
        return to_float(part, rnd=round_nearest)
    x = math.ldexp(man, exp)
    return -x if sign else x


def _sigma(k: int, n_terms: int) -> tuple[int, ...]:
    """sigma_k(n) = sum_(d | n) d^k for n = 1..n_terms."""
    s = [0] * (n_terms + 1)
    for d in range(1, n_terms + 1):
        dk = d**k
        for m in range(d, n_terms + 1, d):
            s[m] += dk
    return tuple(s[1:])


def _delta_coefficients(n_terms: int) -> tuple[int, ...]:
    """Ramanujan's tau(n + 1), n = 1..n_terms: D = prod (1 - q^n)^24 = 1 +
    sum a(n) q^n is the 24th power of Euler's 1 + sum e(i) q^i, e(i) = (-1)^k
    at i = k(3k -+ 1)/2, so by J. C. P. Miller's power recurrence n a(n) =
    sum_(i<=n) (25 i - n) e(i) a(n - i), an exact division of ~1.6 sqrt(n) terms."""
    pentagonal = [(k * (3 * k + s) // 2, (-1) ** k)
                  for k in range(1, isqrt(n_terms) + 2) for s in (-1, 1)]
    a = [1]
    for n in range(1, n_terms + 1):
        a.append(sum(e * (25 * i - n) * a[n - i] for i, e in pentagonal if i <= n) // n)
    return tuple(a[1:])


# -- the q-series in fixed point ---------------------------------------------
#
# A complex number is a pair (x, y) of Python ints worth (x + iy) 2^-W, and a
# product of two is rounded to the nearest unit 2^-W.


def _fmul(a: int, b: int, c: int, d: int, w: int) -> tuple[int, int]:
    """(a + ib)(c + id) in units 2^-w, rounded to nearest."""
    half = 1 << (w - 1)
    return (a * c - b * d + half) >> w, (a * d + b * c + half) >> w


def _to_mpc(z: tuple[int, int], w: int) -> tuple:
    """The fixed-point z as a raw mpc, exactly."""
    return from_man_exp(z[0], -w), from_man_exp(z[1], -w)


# -- q = r u from tables ------------------------------------------------------
#
# r = e^(-2 pi Im tau') and u = e^(2 pi i Re tau') are formed at P = W + 24
# fractional bits.  An argument x in [0, 1) splits into three 8-bit digits
# and a rest below 2^-24: e^(-x) and e^(2 pi i x) are the product of one
# entry of each of three 256-entry tables and a short Taylor sum of the rest.

_TABLE_BITS = 24


class _KernelTables(NamedTuple):
    """Everything _series reads at one precision (_kernel_tables)."""

    w: int  # W, the fractional bits of the fixed point
    terms: int  # T, the cap on the powers of q kept
    s3: tuple  # sigma_3(n), n = 1 .. terms
    s5: tuple  # sigma_5(n), n = 1 .. terms
    delta: tuple  # tau(n + 1), n = 1 .. terms: D = prod (1 - q^n)^24 past its 1
    two_pi_12: tuple  # (2 pi)^12 as a raw mpf at wp + 16 bits
    twelve_log_two_pi: tuple  # 12 log 2 pi as a raw mpf at wp + 16 bits
    # _nome's tables, in units 2^-p
    p: int  # W + 24
    two_pi: int  # 2 pi in units 2^-(p + 40)
    ln2: int  # ln 2 in units 2^-(p + 40)
    turn: int  # 2 pi in units 2^-p
    exps: tuple  # per level k = 1, 2, 3: e^(-i 2^(-8k)), i = 0 .. 255
    cos: tuple  # per level: cos(2 pi i 2^(-8k))
    sin: tuple  # per level: sin(2 pi i 2^(-8k))
    exp_taylor: tuple  # 1/n! from n = N down to 0, for e^(-x), x < 2^-24
    sin_taylor: tuple  # (-1)^k / (2k + 1)! from k = K down to 0, x < 2 pi 2^-24


@lru_cache(maxsize=16)
def _kernel_tables(prec: Precision) -> _KernelTables:
    """The tables of _series at prec, about 140 KB at 128 bits, read once
    per pass: W and the cap T, sigma_3, sigma_5 (_sigma) and D's
    coefficients (_delta_coefficients) up to T, _delta's (2 pi)^12 and
    log_petersson_norm_delta's 12 log 2 pi at wp + 16 bits (wp = bits +
    _GUARD), so that their roundings stay under the last bit, and _nome's
    tables at p = W + 24.

    W is wp plus the bits of the bound that _series derives.  T is the
    least T from ceil((bits ln 2 + 64) / (pi sqrt 3)), which the error bound
    needs (it is 19 or more), with |q|^(T-1) 2^W <= 114 at Im tau' =
    sqrt(3)/2, where |q| = e^(-pi sqrt 3) is largest: then q^T rounds to 0
    on the whole domain (_series).  Up to 3,133 bits the first T meets it."""
    wp = prec.wp
    two_pi_12 = mpf_pow_int(mpf_shift(mpf_pi(wp + 16), 1), 12, wp + 16)
    with mp.workprec(wp + 16):
        twelve_log_two_pi = (12 * mp.log(2 * mp.pi))._mpf_
    terms = math.ceil((prec.bits * _LN2 + 64.0) / _LOG_INV_Q_MIN)
    while True:
        s3, s5, delta = _sigma(3, terms), _sigma(5, terms), _delta_coefficients(terms)
        bound = 2**24 * sum(s3) + 2**9 * sum(s5) + 2 * sum(map(abs, delta))
        w = wp + (bound + 3 * (terms + 1) ** 6).bit_length()
        if w * _LN2 - (terms - 1) * _LOG_INV_Q_MIN <= _LOG_LAST_POWER:
            break
        terms += 1
    return _KernelTables(
        w, terms, s3, s5, delta, two_pi_12, twelve_log_two_pi,
        *_nome_tables(w + _TABLE_BITS),
    )


def _taylor_order(log2_x: float, p: int) -> int:
    """The fewest N with x^(N + 1) / (N + 1)! < 2^-(p + 8) for x <= 2^log2_x:
    the Taylor sum to x^N of e^(-x) or sin x is then within 2^-(p + 8)."""
    n, log2_term = 0, log2_x
    while log2_term >= -(p + 8):
        n += 1
        log2_term += log2_x - math.log2(n + 1)
    return n


def _nome_tables(p: int) -> tuple:
    """_nome's fields of _KernelTables, p to sin_taylor.

    Each level is built by 255 products at p + 16 bits from one exp_fixed
    or cos_sin_fixed value, taken at p + 32 bits and rounded to p + 16, so
    within 1/2 + 2^-8 units 2^-(p + 16).  Entry i then carries at most 255
    times that and 255 product roundings of 1/2 unit per part, under
    2^-7 units 2^-p, and is rounded to p bits: within 1/2 + 2^-7 units."""
    hi = p + 16
    one, half, seed_half = 1 << hi, 1 << (hi - 1), 1 << 15
    exps, cos, sin = [], [], []
    for level in (8, 16, 24):
        e = (exp_fixed(-(1 << (hi + 16 - level)), hi + 16) + seed_half) >> 16
        c, s = cos_sin_fixed(pi_fixed(hi + 16) >> (level - 1), hi + 16)
        c, s = (c + seed_half) >> 16, (s + seed_half) >> 16
        es, xs, ys = [one], [one], [0]
        for _ in range(255):
            es.append((es[-1] * e + half) >> hi)
            x, y = _fmul(xs[-1], ys[-1], c, s, hi)
            xs.append(x)
            ys.append(y)
        exps.append(tuple((v + (1 << 15)) >> 16 for v in es))
        cos.append(tuple((v + (1 << 15)) >> 16 for v in xs))
        sin.append(tuple((v + (1 << 15)) >> 16 for v in ys))
    n_exp = _taylor_order(-_TABLE_BITS, p)
    n_turn = _taylor_order(math.log2(2 * math.pi) - _TABLE_BITS, p)
    inverse = [(1 << p) // math.factorial(n) for n in range(max(n_exp, n_turn) + 2)]
    return (
        p,
        pi_fixed(p + 40) << 1,
        ln2_fixed(p + 40),
        pi_fixed(p) << 1,
        tuple(exps),
        tuple(cos),
        tuple(sin),
        tuple(reversed(inverse[: n_exp + 1])),
        tuple((-1) ** k * inverse[2 * k + 1] for k in range(n_turn // 2, -1, -1)),
    )


# Above this reduced Im tau', e^(-2 pi Im tau') < 2^(-2^30) rounds to 0 at
# any W a process can hold, and r is not formed.
_MAX_NOME_IM_LOG2 = 28


def _nome(reduced: UpperHalfPoint, t: _KernelTables):
    """(r, u, q) at the reduced point tau' from the tables t: r =
    e^(-2 pi Im tau') as a pair (m, e) worth m 2^e, or None at
    Im tau' >= 2^28 or +inf; u = e^(2 pi i Re tau') and q = r u in units
    2^-W, W = t.w.

    r: 2 pi Im tau' = k ln 2 + f with 0 <= f < ln 2, from 2 pi and ln 2 at
    p + 40 bits, so f is good to 2^-7 units 2^-p below Im 2^28; then
    e^(-f) = E1 E2 E3 e^(-x) over the three digits of f and its rest
    x < 2^-24, and r = e^(-f) 2^-k.  u is taken at |Re tau'| in turns,
    as sin is odd: e^(2 pi i |Re tau'|) = U1 U2 U3 e^(i phi), phi = 2 pi x,
    with sin phi a Taylor sum and cos phi = sqrt(1 - sin^2 phi), and
    u = +-1 exactly at Re tau' = 0 and +-1/2.  Each factor lies within
    1/2 + 2^-7 units 2^-p, each of the three products adds 1/2, and the
    Taylor sums, truncated below 2^-(p + 8), add 1 with their roundings:
    e^(-f) and the p-bit u lie within 6 units 2^-p = 2^-(w + 21.4).
    """
    w, p, half = t.w, t.p, 1 << (t.p - 1)
    rest = (1 << (p - _TABLE_BITS)) - 1
    _, ym, yexp, ybc = reduced.im._mpf_
    if not ym or yexp + ybc > _MAX_NOME_IM_LOG2:
        r = None
    else:
        angle = ym * t.two_pi  # 2 pi Im tau' in units 2^-(p + 40 - yexp)
        angle = angle << yexp if yexp >= 0 else angle >> -yexp
        k, f = divmod(angle, t.ln2)
        f >>= 40
        e1, e2, e3 = t.exps
        m = (e1[f >> (p - 8)] * e2[(f >> (p - 16)) & 255] + half) >> p
        m = (m * e3[(f >> (p - 24)) & 255] + half) >> p
        x, acc = f & rest, 0
        for c in t.exp_taylor:
            acc = c - ((acc * x) >> p)
        r = (m * acc + half) >> p, -p - k
    negative, xm, xexp, _ = reduced.re._mpf_
    if not xm or xexp == -1:  # Re tau' = 0 or +-1/2 (xm is odd)
        ux, uy = (-1 if xm else 1) << p, 0
    else:  # |Re tau'| <= 1/2 in units 2^-p of a turn
        x = xm << (xexp + p) if xexp + p >= 0 else xm >> -(xexp + p)
        phi = ((x & rest) * t.turn) >> p
        phi2, sx = (phi * phi) >> p, 0
        for c in t.sin_taylor:
            sx = c + ((sx * phi2) >> p)
        sx = (sx * phi) >> p
        cx = isqrt((1 << (2 * p)) - sx * sx)  # cos phi, phi < 2^-21
        (c1, c2, c3), (s1, s2, s3) = t.cos, t.sin
        i1, i2, i3 = x >> (p - 8), (x >> (p - 16)) & 255, (x >> (p - 24)) & 255
        ux, uy = _fmul(c1[i1], s1[i1], c2[i2], s2[i2], p)
        ux, uy = _fmul(ux, uy, c3[i3], s3[i3], p)
        ux, uy = _fmul(ux, uy, cx, sx, p)
    if r is None or -r[1] - p > w + 2:  # r < 2^-(w + 2): q rounds to 0
        qx = qy = 0
    else:
        shift = -r[1] + p - w  # q = m u 2^(e - p) in units 2^-w
        qhalf = 1 << (shift - 1)
        qx, qy = (r[0] * ux + qhalf) >> shift, (r[0] * uy + qhalf) >> shift
    uhalf = 1 << (_TABLE_BITS - 1)
    u = (ux + uhalf) >> _TABLE_BITS, (uy + uhalf) >> _TABLE_BITS
    if negative:
        qy, u = -qy, (u[0], -u[1])
    return r, u, (qx, qy)


def _series(tau: UpperHalfPoint, prec: Precision):
    """The one q-series pass behind every evaluator, in fixed point.

    Reduces tau and forms q = r u at the reduced point tau' by _nome:
    r = e^(-2 pi Im tau') and u = e^(2 pi i Re tau') from tables at
    W + 24 bits.  Then E4 = 1 + 240 sum sigma_3(n) q^n and D =
    prod (1 - q^n)^24 = 1 + sum tau(n + 1) q^n, each one integer dot
    product of its cached coefficients with the kept powers; E6 is read off
    the same powers where it is wanted (_e6).  The powers q^n come by
    repeated multiplication, and the sums keep those before the first that
    rounds to 0, which comes within the cap T of _kernel_tables.  Returns
    (reduced, witness, tables, r, u, E4, powers, D): the _kernel_tables of
    prec, r as _nome gives it, powers the lists (Re q^n, Im q^n) of the kept
    powers, the rest in fixed point.  At a point that carries a pass at
    prec (_attach_pass), this is that pass, and no pass is made.

    Error bound, in units 2^-W.  r is within 2^-(W + 20) relative, and q
    and u within 1/2 + 2^-20 units (_nome).  Each power is within 1 unit
    (|q| <= 0.0044 damps what q^(n-1) carries) and the sums are exact, so
    the kept terms leave the E4 sum within 240 S3, the E6 sum within 504 S5
    and D within S_tau, with S_k = sum_(n<=T) sigma_k(n) >= T^(k+1) / (k + 1)
    and S_tau = sum_(n<=T) |tau(n + 1)|.

    The dropped terms.  When q^z rounds to 0 (2 <= z <= T), both parts of
    the product of the kept q^(z-1), within 1 unit, and q, within 0.71,
    lie in [-1/2, 1/2): |q|^z < 0.72 units.  With sigma_k(n) <= zeta(k) n^k,
    Deligne's |tau(n)| <= d(n) n^(11/2) <= 2 n^6 and |q|^n <= 0.72 |q|^(n-z),
    the terms from z on add at most 215 T^3 to the E4 sum, 390 T^5 to the
    E6 sum and 1.48 (T + 1)^6 to D.  Such a z comes at every precision.
    Were q^2 .. q^(T-1) all kept, the product of q^(T-1) and q would be at
    most (|q|^(T-1) 2^W + 1)(|q| 2^W + 0.71) 2^-W units, and _kernel_tables
    makes |q|^(T-1) 2^W <= 114 at the corner, |q| = e^(-pi sqrt 3) <
    0.0043335.  A reduced Im tau' lies at most 2^-(wp - 8) below sqrt(3)/2,
    and the rule is decided in float64: both raise the 114 by under 2^-20
    relative, and (114 (1 + 2^-20) + 1)(0.0043335 + 2^-80) < 0.4984, so
    both parts of q^T round to 0.  A loop that keeps T powers all the same
    raises PrecisionOverflowError.

    So E4 is within e = 240 S3 + 215 T^3 <= 286 S3 (T >= 19), the E6 sum
    within 504 S5 + 390 T^5 and D within e_D = S_tau + 1.48 (T + 1)^6.  As
    |E4| <= 2.1 and 0.89 <= |D| <= 1.12, E4^3 conj(u) is within 14 e + 11.
    In j = E4^3 conj(u) / (D r), rounded once at wp, 1/r <= |j| + 2100 <=
    2101 max(1, |j|): the numerator adds 2101 (14 e + 11) / 0.89 <
    (2^24 - 2^22) S3 units of max(1, |j|), D adds |j| e_D / 0.89 and r
    2^-(W + 19) |j|; u D, Delta's part, is within e_D + 2.  W is wp =
    bits + _GUARD plus the bits of 2^24 S3 + 2^9 S5 + 2 S_tau + 3 (T + 1)^6,
    which holds 2 e_D, and 390 T^5 is below 2^24 T^4 / 4 for T <= 10,000
    and below 8 S5 from T = 293 on.  So E4, E6, D, u D and j are within
    2^-wp, j relative to max(1, |j|).  After the mpmath steps each evaluator
    lies within 2^-(bits + 24) max(|v|, |c tau + d|^-k) of the value v of
    its formulas at tau', k its weight (0 for j, norms).
    """
    if tau._pass is not None and tau._pass[0] == prec:
        return tau._pass[1]
    reduced, witness = reduce_to_fundamental_domain(tau, prec)
    t = _kernel_tables(prec)
    w, s3 = t.w, t.s3
    r, u, (qx, qy) = _nome(reduced, t)
    x, y = qx, qy
    half = 1 << (w - 1)
    xs, ys = [x], [y]
    for _ in range(t.terms - 1):
        x, y = (x * qx - y * qy + half) >> w, (x * qy + y * qx + half) >> w
        if not (x or y):
            break  # every higher power rounds to 0 as well
        xs.append(x)
        ys.append(y)
    else:
        raise PrecisionOverflowError(f"no power of q up to q^{t.terms} rounds to 0")
    one = 1 << w
    e4_val = one + 240 * sum(map(mul, s3, xs)), 240 * sum(map(mul, s3, ys))
    disc = one + sum(map(mul, t.delta, xs)), sum(map(mul, t.delta, ys))
    return reduced, witness, t, r, u, e4_val, (xs, ys), disc


def _e6(series: tuple) -> tuple[int, int]:
    """E6 = 1 - 504 sum sigma_5(n) q^n in fixed point, from the powers of q
    that the pass series of _series kept."""
    t, (xs, ys) = series[2], series[6]
    return (1 << t.w) - 504 * sum(map(mul, t.s5, xs)), -504 * sum(map(mul, t.s5, ys))


def _cocycle(tau: UpperHalfPoint, witness: ModularMatrix, weight: int) -> mpc:
    if witness.c == 0 and witness.d in (1, -1):
        return mpc(1)  # translations (and -I) act trivially in even weight
    return (witness.c * tau.to_mpc() + witness.d) ** (-weight)


def eval_e4(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Eisenstein series E4(tau) = 1 + 240 sum sigma_3(n) q^n."""
    with mp.workprec(prec.wp):
        _, witness, t, _, _, val, _, _ = _series(tau, prec)
        return mp.make_mpc(_to_mpc(val, t.w)) * _cocycle(tau, witness, 4)


def eval_e6(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Eisenstein series E6(tau) = 1 - 504 sum sigma_5(n) q^n."""
    with mp.workprec(prec.wp):
        series = _series(tau, prec)
        _, witness, t = series[:3]
        return mp.make_mpc(_to_mpc(_e6(series), t.w)) * _cocycle(tau, witness, 6)


# Cap on the reduced Im tau' for j, Delta and the Petersson norm: 2 pi times
# the rounding of tau', Im tau' 2^-wp, enters log j and log Delta, and the cap
# keeps it 9 bits under 2^-bits (near Im tau' = 2^29 it uses up _GUARD).
_MAX_POWER_IM = 2**20


def _check_im_cap(reduced: UpperHalfPoint) -> None:
    """PrecisionOverflowError above the reduced Im tau = _MAX_POWER_IM."""
    _, man, exp, bc = reduced.im._mpf_
    # Im tau' in [2^(exp + bc - 1), 2^(exp + bc)) above 2^20, or +inf
    if exp + bc > 21 or (exp + bc == 21 and man != 1) or not man:
        raise PrecisionOverflowError(
            f"reduced Im tau = {mp.nstr(reduced.im, 8)} is above the cap 2^20 = "
            f"{_MAX_POWER_IM}: its rounding, times 2 pi, would reach the last bits"
        )


def _delta(series: tuple, prec: Precision):
    """(2 pi)^12 r (u D) at the reduced point of the pass series of _series,
    a raw mpc rounded at wp = bits + _GUARD, with r a pair (m, e) worth
    m 2^e and (2 pi)^12 from its tables; raises above the Im cap."""
    reduced, _, t, r, u, _, _, disc = series
    _check_im_cap(reduced)
    wp, w = prec.wp, t.w
    x, y = _to_mpc(_fmul(*u, *disc, w), w)
    scale = mpf_mul(from_man_exp(*r), t.two_pi_12, wp + 10)
    return mpf_mul(x, scale, wp, round_nearest), mpf_mul(y, scale, wp, round_nearest)


def eval_delta(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Modular discriminant (2 pi)^12 q prod (1 - q^n)^24 at tau."""
    with mp.workprec(prec.wp):
        series = _series(tau, prec)
        return mp.make_mpc(_delta(series, prec)) * _cocycle(tau, series[1], 12)


def _j(series: tuple) -> tuple:
    """(a, b, den, exp) with j = E4^3 conj(u) / (D r) = (a + b i) 2^exp / den
    exactly, from the pass series of _series, r = m 2^e: each part of j is
    one integer quotient (_quotient), rounded once.  Raises above the Im cap."""
    reduced, _, t, r, u, e4, _, disc = series
    _check_im_cap(reduced)
    w = t.w
    dx, dy = disc
    nx, ny = _fmul(*_fmul(*_fmul(*e4, *e4, w), *e4, w), u[0], -u[1], w)
    # j = n conj(d) / (|d|^2 m 2^e)
    rm, rexp = r
    return nx * dx + ny * dy, ny * dx - nx * dy, (dx * dx + dy * dy) * rm, -rexp


def eval_j(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Modular j-invariant 1728 E4^3 / (E4^3 - E6^2).

    Through E4^3 - E6^2 = 1728 q D, D = prod (1 - q^n)^24: j = E4^3 conj(u)
    / (D r), r = |q| (_j), keeps full relative precision at large Im tau,
    where the literal subtraction would cancel to noise.  At rho, where E4
    vanishes to working precision, E4^3 rounds to 0 and so does j.
    """
    a, b, den, exp = _j(_series(tau, prec))
    return mp.make_mpc((_quotient(a, den, prec.wp, exp), _quotient(b, den, prec.wp, exp)))


def petersson_norm_delta(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """SL2(Z)-invariant norm |Delta(tau)| * (Im tau)^6."""
    with mp.workprec(prec.wp):
        series = _series(tau, prec)
        return abs(mp.make_mpc(_delta(series, prec))) * series[0].im**6


def log_petersson_norm_delta(
    tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION
) -> mpf:
    """log || Delta ||(tau), computed without under/overflow at large Im.

    The four log terms are summed at 16 bits over the working precision
    and the sum rounded to it once: near a zero of log || Delta || (Im tau'
    about 5.1) terms some 30 in size cancel."""
    wp = prec.wp
    reduced, _, t, _, _, _, _, disc = _series(tau, prec)
    with mp.workprec(wp + 16):
        # log|q| = -2 pi Im(tau'), assembled in logs so 10000i stays finite
        total = (
            mp.make_mpf(t.twelve_log_two_pi)
            - 2 * mp.pi * reduced.im
            + mp.log(abs(mp.make_mpc(_to_mpc(disc, t.w))))
            + 6 * mp.log(reduced.im)
        )
    return mp.make_mpf(mpf_pos(total._mpf_, wp, round_nearest))


def tau_from_j(j_target, prec: Precision = DEFAULT_PRECISION) -> UpperHalfPoint:
    """Point of the fundamental domain with the given real j-invariant.

    Real j values are attained on the boundary arcs: j >= 1728 on the
    imaginary axis, 0 <= j <= 1728 on |tau| = 1, j <= 0 on Re tau = 1/2.
    The solution is unique in the closed fundamental domain, because j is
    monotone along each arc.

    A target within err = prec.resolution(y), the accuracy of eval_j,
    of 1728 or 0 returns the CM point i or rho = (-1 + sqrt(3) i) / 2, the
    ends of the unit arc, where j' vanishes.  Elsewhere the safeguarded
    Newton loop _newton runs on log|j| in float64 (_seed), then on |j| - |y|
    until |j - y| <= err: each step reads j and a float64 slope,
    d log j / dtau = -2 pi i E6 / E4, off one kernel pass and gains some 50
    bits, and the root is good to about 2 err / |j'|.  Just off 0 and 1728
    it bisects until its steps take hold.  The point returned is the one
    the loop accepted and carries its pass, so that j, E4, E6, Delta and
    log ||Delta|| at it make no pass of their own (_series); a loop that
    ends with no such point raises InversionError.  NaN or inf raises
    ValueError.
    """
    wp = prec.wp
    with mp.workprec(wp):
        y = mpf(j_target)
        if not mp.isfinite(y):
            raise ValueError(f"j must be finite, got {j_target}")
        err = prec.resolution(y)
        if abs(y - 1728) <= err:
            return UpperHalfPoint(mpf(0), mpf(1))
        if abs(y) <= err:
            return UpperHalfPoint(mpf(-1) / 2, mp.sqrt(3) / 2)
        lo, hi, re, log_y = _arc(y)

        def f(x):  # |j| - |y|, increasing: j has the sign of y on its arc
            # inside the domain: its reduction is the identity
            tau = UpperHalfPoint(x, mp.sqrt(1 - x * x)) if re is None else UpperHalfPoint(re, x)
            series = _attach_pass(tau, prec)
            a, _, den, exp = _j(series)  # j is real on the arc
            j = abs(mp.make_mpf(_quotient(a, den, wp, exp)))
            # d|j| / dx = |j| Re(d log j / dtau dtau / dx), in float64
            e4 = series[5]
            (ax, ay), (bx, by), norm = _e6(series), e4, e4[0] ** 2 + e4[1] ** 2
            e6_e4 = complex((ax * bx + ay * by) / norm, (ay * bx - ax * by) / norm)
            dtau = 1j if re is not None else complex(1, -_float(x._mpf_) / _float(tau.im._mpf_))
            return j - abs(y), j * (-2j * math.pi * e6_e4 * dtau).real, tau

        # twice the bisections that exhaust the bracket at wp
        _, accepted = _newton(f, mpf(_seed(y, lo, hi, re, log_y)), lo, hi, 2 * (wp + 8),
                              lambda x, value, slope: abs(value) <= err)
        if accepted is None:
            raise InversionError(f"no point with |j - y| <= {mp.nstr(err, 5)} at y = {y}")
        return accepted[2]


def _attach_pass(tau: UpperHalfPoint, prec: Precision) -> tuple:
    """One kernel pass at tau, kept on tau so that _series hands it back at
    prec; returns the pass."""
    series = _series(tau, prec)
    object.__setattr__(tau, "_pass", (prec, series))
    return series


def _arc(y) -> tuple:
    """(lo, hi, re, log_y): the arc x in [lo, hi] that holds the root of
    j = y, along which |j| increases, and log|y| in float64.  tau = re + x i,
    or x + sqrt(1 - x^2) i on the unit arc, where re is None.

    The ends bracket the root: j(x i) >= e^(2 pi x) + 744 and
    |j(1/2 + x i)| >= e^(2 pi x) - 744, as the q-expansion's terms fall
    by half or more, so hi = max(2, (log|y| + 1) / (2 pi)) gives
    |j| >= max(e^(4 pi), e |y|) - 744 > |y|."""
    log_y = float(mp.log(abs(y)))
    if 0 <= y < 1728:
        return mpf(-1) / 2, mpf(0), None, log_y
    hi = mpf(max(2.0, (log_y + 1) / (2 * math.pi)))
    return (mpf(1), hi, mpf(0), log_y) if y > 0 else (mp.sqrt(3) / 2, hi, mpf(1) / 2, log_y)


def _newton(f, x, lo, hi, steps: int, close):
    """Safeguarded Newton steps x <- x - f(x) / f'(x) on f, increasing on
    the bracket (lo, hi) of its root, from x, or from the middle if x is not
    inside; f(x) returns (f(x), f'(x), ...), and each value narrows the
    bracket.  A slope that is not positive, or a step that would leave the
    bracket, bisects it instead.  Returns (x, f(x)) at the first x where
    close(x, f(x), f'(x)) holds, else (x, None) once the bracket stops
    shrinking or after `steps` values.  Floats and mpf alike."""
    if not lo < x < hi:
        x = (lo + hi) / 2
    for _ in range(steps):
        fx = f(x)
        value, slope = fx[:2]
        if close(x, value, slope):
            return x, fx
        lo, hi = (x, hi) if value < 0 else (lo, x)
        step = x - value / slope if slope > 0 else hi  # hi is not inside: bisect
        if not lo < step < hi:
            step = (lo + hi) / 2
            if step in (lo, hi):  # the bracket stops shrinking
                break
        x = step
    return x, None


# float64 Newton steps of _seed, and the relative step at which it stops
_SEED_STEPS = 64
_SEED_TOL = 2.0**-46


def _seed(y, lo, hi, re, log_y) -> float:
    """x with |j| = |y| on the arc (lo, hi, re, log_y) of _arc, in float64:
    _newton on log|j| - log|y| (_float_series), d log j / dtau = -2 pi i E6 / E4,
    until a step is below _SEED_TOL max(1, |x|), from the middle of the unit
    arc or off it from the root of |1/q + 744| = |y|.  At rho float64 E4 is
    about 7e-16, not 0, so its log stays finite."""
    lo, hi = float(lo), float(hi)
    x = (lo + hi) / 2
    if re is not None:
        re, x = float(re), math.log(abs(float(y) - 744)) / (2 * math.pi)

    def f(x):
        if re is None:
            im = math.sqrt(1 - x * x)
            tau, dtau = complex(x, im), complex(1, -x / im)
        else:
            tau, dtau = complex(re, x), 1j
        e4, e6, disc = _float_series(cmath.exp(2j * math.pi * tau))
        log_j = 3 * math.log(abs(e4)) - math.log(abs(disc)) + 2 * math.pi * tau.imag
        return log_j - log_y, (-2j * math.pi * e6 / e4 * dtau).real

    return _newton(f, x, lo, hi, _SEED_STEPS,
                   lambda x, v, s: s > 0 and abs(v) <= _SEED_TOL * max(1.0, abs(x)) * s)[0]


# -- float64 screen -----------------------------------------------------------
#
# Vectorised float64 counterparts of the reduction and of j, for statistics
# that only compare a position or a distance against a bound.  Each value
# comes with an error bound; a decision the bound cannot settle goes back to
# the multiprecision functions above.

# 504 sigma_5(11) |q|^11 < 1e-18 and |tau(12)| |q|^11 < 4e-21 on the domain
_SCREEN_TERMS = 10
_SCREEN_COEFFICIENTS = (
    _sigma(3, _SCREEN_TERMS), _sigma(5, _SCREEN_TERMS), _delta_coefficients(_SCREEN_TERMS)
)
# points with Im 2^-32 (the lowest the orbit screen reduces) take under 20
_SCREEN_MAX_STEPS = 64
# Absolute error of the float64 E4, E6 and D sums on the fundamental domain:
# the sums stay below 2.2 in size and their rounding is below 2^-48.
_SCREEN_SERIES_ERR = 2.0**-46


def reduce_witness_float64(w: np.ndarray) -> tuple[np.ndarray, ...]:
    """SL2(Z) witnesses (a, b, c, d), as four int64 arrays, found by reducing
    the complex128 points w in float64.

    Rounding can leave a witness that does not quite reduce its point,
    mostly near the boundary of the fundamental domain, and a point still
    unreduced after _SCREEN_MAX_STEPS steps keeps the witness reached so far:
    apply the witness to exact data and check the result.
    """
    w = np.array(w, dtype=np.complex128)
    a = np.ones(w.shape, np.int64)
    b = np.zeros(w.shape, np.int64)
    c = np.zeros(w.shape, np.int64)
    d = np.ones(w.shape, np.int64)
    active = np.arange(w.size)
    for _ in range(_SCREEN_MAX_STEPS):
        z = w[active]
        k = np.rint(z.real)
        z -= k
        k = k.astype(np.int64)
        a[active] -= k * c[active]
        b[active] -= k * d[active]
        # as in reduce_to_fundamental_domain, points on the arc stay put
        flip = z.real * z.real + z.imag * z.imag < 1.0 - 2.0**-40
        active = active[flip]
        if not active.size:
            break
        w[active] = -1.0 / z[flip]
        a[active], b[active], c[active], d[active] = (
            -c[active], -d[active], a[active], b[active]
        )
    return a, b, c, d


def _float_series(q):
    """(E4, E6, D) at q in float64 from _SCREEN_COEFFICIENTS, the kernel's
    sigma_3(n), sigma_5(n) and tau(n + 1) to n = _SCREEN_TERMS, by arithmetic
    operators alone: q is a complex or a complex128 array."""
    s3, s5, tau = _SCREEN_COEFFICIENTS
    acc4 = acc6 = acc_d = 0.0
    for n in range(_SCREEN_TERMS - 1, -1, -1):
        acc4 = (acc4 + s3[n]) * q
        acc6 = (acc6 + s5[n]) * q
        acc_d = (acc_d + tau[n]) * q
    return 1.0 + 240.0 * acc4, 1.0 - 504.0 * acc6, 1.0 + acc_d


def log_j_float64(
    tau: np.ndarray, tau_err: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """log j = log|j| + i arg j at points tau of the fundamental domain, in
    complex128, and the log of a bound on |j(tau) - j(t)| over |t - tau| <=
    tau_err, float64 rounding included.

    The log form keeps Im tau in the thousands finite:
    log j = 3 log E4 - 2 pi i tau - log D, D = prod (1 - q^n)^24 from
    _float_series.  With eta = q D, the bound is twice the sum of three
    first-order terms: rounding, 2^-44 (1 + Im tau) |j|; the error of the
    E4 sum, 3 * 2^-46 |E4|^2 / |eta|; and the position,
    |dj/dtau| tau_err = 2 pi |E6| |E4|^2 / |eta| tau_err.  |E4| and |E6| are
    raised by their largest change over the disc (|E4'| <= 8, |E6'| <= 20
    on the domain), so the bound stays positive at j = 0 and j = 1728.
    """
    x, y = tau.real, tau.imag
    two_pi = 2.0 * math.pi
    e4, e6, disc = _float_series(np.exp(two_pi * (1j * x - y)))
    log_disc = np.log(disc)
    with np.errstate(divide="ignore"):
        log_j = 3.0 * np.log(e4) - log_disc + two_pi * (y - 1j * x)
        log_eta = log_disc.real - two_pi * y
        log_e4_sq = 2.0 * np.log(np.abs(e4) + _SCREEN_SERIES_ERR + 8.0 * tau_err)
        e6_hi = np.abs(e6) + _SCREEN_SERIES_ERR + 20.0 * tau_err
        rounding = log_j.real + np.log(2.0**-44 * (1.0 + y))
        series = math.log(3.0 * _SCREEN_SERIES_ERR) + log_e4_sq - log_eta
        position = np.log(two_pi * e6_hi * tau_err) + log_e4_sq - log_eta
    log_err = math.log(2.0) + np.logaddexp(rounding, np.logaddexp(series, position))
    return log_j, log_err
