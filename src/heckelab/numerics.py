"""Arbitrary-precision evaluation of Delta, E4, E6, j on the upper half-plane.

All evaluation routes through one q-series pass, _series: reduction to the
standard fundamental domain |Re tau| <= 1/2, |tau| >= 1, where
|q| <= exp(-pi*sqrt(3)) ~ 0.00433 makes the q-expansions converge fast, then
the E4 sum, the E6 sum and the Euler product in fixed point, truncated at
each point's own |q|, within an a-priori error bound.  Values at unreduced
points are recovered through the weight-k cocycle (c*tau + d)^(-k).

The reduction loop and the Moebius step that builds an orbit point run on
Python-int mantissas, each step rounded exactly as the mpmath operation it
replaces rounds, so the reduced points are mpmath's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    from_man_exp,
    mpf_cos_sin_pi,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    round_nearest,
)

# Guard bits added on top of the requested precision for internal work.
_GUARD = 32

# ln(1/|q|) on the fundamental domain: 2*pi*(sqrt(3)/2).
_LOG_INV_Q_MIN = math.pi * math.sqrt(3.0)

_LN2 = math.log(2.0)


class PrecisionOverflowError(ArithmeticError):
    """Requested series truncation cannot meet the tail bound at these bits,
    or j or Delta is asked for above the reduced Im tau = 2^20
    (_MAX_POWER_IM)."""


@dataclass(frozen=True)
class Precision:
    """Working precision: mantissa bits."""

    bits: int = 128

    def __post_init__(self):
        if self.bits < 53:
            raise ValueError(f"bits must be >= 53, got {self.bits}")

    @property
    def series_terms(self) -> int:
        """Cap on the q-series order (_series_order): its tail is below
        2^-bits everywhere on the fundamental domain up to 2,279,439 bits."""
        return math.ceil((self.bits * _LN2 + 64.0) / _LOG_INV_Q_MIN)


DEFAULT_PRECISION = Precision()


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point re + im*i with im > 0.  Components are mpmath reals: an mpf
    part is kept exactly, any other number is converted at the context
    precision."""

    re: mpf
    im: mpf

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
        with mp.workprec((prec.bits + _GUARD) if prec else mp.prec):
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
    tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION
) -> tuple[UpperHalfPoint, ModularMatrix]:
    """Reduce tau into |Re| <= 1/2, |tau| >= 1 and return the witness.

    The witness gamma is in SL2(Z) and satisfies gamma * tau = reduced
    point, rounded at the working precision wp = bits + _GUARD.  A point
    with |Re| < 1/2 - 2^-40 and |tau|^2 > 1 + 2^-40 in float64 is returned
    at once, with the identity witness, as the loop would return it.

    The loop runs on integer mantissas, and each step gives what the mpc
    loop at wp bits gives: n = nint(Re z), ties to even (mpf_nint); z - n
    on the real part (mpf_sub); |z|^2 from two products and a sum at wp
    bits, compared exactly with 1 - 2^-(wp - 8); and -1/z, as
    libmpc.mpc_div((-1, 0), z).  A point within 2^-(wp - 8) of the arc
    |tau| = 1 is not inverted, or rounding could trap the loop in a
    two-cycle across it.  A point with Im tau = +inf is only translated;
    an infinite or NaN Re tau raises ValueError.
    """
    wp = prec.bits + _GUARD
    x, y = float(tau.re), float(tau.im)
    if abs(x) < 0.5 - _INSIDE_MARGIN and x * x + y * y > 1 + _INSIDE_MARGIN:
        if tau.re._mpf_[3] <= wp and tau.im._mpf_[3] <= wp:
            return tau, _IDENTITY
        # the parts rounded to wp bits, as mpf() at wp bits rounds them
        re, im = (mpf_pos(part._mpf_, wp, round_nearest) for part in (tau.re, tau.im))
        return UpperHalfPoint._of_raw(re, im), _IDENTITY
    re, im = _parts(tau.re, wp), _parts(tau.im, wp)
    if re is None:
        raise ValueError(f"cannot reduce a point whose Re tau = {tau.re} is not finite")
    xm, xe = re
    if im is None:  # Im tau = +inf: never below the arc
        n = _nint(xm, xe)
        re = from_man_exp(*_add(xm, xe, *_int(-n), wp))
        return UpperHalfPoint._of_raw(re, tau.im._mpf_), ModularMatrix(1, -n, 0, 1)
    ym, ye = im
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_MAX_REDUCTION_STEPS):
        n = _nint(xm, xe)
        if n:
            xm, xe = _add(xm, xe, *_int(-n), wp)
            a, b = a - n * c, b - n * d
        if _below_arc(xm, xe, ym, ye, wp):
            xm, xe, ym, ye = _neg_inv(xm, xe, ym, ye, wp)
            a, b, c, d = -c, -d, a, b
        else:
            point = UpperHalfPoint._of_raw(from_man_exp(xm, xe), from_man_exp(ym, ye))
            return point, ModularMatrix(a, b, c, d)
    raise ArithmeticError("fundamental-domain reduction did not terminate")


def _moebius_step(
    tau: UpperHalfPoint, alpha: int, beta: int, delta: int, wp: int
) -> UpperHalfPoint:
    """(alpha*tau + beta)/delta for positive alpha and delta, as mpc
    arithmetic at wp bits gives it from tau.to_mpc(): each part rounded to
    wp bits, times alpha (mpf_mul_int), beta added to the real part
    (mpf_add) and each part divided by delta (mpf_div).  An infinite or NaN
    part stays as it is, as in mpc arithmetic."""
    den = _int(delta)
    parts = []
    for x, shift in ((tau.re, beta), (tau.im, 0)):
        finite = _parts(x, wp)
        if finite is None:
            parts.append(x._mpf_)
            continue
        man, exp = _round(finite[0] * alpha, finite[1], wp)
        if shift:
            man, exp = _add(man, exp, *_int(shift), wp)
        parts.append(from_man_exp(*_div(man, exp, *den, wp)))
    return UpperHalfPoint._of_raw(*parts)


@lru_cache(maxsize=64)
def _sigma_tables(n_terms: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divisor sums sigma_3(n), sigma_5(n) for n = 1..n_terms."""
    s3 = [0] * (n_terms + 1)
    s5 = [0] * (n_terms + 1)
    for d in range(1, n_terms + 1):
        d3 = d * d * d
        d5 = d3 * d * d
        for m in range(d, n_terms + 1, d):
            s3[m] += d3
            s5[m] += d5
    return tuple(s3[1:]), tuple(s5[1:])


def _log_tail(terms: int, im: float) -> float:
    """log of a bound on the E6 tail dropped after `terms` terms, divided
    by |q|, at Im = im: sigma_5(n) <= zeta(5) n^5, so the tail of E6, the
    worst of the three series, is below 700 (T+1)^5 |q|^(T+1), and log|q| =
    -2 pi im.  Log space keeps huge bit counts and tiny q finite."""
    return math.log(700.0) + 5 * math.log(terms + 1) - 2 * math.pi * im * terms


def _series_order(im: float, prec: Precision) -> int:
    """Number of q-series terms kept at a reduced point with Im = im: the
    fewest T <= prec.series_terms whose tail bound is below
    2^-(bits + 2 _GUARD) relative to |q|, _GUARD bits under the last bit of
    the working precision.  Raises PrecisionOverflowError when the absolute
    bound at prec.series_terms misses 2^-bits.

    _log_tail exceeds log 700 - 2 pi im T, so no T below
    (log 700 - limit) / (2 pi im) passes, and the search starts at its
    floor: 5 log(T + 1) >= 3.4 covers the float64 rounding of that bound.
    """
    cap = prec.series_terms
    if not _log_tail(cap, im) - 2 * math.pi * im < -prec.bits * _LN2:
        raise PrecisionOverflowError(
            f"series_terms={cap} cannot reach 2^-{prec.bits} at Im tau={im:.5g}"
        )
    limit = -(prec.bits + 2 * _GUARD) * _LN2
    start = max(1, math.floor((math.log(700.0) - limit) / (2 * math.pi * im)))
    for terms in range(start, cap):
        if _log_tail(terms, im) < limit:
            return terms
    return cap


# -- the reduction on integer mantissas --------------------------------------
#
# A real is a pair (man, exp) of Python ints worth man * 2^exp, the sign in
# man and man odd or zero, as in mpmath's raw mpf tuples.  Each step returns
# what the libmpf operation it replaces returns at wp bits.


def _round(man: int, exp: int, wp: int) -> tuple[int, int]:
    """man * 2^exp rounded half to even to wp bits, trailing zero bits
    stripped: libmpf._normalize on a signed mantissa.  _round(man * n, exp,
    wp) is libmpf.mpf_mul_int, an exact product and then this rounding.

    With man = k 2^n + r, 0 <= r < 2^n (>> floors, whatever the sign),
    adding 2^(n-1) - 1 + (k & 1) before the shift carries into k exactly
    when r > 2^(n-1), or r = 2^(n-1) and k is odd: half to even, which is
    symmetric in the sign, as mpmath's rounding of the magnitude is.
    """
    if not man:
        return 0, 0
    n = man.bit_length() - wp
    if n > 0:
        man = (man + (1 << (n - 1)) - 1 + ((man >> n) & 1)) >> n
        exp += n
    if not man & 1:
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return man, exp


def _add(m1: int, e1: int, m2: int, e2: int, wp: int) -> tuple[int, int]:
    """libmpf.mpf_add on finite values, sticky shortcut included: when the
    exponents differ by more than 100 and the magnitudes by more than wp + 4
    bits, the smaller term only moves the larger one by one unit
    2^-(wp + 4) below its last bit, towards the smaller term's sign.  The
    rounding is _round's, inline: this is the reduction's hottest step."""
    if not m1:
        man, exp = m2, e2
    elif not m2:
        man, exp = m1, e1
    else:
        if e1 < e2:
            m1, e1, m2, e2 = m2, e2, m1, e1
        offset = e1 - e2
        if offset > 100 and m1.bit_length() + offset - m2.bit_length() > wp + 4:
            man, exp = (m1 << (wp + 4)) + (1 if m2 > 0 else -1), e1 - wp - 4
        else:
            man, exp = (m1 << offset) + m2, e2
    n = man.bit_length() - wp
    if n > 0:
        man = (man + (1 << (n - 1)) - 1 + ((man >> n) & 1)) >> n
        exp += n
    if not man & 1:
        if not man:
            return 0, 0
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return man, exp


def _parts(x: mpf, wp: int) -> tuple[int, int] | None:
    """(man, exp) of x rounded to wp bits, as mpf(x) rounds it; None for an
    infinity or NaN, whose raw mantissa is 0 as a zero's is."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        return None
    return _round(-man if sign else man, exp, wp)


def _int(n: int) -> tuple[int, int]:
    """(man, exp) of the integer n, exactly: libmpf.from_int."""
    if not n:
        return 0, 0
    zeros = (n & -n).bit_length() - 1
    return n >> zeros, zeros


def _nint(man: int, exp: int) -> int:
    """The integer nearest man * 2^exp, ties to even: libmpf.mpf_nint, whose
    |x| < 1 case (+-1/2 -> 0, otherwise nearest) is this rounding too."""
    if exp >= 0:
        return man << exp
    n = -exp
    return (man + (1 << (n - 1)) - 1 + ((man >> n) & 1)) >> n


def _div(m1: int, e1: int, m2: int, e2: int, wp: int) -> tuple[int, int]:
    """libmpf.mpf_div, m2 nonzero: a divisor whose mantissa is +-1 is a
    shift, rounded; otherwise the quotient gets max(5, wp - bits(m1) +
    bits(m2) + 5) extra bits, then a sticky 1 bit when the division leaves
    a remainder, and is rounded to wp bits."""
    if not m1:
        return 0, 0
    s, t = abs(m1), abs(m2)
    negative = (m1 < 0) != (m2 < 0)
    if t == 1:
        return _round(-s if negative else s, e1 - e2, wp)
    extra = max(5, wp - s.bit_length() + t.bit_length() + 5)
    quot, rem = divmod(s << extra, t)
    if rem:
        quot = (quot << 1) | 1
        extra += 1
    return _round(-quot if negative else quot, e1 - e2 - extra, wp)


def _below_arc(xm: int, xe: int, ym: int, ye: int, wp: int) -> bool:
    """|z|^2 < 1 - 2^-(wp - 8), z = x + iy, y > 0, with |z|^2 the sum of two
    products at wp bits, as mpf arithmetic forms it, compared exactly.
    y >= 1, or |x| and y below 1/2, settle it from the sizes alone: the
    rounding is monotone, and 1/4 and 1 are representable."""
    top = ym.bit_length() + ye  # 2^(top - 1) <= y < 2^top
    if top > 0:
        return False
    if top < 0 and xm.bit_length() + xe < 0:
        return True
    man, exp = _add(*_round(xm * xm, 2 * xe, wp), *_round(ym * ym, 2 * ye, wp), wp)
    top = man.bit_length() + exp
    if top:
        return top < 0
    # in [1/2, 1): compare man 2^(exp + wp - 8) with 2^(wp - 8) - 1
    shift, bound = exp + wp - 8, (1 << (wp - 8)) - 1
    return man << shift < bound if shift >= 0 else man < bound << -shift


def _norm_down(xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple[int, int]:
    """x^2 + y^2, y != 0, as libmpc.mpc_div forms it: the mpf_add of the
    exact squares at prec bits with libmpf's default rounding round_fast,
    which is round_down (truncation), not to nearest; _add's sticky
    shortcut included."""
    m1, e1, m2, e2 = xm * xm, 2 * xe, ym * ym, 2 * ye
    if not m1:
        man, exp = m2, e2
    else:
        if e1 < e2:
            m1, e1, m2, e2 = m2, e2, m1, e1
        offset = e1 - e2
        if offset > 100 and m1.bit_length() + offset - m2.bit_length() > prec + 4:
            man, exp = (m1 << (prec + 4)) + 1, e1 - prec - 4
        else:
            man, exp = (m1 << offset) + m2, e2
    n = man.bit_length() - prec
    if n > 0:
        man >>= n
        exp += n
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp + zeros


def _neg_inv(xm: int, xe: int, ym: int, ye: int, wp: int) -> tuple[int, int, int, int]:
    """-1/z, z = x + iy with y != 0, as libmpc.mpc_div((-1, 0), z, wp) gives
    it: -x and y, each divided by the norm (_norm_down at wp + 10 bits) by
    mpf_div at wp bits."""
    norm = _norm_down(xm, xe, ym, ye, wp + 10)
    return _div(-xm, xe, *norm, wp) + _div(ym, ye, *norm, wp)


# -- the q-series in fixed point ---------------------------------------------
#
# A complex number is a pair (x, y) of Python ints worth (x + iy) 2^-W, and a
# product of two is rounded to the nearest unit 2^-W.


@lru_cache(maxsize=64)
def _kernel_tables(prec: Precision) -> tuple[int, tuple, tuple, tuple]:
    """(W, sigma_3, sigma_5, pentagonal) up to the order prec.series_terms:
    W as _series derives it, and the (exponent, sign) pairs of Euler's
    prod (1 - q^n) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2))."""
    terms = prec.series_terms
    s3, s5 = _sigma_tables(terms)
    weight = 2**24 * (sum(s3) + terms) + 2**9 * sum(s5)
    pentagonal = [
        (n, (-1) ** k)
        for k in range(1, terms + 1)
        for n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
        if n <= terms
    ]
    return prec.bits + _GUARD + weight.bit_length(), s3, s5, tuple(pentagonal)


def _fixed(part: tuple, w: int) -> int:
    """The finite raw mpf part in units 2^-w, rounded to nearest."""
    sign, man, exp, bc = part
    shift = exp + w
    if bc + shift < 0:  # below half a unit
        return 0
    n = man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift
    return -n if sign else n


def _fmul(a: int, b: int, c: int, d: int, w: int) -> tuple[int, int]:
    """(a + ib)(c + id) in units 2^-w, rounded to nearest."""
    half = 1 << (w - 1)
    return (a * c - b * d + half) >> w, (a * d + b * c + half) >> w


def _to_mpc(z: tuple[int, int], w: int) -> tuple:
    """The fixed-point z as a raw mpc, exactly."""
    return from_man_exp(z[0], -w), from_man_exp(z[1], -w)


def _series(tau: UpperHalfPoint, prec: Precision, e4=False, e6=False, euler=False):
    """The one q-series pass behind every evaluator, in fixed point.

    Reduces tau and forms q = r u at the reduced point tau' as
    mpc_expjpi(2 tau') does at W bits, r = e^(-2 pi Im tau') and u =
    e^(2 pi i Re tau'); then, to the order T of _series_order, the series
    asked for: E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum sigma_5(n)
    q^n and prod (1 - q^n), a signed sum of the powers at the pentagonal
    exponents.  The powers q^n come by repeated multiplication, up to the
    first that rounds to 0.  Returns (reduced, witness, W, r, u, E4, E6,
    prod): r a raw mpf, the rest in fixed point or None if not asked for.

    Error bound, in units 2^-W.  q and u are rounded to the grid, and each
    power is within 1 unit (|q| <= 0.0044 damps what q^(n-1) carries).  So
    the E4 sum is within e = 240 S3, the E6 sum within 504 S5 and the
    product within T, S_k = sum_(n<=T) sigma_k(n); the tail adds
    2^-(bits + 64) |q|.  As |E4| <= 2.1 and 0.89 <= |prod|^24 <= 1.12,
    E4^3 conj(u) is within 14 e + 11, prod^24 within 27 T + 19, and their
    quotient R within 16 e + 310 T + 224 <= 2^12 (S3 + T); j = R / r with
    1/r <= |j| + 2100.  W is wp = bits + _GUARD plus the bits of
    2^24 (S3 + T) + 2^9 S5 at T = prec.series_terms, so E4, E6, prod^24
    and j are within 2^-wp, j relative to max(1, |j|).  After the mpmath
    steps each evaluator lies within 2^-(bits + 24) max(|v|, |c tau + d|^-k)
    of the value v of its formulas at tau', k its weight (0 for j, norms).
    """
    reduced, witness = reduce_to_fundamental_domain(tau, prec)
    w, s3, s5, pentagonal = _kernel_tables(prec)
    # the parts of tau' carry at most wp bits, so doubling them is exact
    two_im = mpf_shift(reduced.im._mpf_, 1)
    wpe = w + 10 + max(0, two_im[2] + two_im[3])
    r = mpf_exp(mpf_neg(mpf_mul(mpf_pi(wpe), two_im, wpe)), w + 10)
    c, s = mpf_cos_sin_pi(mpf_shift(reduced.re._mpf_, 1), w + 10)
    qx, qy = x, y = _fixed(mpf_mul(r, c), w), _fixed(mpf_mul(r, s), w)
    half = 1 << (w - 1)
    xs, ys = [x], [y]
    for _ in range(_series_order(float(reduced.im), prec) - 1):
        x, y = (x * qx - y * qy + half) >> w, (x * qy + y * qx + half) >> w
        if not (x or y):
            break  # every higher power rounds to 0 as well
        xs.append(x)
        ys.append(y)
    one = 1 << w
    e4_val = e6_val = prod = None
    if e4:
        e4_val = one + 240 * sum(map(mul, s3, xs)), 240 * sum(map(mul, s3, ys))
    if e6:
        e6_val = one - 504 * sum(map(mul, s5, xs)), -504 * sum(map(mul, s5, ys))
    if euler:
        kept = [(sign, n - 1) for n, sign in pentagonal if n <= len(xs)]
        prod = one + sum(k * xs[i] for k, i in kept), sum(k * ys[i] for k, i in kept)
    u = _fixed(c, w), _fixed(s, w)
    return reduced, witness, w, r, u, e4_val, e6_val, prod


def _cocycle(tau: UpperHalfPoint, witness: ModularMatrix, weight: int) -> mpc:
    if witness.c == 0 and witness.d in (1, -1):
        return mpc(1)  # translations (and -I) act trivially in even weight
    return (witness.c * tau.to_mpc() + witness.d) ** (-weight)


def eval_e4(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Eisenstein series E4(tau) = 1 + 240 sum sigma_3(n) q^n."""
    with mp.workprec(prec.bits + _GUARD):
        _, witness, w, _, _, val, _, _ = _series(tau, prec, e4=True)
        return mp.make_mpc(_to_mpc(val, w)) * _cocycle(tau, witness, 4)


def eval_e6(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Eisenstein series E6(tau) = 1 - 504 sum sigma_5(n) q^n."""
    with mp.workprec(prec.bits + _GUARD):
        _, witness, w, _, _, _, val, _ = _series(tau, prec, e6=True)
        return mp.make_mpc(_to_mpc(val, w)) * _cocycle(tau, witness, 6)


# Cap on the reduced Im tau' for j, Delta and the Petersson norm: 2 pi times
# the rounding of tau', Im tau' 2^-wp, enters log j and log Delta, and the cap
# keeps it 9 bits under 2^-bits (near Im tau' = 2^29 it uses up _GUARD).
_MAX_POWER_IM = 2**20


def _prod24(reduced: UpperHalfPoint, prod: tuple[int, int], w: int) -> tuple[int, int]:
    """prod^24 in fixed point, by four squarings and one product;
    PrecisionOverflowError above the reduced Im tau = _MAX_POWER_IM."""
    if reduced.im > _MAX_POWER_IM:
        raise PrecisionOverflowError(
            f"reduced Im tau = {mp.nstr(reduced.im, 8)} is above the cap 2^20 = "
            f"{_MAX_POWER_IM}: its rounding, times 2 pi, would reach the last bits"
        )
    p2 = _fmul(*prod, *prod, w)
    p4 = _fmul(*p2, *p2, w)
    p8 = _fmul(*p4, *p4, w)
    return _fmul(*_fmul(*p8, *p8, w), *p8, w)


def _delta(reduced: UpperHalfPoint, w: int, r, u, prod, wp: int):
    """(2 pi)^12 r (u prod^24) at the reduced point, a raw mpc."""
    x, y = _to_mpc(_fmul(*u, *_prod24(reduced, prod, w), w), w)
    scale = mpf_mul(r, ((2 * mp.pi) ** 12)._mpf_, wp + 10)
    return mpf_mul(x, scale, wp, round_nearest), mpf_mul(y, scale, wp, round_nearest)


def eval_delta(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Modular discriminant (2 pi)^12 q prod (1 - q^n)^24 at tau."""
    wp = prec.bits + _GUARD
    with mp.workprec(wp):
        reduced, witness, w, r, u, _, _, prod = _series(tau, prec, euler=True)
        delta = mp.make_mpc(_delta(reduced, w, r, u, prod, wp))
        return delta * _cocycle(tau, witness, 12)


def eval_j(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Modular j-invariant 1728 E4^3 / (E4^3 - E6^2).

    Through E4^3 - E6^2 = 1728 q prod (1 - q^n)^24: R = E4^3 conj(u) /
    prod^24 in fixed point, divided by r = |q| in mpmath, keeps full
    relative precision at large Im tau, where the literal subtraction would
    cancel to noise.  At rho, where E4 vanishes to working precision, E4^3
    rounds to 0 and so does j.
    """
    wp = prec.bits + _GUARD
    reduced, _, w, r, (ux, uy), e4, _, prod = _series(tau, prec, e4=True, euler=True)
    dx, dy = _prod24(reduced, prod, w)
    nx, ny = _fmul(*_fmul(*_fmul(*e4, *e4, w), *e4, w), ux, -uy, w)
    # R's parts, each rounded to the nearest unit
    norm2 = 2 * (dx * dx + dy * dy)
    rx = (((nx * dx + ny * dy) << (w + 1)) + norm2 // 2) // norm2
    ry = (((ny * dx - nx * dy) << (w + 1)) + norm2 // 2) // norm2
    re, im = (mpf_div(x, r, wp, round_nearest) for x in _to_mpc((rx, ry), w))
    return mp.make_mpc((re, im))


def petersson_norm_delta(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """SL2(Z)-invariant norm |Delta(tau)| * (Im tau)^6."""
    wp = prec.bits + _GUARD
    with mp.workprec(wp):
        reduced, _, w, r, u, _, _, prod = _series(tau, prec, euler=True)
        return abs(mp.make_mpc(_delta(reduced, w, r, u, prod, wp))) * reduced.im**6


def log_petersson_norm_delta(
    tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION
) -> mpf:
    """log || Delta ||(tau), computed without under/overflow at large Im."""
    with mp.workprec(prec.bits + _GUARD):
        reduced, _, w, _, _, _, _, prod = _series(tau, prec, euler=True)
        # log|q| = -2 pi Im(tau'), assembled in logs so 10000i stays finite
        return (
            12 * mp.log(2 * mp.pi)
            - 2 * mp.pi * reduced.im
            + 24 * mp.log(abs(mp.make_mpc(_to_mpc(prod, w))))
            + 6 * mp.log(reduced.im)
        )


def tau_from_j(j_target, prec: Precision = DEFAULT_PRECISION) -> UpperHalfPoint:
    """Point of the fundamental domain with the given real j-invariant.

    Real j values are attained on the boundary arcs: j >= 1728 on the
    imaginary axis, 0 <= j <= 1728 on |tau| = 1, j <= 0 on Re tau = 1/2.
    The solution is unique in the closed fundamental domain, because j is
    monotone along each arc.

    A target within err = 2^-bits * max(1, |y|), the accuracy of eval_j,
    of 1728 or 0 returns the CM point i or rho = (-1 + sqrt(3) i) / 2, the
    ends of the unit arc, where j' vanishes.  Elsewhere float64 log j seeds
    a bracketed secant (Illinois) iteration at working precision, which
    stops once |j - y| <= err: the root is good to about 2 err / |j'|.  A
    root where that iteration fails, such as a target just off 0 or 1728,
    is bisected to full working precision.  A NaN or infinite target
    raises ValueError.
    """
    with mp.workprec(prec.bits + _GUARD):
        y = mpf(j_target)
        if not mp.isfinite(y):
            raise ValueError(f"j must be finite, got {j_target}")
        err = mpf(2) ** -prec.bits * max(1, abs(y))
        if abs(y - 1728) <= err:
            return UpperHalfPoint(mpf(0), mpf(1))
        if abs(y) <= err:
            return UpperHalfPoint(mpf(-1) / 2, mp.sqrt(3) / 2)
        log_y = float(mp.log(abs(y))) if y else -math.inf
        if y >= 1728:
            def f(t):
                return eval_j(UpperHalfPoint(mpf(0), t), prec).real - y

            hi = mpf(2)
            while f(hi) < 0:
                hi *= 2
            guess = _float_root(lambda t: 1j * t, 1.0, float(hi), log_y)
            return UpperHalfPoint(mpf(0), _root(f, mpf(1), hi, prec.bits, guess, err))
        if y >= 0:
            # arc tau = e^{i theta}, theta from pi/2 (j=1728) to 2pi/3 (j=0)
            def f(th):
                z = mp.expjpi(th)
                return eval_j(UpperHalfPoint(z.real, z.imag), prec).real - y

            guess = _float_root(lambda th: np.exp(1j * math.pi * th), 0.5, 2 / 3, log_y)
            z = mp.expjpi(_root(f, mpf(2) / 3, mpf(1) / 2, prec.bits, guess, err))
            return UpperHalfPoint(z.real, z.imag)

        def f(t):
            return eval_j(UpperHalfPoint(mpf(1) / 2, t), prec).real - y

        lo, hi = mp.sqrt(3) / 2, mpf(2)
        while f(hi) > 0:
            hi *= 2
        guess = _float_root(lambda t: 0.5 + 1j * t, float(lo), float(hi), log_y)
        return UpperHalfPoint(mpf(1) / 2, _root(f, hi, lo, prec.bits, guess, err))


# float64 seed of tau_from_j: grid points per refinement, and the relative
# width at which the refinement stops (log_j_float64 is good to ~2^-44)
_SEED_GRID = 129
_SEED_WIDTH = 2.0**-42
# half-width of the secant's first bracket around the seed, relative
_LOCATE_WIDTH = 2**-36
_LOCATE_STEPS = 24


def _float_root(tau_of, lo: float, hi: float, log_abs_j: float) -> float | None:
    """The x in [lo, hi] where log|j(tau_of(x))| crosses log_abs_j, found in
    float64 by refining a grid; None when the grid shows no crossing.

    tau_of maps a float64 array into the fundamental domain, and |j| must
    be monotone along it.
    """
    while hi - lo > _SEED_WIDTH * max(1.0, abs(hi)):
        x = np.linspace(lo, hi, _SEED_GRID)
        log_j = log_j_float64(tau_of(x), np.zeros(x.shape))[0].real
        above = log_j > log_abs_j
        cross = np.flatnonzero(above[1:] != above[:-1])
        if not cross.size:
            return None
        lo, hi = x[cross[0]], x[cross[0] + 1]
    return (lo + hi) / 2


def _root(f, neg_end, pos_end, bits: int, guess: float | None, err):
    """The root of f between neg_end and pos_end: _locate's from the float
    guess, or the plain bisection's when there is no guess or it fails."""
    root = None if guess is None else _locate(f, neg_end, pos_end, guess, err)
    return _bisect(f, neg_end, pos_end, bits) if root is None else root


def _bisect(f, neg_end, pos_end, bits: int):
    """Bisection with f(neg_end) <= 0 <= f(pos_end), to full working precision."""
    for _ in range(bits + _GUARD + 8):
        mid = (neg_end + pos_end) / 2
        if mid == neg_end or mid == pos_end:
            break
        if f(mid) < 0:
            neg_end = mid
        else:
            pos_end = mid
    return (neg_end + pos_end) / 2


def _locate(f, neg_end, pos_end, guess: float, err):
    """The x with |f(x)| <= err, or None when the root is degenerate.

    A bracketed secant (Illinois) iteration runs from [guess -+ 2^-36].
    None when that bracket leaves (neg_end, pos_end) or does not bracket,
    the last secant slope is not finite or has the wrong sign (f bends
    towards a multiple root), or the iteration does not converge.
    """
    increasing = neg_end < pos_end
    width = mpf(_LOCATE_WIDTH) * max(1, abs(guess))
    a, b = mpf(guess) - width, mpf(guess) + width
    if not (min(neg_end, pos_end) < a and b < max(neg_end, pos_end)):
        return None
    if not increasing:
        a, b = b, a
    fa, fb = f(a), f(b)
    if not fa < 0 < fb:
        return None
    x0, f0, x1, f1 = a, fa, b, fb
    side = 0
    for _ in range(_LOCATE_STEPS):
        x = (a * fb - b * fa) / (fb - fa)
        fx = f(x)
        x0, f0, x1, f1 = x1, f1, x, fx
        if abs(fx) <= err:
            if x1 == x0:
                return None
            slope = (f1 - f0) / (x1 - x0)
            if not mp.isfinite(slope) or (slope > 0) != increasing:
                return None
            return x
        # Illinois: halve the value kept at the end that stays twice
        if fx < 0:
            a, fa = x, fx
            if side < 0:
                fb /= 2
            side = -1
        else:
            b, fb = x, fx
            if side > 0:
                fa /= 2
            side = 1
    return None


# -- float64 screen -----------------------------------------------------------
#
# Vectorised float64 counterparts of the reduction and of j, for statistics
# that only compare a position or a distance against a bound.  Each value
# comes with an error bound; a decision the bound cannot settle goes back to
# the multiprecision functions above.

# 504 sigma_5(11) |q|^11 < 1e-18 on the fundamental domain
_SCREEN_TERMS = 10
# points with Im 2^-32 (the lowest the orbit screen reduces) take under 20
_SCREEN_MAX_STEPS = 64
# Absolute error of the float64 E4 and E6 sums on the fundamental domain:
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


def log_j_float64(
    tau: np.ndarray, tau_err: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """log j = log|j| + i arg j at points tau of the fundamental domain, in
    complex128, and the log of a bound on |j(tau) - j(t)| over |t - tau| <=
    tau_err, float64 rounding included.

    The log form keeps Im tau in the thousands finite:
    log j = 3 log E4 - 2 pi i tau - 24 sum log(1 - q^n).  With
    eta = q prod (1 - q^n)^24, the bound is twice the sum of three
    first-order terms: rounding, 2^-44 (1 + Im tau) |j|; the error of the
    E4 sum, 3 * 2^-46 |E4|^2 / |eta|; and the position,
    |dj/dtau| tau_err = 2 pi |E6| |E4|^2 / |eta| tau_err.  |E4| and |E6| are
    raised by their largest change over the disc (|E4'| <= 8, |E6'| <= 20
    on the domain), so the bound stays positive at j = 0 and j = 1728.
    """
    x, y = tau.real, tau.imag
    two_pi = 2.0 * math.pi
    q = np.exp(two_pi * (1j * x - y))
    s3, s5 = _sigma_tables(_SCREEN_TERMS)
    acc4 = np.zeros_like(q)
    acc6 = np.zeros_like(q)
    for n in range(_SCREEN_TERMS - 1, -1, -1):
        acc4 = (acc4 + s3[n]) * q
        acc6 = (acc6 + s5[n]) * q
    e4 = 1.0 + 240.0 * acc4
    e6 = 1.0 - 504.0 * acc6
    prod = np.ones_like(q)
    qn = np.ones_like(q)
    for _ in range(_SCREEN_TERMS):
        qn = qn * q
        prod = prod * (1.0 - qn)
    log_prod = np.log(prod)
    with np.errstate(divide="ignore"):
        log_j = 3.0 * np.log(e4) - 24.0 * log_prod + two_pi * (y - 1j * x)
        log_eta = 24.0 * log_prod.real - two_pi * y
        log_e4_sq = 2.0 * np.log(np.abs(e4) + _SCREEN_SERIES_ERR + 8.0 * tau_err)
        e6_hi = np.abs(e6) + _SCREEN_SERIES_ERR + 20.0 * tau_err
        rounding = log_j.real + np.log(2.0**-44 * (1.0 + y))
        series = math.log(3.0 * _SCREEN_SERIES_ERR) + log_e4_sq - log_eta
        position = np.log(two_pi * e6_hi * tau_err) + log_e4_sq - log_eta
    log_err = math.log(2.0) + np.logaddexp(rounding, np.logaddexp(series, position))
    return log_j, log_err
