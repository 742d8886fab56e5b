"""Arbitrary-precision evaluation of Delta, E4, E6, j on the upper half-plane.

All evaluation routes through reduction to the standard fundamental domain
|Re tau| <= 1/2, |tau| >= 1, where |q| <= exp(-pi*sqrt(3)) ~ 0.00433 makes
the q-expansions converge fast.  Values at unreduced points are recovered
through the weight-k cocycle (c*tau + d)^(-k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import mp, mpc, mpf

# Guard bits added on top of the requested precision for internal work.
_GUARD = 32

# ln(1/|q|) on the fundamental domain: 2*pi*(sqrt(3)/2).
_LOG_INV_Q_MIN = math.pi * math.sqrt(3.0)


class PrecisionOverflowError(ArithmeticError):
    """Requested series truncation cannot meet the tail bound at these bits."""


@dataclass(frozen=True)
class Precision:
    """Working precision: mantissa bits plus a q-series truncation order.

    series_terms defaults to the smallest order whose tail (with divisor-sum
    coefficient growth) stays below 2^-bits everywhere on the fundamental
    domain.
    """

    bits: int = 128
    series_terms: int | None = None

    def __post_init__(self):
        if self.bits < 53:
            raise ValueError(f"bits must be >= 53, got {self.bits}")
        if self.series_terms is None:
            terms = math.ceil((self.bits * math.log(2) + 64.0) / _LOG_INV_Q_MIN)
            object.__setattr__(self, "series_terms", terms)
        elif self.series_terms < 1:
            raise ValueError("series_terms must be positive")


DEFAULT_PRECISION = Precision()


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point re + im*i with im > 0.  Components are mpmath reals."""

    re: mpf
    im: mpf

    def __post_init__(self):
        object.__setattr__(self, "re", mpf(self.re))
        object.__setattr__(self, "im", mpf(self.im))
        if not self.im > 0:
            raise ValueError(f"point must lie in the upper half-plane, Im = {self.im}")

    def to_mpc(self) -> mpc:
        return mpc(self.re, self.im)

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


def reduce_to_fundamental_domain(
    tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION
) -> tuple[UpperHalfPoint, ModularMatrix]:
    """Reduce tau into |Re| <= 1/2, |tau| >= 1 and return the witness.

    The witness gamma is in SL2(Z) and satisfies gamma * tau = reduced point
    (exactly in exact arithmetic, to working precision in floating point).
    """
    with mp.workprec(prec.bits + _GUARD):
        # Points within eps of the arc |tau| = 1 are not inverted; otherwise
        # rounding can trap the loop in a two-cycle across the boundary.
        eps = mpf(2) ** (-(mp.prec - 8))
        z = tau.to_mpc()
        a, b, c, d = 1, 0, 0, 1
        for _ in range(_MAX_REDUCTION_STEPS):
            n = int(mp.nint(z.real))
            if n:
                z = z - n
                a, b = a - n * c, b - n * d
            if z.real * z.real + z.imag * z.imag < 1 - eps:
                z = -1 / z
                a, b, c, d = -c, -d, a, b
            else:
                return UpperHalfPoint(z.real, z.imag), ModularMatrix(a, b, c, d)
        raise ArithmeticError("fundamental-domain reduction did not terminate")


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


def _check_tail(q_abs, prec: Precision) -> None:
    # sigma_5(n) <= zeta(5) n^5, so the dropped tail of E6 (the worst series)
    # is below 700 * (T+1)^5 * |q|^(T+1); require that under 2^-bits.
    # Compared in log space so huge bit counts and tiny q cannot under/overflow.
    t1 = prec.series_terms + 1
    log_tail = math.log(700.0) + 5 * math.log(t1) + t1 * float(mp.log(q_abs))
    if not log_tail < -prec.bits * math.log(2):
        raise PrecisionOverflowError(
            f"series_terms={prec.series_terms} cannot reach 2^-{prec.bits} "
            f"at |q|={mp.nstr(q_abs, 5)}"
        )


def _powers(q: mpc, n_terms: int) -> list[mpc]:
    pw = [q]
    for _ in range(n_terms - 1):
        pw.append(pw[-1] * q)
    return pw


def _e4_from_powers(pw, s3) -> mpc:
    acc = mpf(0)
    for qn, s in zip(reversed(pw), reversed(s3[: len(pw)])):
        acc = acc + s * qn
    return 1 + 240 * acc


def _e6_from_powers(pw, s5) -> mpc:
    acc = mpf(0)
    for qn, s in zip(reversed(pw), reversed(s5[: len(pw)])):
        acc = acc + s * qn
    return 1 - 504 * acc


def _euler_product(pw) -> mpc:
    """prod (1 - q^n) over the powers pw = [q, q^2, ...], in that order."""
    prod = mpf(1)
    for qn in pw:
        prod = prod * (1 - qn)
    return prod


def _delta_from_powers(q, pw) -> mpc:
    prod = _euler_product(pw)
    return (2 * mp.pi) ** 12 * q * prod**12 * prod**12


def _reduced_series(tau: UpperHalfPoint, prec: Precision):
    """Reduce, form q at the reduced point, and validate the tail bound."""
    reduced, witness = reduce_to_fundamental_domain(tau, prec)
    q = mp.expjpi(2 * mpc(reduced.re, reduced.im))
    _check_tail(abs(q), prec)
    return reduced, witness, q


def _cocycle(tau: UpperHalfPoint, witness: ModularMatrix, weight: int) -> mpc:
    if witness.c == 0 and witness.d in (1, -1):
        return mpc(1)  # translations (and -I) act trivially in even weight
    return (witness.c * tau.to_mpc() + witness.d) ** (-weight)


def eval_e4(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Eisenstein series E4(tau) = 1 + 240 sum sigma_3(n) q^n."""
    with mp.workprec(prec.bits + _GUARD):
        reduced, witness, q = _reduced_series(tau, prec)
        s3, _ = _sigma_tables(prec.series_terms)
        val = _e4_from_powers(_powers(q, prec.series_terms), s3)
        return val * _cocycle(tau, witness, 4)


def eval_e6(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Eisenstein series E6(tau) = 1 - 504 sum sigma_5(n) q^n."""
    with mp.workprec(prec.bits + _GUARD):
        reduced, witness, q = _reduced_series(tau, prec)
        _, s5 = _sigma_tables(prec.series_terms)
        val = _e6_from_powers(_powers(q, prec.series_terms), s5)
        return val * _cocycle(tau, witness, 6)


def eval_delta(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Modular discriminant (2 pi)^12 q prod (1 - q^n)^24 at tau."""
    with mp.workprec(prec.bits + _GUARD):
        reduced, witness, q = _reduced_series(tau, prec)
        val = _delta_from_powers(q, _powers(q, prec.series_terms))
        return val * _cocycle(tau, witness, 12)


def eval_j(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpc:
    """Modular j-invariant 1728 E4^3 / (E4^3 - E6^2).

    The denominator is evaluated through the identity E4^3 - E6^2 =
    1728 q prod (1 - q^n)^24, which keeps full relative precision at
    large Im tau where the literal subtraction would cancel to noise.
    """
    with mp.workprec(prec.bits + _GUARD):
        _, _, q = _reduced_series(tau, prec)
        pw = _powers(q, prec.series_terms)
        s3, _ = _sigma_tables(prec.series_terms)
        e4c = _e4_from_powers(pw, s3) ** 3
        prod = _euler_product(pw)
        # |q| <= 0.0044 after reduction, so |prod|^24 >= 0.9: no cancellation
        return e4c / (q * prod**12 * prod**12)


def petersson_norm_delta(tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION) -> mpf:
    """SL2(Z)-invariant norm |Delta(tau)| * (Im tau)^6."""
    with mp.workprec(prec.bits + _GUARD):
        reduced, _, q = _reduced_series(tau, prec)
        val = _delta_from_powers(q, _powers(q, prec.series_terms))
        return abs(val) * reduced.im**6


def log_petersson_norm_delta(
    tau: UpperHalfPoint, prec: Precision = DEFAULT_PRECISION
) -> mpf:
    """log || Delta ||(tau), computed without under/overflow at large Im."""
    with mp.workprec(prec.bits + _GUARD):
        reduced, _, q = _reduced_series(tau, prec)
        prod = _euler_product(_powers(q, prec.series_terms))
        # log|q| = -2 pi Im(tau'), assembled in logs so 10000i stays finite
        return (
            12 * mp.log(2 * mp.pi)
            - 2 * mp.pi * reduced.im
            + 24 * mp.log(abs(prod))
            + 6 * mp.log(reduced.im)
        )


def tau_from_j(j_target, prec: Precision = DEFAULT_PRECISION) -> UpperHalfPoint:
    """Point of the fundamental domain with the given real j-invariant.

    Real j values are attained on the boundary arcs: j >= 1728 on the
    imaginary axis, 0 <= j <= 1728 on |tau| = 1, j <= 0 on Re tau = 1/2.
    The solution is unique in the closed fundamental domain; found by
    bisection (j is monotone along each arc).
    """
    with mp.workprec(prec.bits + _GUARD):
        y = mpf(j_target)
        if y >= 1728:
            def f(t):
                return eval_j(UpperHalfPoint(mpf(0), t), prec).real - y

            lo, hi = mpf(1), mpf(2)
            while f(hi) < 0:
                hi *= 2
            root = _bisect(f, lo, hi, prec.bits)
            return UpperHalfPoint(mpf(0), root)
        if y >= 0:
            # arc tau = e^{i theta}, theta from pi/2 (j=1728) to 2pi/3 (j=0)
            def f(th):
                z = mp.expjpi(th)
                return eval_j(UpperHalfPoint(z.real, z.imag), prec).real - y

            root = _bisect(f, mpf(2) / 3, mpf(1) / 2, prec.bits)
            z = mp.expjpi(root)
            return UpperHalfPoint(z.real, z.imag)

        def f(t):
            return eval_j(UpperHalfPoint(mpf(1) / 2, t), prec).real - y

        lo, hi = mp.sqrt(3) / 2, mpf(2)
        while f(hi) > 0:
            hi *= 2
        root = _bisect(f, hi, lo, prec.bits)
        return UpperHalfPoint(mpf(1) / 2, root)


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
