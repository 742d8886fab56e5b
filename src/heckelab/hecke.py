"""Hecke correspondence T_N on X(1): coset representatives and orbits."""

from __future__ import annotations

import logging
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpc, mpf

from .arith import TripleRows, prime_divisors
from .numerics import (
    DEFAULT_PRECISION,
    Precision,
    UpperHalfPoint,
    eval_j,
    log_j_float64,
    reduce_to_fundamental_domain,
    reduce_witness_float64,
)

log = logging.getLogger(__name__)


class CosetTriple(NamedTuple):
    """Upper-triangular representative (alpha beta; 0 delta), alpha*delta = N."""

    alpha: int
    beta: int
    delta: int
    n: int


class OrbitPoint:
    """A point of T_N*tau in the exact tier: its coset and its reduced
    representative at working precision.  j is evaluated on first read and
    kept."""

    __slots__ = ("coset", "tau", "_prec", "_j")

    def __init__(self, coset: CosetTriple, tau: UpperHalfPoint, prec: Precision):
        self.coset = coset
        self.tau = tau  # reduced representative
        self._prec = prec
        self._j = None

    @property
    def j(self) -> mpc:
        if self._j is None:
            self._j = eval_j(self.tau, self._prec)
        return self._j

    def __repr__(self) -> str:
        return f"OrbitPoint(coset={self.coset!r}, tau={self.tau!r})"


class OrbitPoints(Sequence):
    """The exact tier of an orbit, in coset order.

    Point i is built on first access, by one call of
    reduce_to_fundamental_domain with start = (alpha, beta, 0, delta): the
    exact reduction of (alpha*tau + beta)/delta, rounded once at working
    precision.  It is kept; len() builds nothing.
    """

    __slots__ = ("_base", "_cosets", "_prec", "_built")

    def __init__(
        self, base: UpperHalfPoint, cosets: Sequence[CosetTriple], prec: Precision
    ):
        self._base = base
        self._cosets = cosets
        self._prec = prec
        self._built: list[OrbitPoint | None] = [None] * len(cosets)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("orbit point index out of range")
        if self._built[i] is None:
            self._build([i])
        return self._built[i]

    def __iter__(self):
        missing = [i for i, point in enumerate(self._built) if point is None]
        if missing:
            self._build(missing)
        return iter(self._built)

    def _build(self, indices) -> None:
        base, prec = self._base, self._prec
        for i in indices:
            rep = self._cosets[i]
            start = (rep.alpha, rep.beta, 0, rep.delta)
            reduced, _ = reduce_to_fundamental_domain(base, prec, start=start)
            self._built[i] = OrbitPoint(rep, reduced, prec)


# The screen's reduced points lie within _SCREEN_REL_ERR * (1 + |tau|/Im tau)
# * (1 + Im tau_i) of the exact ones, tau the base point: about 2^8 times
# the float64 rounding of the one-step Moebius map and of the base point.
_SCREEN_REL_ERR = 2.0**-40
# Below this moved Im alpha*Im(tau)/delta the float64 witness search is not
# run; above it, the entries of the composed matrices stay below 2^50, exact
# in float64 and int64.
_SCREEN_MIN_MOVED_IM = 2.0**-32


@dataclass(frozen=True, eq=False)
class OrbitScreen:
    """The float64 tier of an orbit, in coset order.

    The screen is geometry alone: tau holds the reduced points and, where
    trusted, tau_err bounds both the distance from tau to an SL2(Z)-image
    of the exact point and the difference of their imaginary parts.  An
    untrusted point (moved Im below _SCREEN_MIN_MOVED_IM, or not certified
    inside the fundamental domain) carries no usable value: every decision
    about it goes to the exact tier.  The screen serves the statistics
    alone, equi_fraction and the density's nearest points; no integer
    reads it, and only nearest forms j values and their bounds.
    """

    tau: np.ndarray
    tau_err: np.ndarray
    trusted: np.ndarray

    @classmethod
    def of(cls, base: UpperHalfPoint, cosets: TripleRows) -> "OrbitScreen":
        t = complex(float(base.re), float(base.im))
        alpha, beta, delta = cosets.columns
        moved = (alpha * t + beta) / delta
        tau = np.full(moved.shape, np.nan, np.complex128)
        search = moved.imag >= _SCREEN_MIN_MOVED_IM
        alpha, beta, delta = alpha[search], beta[search], delta[search]
        a, b, c, d = reduce_witness_float64(moved[search])
        # gamma * (alpha beta; 0 delta) applied to the base in one step
        tau[search] = (a * alpha * t + (a * beta + b * delta)) / (
            c * alpha * t + (c * beta + d * delta)
        )
        tau_err = _SCREEN_REL_ERR * (1.0 + abs(t) / t.imag) * (1.0 + tau.imag)
        trusted = (np.abs(tau.real) <= 0.5 + tau_err) & (
            tau.real**2 + tau.imag**2 >= 1.0 - 4.0 * tau_err
        )
        return cls(tau, tau_err, trusted)

    def nearest(self, z) -> np.ndarray:
        """Indices of the points whose |j - z| may be the smallest of the
        orbit under the error bounds, untrusted points included.  At each
        trusted point log_j_float64 gives log j and a bound on its error,
        so that low <= log|j - z| <= high; a point goes only when its low
        is above the least high.  An infinite or NaN z keeps every point."""
        ok = self.trusted
        zc = mpc(z)
        log_z = float(mp.log(abs(zc))) if zc != 0 else -math.inf
        arg_z = float(mp.arg(zc)) if zc != 0 else 0.0
        log_j, log_err = log_j_float64(self.tau[ok], self.tau_err[ok])
        # distances in units of e^s, so that no |j| overflows
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.maximum(np.maximum(log_j.real, log_err), log_z)
            j = np.exp(log_j - s)
            zs = np.exp(log_z - s + 1j * arg_z)
            dist = np.abs(j - zs)
            err = np.exp(log_err - s) + 2.0**-48 * (np.abs(j) + np.abs(zs)) + 2.0**-1000
            low = s + np.log(np.maximum(dist - err, 0.0))
            high = s + np.log(dist + err)
        # an untrusted point or a NaN bound keeps its point, and a NaN
        # minimum keeps every point
        keep = np.ones(ok.size, bool)
        keep[ok] = ~(low > high.min(initial=np.inf))
        return np.flatnonzero(keep)


class HeckeOrbit:
    """T_N*tau with e_N points, one per coset, in coset order.

    Two tiers: `points`, the exact OrbitPoints built on first access, and
    `screen`, the float64 OrbitScreen of all points, computed on first use
    from the coset columns.  Constructing one evaluates nothing; see
    hecke_orbit for an orbit with every j evaluated.
    """

    def __init__(
        self, tau: UpperHalfPoint, n: int, prec: Precision = DEFAULT_PRECISION
    ):
        self.n = n
        self.base = tau
        self.prec = prec
        self.cosets = coset_reps(n)
        self.points = OrbitPoints(tau, self.cosets, prec)

    @cached_property
    def screen(self) -> OrbitScreen:
        return OrbitScreen.of(self.base, self.cosets)


def e_n(n: int) -> int:
    """Degree of T_N: N * prod_{p | N} (1 + 1/p)."""
    if n < 1:
        raise ValueError(f"N must be positive, got {n}")
    out = n
    for p in prime_divisors(n):
        out = out // p * (p + 1)
    return out


def coset_reps(n: int) -> Sequence[CosetTriple]:
    """All (alpha, beta, delta) with alpha*delta = N, 0 <= beta < delta,
    gcd(alpha, beta, delta) = 1, in lexicographic (alpha, beta) order.

    A read-only sequence: iteration and integer indexing yield CosetTriple
    rows whose fields are Python ints, and a slice returns a list of rows.
    """
    return TripleRows(CosetTriple, n)


def hecke_orbit(
    tau: UpperHalfPoint, n: int, prec: Precision = DEFAULT_PRECISION
) -> HeckeOrbit:
    """T_N * tau as e_N reduced points, each with its j-value evaluated.

    Points are listed in coset order; repeated values are kept with
    multiplicity.  A caller that reads only some j-values, or only the
    points, builds HeckeOrbit(tau, n, prec), which evaluates on demand.
    """
    orbit = HeckeOrbit(tau, n, prec)
    for point in orbit.points:
        point.j  # evaluated here and kept on the point
    return orbit


def orbit_symmetry_check(
    tau: UpperHalfPoint, n: int, prec: Precision = DEFAULT_PRECISION
) -> bool:
    """Correspondence symmetry: tau lies in T_N of each point of T_N * tau.

    Checked on j-values within 2^20 resolutions (Precision.resolution) of
    j(tau); offending cosets are logged at DEBUG level.
    """
    j_base = eval_j(tau, prec)
    tol = 2**20 * prec.resolution(j_base)
    ok = True
    for point in HeckeOrbit(tau, n, prec).points:
        back = HeckeOrbit(point.tau, n, prec)
        if not any(abs(p.j - j_base) <= tol for p in back.points):
            log.debug("symmetry failure at coset %s: j base %s not in return orbit",
                      point.coset, j_base)
            ok = False
    return ok


class EquiStat(NamedTuple):
    fraction: float
    prediction: float


def equi_fraction(orbit: HeckeOrbit, im_threshold) -> EquiStat:
    """Fraction of orbit points with Im >= threshold, next to the
    hyperbolic-measure prediction min(1, (3/pi) / y0), y0 = float(threshold).

    The threshold is an mpf at the orbit's working precision.  The float64
    screen decides each point whose Im lies farther from y0 than its error
    bound plus the rounding of y0; the rest are decided in the exact tier,
    where the mpf Im is compared with the threshold exactly.
    """
    with mp.workprec(orbit.prec.wp):
        threshold = mpf(im_threshold)
        if not threshold > 0:
            raise ValueError("im_threshold must be positive")
        y0 = float(threshold)
        rounding = float(abs(threshold - y0))
    screen = orbit.screen
    im = screen.tau.imag
    exact = ~screen.trusted | (np.abs(im - y0) <= screen.tau_err + rounding)
    hits = int(np.count_nonzero(im[~exact] >= y0))
    hits += sum(
        1 for i in np.flatnonzero(exact) if orbit.points[i].tau.im >= threshold
    )
    prediction = min(1.0, 3.0 / (math.pi * y0)) if y0 else 1.0
    return EquiStat(hits / len(orbit.points), prediction)


def close_point_count(orbit: HeckeOrbit, z, eta) -> int:
    """Number of orbit j-values within eta of z (multiplicity counted),
    with z, eta and the distances at the orbit's working precision."""
    with mp.workprec(orbit.prec.wp):
        zc, eta = mpc(z), mpf(eta)
        if not eta > 0:
            raise ValueError("eta must be positive")
        return sum(1 for p in orbit.points if abs(p.j - zc) <= eta)
