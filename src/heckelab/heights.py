"""Archimedean height sums over Hecke orbits and the global intersection
identity they feed.

cusp_height accumulates -log ||Delta|| over T_N * y; local_arch_sum adds the
log-distance factor |z - j|; phi_value is the exact integer the archimedean
data must reconcile with, Phi_N(z, y), which modpoly evaluates for every N:
from the stored table for a prime N <= 31, else from the bounded orbit
polynomial Phi_N(X, y); and
global_identity_residual measures how far the normalized difference sits
from its asymptotic slope.

The Delta part of both sums has a closed form.  The product of Delta over
T_N * tau is a constant times Delta(tau)^(e_N): with Im((alpha tau + beta)
/ delta) = (alpha / delta) Im tau,

    sum_i log ||Delta||(tau_i) = e_N log ||Delta||(tau)
                                 + 6 sum_cosets log(alpha / delta),

and the coset sum depends only on the divisor pair (alpha, delta), so it
costs one term per divisor of N.  log |phi| - S_N is minus that sum, so
global_identity_residual reads the residual off the closed form as well.
"""

from __future__ import annotations

import functools
import math
import random
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp, mpf

from . import modpoly
from .arith import pairwise_sum, triple_counts
from .hecke import HeckeOrbit, OrbitPoint, e_n, hecke_orbit
from .numerics import (
    _GUARD,
    DEFAULT_PRECISION,
    Precision,
    UpperHalfPoint,
    eval_j,
    log_petersson_norm_delta,
    tau_from_j,
)


class CoincidenceError(ArithmeticError):
    """An orbit j-value collided with z below the working resolution."""


@dataclass(frozen=True)
class HeightSeriesPoint:
    n: int
    e_n: int
    value: float
    normalized: float  # value / (6 e_N log N)


def _log_norm_orbit_sum(tau: UpperHalfPoint, n: int, prec: Precision):
    """sum of log ||Delta||(tau_i) over T_N * tau, by the closed form in the
    module docstring, at prec.bits + _GUARD bits."""
    with mp.workprec(prec.bits + _GUARD):
        cosets = pairwise_sum(
            [count * mp.log(mpf(a) / d) for a, d, count in triple_counts(n)]
        )
        return e_n(n) * _log_norm(tau, prec) + 6 * cosets


@functools.lru_cache(maxsize=1)
def _log_norm(tau: UpperHalfPoint, prec: Precision) -> mpf:
    """log ||Delta||(tau); the last base point is kept, as a height or
    residual series reads the same one for every N."""
    return log_petersson_norm_delta(tau, prec)


@functools.lru_cache(maxsize=1)
def _base_point(y: int, prec: Precision) -> UpperHalfPoint:
    """tau_from_j(y, prec); the last one is kept, as a residual series
    inverts the same y for every N."""
    return tau_from_j(y, prec)


def cusp_height(
    y_tau: UpperHalfPoint, n: int, prec: Precision = DEFAULT_PRECISION
) -> HeightSeriesPoint:
    """H_N = sum of -log ||Delta(tau_i)|| over the order-N orbit of y_tau.

    Emits a warning when j(y_tau) is not close to a rational integer (the
    finite places only drop out of the height for integral j).
    """
    if n < 2:
        raise ValueError("need N >= 2 for the log N normalization")
    j_base = _off_integral_j(y_tau, prec)
    if j_base is not None:
        warnings.warn(
            f"base j = {j_base} is not near an integer; "
            "finite places may contribute to the true height",
            stacklevel=2,
        )
    degree = e_n(n)
    value = float(-_log_norm_orbit_sum(y_tau, n, prec))
    return HeightSeriesPoint(
        n=n,
        e_n=degree,
        value=value,
        normalized=value / (6 * degree * math.log(n)),
    )


@functools.lru_cache(maxsize=1)
def _off_integral_j(y_tau: UpperHalfPoint, prec: Precision) -> str | None:
    """j(y_tau) to 8 digits when it is not within 1e-6 * max(1, |j|) of an
    integer, else None.  The last base point is kept: a height series reads
    the same one for every N."""
    j_base = eval_j(y_tau, prec)
    drift = abs(j_base - mp.nint(j_base.real))
    if drift > 1e-6 * max(1.0, float(abs(j_base))):
        return mp.nstr(j_base, 8)
    return None


def local_arch_sum(
    y_tau: UpperHalfPoint, z, n: int, prec: Precision = DEFAULT_PRECISION
) -> float:
    """S_N = sum over the orbit of log(|z - j(tau_i)| * ||Delta(tau_i)||).

    A |z - j| below 2^-bits * max(1, |z|) raises CoincidenceError.  So does
    Phi_N(z, y) = 0 when j(y_tau) lies within 2^-bits * max(1, |j|) of an
    integer y, z is an integer and N a stored prime, as in
    global_identity_residual: the error of y_tau can keep the orbit point
    of j = z above the resolution.
    """
    orbit = hecke_orbit(y_tau, n, prec)
    with mp.workprec(prec.bits + _GUARD):
        zc = mp.mpc(z)
        terms = [mp.log(_distance(p, zc, prec)) for p in orbit.points]
        if n in modpoly.PRIMES and zc.imag == 0 and mp.isint(zc.real):
            j_base = eval_j(y_tau, prec)
            y = mp.nint(j_base.real)
            if abs(j_base - y) <= mpf(2) ** -prec.bits * max(1, abs(j_base)):
                _check_stored_phi(int(y), int(zc.real), n)
        return float(pairwise_sum(terms) + _log_norm_orbit_sum(y_tau, n, prec))


def _distance(point: OrbitPoint, zc, prec: Precision) -> mpf:
    """|z - j| at an orbit point; CoincidenceError below 2^-bits * max(1, |z|)."""
    dist = abs(zc - point.j)
    if dist < mpf(2) ** (-prec.bits) * max(1, abs(zc)):
        raise CoincidenceError(
            f"orbit point at coset {point.coset} has |z - j| = "
            f"{mp.nstr(dist, 5)}, below resolution"
        )
    return dist


def phi_value(y: int, z: int, n: int) -> int:
    """Phi_N(z, y), the integer prod over T_N*(tau_y) of (z - j(tau_i)), for
    integers y, z and any N >= 1: modpoly.evaluate, from the stored table
    for a prime N <= 31, else from the bounded orbit polynomial Phi_N(X, y),
    which raises ArithmeticError when its bound or its rounding fails.  The
    bound does not depend on z.  A non-integer y or z raises ValueError.
    """
    y, z = _integers(y, z)
    return modpoly.evaluate(n, z, y)


def _integers(y, z) -> tuple[int, int]:
    """y and z as ints; ValueError unless both are integers."""
    try:
        if y == int(y) and z == int(z):
            return int(y), int(z)
    except (OverflowError, ValueError):  # int() of an infinity or a NaN
        pass
    raise ValueError(f"y and z must be integers, got y={y!r}, z={z!r}")


def global_identity_residual(
    y: int, z: int, n: int, prec: Precision = DEFAULT_PRECISION
) -> float:
    """r_N = (log |phi| - S_N) / (6 e_N log N) - 1, for integers y and z.

    log |phi| - S_N = -sum log ||Delta||(tau_i): r_N is the normalized height
    minus 1 whatever z is, by the closed form at working precision, rounded
    once.  z lies on the orbit of y (CoincidenceError) exactly when
    Phi_N(z, y) = 0, which a prime N <= 31 decides on the stored polynomial
    (modpoly).  Any other N decides it on the orbit (_check_off_orbit).  A
    non-integer y or z raises ValueError: phi is defined at integers only.
    """
    if n < 2:
        raise ValueError("need N >= 2 for the log N normalization")
    y, z = _integers(y, z)
    if n in modpoly.PRIMES:
        _check_stored_phi(y, z, n)
    tau = _base_point(y, prec)
    if n not in modpoly.PRIMES:
        _check_off_orbit(HeckeOrbit(tau, n, prec), y, z, prec)
    with mp.workprec(prec.bits + _GUARD):
        return float(-_log_norm_orbit_sum(tau, n, prec) / (6 * e_n(n) * mp.log(n)) - 1)


def _check_stored_phi(y: int, z: int, n: int) -> None:
    """CoincidenceError when Phi_N(z, y) = 0 for a stored prime N."""
    if modpoly.evaluate(n, z, y) == 0:
        raise CoincidenceError(f"phi_{n}({y}, {z}) = 0: z lies on the orbit of y")


def _check_off_orbit(orbit: HeckeOrbit, y: int, z: int, prec: Precision) -> None:
    """CoincidenceError when some |z - j| on the orbit is below the
    resolution, as at the exact CM bases of y = 0 and y = 1728, or a bound
    on the integer |phi| is below 1/2, which catches a base point good to
    fewer bits.  j is read only at the screen's nearest candidates it cannot
    clear of the resolution by 2^8, a margin for the exact tier's error in
    j."""
    low, log_dist = orbit.screen.log_distance_bounds(z)
    with mp.workprec(prec.bits + _GUARD):
        cleared = math.log(max(1, abs(z))) - (prec.bits - 8) * math.log(2)
        for i in orbit.screen._nearest_of(low, log_dist):
            if not low[i] > cleared:  # NaN at an untrusted point
                log_dist[i] = float(mp.log(_distance(orbit.points[i], mp.mpc(z), prec)))
    if log_dist.sum() < -math.log(2):
        raise CoincidenceError(f"|phi_{orbit.n}({y}, {z})| < 1/2: z lies on the orbit of y")


class IntegralEstimate(NamedTuple):
    value: float
    std_error: float
    samples: int
    rejected: int
    seed: int


_MIN_IM = math.sqrt(3.0) / 2.0


def heuristic_integral(
    z,
    samples: int,
    prec: Precision = DEFAULT_PRECISION,
    seed: int = 0,
) -> IntegralEstimate:
    """Monte-Carlo mean of log(|z - j| * ||Delta||) under the normalized
    hyperbolic measure on the fundamental domain.

    Sampling: x uniform on (-1/2, 1/2); y = (sqrt(3)/2)/u with u uniform,
    i.e. density 1/y^2; accept when x^2 + y^2 >= 1.  Samples landing within
    2^-bits of a j-preimage of z are rejected and counted.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    rng = random.Random(seed)
    with mp.workprec(prec.bits + _GUARD):
        zc = mp.mpc(z)
        floor = mpf(2) ** (-prec.bits) * max(1, abs(zc))
        values: list[float] = []
        rejected = 0
        budget = 1000 * samples
        while len(values) < samples:
            budget -= 1
            if budget < 0:
                raise CoincidenceError("rejection loop exhausted its budget")
            x = rng.uniform(-0.5, 0.5)
            im = _MIN_IM / (1.0 - rng.random())
            if x * x + im * im < 1.0:
                continue
            tau = UpperHalfPoint(x, im)
            dist = abs(zc - eval_j(tau, prec))
            if dist < floor:
                rejected += 1
                continue
            values.append(float(mp.log(dist) + log_petersson_norm_delta(tau, prec)))
    mean = pairwise_sum(values) / samples
    var = pairwise_sum([(v - mean) ** 2 for v in values]) / (samples - 1)
    return IntegralEstimate(
        value=mean,
        std_error=math.sqrt(var / samples),
        samples=samples,
        rejected=rejected,
        seed=seed,
    )
