"""Archimedean height sums over Hecke orbits and the global intersection
identity they feed.

cusp_height accumulates -log ||Delta|| over T_N * y; local_arch_sum adds the
log-distance factor |z - j|; phi_value is the exact integer the archimedean
data must reconcile with, Phi_N(z, y), which modpoly evaluates for every N;
and global_identity_residual measures how far the normalized difference
sits from its asymptotic slope.  local_arch_sum and global_identity_residual
raise CoincidenceError where z lies on the orbit of an integer y, that is
where Phi_N(z, y) = 0, which modpoly.vanishes decides on integers alone.

The Delta part of both sums has a closed form.  The product of Delta over
T_N * tau is a constant times Delta(tau)^(e_N): with Im((alpha tau + beta)
/ delta) = (alpha / delta) Im tau,

    sum_i log ||Delta||(tau_i) = e_N log ||Delta||(tau)
                                 + 6 sum_cosets log(alpha / delta),

and the coset sum depends only on the divisor pair (alpha, delta).  As
alpha delta = N, it is sum_(p | N) c_p log p with integer weights c_p
(_coset_weights), so it costs one term per prime of N.  log |phi| - S_N
is minus that sum, so global_identity_residual reads the residual off the
closed form as well.
"""

from __future__ import annotations

import functools
import math
import random
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import prec_to_dps

from . import modpoly
from .arith import factorize, pairwise_sum, triple_counts
from .hecke import OrbitPoint, e_n, hecke_orbit
from .numerics import (
    DEFAULT_PRECISION,
    Precision,
    UpperHalfPoint,
    _attach_pass,
    eval_j,
    log_petersson_norm_delta,
    tau_from_j,
)


class CoincidenceError(ArithmeticError):
    """z lies on the orbit: an orbit j-value within the working resolution
    of z, or Phi_N(z, y) = 0 at integers y and z."""


@dataclass(frozen=True)
class HeightSeriesPoint:
    n: int
    e_n: int
    value: float
    normalized: float  # value / (6 e_N log N)


def _log_norm_orbit_sum(tau: UpperHalfPoint, n: int, prec: Precision):
    """sum of log ||Delta||(tau_i) over T_N * tau, by the closed form in the
    module docstring, at prec.wp bits."""
    with mp.workprec(prec.wp):
        cosets = pairwise_sum([c * mp.log(p) for p, c in _coset_weights(n)])
        return e_n(n) * _log_norm(tau, prec) + 6 * cosets


def _coset_weights(n: int) -> list[tuple[int, int]]:
    """(p, c_p) for each prime p of N, with sum_cosets log(alpha / delta) =
    sum_p c_p log p: c_p = sum count (v_p(a) - v_p(d)) over triple_counts."""
    triples, weights = triple_counts(n), []
    for p, _ in factorize(n):
        c = 0
        for a, d, count in triples:
            while a % p == 0:
                a //= p
                c += count
            while d % p == 0:
                d //= p
                c -= count
        weights.append((p, c))
    return weights


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

    Emits a warning when j(y_tau) is not integral (_integral_j): the finite
    places only drop out of the height for integral j.
    """
    if n < 2:
        raise ValueError("need N >= 2 for the log N normalization")
    j_base, y = _integral_j(y_tau, prec)
    if y is None:
        with mp.workprec(prec.wp):
            near, digits = mp.nint(j_base.real), prec_to_dps(prec.bits)
        warnings.warn(
            f"base j, of Re {mp.nstr(j_base.real, digits)}, lies |j - y| = "
            f"{mp.nstr(abs(j_base - near), 8)} from y = "
            f"{mp.nstr(near, digits).removesuffix('.0')}, above the resolution "
            f"{mp.nstr(prec.resolution(j_base), 8)}: not near an integer; "
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
def _integral_j(y_tau: UpperHalfPoint, prec: Precision) -> tuple:
    """(j, y): j = j(y_tau) and the integer y when |j - y| lies within the
    resolution 2^-bits max(1, |j|) of j (Precision.resolution), else None,
    the one integral-j rule of cusp_height and local_arch_sum.  The last
    base point is kept: a height or local sum series reads the same one for
    every N."""
    with mp.workprec(prec.wp):
        j = eval_j(y_tau, prec)
        y = mp.nint(j.real)
        return j, (int(y) if abs(j - y) <= prec.resolution(j) else None)


def local_arch_sum(
    y_tau: UpperHalfPoint, z, n: int, prec: Precision = DEFAULT_PRECISION
) -> float:
    """S_N = sum over the orbit of log(|z - j(tau_i)| * ||Delta(tau_i)||).

    A |z - j| below the resolution of z (Precision.resolution) raises
    CoincidenceError.  When z is an integer and j(y_tau) is an integer y
    (_integral_j), the exact test of
    global_identity_residual (_check_coincidence) runs as well, for every
    N: the error of y_tau can keep the orbit point of j = z above the
    resolution.  A z that is not finite raises ValueError.
    """
    if not mp.isfinite(mp.mpc(z)):
        raise ValueError(f"z must be finite, got {z}")
    orbit = hecke_orbit(y_tau, n, prec)
    with mp.workprec(prec.wp):
        zc = mp.mpc(z)
        terms = [mp.log(_distance(p, zc, prec)) for p in orbit.points]
        if zc.imag == 0 and mp.isint(zc.real):
            y = _integral_j(y_tau, prec)[1]
            if y is not None:
                _check_coincidence(y, int(zc.real), n)
        return float(pairwise_sum(terms) + _log_norm_orbit_sum(y_tau, n, prec))


def _distance(point: OrbitPoint, zc, prec: Precision) -> mpf:
    """|z - j| at an orbit point; CoincidenceError below the resolution of z."""
    dist = abs(zc - point.j)
    if dist < prec.resolution(zc):
        raise CoincidenceError(
            f"orbit point at coset {point.coset} has |z - j| = "
            f"{mp.nstr(dist, 5)}, below resolution"
        )
    return dist


def phi_value(y: int, z: int, n: int) -> int:
    """Phi_N(z, y), the integer prod over T_N*(tau_y) of (z - j(tau_i)), for
    integers y, z and any N >= 1: modpoly.evaluate, from the stored table
    for a prime N <= 31, else from the orbit polynomial Phi_N(X, y), at a
    precision bounded from the exactly reduced orbit, which raises
    ArithmeticError when a coefficient does not round to an integer.  The
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
    once.  Phi_N(z, y) = 0 raises CoincidenceError (_check_coincidence,
    which reads no orbit).  A non-integer y or z raises ValueError: phi is
    defined at integers only.
    """
    if n < 2:
        raise ValueError("need N >= 2 for the log N normalization")
    y, z = _integers(y, z)
    tau = _base_point(y, prec)
    _check_coincidence(y, z, n)
    with mp.workprec(prec.wp):
        return float(-_log_norm_orbit_sum(tau, n, prec) / (6 * e_n(n) * mp.log(n)) - 1)


def _check_coincidence(y: int, z: int, n: int) -> None:
    """CoincidenceError when z lies on T_N * tau_y: modpoly.vanishes(N, z, y)."""
    if modpoly.vanishes(n, z, y):
        raise CoincidenceError(f"phi_{n}({y}, {z}) = 0: z lies on the orbit of y")


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
    i.e. density 1/y^2; accept when x^2 + y^2 >= 1.  j and log ||Delta||
    read one kernel pass per point (_attach_pass).  Samples with |z - j|
    below the resolution of z are rejected and counted; z must be finite.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if not mp.isfinite(mp.mpc(z)):
        raise ValueError(f"z must be finite, got {z}")
    rng = random.Random(seed)
    with mp.workprec(prec.wp):
        zc = mp.mpc(z)
        floor = prec.resolution(zc)
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
            _attach_pass(tau, prec)
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
