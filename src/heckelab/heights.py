"""Archimedean height sums over Hecke orbits and the global intersection
identity they feed.

cusp_height accumulates -log ||Delta|| over T_N * y; local_arch_sum adds the
log-distance factor |z - j|; phi_value is the exact integer the archimedean
data must reconcile with, and global_identity_residual measures how far the
normalized difference sits from its asymptotic slope.

The Delta part of both sums has a closed form.  The product of Delta over
T_N * tau is a constant times Delta(tau)^(e_N): with Im((alpha tau + beta)
/ delta) = (alpha / delta) Im tau,

    sum_i log ||Delta||(tau_i) = e_N log ||Delta||(tau)
                                 + 6 sum_cosets log(alpha / delta),

and the coset sum depends only on the divisor pair (alpha, delta), so it
costs one term per divisor of N.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp, mpf

from .arith import pairwise_product, pairwise_sum, triple_counts
from .hecke import e_n, hecke_orbit
from .numerics import (
    DEFAULT_PRECISION,
    Precision,
    UpperHalfPoint,
    eval_j,
    log_petersson_norm_delta,
    tau_from_j,
)


class CoincidenceError(ArithmeticError):
    """An orbit j-value collided with z below the working resolution."""


class PrecisionInsufficientError(ArithmeticError):
    """phi_value could not round to an integer within the escalation cap."""


@dataclass(frozen=True)
class HeightSeriesPoint:
    n: int
    e_n: int
    value: float
    normalized: float  # value / (6 e_N log N)


_MAX_PHI_BITS = 1 << 20


def _log_norm_orbit_sum(tau: UpperHalfPoint, n: int, prec: Precision):
    """sum of log ||Delta||(tau_i) over T_N * tau, by the closed form in the
    module docstring, at prec.bits + 32 bits."""
    with mp.workprec(prec.bits + 32):
        cosets = pairwise_sum(
            [count * mp.log(mpf(a) / d) for a, d, count in triple_counts(n)]
        )
        return e_n(n) * log_petersson_norm_delta(tau, prec) + 6 * cosets


def cusp_height(
    y_tau: UpperHalfPoint, n: int, prec: Precision = DEFAULT_PRECISION
) -> HeightSeriesPoint:
    """H_N = sum of -log ||Delta(tau_i)|| over the order-N orbit of y_tau.

    Emits a warning when j(y_tau) is not close to a rational integer (the
    finite places only drop out of the height for integral j).
    """
    if n < 2:
        raise ValueError("need N >= 2 for the log N normalization")
    j_base = eval_j(y_tau, prec)
    drift = abs(j_base - mp.nint(j_base.real))
    if drift > 1e-6 * max(1.0, float(abs(j_base))):
        warnings.warn(
            f"base j = {mp.nstr(j_base, 8)} is not near an integer; "
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


def local_arch_sum(
    y_tau: UpperHalfPoint, z, n: int, prec: Precision = DEFAULT_PRECISION
) -> float:
    """S_N = sum over the orbit of log(|z - j(tau_i)| * ||Delta(tau_i)||)."""
    orbit = hecke_orbit(y_tau, n, prec)
    with mp.workprec(prec.bits + 32):
        zc = mp.mpc(z)
        floor = mpf(2) ** (-prec.bits) * max(1, abs(zc))
        terms = []
        for p in orbit.points:
            dist = abs(zc - p.j)
            if dist < floor:
                raise CoincidenceError(
                    f"orbit point at coset {p.coset} has |z - j| = "
                    f"{mp.nstr(dist, 5)}, below resolution"
                )
            terms.append(mp.log(dist))
        return float(pairwise_sum(terms) + _log_norm_orbit_sum(y_tau, n, prec))


def phi_value(
    y: int,
    z: int,
    n: int,
    prec: Precision = DEFAULT_PRECISION,
    allow_cm: bool = False,
) -> int:
    """The integer prod over T_N*(tau_y) of (z - j(tau_i)), for integer y.

    Precision is doubled until the product rounds to a rational integer
    with relative residual below 1e-6.  The CM values y in {0, 1728} have
    orbit multiplicities that break naive expectations; pass allow_cm=True
    to evaluate there anyway.
    """
    y = int(y)
    z = int(z)
    if y in (0, 1728) and not allow_cm:
        raise ValueError(f"y = {y} is a CM j-invariant; pass allow_cm=True")
    bits = prec.bits
    while bits <= _MAX_PHI_BITS:
        attempt = Precision(bits)
        with mp.workprec(bits + 32):
            tau_y = tau_from_j(y, attempt)
            orbit = hecke_orbit(tau_y, n, attempt)
            prod = pairwise_product([z - p.j for p in orbit.points])
            nearest = int(mp.nint(prod.real))
            residual = abs(prod - nearest) / max(1, abs(prod))
            if residual < 1e-6:
                return nearest
        bits *= 2
    raise PrecisionInsufficientError(
        f"phi({y}, {z}, N={n}) did not round below 1e-6 by {_MAX_PHI_BITS} bits"
    )


def global_identity_residual(
    y: int, z: int, n: int, prec: Precision = DEFAULT_PRECISION
) -> float:
    """r_N = (log |phi| - S_N) / (6 e_N log N) - 1."""
    if n < 2:
        raise ValueError("need N >= 2 for the log N normalization")
    phi = phi_value(y, z, n, prec, allow_cm=True)
    if phi == 0:
        raise CoincidenceError("phi vanished: z collides with the orbit of y")
    with mp.workprec(prec.bits + 32):
        tau_y = tau_from_j(y, prec)
        s_n = local_arch_sum(tau_y, z, n, prec)
        log_phi = mp.log(abs(mp.mpf(abs(phi))))
        degree = e_n(n)
        return float((log_phi - s_n) / (6 * degree * mp.log(n)) - 1)


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
    with mp.workprec(prec.bits + 32):
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
