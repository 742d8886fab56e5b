from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

from heckelab import numerics
from heckelab.hecke import coset_reps
from heckelab.numerics import ModularMatrix, UpperHalfPoint, eval_j


def mpc_moebius(tau, alpha, beta, delta, wp):
    """(alpha*tau + beta)/delta in mpc arithmetic at wp bits: the oracle of
    the integer Moebius step."""
    with mp.workprec(wp):
        w = (alpha * tau.to_mpc() + beta) / delta
        return UpperHalfPoint(w.real, w.imag)


def mpc_reduce(tau, prec):
    """The reduction loop in mpc arithmetic at the working precision, with
    no float64 fast exit: the oracle of reduce_to_fundamental_domain."""
    wp = prec.bits + numerics._GUARD
    with mp.workprec(wp):
        threshold = 1 - mpf(2) ** (-(wp - 8))
        z = tau.to_mpc()
        a, b, c, d = 1, 0, 0, 1
        for _ in range(numerics._MAX_REDUCTION_STEPS):
            n = int(mp.nint(z.real))
            if n:
                z = z - n
                a, b = a - n * c, b - n * d
            if z.real * z.real + z.imag * z.imag < threshold:
                z = -1 / z
                a, b, c, d = -c, -d, a, b
            else:
                return UpperHalfPoint(z.real, z.imag), ModularMatrix(a, b, c, d)
        raise ArithmeticError("fundamental-domain reduction did not terminate")


def _reference_orbit(tau, n, prec, with_j=True):
    """T_N * tau point by point in mpmath: the Moebius step
    (alpha*tau + beta)/delta at working precision, reduction, then eval_j.
    Returns (reduced point, j or None) pairs in coset order."""
    wp = prec.bits + numerics._GUARD
    out = []
    for rep in coset_reps(n):
        moved = mpc_moebius(tau, rep.alpha, rep.beta, rep.delta, wp)
        reduced, _ = mpc_reduce(moved, prec)
        out.append((reduced, eval_j(reduced, prec) if with_j else None))
    return out


@pytest.fixture
def reference_orbit():
    return _reference_orbit


@pytest.fixture
def mpc_oracle():
    return SimpleNamespace(moebius=mpc_moebius, reduce=mpc_reduce)
