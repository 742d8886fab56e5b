import pytest
from mpmath import mp

from heckelab.hecke import coset_reps
from heckelab.numerics import UpperHalfPoint, eval_j, reduce_to_fundamental_domain


def _reference_orbit(tau, n, prec, with_j=True):
    """T_N * tau point by point in mpmath: the Moebius step
    (alpha*tau + beta)/delta at working precision, reduction, then eval_j.
    Returns (reduced point, j or None) pairs in coset order."""
    out = []
    with mp.workprec(prec.bits + 32):
        z = tau.to_mpc()
        for rep in coset_reps(n):
            w = (rep.alpha * z + rep.beta) / rep.delta
            reduced, _ = reduce_to_fundamental_domain(UpperHalfPoint(w.real, w.imag), prec)
            out.append((reduced, eval_j(reduced, prec) if with_j else None))
    return out


@pytest.fixture
def reference_orbit():
    return _reference_orbit
