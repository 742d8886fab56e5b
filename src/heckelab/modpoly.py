"""The classical modular polynomials Phi_N(X, Y): exact integer tables
for the primes l <= 31, a bounded orbit polynomial for any other N, the
generator that writes the tables, and vanishes, which decides Phi_N(x, y)
= 0 at integers with a Frobenius certificate on the j-line mod p.

Phi_N(X, j(tau)) = prod over T_N * tau of (X - j(tau_i)): monic of degree
e_N in X, with integer coefficients, symmetric in X and Y, and of degree
e_N in Y.  evaluate(N, x, y) = Phi_N(x, y) exactly, for every N >= 1: by
Horner in X and Y over the stored table of a prime N <= 31, else by Horner
in X over Phi_N(X, y) from the orbit of y.

Each table is a text file data/phi_<l>.txt, one line "a b c" for each
nonzero coefficient c of X^a Y^b with a <= b; symmetry gives the rest.  A
table is read on its first use and kept, so importing the package reads
none.

Phi_N(X, y) at an integer y is prod (X - j_i) over hecke_orbit(tau_from_j(y))
with every coefficient rounded to an integer.  Its precision comes from a
bound: the coefficients are at most prod (1 + |j_i|), which the exactly
reduced Im of the orbit's points bounds, and 128 bits go on top.  A
coefficient farther than 2^-32 from an integer raises ArithmeticError.
The last polynomial is kept, so a sweep over z at one (y, N) builds one.

The generator (Enge, Math. Comp. 78, 2009: evaluation and interpolation)
takes Phi_N(X, y) at each integer node y = 0, ..., e_N and interpolates
every X-coefficient in Y by exact integer divided differences.  A
non-integral divided difference or an asymmetric result raises
ArithmeticError.  Regenerate every table (about 9 s on a 2-vCPU Xeon,
Python 3.11, mpmath on its Python backend) with

    PYTHONPATH=src python -m heckelab.modpoly
"""

from __future__ import annotations

import functools
import math
from importlib import resources
from pathlib import Path

from mpmath import mp

from .arith import primes_up_to
from .hecke import HeckeOrbit, e_n, hecke_orbit
from .numerics import Precision, tau_from_j
from .scan import CurveQ, TraceRecord, count_points, geom_isogenous

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# bits above the bound on prod (1 + |j_i|), and the largest distance from
# an integer at which a coefficient of prod (X - j_i) is accepted
_MARGIN_BITS = 128
_ROUND_TOL = 2.0**-32
# |j(tau)| <= e^(2 pi Im tau) + _J_TAIL on the closed fundamental domain,
# where |q| <= e^(-pi sqrt 3) and 744 + sum c(n) e^(-pi sqrt 3 n) = 2078.81;
# a reduced point up to 2^-(wp - 8) below the arc moves that sum by far less.
_J_TAIL = 2079


def _file_name(ell: int) -> str:
    return f"phi_{ell}.txt"


@functools.cache
def coefficients(ell: int) -> tuple[tuple[int, ...], ...]:
    """Phi_ell's coefficients, rows[a][b] of X^a Y^b, read from its table
    on first use; ValueError for an ell with no table."""
    if ell not in PRIMES:
        raise ValueError(f"no stored modular polynomial for N = {ell}")
    text = resources.files(__package__).joinpath("data", _file_name(ell)).read_text()
    size = ell + 2
    rows = [[0] * size for _ in range(size)]
    for line in text.splitlines():
        a, b, c = map(int, line.split())
        rows[a][b] = rows[b][a] = c
    return tuple(map(tuple, rows))


def evaluate(n: int, x: int, y: int) -> int:
    """Phi_N(x, y) for integers x and y and any N >= 1, exactly, by Horner:
    in X and Y over the stored table for N in PRIMES, else in X over
    _orbit_polynomial(y, N).  N < 1 raises ValueError."""
    if n < 1:
        raise ValueError(f"N must be positive, got {n}")
    if n in PRIMES:
        value = 0
        for row in reversed(coefficients(n)):
            at_y = 0
            for c in reversed(row):
                at_y = at_y * y + c
            value = value * x + at_y
        return value
    value = 0
    for c in reversed(_orbit_polynomial(y, n)):
        value = value * x + c
    return value


def _log2_product_bound(orbit: HeckeOrbit) -> float:
    """An upper bound on log2 prod (1 + |j_i|) over the orbit, from the
    reduced Im of each point alone: 1 + |j| <= e^(2 pi Im tau) + 1 +
    _J_TAIL.  It bounds each coefficient of prod (X - j_i) and reads no j."""
    total = 0.0
    for point in orbit.points:
        x = 2 * math.pi * float(point.tau.im)  # above 5.4, so e^-x cannot overflow
        total += x + math.log1p((1 + _J_TAIL) * math.exp(-x))
    return total / math.log(2)


@functools.lru_cache(maxsize=1)
def _orbit_polynomial(y: int, n: int) -> tuple[int, ...]:
    """The integer coefficients, constant first, of Phi_N(X, y) = prod
    (X - j_i) over T_N * tau_y, at _MARGIN_BITS above _log2_product_bound.
    The orbit is reduced at 64 bits, which evaluates no j, then evaluated at
    its bound; it is rebuilt until its own bound fits its bits.
    ArithmeticError when a coefficient lies farther than _ROUND_TOL from an
    integer.  The last polynomial is kept, as a sweep over z at one (y, N)
    reads the same one for every z."""
    prec = Precision(64)
    orbit = HeckeOrbit(tau_from_j(y, prec), n, prec)
    while (bits := math.ceil(_log2_product_bound(orbit)) + _MARGIN_BITS) > prec.bits:
        prec = Precision(bits)
        orbit = hecke_orbit(tau_from_j(y, prec), n, prec)
    with mp.workprec(prec.wp):
        poly = [mp.mpc(1)]
        for point in orbit.points:
            shifted = [mp.mpc(0)] + poly  # X * poly
            for k, c in enumerate(poly):
                shifted[k] -= point.j * c
            poly = shifted
        out = []
        for k, c in enumerate(poly):
            nearest = int(mp.nint(c.real))
            if abs(c.real - nearest) > _ROUND_TOL or abs(c.imag) > _ROUND_TOL:
                raise ArithmeticError(
                    f"coefficient {k} of Phi_{n}(X, {y}) is {mp.nstr(c, 10)}, "
                    f"not an integer at {prec.bits} bits"
                )
            out.append(nearest)
    return tuple(out)


# The 13 integral j-invariants with complex multiplication, one for each
# imaginary quadratic order of class number one (discriminants -3, -4, -7,
# -8, -11, -12, -16, -19, -27, -28, -43, -67 and -163).  Every other integer
# j is the j-invariant of a curve over Q whose endomorphism ring is Z.
CM_J_INVARIANTS = frozenset(
    {
        0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000,
        16581375, -884736000, -147197952000, -262537412640768000,
    }
)


def vanishes(n: int, x: int, y: int) -> bool:
    """Phi_N(x, y) = 0, for integers x and y and N >= 1, decided on
    integers alone by the first rule that applies:

    1. x = y, N >= 2 and y not in CM_J_INVARIANTS: Phi_N(y, y) != 0, as a
       curve with End = Z has no cyclic endomorphism of degree N;
    2. a prime of phi_certificate(y, x, N): Phi_N(x, y) != 0;
    3. otherwise the exact value evaluate(N, x, y), the stored table or
       the orbit polynomial, decides.
    """
    if x == y and n >= 2 and y not in CM_J_INVARIANTS:
        return False
    if phi_certificate(y, x, n) is not None:
        return False
    return evaluate(n, x, y) == 0


@functools.lru_cache(maxsize=4096)
def _j_record(j: int, p: int) -> TraceRecord:
    """The record of a curve over F_p with j-invariant j, 0 <= j < p, p >= 5,
    kept per (j, p): count_points of y^2 = x^3 + 1 at j = 0, y^2 = x^3 + x
    at j = 1728 mod p, else y^2 = x^3 + t x + t with t = 27 j / (4 (1728 - j)),
    never singular: t != 0 and 4 t + 27 = 27 * 1728 / (1728 - j) != 0."""
    if j == 0:
        a, b = 0, 1
    elif j == 1728 % p:
        a, b = 1, 0
    else:
        a = b = 27 * j * pow(4 * (1728 - j), -1, p) % p
    return count_points(CurveQ(a, b), p)


# the primes 5 <= p < 1000 that phi_certificate walks, sieved once; a pair
# with no certifying prime there is left to the exact value of Phi_N
_CERTIFICATE_PRIMES = tuple(primes_up_to(999)[2:])


def phi_certificate(y: int, z: int, n: int) -> int | None:
    """The least of _CERTIFICATE_PRIMES not dividing N at which curves with
    j = y and j = z mod p (_j_record) are not geometrically isogenous, else
    None; N < 1 raises ValueError.  Such a p proves Phi_N(z, y) != 0: Phi_N
    mod p is the modular polynomial of F_p, so Phi_N(z, y) = 0 mod p would
    link the two curves by a cyclic N-isogeny over the algebraic closure of
    F_p.  Every j mod p is the j of a curve over F_p, so no prime is
    skipped, and geometric isogeny does not see which twist a trace is of."""
    if n < 1:
        raise ValueError(f"N must be positive, got {n}")
    for p in _CERTIFICATE_PRIMES:
        if n % p and geom_isogenous(_j_record(y % p, p), _j_record(z % p, p)) is None:
            return p
    return None


def _interpolate(values: list[int]) -> list[int]:
    """The integer polynomial, constant first, taking values[y] at y = 0,
    1, ...; ArithmeticError when a divided difference is not an integer."""
    diffs = list(values)
    newton = [diffs[0]]
    for k in range(1, len(values)):
        # the k-th divided differences at consecutive nodes y, ..., y + k
        nxt = []
        for lo, hi in zip(diffs, diffs[1:]):
            q, r = divmod(hi - lo, k)
            if r:
                raise ArithmeticError(f"divided difference {hi - lo}/{k} is not an integer")
            nxt.append(q)
        diffs = nxt
        newton.append(diffs[0])
    # Newton form sum_k newton[k] * prod_{i<k} (Y - i), expanded from the top
    poly = [newton[-1]]
    for k in range(len(newton) - 2, -1, -1):
        poly = [newton[k] - k * poly[0]] + [
            poly[i - 1] - k * poly[i] for i in range(1, len(poly))
        ] + [poly[-1]]
    return poly


def generate(n: int) -> list[list[int]]:
    """Phi_N's coefficients rows[a][b] of X^a Y^b, for any N >= 2, by
    evaluation at the integer nodes y = 0, ..., e_N and interpolation."""
    degree = e_n(n)
    columns = [_orbit_polynomial(y, n) for y in range(degree + 1)]
    rows = [_interpolate([col[a] for col in columns]) for a in range(degree + 1)]
    for a in range(degree + 1):
        for b in range(a):
            if rows[a][b] != rows[b][a]:
                raise ArithmeticError(f"Phi_{n} is not symmetric at X^{a} Y^{b}")
    return rows


def table_text(rows) -> str:
    """The table file of a coefficient matrix: "a b c" per nonzero c of
    X^a Y^b with a <= b."""
    return "".join(
        f"{a} {b} {row[b]}\n"
        for a, row in enumerate(rows)
        for b in range(a, len(row))
        if row[b]
    )


def main() -> None:
    data = Path(__file__).parent / "data"
    data.mkdir(exist_ok=True)
    for ell in PRIMES:
        (data / _file_name(ell)).write_text(table_text(generate(ell)))
        print(f"wrote {_file_name(ell)}")


if __name__ == "__main__":
    main()
