"""The classical modular polynomials Phi_N(X, Y): exact integer tables
for the primes l <= 31, a bounded orbit polynomial for any other N, and
the generator that writes the tables.

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
bound: the coefficients are at most prod (1 + |j_i|), read off the orbit's
float64 screen, and 128 bits go on top.  An untrusted screen or a
coefficient farther than 2^-32 from an integer raises ArithmeticError.
The last polynomial is kept, so a sweep over z at one (y, N) builds one.

The generator (Enge, Math. Comp. 78, 2009: evaluation and interpolation)
takes Phi_N(X, y) at each integer node y = 0, ..., e_N and interpolates
every X-coefficient in Y by exact integer divided differences.  A
non-integral divided difference or an asymmetric result raises
ArithmeticError.  Regenerate every table (about 15 s on a 2-vCPU Xeon,
Python 3.11, mpmath on its Python backend) with

    PYTHONPATH=src python -m heckelab.modpoly
"""

from __future__ import annotations

import functools
import math
from importlib import resources
from pathlib import Path

from mpmath import mp

from .hecke import HeckeOrbit, e_n, hecke_orbit
from .numerics import Precision, tau_from_j

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# bits above the bound on prod (1 + |j_i|), and the largest distance from
# an integer at which a coefficient of prod (X - j_i) is accepted
_MARGIN_BITS = 128
_ROUND_TOL = 2.0**-32


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
    _orbit_polynomial(y, N)."""
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


@functools.lru_cache(maxsize=1)
def _orbit_polynomial(y: int, n: int) -> tuple[int, ...]:
    """The integer coefficients, constant first, of Phi_N(X, y) = prod
    (X - j_i) over T_N * tau_y, at _MARGIN_BITS above log2 prod (1 + |j_i|)
    as the orbit's float64 screen bounds it.  ArithmeticError when the
    screen has untrusted points or a coefficient lies farther than
    _ROUND_TOL from an integer.  The last polynomial is kept, as a sweep
    over z at one (y, N) reads the same one for every z."""
    bound = HeckeOrbit(tau_from_j(y, Precision(64)), n).screen.log2_product_bound()
    if math.isnan(bound):
        raise ArithmeticError(f"the float64 screen of Phi_{n}(X, {y}) has untrusted points")
    prec = Precision(math.ceil(bound) + _MARGIN_BITS)
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
