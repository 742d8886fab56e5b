"""Exact rational bookkeeping for multiplicative (Tate-type) degenerations.

A curve with j-valuation v < 0 at a non-archimedean place has value group
q^Z with v(q) = v.  Its cyclic N-isogenies are indexed by triples
(r, s, t) with r*t = N, 0 <= s < t, gcd(r, s, t) = 1, and the isogenous
curve has j-valuation (r/t) * v.  Everything in this module is exact:
no floating point enters.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence

from .arith import TripleRows, triple_counts


class SubgroupTriple(NamedTuple):
    """Cyclic order-N subgroup omega^(t Z) * (omega^s xi^r)^Z of the value
    lattice, with r*t = N and xi a primitive t-th root of unity."""

    r: int
    s: int
    t: int
    n: int


def cyclic_subgroups(n: int) -> Sequence[SubgroupTriple]:
    """All (r, s, t) with r*t = N, 0 <= s < t, gcd(r, s, t) = 1,
    in lexicographic (r, s) order.

    A read-only sequence: iteration and integer indexing yield
    SubgroupTriple rows whose fields are Python ints, and a slice returns
    a list of rows.
    """
    return TripleRows(SubgroupTriple, n)


def valuation_orbit(v: Fraction, n: int) -> Counter:
    """Multiset of j-valuations (r/t) * v over the cyclic subgroups of order N.

    Requires v < 0 (multiplicative reduction).  The result is a Counter
    keyed by exact Fractions.  The valuation depends only on the divisor r,
    so the multiplicities come from arith.triple_counts, one per divisor.
    """
    v = Fraction(v)
    if v >= 0:
        raise ValueError(f"valuation must be negative, got {v}")
    return Counter({Fraction(r, t) * v: count for r, t, count in triple_counts(n)})


def no_collision_check(v: Fraction, x: Fraction, n: int) -> bool:
    """True when x is not attained as a valuation in the order-N orbit of v."""
    return Fraction(x) not in valuation_orbit(v, n)


class BadRedConstant(NamedTuple):
    floor: Fraction  # valuation of z^-1; |z^-1 - alpha^-1| >= |z^-1| holds
    n: int  # modulus |a*b*c*d|; degrees prime to it avoid v-collisions


def badred_constant(v: Fraction, x: Fraction) -> BadRedConstant:
    """Distance floor for inverted j-values near a multiplicative place.

    v = c/d < 0 is the j-valuation of the base curve, x = a/b the
    j-valuation of the comparison point z (finite, nonzero).  For any
    isogeny degree N prime to n = |abcd| and not a perfect square, no
    orbit valuation equals x, hence v(z^-1 - alpha^-1) <= v(z^-1) and
    |z^-1 - alpha^-1| >= |z^-1|.  The floor is reported in valuation
    units as -x = v(z^-1).
    """
    v = Fraction(v)
    x = Fraction(x)
    if v >= 0:
        raise ValueError(f"base valuation must be negative, got {v}")
    if x == 0:
        raise ValueError("comparison valuation must be nonzero")
    n = abs(x.numerator * x.denominator * v.numerator * v.denominator)
    return BadRedConstant(floor=-x, n=n)
