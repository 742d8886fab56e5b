import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from heckelab import lattices
from heckelab.arith import is_fundamental_discriminant
from heckelab.lattices import (
    GramForm,
    SweepOverflowError,
    UnsupportedConfigurationError,
    ball_count,
    counting_bound,
    dense_fiber_set,
    fiber_count,
    ideal_hom_disc_check,
    lagrange_reduce,
    reduced_primitive_forms,
    represented_values,
)

I2 = GramForm.from_rows(((1, 0), (0, 1)))
I4 = GramForm.from_rows(
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
)


def _conjugate(form, u):
    # G -> U^T G U; U integral with det +-1 keeps the lattice
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            total = Fraction(0)
            for k in range(2):
                for l in range(2):
                    total += u[k][i] * form.gram[k][l] * u[l][j]
            row.append(total)
        rows.append(tuple(row))
    return GramForm(tuple(rows))


def _random_unimodular(rng, steps=6):
    u = [[1, 0], [0, 1]]
    for _ in range(steps):
        t = rng.randrange(-3, 4)
        if rng.random() < 0.5:
            u = [[u[0][0] + t * u[1][0], u[0][1] + t * u[1][1]], u[1]]
        else:
            u = [u[0], [u[1][0] + t * u[0][0], u[1][1] + t * u[0][1]]]
    if rng.random() < 0.5:
        u = [u[1], u[0]]
    return u


def _random_reduced(rng, half_integral=False):
    a = rng.randrange(1, 12)
    b_twice = rng.randrange(-a, a + 1)  # 2|b| <= a in Gram units
    if not half_integral:
        b = Fraction(b_twice // 1)
        if 2 * abs(b) > a:
            b = Fraction(0)
    else:
        b = Fraction(b_twice, 2)
    c = rng.randrange(a, a + 12)
    return GramForm.from_rows(((a, b), (b, c)))


def _brute_values(form, n):
    out = set()
    # generous box: min eigenvalue >= det/trace
    tr = form.gram[0][0] + form.gram[1][1]
    lam = form.disc / tr
    bound = 1
    while lam * bound * bound < n:
        bound += 1
    # den q(x, y) = a x^2 + b xy + c y^2 in integers
    (qa, qb), (_, qc) = form.gram
    den = lcm(qa.denominator, (2 * qb).denominator, qc.denominator)
    a, b, c = int(den * qa), int(2 * den * qb), int(den * qc)
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            v = (a * x + b * y) * x + c * y * y
            if 0 < v <= den * n and v % den == 0:
                out.add(v // den)
    return out


def _loop_sweep(form, n):
    """The per-triple sweep: loops over the leading coordinates in Python
    and one NumPy pass over the last coordinate each, Python-int constants.
    Returns the counts and the number of leading rows whose pass holds a
    value <= n."""
    if n < 0:
        return np.zeros(0, dtype=np.int64), 0
    counts = np.zeros(n + 1, dtype=np.int64)
    # the Gram entries' common denominator, not the coefficients' scale
    scale = lcm(*(v.denominator for row in form.gram for v in row))
    mat = [[int(v * scale) for v in row] for row in form.gram]
    bounds = lattices._coordinate_bounds(form, n)
    cap = scale * n
    last = form.rank - 1
    xs = np.arange(-bounds[last], bounds[last] + 1, dtype=np.int64)
    quad = mat[last][last] * xs * xs
    rows = 0

    def sweep(const, lin):
        nonlocal rows
        q = const + lin * xs + quad
        vals = q[(q >= 0) & (q <= cap)]
        rows += len(vals) > 0
        vals = vals[vals % scale == 0] // scale
        np.add.at(counts, vals, 1)

    if form.rank == 2:
        for x0 in range(-bounds[0], bounds[0] + 1):
            sweep(mat[0][0] * x0 * x0, 2 * mat[0][1] * x0)
    else:
        for x0 in range(-bounds[0], bounds[0] + 1):
            for x1 in range(-bounds[1], bounds[1] + 1):
                for x2 in range(-bounds[2], bounds[2] + 1):
                    const = (
                        mat[0][0] * x0 * x0
                        + mat[1][1] * x1 * x1
                        + mat[2][2] * x2 * x2
                        + 2 * (mat[0][1] * x0 * x1 + mat[0][2] * x0 * x2 + mat[1][2] * x1 * x2)
                    )
                    lin = 2 * (mat[0][3] * x0 + mat[1][3] * x1 + mat[2][3] * x2)
                    sweep(const, lin)
    return counts, rows


def _loop_value_counts(form, n):
    return _loop_sweep(form, n)[0]


_HALF = Fraction(1, 2)
# Z^4, Z^2 + hexagonal and hexagonal + hexagonal, with half-integral entries
_RANK4_SHAPES = [
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, _HALF), (0, 0, _HALF, 1)),
    ((1, _HALF, 0, 0), (_HALF, 1, 0, 0), (0, 0, 1, _HALF), (0, 0, _HALF, 1)),
]


def _random_ata(rng):
    # A^T A for an integral A of nonzero determinant is positive definite
    while True:
        a = [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(4)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        try:
            return GramForm.from_rows(gram)
        except ValueError:
            continue


def _sweep_test_forms():
    rng = random.Random(61)
    forms = []
    for _ in range(12):
        form = _random_reduced(rng, half_integral=True)
        forms.append(_conjugate(form, _random_unimodular(rng)))
    forms += [_random_ata(rng) for _ in range(3)]
    forms += [GramForm.from_rows(rows) for rows in _RANK4_SHAPES]
    return forms


def test_value_counts_match_the_per_triple_loop(monkeypatch):
    # 5 box points per block puts every leading row in a block of its own;
    # 100 puts a few rows in each, with a shorter last block
    block_sizes = (lattices._BLOCK_POINTS, 100, 5)
    for form in _sweep_test_forms():
        for n in (0, 1, 13, 40 if form.rank == 4 else 150):
            want = _loop_value_counts(form, n)
            for block_points in block_sizes:
                monkeypatch.setattr(lattices, "_BLOCK_POINTS", block_points)
                got = lattices._value_counts(form, n)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (form.gram, n, block_points)
        for n in (-1, -2):
            assert lattices._value_counts(form, n).shape == (0,)
            assert _loop_value_counts(form, n).shape == (0,)


def test_value_counts_drop_the_rows_that_miss_the_ellipsoid(monkeypatch):
    # each leading row is kept exactly when its fibre in the last coordinate
    # holds a value <= n, as the loop finds it point by point
    kept = []
    meets = lattices._fibre_meets

    def counting(const, lin, a, bound, cap):
        mask = meets(const, lin, a, bound, cap)
        kept.append(int(mask.sum()))
        return mask

    monkeypatch.setattr(lattices, "_fibre_meets", counting)
    third = Fraction(1, 3)
    # 1 + 1/d and 1/2 + 1/d scale by d: the fibre slopes lin reach 5 (d + 2)
    d = 2**40 + 1
    wide = GramForm.from_rows(((1 + Fraction(1, d), _HALF + Fraction(1, d)),
                               (_HALF + Fraction(1, d), 1 + Fraction(1, d))))
    rng = random.Random(67)
    cases = [
        # skewed rank-2 forms: thin ellipses whose chords at the outer rows
        # are shorter than 1
        (GramForm.from_rows(((1, 10), (10, 101))), 60),
        (GramForm.from_rows(((1, Fraction(19, 2)), (Fraction(19, 2), 91))), 60),
        (_conjugate(GramForm.from_rows(((3, 1), (1, 5))), [[3, 8], [1, 3]]), 40),
        # entries in thirds: the coefficient scale stays 3
        (GramForm.from_rows(((1, 29 * third), (29 * third, 94))), 60),
        (GramForm.from_rows(((1, third, 0, 0), (third, 1, 0, 0),
                             (0, 0, Fraction(4, 3), third), (0, 0, third, 1))), 30),
        (wide, 20),
    ] + [(_random_ata(rng), 15) for _ in range(3)]
    scale, coef = lattices._integer_coefficients(cases[3][0])
    assert scale == 3
    scale, coef = lattices._integer_coefficients(wide)
    b0 = lattices._coordinate_bounds(wide, 20)[0]
    assert (scale, b0) == (d, 5) and (coef[0][1] * b0) ** 2 > 2**63 > 2**53
    for form, n in cases:
        want, rows = _loop_sweep(form, n)
        bounds = lattices._coordinate_bounds(form, n)
        box_rows = np.prod([2 * b + 1 for b in bounds[:-1]])
        if form is not wide:
            assert rows < box_rows, form.gram  # the sweep has rows to drop
        # blocks of 5 box points hold one row each; at rank 4 that is slow,
        # and test_value_counts_match_the_per_triple_loop runs it
        blocks = (lattices._BLOCK_POINTS, 100) + ((5,) if form.rank == 2 else ())
        for block_points in blocks:
            monkeypatch.setattr(lattices, "_BLOCK_POINTS", block_points)
            kept.clear()
            assert np.array_equal(lattices._value_counts(form, n), want), (form.gram, n)
            assert sum(kept) == rows, (form.gram, n, block_points)


def test_value_counts_reject_values_beyond_int64():
    # diag(1 + 1/d) at n = 20: the box is |x_i| <= 4 and the scaled values
    # reach 32 (d + 1), so the guard sits between d = 2^58 - 2 and 2^58 - 1
    def near_identity(d):
        entry = 1 + Fraction(1, d)
        return GramForm.from_rows(((entry, 0), (0, entry)))

    for d in (10**18, 2**58 - 1):
        with pytest.raises(SweepOverflowError):
            lattices._value_counts(near_identity(d), 20)
    inside = near_identity(2**58 - 2)
    assert np.array_equal(lattices._value_counts(inside, 20), _loop_value_counts(inside, 20))
    # entries near 2^62 whose box is the origin alone: no term reaches int64
    big, off = 2**62 + 2**40, 2**62
    point_box = GramForm.from_rows(((big, off), (off, big)))
    assert lattices._coordinate_bounds(point_box, 3) == [0, 0]
    assert np.array_equal(lattices._value_counts(point_box, 3), _loop_value_counts(point_box, 3))


def test_gram_validation():
    with pytest.raises(ValueError):
        GramForm.from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        GramForm.from_rows(((1, 1), (2, 1)))
    with pytest.raises(ValueError):
        GramForm.from_rows(((1, 2), (2, 1)))  # indefinite
    with pytest.raises(ValueError):
        GramForm.from_rows(((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="not square"):
        GramForm.from_rows(((1, 0, 0), (0, 1, 0)))
    half = GramForm.from_rows(((1, Fraction(1, 2)), (Fraction(1, 2), 1)))
    assert half.disc == Fraction(3, 4)
    assert half.value((1, 1)) == 3
    assert half.value((1, -1)) == 1


def test_lagrange_reduce_normalizes():
    unimodular = GramForm.from_rows(((10, 7), (7, 5)))
    assert lagrange_reduce(unimodular).gram == I2.gram
    rng = random.Random(17)
    for _ in range(60):
        base = _random_reduced(rng, half_integral=rng.random() < 0.5)
        moved = _conjugate(base, _random_unimodular(rng))
        red = lagrange_reduce(moved)
        a, b, c = red.gram[0][0], red.gram[0][1], red.gram[1][1]
        assert 2 * abs(b) <= a <= c
        assert red.disc == moved.disc == base.disc
        assert represented_values(red, 40) == represented_values(moved, 40)
    with pytest.raises(ValueError):
        lagrange_reduce(I4)


def test_represented_values_against_brute_force():
    rng = random.Random(29)
    assert represented_values(I2, 10) == {1, 2, 4, 5, 8, 9, 10}
    for _ in range(8):
        form = _random_reduced(rng, half_integral=rng.random() < 0.5)
        if rng.random() < 0.5:
            form = _conjugate(form, _random_unimodular(rng))
        assert represented_values(form, 60) == _brute_values(form, 60)
    assert represented_values(I2, 0) == set()
    with pytest.raises(ValueError):
        represented_values(I4, 10)


def test_fiber_and_ball_counts():
    assert fiber_count(I4, 2) == 24
    assert fiber_count(I4, 1) == 8
    assert fiber_count(I4, 0) == 1
    assert ball_count(I4, 2) == 33
    assert ball_count(I4, 10) == 569
    assert ball_count(I4, -1) == 0
    assert fiber_count(I2, 25) == 12  # 25 = 25+0 (4) and 16+9 (8)
    with pytest.raises(ValueError):
        ball_count(I2, 5)
    with pytest.raises(ValueError):
        fiber_count(I4, -2)


def test_counting_bound_holds_on_random_forms():
    rng = random.Random(41)
    for _ in range(40):
        form = _random_reduced(rng, half_integral=rng.random() < 0.5)
        bound_disc = form.disc
        for n in (1, 7, 50, 300):
            assert fiber_count(form, n) <= counting_bound(n, bound_disc)
    with pytest.raises(ValueError):
        counting_bound(5, 0)


def test_dense_fiber_sets_frozen():
    assert dense_fiber_set(I4, 8, 10) == {1, 2, 3, 5, 6, 7, 9, 10}
    assert dense_fiber_set(I4, 24, 10) == set()
    with pytest.raises(ValueError):
        dense_fiber_set(I2, 8, 10)
    with pytest.raises(ValueError):
        dense_fiber_set(I4, 0, 10)
    for n in (0, -1, -2):
        assert dense_fiber_set(I4, 8, n) == set()


def test_dense_set_size_is_ball_limited():
    # sum of eps1*N over the dense members is at most the ball count
    for eps1 in (2, 8, 16):
        members = dense_fiber_set(I4, eps1, 30)
        total = ball_count(I4, 30)
        assert eps1 * len(members) * (len(members) + 1) // 2 <= total


def test_ball_ratio_decreases_under_scaling():
    # Gram of the index-2^k sublattice chain scales by 4 each step
    n = 100
    chain = [
        ball_count(GramForm.from_rows(tuple(tuple(s * v for v in row) for row in I4.gram)), n)
        for s in (1, 4, 16)
    ]
    assert chain[0] > chain[1] > chain[2]
    ratios = [c / n**2 for c in chain]
    assert ratios[0] > ratios[1] > ratios[2]


def test_sublattice_values_nest():
    doubled = GramForm.from_rows(((4, 0), (0, 4)))
    inner = represented_values(doubled, 60)
    outer = represented_values(I2, 60)
    assert inner <= outer
    assert inner == {4 * v for v in represented_values(I2, 15)}


def test_class_representatives():
    assert reduced_primitive_forms(-3) == [(1, 1, 1)]
    assert reduced_primitive_forms(-4) == [(1, 0, 1)]
    assert reduced_primitive_forms(-12) == [(1, 0, 3)]
    assert reduced_primitive_forms(-16) == [(1, 0, 4)]
    assert reduced_primitive_forms(-20) == [(1, 0, 5), (2, 2, 3)]
    assert len(reduced_primitive_forms(-23)) == 3
    assert len(reduced_primitive_forms(-47)) == 5
    for disc in (-4, -20, -23, -47, -71):
        for a, b, c in reduced_primitive_forms(disc):
            assert b * b - 4 * a * c == disc
            assert gcd(gcd(a, b), c) == 1
            assert (abs(b) <= a <= c) and (b >= 0 or (abs(b) != a and a != c))
    with pytest.raises(ValueError):
        reduced_primitive_forms(5)
    with pytest.raises(ValueError):
        reduced_primitive_forms(-5)


def test_ideal_endomorphism_disc_comparison():
    for d_k, f in ((-4, 1), (-20, 1), (-3, 2), (-7, 3), (-8, 5)):
        assert ideal_hom_disc_check(d_k, f)
    with pytest.raises(UnsupportedConfigurationError):
        ideal_hom_disc_check(-12, 1)  # not fundamental
    with pytest.raises(UnsupportedConfigurationError):
        ideal_hom_disc_check(-4, 0)


def _per_class_disc_check(d_k, f):
    """The comparison the closed form replaced: the Gram determinant of the
    order's norm form against that of every reduced primitive form of
    discriminant f^2 d_K."""
    disc = f * f * d_k
    parity = disc & 1
    end_form = GramForm.from_rows(
        ((1, Fraction(parity, 2)), (Fraction(parity, 2), Fraction(parity - disc, 4)))
    )
    return all(
        end_form.disc >= GramForm.from_rows(((a, Fraction(b, 2)), (Fraction(b, 2), c))).disc
        for a, b, c in reduced_primitive_forms(disc)
    )


def test_ideal_hom_disc_check_matches_the_per_class_determinants():
    pairs = [
        (d_k, f)
        for d_k in range(-999, 0)
        if is_fundamental_discriminant(d_k)
        for f in range(1, 6)
    ]
    assert len(pairs) > 1500
    for d_k, f in pairs:
        assert ideal_hom_disc_check(d_k, f) is _per_class_disc_check(d_k, f) is True
