import logging
import math
from fractions import Fraction

import pytest
from mpmath import mp

from heckelab import cm
from heckelab.cm import (
    Box,
    CmPoint,
    DegenerateSetError,
    DensityPoint,
    DisplacementBoundError,
    ScalarMatrixError,
    coefficient_bound_check,
    condition_p,
    condition_p_lemma_check,
    density_experiment,
    density_fraction,
    enumerate_cm_points,
    fixed_point,
    min_separation_constant,
    near_cm_finder,
    order_index,
)
from heckelab.numerics import (
    ModularMatrix,
    Precision,
    UpperHalfPoint,
    eval_j,
    reduce_to_fundamental_domain,
)

PREC = Precision(96)
FAST = Precision(64)


def test_condition_p_small_cases():
    assert condition_p(3, 2).satisfies
    assert condition_p(7, 2).satisfies
    assert not condition_p(5, 2).satisfies
    assert not condition_p(4, 2).satisfies
    assert condition_p(2, 3).satisfies
    assert not condition_p(3, 3).satisfies  # 0 counts as a square
    assert not condition_p(1, 3).satisfies
    assert condition_p(2, 5).satisfies
    assert condition_p(3, 5).satisfies
    assert not condition_p(4, 5).satisfies
    with pytest.raises(ValueError):
        condition_p(0, 3)


def test_order_index():
    assert order_index(0, 1) == (1, -4)
    assert order_index(0, 4) == (2, -4)
    assert order_index(1, 1) == (1, -3)
    assert order_index(2, 4) == (2, -3)
    assert order_index(0, 2) == (1, -8)
    with pytest.raises(ValueError):
        order_index(2, 1)
    with pytest.raises(ValueError):
        order_index(5, 2)


def test_lemma_holds_at_odd_primes():
    for p in (3, 5, 7, 11, 13):
        assert condition_p_lemma_check(p, 400)
    assert condition_p_lemma_check(3, 1)  # vacuous range


def test_lemma_fails_at_two():
    # N = 3 satisfies the parity form of the condition, yet the trace-0
    # order Z[sqrt(-3)] has index 2: the extension to p = 2 is false.
    assert condition_p(3, 2).satisfies
    assert order_index(0, 3) == (2, -3)
    assert not condition_p_lemma_check(2, 3)
    assert not condition_p_lemma_check(2, 2000)


def _failing_pairs(p, n_max, keep):
    """Every (N, t, f, d_K) with 1 <= N <= n_max accepted by keep, t^2 < 4N
    and p | f, in the order of the per-(N, t) loop."""
    for N in range(1, n_max + 1):
        if not keep(N):
            continue
        for t in range(math.isqrt(4 * N - 1) + 1):
            f, d_k = order_index(t, N)
            if f % p == 0:
                yield N, t, f, d_k


def _brute_lemma_check(p, n_max):
    """The per-(N, t) loop over the N of condition (P) at p: the verdict,
    and the first failing (N, t, f, d_K) or None."""
    squares = {x * x % p for x in range(p)}
    keep = (lambda N: N % 4 == 3) if p == 2 else (lambda N: N % p not in squares)
    witness = next(_failing_pairs(p, n_max, keep), None)
    return witness is None, witness


def _logged_failures(caplog):
    return [
        tuple(r.args)
        for r in caplog.records
        if r.name == "heckelab.cm" and r.msg.startswith("index divisible by p")
    ]


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 50, 401, 2000])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
def test_lemma_sweep_matches_the_loop(p, n_max, caplog):
    # the (N, t) loop is the oracle of the closed form, logged witness included
    caplog.set_level(logging.WARNING, logger="heckelab.cm")
    ok, witness = _brute_lemma_check(p, n_max)
    assert condition_p_lemma_check(p, n_max) is ok
    assert _logged_failures(caplog) == ([] if ok else [witness])


def test_lemma_check_matches_the_loop_at_every_prime_below_sixty(caplog):
    caplog.set_level(logging.WARNING, logger="heckelab.cm")
    for p in (q for q in range(2, 60) if all(q % r for r in range(2, q))):
        for n_max in range(-2, 60):
            caplog.clear()
            ok, witness = _brute_lemma_check(p, n_max)
            assert condition_p_lemma_check(p, n_max) is ok, (p, n_max)
            assert _logged_failures(caplog) == ([] if ok else [witness])


def _residue_rules():
    # every residue class mod p (mod 4 at p = 2), and all N
    for p in (2, 3, 5, 7):
        modulus = 4 if p == 2 else p
        yield p, modulus, None
        yield from ((p, modulus, r) for r in range(modulus))


@pytest.mark.parametrize("n_max", [50, 2000])
@pytest.mark.parametrize("p, modulus, residue", list(_residue_rules()))
def test_lemma_sweep_finds_the_loops_first_failure(p, modulus, residue, n_max, caplog):
    # The closed form's argument on every residue class of N.  At an odd p,
    # failing pairs (p | f) exist exactly in the classes of squares, so none
    # has N in condition (P).  At p = 2, 2 | f needs t = 2s with N - s^2 = 0
    # or 3 mod 4, which every class but N = 2 mod 4 meets.  On a class that
    # covers condition (P), the closed form reports and logs the loop's first
    # failure among the N of condition (P).
    caplog.set_level(logging.WARNING, logger="heckelab.cm")
    failures = list(
        _failing_pairs(p, n_max, lambda N: residue is None or N % modulus == residue)
    )
    in_p = [w for w in failures if condition_p(w[0], p).satisfies]
    inside = residue is not None and condition_p(residue + modulus, p).satisfies
    assert bool(failures) is (residue != 2 if p == 2 else not inside)
    if p != 2:
        assert in_p == []
    if inside or residue is None:
        assert condition_p_lemma_check(p, n_max) is not in_p
        assert _logged_failures(caplog) == in_p[:1]


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 50])
def test_condition_p_needs_a_prime(p, caplog):
    with pytest.raises(ValueError, match="needs a prime p"):
        condition_p(5, p)
    with pytest.raises(ValueError, match="needs a prime p"):
        condition_p_lemma_check(p, 50)
    assert not caplog.records


def test_fixed_points_classical():
    s = fixed_point(ModularMatrix(0, -1, 1, 0), PREC)
    assert s is not None
    assert abs(s.tau0.re) < 1e-25 and abs(s.tau0.im - 1) < 1e-25
    assert (s.conductor, s.fundamental_disc, s.M, s.trace) == (1, -4, 1, 0)

    r2 = fixed_point(ModularMatrix(0, -2, 1, 0), PREC)
    assert abs(r2.tau0.to_mpc() - mp.mpc(0, mp.sqrt(2))) < 1e-25
    assert (r2.conductor, r2.fundamental_disc, r2.M) == (1, -8, 2)

    rho = fixed_point(ModularMatrix(1, -1, 1, 0), PREC)
    assert (rho.conductor, rho.fundamental_disc) == (1, -3)
    assert abs(rho.tau0.to_mpc() - mp.mpc("0.5", mp.sqrt(3) / 2)) < 1e-25

    assert fixed_point(ModularMatrix(1, 1, 0, 1), PREC) is None  # parabolic
    assert fixed_point(ModularMatrix(2, 1, 1, 1), PREC) is None  # hyperbolic
    with pytest.raises(ScalarMatrixError):
        fixed_point(ModularMatrix(3, 0, 0, 3), PREC)
    with pytest.raises(ValueError):
        fixed_point(ModularMatrix(1, 0, 0, -1), PREC)


def test_cm_point_validation():
    tau = UpperHalfPoint(0, 1)
    good = CmPoint(ModularMatrix(0, -1, 1, 0), 0, tau, 1, -4, 1)
    assert good.M == 1
    with pytest.raises(ScalarMatrixError):
        CmPoint(ModularMatrix(2, 0, 0, 2), 4, tau, 1, -4, 4)
    with pytest.raises(ValueError):
        CmPoint(ModularMatrix(0, -1, 1, 0), 0, tau, 1, -4, 2)  # det != M
    with pytest.raises(ValueError):
        CmPoint(ModularMatrix(0, -1, 1, 0), 1, tau, 1, -4, 1)  # trace
    with pytest.raises(ValueError):
        CmPoint(ModularMatrix(0, -1, 1, 0), 0, tau, 2, -4, 1)  # f^2 d_K
    for matrix in (ModularMatrix(1, 1, 0, 1), ModularMatrix(2, 0, 0, 1)):  # t^2 >= 4M
        with pytest.raises(ValueError, match="t\\^2 < 4M"):
            CmPoint(matrix, matrix.a + matrix.d, tau, 1, -4, matrix.det())


def test_enumerate_cm_points():
    points = enumerate_cm_points(2, PREC)
    jvals = sorted(float(eval_j(p.tau0, PREC).real) for p in points)
    assert len(points) == 4
    expected = [-3375, 0, 1728, 8000]
    for got, want in zip(jvals, expected):
        assert abs(got - want) < 1e-15 * max(1, abs(want))
    tol = mp.mpf(2) ** -(PREC.bits - 16)
    with mp.workprec(PREC.bits + 32):
        for p in points:
            # the matrix fixes its point, which lies in the fundamental domain
            z = p.tau0.to_mpc()
            residual = p.matrix.c * z * z + (p.matrix.d - p.matrix.a) * z - p.matrix.b
            scale = max(1, abs(p.matrix.c), abs(p.matrix.b)) * max(1, abs(z)) ** 2
            assert abs(residual) < tol * scale
            assert abs(p.tau0.re) <= 0.5 + 1e-25
    assert len(enumerate_cm_points(6, PREC)) >= len(points)
    with pytest.raises(ValueError):
        enumerate_cm_points(1, PREC)


def test_enumeration_keeps_the_first_point_of_each_discriminant(monkeypatch):
    calls = []

    def counted(tau, prec):
        calls.append(tau)
        return eval_j(tau, prec)

    monkeypatch.setattr(cm, "eval_j", counted)
    points = enumerate_cm_points(12, FAST)
    first = {}
    for m in range(1, 13):
        for t in range(math.isqrt(4 * m - 1) + 1):
            first.setdefault(t * t - 4 * m, (m, t))
    assert [(p.M, p.trace) for p in points] == list(first.values())
    assert not calls  # j is left to the callers
    # distinct discriminants, distinct j: the dedupe by j it replaces
    jvals = [eval_j(p.tau0, FAST) for p in points]
    tol = 2.0 ** -(FAST.bits - 20)
    for i, j1 in enumerate(jvals):
        for j2 in jvals[i + 1 :]:
            assert abs(j1 - j2) > tol * max(1, abs(j2))


def _swept_cm_points(m_max, prec):
    """The enumeration the closed form replaced: every (M, t) with
    t^2 < 4M, the first of each discriminant, its fixed point reduced to
    the fundamental domain and its matrix conjugated by the witness."""
    points, seen = [], set()
    for m in range(1, m_max + 1):
        for t in range(math.isqrt(4 * m - 1) + 1):
            if t * t - 4 * m in seen:
                continue
            seen.add(t * t - 4 * m)
            companion = ModularMatrix(0, -m, 1, t)
            raw = fixed_point(companion, prec)
            reduced, witness = reduce_to_fundamental_domain(raw.tau0, prec)
            points.append(
                CmPoint(
                    matrix=(witness @ companion) @ witness.inverse(),
                    trace=t,
                    tau0=reduced,
                    conductor=raw.conductor,
                    fundamental_disc=raw.fundamental_disc,
                    M=m,
                )
            )
    return points


def _raw(point):
    return (
        point.matrix, point.trace, point.conductor, point.fundamental_disc,
        point.M, point.tau0.re._mpf_, point.tau0.im._mpf_,
    )


@pytest.mark.parametrize("bits", [53, 64, 96, 128, 256, 1024])
def test_enumeration_equals_the_reduced_sweep(bits):
    prec = Precision(bits)
    got = enumerate_cm_points(150, prec)
    assert [_raw(p) for p in got] == [_raw(p) for p in _swept_cm_points(150, prec)]


def test_min_separation_frozen():
    # the tightest pair inside |j| <= 1e7 is (j=0, j=1728) at M = 1:
    # 1728 * sqrt(1) * 2 = 3456, already present at m_max = 2
    for m_max in (2, 6):
        points = enumerate_cm_points(m_max, PREC)
        c_obs = min_separation_constant(points, 1e7, PREC)
        assert c_obs == pytest.approx(3456.0, rel=1e-12)
    points = enumerate_cm_points(2, PREC)
    with pytest.raises(DegenerateSetError):
        min_separation_constant(points, 1.0, PREC)  # only j=0 in the box
    twice = [p for p in points if abs(eval_j(p.tau0, PREC)) < 1] * 2
    with pytest.raises(DegenerateSetError, match="all points share one j-value"):
        min_separation_constant(twice, 1.0, PREC)


def test_near_cm_finder():
    mat = ModularMatrix(0, -2, 1, 0)
    center = fixed_point(mat, PREC).tau0
    found = near_cm_finder(center, center, mat, PREC)
    assert found is not None and found.fundamental_disc == -8

    with mp.workprec(160):
        tau = UpperHalfPoint(center.re + mp.mpf("1e-6"), center.im)
        image = mat.apply(tau, PREC)
    recovered = near_cm_finder(tau, image, mat, PREC)
    assert recovered is not None
    assert abs(recovered.tau0.to_mpc() - center.to_mpc()) < 1e-20

    assert near_cm_finder(center, center, ModularMatrix(1, 1, 0, 1), PREC) is None
    far = UpperHalfPoint(0.3, 1.7)
    with pytest.raises(DisplacementBoundError):
        near_cm_finder(far, far, mat, PREC)  # zero displacement, far from tau0


def test_box_and_samples():
    box = Box(Fraction(-1, 2), Fraction(1, 2), 1, 2)
    grid = box.samples(2)
    assert len(grid) == 9
    assert all(isinstance(x, Fraction) and isinstance(y, Fraction) for x, y in grid)
    assert (Fraction(0), Fraction(3, 2)) in grid
    line = Box(0, 0, 1, 2)
    assert len(line.samples(3)) == 4  # degenerate width collapses
    with pytest.raises(ValueError):
        Box(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Box(1, 0, 1, 2)
    with pytest.raises(ValueError):
        box.samples(0)


def test_coefficient_bound_frozen():
    box = Box(Fraction(-1, 2), Fraction(1, 2), 1, 2)
    k0 = coefficient_bound_check(box, 6)
    assert k0 == pytest.approx(5 / math.sqrt(6), rel=1e-12)
    # the grid refinement has stabilized already at the corners
    for divisions in (1, 3, 5):
        assert coefficient_bound_check(box, 6, divisions) == k0
    small = Box(Fraction(-1, 10), Fraction(1, 10), Fraction(9, 10), Fraction(11, 10))
    assert coefficient_bound_check(small, 1) == 1.0
    assert coefficient_bound_check(Box(0, 0, 100, 101), 2) == 0.0
    with pytest.raises(ValueError):
        coefficient_bound_check(box, 0)


def _brute_matrices_into_box(box, n, x, y):
    """Every integral (a, b; c, d) of det n whose image of x + iy lies in
    the box, over entry ranges that the box bounds: Im f = n y/|c tau + d|^2
    >= im_min bounds c and d; the inverse matrix gives
    |a - c f|^2 = n Im f / y, which bounds a; and b = d Re f - a x when
    c = 0."""
    cap = n * y / box.im_min
    r_max = max(abs(box.re_min), abs(box.re_max))
    c_hi = math.isqrt(math.floor(cap / (y * y))) + 1
    d_hi = math.isqrt(math.floor(cap)) + 2 + c_hi * math.ceil(abs(x))
    a_hi = math.isqrt(math.floor(n * box.im_max / y)) + 2 + c_hi * math.ceil(r_max)
    b_hi = d_hi * math.ceil(r_max) + a_hi * math.ceil(abs(x)) + 1
    out = set()
    for a in range(-a_hi, a_hi + 1):
        for c in range(-c_hi, c_hi + 1):
            for d in range(-d_hi, d_hi + 1):
                if c:
                    bs = [(a * d - n) // c] if (a * d - n) % c == 0 else []
                else:
                    bs = range(-b_hi, b_hi + 1) if a * d == n else []
                for b in bs:
                    assert a * d - b * c == n
                    modsq = (c * x + d) ** 2 + (c * y) ** 2
                    re_f = ((a * x + b) * (c * x + d) + a * c * y * y) / modsq
                    im_f = n * y / modsq
                    if box.re_min <= re_f <= box.re_max and box.im_min <= im_f <= box.im_max:
                        out.add((a, b, c, d))
    return out


def test_matrices_into_box_equals_the_brute_force():
    boxes = [
        Box(Fraction(-1, 2), Fraction(1, 2), 1, 2),
        Box(Fraction(-1, 3), Fraction(7, 10), Fraction(1, 2), Fraction(5, 4)),
    ]
    found = 0
    for box in boxes:
        for n in range(1, 7):
            for x, y in box.samples(2):
                got = list(cm._matrices_into_box(box, n, x, y))
                assert len(got) == len(set(got))
                assert set(got) == _brute_matrices_into_box(box, n, x, y), (box, n, x, y)
                found += len(got)
    assert found > 100


def test_density_experiment_small():
    base = UpperHalfPoint(0, 2)
    points = density_experiment(base, 287496, 4, 3, FAST)
    assert [p.n for p in points] == [1, 2, 3]
    assert points[0].best_distance < 1e-15  # z is the base j-value itself
    assert density_fraction(points, 4) >= 1 / 3
    with pytest.raises(ValueError):
        density_experiment(base, 0, 0, 3, FAST)
    with pytest.raises(ValueError):
        density_fraction([], 4)


def test_density_fraction_compares_below_the_float64_range():
    # 1e-330 > 10^-350, though both round to 0.0 in float64; at N = 2,
    # 2^-1100 is a hit at D = 1100 (equality) and none at D = 1101
    assert density_fraction([DensityPoint(10, mp.mpf("1e-330"))], 350) == 0.0
    assert density_fraction([DensityPoint(10, mp.mpf("1e-360"))], 350) == 1.0
    tiny = [DensityPoint(2, mp.mpf(2) ** -1100)]
    assert (density_fraction(tiny, 1100), density_fraction(tiny, 1101)) == (1.0, 0.0)
    nonfinite = [DensityPoint(1, mp.mpf("nan")), DensityPoint(1, mp.mpf("inf"))]
    assert density_fraction(nonfinite + [DensityPoint(3, 0.0)], 2) == 1 / 3


def _brute_density(reference_orbit, tau, z, n_max, prec):
    with mp.workprec(prec.bits + 32):
        zc = mp.mpc(z)
        return [
            min(abs(j - zc) for _, j in reference_orbit(tau, n, prec))
            for n in range(1, n_max + 1)
        ]


@pytest.mark.parametrize(
    "tau, z, n_max",
    [
        (UpperHalfPoint(0, 2), 287496, 8),  # z is an orbit j-value
        (UpperHalfPoint(0.3, 1.7), mp.mpc("1e12", "-3.5e11"), 12),
        (UpperHalfPoint(0.1, 150), mp.mpc(5, -2), 4),  # |j| beyond float64
        (UpperHalfPoint(0.3183098861837907, 1e-9), 1728, 8),  # below the screen floor
    ],
)
def test_density_experiment_matches_brute_force(tau, z, n_max, reference_orbit):
    got = density_experiment(tau, z, 4, n_max, FAST)
    assert [p.best_distance for p in got] == _brute_density(
        reference_orbit, tau, z, n_max, FAST
    )


def test_min_separation_evaluates_j_at_its_own_precision(monkeypatch):
    points = enumerate_cm_points(8, FAST)
    calls = []

    def counted(tau, prec):
        calls.append((tau, prec))
        return eval_j(tau, prec)

    monkeypatch.setattr(cm, "eval_j", counted)
    values = []
    for prec in (FAST, PREC):
        calls.clear()
        values.append(min_separation_constant(points, 1e7, prec))
        assert calls == [(p.tau0, prec) for p in points]
    assert values[0] == pytest.approx(values[1], rel=1e-12)
