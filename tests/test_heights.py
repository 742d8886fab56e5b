import math
import random
import re
import warnings
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from heckelab import cli, hecke, heights, lattices, modpoly, numerics
from heckelab.arith import pairwise_sum, prime_divisors, triple_counts
from heckelab.hecke import HeckeOrbit, e_n, hecke_orbit
from heckelab.heights import (
    CoincidenceError,
    cusp_height,
    global_identity_residual,
    heuristic_integral,
    local_arch_sum,
    phi_value,
)
from heckelab.numerics import (
    DEFAULT_PRECISION,
    Precision,
    UpperHalfPoint,
    eval_j,
    log_petersson_norm_delta,
    tau_from_j,
)

PREC = Precision(96)


def _classical_phi2(x, y):
    """The classical symmetric level-2 modular polynomial, exact integers."""
    return (
        x**3
        + y**3
        - x**2 * y**2
        + 1488 * (x**2 * y + x * y**2)
        - 162000 * (x**2 + y**2)
        + 40773375 * x * y
        + 8748000000 * (x + y)
        - 157464000000000
    )


def test_phi_frozen_values():
    assert phi_value(1, 2, 2) == -157437675254317
    assert phi_value(1, 2, 3) == 5564738242019498631577


def test_phi_symmetry():
    assert phi_value(2, 1, 2) == phi_value(1, 2, 2)
    assert phi_value(-7, 11, 2) == phi_value(11, -7, 2)


def test_phi_order_two_matches_classical_polynomial():
    # prod over the orbit of (z - j) is the classical polynomial in z with
    # the base j substituted, up to the sign fixed by the monic X-degree;
    # the bases y lie on all three arcs of real j: the imaginary axis
    # (y > 1728), the unit arc (0 < y < 1728) and Re tau = 1/2 (y < 0)
    for y in (287496, 8000, 1, 1727, -40, -3375):
        for z in (0, 1, -3, 1728):
            assert phi_value(y, z, 2) == _classical_phi2(z, y), (y, z)
    assert phi_value(287496, 0, 2) == 12730291119207936


def test_phi_at_cm_base():
    # tau_from_j returns i and rho exactly, so the orbits of 1728 and 0
    # repeat their j-values as Phi_2 does: T_2 * i holds 2i twice and i
    # once, and T_2 * rho holds a point of j = 54000 three times
    for z in (5, -3, 2000, 287496):
        assert phi_value(1728, z, 2) == _classical_phi2(z, 1728), z
    assert phi_value(0, 5, 2) == (5 - 54000) ** 3
    assert phi_value(0, 5, 2) == _classical_phi2(5, 0)


def _determinant(matrix):
    """The determinant of an integer matrix by fraction-free Bareiss
    elimination: every division is exact."""
    m = [list(row) for row in matrix]
    size, sign, pivot = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // pivot
        pivot = m[k][k]
    return sign * m[-1][-1]


def _resultant(f, g):
    """Res(f, g) for integer polynomials, highest coefficient first, as the
    determinant of their Sylvester matrix."""
    df, dg = len(f) - 1, len(g) - 1
    rows = [[0] * i + f + [0] * (dg - 1 - i) for i in range(dg)]
    rows += [[0] * i + g + [0] * (df - 1 - i) for i in range(df)]
    return _determinant(rows)


def _resultant_phi(m, n, x, y):
    """Res_Z(Phi_n(Z, y), Phi_m(x, Z)) from the stored tables.  Phi_n(Z, y)
    is monic in Z with roots the j of T_n * tau_y, so this is the product
    of Phi_m(x, beta) over them: Phi_mn(x, y) for coprime m and n, and
    Phi_l^2(x, y) * (x - y)^(l + 1) for m = n = l."""
    rows_n, rows_m = modpoly.coefficients(n), modpoly.coefficients(m)
    f = [sum(c * y**b for b, c in enumerate(row)) for row in reversed(rows_n)]
    g = [sum(row[b] * x**a for a, row in enumerate(rows_m)) for b in reversed(range(m + 2))]
    return _resultant(f, g)


_RESULTANT_ROWS = ((1, 2), (-40, 7), (2417, -37), (1728, 287496))


@pytest.mark.parametrize("n, m, k", [(4, 2, 2), (6, 2, 3), (9, 3, 3), (10, 2, 5), (15, 3, 5)])
def test_phi_value_equals_resultants_of_the_stored_tables(n, m, k):
    # an oracle that shares no code with phi_value at an N with no table
    rows = _RESULTANT_ROWS + (((4913, 16974593),) if n == 4 else ())
    for y, z in rows:
        want = _resultant_phi(m, k, z, y)
        if m == k:
            want, rest = divmod(want, (z - y) ** (m + 1))
            assert rest == 0, (n, y, z)
        assert phi_value(y, z, n) == want, (n, y, z)


def test_phi_value_vanishes_at_the_isogenies_of_i_and_is_z_minus_y_at_n_1():
    # the curve of 2i is 2-isogenous to the curve of i; composed with the
    # endomorphisms 1 + i and 2 + i of the latter, that isogeny gives cyclic
    # ones of degree 4 and 10
    assert phi_value(1728, 287496, 4) == phi_value(1728, 287496, 10) == 0
    for y, z in _RESULTANT_ROWS:
        assert phi_value(y, z, 1) == z - y


_PANEL = ((1, 2), (2417, -37), (287496, 100), (1729, -1))


def test_phi_value_at_a_stored_prime_is_kronecker_congruent_and_reads_no_j(monkeypatch):
    # Phi_l(z, y) = (y^l - z)(y - z^l) (mod l), from the stored table alone
    inversions = _counting(monkeypatch, modpoly, "tau_from_j")
    j_values = _counting(monkeypatch, hecke, "eval_j")
    for ell in modpoly.PRIMES:
        for y, z in _PANEL:
            want = (y**ell - z) * (y - z**ell) % ell
            assert phi_value(y, z, ell) % ell == want, (ell, y, z)
    assert (len(inversions), len(j_values)) == (0, 0)


_PHI_12 = int(
    "220957517147931515567640209400343548676782152741127013258387355469952593"
    "422155672487280078226160996233019664152142427400462939995794019554636408"
    "94054632792640025742778238863970656979548369"
)


def test_phi_value_inverts_at_64_bits_then_at_the_bound_plus_128(monkeypatch):
    # N = 4 and 12 have no stored polynomial.  The orbit reduced at 64 bits
    # bounds log2 prod (1 + |j_i|) over T_4 * tau_4913 by 134.14 and over
    # T_12 * tau_1 by 635.69, from the Im of its points, so the orbit
    # polynomial is built once, at 135 + 128 and 636 + 128 bits, whatever z is
    exact = _resultant_phi(2, 2, 16974593, 4913) // (16974593 - 4913) ** 3
    inversions = _counting(monkeypatch, modpoly, "tau_from_j")
    assert phi_value(4913, 16974593, 4) == exact
    assert [args[1].bits for args in inversions] == [64, 263]
    inversions.clear()
    assert phi_value(1, 2, 12) == _PHI_12
    assert [args[1].bits for args in inversions] == [64, 764]


def test_phi_n_builds_no_float64_screen(monkeypatch):
    # the orbit polynomial reads the exactly reduced orbit alone: with the
    # float64 screen refused, Phi_N(X, y) and the generator still give
    # their integers
    def refused(*args):
        raise AssertionError("the float64 screen was built")

    monkeypatch.setattr(hecke.OrbitScreen, "of", refused)
    modpoly._orbit_polynomial.cache_clear()
    exact = _resultant_phi(2, 2, 16974593, 4913) // (16974593 - 4913) ** 3
    assert phi_value(4913, 16974593, 4) == exact
    assert phi_value(1, 2, 12) == _PHI_12
    assert modpoly.generate(2) == [list(row) for row in modpoly.coefficients(2)]


def test_phi_value_raises_on_a_coefficient_off_an_integer(monkeypatch):
    # Phi_4(5, 0) is exact; with the base point of the bounded orbit moved
    # from j = 0 to j = 2^-20, the constant coefficient of prod (X - j_i) is
    # no integer
    assert phi_value(0, 5, 4) == _resultant_phi(2, 2, 5, 0) // 5**3
    inverted = modpoly.tau_from_j

    def moved(y, prec):
        return inverted(y + mp.mpf(2) ** -20 if prec.bits > 64 else y, prec)

    monkeypatch.setattr(modpoly, "tau_from_j", moved)
    modpoly._orbit_polynomial.cache_clear()  # the exact polynomial is kept
    with pytest.raises(ArithmeticError, match=r"coefficient 0 of Phi_4\(X, 0\) .* not an integer"):
        phi_value(0, 5, 4)


def test_cusp_height_frozen():
    h = cusp_height(tau_from_j(1, PREC), 2, PREC)
    assert h.n == 2
    assert h.e_n == 3
    assert h.value == pytest.approx(-43.39686924828896, rel=1e-9)
    assert h.normalized == pytest.approx(h.value / (6 * 3 * math.log(2)), rel=1e-12)
    assert h.normalized == pytest.approx(-3.47824711414518, rel=1e-9)


_ORACLE_NS = (4, 6, 8, 9, 12, 25, 30, 36)


def _oracle_bases():
    # the CM bases j = 0 and j = 1728, and a point off integral j
    return [tau_from_j(0, PREC), tau_from_j(1728, PREC), UpperHalfPoint(0.3, 1.7)]


def _orbit_norm_sum(tau, n):
    """sum of log ||Delta|| over the orbit, point by point."""
    with mp.workprec(PREC.bits + 32):
        return mp.fsum(
            log_petersson_norm_delta(p.tau, PREC) for p in HeckeOrbit(tau, n, PREC).points
        )


def test_cusp_height_matches_the_orbit_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # j(0.3+1.7i) is not near an integer
        for tau in _oracle_bases():
            for n in _ORACLE_NS:
                h = cusp_height(tau, n, PREC)
                assert h.e_n == len(HeckeOrbit(tau, n, PREC).points)
                assert h.value == pytest.approx(float(-_orbit_norm_sum(tau, n)), rel=1e-12)


def test_local_arch_sum_matches_the_orbit_sum():
    for tau in _oracle_bases():
        for n in (1,) + _ORACLE_NS:
            orbit = hecke_orbit(tau, n, PREC)
            norm_sum = _orbit_norm_sum(tau, n)
            for z in (2, 5 - 3j):
                with mp.workprec(PREC.bits + 32):
                    dist = mp.fsum(mp.log(abs(mp.mpc(z) - p.j)) for p in orbit.points)
                    expected = float(dist + norm_sum)
                assert local_arch_sum(tau, z, n, PREC) == pytest.approx(expected, rel=1e-12)


def test_cusp_height_warns_off_integral_j():
    # at 0.3 + 120i, |j| is about 2.8e327, past the float64 range
    for im in (1.7, 100, 120):
        with pytest.warns(UserWarning, match="not near an integer"):
            cusp_height(UpperHalfPoint(0.3, im), 2, PREC)
    # j = 5 + 10^-9 is within 10^-6 of 5 but not within the resolution, and
    # the message shows Re j at the run's digits and the drift from 5
    prec = Precision(128)
    drift = (
        r"of Re 5\.000000001\d{28}, lies \|j - y\| = 1\.0000001e-9 from y = 5, "
        r"above the resolution 1\.4693679e-38: not near an integer"
    )
    with pytest.warns(UserWarning, match=drift):
        cusp_height(tau_from_j(5 + 1e-9, prec), 2, prec)


def test_a_local_sum_series_reads_the_base_j_once(monkeypatch):
    # the integral-j rule reads j(tau_y) for the first N and keeps it
    tau = tau_from_j(1, PREC)
    j_values = _counting(monkeypatch, heights, "eval_j")
    for n in range(2, 9):
        assert math.isfinite(local_arch_sum(tau, 2, n, PREC))
    assert len(j_values) == 1


def test_cusp_height_quiet_at_integral_j():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cusp_height(tau_from_j(1, PREC), 2, PREC)
        cusp_height(UpperHalfPoint(0, 2), 2, PREC)  # j = 287496
        cusp_height(UpperHalfPoint(0, 120), 2, PREC)  # a real j past float64


def test_decomposition_identity():
    # log|phi| - S_N equals the height sum, so the normalized residual is
    # exactly (normalized height) - 1
    tau = tau_from_j(1, PREC)
    for n in (2, 3, 5):
        r = global_identity_residual(1, 2, n, PREC)
        h = cusp_height(tau, n, PREC)
        assert abs(r - (h.normalized - 1)) < 1e-8, n


def _residual_from_parts(y, z, n, prec):
    """The residual from separate phi_value and local_arch_sum calls: the
    orbit-sum oracle."""
    phi = phi_value(y, z, n)
    with mp.workprec(prec.bits + 32):
        s_n = local_arch_sum(tau_from_j(y, prec), z, n, prec)
        return float((mp.log(abs(phi)) - s_n) / (6 * e_n(n) * mp.log(n)) - 1)


def _closed_form_400(y, n):
    """-sum log ||Delta|| / (6 e_N log N) - 1 with tau_y and the sum at 400
    bits, as an mpf."""
    ref = Precision(400)
    with mp.workprec(440):
        height = -heights._log_norm_orbit_sum(tau_from_j(y, ref), n, ref)
        return height / (6 * e_n(n) * mp.log(n)) - 1


_RESIDUAL_ROWS = ((1, 2, 5), (-40, 7, 6), (1, 2, 8), (-350, -28, 53), (2000, -5, 5))


def test_residual_agrees_with_phi_and_the_orbit_sum():
    # log|phi| - S_N from the Phi product and the point-by-point log sum;
    # S_N is rounded to float64 before the subtraction, so allow 1e-13
    for prec in (DEFAULT_PRECISION, Precision(200)):
        for y, z, n in _RESIDUAL_ROWS[:3]:
            want = _residual_from_parts(y, z, n, prec)
            assert global_identity_residual(y, z, n, prec) == pytest.approx(want, rel=1e-13)


def test_residual_is_the_400_bit_closed_form_rounded():
    # rounded once from working precision: within half an ulp of the value
    # at 400 bits (the Phi-product row was up to 1.26 ulp off on these)
    for prec in (Precision(96), DEFAULT_PRECISION):
        for y, z, n in _RESIDUAL_ROWS:
            r = global_identity_residual(y, z, n, prec)
            with mp.workprec(440):
                assert abs(mp.mpf(r) - _closed_form_400(y, n)) <= math.ulp(r) / 2, (y, z, n)


def _counting(monkeypatch, module, name):
    calls = []
    wrapped = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_residual_row_reads_one_tau_and_no_orbit_j(monkeypatch):
    # no Phi product and no local_arch_sum: one inversion, and neither an
    # orbit nor a j-value, as a Frobenius certificate clears every row
    for y, z, n in _RESIDUAL_ROWS:
        inversions = _counting(monkeypatch, heights, "tau_from_j")
        orbits = _counting(monkeypatch, heights, "hecke_orbit")
        j_values = _counting(monkeypatch, hecke, "eval_j")
        built = _counting(monkeypatch, hecke.HeckeOrbit, "__init__")
        assert modpoly.phi_certificate(y, z, n) is not None
        global_identity_residual(y, z, n, DEFAULT_PRECISION)
        assert (len(inversions), len(orbits), len(j_values), len(built)) == (1, 0, 0, 0)
        monkeypatch.undo()


_NOT_INTEGERS = (
    (math.inf, 2), (1, -math.inf), (math.nan, 2), (1, math.nan), (mp.inf, 2), (1, mp.nan)
)


def test_residual_rejects_non_integer_y_and_z():
    # phi is defined at integers only; S_N would read 2.5 or 3.5 as given
    with pytest.raises(ValueError):
        global_identity_residual(2.5, 2, 3, PREC)
    with pytest.raises(ValueError):
        global_identity_residual(1, 3.5, 3, PREC)
    # an infinity or a NaN is named too, not an OverflowError of int()
    for y, z in _NOT_INTEGERS:
        with pytest.raises(ValueError, match="integers"):
            global_identity_residual(y, z, 3, PREC)
    assert global_identity_residual(1.0, 3.0, 3, PREC) == global_identity_residual(
        1, 3, 3, PREC
    )


def test_phi_value_rejects_non_integer_y_and_z():
    for y, z in ((1, 2.9), (1.5, 2), (mp.mpf("1.5"), 2)) + _NOT_INTEGERS:
        with pytest.raises(ValueError, match="integers"):
            phi_value(y, z, 3)
    assert phi_value(1.0, 3.0, 3) == phi_value(1, 3, 3)


def test_local_arch_sum_coincidence_guard():
    tau = UpperHalfPoint(0, 2)
    with pytest.raises(CoincidenceError):
        local_arch_sum(tau, 287496, 1, PREC)
    # away from the orbit the sum is finite
    val = local_arch_sum(tau, 287496, 2, PREC)
    assert math.isfinite(val)


def test_residual_coincidence_guard(monkeypatch):
    # CM bases whose T_2-orbit holds integers: -3375 (D = -7) maps to itself
    # twice and to 16581375 (D = -28); 8000 (D = -8) maps to itself; and
    # T_4 * tau_{-3375} holds both again
    for y, z in ((-3375, -3375), (-3375, 16581375), (8000, 8000)):
        with pytest.raises(CoincidenceError, match="= 0: z lies on the orbit"):
            global_identity_residual(y, z, 2, DEFAULT_PRECISION)
    for z in (-3375, 16581375):
        with pytest.raises(CoincidenceError, match="= 0: z lies on the orbit"):
            global_identity_residual(-3375, z, 4, DEFAULT_PRECISION)
    # one off the orbit the row is finite
    assert global_identity_residual(-3375, -3376, 2, DEFAULT_PRECISION) == -4.376170109444552
    # the test reads integers only, so a base point good to about 100 bits
    # raises as the exact i does
    with mp.workprec(DEFAULT_PRECISION.bits + 32):
        near_i = UpperHalfPoint(0, 1 + mp.mpf(2) ** -100)
    monkeypatch.setattr(heights, "tau_from_j", lambda y, prec: near_i)
    for n in (2, 4, 10):
        with pytest.raises(CoincidenceError, match=f"phi_{n}\\(1728, 287496\\) = 0"):
            global_identity_residual(1728, 287496, n, DEFAULT_PRECISION)


@pytest.mark.parametrize(
    "y, z, n",
    [(1600, -2194880, 5), (576, -39091613782464, 13), (2101248, 2045023375454208, 13),
     (1728, 287496, 2)],
)
def test_residual_raises_on_a_rational_isogeny_at_64_bits(y, z, n):
    # Phi_N(z, y) = 0 exactly; at 64 bits the error of tau_y kept the orbit
    # point of j = z above the resolution, and the row returned a value
    assert modpoly.evaluate(n, z, y) == 0
    with pytest.raises(CoincidenceError, match=f"phi_{n}\\({y}, {z}\\) = 0"):
        global_identity_residual(y, z, n, Precision(64))


@pytest.mark.parametrize("bits", [64, 128])
def test_the_orbit_of_i_meets_its_integers(bits):
    # T_N * i holds 2i (j = 287496) at N = 2, 4 and 10: Phi_N(287496, 1728)
    # is 0, and from the exact base point i the orbit points lie within
    # resolution
    prec = Precision(bits)
    for n in (2, 4, 10):
        with pytest.raises(CoincidenceError, match="= 0: z lies on the orbit"):
            global_identity_residual(1728, 287496, n, prec)
        with pytest.raises(CoincidenceError, match="below resolution"):
            local_arch_sum(tau_from_j(1728, prec), 287496, n, prec)


def test_height_command_reads_the_base_j_once(monkeypatch, capsys):
    # the integral-j check reads j(tau_y) for the first N and keeps it
    heights._integral_j.cache_clear()
    j_values = _counting(monkeypatch, heights, "eval_j")
    assert cli.main(["height", "1", "2..40"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 40
    assert len(j_values) == 1


def test_heuristic_integral_determinism():
    a = heuristic_integral(12345, 40, PREC, seed=7)
    b = heuristic_integral(12345, 40, PREC, seed=7)
    assert a == b
    c = heuristic_integral(12345, 40, PREC, seed=8)
    assert c.value != a.value
    assert a.samples == 40
    assert a.rejected == 0
    assert a.std_error > 0
    # two independent estimates agree within combined error bars
    spread = abs(a.value - c.value)
    assert spread < 8 * (a.std_error + c.std_error)
    with pytest.raises(ValueError):
        heuristic_integral(12345, 1, PREC)


def test_heuristic_integral_counts_its_rejected_samples_and_ends_its_budget(monkeypatch):
    # j patched to z at the first three samples: they are rejected and
    # counted, and ten more are drawn; j = z at every sample exhausts the
    # budget of 1000 draws per sample
    calls = []

    def j_at_z_first(tau, prec):
        calls.append(tau)
        return mpf(12345) if len(calls) <= 3 else eval_j(tau, prec)

    monkeypatch.setattr(heights, "eval_j", j_at_z_first)
    got = heuristic_integral(12345, 10, PREC, seed=7)
    assert (got.samples, got.rejected, len(calls)) == (10, 3, 13)
    monkeypatch.setattr(heights, "eval_j", lambda tau, prec: mpf(12345))
    monkeypatch.setattr(heights, "_attach_pass", lambda tau, prec: None)
    with pytest.raises(CoincidenceError, match="^rejection loop exhausted its budget$"):
        heuristic_integral(12345, 2, PREC)


def test_a_z_that_is_not_finite_is_refused_before_any_orbit_or_sample(monkeypatch):
    tau = tau_from_j(1, PREC)

    def refused(*args):
        raise AssertionError("no orbit or sample for a z that is not finite")

    monkeypatch.setattr(heights, "hecke_orbit", refused)
    monkeypatch.setattr(heights, "_attach_pass", refused)
    for z in (mp.inf, -mp.inf, mp.nan, mp.mpc(1, mp.inf), complex(math.inf, 0), math.nan):
        message = f"^z must be finite, got {re.escape(str(z))}$"
        with pytest.raises(ValueError, match=message):
            local_arch_sum(tau, z, 2, PREC)
        with pytest.raises(ValueError, match=message):
            heuristic_integral(z, 10, PREC)


def _two_pass_integral(z, samples: int, prec: Precision, seed: int):
    """heuristic_integral with a kernel pass for j and another for
    log ||Delta|| at each sample, over the same seeded draws: the oracle of
    its one pass per sample."""
    rng = random.Random(seed)
    with mp.workprec(prec.wp):
        zc = mp.mpc(z)
        values, rejected = [], 0
        while len(values) < samples:
            x = rng.uniform(-0.5, 0.5)
            im = heights._MIN_IM / (1.0 - rng.random())
            if x * x + im * im < 1.0:
                continue
            tau = UpperHalfPoint(x, im)
            dist = abs(zc - eval_j(tau, prec))
            if dist < prec.resolution(zc):
                rejected += 1
                continue
            values.append(float(mp.log(dist) + log_petersson_norm_delta(tau, prec)))
    mean = pairwise_sum(values) / samples
    var = pairwise_sum([(v - mean) ** 2 for v in values]) / (samples - 1)
    return heights.IntegralEstimate(mean, math.sqrt(var / samples), samples, rejected, seed)


@pytest.mark.parametrize("bits", [64, 128])
def test_heuristic_integral_makes_one_kernel_pass_per_sample(monkeypatch, bits):
    prec = Precision(bits)
    for z, seed in ((12345, 7), (0, 3), (1728 - 5j, 11)):
        passes = _counting(monkeypatch, numerics, "_nome")
        got = heuristic_integral(z, 40, prec, seed=seed)
        assert len(passes) == got.samples + got.rejected
        monkeypatch.undo()
        assert got == _two_pass_integral(z, 40, prec, seed), (z, seed)


def test_heuristic_integral_forms_no_e6(monkeypatch):
    # its samples read j and log ||Delta|| off the pass; E6 is formed only
    # where it is read (eval_e6, tau_from_j), so a raising _e6 goes unseen
    want = heuristic_integral(12345, 40, PREC, seed=7)

    def refused(series):
        raise AssertionError("heuristic_integral formed E6")

    monkeypatch.setattr(numerics, "_e6", refused)
    assert heuristic_integral(12345, 40, PREC, seed=7) == want


# (y, z, N, bits): Phi_N(z, y) = 0, and the orbit point of j = z moves
# faster than j(tau_y) itself, so a base point whose j is within the
# resolution of y can keep that orbit point above the resolution, and the
# orbit sum alone would return a finite S_N; the chord steps that inverted
# j before Newton's left such a base point at these bits
_ISOGENY_BITS = (
    [(1600, -2194880, 5, b) for b in (92, 93, 94, 138, 139, 183, 184, 185)]
    + [(576, -39091613782464, 13, b) for b in (96, 97, 145, 146, 194, 195)]
    + [(2101248, 2045023375454208, 13, b) for b in (97, 98, 152, 153)]
)


@pytest.mark.parametrize("y, z, n, bits", _ISOGENY_BITS)
def test_local_arch_sum_raises_on_a_rational_isogeny(y, z, n, bits):
    # the base point has j = y + (1 - 2^-8) 2^-bits |y|, at the edge of the
    # integral-j test, inverted 32 bits finer; the exact test's message
    # shows that every orbit point stayed above the resolution
    assert modpoly.evaluate(n, z, y) == 0
    prec = Precision(bits)
    with mp.workprec(bits + 64):
        edge = y + (1 - mpf(2) ** -8) * mpf(2) ** -bits * abs(y)
    with pytest.raises(CoincidenceError, match=f"phi_{n}\\({y}, {z}\\) = 0"):
        local_arch_sum(tau_from_j(edge, Precision(bits + 32)), z, n, prec)


def test_local_arch_sum_stays_finite_off_the_orbit():
    # Phi_3(54000, 0) != 0: the stored polynomial clears z, and the sum is
    # the orbit sum
    assert modpoly.evaluate(3, 54000, 0) != 0
    tau = tau_from_j(0, PREC)
    assert math.isfinite(local_arch_sum(tau, 54000, 3, PREC))


def test_local_arch_sum_runs_the_orbit_test_at_composite_n():
    # at 128 bits, from a base point good to about 100 bits, |z - j| at 2i
    # in T_N * i stays above the floor at N = 2, 4 and 10, and the exact
    # test of global_identity_residual decides: Phi_N(287496, 1728) = 0.
    # Phi_6(287496, 1728) != 0, and the rows at N = 6 are finite
    with mp.workprec(DEFAULT_PRECISION.bits + 32):
        near_i = UpperHalfPoint(0, 1 + mp.mpf(2) ** -100)
    for n in (2, 4, 10):
        with pytest.raises(CoincidenceError, match=f"phi_{n}\\(1728, 287496\\) = 0"):
            local_arch_sum(near_i, 287496, n, DEFAULT_PRECISION)
    assert modpoly.evaluate(6, 287496, 1728) != 0
    assert math.isfinite(local_arch_sum(near_i, 287496, 6, DEFAULT_PRECISION))
    assert global_identity_residual(1728, 287496, 6, DEFAULT_PRECISION) == -2.0273201726654473


def test_series_invert_y_and_read_the_log_norm_once(monkeypatch, capsys):
    # a residual series inverts y once and reads log ||Delta|| once; a
    # height series reads the log norm once
    for argv, inverted in ((["residual", "1", "2", "2..40"], 1), (["height", "1", "2..40"], 0)):
        heights._base_point.cache_clear()
        heights._integral_j.cache_clear()
        heights._log_norm.cache_clear()
        inversions = _counting(monkeypatch, heights, "tau_from_j")
        norms = _counting(monkeypatch, heights, "log_petersson_norm_delta")
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 40
        assert (len(inversions), len(norms)) == (inverted, 1), argv
        monkeypatch.undo()


def test_a_height_and_a_residual_op_each_make_three_kernel_passes(monkeypatch, capsys):
    # the three passes of tau_from_j: j and log ||Delta|| at tau_y read the
    # pass its loop accepted there, and the certificate clears the residual
    passes = _counting(monkeypatch, numerics, "_nome")  # one per kernel pass
    for argv, lines in ((["height", "5", "47,34"], 3), (["residual", "-40", "7", "24"], 2)):
        passes.clear()
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == lines
        assert len(passes) == 3, argv


def test_the_coset_sum_takes_one_weight_per_prime_of_n():
    # prod over the cosets of (alpha / delta) = prod p^(c_p), exactly
    for n in range(1, 2001):
        weights = heights._coset_weights(n)
        assert [p for p, _ in weights] == prime_divisors(n), n
        cosets = math.prod(Fraction(a, d) ** count for a, d, count in triple_counts(n))
        assert cosets == math.prod(Fraction(p) ** c for p, c in weights), n


def test_series_print_the_same_rows_with_the_base_point_kept(capsys):
    # the kept tau_y and log norm give each row what a fresh call gives
    for argv in (["residual", "-40", "7", "2..12"], ["height", "2417", "2..12"]):
        assert cli.main(argv) == 0
        kept = capsys.readouterr().out.splitlines()
        fresh = []
        for n in range(2, 13):
            heights._base_point.cache_clear()
            heights._integral_j.cache_clear()
            heights._log_norm.cache_clear()
            assert cli.main(argv[:-1] + [str(n)]) == 0
            fresh.append(capsys.readouterr().out.splitlines()[1])
        assert kept[1:] == fresh, argv


def test_cm_j_invariants_are_the_j_of_the_class_number_one_orders():
    # an integer j has CM exactly when it is j(tau_D) for an order of class
    # number one: D with one reduced form, tau_D = (-b + sqrt(D)) / 2a
    found = set()
    for d in range(-3, -1000, -1):
        forms = lattices.reduced_primitive_forms(d) if d % 4 in (0, 1) else []
        if len(forms) != 1:
            continue
        ((a, b, _),) = forms
        with mp.workprec(DEFAULT_PRECISION.bits + 32):
            tau = UpperHalfPoint(mp.mpf(-b) / (2 * a), mp.sqrt(-d) / (2 * a))
            j = eval_j(tau, DEFAULT_PRECISION)
            nearest = int(mp.nint(j.real))
            assert abs(j - nearest) < 1e-20, d
        found.add(nearest)
    assert found == modpoly.CM_J_INVARIANTS


def test_the_diagonal_rule_agrees_with_the_stored_tables(monkeypatch):
    # Phi_l(y, y) != 0 at non-CM y, which _check_coincidence decides with
    # no certificate and no value; a CM y can meet itself
    for ell in modpoly.PRIMES:
        for y in (1, 2, -40, 2417, 1729, -1):
            assert modpoly.evaluate(ell, y, y) != 0, (ell, y)
    assert modpoly.evaluate(2, 8000, 8000) == 0
    certificates = _counting(monkeypatch, modpoly, "phi_certificate")
    values = _counting(monkeypatch, modpoly, "evaluate")
    for n in (2, 6, 31, 53):
        heights._check_coincidence(-40, -40, n)
    assert (certificates, values) == ([], [])
    with pytest.raises(CoincidenceError, match=r"phi_2\(8000, 8000\) = 0"):
        heights._check_coincidence(8000, 8000, 2)


def test_a_z_sweep_builds_one_orbit_polynomial(monkeypatch):
    # the last Phi_6(X, y) is kept, so 41 values of z build one orbit
    orbits = _counting(monkeypatch, modpoly, "hecke_orbit")
    for z in range(-20, 21):
        assert phi_value(-40, z, 6) == _resultant_phi(2, 3, z, -40), z
    assert len(orbits) == 1
