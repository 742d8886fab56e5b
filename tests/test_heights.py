import math
import warnings

import pytest
from mpmath import mp

from heckelab import cli, hecke, heights, modpoly
from heckelab.hecke import HeckeOrbit, e_n, hecke_orbit
from heckelab.heights import (
    CoincidenceError,
    PrecisionInsufficientError,
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
    assert phi_value(1, 2, 2, PREC) == -157437675254317
    assert phi_value(1, 2, 3, PREC) == 5564738242019498631577


def test_phi_symmetry():
    assert phi_value(2, 1, 2, PREC) == phi_value(1, 2, 2, PREC)
    assert phi_value(-7, 11, 2, PREC) == phi_value(11, -7, 2, PREC)


def test_phi_order_two_matches_classical_polynomial():
    # prod over the orbit of (z - j) is the classical polynomial in z with
    # the base j substituted, up to the sign fixed by the monic X-degree;
    # the bases y lie on all three arcs of real j: the imaginary axis
    # (y > 1728), the unit arc (0 < y < 1728) and Re tau = 1/2 (y < 0)
    for y in (287496, 8000, 1, 1727, -40, -3375):
        for z in (0, 1, -3, 1728):
            assert phi_value(y, z, 2, PREC) == _classical_phi2(z, y), (y, z)
    assert phi_value(287496, 0, 2, PREC) == 12730291119207936


def test_phi_at_cm_base():
    # tau_from_j returns i and rho exactly, so the orbits of 1728 and 0
    # repeat their j-values as Phi_2 does: T_2 * i holds 2i twice and i
    # once, and T_2 * rho holds a point of j = 54000 three times
    for z in (5, -3, 2000, 287496):
        assert phi_value(1728, z, 2, PREC) == _classical_phi2(z, 1728), z
    assert phi_value(0, 5, 2, PREC) == (5 - 54000) ** 3
    assert phi_value(0, 5, 2, PREC) == _classical_phi2(5, 0)


_PANEL = ((1, 2), (2417, -37), (287496, 100), (1729, -1))


def test_phi_value_at_a_stored_prime_is_kronecker_congruent_and_reads_no_j(monkeypatch):
    # Phi_l(z, y) = (y^l - z)(y - z^l) (mod l), from the stored table alone
    inversions = _counting(monkeypatch, heights, "tau_from_j")
    j_values = _counting(monkeypatch, hecke, "eval_j")
    for ell in modpoly.PRIMES:
        for y, z in _PANEL:
            want = (y**ell - z) * (y - z**ell) % ell
            assert phi_value(y, z, ell, PREC) % ell == want, (ell, y, z)
    assert (len(inversions), len(j_values)) == (0, 0)


def test_phi_value_escalates_to_an_integer_and_gives_up_at_its_cap(monkeypatch):
    # N = 4 has no stored polynomial.  The float64 screen bounds
    # log2 |Phi_4(16974593, 4913)| by 171.6, so the orbit product starts at
    # 236 bits.  Without a trusted screen it doubles from 64 bits: 64 and
    # 128 bits do not resolve it, and 256 bits give the integer the
    # generator's exact Phi_4 gives
    exact = sum(
        c * 16974593**a * 4913**b
        for a, row in enumerate(modpoly.generate(4))
        for b, c in enumerate(row)
    )
    attempts = []
    inverted = heights.tau_from_j

    def recorded(y, prec):
        attempts.append(prec.bits)
        return inverted(y, prec)

    monkeypatch.setattr(heights, "tau_from_j", recorded)
    assert phi_value(4913, 16974593, 4, Precision(64)) == exact
    assert attempts == [64, 236]
    attempts.clear()
    monkeypatch.setattr(hecke.OrbitScreen, "log2_product_bound", lambda self, z: math.nan)
    assert phi_value(4913, 16974593, 4, Precision(64)) == exact
    assert attempts == [64, 128, 256]
    monkeypatch.setattr(heights, "_MAX_PHI_BITS", 128)
    with pytest.raises(PrecisionInsufficientError, match="by 128 bits"):
        phi_value(4913, 16974593, 4, Precision(64))


_PHI_12 = int(
    "220957517147931515567640209400343548676782152741127013258387355469952593"
    "422155672487280078226160996233019664152142427400462939995794019554636408"
    "94054632792640025742778238863970656979548369"
)


def test_phi_value_jumps_to_the_bits_the_screen_bounds(monkeypatch):
    # Phi_12(2, 1) has 190 digits: doubling from 128 bits took four
    # inversions and four orbits, up to 1024 bits; the screen's bound of
    # about 622 bits sends the second attempt straight to 687
    inversions = _counting(monkeypatch, heights, "tau_from_j")
    assert phi_value(1, 2, 12, Precision(128)) == _PHI_12
    assert [args[1].bits for args in inversions] == [128, 687]


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
    with pytest.warns(UserWarning, match="not near an integer"):
        cusp_height(UpperHalfPoint(0.3, 1.7), 2, PREC)


def test_cusp_height_quiet_at_integral_j():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cusp_height(tau_from_j(1, PREC), 2, PREC)
        cusp_height(UpperHalfPoint(0, 2), 2, PREC)  # j = 287496


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
    phi = phi_value(y, z, n, prec)
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
    # no Phi product and no local_arch_sum: one inversion, no orbit with its
    # j-values, and no j at all where the screen clears every point
    for y, z, n in _RESIDUAL_ROWS:
        inversions = _counting(monkeypatch, heights, "tau_from_j")
        orbits = _counting(monkeypatch, heights, "hecke_orbit")
        j_values = _counting(monkeypatch, hecke, "eval_j")
        global_identity_residual(y, z, n, DEFAULT_PRECISION)
        assert (len(inversions), len(orbits), len(j_values)) == (1, 0, 0)
        monkeypatch.undo()


def test_residual_rejects_non_integer_y_and_z():
    # phi is defined at integers only; S_N would read 2.5 or 3.5 as given
    with pytest.raises(ValueError):
        global_identity_residual(2.5, 2, 3, PREC)
    with pytest.raises(ValueError):
        global_identity_residual(1, 3.5, 3, PREC)
    assert global_identity_residual(1.0, 3.0, 3, PREC) == global_identity_residual(
        1, 3, 3, PREC
    )


def test_phi_value_rejects_non_integer_y_and_z():
    for y, z in ((1, 2.9), (1.5, 2), (mp.mpf("1.5"), 2)):
        with pytest.raises(ValueError, match="integers"):
            phi_value(y, z, 3, PREC)
    assert phi_value(1.0, 3.0, 3, PREC) == phi_value(1, 3, 3, PREC)


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
        with pytest.raises(CoincidenceError, match="below resolution"):
            global_identity_residual(-3375, z, 4, DEFAULT_PRECISION)
    # one off the orbit the row is finite
    assert global_identity_residual(-3375, -3376, 2, DEFAULT_PRECISION) == -4.376170109444552
    # from a base point good to about 100 bits, |z - j| at 2i in T_4 * i
    # stays above the floor, and the bound on the integer
    # |Phi_4(1728, 287496)| decides
    with mp.workprec(DEFAULT_PRECISION.bits + 32):
        near_i = UpperHalfPoint(0, 1 + mp.mpf(2) ** -100)
    monkeypatch.setattr(heights, "tau_from_j", lambda y, prec: near_i)
    with pytest.raises(CoincidenceError, match="< 1/2"):
        global_identity_residual(1728, 287496, 4, DEFAULT_PRECISION)


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
    # T_N * i holds 2i (j = 287496) at N = 2, 4 and 10: Phi_2(287496, 1728)
    # is 0, and from the exact base point i the orbit points lie within
    # resolution
    prec = Precision(bits)
    with pytest.raises(CoincidenceError, match="= 0: z lies on the orbit"):
        global_identity_residual(1728, 287496, 2, prec)
    for n in (4, 10):
        with pytest.raises(CoincidenceError, match="below resolution"):
            global_identity_residual(1728, 287496, n, prec)
    for n in (2, 10):
        with pytest.raises(CoincidenceError, match="below resolution"):
            local_arch_sum(tau_from_j(1728, prec), 287496, n, prec)


def test_residual_decides_an_untrusted_point_in_the_exact_tier(monkeypatch):
    # the screen marks the coset (1, 1, 4) untrusted, which holds j = -3375
    # in T_4 * tau_y for y = -3375: its j is evaluated, the others cleared
    screen_of = hecke.OrbitScreen.of.__func__

    def second_untrusted(cls, base, cosets):
        screen = screen_of(cls, base, cosets)
        screen.trusted[1] = False
        return screen

    monkeypatch.setattr(hecke.OrbitScreen, "of", classmethod(second_untrusted))
    j_values = _counting(monkeypatch, hecke, "eval_j")
    assert global_identity_residual(-3375, -3376, 4, DEFAULT_PRECISION) == -2.3547517213889426
    assert len(j_values) == 1
    with pytest.raises(CoincidenceError, match="coset CosetTriple.alpha=1, beta=1, delta=4"):
        global_identity_residual(-3375, -3375, 4, DEFAULT_PRECISION)


def test_height_command_reads_the_base_j_once(monkeypatch, capsys):
    # the integral-j check reads j(tau_y) for the first N and keeps it
    heights._off_integral_j.cache_clear()
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
