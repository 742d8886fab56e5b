import ast
import hashlib
import importlib
import inspect
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest
from mpmath import mp, mpf

import heckelab
from heckelab import arith, modpoly
from heckelab.arith import primes_up_to
from heckelab.hecke import hecke_orbit
from heckelab.numerics import (
    Precision,
    UpperHalfPoint,
    eval_j,
    reduce_to_fundamental_domain,
    tau_from_j,
)
from heckelab.scan import _half_sweep


def _mul(a, b, m):
    """a * b mod q^m, for power series as coefficient lists."""
    out = [0] * m
    for i, x in enumerate(a[:m]):
        if x:
            for k, y in enumerate(b[: m - i]):
                out[i + k] += x * y
    return out


def _q_times_j(m):
    """q * j(q) mod q^m in integers: E4^3 / prod (1 - q^n)^24."""
    e4 = [1] + [240 * sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(1, m)]
    euler = [1] + [0] * (m - 1)
    for n in range(1, m):
        euler = [c - (euler[k - n] if k >= n else 0) for k, c in enumerate(euler)]
    e2 = _mul(euler, euler, m)
    e8 = _mul(_mul(e2, e2, m), _mul(e2, e2, m), m)
    e24 = _mul(_mul(e8, e8, m), e8, m)
    inverse = [1] + [0] * (m - 1)
    for k in range(1, m):
        inverse[k] = -sum(e24[i] * inverse[k - i] for i in range(1, k + 1))
    return _mul(_mul(_mul(e4, e4, m), e4, m), inverse, m)


def _at_cusp(rows, ell):
    """q^((ell+1)^2) * Phi(j(q^ell), j(q)) mod q^((ell+1)^2 + 1), from the
    power series X' = q^ell j(q^ell) and Y' = q j(q)."""
    m = (ell + 1) ** 2 + 1
    y1 = _q_times_j(m)
    x1 = [0] * m
    x1[:: ell] = y1[: len(x1[:: ell])]  # q -> q^ell
    y_pow, x_pow = [[1] + [0] * (m - 1)], [[1] + [0] * (m - 1)]
    for _ in range(ell + 1):
        y_pow.append(_mul(y_pow[-1], y1, m))
        x_pow.append(_mul(x_pow[-1], x1, m))
    total = [0] * m
    for a, row in enumerate(rows):
        # sum_b c_ab q^(ell + 1 - b) Y'^b, then times q^(ell (ell + 1 - a)) X'^a
        inner = [0] * m
        for b, c in enumerate(row):
            for k, v in enumerate(y_pow[b][: m - (ell + 1 - b)]):
                inner[k + ell + 1 - b] += c * v
        shift = ell * (ell + 1 - a)
        for k, v in enumerate(_mul(x_pow[a], inner, m - shift)):
            total[k + shift] += v
    return total


@pytest.mark.parametrize("ell", [p for p in modpoly.PRIMES if p <= 11])
def test_stored_phi_vanishes_on_the_q_expansions(ell):
    # Phi(j(l tau), j(tau)) is a modular function for Gamma_0(l), holomorphic
    # on H.  O(q) at the cusp infinity, and by the symmetry of Phi and the
    # Fricke involution tau -> -1/(l tau) also at the cusp 0, it vanishes
    # identically; monic of degree l + 1 in X, Phi(X, j) is then
    # prod (X - j(tau_i)) over T_l * tau
    rows = modpoly.coefficients(ell)
    assert len(rows) == ell + 2
    assert rows[ell + 1] == (1,) + (0,) * (ell + 1)
    assert all(rows[a][b] == rows[b][a] for a in range(ell + 2) for b in range(a))
    assert _at_cusp(rows, ell) == [0] * ((ell + 1) ** 2 + 1)
    # a wrong constant term shows in the last coefficient
    moved = [list(r) for r in rows]
    moved[0][0] += 1
    assert _at_cusp(moved, ell)[-1] == 1


def test_stored_phi_is_kroneckers_polynomial_mod_ell():
    # Phi_l = (X^l - Y)(X - Y^l) = X^(l+1) - X^l Y^l - X Y + Y^(l+1) (mod l)
    for ell in modpoly.PRIMES:
        rows = modpoly.coefficients(ell)
        want = {(ell + 1, 0): 1, (0, ell + 1): 1, (ell, ell): -1, (1, 1): -1}
        for a, row in enumerate(rows):
            for b, c in enumerate(row):
                assert (c - want.get((a, b), 0)) % ell == 0, (ell, a, b)


# e^(-pi sqrt 3) = 0.00433342050998..., rounded up at 10^-12
_Q_MAX = Fraction(4333420510, 10**12)


def test_j_exceeds_1_over_q_by_under_2079_on_the_fundamental_domain():
    # j = 1/q + 744 + sum c(n) q^n with every c(n) >= 0, and |q| <= e^(-pi
    # sqrt 3) on the closed fundamental domain, so |j| <= 1/|q| + 744 +
    # sum c(n) e^(-pi sqrt 3 n).  To n = 60 the sum is exact in rationals at
    # _Q_MAX.  Past 60, c(n) <= e^(4 pi sqrt n) (Brisebarre and Philibert,
    # 2005: c(n) is e^(4 pi sqrt n) / (sqrt 2 n^(3/4)) times 1 + O(1/sqrt n))
    # and 4 pi sqrt n <= 4 pi n / sqrt 61, so the tail is at most
    # sum_(n > 60) e^(-k n) with k = pi sqrt 3 - 4 pi / sqrt 61 = 3.83
    with mp.workprec(200):
        assert mp.exp(-mp.pi * mp.sqrt(3)) < mpf(_Q_MAX.numerator) / _Q_MAX.denominator
        k = mp.pi * mp.sqrt(3) - 4 * mp.pi / mp.sqrt(61)
        assert mp.exp(-61 * k) / (1 - mp.exp(-k)) < mpf(10) ** -100
    c = _q_times_j(62)[1:]  # c[n] is the coefficient of q^n, c[0] = 744
    assert c[:3] == [744, 196884, 21493760]
    assert all(0 < c[n] <= mp.exp(4 * mp.pi * mp.sqrt(n)) for n in range(1, 61))
    head = sum(c[n] * _Q_MAX**n for n in range(61))
    assert 2078.81 < head < 2078.82
    assert head + Fraction(1, 10**100) < modpoly._J_TAIL


def test_j_lies_under_its_bound_on_a_grid_of_the_closed_domain():
    # i, rho, the corner rho + 1, the three boundary arcs and the interior,
    # and both corners with |tau|^2 = 1 - 2^-(wp - 7), below the arc but
    # within the 2^-(wp - 8) at which the reduction inverts no point
    prec = Precision(64)
    with mp.workprec(prec.wp):
        rho = mp.expjpi(mpf(2) / 3)
        below = 1 - mpf(2) ** -(prec.wp - 6)
        for corner in (rho, rho + 1):
            tau = UpperHalfPoint.from_complex(below * corner)
            assert reduce_to_fundamental_domain(tau, prec)[1].is_identity()
        points = [1j, rho, rho + 1, below * rho, below * (rho + 1)]
        rng = random.Random(41)
        for _ in range(12):
            theta = mp.pi * rng.uniform(1 / 3, 2 / 3)
            im = mp.sqrt(3) / 2 + rng.expovariate(0.5)
            points += [mp.expj(theta), mp.mpc(-0.5, im), mp.mpc(0.5, im)]
            points.append(mp.mpc(rng.uniform(-0.5, 0.5), max(im, 1)))
        for z in points:
            tau = UpperHalfPoint.from_complex(z)
            bound = mp.exp(2 * mp.pi * tau.im) + modpoly._J_TAIL
            assert abs(eval_j(tau, prec)) <= bound, z


# (y, N): the CM points 0, 1728, -3375 and 287496, N up to 35
_BOUND_PANEL = (
    (4913, 4), (1, 12), (2417, 6), (-37, 10), (1728, 9),
    (0, 8), (287496, 35), (-3375, 14), (10**6, 15), (1, 25),
)
# SHA-256 of repr((y, N, coefficients)) over the panel, as the float64
# screen's bound gave them before the exact bound replaced it
_BOUND_PANEL_SHA256 = "7ebe7706824c3aae6e5854cb9c29acd196f2fce4d7446e71c6ab298a950209d4"


def test_orbit_polynomial_is_accepted_at_its_own_bound(monkeypatch):
    # one evaluated orbit per polynomial, whose bits hold its own bound plus
    # the margin, and the bound covers every coefficient
    orbits = []

    def recorded(*args):
        orbits.append(hecke_orbit(*args))
        return orbits[-1]

    monkeypatch.setattr(modpoly, "hecke_orbit", recorded)
    digest = hashlib.sha256()
    for y, n in _BOUND_PANEL:
        modpoly._orbit_polynomial.cache_clear()
        orbits.clear()
        poly = modpoly._orbit_polynomial(y, n)
        assert len(orbits) == 1, (y, n)
        bound = modpoly._log2_product_bound(orbits[0])
        assert orbits[0].prec.bits >= bound + modpoly._MARGIN_BITS, (y, n)
        assert max(abs(c).bit_length() for c in poly) <= bound, (y, n)
        digest.update(repr((y, n, poly)).encode())
    assert digest.hexdigest() == _BOUND_PANEL_SHA256


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_generator_rewrites_the_tables(ell):
    stored = resources.files("heckelab").joinpath("data", f"phi_{ell}.txt").read_text()
    assert modpoly.table_text(modpoly.generate(ell)) == stored


def test_tables_ship_as_package_data_and_load_on_first_use():
    data = resources.files("heckelab").joinpath("data")
    assert sorted(p.name for p in data.iterdir() if p.name.endswith(".txt")) == sorted(
        f"phi_{ell}.txt" for ell in modpoly.PRIMES
    )
    # an audit hook sees every open(): importing the package opens no table,
    # and the first phi_value at N = 5 opens phi_5.txt once
    probe = (
        "import sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda e, a: e == 'open' and opened.append(str(a[0])))\n"
        "import heckelab\n"
        "tables = lambda: [p for p in opened if 'phi_' in p and p.endswith('.txt')]\n"
        "print(len(tables()))\n"
        "heckelab.phi_value(1, 2, 5)\n"
        "heckelab.phi_value(3, 4, 5)\n"
        "print(' '.join(p.rsplit('/', 1)[-1] for p in tables()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(resources.files("heckelab").parent)},
    ).stdout.split("\n")
    assert out[:2] == ["0", "phi_5.txt"]


def test_j_models_have_their_j():
    # every j mod p is the j-invariant 1728 * 4 a^3 / (4 a^3 + 27 b^2) of
    # some curve y^2 = x^3 + a x + b over F_p, and the j-record of j is
    # that of one of them: at each p the half-sweeps of all curves,
    # grouped by j, hold its a_p
    for p in primes_up_to(37)[2:]:
        traces = {}
        for a in range(p):
            for b in range(p):
                disc = (4 * a**3 + 27 * b * b) % p
                if disc:
                    j = 1728 * 4 * a**3 * pow(disc, -1, p) % p
                    traces.setdefault(j, set()).add(_half_sweep(a, b, p))
        assert sorted(traces) == list(range(p)), p
        for j, a_ps in traces.items():
            assert modpoly._j_record(j, p).a_p in a_ps, (j, p)


# (y, z): generic pairs, CM pairs in different fields, and the rational
# isogenies of i to 2i and of the orders of discriminant -7 and -28
_CERTIFIED_PAIRS = ((1, 2), (-40, 7), (2417, -37), (1, 1000001), (8000, 54000), (0, 1))
_ISOGENOUS_PAIRS = ((1728, 287496), (-3375, 16581375))
# (y, y): a non-CM j never meets itself; 1728 and 8000 do, on T_2, by the
# endomorphisms 1 + i and sqrt(-2)
_DIAGONAL_PAIRS = ((-40, -40), (2417, 2417), (8000, 8000), (1728, 1728))


def test_phi_certificate_is_sound_against_the_exact_phi():
    # a certifying prime p does not divide N, and Phi_N(z, y) != 0 mod p;
    # where Phi_N(z, y) = 0 no prime certifies; and vanishes, by its rules,
    # decides every row as the exact value does
    vanish = set()
    for y, z in _CERTIFIED_PAIRS + _ISOGENOUS_PAIRS + _DIAGONAL_PAIRS:
        for n in sorted(set(range(2, 13)) | set(modpoly.PRIMES)):
            value = modpoly.evaluate(n, z, y)
            p = modpoly.phi_certificate(y, z, n)
            if p is not None:
                assert n % p and value % p, (y, z, n, p)
            if value == 0:
                assert p is None, (y, z, n)
                vanish.add((y, z))
            assert modpoly.vanishes(n, z, y) == (value == 0), (y, z, n)
        if (y, z) in _CERTIFIED_PAIRS:
            assert p is not None, (y, z)
    assert vanish == set(_ISOGENOUS_PAIRS) | {(8000, 8000), (1728, 1728)}


def test_phi_certificate_skips_the_primes_dividing_n_and_bad_reduction():
    # (1, 2) first certifies at 5: at N = 5 the walk goes on to 7.  No
    # prime is skipped for bad reduction: j = 5 is 0 mod 5, the j of
    # y^2 = x^3 + 1, supersingular at 5, and j = 1 is ordinary there
    assert modpoly.phi_certificate(1, 2, 3) == 5
    assert modpoly.phi_certificate(1, 2, 5) == 7
    assert modpoly.phi_certificate(1, 5, 3) == 5
    assert modpoly.phi_certificate(7, 7, 2) is None  # the same curve


def test_phi_certificate_rejects_a_degree_below_one():
    # there is no Phi_N for N < 1: nothing is certified, and N = 0 would
    # skip every prime
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^N must be positive, got {n}$"):
            modpoly.phi_certificate(1, 2, n)
    assert modpoly.phi_certificate(1, 2, 1) == 5


def test_phi_certificate_sieves_no_primes_per_call(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(modpoly, "primes_up_to", counted)
    assert modpoly.phi_certificate(1, 2, 5) == 7
    assert modpoly.phi_certificate(7, 7, 2) is None  # walks every prime
    assert calls == []


def test_evaluate_rejects_a_degree_below_one_before_any_inversion(monkeypatch):
    # N is checked before Phi_N(X, y) is built, so no y is inverted
    inversions = []

    def counted(*args):
        inversions.append(args)
        return tau_from_j(*args)

    monkeypatch.setattr(modpoly, "tau_from_j", counted)
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^N must be positive, got {n}$"):
            modpoly.evaluate(n, 5, 2)
    assert inversions == []


def test_only_modpoly_decides_whether_phi_vanishes():
    # the rules, the CM set and the certificate are bound in modpoly alone;
    # heights reaches them through modpoly, not scan, and modpoly reads
    # only scan's public names
    names = [m.name for m in pkgutil.iter_modules(heckelab.__path__) if m.name != "__main__"]
    assert "modpoly" in names and "heights" in names
    owned = ("vanishes", "CM_J_INVARIANTS", "phi_certificate", "_CERTIFICATE_PRIMES")
    for name in names:
        module = importlib.import_module(f"heckelab.{name}")
        for bound in owned:
            assert (bound in vars(module)) == (name == "modpoly"), (name, bound)
    assert not set(owned) & set(vars(heckelab))
    heights = vars(importlib.import_module("heckelab.heights"))
    assert "scan" not in heights
    assert [k for k, v in heights.items() if getattr(v, "__module__", "") == "heckelab.scan"] == []
    tree = ast.parse(inspect.getsource(modpoly))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scan"
        for alias in node.names
        if alias.name.startswith("_")
    ] + [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) == "scan"
        and node.attr.startswith("_")
    ]
    assert private == []


def test_a_cold_certificate_factors_nothing(monkeypatch):
    # the certificate reads a_p alone, and a record factors a_p^2 - 4p only
    # when its classification is read
    factored = []
    factorize = arith.factorize

    def counted(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counted)
    modpoly._j_record.cache_clear()
    assert modpoly.phi_certificate(1, 2, 3) is not None
    assert modpoly.phi_certificate(-40, 7, 24) is not None
    assert factored == []
