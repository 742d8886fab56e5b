import subprocess
import sys
from importlib import resources

import pytest

from heckelab import modpoly


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
