"""Independent oracles for every benchmark operation.

Nothing here imports heckelab.  The checks use exact integer and rational
arithmetic where the mathematics allows it and a small float64 q-series
elsewhere, so a wrong answer from the program cannot agree with its own
reference.  Each check raises OracleError on a mismatch; the one known
program defect (phi_value rounding at its default precision) raises the
KnownDefect subclass so that it is counted, listed and told apart from
anything new.
"""

from __future__ import annotations

import cmath
import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
LN10 = math.log(10.0)
_SQRT3_2 = math.sqrt(3.0) / 2.0
# |q| <= exp(-pi sqrt 3) ~ 0.0044 on the fundamental domain, so twelve terms
# leave a tail far below float64 resolution.
_TERMS = 12
# exp(-2 pi y) underflows past y ~ 112; the series terms are then exactly 1.
_Q_NEGLIGIBLE_IM = 110.0
# Tolerance for the float64 q-series against printed multiprecision values.
J_TOL = 1e-9
HEIGHT_TOL = 1e-9


class OracleError(AssertionError):
    """An operation's output disagrees with its independent oracle."""


class KnownDefect(OracleError):
    """A mismatch of the documented kind: phi_value breaking the Kronecker
    congruence at its default 128 bits (ROADMAP, "phi_value returns wrong
    integers at its default precision")."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# -- integers ---------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def psi(n: int) -> int:
    """Dedekind psi: the number of index-N cosets, N prod_{p|N} (1 + 1/p)."""
    out = n
    for p in factorize(n):
        out = out // p * (p + 1)
    return out


def coset_triples(n: int) -> list[tuple[int, int, int]]:
    """(alpha, beta, delta) with alpha delta = N, 0 <= beta < delta and
    gcd(alpha, beta, delta) = 1, in lexicographic order."""
    out = []
    for a in divisors(n):
        d = n // a
        g = math.gcd(a, d)
        out.extend((a, b, d) for b in range(d) if math.gcd(g, b) == 1)
    return out


def coset_log_sum(n: int) -> float:
    """sum over cosets of log(alpha/delta), grouped by alpha: the number of
    beta for a given alpha is delta prod_{p | gcd(alpha, delta)} (1 - 1/p)."""
    total = 0.0
    for a in divisors(n):
        d = n // a
        count = d
        for p in factorize(math.gcd(a, d)):
            count = count // p * (p - 1)
        total += count * math.log(a / d)
    return total


def tate_multiplicities(v: Fraction, n: int) -> dict[Fraction, int]:
    """Valuation orbit of v under the cyclic N-subgroups: value (r/t) v with
    multiplicity t prod_{p | gcd(r, t)} (1 - 1/p), one value per divisor r."""
    out = {}
    for r in divisors(n):
        t = n // r
        mult = t
        for p in factorize(math.gcd(r, t)):
            mult = mult // p * (p - 1)
        out[Fraction(r, t) * v] = mult
    return out


def kronecker_residue(y: int, z: int, p: int) -> int:
    """Phi_p(y, z) mod p by Kronecker's congruence (y^p - z)(y - z^p)."""
    return (pow(y, p, p) - z) * (y - pow(z, p, p)) % p


def split_discriminant(disc: int) -> tuple[int, int]:
    """disc = f^2 d_K with d_K a fundamental discriminant; returns (f, d_K)."""
    f, core = 1, -disc
    for p, e in factorize(-disc).items():
        f *= p ** (e // 2)
        core //= p ** (2 * (e // 2))
    if -core % 4 == 1:
        return f, -core
    return f // 2, -4 * core


def legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def trace_by_sweep(a4: int, a6: int, p: int) -> int:
    """a_p = -sum_x (x^3 + a4 x + a6 | p), a plain Python sweep."""
    squares = bytearray(p)
    for x in range(p):
        squares[x * x % p] = 1
    total = 0
    for x in range(p):
        f = (x * x * x + a4 * x + a6) % p
        if f:
            total += 1 if squares[f] else -1
    return -total


def trace_power(a_p: int, q: int, k: int) -> int:
    prev, cur = 2, a_p
    for _ in range(k - 1):
        prev, cur = cur, a_p * cur - q * prev
    return cur


def primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


# -- theta series for the exact lattice counts ------------------------------


# Every lattice count in the workloads stays below this; the tables are
# built once per process, outside the timed region.
THETA_MAX = 100_000


def divisor_char_sum(n_max: int, chi) -> np.ndarray:
    """out[n] = sum_{d | n} chi(d) for 1 <= n <= n_max (out[0] = 0)."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        c = chi(d)
        if c:
            out[d::d] += c
    return out


@functools.cache
def _theta_table(name: str) -> np.ndarray:
    if name == "two_squares":
        out = 4 * divisor_char_sum(THETA_MAX, lambda d: (0, 1, 0, -1)[d % 4])
    elif name == "hexagonal":
        out = 6 * divisor_char_sum(THETA_MAX, lambda d: (0, 1, -1)[d % 3])
    else:
        out = 8 * divisor_char_sum(THETA_MAX, lambda d: d if d % 4 else 0)
    out[0] = 1
    out.flags.writeable = False
    return out


def theta_sum_of_two_squares(n_max: int) -> np.ndarray:
    """r_2(n) = 4 sum_{d|n} chi_{-4}(d), r_2(0) = 1."""
    return _theta_table("two_squares")[: n_max + 1]


def theta_hexagonal(n_max: int) -> np.ndarray:
    """#{x^2 + xy + y^2 = n} = 6 sum_{d|n} chi_{-3}(d), with 1 at n = 0."""
    return _theta_table("hexagonal")[: n_max + 1]


def theta_sum_of_four_squares(n_max: int) -> np.ndarray:
    """Jacobi: r_4(n) = 8 sum_{d | n, 4 does not divide d} d."""
    return _theta_table("four_squares")[: n_max + 1]


def theta_scaled(theta: np.ndarray, k: int, n_max: int) -> np.ndarray:
    """Counts of k * Q from those of Q."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    idx = np.arange(0, n_max + 1, k)
    out[idx] = theta[idx // k]
    return out


def theta_sum(a: np.ndarray, b: np.ndarray, n_max: int) -> np.ndarray:
    """Counts of the orthogonal sum Q1 + Q2: the convolution of the counts."""
    return np.convolve(a[: n_max + 1], b[: n_max + 1])[: n_max + 1]


def counting_bound(n: int, disc: Fraction) -> float:
    return 1.0 + 8.0 * math.sqrt(n) + 16.0 * n / math.sqrt(disc)


# -- float64 q-series -------------------------------------------------------

_SIGMA3 = [sum(d**3 for d in divisors(n)) for n in range(1, _TERMS + 1)]


def reduce_point(z: complex) -> complex:
    """Move z into |Re| <= 1/2, |z| >= 1 by translations and inversions."""
    for _ in range(100_000):
        z -= round(z.real)
        if abs(z) < 1.0 - 1e-13:
            z = -1.0 / z
        else:
            return z
    raise ArithmeticError(f"float reduction did not terminate at {z}")


def in_fundamental_domain(x: float, y: float, tol: float = 1e-12) -> bool:
    return abs(x) <= 0.5 + tol and x * x + y * y >= 1.0 - tol


def _series(x: float, y: float) -> tuple[complex, complex]:
    """(E4, sum_n log(1 - q^n)) at a reduced point."""
    if y > _Q_NEGLIGIBLE_IM:
        return 1.0 + 0j, 0j
    q = cmath.exp(complex(-TWO_PI * y, TWO_PI * x))
    e4 = 1.0 + 0j
    log_prod = 0j
    qn = 1.0 + 0j
    for s3 in _SIGMA3:
        qn *= q
        e4 += 240 * s3 * qn
        log_prod += cmath.log(1.0 - qn)
    return e4, log_prod


def log_j(x: float, y: float) -> tuple[float, float]:
    """(log|j|, arg j) at a point of the fundamental domain, in log form so
    that Im tau in the hundreds does not overflow:
    log j = 3 log E4 - 2 pi i tau - 24 sum log(1 - q^n)."""
    e4, log_prod = _series(x, y)
    lj = 3.0 * cmath.log(e4) - 24.0 * log_prod
    return lj.real + TWO_PI * y, lj.imag - TWO_PI * x


def j_value(z: complex) -> complex:
    """j at any point of H (moderate Im after reduction)."""
    w = reduce_point(z)
    mag, arg = log_j(w.real, w.imag)
    return cmath.rect(math.exp(mag), arg)


def log_norm_delta(z: complex) -> float:
    """log ||Delta|| = log(|Delta| (Im)^6), SL2(Z)-invariant."""
    w = reduce_point(z)
    _, log_prod = _series(w.real, w.imag)
    return (
        12.0 * math.log(TWO_PI)
        - TWO_PI * w.imag
        + 24.0 * log_prod.real
        + 6.0 * math.log(w.imag)
    )


def _bisect(f, neg_end: float, pos_end: float) -> float:
    for _ in range(200):
        mid = 0.5 * (neg_end + pos_end)
        if mid in (neg_end, pos_end):
            break
        if f(mid) < 0:
            neg_end = mid
        else:
            pos_end = mid
    return 0.5 * (neg_end + pos_end)


def tau_from_j(y: int) -> complex:
    """The point of the fundamental-domain boundary where j is the real y."""
    if y >= 1728:
        def f(t):
            return j_value(complex(0.0, t)).real - y

        hi = 2.0
        while f(hi) < 0:
            hi *= 2
        return complex(0.0, _bisect(f, 1.0, hi))
    if y >= 0:
        def f(th):
            return j_value(cmath.exp(1j * math.pi * th)).real - y

        return cmath.exp(1j * math.pi * _bisect(f, 2.0 / 3.0, 0.5))

    def f(t):
        return j_value(complex(0.5, t)).real - y

    hi = 2.0
    while f(hi) > 0:
        hi *= 2
    return complex(0.5, _bisect(f, hi, _SQRT3_2))


def decimal_log_arg(re_text: str, im_text: str) -> tuple[float, float]:
    """(log|w|, arg w) of w = re + i im given as decimal strings of any
    exponent (j overflows float64 at large Im tau)."""
    with localcontext() as ctx:
        ctx.prec = 50
        re, im = Decimal(re_text), Decimal(im_text)
        e = max(abs(re), abs(im)).adjusted()
        rf, imf = float(re.scaleb(-e)), float(im.scaleb(-e))
    return e * LN10 + math.log(math.hypot(rf, imf)), math.atan2(imf, rf)


def angle_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


# -- per-output checks ------------------------------------------------------


def check_orbit_rows(rows: list[dict], n: int) -> None:
    """Rows of `heckelab orbit tau N`: psi(N) of them, the coset set of N,
    reduced points in the fundamental domain, and j agreeing with the
    float64 q-series in log|j| and arg j."""
    expect(len(rows) == psi(n), f"orbit N={n}: {len(rows)} rows, psi(N) = {psi(n)}")
    got = sorted((int(r["alpha"]), int(r["beta"]), int(r["delta"])) for r in rows)
    expect(got == coset_triples(n), f"orbit N={n}: coset set differs")
    for r in rows:
        x, y = float(r["tau_re"]), float(r["tau_im"])
        expect(in_fundamental_domain(x, y), f"orbit N={n}: {x}+{y}i not reduced")
        check_j(x, y, r["j_re"], r["j_im"], f"orbit N={n}")


def check_j(x: float, y: float, j_re: str, j_im: str, where: str) -> None:
    mag, arg = log_j(x, y)
    if Decimal(j_re) == 0 and Decimal(j_im) == 0:
        # j = 0 at the CM point rho; the q-series there is 0 to float64 noise
        expect(mag < math.log(J_TOL), f"{where}: j printed as 0, q-series gives {mag}")
        return
    got_mag, got_arg = decimal_log_arg(j_re, j_im)
    expect(
        abs(got_mag - mag) <= J_TOL and angle_gap(got_arg, arg) <= J_TOL,
        f"{where}: j at {x}+{y}i is ({got_mag}, {got_arg}) in (log|j|, arg), "
        f"q-series gives ({mag}, {arg})",
    )


def orbit_points(tau: complex, n: int) -> list[complex]:
    """T_N tau reduced in float64, in coset order."""
    return [reduce_point((a * tau + b) / d) for a, b, d in coset_triples(n)]


def check_equi_rows(rows: list[dict], tau: complex, n: int, threshold: float) -> None:
    expect(len(rows) == 1 and int(rows[0]["n"]) == n, f"equi N={n}: wrong rows")
    ims = [w.imag for w in orbit_points(tau, n)]
    # points within 1e-9 of the threshold may fall either way in float64
    lo = sum(1 for v in ims if v >= threshold + 1e-9)
    hi = sum(1 for v in ims if v >= threshold - 1e-9)
    got = Fraction(rows[0]["fraction"]) * len(ims)
    expect(
        abs(got - round(got)) < 1e-6 and lo <= round(got) <= hi,
        f"equi N={n}: fraction {rows[0]['fraction']} is not in [{lo}, {hi}]/{len(ims)}",
    )
    prediction = min(1.0, 3.0 / (math.pi * threshold))
    expect(
        abs(float(rows[0]["prediction"]) - prediction) <= 1e-12,
        f"equi N={n}: prediction {rows[0]['prediction']} != {prediction}",
    )


def check_density_rows(
    rows: list[dict], trailer: dict, tau: complex, d_exp: int, n_max: int
) -> None:
    """best_distance = min |j| over each orbit (target z = 0), relative to
    1e-9; the trailer fraction recounted from the rows."""
    expect([int(r["n"]) for r in rows] == list(range(1, n_max + 1)), "density: rows")
    hits = 0
    for r in rows:
        n = int(r["n"])
        best = min(log_j(w.real, w.imag)[0] for w in orbit_points(tau, n))
        got = float(r["best_distance"])
        expect(
            got > 0 and abs(math.log(got) - best) <= J_TOL,
            f"density N={n}: best_distance {got}, q-series gives {math.exp(best)}",
        )
        hits += got <= n ** (-d_exp)
    expect(
        abs(float(trailer["fraction"]) - hits / n_max) <= 1e-12,
        f"density: fraction {trailer['fraction']} != {hits}/{n_max}",
    )


def cm_expected(m_max: int) -> list[tuple[int, int, int]]:
    """(M, t, disc) of the rows of `heckelab cm M`: each companion matrix
    (0, -M; 1, t) fixes a root of the primitive form x^2 + t xy + M y^2, so
    its j-value is that of the principal class of disc t^2 - 4M, and the
    rows are the first (M, t) for each distinct discriminant."""
    seen, out = set(), []
    for m in range(1, m_max + 1):
        for t in range(math.isqrt(4 * m - 1) + 1):
            disc = t * t - 4 * m
            if disc not in seen:
                seen.add(disc)
                out.append((m, t, disc))
    return out


def check_cm_rows(rows: list[dict], m_max: int) -> None:
    expected = cm_expected(m_max)
    got = [(int(r["m"]), int(r["t"])) for r in rows]
    expect(got == [(m, t) for m, t, _ in expected], f"cm M={m_max}: rows differ")
    for r, (m, t, disc) in zip(rows, expected):
        f, d_k = split_discriminant(disc)
        expect(
            (int(r["conductor"]), int(r["fundamental_disc"])) == (f, d_k),
            f"cm M={m_max}: (f, d_K) of disc {disc}",
        )
        # the principal form reduces to Re tau in {0, +-1/2}, Im = sqrt(-D)/2
        x, y = float(r["tau_re"]), float(r["tau_im"])
        want_x = 0.0 if disc % 4 == 0 else 0.5
        expect(
            abs(abs(x) - want_x) <= 1e-12 and abs(y - math.sqrt(-disc) / 2) <= 1e-12,
            f"cm M={m_max}: tau {x}+{y}i is not the principal point of disc {disc}",
        )
        check_j(x, y, r["j_re"], r["j_im"], f"cm M={m_max} disc {disc}")


def expected_height(tau_y: complex, n: int) -> float:
    """H_N = -sum log||Delta|| over T_N tau_y, through the Hecke product
    identity sum_i log||Delta||(tau_i) = psi(N) log||Delta||(tau_y)
    + 6 sum_cosets log(alpha/delta)."""
    return -(psi(n) * log_norm_delta(tau_y) + 6.0 * coset_log_sum(n))


def check_height_rows(rows: list[dict], tau_y: complex, ns: list[int]) -> None:
    expect([int(r["n"]) for r in rows] == ns, f"height: rows for {ns}")
    for r, n in zip(rows, ns):
        want = expected_height(tau_y, n)
        expect(int(r["e_n"]) == psi(n), f"height N={n}: e_n {r['e_n']}")
        value, normalized = float(r["value"]), float(r["normalized"])
        expect(
            abs(value - want) <= HEIGHT_TOL * max(1.0, abs(want)),
            f"height N={n}: value {value}, identity gives {want}",
        )
        want_norm = want / (6 * psi(n) * math.log(n))
        expect(
            abs(normalized - want_norm) <= HEIGHT_TOL * max(1.0, abs(want_norm)),
            f"height N={n}: normalized {normalized}, identity gives {want_norm}",
        )


def check_residual_rows(rows: list[dict], tau_y: complex, ns: list[int]) -> None:
    """The global-identity residual is exactly normalized height - 1."""
    expect([int(r["n"]) for r in rows] == ns, f"residual: rows for {ns}")
    for r, n in zip(rows, ns):
        want = expected_height(tau_y, n) / (6 * psi(n) * math.log(n)) - 1.0
        expect(int(r["e_n"]) == psi(n), f"residual N={n}: e_n {r['e_n']}")
        expect(
            abs(float(r["residual"]) - want) <= HEIGHT_TOL * max(1.0, abs(want)),
            f"residual N={n}: {r['residual']}, normalized - 1 gives {want}",
        )


def check_phi(value: int, y: int, z: int, p: int) -> None:
    expect(isinstance(value, int), f"phi({y},{z},{p}) is not an int")
    want = kronecker_residue(y, z, p)
    if value % p != want:
        raise KnownDefect(
            f"phi_value({y}, {z}, {p}) = {value % p} mod {p}; Kronecker gives {want}"
        )


def check_tate_rows(rows: list[dict], v: Fraction, n: int) -> None:
    want = sorted(tate_multiplicities(v, n).items())
    got = [(Fraction(r["value"]), int(r["multiplicity"])) for r in rows]
    expect(got == want, f"tate v={v} N={n}: multiplicities differ")


def check_cosets(reps, subgroups, n: int) -> None:
    """Both enumerations hold exactly the triples of N, in order."""
    want = coset_triples(n)
    expect(len(reps) == psi(n), f"coset_reps({n}) has {len(reps)} rows, psi = {psi(n)}")
    expect(len(subgroups) == psi(n), f"cyclic_subgroups({n}) has {len(subgroups)} rows")
    expect(
        [(r.alpha, r.beta, r.delta) for r in reps] == want,
        f"coset_reps({n}): rows differ from the enumeration",
    )
    expect(
        [(s.r, s.s, s.t) for s in subgroups] == want,
        f"cyclic_subgroups({n}): rows differ from the enumeration",
    )


def check_latcount_rows(
    rows: list[dict], trailer: dict | None, n_max: int, exact, disc: Fraction | None
) -> None:
    """Exact theta-series counts when known; otherwise every fiber within
    the rank-2 counting bound.  Rank-2 trailers are recounted."""
    expect([int(r["n"]) for r in rows] == list(range(1, n_max + 1)), "latcount: rows")
    counts = np.array([int(r["fiber_count"]) for r in rows], dtype=np.int64)
    if exact is not None:
        bad = np.nonzero(counts != exact[1 : n_max + 1])[0]
        expect(
            bad.size == 0,
            f"latcount: fiber counts differ from the theta series at n = "
            f"{(bad[:5] + 1).tolist()}",
        )
    if disc is not None:
        ns = np.arange(1, n_max + 1)
        bound = 1.0 + 8.0 * np.sqrt(ns) + 16.0 * ns / math.sqrt(disc)
        expect(bool(np.all(counts <= bound)), "latcount: a fiber exceeds the bound")
        expect(trailer is not None, "latcount: rank-2 trailer missing")
        expect(
            int(trailer["represented"]) == int(np.count_nonzero(counts))
            and Fraction(trailer["disc"]) == disc
            and abs(float(trailer["bound"]) - counting_bound(n_max, disc)) <= 1e-9,
            f"latcount: trailer {trailer} disagrees",
        )


def check_scan_rows(
    rows: list[dict], trailer: dict, pair, p_min: int, p_max: int
) -> None:
    """Hasse bounds, the exact hit set the pair's construction implies, the
    minimal trace-power exponent, and one row recounted by a Python sweep."""
    kind, (a1, b1), (a2, b2), extra = pair
    got = [int(r["p"]) for r in rows]
    for r in rows:
        p, k = int(r["p"]), int(r["k"])
        al, ar = int(r["a_p_left"]), int(r["a_p_right"])
        expect(al * al <= 4 * p and ar * ar <= 4 * p, f"scan p={p}: Hasse bound")
        first = next(
            (i for i in range(1, 13) if trace_power(al, p, i) == trace_power(ar, p, i)),
            None,
        )
        expect(first == k, f"scan p={p}: k = {k}, minimal match at {first}")
    good = [
        p
        for p in primes_in(max(p_min, 5), p_max)
        if (4 * a1**3 + 27 * b1**2) % p and (4 * a2**3 + 27 * b2**2) % p
    ]
    if kind == "twist":
        # a_p(E^d) = (d/p) a_p(E): every good prime is a hit at k <= 2
        expect(got == good, f"scan twist pair: hit set differs ({len(got)} vs {len(good)})")
        for r in rows:
            p = int(r["p"])
            expect(
                int(r["a_p_right"]) == legendre(extra, p) * int(r["a_p_left"]),
                f"scan p={p}: twist relation fails",
            )
    else:
        # CM by Q(i) and Q(sqrt -3): both supersingular exactly at p = 11 mod 12,
        # and ordinary Frobenius ratios from different fields are never roots of 1
        want = [p for p in good if p % 12 == 11]
        expect(got == want, f"scan cm pair: hit set differs ({len(got)} vs {len(want)})")
    expect(int(trailer["hits"]) == len(rows), "scan: trailer hit count")
    if rows:
        r = rows[len(rows) // 2]
        p = int(r["p"])
        expect(
            trace_by_sweep(a1, b1, p) == int(r["a_p_left"])
            and trace_by_sweep(a2, b2, p) == int(r["a_p_right"]),
            f"scan p={p}: recount by sweep disagrees",
        )
