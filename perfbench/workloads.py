"""The three benchmark workloads as seeded streams of checked operations.

A workload is an endless sequence of rounds.  Every round holds the same
mix of operation kinds with fresh inputs drawn from the seed (the height
workload's phi_value calls come from one fixed panel, see PhiPanel), so a
run of any number of rounds sees the same traffic mix, and per-run
aggregates vary little from seed to seed.  Each operation is either an
in-process `heckelab.cli.main(argv)` call writing CSV to a file, or a direct
call of a public library function.  Only the program calls are timed; the
independent oracle checks their output afterwards.

Inputs never repeat within a run, and the warm-up draws its inputs outside
the timed ranges, so no timed operation reads a cache filled with its own
inputs by another operation.
"""

from __future__ import annotations

import csv
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import oracles as O

PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
EQUI_THRESHOLD = 1.5
DENSITY_D = 4
DENSITY_N_MAX = 12


@dataclass
class Step:
    """One timed program call and the untimed check of what it returned.

    `call(lab, out_path)` runs the program; `check(result, out_path)`
    raises OracleError on a wrong output and returns the rows it read."""

    call: Callable
    check: Callable


@dataclass
class Op:
    kind: str
    label: str
    steps: list[Step] = field(default_factory=list)


def read_table(path: str) -> tuple[list[dict], dict]:
    """Rows of a CSV output and the key=value pairs of its comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    meta = {}
    for line in lines:
        if line.startswith("# "):
            meta.update(part.split("=", 1) for part in line[2:].split(" "))
    body = [line for line in lines if not line.startswith("# ")]
    return list(csv.DictReader(body)), meta


def cli_op(kind: str, argv: list[str], check: Callable) -> Op:
    def call(lab, out_path):
        return lab.cli.main(argv + ["--out", out_path])

    def verify(rc, out_path):
        O.expect(rc == 0, f"{kind}: exit code {rc}")
        rows, meta = read_table(out_path)
        check(rows, meta)
        return len(rows)

    return Op(kind, " ".join(argv), [Step(call, verify)])


# -- operation constructors -------------------------------------------------


def op_orbit(tau: str, n: int) -> Op:
    return cli_op("orbit", ["orbit", tau, str(n)],
                  lambda rows, _: O.check_orbit_rows(rows, n))


def op_equi(tau: str, n: int) -> Op:
    z = _complex(tau)
    return cli_op(
        "equi",
        ["equi", tau, str(n), str(EQUI_THRESHOLD), "--precision-bits", "64"],
        lambda rows, _: O.check_equi_rows(rows, z, n, EQUI_THRESHOLD),
    )


def op_density(tau: str, n_max: int) -> Op:
    z = _complex(tau)
    return cli_op(
        "density",
        ["density", tau, "0", str(DENSITY_D), str(n_max), "--precision-bits", "64"],
        lambda rows, meta: O.check_density_rows(rows, meta, z, DENSITY_D, n_max),
    )


def op_cm(m_max: int) -> Op:
    return cli_op("cm", ["cm", str(m_max)], lambda rows, _: O.check_cm_rows(rows, m_max))


def op_height(y: int, ns: list[int]) -> Op:
    def check(rows, _):
        O.check_height_rows(rows, O.tau_from_j(y), ns)

    return cli_op("height", ["height", str(y), ",".join(map(str, ns))], check)


def op_residual(y: int, z: int, n: int) -> Op:
    def check(rows, _):
        O.check_residual_rows(rows, O.tau_from_j(y), [n])

    return cli_op("residual", ["residual", str(y), str(z), str(n)], check)


def op_phi(y: int, z: int, p: int) -> Op:
    def call(lab, _):
        return lab.heights.phi_value(y, z, p)

    def check(value, _):
        O.check_phi(value, y, z, p)
        return 1

    return Op("phi", f"phi_value({y}, {z}, {p})", [Step(call, check)])


def op_cosets(ns: list[int]) -> Op:
    """coset_reps(N) and cyclic_subgroups(N) over a block of N; the timed
    part only enumerates and counts, as a degree sweep does."""

    def step(n):
        def call(lab, _):
            reps = lab.hecke.coset_reps(n)
            subgroups = lab.tate.cyclic_subgroups(n)
            len(reps), len(subgroups)
            return reps, subgroups

        def check(result, _):
            O.check_cosets(result[0], result[1], n)
            return 0

        return Step(call, check)

    return Op("cosets", f"cosets {ns[0]}..{ns[-1]} ({len(ns)} N)", [step(n) for n in ns])


def op_tate(v: Fraction, n: int) -> Op:
    return cli_op("tate", ["tate", str(v), str(n)],
                  lambda rows, _: O.check_tate_rows(rows, v, n))


def op_latcount(kind: str, entries: list, n_max: int, table, disc) -> Op:
    """`table(n_max)` gives the exact counts when they are known; `disc` is
    set for the rank-2 forms checked against the counting bound."""
    gram = ",".join(str(e) for e in entries)
    return cli_op(kind, ["latcount", gram, str(n_max)],
                  lambda rows, meta: O.check_latcount_rows(
                      rows, meta if disc is not None else None, n_max,
                      table(n_max) if table else None, disc))


def op_scan(pair, p_min: int, p_max: int) -> Op:
    _, (a1, b1), (a2, b2), _ = pair
    return cli_op(
        "scan", ["scan", f"{a1},{b1}", f"{a2},{b2}", str(p_min), str(p_max)],
        lambda rows, meta: O.check_scan_rows(rows, meta, pair, p_min, p_max),
    )


def op_condp(p: int, n_max: int) -> Op:
    def call(lab, _):
        return lab.cm.condition_p_lemma_check(p, n_max)

    def check(ok, _):
        O.expect(ok is True, f"condition (P) index lemma at odd p={p}, N<={n_max}: {ok}")
        return 1

    return Op("condp", f"condition_p_lemma_check({p}, {n_max})", [Step(call, check)])


def _complex(tau: str) -> complex:
    return complex(tau.replace("i", "j"))


# -- seeded input streams ---------------------------------------------------


@functools.cache
def psi_band(lo: int, hi: int, n_lo: int, n_hi: int) -> tuple[int, ...]:
    """The N in [n_lo, n_hi] with lo <= psi(N) <= hi: orbits of (nearly)
    one size, of varied factorization."""
    return tuple(n for n in range(n_lo, n_hi + 1) if lo <= O.psi(n) <= hi)


class Inputs:
    """Seeded draws with a memory of every input already handed out."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.used: set = set()

    def fresh(self, draw: Callable):
        for _ in range(10_000):
            value = draw()
            if value not in self.used:
                self.used.add(value)
                return value
        raise RuntimeError("input space exhausted")

    def tau(self) -> str:
        """A base point in or near the fundamental domain.  Six-decimal
        points are CM only with discriminants near 10^12, so at the orbit
        orders used here they behave as generic points."""

        def draw():
            while True:
                x = self.rng.uniform(-0.5, 0.5)
                y = self.rng.uniform(0.9, 1.9)
                if x * x + y * y >= 0.85:
                    return f"{x:.6f}{y:+.6f}i"

        return self.fresh(draw)

    def j_on(self, arc: str) -> int:
        """A small integer j on one real arc of the fundamental domain
        (Re tau = 1/2, |tau| = 1 or Re tau = 0), avoiding the CM values
        0 and 1728.  The arc sets the cost of inverting j."""
        lo, hi = {"negative": (-1000, -1), "unit": (1, 1727), "axis": (1729, 3000)}[arc]
        return self.fresh(lambda: self.rng.randrange(lo, hi + 1))

    @functools.cached_property
    def phi_panel(self) -> "PhiPanel":
        return PhiPanel()

    def take(self, *pools):
        """A value not handed out before, from the first pool that still
        has one; later pools only serve a program fast enough to exhaust
        the first."""
        for pool in pools:
            left = [v for v in pool if v not in self.used]
            if left:
                value = self.rng.choice(left)
                self.used.add(value)
                return value
        raise RuntimeError("input space exhausted")


class PhiPanel:
    """The phi_value calls of the height workload: one sequence, the same
    for every seed.  Runs of one length then make the same calls, so the
    known phi_value defect fails the same ones in each run."""

    def __init__(self):
        self.inp = Inputs("height:phi-panel", 0)
        self.primes = _cycle(self.inp.rng, PRIMES_TO_31)

    def op(self, p: int | None = None) -> Op:
        y = self.inp.j_on("axis")
        z = self.inp.rng.randrange(-100, 101)
        return op_phi(y, z, next(self.primes) if p is None else p)


def _rank2_exact(index: int):
    """A binary form with a known theta series: x^2 + y^2, x^2 + xy + y^2,
    or twice one of them; returns Gram entries and the count table."""
    k = 1 + (index // 2) % 2
    if index % 2 == 0:
        return [k, 0, k], lambda n: O.theta_scaled(O.theta_sum_of_two_squares(n // k), k, n)
    return [k, Fraction(k, 2), k], lambda n: O.theta_scaled(O.theta_hexagonal(n // k), k, n)


def _rank2_generic(inp: Inputs):
    """A positive-definite Gram matrix (a, b; b, c) with b possibly
    half-integral; checked against the counting bound."""
    rng = inp.rng
    while True:
        a = rng.randrange(1, 60)
        b = Fraction(rng.randrange(-a, a + 1), rng.choice([1, 2]))
        c = rng.randrange(a, a + 200)
        if a * c > b * b:
            return [a, b, c], a * c - b * b


_HALF = Fraction(1, 2)
# Orthogonal sums of x^2 + y^2 and x^2 + xy + y^2: 10 upper-triangle Gram
# entries, the theta series, and a range of n on which the ellipsoid box
# holds about 7.1e5 points for every form, so the three cost the same.
RANK4_FORMS = [
    ([1, 0, 0, 0, 1, 0, 0, 1, 0, 1], O.theta_sum_of_four_squares, range(196, 225)),
    ([1, 0, 0, 0, 1, 0, 0, 1, _HALF, 1],
     lambda n: O.theta_sum(O.theta_sum_of_two_squares(n), O.theta_hexagonal(n), n),
     range(169, 192)),
    ([1, _HALF, 0, 0, 1, 0, 0, 1, _HALF, 1],
     lambda n: O.theta_sum(O.theta_hexagonal(n), O.theta_hexagonal(n), n),
     range(147, 169)),
]


def _scan_pair(inp: Inputs, index: int):
    """A curve pair whose hit set is known in closed form: a quadratic twist
    pair (E, E^d), or y^2 = x^3 - a x against y^2 = x^3 + b."""
    rng = inp.rng

    def draw():
        if index % 2 == 0:
            while True:
                a, b = rng.randrange(-30, 31), rng.randrange(-30, 31)
                if 4 * a**3 + 27 * b**2 != 0:
                    break
            d = rng.choice([-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7])
            return ("twist", (a, b), (a * d * d, b * d**3), d)
        a = rng.randrange(1, 60)
        b = rng.choice([-1, 1]) * rng.randrange(1, 60)
        return ("cm", (-a, 0), (0, b), None)

    return inp.fresh(draw)


def _cycle(rng: random.Random, values):
    """Endless seeded permutations of values, one after another."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


# Each slot of a round has a narrow cost band: orbit sizes are fixed through
# psi(N), which sets the number of points, while tau, the factorization of
# N, j, the forms and the curves vary with the seed.  Rounds then cost
# nearly the same, and order statistics over a run fall inside one slot.


def _rounds_orbit(inp: Inputs):
    rng = inp.rng
    small = psi_band(144, 156, 60, 160)
    large = psi_band(288, 312, 120, 320)
    # equi ops are the slowest kind and hold the tail; seeded permutations
    # give every run nearly the same multiset of N, so the tail does not
    # follow which primes a seed happens to pick
    equi_primes = _cycle(rng, [n for n in range(479, 524) if O.is_prime(n)])
    # CM degrees in pairs (m, 52 - m) of about equal total cost; past 40
    # (only reached by a much faster program) degrees keep growing
    pairs = [(m, 52 - m) for m in range(12, 26)]
    rng.shuffle(pairs)
    cm_degrees = [m for pair in pairs for m in pair] + [26]
    r = 0
    while True:
        m = cm_degrees[r] if r < len(cm_degrees) else 41 + r - len(cm_degrees)
        yield [
            op_orbit(inp.tau(), rng.choice(small)),
            op_orbit(inp.tau(), rng.choice(small)),
            op_orbit(inp.tau(), rng.choice(small)),
            op_orbit(inp.tau(), rng.choice(large)),
            op_equi(inp.tau(), next(equi_primes)),
            op_density(inp.tau(), DENSITY_N_MAX),
            op_cm(m),
        ]
        r += 1


def _rounds_height(inp: Inputs):
    rng = inp.rng
    sizes = psi_band(48, 54, 20, 60)
    primes = [n for n in sizes if O.is_prime(n)]
    composites = [n for n in sizes if not O.is_prime(n)]
    while True:
        ops = [
            op_height(inp.j_on("unit"), [rng.choice(primes), rng.choice(composites)]),
            op_residual(inp.j_on("negative"), rng.randrange(-100, 101), rng.choice(sizes)),
        ]
        for _ in range(4):
            ops.append(inp.phi_panel.op())
        yield ops


def _rounds_exact(inp: Inputs):
    """Ten operations a round; the four tate orders sit in the middle of the
    cost order, so the run's median latency falls inside one compute-bound
    kind.  Allocation-bound coset enumeration and the scan cache vary more
    from run to run."""
    rng = inp.rng
    cond_primes = _cycle(rng, [3, 5, 7, 11, 13])
    coset_sizes = psi_band(5000, 7500, 3000, 5000)
    tate_sizes = psi_band(4500, 5000, 2000, 5000)
    r = 0
    while True:
        block = sorted(inp.take(coset_sizes, range(3000, 5001)) for _ in range(12))
        entries2, table2 = _rank2_exact(r)
        entries2g, disc2g = _rank2_generic(inp)
        form = r % 3
        entries4, table4, sizes4 = RANK4_FORMS[form]
        n4 = inp.take([(form, n) for n in sizes4], [(form, n) for n in range(100, 300)])[1]
        p_max = rng.randrange(9000, 9401)
        p = next(cond_primes)
        tates = [
            op_tate(Fraction(-rng.randrange(1, 40), rng.randrange(1, 40)),
                    inp.take(tate_sizes, range(2000, 5001)))
            for _ in range(4)
        ]
        yield [op_cosets(block)] + tates + [
            op_latcount("latcount2", entries2, inp.take(range(50_000, 52_001)), table2, None),
            op_latcount("latcount2", entries2g, inp.take(range(10_000, 10_501)), None, disc2g),
            op_latcount("latcount4", entries4, n4, table4, None),
            op_scan(_scan_pair(inp, r), p_max - 2000, p_max),
            op_condp(p, inp.take([(p, n) for n in range(1400, 1501)],
                                 [(p, n) for n in range(1000, 3001)])[1]),
        ]
        r += 1


def _warmup(workload: str, inp: Inputs) -> list[Op]:
    """One small operation of each kind, with inputs outside the timed
    ranges, so lazy set-up (parsers, series tables, constants) is done."""
    if workload == "orbit":
        return [op_orbit(inp.tau(), 13), op_equi(inp.tau(), 101),
                op_density(inp.tau(), 4), op_cm(6)]
    if workload == "height":
        return [op_height(inp.j_on("unit"), [5, 6]),
                op_residual(inp.j_on("negative"), 7, 6),
                inp.phi_panel.op(3)]
    return [
        op_cosets([1009, 1010]),
        op_tate(Fraction(-1, 3), 600),
        op_latcount("latcount2", [1, 0, 1], 2000, O.theta_sum_of_two_squares, None),
        op_latcount("latcount4", RANK4_FORMS[0][0], 30, RANK4_FORMS[0][1], None),
        op_scan(("cm", (-1, 0), (0, 1), None), 400, 600),
        op_condp(3, 200),
    ]


ROUNDS = {"orbit": _rounds_orbit, "height": _rounds_height, "exact": _rounds_exact}
# Rounds a run makes per second of --seconds: what the program completed at
# reference host speed when the benchmark was defined.  A run is this fixed
# amount of work, so its operation and failure counts depend on the seed
# alone, never on how fast the host or the program happens to be.
ROUNDS_PER_SECOND = {"orbit": 0.75, "height": 1.0, "exact": 1.25}


def round_count(workload: str, seconds: float) -> int:
    return max(2, math.ceil(ROUNDS_PER_SECOND[workload] * seconds))


def schedule(workload: str, seed: int):
    """(warm-up ops, iterator of rounds) for a workload and seed."""
    inp = Inputs(workload, seed)
    warm = _warmup(workload, inp)
    return warm, ROUNDS[workload](inp)
