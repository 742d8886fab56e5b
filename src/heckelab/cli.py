"""Command-line surface: every experiment, reproducible, CSV or JSON lines.

Rationals are written num/den throughout to avoid float parsing ambiguity.
Each subcommand supports --self-test, which replays a small table of known
values from its backing module and reports pass/fail.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np
from mpmath import mp

from .arith import primes_up_to
from .cm import density_experiment, density_fraction, enumerate_cm_points
from .hecke import (
    HeckeOrbit,
    coset_reps,
    e_n,
    equi_fraction,
    hecke_orbit,
    orbit_symmetry_check,
)
from .heights import (
    cusp_height,
    global_identity_residual,
    heuristic_integral,
    local_arch_sum,
    phi_value,
)
from .lattices import GramForm, _value_counts, counting_bound, represented_values
from .numerics import _GUARD, Precision, UpperHalfPoint, tau_from_j
from .scan import CurveQ, coincidence_statistic, count_points, scan_pair, trace_power
from .tate import badred_constant, valuation_orbit


@dataclass(frozen=True)
class RunConfig:
    precision_bits: int = 128
    seed: int = 0
    output_format: str = "csv"
    output_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.precision_bits < 53:
            raise ValueError("precision_bits must be at least 53")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.output_format not in ("csv", "jsonl"):
            raise ValueError("format must be csv or jsonl")

    @property
    def precision(self) -> Precision:
        return Precision(self.precision_bits)

    @property
    def digits(self) -> int:
        return max(17, self.precision_bits // 4)


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        precision_bits=args.precision_bits,
        seed=args.seed,
        output_format=args.format,
        output_path=args.out,
    )


def _fmt(value, digits: int):
    """Render one cell: exact types stay exact, mpf/mpc go through nstr."""
    if isinstance(value, Fraction):
        return str(value)  # "3/4", integral values without the "/1"
    if isinstance(value, (int, float, str)):
        return value
    return mp.nstr(value, digits, strip_zeros=True)


def _float_cell(value, digits: int):
    """value as a float64, or through _fmt where a finite value overflows
    float64 (a float cell would read inf, and Infinity in JSON lines)."""
    x = float(value)
    if math.isinf(x) and mp.isfinite(value):
        return _fmt(value, digits)
    return x


def _emit(
    config: RunConfig,
    fieldnames: list[str],
    rows: Iterable[tuple],
    header: Optional[dict] = None,
    trailer: Optional[dict] = None,
) -> None:
    """Write rows, tuples in fieldnames order, as CSV (header row first) or
    JSON lines.

    `header`/`trailer` are small metadata maps: CSV renders them as
    comment lines, JSON lines as their own objects.
    """
    out = (
        open(config.output_path, "w", encoding="utf-8", newline="")
        if config.output_path
        else sys.stdout
    )
    try:
        if config.output_format == "csv":
            if header:
                out.write("# " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(fieldnames)
            writer.writerows(rows)
            if trailer:
                out.write("# " + " ".join(f"{k}={v}" for k, v in trailer.items()) + "\n")
        else:
            if header:
                out.write(json.dumps({"_meta": header}) + "\n")
            for row in rows:
                out.write(json.dumps(dict(zip(fieldnames, row))) + "\n")
            if trailer:
                out.write(json.dumps({"_summary": trailer}) + "\n")
    finally:
        if config.output_path:
            out.close()


def _parse_complex(text: str, bits: int, upper_half: bool = False):
    """A number such as '0.3+1.7i', 'i' or '1e400', read at bits + _GUARD
    bits so that decimals keep the working precision.  Returns an mpc, or
    with upper_half an UpperHalfPoint of its parts."""
    # the unit i is an 'i' outside a word such as 'inf'; mpmath reads '1j'
    # but not a bare 'j'
    s = re.sub(r"(?<![a-z])i(?![a-z])", "j", text.strip().replace(" ", ""))
    s = re.sub(r"(?<![\d.])j", "1j", s)
    with mp.workprec(bits + _GUARD):
        try:
            z = mp.mpc(mp.mpmathify(s))
        except (TypeError, ValueError, AttributeError):
            raise ValueError(f"cannot read {text!r} as a complex number") from None
        if not upper_half:
            return z
        if not z.imag > 0:
            raise ValueError(f"Im tau must be positive, got {text!r}")
        return UpperHalfPoint(z.real, z.imag)


def _parse_range(spec: str) -> list[int]:
    """'a..b' inclusive; 'primes:a..b' primes only; 'a,b,c' explicit list."""
    spec = spec.strip()
    primes_only = spec.startswith("primes:")
    if primes_only:
        spec = spec[len("primes:") :]
    if ".." in spec:
        lo_text, hi_text = spec.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if primes_only:
            return [p for p in primes_up_to(max(hi, 2)) if lo <= p <= hi]
        return list(range(lo, hi + 1))
    values = [int(part) for part in spec.split(",")]
    return values


def _parse_curve(text: str) -> CurveQ:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"curve must be 'a4,a6' rationals, got {text!r}")
    return CurveQ(Fraction(parts[0]), Fraction(parts[1]))


def _parse_gram(text: str) -> GramForm:
    entries = [Fraction(part) for part in text.split(",")]
    if len(entries) == 3:
        a, b, c = entries
        return GramForm.from_rows(((a, b), (b, c)))
    if len(entries) == 10:
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        it = iter(entries)
        for i in range(4):
            for j in range(i, 4):
                rows[i][j] = rows[j][i] = next(it)
        return GramForm.from_rows(rows)
    raise ValueError(
        "gram must have 3 entries (rank 2: a,b,c) or 10 (rank 4 upper triangle)"
    )


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"missing required argument '{name}'")


def _report_selftest(name: str, checks: list[tuple[str, bool]]) -> int:
    failed = [label for label, ok in checks if not ok]
    for label, ok in checks:
        print(f"{name} self-test: {'PASS' if ok else 'FAIL'} {label}")
    return 1 if failed else 0


# -- orbit ------------------------------------------------------------------


def cmd_orbit(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        tau = UpperHalfPoint(0, 2)
        checks = [
            ("e_2 = 3 cosets", len(coset_reps(2)) == 3),
            ("e_6 = 12 cosets", len(coset_reps(6)) == 12),
            ("correspondence symmetry at N=2",
             orbit_symmetry_check(tau, 2, Precision(96))),
        ]
        return _report_selftest("orbit", checks)
    _require(args, "tau", "n")
    prec = config.precision
    tau = _parse_complex(args.tau, config.precision_bits, upper_half=True)
    orbit = hecke_orbit(tau, args.n, prec)
    d = config.digits
    rows = [
        (
            p.coset.alpha,
            p.coset.beta,
            p.coset.delta,
            _fmt(p.tau.re, d),
            _fmt(p.tau.im, d),
            _fmt(p.j.real, d),
            _fmt(p.j.imag, d),
        )
        for p in orbit.points
    ]
    _emit(config, ["alpha", "beta", "delta", "tau_re", "tau_im", "j_re", "j_im"], rows)
    return 0


# -- height -----------------------------------------------------------------


def cmd_height(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        prec = Precision(96)
        tau_y = tau_from_j(1, prec)
        h = cusp_height(tau_y, 3, prec).value
        s = local_arch_sum(tau_y, 2, 3, prec)
        phi = phi_value(1, 2, 3, prec)
        import math

        gap = abs((math.log(abs(phi)) - s) - h)
        checks = [
            ("log|phi| - S_N = H_N (exact decomposition)", gap < 1e-6),
            ("phi(1,2,N=3) is a nonzero integer", isinstance(phi, int) and phi != 0),
        ]
        return _report_selftest("height", checks)
    _require(args, "j_base", "n_spec")
    prec = config.precision
    j_base = int(args.j_base)
    ns = _parse_range(args.n_spec)
    rows = []
    if ns:
        tau_y = tau_from_j(j_base, prec)
        for n in ns:
            point = cusp_height(tau_y, n, prec)
            rows.append((point.n, point.e_n, point.value, point.normalized))
    _emit(config, ["n", "e_n", "value", "normalized"], rows)
    return 0


# -- scan -------------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        e1 = CurveQ(Fraction(-1), Fraction(0))
        rec = count_points(e1, 5)
        hits = scan_pair(e1, CurveQ(Fraction(0), Fraction(-1)), 5, 100)
        checks = [
            ("a_5(y^2=x^3-x) = -2", rec.a_p == -2),
            ("trace_power(-2, 5, 2) = -6", trace_power(-2, 5, 2) == -6),
            ("pair hits in [5,100] at 11..83",
             {h.p for h in hits} >= {11, 23, 47, 59, 71, 83}),
        ]
        return _report_selftest("scan", checks)
    _require(args, "left", "right", "p_min", "p_max")
    left = _parse_curve(args.left)
    right = _parse_curve(args.right)
    hits = scan_pair(left, right, args.p_min, args.p_max)
    stat = coincidence_statistic(left, right, args.p_max)
    rows = [(h.p, h.k, h.left.a_p, h.right.a_p) for h in hits]
    _emit(
        config,
        ["p", "k", "a_p_left", "a_p_right"],
        rows,
        trailer={
            "hits": len(hits),
            "coincidences": stat.observed,
            "heuristic": stat.heuristic,
        },
    )
    return 0


# -- tate -------------------------------------------------------------------


def cmd_tate(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        orbit = valuation_orbit(Fraction(-1), 2)
        floor = badred_constant(Fraction(-1), Fraction(-3, 2))
        checks = [
            ("orbit(-1, 2) = {-2, -1/2 x2}",
             orbit == {Fraction(-2): 1, Fraction(-1, 2): 2}),
            ("badred floor = -x", floor.floor == Fraction(3, 2)),
        ]
        return _report_selftest("tate", checks)
    _require(args, "v", "n")
    orbit = valuation_orbit(Fraction(args.v), args.n)
    rows = [(_fmt(val, config.digits), mult) for val, mult in sorted(orbit.items())]
    _emit(config, ["value", "multiplicity"], rows)
    return 0


# -- latcount ---------------------------------------------------------------


def cmd_latcount(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        sq2 = GramForm.from_rows(((1, 0), (0, 1)))
        sq4 = GramForm.from_rows(
            tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
        )
        checks = [
            ("x^2+y^2 represents {1,2,4,5,8,9,10} up to 10",
             represented_values(sq2, 10) == {1, 2, 4, 5, 8, 9, 10}),
            ("rank-4 fiber at 2 has 24 vectors",
             int(_value_counts(sq4, 2)[2]) == 24),
        ]
        return _report_selftest("latcount", checks)
    _require(args, "gram", "n_max")
    if args.n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {args.n_max}")
    form = _parse_gram(args.gram)
    counts = _value_counts(form, args.n_max)
    rows = zip(range(1, args.n_max + 1), counts[1:].tolist())
    trailer = None
    if form.rank == 2:
        # Lagrange reduction is unimodular, so the values represented are
        # the nonzero counts of the form itself
        trailer = {
            "represented": int(np.count_nonzero(counts[1:])),
            "bound": counting_bound(args.n_max, form.disc),
            "disc": _fmt(form.disc, config.digits),
        }
    _emit(config, ["n", "fiber_count"], rows, trailer=trailer)
    return 0


# -- cm ---------------------------------------------------------------------


def cmd_cm(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        from .cm import condition_p, fixed_point, order_index
        from .numerics import ModularMatrix

        fp = fixed_point(ModularMatrix(0, -1, 1, 0))
        checks = [
            ("condition (P): 3 at p=2 holds", condition_p(3, 2).satisfies),
            ("condition (P): 4 at p=5 fails", not condition_p(4, 5).satisfies),
            ("order_index(2, 5) = (2, -4)", order_index(2, 5) == (2, -4)),
            ("fixed point of S is i",
             fp is not None and abs(float(fp.tau0.im) - 1.0) < 1e-12),
        ]
        return _report_selftest("cm", checks)
    _require(args, "m_max")
    prec = config.precision
    points = enumerate_cm_points(args.m_max, prec)
    d = config.digits
    rows = []
    for p in points:
        jval = p.j_at(prec)
        rows.append(
            (
                p.M,
                p.trace,
                p.conductor,
                p.fundamental_disc,
                _fmt(p.tau0.re, d),
                _fmt(p.tau0.im, d),
                _fmt(jval.real, d),
                _fmt(jval.imag, d),
            )
        )
    _emit(
        config,
        ["m", "t", "conductor", "fundamental_disc", "tau_re", "tau_im", "j_re", "j_im"],
        rows,
    )
    return 0


# -- equi -------------------------------------------------------------------


def cmd_equi(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        orbit = HeckeOrbit(UpperHalfPoint(0, 2), 11, Precision(96))
        stat = equi_fraction(orbit, 1.5)
        checks = [
            ("fraction lies in [0, 1]", 0.0 <= stat.fraction <= 1.0),
            ("prediction = min(1, 3/(pi Y0)) at Y0 = 1.5",
             abs(stat.prediction - 2 / 3.141592653589793) < 1e-12),
        ]
        return _report_selftest("equi", checks)
    _require(args, "tau", "n_spec", "threshold")
    prec = config.precision
    tau = _parse_complex(args.tau, config.precision_bits, upper_half=True)
    rows = []
    for n in _parse_range(args.n_spec):
        stat = equi_fraction(HeckeOrbit(tau, n, prec), args.threshold)
        rows.append((n, stat.fraction, stat.prediction))
    _emit(config, ["n", "fraction", "prediction"], rows)
    return 0


# -- density ----------------------------------------------------------------


def cmd_density(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        pts = density_experiment(UpperHalfPoint(0.3, 1.7), 0j, 4, 10, Precision(64))
        frac = density_fraction(pts, 12)  # huge D: no near-misses survive
        checks = [
            ("ten rows for N <= 10", len(pts) == 10),
            ("huge D empties the near-miss set", frac == 0.0),
        ]
        return _report_selftest("density", checks)
    _require(args, "tau", "z", "d_exp", "n_max")
    prec = config.precision
    bits = config.precision_bits
    pts = density_experiment(
        _parse_complex(args.tau, bits, upper_half=True),
        _parse_complex(args.z, bits),
        args.d_exp,
        args.n_max,
        prec,
    )
    rows = [(p.n, _float_cell(p.best_distance, config.digits)) for p in pts]
    _emit(
        config,
        ["n", "best_distance"],
        rows,
        trailer={"fraction": density_fraction(pts, args.d_exp)},
    )
    return 0


# -- integral ---------------------------------------------------------------


def cmd_integral(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        a = heuristic_integral(0j, 64, Precision(64), seed=7)
        b = heuristic_integral(0j, 64, Precision(64), seed=7)
        checks = [
            ("same seed reproduces the estimate", a == b),
            ("standard error is finite and positive", a.std_error > 0),
        ]
        return _report_selftest("integral", checks)
    _require(args, "z", "samples")
    est = heuristic_integral(
        _parse_complex(args.z, config.precision_bits),
        args.samples,
        config.precision,
        seed=config.seed,
    )
    _emit(
        config,
        ["value", "std_error", "samples", "rejected", "seed"],
        [(est.value, est.std_error, est.samples, est.rejected, est.seed)],
        header={"seed": config.seed, "precision_bits": config.precision_bits},
    )
    return 0


# -- residual (global identity) ---------------------------------------------


def cmd_residual(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.self_test:
        r = global_identity_residual(1, 2, 3, Precision(96))
        checks = [("residual is finite", r == r and abs(r) < 100)]
        return _report_selftest("residual", checks)
    _require(args, "y", "z", "n_spec")
    prec = config.precision
    rows = []
    for n in _parse_range(args.n_spec):
        rows.append(
            (n, e_n(n), global_identity_residual(int(args.y), int(args.z), n, prec))
        )
    _emit(config, ["n", "e_n", "residual"], rows)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it as it
    was, and every default in it is immutable."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--precision-bits", type=int, default=128, help="working precision (>= 53)"
    )
    shared.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    shared.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="output format"
    )
    shared.add_argument("--out", default=None, help="output path (default stdout)")
    shared.add_argument(
        "--self-test",
        action="store_true",
        help="replay the module's example table and report pass/fail",
    )

    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Hecke orbits, heights, lattices, CM points, Tate orbits, "
        "and prime scans for isogenous reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", parents=[shared], help="Hecke orbit table of tau")
    p.add_argument("tau", nargs="?", help="base point, e.g. '2i' or '0.3+1.7i'")
    p.add_argument("n", nargs="?", type=int, help="orbit order N")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("height", parents=[shared], help="cusp height series")
    p.add_argument("j_base", nargs="?", help="integer base j-invariant")
    p.add_argument("n_spec", nargs="?", help="range: 'a..b', 'primes:a..b', or list")
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("scan", parents=[shared], help="isogenous-reduction prime scan")
    p.add_argument("left", nargs="?", help="curve 'a4,a6' (rationals as num/den)")
    p.add_argument("right", nargs="?", help="curve 'a4,a6'")
    p.add_argument("p_min", nargs="?", type=int)
    p.add_argument("p_max", nargs="?", type=int)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("tate", parents=[shared], help="valuation orbit of v(j)")
    p.add_argument("v", nargs="?", help="negative rational valuation, e.g. '-1'")
    p.add_argument("n", nargs="?", type=int, help="isogeny degree N")
    p.set_defaults(func=cmd_tate)

    p = sub.add_parser("latcount", parents=[shared], help="lattice fiber counts")
    p.add_argument("gram", nargs="?", help="'a,b,c' (rank 2) or 10 upper-triangle entries (rank 4)")
    p.add_argument("n_max", nargs="?", type=int)
    p.set_defaults(func=cmd_latcount)

    p = sub.add_parser("cm", parents=[shared], help="CM point enumeration table")
    p.add_argument("m_max", nargs="?", type=int, help="max self-isogeny degree")
    p.set_defaults(func=cmd_cm)

    p = sub.add_parser("equi", parents=[shared], help="high-point fraction vs prediction")
    p.add_argument("tau", nargs="?")
    p.add_argument("n_spec", nargs="?")
    p.add_argument("threshold", nargs="?", type=float)
    p.set_defaults(func=cmd_equi)

    p = sub.add_parser("density", parents=[shared], help="near-miss density experiment")
    p.add_argument("tau", nargs="?")
    p.add_argument("z", nargs="?", help="target complex value")
    p.add_argument("d_exp", nargs="?", type=int, help="exponent D in N^-D")
    p.add_argument("n_max", nargs="?", type=int)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("integral", parents=[shared], help="hyperbolic Monte-Carlo mean")
    p.add_argument("z", nargs="?", help="target complex value")
    p.add_argument("samples", nargs="?", type=int)
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("residual", parents=[shared], help="global identity residuals")
    p.add_argument("y", nargs="?", help="integer base j-invariant")
    p.add_argument("z", nargs="?", help="integer target")
    p.add_argument("n_spec", nargs="?", help="range spec")
    p.set_defaults(func=cmd_residual)

    return parser


def _shield_negatives(argv: list[str]) -> list[str]:
    """argparse reads leading-minus values like '-1,0' or '-1/2' as flags.

    Every real flag here is --long, so a token starting with '-' and a digit,
    a dot, 'inf', 'nan' or a lone unit 'i' is always a value; a leading space
    keeps argparse from eating it, and the value parsers strip whitespace
    anyway.
    """
    return [(" " + a) if re.match(r"^-([0-9.]|inf|nan|i\b)", a) else a for a in argv]


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_shield_negatives(argv))
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
