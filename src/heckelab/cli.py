"""Command-line surface: every experiment, reproducible, CSV or JSON lines.

Rationals are written num/den throughout to avoid float parsing ambiguity.
Each subcommand is one row of COMMANDS: its help, its positional arguments,
a runner from the parsed arguments to the rows it writes, a self-test that
replays a small table of known values from its backing module (--self-test
reports pass/fail), and the shared options it reads.  One loop builds the
parser from the rows, and one dispatcher runs them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np
from mpmath import mp

from . import modpoly
from .arith import primes_up_to
from .cm import (
    condition_p,
    density_experiment,
    density_fraction,
    enumerate_cm_points,
    fixed_point,
    order_index,
)
from .hecke import (
    HeckeOrbit,
    coset_reps,
    e_n,
    equi_fraction,
    hecke_orbit,
    orbit_symmetry_check,
)
from .heights import (
    CoincidenceError,
    cusp_height,
    global_identity_residual,
    heuristic_integral,
    local_arch_sum,
    phi_value,
)
from .lattices import (
    GramForm,
    _value_counts,
    counting_bound,
    represented_values,
)
from .numerics import ModularMatrix, Precision, UpperHalfPoint, eval_j, tau_from_j
from .scan import (
    BadReductionError,
    CurveQ,
    _coincidences,
    _half_sweep,
    _hit_table,
    _trace_table,
    _traces,
    count_points,
    scan_pair,
    trace_power,
)
from .tate import badred_constant, valuation_orbit


def _digits(args: argparse.Namespace) -> int:
    return max(17, args.precision_bits // 4)


# log2(10) as mpmath's to_digits_exp computes it, so the digit counts agree
_LOG2_10 = math.log(10, 2)


@functools.lru_cache(maxsize=4096)
def _cell_scale(digits: int, top: int) -> tuple[int, int, int]:
    """_fmt's (frac, places, 10^places) for a value in [2^(top - 1), 2^top)."""
    frac = max(int((digits + 3) * _LOG2_10) + 10 - top, 0)
    places = int(frac / _LOG2_10 + 0.5)
    return frac, places, 10**places


def _fmt(value, digits: int) -> str:
    """One mpf cell at the run's digits, as mp.nstr(value, digits,
    strip_zeros=True) prints it, from the raw (sign, man, exp).

    Like mpmath's to_str: the value is truncated to a decimal string of
    about digits + 6 digits, rounded half up at `digits` significant
    digits on the next digit alone, laid out in fixed point when the
    leading digit's exponent lies strictly between min(-(digits // 3), -5)
    and digits and in scientific notation otherwise, and stripped of
    trailing zeros.  0, +-inf, nan and |exp + bc| > 3500 go to mp.nstr.
    """
    sign, man, exp, bc = value._mpf_
    if not man or abs(exp + bc) > 3500:
        return mp.nstr(value, digits, strip_zeros=True)
    frac, places, scale = _cell_scale(digits, exp + bc)  # man 2^exp in units 2^-frac
    fixed = man << (exp + frac) if exp + frac >= 0 else man >> -(exp + frac)
    text = str(fixed * scale >> frac)
    point = len(text) - places - 1  # the exponent of the leading digit
    if len(text) > digits and text[digits] in "56789":
        text = str(int(text[:digits]) + 1)
        if len(text) > digits:  # 9...9 carried into a new decade
            text, point = text[:digits], point + 1
    else:
        text = text[:digits]
    split = 1  # the digits before the point; text keeps at least point + 1
    if min(-(digits // 3), -5) < point < digits:
        if point < 0:
            text = "0" * -point + text
        else:
            split = point + 1
        point = 0
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    if sign:
        text = "-" + text
    if point:
        text += f"e{point:+d}"
    return text


def _float_cell(value, digits: int):
    """value as a float64, or through _fmt where a finite value overflows
    float64 (a float cell would read inf, and Infinity in JSON lines)."""
    x = float(value)
    if math.isinf(x) and mp.isfinite(value):
        return _fmt(value, digits)
    return x


class IntColumns:
    """Table rows whose cells are nonnegative int64s, held as columns.

    Iterating yields each row as a tuple of Python ints, as a zip over the
    columns' lists does; csv_body renders all rows in one NumPy pass.
    """

    __slots__ = ("columns",)

    def __init__(self, *columns: np.ndarray) -> None:
        if not columns:
            raise ValueError("IntColumns needs at least one column")
        for col in columns:
            if not (isinstance(col, np.ndarray) and col.dtype == np.int64 and col.ndim == 1):
                raise ValueError("IntColumns takes one-dimensional int64 arrays")
            if len(col) != len(columns[0]):
                raise ValueError("IntColumns takes columns of equal length")
            if col.min(initial=0) < 0:
                raise ValueError("IntColumns takes nonnegative integers only")
        self.columns = columns

    def __iter__(self):
        return zip(*(col.tolist() for col in self.columns))

    def csv_body(self) -> str:
        """The rows as csv.writer(..., lineterminator="\\n") writes them.

        One uint8 table holds a text row per row: each column right-aligned
        in a field as wide as its largest value, then its separator.  The
        digits are filled from the right, one place per pass over the
        column; a leading zero is written as NUL, and one bytes.translate
        deletes them all.
        """
        widths = [len(str(int(col.max(initial=0)))) for col in self.columns]
        table = np.zeros((len(self.columns[0]), sum(widths) + len(widths)), dtype=np.uint8)
        start = 0
        for col, width in zip(self.columns, widths):
            rest = col.astype(np.uint32) if width < 10 else col  # uint32 divides faster
            last = start + width - 1
            for place in range(last, start - 1, -1):
                quot = rest // 10  # NumPy divides by a scalar faster than %
                digit = (rest - quot * 10).astype(np.uint8)
                digit += ord("0")
                if place < last:
                    digit *= rest > 0  # NUL once no digit is left
                table[:, place] = digit
                rest = quot
            table[:, last + 1] = ord(",")
            start = last + 2
        table[:, -1] = ord("\n")
        return table.tobytes().translate(None, b"\0").decode("ascii")


def _emit(
    args: argparse.Namespace,
    fields: list[str],
    rows: Iterable[tuple],
    header: Optional[dict] = None,
    trailer: Optional[dict] = None,
) -> None:
    """Write rows, tuples in fields order, as CSV (header row first) or JSON
    lines.  The CSV body of IntColumns rows is written in one piece, every
    other body by csv.writer.

    `header`/`trailer` are small metadata maps: CSV renders them as
    comment lines, JSON lines as their own objects.
    """
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        if args.format == "csv":
            if header:
                out.write("# " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(fields)
            if isinstance(rows, IntColumns):
                out.write(rows.csv_body())
            else:
                writer.writerows(rows)
            if trailer:
                out.write("# " + " ".join(f"{k}={v}" for k, v in trailer.items()) + "\n")
        else:
            if header:
                out.write(json.dumps({"_meta": header}) + "\n")
            for row in rows:
                out.write(json.dumps(dict(zip(fields, row))) + "\n")
            if trailer:
                out.write(json.dumps({"_summary": trailer}) + "\n")
    finally:
        if args.out:
            out.close()


def _parse_complex(text: str, prec: Precision, upper_half: bool = False):
    """A number such as '0.3+1.7i', 'i' or '1e400', read at prec.wp bits so
    that decimals keep the working precision.  Returns an mpc, or with
    upper_half an UpperHalfPoint of its parts."""
    # the unit i is an 'i' outside a word such as 'inf'; mpmath reads '1j'
    # but not a bare 'j'
    s = re.sub(r"(?<![a-z])i(?![a-z])", "j", text.strip().replace(" ", ""))
    s = re.sub(r"(?<![\d.])j", "1j", s)
    with mp.workprec(prec.wp):
        try:
            z = mp.mpc(mp.mpmathify(s))
        except (TypeError, ValueError, AttributeError):
            raise ValueError(f"cannot read {text!r} as a complex number") from None
        if not upper_half:
            return z
        if not z.imag > 0:
            raise ValueError(f"Im tau must be positive, got {text!r}")
        return UpperHalfPoint(z.real, z.imag)


def _parse_int(text: str, name: str) -> int:
    """An integer argument; anything else is a ValueError that names it."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text.strip()!r}") from None


def _parse_range(spec: str) -> list[int]:
    """'a..b' inclusive; 'primes:a..b' primes only; 'a,b,c' explicit list."""
    text = spec.strip()
    spec = text.removeprefix("primes:")
    primes_only = spec != text
    try:
        if ".." not in spec:
            return [int(part) for part in spec.split(",")]
        lo, hi = (int(part) for part in spec.split("..", 1))
    except ValueError:
        raise ValueError(
            f"range must be 'a..b', 'primes:a..b' or 'a,b,c' in integers, got {text!r}"
        ) from None
    if primes_only:
        return [p for p in primes_up_to(max(hi, 2)) if lo <= p <= hi]
    return list(range(lo, hi + 1))


def _parse_rational(text: str) -> Fraction:
    """A rational such as '-3', '1/2' or '0.25'; a zero denominator is a
    ValueError that names the input."""
    text = text.strip()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_curve(text: str) -> CurveQ:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"curve must be 'a4,a6' rationals, got {text!r}")
    return CurveQ(_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_gram(text: str) -> GramForm:
    entries = [_parse_rational(part) for part in text.split(",")]
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


# -- runners and self-tests, one pair per row of COMMANDS -------------------


def _orbit(args: argparse.Namespace) -> tuple:
    tau = _parse_complex(args.tau, args.prec, upper_half=True)
    orbit = hecke_orbit(tau, args.n, args.prec)
    d = _digits(args)
    rows = [(*p.coset[:3], *_point_cells(p.tau, p.j, d)) for p in orbit.points]
    return ["alpha", "beta", "delta", "tau_re", "tau_im", "j_re", "j_im"], rows


def _point_cells(tau: UpperHalfPoint, j, digits: int) -> tuple:
    """The tau_re, tau_im, j_re and j_im cells of a point's row."""
    return tuple(_fmt(x, digits) for x in (tau.re, tau.im, j.real, j.imag))


def _orbit_checks() -> list[tuple[str, bool]]:
    tau = UpperHalfPoint(0, 2)
    return [
        ("e_2 = 3 cosets", len(coset_reps(2)) == 3),
        ("e_6 = 12 cosets", len(coset_reps(6)) == 12),
        ("correspondence symmetry at N=2",
         orbit_symmetry_check(tau, 2, Precision(96))),
    ]


def _height(args: argparse.Namespace) -> tuple:
    j_base = _parse_int(args.j_base, "j_base")
    ns = _parse_range(args.n_spec)
    tau_y = tau_from_j(j_base, args.prec) if ns else None
    points = [cusp_height(tau_y, n, args.prec) for n in ns]
    return (
        ["n", "e_n", "value", "normalized"],
        [(p.n, p.e_n, p.value, p.normalized) for p in points],
    )


def _height_checks() -> list[tuple[str, bool]]:
    prec = Precision(96)
    tau_y = tau_from_j(1, prec)
    h = cusp_height(tau_y, 3, prec).value
    s = local_arch_sum(tau_y, 2, 3, prec)
    phi = phi_value(1, 2, 3)
    gap = abs((math.log(abs(phi)) - s) - h)
    return [
        ("log|phi| - S_N = H_N (exact decomposition)", gap < 1e-6),
        ("phi(1,2,N=3) is a nonzero integer", isinstance(phi, int) and phi != 0),
        ("|j(tau_from_j(1)) - 1| <= 2^-96", abs(eval_j(tau_y, prec) - 1) <= 2.0**-96),
        ("|j - y| <= 2^-128 y at y = 1728 + 10^-20, 128 bits", _inverts_next_to_i()),
    ]


def _inverts_next_to_i(prec: Precision = Precision(128)) -> bool:
    """tau_from_j just off 1728, where j' nearly vanishes, is within 2^-bits y."""
    with mp.workprec(prec.wp):
        y = 1728 + mp.mpf(10) ** -20
        return abs(eval_j(tau_from_j(y, prec), prec) - y) <= prec.resolution(y)


def _scan(args: argparse.Namespace) -> tuple:
    left = _parse_curve(args.left)
    right = _parse_curve(args.right)
    if not 5 <= args.p_min <= args.p_max:
        raise ValueError("need 5 <= p_min <= p_max")
    # one pass from p = 5: its hits at p >= p_min are the rows, and all of
    # them give the coincidence statistic
    p, k, a_left, a_right = _hit_table(left, right, 5, args.p_max)
    stat = _coincidences(p[k == 1].tolist(), args.p_max)
    shown = p >= args.p_min
    rows = list(zip(*(column[shown].tolist() for column in (p, k, a_left, a_right))))
    trailer = {"hits": len(rows), "coincidences": stat.observed, "heuristic": stat.heuristic}
    return ["p", "k", "a_p_left", "a_p_right"], rows, None, trailer


def _scan_checks() -> list[tuple[str, bool]]:
    # j = 1728 against j = 0: every a_p of the array pass in closed form
    e1, e2 = CurveQ(Fraction(-1), Fraction(0)), CurveQ(Fraction(0), Fraction(-1))
    rec = count_points(e1, 5)
    hits = scan_pair(e1, e2, 5, 100)
    primes = [p for p in primes_up_to(3000) if p >= 5 and p != 31]  # 31 | disc
    batched = _traces(np.ones(len(primes), dtype=np.int64), np.array(primes, dtype=np.int64))
    pair = (CurveQ(Fraction(1, 3), Fraction(-5, 7)), CurveQ(Fraction(2, 9), Fraction(7, 4)))
    return [
        ("a_5(y^2=x^3-x) = -2", rec.a_p == -2),
        ("trace_power(-2, 5, 2) = -6", trace_power(-2, 5, 2) == -6),
        ("pair hits in [5,100] at 11..83",
         {h.p for h in hits} >= {11, 23, 47, 59, 71, 83}),
        ("batched a_p of y^2=x^3+x+1 = half-sweep at every p in [5,3000]",
         batched.tolist() == [_half_sweep(1, 1, p) for p in primes]),
        ("array pass = count_points at every good p <= 500 for 1/3,-5/7 vs 2/9,7/4"
         " and -1,0 vs 0,-1",
         all(_passed(curves, 500) == _counted(curves, 500) for curves in (pair, (e1, e2)))),
    ]


def _passed(curves: tuple[CurveQ, ...], p_max: int) -> list[tuple[int, ...]]:
    """(p, a_p of each curve) by the array pass of a scan over [5, p_max]."""
    p, a_p = _trace_table(curves, 5, p_max)
    return list(zip(p.tolist(), *a_p.tolist()))


def _counted(curves: tuple[CurveQ, ...], p_max: int) -> list[tuple[int, ...]]:
    """(p, a_p of each curve) by count_points at every prime 5 <= p <= p_max
    where all the curves have good reduction."""
    rows = []
    for p in primes_up_to(p_max)[2:]:
        try:
            rows.append((p, *(count_points(curve, p).a_p for curve in curves)))
        except BadReductionError:
            continue
    return rows


def _tate(args: argparse.Namespace) -> tuple:
    orbit = valuation_orbit(_parse_rational(args.v), args.n)
    return ["value", "multiplicity"], [(str(v), m) for v, m in sorted(orbit.items())]


def _tate_checks() -> list[tuple[str, bool]]:
    orbit = valuation_orbit(Fraction(-1), 2)
    floor = badred_constant(Fraction(-1), Fraction(-3, 2))
    return [
        ("orbit(-1, 2) = {-2, -1/2 x2}",
         orbit == {Fraction(-2): 1, Fraction(-1, 2): 2}),
        ("badred floor = -x", floor.floor == Fraction(3, 2)),
    ]


def _latcount(args: argparse.Namespace) -> tuple:
    if args.n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {args.n_max}")
    form = _parse_gram(args.gram)
    counts = _value_counts(form, args.n_max)
    trailer = None
    if form.rank == 2:
        trailer = {
            "represented": int(np.count_nonzero(counts[1:])),
            "bound": counting_bound(args.n_max, form.disc),
            "disc": str(form.disc),
        }
    rows = IntColumns(np.arange(1, args.n_max + 1, dtype=np.int64), counts[1:])
    return ["n", "fiber_count"], rows, None, trailer


def _latcount_checks() -> list[tuple[str, bool]]:
    sq2 = GramForm.from_rows(((1, 0), (0, 1)))
    sq4 = GramForm.from_rows(
        tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    )
    return [
        ("x^2+y^2 represents {1,2,4,5,8,9,10} up to 10",
         represented_values(sq2, 10) == {1, 2, 4, 5, 8, 9, 10}),
        ("rank-4 fiber at 2 has 24 vectors",
         int(_value_counts(sq4, 2)[2]) == 24),
    ]


def _cm(args: argparse.Namespace) -> tuple:
    d = _digits(args)
    rows = [
        (p.M, p.trace, p.conductor, p.fundamental_disc,
         *_point_cells(p.tau0, eval_j(p.tau0, args.prec), d))
        for p in enumerate_cm_points(args.m_max, args.prec)
    ]
    return (
        ["m", "t", "conductor", "fundamental_disc", "tau_re", "tau_im", "j_re", "j_im"],
        rows,
    )


def _cm_checks() -> list[tuple[str, bool]]:
    fp = fixed_point(ModularMatrix(0, -1, 1, 0))
    return [
        ("condition (P): 3 at p=2 holds", condition_p(3, 2).satisfies),
        ("condition (P): 4 at p=5 fails", not condition_p(4, 5).satisfies),
        ("order_index(2, 5) = (2, -4)", order_index(2, 5) == (2, -4)),
        ("fixed point of S is i",
         fp is not None and abs(float(fp.tau0.im) - 1.0) < 1e-12),
    ]


def _equi(args: argparse.Namespace) -> tuple:
    tau = _parse_complex(args.tau, args.prec, upper_half=True)
    threshold = _parse_complex(args.threshold, args.prec)
    if threshold.imag:
        raise ValueError(f"threshold must be real, got {args.threshold!r}")
    rows = []
    for n in _parse_range(args.n_spec):
        stat = equi_fraction(HeckeOrbit(tau, n, args.prec), threshold.real)
        rows.append((n, stat.fraction, stat.prediction))
    return ["n", "fraction", "prediction"], rows


def _equi_checks() -> list[tuple[str, bool]]:
    orbit = HeckeOrbit(UpperHalfPoint(0, 2), 11, Precision(96))
    stat = equi_fraction(orbit, 1.5)
    return [
        ("fraction lies in [0, 1]", 0.0 <= stat.fraction <= 1.0),
        ("prediction = min(1, 3/(pi Y0)) at Y0 = 1.5",
         abs(stat.prediction - 2 / 3.141592653589793) < 1e-12),
    ]


def _density(args: argparse.Namespace) -> tuple:
    pts = density_experiment(
        _parse_complex(args.tau, args.prec, upper_half=True),
        _parse_complex(args.z, args.prec), args.d_exp, args.n_max, args.prec
    )
    return (
        ["n", "best_distance"],
        [(p.n, _float_cell(p.best_distance, _digits(args))) for p in pts],
        None,
        {"fraction": density_fraction(pts, args.d_exp)},
    )


def _density_checks() -> list[tuple[str, bool]]:
    pts = density_experiment(UpperHalfPoint(0.3, 1.7), 0j, 4, 10, Precision(64))
    frac = density_fraction(pts, 12)  # huge D: no near-misses survive
    return [
        ("ten rows for N <= 10", len(pts) == 10),
        ("huge D empties the near-miss set", frac == 0.0),
    ]


def _integral(args: argparse.Namespace) -> tuple:
    est = heuristic_integral(
        _parse_complex(args.z, args.prec), args.samples, args.prec, seed=args.seed
    )
    return (
        ["value", "std_error", "samples", "rejected", "seed"],
        [(est.value, est.std_error, est.samples, est.rejected, est.seed)],
        {"seed": args.seed, "precision_bits": args.precision_bits},
    )


def _integral_checks() -> list[tuple[str, bool]]:
    a = heuristic_integral(0j, 64, Precision(64), seed=7)
    b = heuristic_integral(0j, 64, Precision(64), seed=7)
    return [
        ("same seed reproduces the estimate", a == b),
        ("standard error is finite and positive", a.std_error > 0),
    ]


def _residual(args: argparse.Namespace) -> tuple:
    ns = _parse_range(args.n_spec)
    y, z = _parse_int(args.y, "y"), _parse_int(args.z, "z")
    rows = [(n, e_n(n), global_identity_residual(y, z, n, args.prec)) for n in ns]
    return ["n", "e_n", "residual"], rows


def _residual_checks() -> list[tuple[str, bool]]:
    r = global_identity_residual(1, 2, 3, Precision(96))
    h = cusp_height(tau_from_j(1, Precision(96)), 3, Precision(96)).normalized
    try:  # the 2-isogenous curves of i and 2i meet on T_10
        global_identity_residual(1728, 287496, 10, Precision(96))
        isogeny_raises = False
    except CoincidenceError:
        isogeny_raises = True
    return [
        ("residual = normalized height - 1", abs(r - (h - 1)) < 1e-12),
        ("phi_3(2, 1) != 0 is certified", modpoly.phi_certificate(1, 2, 3) is not None),
        ("(1728, 287496, 10) raises CoincidenceError", isogeny_raises),
    ]


class Command(NamedTuple):
    """One subcommand: a row of COMMANDS."""

    help: str
    args: tuple[tuple[str, type, Optional[str]], ...]  # positionals (name, type, help)
    run: Callable[[argparse.Namespace], tuple]  # -> (fields, rows[, header[, trailer]])
    self_test: Callable[[], list[tuple[str, bool]]]
    options: tuple[tuple[str, type, object, str], ...]  # (flag, type, default, help)


# The shared options a row may take; --format, --out and --self-test are on
# every row.
_BITS = (("--precision-bits", int, 128, "working precision (>= 53)"),)
_SEED = (("--seed", int, 0, "Monte-Carlo seed"),)
_TAU = ("tau", str, "base point, e.g. '2i' or '0.3+1.7i'")
_RANGE = ("n_spec", str, "range: 'a..b', 'primes:a..b', or list")
_Z = ("z", str, "target complex value")

COMMANDS = {
    "orbit": Command(
        "Hecke orbit table of tau",
        (_TAU, ("n", int, "orbit order N")),
        _orbit, _orbit_checks, _BITS,
    ),
    "height": Command(
        "cusp height series",
        (("j_base", str, "integer base j-invariant"), _RANGE),
        _height, _height_checks, _BITS,
    ),
    "scan": Command(
        "isogenous-reduction prime scan",
        (
            ("left", str, "curve 'a4,a6' (rationals as num/den)"),
            ("right", str, "curve 'a4,a6'"),
            ("p_min", int, None),
            ("p_max", int, None),
        ),
        _scan, _scan_checks, (),
    ),
    "tate": Command(
        "valuation orbit of v(j)",
        (("v", str, "negative rational valuation, e.g. '-1'"),
         ("n", int, "isogeny degree N")),
        _tate, _tate_checks, (),
    ),
    "latcount": Command(
        "lattice fiber counts",
        (("gram", str, "'a,b,c' (rank 2) or 10 upper-triangle entries (rank 4)"),
         ("n_max", int, None)),
        _latcount, _latcount_checks, (),
    ),
    "cm": Command(
        "CM point enumeration table",
        (("m_max", int, "max self-isogeny degree"),),
        _cm, _cm_checks, _BITS,
    ),
    "equi": Command(
        "high-point fraction vs prediction",
        (_TAU, _RANGE, ("threshold", str, None)),
        _equi, _equi_checks, _BITS,
    ),
    "density": Command(
        "near-miss density experiment",
        (_TAU, _Z, ("d_exp", int, "exponent D in N^-D"), ("n_max", int, None)),
        _density, _density_checks, _BITS,
    ),
    "integral": Command(
        "hyperbolic Monte-Carlo mean",
        (_Z, ("samples", int, None)),
        _integral, _integral_checks, _BITS + _SEED,
    ),
    "residual": Command(
        "global identity residuals",
        (("y", str, "integer base j-invariant"), ("z", str, "integer target"), _RANGE),
        _residual, _residual_checks, _BITS,
    ),
}


def _run(args: argparse.Namespace) -> int:
    """Build args.prec and check --seed; then run the row's self-test, or its
    runner once every positional argument is given, and write the table."""
    command = COMMANDS[args.command]
    args.prec = Precision(getattr(args, "precision_bits", 128))
    if getattr(args, "seed", 0) < 0:
        raise ValueError("seed must be nonnegative")
    if args.self_test:
        checks = command.self_test()
        for label, ok in checks:
            print(f"{args.command} self-test: {'PASS' if ok else 'FAIL'} {label}")
        return 0 if all(ok for _, ok in checks) else 1
    for name, _, _ in command.args:
        if getattr(args, name) is None:
            raise ValueError(f"missing required argument '{name}'")
    _emit(args, *command.run(args))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process from COMMANDS: parsing
    leaves it as it was, and every default in it is immutable."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="output format"
    )
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument(
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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for arg, kind, text in command.args:
            p.add_argument(arg, nargs="?", type=kind, help=text)
        for flag, kind, default, text in command.options:
            p.add_argument(flag, type=kind, default=default, help=text)
        p.set_defaults(func=_run)
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

