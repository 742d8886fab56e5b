"""Layer spans recorded from outside the program, by boundary rebinding.

Each public function where one heckelab module calls into another is
wrapped, and every heckelab module attribute that *is* that function is
rebound to the wrapper.  Calls through `from .numerics import eval_j` and
intra-module calls such as eval_j -> reduce_to_fundamental_domain are both
caught, because they resolve the name in a module namespace at call time.
A boundary that a later version removed is skipped: it reports zero calls.

Spans (name, start, end, parent, op id, attributes) stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction

# (module, function, span name).  Several functions may share a span name;
# the lattice counters all report as "lattices.count".
BOUNDARIES = [
    ("numerics", "reduce_to_fundamental_domain", "numerics.reduce"),
    ("numerics", "eval_j", "numerics.eval_j"),
    ("numerics", "log_petersson_norm_delta", "numerics.log_norm_delta"),
    ("numerics", "tau_from_j", "numerics.tau_from_j"),
    ("hecke", "coset_reps", "hecke.coset_reps"),
    ("hecke", "hecke_orbit", "hecke.orbit"),
    ("hecke", "equi_fraction", "hecke.equi_fraction"),
    ("heights", "cusp_height", "heights.cusp_height"),
    ("heights", "phi_value", "heights.phi_value"),
    ("heights", "global_identity_residual", "heights.residual"),
    ("tate", "cyclic_subgroups", "tate.cyclic_subgroups"),
    ("tate", "valuation_orbit", "tate.valuation_orbit"),
    ("lattices", "_value_counts", "lattices.count"),
    ("lattices", "fiber_count", "lattices.count"),
    ("lattices", "ball_count", "lattices.count"),
    ("lattices", "represented_values", "lattices.count"),
    ("lattices", "dense_fiber_set", "lattices.count"),
    ("cm", "density_experiment", "cm.density"),
    ("cm", "enumerate_cm_points", "cm.enumerate"),
    ("cm", "condition_p_lemma_check", "cm.condition_p"),
    ("scan", "count_points", "scan.count_points"),
    ("scan", "scan_pair", "scan.scan_pair"),
    ("scan", "coincidence_statistic", "scan.coincidence"),
    ("arith", "primes_up_to", "arith.primes_up_to"),
    ("cli", "main", "cli.main"),
]

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _box_points(form, n) -> int:
    """Points of the rigorous ellipsoid box |x_i| <= sqrt(n (G^-1)_ii) that
    an exhaustive sweep visits, computed from the Gram matrix."""
    gram = [[Fraction(v) for v in row] for row in form.gram]
    rank = len(gram)

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum(
            (-1) ** c * rows[0][c] * det([r[:c] + r[c + 1 :] for r in rows[1:]])
            for c in range(len(rows))
        )

    full = det(gram)
    total = 1
    for i in range(rank):
        minor = [[gram[r][c] for c in range(rank) if c != i] for r in range(rank) if r != i]
        limit = Fraction(n) * det(minor) / full
        total *= 2 * math.isqrt(limit.numerator // limit.denominator) + 1
    return total


def _attrs(name, args, kwargs, result):
    """Work counts recorded at the boundary, next to the span."""
    if name in ("hecke.coset_reps", "tate.cyclic_subgroups"):
        return {"rows": len(result)}
    if name == "heights.cusp_height":
        return {"e_n": result.e_n}
    if name == "hecke.orbit":
        prec = _arg(args, kwargs, 2, "prec")
        return {"points": len(result.points), "bits": getattr(prec, "bits", 128)}
    if name == "lattices.count" and hasattr(result, "shape"):
        return {"box_points": _box_points(args[0], args[1])}
    if name == "scan.count_points":
        curve, p = args[0], args[1]
        return {"key": (curve.a4, curve.a6, p), "p": p}
    return None


class Tracer:
    """Span recorder; install() rebinds the boundaries, restore() undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, orig, name):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op_id, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            span[ATTRS] = _attrs(name, args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", name)
        return traced

    def install(self, package: str = "heckelab") -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for mod_name, func_name, span_name in BOUNDARIES:
            owner = sys.modules.get(f"{package}.{mod_name}")
            orig = getattr(owner, func_name, None) if owner else None
            if orig is None:
                self.missing.append(f"{mod_name}.{func_name}")
                continue
            wrapper = self.wrap(orig, span_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self.installed.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self.installed):
            setattr(mod, attr, orig)
        self.installed.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                attrs = s[ATTRS]
                if attrs and "key" in attrs:
                    attrs = {k: v for k, v in attrs.items() if k != "key"}
                fh.write(
                    json.dumps(
                        {"name": s[NAME], "start": s[START], "end": s[END],
                         "parent": s[PARENT], "op": s[OP], "attrs": attrs}
                    )
                    + "\n"
                )


def layer_metrics(spans: list[list], traced_ops: int) -> dict[str, float]:
    """Per-layer counts and self times, per traced operation, plus the
    ratios measured where the work happens."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + (s[END] - s[START]) - child[i]

    def ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return p
            p = spans[p][PARENT]
        return -1

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS])

    orbit_points = attr_sum("hecke.orbit", "points")
    reduce_in_orbit = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "numerics.reduce" and ancestor(i, "hecke.orbit") >= 0
    )
    norm_in_height = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "numerics.log_norm_delta" and ancestor(i, "heights.cusp_height") >= 0
    )
    phi_orbits = [
        s[ATTRS]["bits"] for i, s in enumerate(spans)
        if s[NAME] == "hecke.orbit" and s[ATTRS] and ancestor(i, "heights.phi_value") >= 0
    ]
    seen: set = set()
    repeats = fp_elements = 0
    for s in spans:
        if s[NAME] == "scan.count_points" and s[ATTRS]:
            if s[ATTRS]["key"] in seen:
                repeats += 1
            else:
                seen.add(s[ATTRS]["key"])
                fp_elements += s[ATTRS]["p"]
    box_points = attr_sum("lattices.count", "box_points")

    def ratio(a, b):
        return a / b if b else 0.0

    per_op = max(traced_ops, 1)
    out = {}
    for name in ("numerics.reduce", "numerics.eval_j", "numerics.log_norm_delta",
                 "numerics.tau_from_j", "hecke.coset_reps", "hecke.orbit",
                 "heights.phi_value", "scan.count_points"):
        out[f"{name}.calls"] = calls.get(name, 0) / per_op
    for name in ("numerics.reduce", "numerics.eval_j", "numerics.log_norm_delta",
                 "numerics.tau_from_j", "hecke.coset_reps", "hecke.orbit",
                 "hecke.equi_fraction", "heights.cusp_height", "heights.phi_value",
                 "heights.residual", "tate.cyclic_subgroups", "tate.valuation_orbit",
                 "lattices.count", "cm.density", "cm.enumerate", "cm.condition_p",
                 "scan.count_points", "scan.scan_pair", "scan.coincidence",
                 "arith.primes_up_to", "cli.main"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / per_op
    out["numerics.reduce.calls_per_point"] = ratio(reduce_in_orbit, orbit_points)
    out["hecke.coset_reps.rows"] = attr_sum("hecke.coset_reps", "rows") / per_op
    out["hecke.orbit.points"] = orbit_points / per_op
    out["heights.cusp_height.norm_evals_per_row"] = ratio(
        norm_in_height, calls.get("heights.cusp_height", 0)
    )
    out["heights.phi_value.max_bits"] = float(max(phi_orbits, default=0))
    out["heights.phi_value.attempts_per_call"] = ratio(
        len(phi_orbits), calls.get("heights.phi_value", 0)
    )
    out["tate.cyclic_subgroups.rows"] = attr_sum("tate.cyclic_subgroups", "rows") / per_op
    out["lattices.box_points"] = box_points / per_op
    out["lattices.box_points_per_s"] = ratio(box_points, self_s.get("lattices.count", 0.0))
    out["scan.count_points.repeat_ratio"] = ratio(repeats, calls.get("scan.count_points", 0))
    out["scan.fp_elements"] = fp_elements / per_op
    return out
