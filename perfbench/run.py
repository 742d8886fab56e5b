"""heckelab benchmark: closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 18 --trace 0

One client in one process issues the next operation only after the previous
one returned (a closed loop, no threads).  A run is a fixed number of rounds
of operations, set by --seconds (workloads.round_count): about --seconds of
work for the program as it was when the benchmark was defined.  So the
operations a run makes, and the number that fail, depend on the seed alone.
Each operation's wall time is scaled to a reference host speed, measured by
a calibration kernel around it (perfbench/calibrate.py); every output is
checked by an independent oracle (perfbench/oracles.py).  Wall-clock figures
are printed alongside.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics: with --trace 0 the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics, measured by rebinding the layer
boundaries (perfbench/trace.py).

`failed` counts every operation that raised or failed its oracle.  One
program defect is known and kept in the traffic: phi_value at its default
128 bits breaks the Kronecker congruence for most primes N >= 5 (height
workload).  Those failures are counted and listed; `correct` turns false on
any other failure.

    --out FILE             also append this run, with its provenance, to FILE
    --compare OLD NEW      print median ratios of two such files per workload
                           and metric, flagging end-to-end moves beyond bound

The program is imported from src/ of the checkout this file sits in; the
run exits with code 2 and no result when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, oracles, workloads  # noqa: E402
from perfbench.trace import ATTRS, NAME, Tracer, layer_metrics  # noqa: E402

WORKDIR = ROOT / ".perfbench_work"
# Set-up is measured in this many fresh processes before the loop and as many
# after it, so that the samples meet more than one phase of host speed, and
# reported as the median.
SETUP_REPEATS = 3
# The tail is the highest percentile with at least this many operations beyond it.
TAIL_BEYOND = 10
# A run stops early, and says so, once its timed wall-clock seconds reach
# this, so that it ends in time on a host in a very slow phase.
WALL_LIMIT_S = 110.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_program():
    """Import heckelab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import heckelab
    import heckelab.cli

    if Path(heckelab.__file__).resolve().parent != (src / "heckelab").resolve():
        raise SystemExit(f"error: heckelab imported from {heckelab.__file__}")
    return heckelab


def provenance(workload: str, seed: int, traced: bool, seconds: float) -> dict:
    import mpmath
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_child_seconds(workload: str, seed: int) -> list[float]:
    """Time of fresh processes that import heckelab, build the op list and
    run the warm-up, then exit; at reference host speed, like the ops."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    kernel_before = calibrate.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=20, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed: {proc.stderr.decode()[-2000:]}")
        kernel_after = calibrate.kernel_seconds()
        times.append(elapsed * calibrate.REFERENCE_S / ((kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return times


def set_up(workload: str, seed: int, tmp_dir: Path):
    """Import, op-list generation and an untimed warm-up."""
    lab = load_program()
    warm, rounds = workloads.schedule(workload, seed)
    for op in warm:
        for step in op.steps:
            step.call(lab, str(tmp_dir / "warmup.csv"))
    gc.collect()
    return lab, rounds


class Loop:
    """The closed loop: runs a fixed number of rounds."""

    def __init__(self, lab, tmp_dir: Path, n_rounds: int):
        self.lab = lab
        self.out_path = str(tmp_dir / "op.csv")
        self.n_rounds = n_rounds
        self.wall = 0.0  # timed wall-clock seconds so far
        self.raw: list[float] = []  # wall seconds per operation
        self.latencies: list[float] = []  # the same at reference host speed
        self.kinds: list[str] = []
        self.failures: list[tuple[int, str, str, bool]] = []
        self.rounds: list[tuple[bool, float, int, bool]] = []  # traced, time, ops, complete
        self.rows_traced = 0
        self.factorize_hits = self.factorize_misses = 0
        self.kernel_s = calibrate.kernel_seconds()

    @property
    def cut_short(self) -> bool:
        return self.wall >= WALL_LIMIT_S

    def run_op(self, op) -> tuple[float, float, int, oracles.OracleError | None]:
        """Time each program call and check its output untimed.  Returns the
        wall latency, the kernel time just after the last call, the rows read
        and the failure, if any."""
        elapsed, rows = 0.0, 0
        kernel_after = None
        for i, step in enumerate(op.steps):
            start = time.perf_counter()
            try:
                result = step.call(self.lab, self.out_path)
            except (Exception, SystemExit) as exc:
                elapsed += time.perf_counter() - start
                return elapsed, calibrate.kernel_seconds(), rows, oracles.OracleError(
                    f"raised {exc!r}")
            elapsed += time.perf_counter() - start
            if i == len(op.steps) - 1:
                kernel_after = calibrate.kernel_seconds()
            try:
                rows += step.check(result, self.out_path)
            except oracles.OracleError as exc:
                return elapsed, kernel_after or calibrate.kernel_seconds(), rows, exc
            except Exception as exc:  # unreadable output counts as wrong output
                return elapsed, kernel_after or calibrate.kernel_seconds(), rows, \
                    oracles.OracleError(f"output unreadable: {exc!r}")
        return elapsed, kernel_after, rows, None

    def run(self, rounds, tracer: Tracer | None = None) -> None:
        """Even rounds run untraced; with a tracer, odd rounds run traced, so
        the two kinds of round measure the tracing overhead."""
        for index, ops in enumerate(itertools.islice(rounds, self.n_rounds)):
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
                hits, misses = _factorize_info(self.lab)
            round_time, done = 0.0, 0
            for op in ops:
                op_index = len(self.latencies)
                if tracer is not None:
                    tracer.op_id = op_index
                elapsed, kernel_after, rows, error = self.run_op(op)
                if error is not None:
                    known = isinstance(error, oracles.KnownDefect)
                    self.failures.append((op_index, op.kind, f"{op.label}: {error}", known))
                scaled = elapsed * calibrate.REFERENCE_S / ((self.kernel_s + kernel_after) / 2)
                self.kernel_s = kernel_after
                self.raw.append(elapsed)
                self.latencies.append(scaled)
                self.kinds.append(op.kind)
                self.wall += elapsed
                round_time += scaled
                done += 1
                if traced:
                    self.rows_traced += rows
                if self.cut_short:
                    break
            if traced:
                tracer.restore()
                after_hits, after_misses = _factorize_info(self.lab)
                self.factorize_hits += after_hits - hits
                self.factorize_misses += after_misses - misses
            self.rounds.append((traced, round_time, done, done == len(ops)))
            if self.cut_short:
                return


def _factorize_info(lab) -> tuple[int, int]:
    info = getattr(getattr(lab.arith, "factorize", None), "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


def order_stats(latencies: list[float]) -> tuple[float, float, float, int]:
    """(ops per second, median, tail, index of the tail value).  The tail is
    the value with exactly TAIL_BEYOND operations above it, or the maximum
    when the run is too short to have one."""
    ordered = sorted(latencies)
    k = len(ordered)
    tail_index = k - TAIL_BEYOND - 1 if k > TAIL_BEYOND else k - 1
    return k / sum(ordered), statistics.median(ordered), ordered[tail_index], tail_index


def end_to_end(loop: Loop, setup: list[float]) -> tuple[dict, dict]:
    rate, p50, tail, tail_index = order_stats(loop.latencies)
    raw_rate, raw_p50, raw_tail, _ = order_stats(loop.raw)
    k = len(loop.latencies)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": rate,
        "op_ms_p50": 1000.0 * p50,
        "op_ms_tail": 1000.0 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_ms_tail_percentile": 100.0 * (tail_index + 1) / k,
        "op_ms_tail_beyond": k - tail_index - 1,
        "operations": k,
        "rounds": len(loop.rounds),
        "cut_short": loop.cut_short,
        "setup_s_samples": setup,
        "wall_ops_per_s": raw_rate,
        "wall_op_ms_p50": 1000.0 * raw_p50,
        "wall_op_ms_tail": 1000.0 * raw_tail,
        "host_speed": sum(loop.raw) / sum(loop.latencies),
        "op_ms_p50_by_kind": {
            kind: 1000.0 * statistics.median(
                t for t, k in zip(loop.latencies, loop.kinds) if k == kind)
            for kind in sorted(set(loop.kinds))
        },
    }
    return values, notes


def per_layer(loop: Loop, tracer: Tracer) -> tuple[dict, dict]:
    traced_ops = sum(ops for traced, _, ops, _ in loop.rounds if traced)
    values = layer_metrics(tracer.spans, traced_ops)
    lookups = loop.factorize_hits + loop.factorize_misses
    values["arith.factorize.hit_ratio"] = loop.factorize_hits / lookups if lookups else 0.0
    values["cli.rows_emitted"] = loop.rows_traced / max(traced_ops, 1)

    def mean_round(traced):
        times = [t for tr, t, _, complete in loop.rounds if tr == traced and complete]
        return statistics.mean(times) if times else float("nan")

    values["trace.overhead_ratio"] = mean_round(True) / mean_round(False)
    heights = [s[ATTRS]["e_n"] for s in tracer.spans
               if s[NAME] == "heights.cusp_height" and s[ATTRS]]
    notes = {"traced_ops": traced_ops, "spans": len(tracer.spans),
             "missing_boundaries": sorted(set(tracer.missing)),
             "cusp_height_mean_psi": statistics.mean(heights) if heights else None}
    return values, notes


def run(args) -> int:
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "heckelab" / "__init__.py").is_file():
        print(f"error: no heckelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp_dir = WORKDIR / f"run-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, tmp_dir)
            return 0
        setup = [] if args.trace else setup_child_seconds(args.workload, args.seed)
        lab, rounds = set_up(args.workload, args.seed, tmp_dir)
        loop = Loop(lab, tmp_dir, workloads.round_count(args.workload, args.seconds))
        tracer = Tracer() if args.trace else None
        loop.run(rounds, tracer)
        if not args.trace:
            setup += setup_child_seconds(args.workload, args.seed)
        if loop.cut_short:
            print(f"warning: run cut short after {WALL_LIMIT_S} s of timed wall time",
                  file=sys.stderr)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    if args.trace:
        values, notes = per_layer(loop, tracer)
        wanted = spec["per_layer"]
        tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values, notes = end_to_end(loop, setup)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2

    attempted, failed = len(loop.latencies), len(loop.failures)
    unexpected = [f for f in loop.failures if not f[3]]
    result = {
        "correct": attempted > 0 and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    prov = provenance(args.workload, args.seed, bool(args.trace), args.seconds)
    notes["fail_ratio"] = failed / attempted if attempted else 0.0
    for op_index, kind, message, known in loop.failures:
        tag = "known defect" if known else "FAILED"
        print(f"{tag}: op {op_index} ({kind}): {message}")
    for m in wanted:
        print(f"{args.workload:7s} {m['name']:42s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"provenance": prov, "notes": notes}))
    if args.out:
        append_result(Path(args.out), {"provenance": prov, "notes": notes, **result})
    print(json.dumps(result))
    return 0


def append_result(path: Path, record: dict) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def compare(old_path: str, new_path: str) -> int:
    """Median of each workload x metric in two result files, their ratio,
    and whether an end-to-end metric moved beyond its bound."""
    spec = load_spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def medians(path):
        grouped: dict = {}
        for r in json.loads(Path(path).read_text())["runs"]:
            for name, metric in r["metrics"].items():
                key = (r["provenance"]["workload"], name)
                grouped.setdefault(key, []).append(metric["value"])
        return {k: statistics.median(v) for k, v in grouped.items()}

    old, new = medians(old_path), medians(new_path)
    print(f"{'workload':8s} {'metric':42s} {'old':>12s} {'new':>12s} {'new/old':>8s}  verdict")
    for key in sorted(old.keys() & new.keys()):
        workload, name = key
        a, b = old[key], new[key]
        ratio = b / a if a else float("nan")
        m = meta.get(name, {})
        verdict = "-"
        if "bound" in m and a:
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            verdict = "BEYOND BOUND" if worse > m["bound"] else "within bound"
        print(f"{workload:8s} {name:42s} {a:12.6g} {b:12.6g} {ratio:8.4f}  {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
