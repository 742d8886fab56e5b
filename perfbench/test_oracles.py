"""The benchmark's own tests: every oracle accepts the program's real output
and rejects a corrupted copy of it; the tracer rebinds and restores.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import heckelab  # noqa: E402
import heckelab.cli  # noqa: E402

from perfbench import oracles as O  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.trace import Tracer, layer_metrics  # noqa: E402


def run_cli(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert heckelab.cli.main(argv + ["--out", str(out)]) == 0
    return W.read_table(str(out))


def phi_2(x: int, y: int) -> int:
    """The classical modular polynomial of level 2."""
    return (
        x**3 + y**3 - x * x * y * y + 1488 * (x * x * y + x * y * y)
        - 162000 * (x * x + y * y) + 40773375 * x * y
        + 8748000000 * (x + y) - 157464000000000
    )


def test_orbit_oracle_accepts_and_rejects(tmp_path):
    rows, _ = run_cli(tmp_path, ["orbit", "0.213+1.31i", "12"])
    O.check_orbit_rows(rows, 12)
    with pytest.raises(O.OracleError, match="rows"):
        O.check_orbit_rows(rows[:5] + rows[6:], 12)  # a dropped coset
    bent = [dict(r) for r in rows]
    bent[7]["j_re"] = repr(float(bent[7]["j_re"]) * (1 + 1e-6))
    bent[7]["j_im"] = repr(float(bent[7]["j_im"]) * (1 + 1e-6))
    with pytest.raises(O.OracleError, match="q-series"):
        O.check_orbit_rows(bent, 12)  # j perturbed by 1e-6


def test_j_oracle_handles_large_imaginary_part():
    # j(500i) ~ e^(2 pi 500) overflows float64; the log form does not
    mag, arg = O.log_j(0.25, 500.0)
    assert abs(mag - 2 * math.pi * 500) < 1e-9
    assert abs(arg + 2 * math.pi * 0.25) < 1e-12
    got = O.decimal_log_arg("1.5e+1364", "-2.0e+1364")
    assert abs(got[0] - (1364 * O.LN10 + math.log(2.5))) < 1e-12


@pytest.mark.parametrize("y,z", [(1, 2), (5, -7), (-3, 11), (2000, 3)])
def test_phi_oracle_rejects_off_by_one(y, z):
    value = phi_2(y, z)
    O.check_phi(value, y, z, 2)
    with pytest.raises(O.KnownDefect):
        O.check_phi(value + 1, y, z, 2)


def test_cosets_oracle_rejects_dropped_coset():
    n = 360
    reps, subgroups = heckelab.hecke.coset_reps(n), heckelab.tate.cyclic_subgroups(n)
    O.check_cosets(reps, subgroups, n)
    with pytest.raises(O.OracleError):
        O.check_cosets(reps[:-1], subgroups, n)
    with pytest.raises(O.OracleError):
        O.check_cosets(reps, subgroups[1:] + subgroups[:1], n)


def test_height_and_residual_oracles(tmp_path):
    rows, _ = run_cli(tmp_path, ["height", "1", "12,30,97", "--precision-bits", "96"])
    tau_y = O.tau_from_j(1)
    O.check_height_rows(rows, tau_y, [12, 30, 97])
    bent = [dict(r) for r in rows]
    bent[1]["value"] = repr(float(bent[1]["value"]) * (1 + 1e-7))
    with pytest.raises(O.OracleError, match="identity"):
        O.check_height_rows(bent, tau_y, [12, 30, 97])
    rows, _ = run_cli(tmp_path, ["residual", "-40", "3", "10", "--precision-bits", "96"])
    O.check_residual_rows(rows, O.tau_from_j(-40), [10])
    rows[0]["residual"] = repr(float(rows[0]["residual"]) + 1e-6)
    with pytest.raises(O.OracleError):
        O.check_residual_rows(rows, O.tau_from_j(-40), [10])


def test_tate_latcount_scan_cm_oracles(tmp_path):
    rows, _ = run_cli(tmp_path, ["tate", "-3/2", "360"])
    O.check_tate_rows(rows, Fraction(-3, 2), 360)
    rows[2]["multiplicity"] = str(int(rows[2]["multiplicity"]) + 1)
    with pytest.raises(O.OracleError):
        O.check_tate_rows(rows, Fraction(-3, 2), 360)

    rows, _ = run_cli(tmp_path, ["latcount", "1,0,0,0,1,0,0,1,1/2,1", "60"])
    exact = O.theta_sum(O.theta_sum_of_two_squares(60), O.theta_hexagonal(60), 60)
    O.check_latcount_rows(rows, None, 60, exact, None)
    rows[40]["fiber_count"] = str(int(rows[40]["fiber_count"]) + 1)
    with pytest.raises(O.OracleError, match="theta"):
        O.check_latcount_rows(rows, None, 60, exact, None)

    pair = ("twist", (2, 3), (2 * 25, 3 * -125), -5)
    rows, meta = run_cli(tmp_path, ["scan", "2,3", "50,-375", "100", "400"])
    O.check_scan_rows(rows, meta, pair, 100, 400)
    with pytest.raises(O.OracleError, match="hit set"):
        O.check_scan_rows(rows[:3] + rows[4:], meta, pair, 100, 400)

    rows, _ = run_cli(tmp_path, ["cm", "12"])
    O.check_cm_rows(rows, 12)
    rows[3]["j_re"] = repr(float(rows[3]["j_re"]) * (1 + 1e-6))
    with pytest.raises(O.OracleError):
        O.check_cm_rows(rows, 12)


def test_equi_and_density_oracles(tmp_path):
    tau = "0.1234+1.4321i"
    rows, _ = run_cli(tmp_path, ["equi", tau, "101", "1.5", "--precision-bits", "64"])
    O.check_equi_rows(rows, W._complex(tau), 101, 1.5)
    rows[0]["fraction"] = repr(float(rows[0]["fraction"]) + 1 / 102)
    with pytest.raises(O.OracleError):
        O.check_equi_rows(rows, W._complex(tau), 101, 1.5)
    rows, meta = run_cli(tmp_path, ["density", tau, "0", "4", "6", "--precision-bits", "64"])
    O.check_density_rows(rows, meta, W._complex(tau), 4, 6)
    rows[4]["best_distance"] = repr(float(rows[4]["best_distance"]) * (1 + 1e-6))
    with pytest.raises(O.OracleError):
        O.check_density_rows(rows, meta, W._complex(tau), 4, 6)


def test_schedule_is_seeded_and_inputs_are_fresh():
    def labels(seed):
        warm, rounds = W.schedule("exact", seed)
        return [op.label for op in warm] + [op.label for _ in range(3) for op in next(rounds)]

    assert labels(5) == labels(5)
    assert labels(5) != labels(6)
    for workload in ("orbit", "height", "exact"):
        warm, rounds = W.schedule(workload, 1)
        seen = [op.label for op in warm] + [op.label for _ in range(6) for op in next(rounds)]
        assert len(seen) == len(set(seen)), workload


def test_tracer_rebinds_restores_and_counts():
    orig = heckelab.numerics.reduce_to_fundamental_domain
    tracer = Tracer()
    tracer.install()
    try:
        assert heckelab.hecke.reduce_to_fundamental_domain is not orig
        assert heckelab.numerics.reduce_to_fundamental_domain is not orig
        tau = heckelab.numerics.UpperHalfPoint(0.21, 1.3)
        orbit = heckelab.hecke.hecke_orbit(tau, 6)
    finally:
        tracer.restore()
    assert heckelab.hecke.reduce_to_fundamental_domain is orig
    assert heckelab.numerics.reduce_to_fundamental_domain is orig
    metrics = layer_metrics(tracer.spans, 1)
    assert metrics["hecke.orbit.points"] == len(orbit.points) == 12
    assert metrics["numerics.reduce.calls_per_point"] == 2.0
    assert metrics["scan.count_points.calls"] == 0


def test_tracer_skips_a_missing_boundary(monkeypatch):
    monkeypatch.delattr(heckelab.heights, "global_identity_residual")
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert "heights.global_identity_residual" in tracer.missing
    assert layer_metrics(tracer.spans, 1)["heights.residual.self_s"] == 0.0
