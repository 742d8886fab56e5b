import csv
import io
import json

import pytest

from heckelab.cli import main

SUBCOMMANDS = [
    "orbit",
    "height",
    "scan",
    "tate",
    "latcount",
    "cm",
    "equi",
    "density",
    "integral",
    "residual",
]


def _rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_self_tests_pass(cmd, capsys):
    assert main([cmd, "--self-test"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_orbit_table(capsys):
    assert main(["orbit", "2i", "2"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 3
    assert set(rows[0]) == {"alpha", "beta", "delta", "tau_re", "tau_im", "j_re", "j_im"}
    jvals = sorted(float(r["j_re"]) for r in rows)
    assert any(abs(j - 1728) < 1e-6 for j in jvals)  # j(i) is 2-isogenous
    assert jvals[-1] > 8e10  # j(4i)


def test_decimal_input_is_read_at_working_precision(capsys):
    assert main(["orbit", "0.3+1.7i", "1", "--precision-bits", "256"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert (rows[0]["tau_re"], rows[0]["tau_im"]) == ("0.3", "1.7")


def test_density_reads_nonfinite_and_huge_z(capsys):
    for z, cell in (("nan", "nan"), ("1e400", "inf")):
        assert main(["density", "2i", z, "2", "3", "--precision-bits", "64"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert [r["best_distance"] for r in rows] == [cell] * 3


def test_tate_exact_values(capsys):
    assert main(["tate", "-1", "4"]) == 0
    rows = _rows(capsys.readouterr().out)
    table = {r["value"]: int(r["multiplicity"]) for r in rows}
    assert table == {"-4": 1, "-1": 1, "-1/4": 4}


def test_latcount_counts(capsys):
    assert main(["latcount", "1,0,1", "10"]) == 0
    rows = _rows(capsys.readouterr().out)
    counts = {int(r["n"]): int(r["fiber_count"]) for r in rows}
    assert counts[1] == 4
    assert counts[2] == 4
    assert counts[3] == 0
    assert counts[5] == 8


def test_jsonl_format(capsys):
    assert main(["tate", "-1", "2", "--format", "jsonl"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
    body = [l for l in lines if "_meta" not in l and "_summary" not in l]
    assert {r["value"]: r["multiplicity"] for r in body} == {"-2": 1, "-1/2": 2}


def test_negative_tokens_are_accepted(capsys):
    # leading-dash positionals (curve coefficients, valuations) must not be
    # read as flags
    assert main(["scan", "-1,0", "0,-1", "5", "20"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [int(r["p"]) for r in rows] == [11]


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["integral", "12345", "30", "--precision-bits", "64", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["integral", "12345", "30", "--precision-bits", "64",
                 "--seed", "6", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_out_file(tmp_path):
    target = tmp_path / "orbit.csv"
    assert main(["orbit", "i", "3", "--out", str(target)]) == 0
    rows = _rows(target.read_text())
    assert len(rows) == 4


def test_error_paths_return_two(capsys):
    assert main(["height", "1"]) == 2  # missing range argument
    assert main(["orbit", "notapoint", "2"]) == 2
    assert main(["tate", "1", "4"]) == 2  # positive valuation
    assert main(["scan", "0,0", "0,1", "5", "50"]) == 2  # singular curve
    assert main(["orbit", "2i", "2", "--precision-bits", "10"]) == 2
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_height_series(capsys):
    assert main(["height", "1", "2..3", "--precision-bits", "96"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [int(r["n"]) for r in rows] == [2, 3]
    assert int(rows[0]["e_n"]) == 3
    assert float(rows[0]["value"]) == pytest.approx(-43.39686924828896, rel=1e-6)


def test_residual_series(capsys):
    assert main(["residual", "1", "2", "2,3", "--precision-bits", "96"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [int(r["n"]) for r in rows] == [2, 3]
    for r in rows:
        assert abs(float(r["residual"])) < 30
