import argparse
import csv
import io
import json

import numpy as np
import pytest
from mpmath import mp

from heckelab.cli import (
    COMMANDS,
    IntColumns,
    _build_parser,
    _emit,
    _parse_complex,
    _parse_gram,
    main,
)
from heckelab.lattices import _value_counts, counting_bound

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


def test_every_row_of_the_table_runs_its_self_test():
    assert set(COMMANDS) == set(SUBCOMMANDS)


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_self_tests_pass(cmd, capsys):
    assert main([cmd, "--self-test"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_help_of_every_row(cmd, capsys):
    # argparse formats each help string with %, so a stray % would raise
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: heckelab {cmd}")


def test_a_row_takes_only_the_shared_options_it_reads(capsys):
    for argv in (["orbit", "2i", "2", "--seed", "1"],
                 ["scan", "-1,0", "0,-1", "5", "20", "--precision-bits", "64"],
                 ["tate", "-1", "4", "--precision-bits", "64"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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
    # |j(2i) - 1e400| = 1e400 is finite: beyond float64, it is printed at
    # the run's digits rather than as inf
    for z, cell in (("nan", "nan"), ("1e400", "1.0e+400")):
        assert main(["density", "2i", z, "2", "3", "--precision-bits", "64"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert [r["best_distance"] for r in rows] == [cell] * 3


def test_infinite_z_is_read_as_a_real_infinity(capsys):
    for text, sign in (("inf", 1), ("-inf", -1)):
        z = _parse_complex(text, 64)
        assert (z.real, z.imag) == (sign * mp.inf, 0)
        assert main(["density", "2i", text, "2", "2", "--precision-bits", "64"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert [r["best_distance"] for r in rows] == ["inf"] * 2


# Output of the parser that read every 'i' as the unit, which could not
# read 'inf'; inputs without a word in them must still read the same.
_PINNED_OUTPUT = {
    ("orbit", "0.3+1.7i", "1"): "alpha,beta,delta,tau_re,tau_im,j_re,j_im\n"
    "1,0,1,0.3,1.7,-12711.733180389221,-41403.865594803672\n",
    ("orbit", "i", "2"): "alpha,beta,delta,tau_re,tau_im,j_re,j_im\n"
    "1,0,2,0.0,2.0,287496.0,0.0\n"
    "1,1,2,0.0,1.0,1728.0,0.0\n"
    "2,0,1,0.0,2.0,287496.0,0.0\n",
    ("density", "0.3+1.7i", "2i", "2", "2"): "n,best_distance\n"
    "1,43313.206601501515\n2,161.95710187813253\n# fraction=0.0\n",
    ("density", "2i", "nan", "2", "2"): "n,best_distance\n1,nan\n2,nan\n# fraction=0.0\n",
    ("density", "2i", "1e400", "2", "2"): "n,best_distance\n1,1.0e+400\n2,1.0e+400\n"
    "# fraction=0.0\n",
}


@pytest.mark.parametrize("args", list(_PINNED_OUTPUT))
def test_unit_and_number_inputs_read_as_before(args, capsys):
    assert main(list(args) + ["--precision-bits", "64"]) == 0
    assert capsys.readouterr().out == _PINNED_OUTPUT[args]


# Rows N >= 2 as the float64 distance printed them; |j(0.1+150i) - 5 + 2i|
# is about 2e409, which float64 read as inf
_HIGH_DENSITY_ROWS = [
    (2, "4.5337031034439766e+204"),
    (3, "2.739273424757486e+136"),
    (4, "2.1292494225533974e+102"),
    (5, "7.287544681208025e+81"),
    (6, "1.6550750510951115e+68"),
    (7, "2.973529883911757e+58"),
    (8, "1.4591947856792106e+51"),
]


def test_density_prints_a_distance_beyond_float64_as_finite(capsys):
    args = ["density", "0.1+150i", "5-2i", "2", "8", "--precision-bits", "64"]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        "n,best_distance\n1,2.0554463830177542e+409\n"
        + "".join(f"{n},{cell}\n" for n, cell in _HIGH_DENSITY_ROWS)
        + "# fraction=0.0\n"
    )
    assert main(args + ["--format", "jsonl"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == {"n": 1, "best_distance": "2.0554463830177542e+409"}
    assert [(r["n"], repr(r["best_distance"])) for r in rows[1:-1]] == _HIGH_DENSITY_ROWS


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


# Output of the per-triple sweep and the dict-per-row writer that the
# blocked sweep and the bulk writer replaced; 10,7,5 is not Lagrange-reduced,
# so its trailer counts the values of an unreduced form.
_PINNED_LATCOUNT = {
    ("latcount", "1,0,1", "30"): (
        "n,fiber_count\n1,4\n2,4\n3,0\n4,4\n5,8\n6,0\n7,0\n8,4\n9,4\n10,8\n11,0\n"
        "12,0\n13,8\n14,0\n15,0\n16,4\n17,8\n18,4\n19,0\n20,8\n21,0\n22,0\n23,0\n"
        "24,0\n25,12\n26,8\n27,0\n28,0\n29,8\n30,0\n"
        "# represented=15 bound=524.8178046004133 disc=1\n"
    ),
    ("latcount", "2,1,2", "30", "--format", "jsonl"): (
        '{"n": 1, "fiber_count": 0}\n{"n": 2, "fiber_count": 6}\n'
        '{"n": 3, "fiber_count": 0}\n{"n": 4, "fiber_count": 0}\n'
        '{"n": 5, "fiber_count": 0}\n{"n": 6, "fiber_count": 6}\n'
        '{"n": 7, "fiber_count": 0}\n{"n": 8, "fiber_count": 6}\n'
        '{"n": 9, "fiber_count": 0}\n{"n": 10, "fiber_count": 0}\n'
        '{"n": 11, "fiber_count": 0}\n{"n": 12, "fiber_count": 0}\n'
        '{"n": 13, "fiber_count": 0}\n{"n": 14, "fiber_count": 12}\n'
        '{"n": 15, "fiber_count": 0}\n{"n": 16, "fiber_count": 0}\n'
        '{"n": 17, "fiber_count": 0}\n{"n": 18, "fiber_count": 6}\n'
        '{"n": 19, "fiber_count": 0}\n{"n": 20, "fiber_count": 0}\n'
        '{"n": 21, "fiber_count": 0}\n{"n": 22, "fiber_count": 0}\n'
        '{"n": 23, "fiber_count": 0}\n{"n": 24, "fiber_count": 6}\n'
        '{"n": 25, "fiber_count": 0}\n{"n": 26, "fiber_count": 12}\n'
        '{"n": 27, "fiber_count": 0}\n{"n": 28, "fiber_count": 0}\n'
        '{"n": 29, "fiber_count": 0}\n{"n": 30, "fiber_count": 0}\n'
        '{"_summary": {"represented": 7, "bound": 321.9459338114337, "disc": "3"}}\n'
    ),
    ("latcount", "1,0,0,0,1,0,0,1,1/2,1", "12"): (
        "n,fiber_count\n1,10\n2,28\n3,30\n4,34\n5,80\n6,72\n7,36\n8,124\n9,130\n"
        "10,56\n11,144\n12,150\n"
    ),
    ("latcount", "10,7,5", "20"): (
        "n,fiber_count\n1,4\n2,4\n3,0\n4,4\n5,8\n6,0\n7,0\n8,4\n9,4\n10,8\n11,0\n"
        "12,0\n13,8\n14,0\n15,0\n16,4\n17,8\n18,4\n19,0\n20,8\n"
        "# represented=12 bound=356.77708763999664 disc=1\n"
    ),
}


@pytest.mark.parametrize("args", list(_PINNED_LATCOUNT))
def test_latcount_output_is_pinned(args, capsys):
    assert main(list(args)) == 0
    assert capsys.readouterr().out == _PINNED_LATCOUNT[args]


# The class-number-one values among them are the rational integers
# 1728, 0, 8000, -3375, 54000, -32768, 287496, -884736, 16581375, -12288000.
_PINNED_CM_8 = (
    "m,t,conductor,fundamental_disc,tau_re,tau_im,j_re,j_im\n"
    "1,0,1,-4,0.0,1.0,1728.0,0.0\n"
    "1,1,1,-3,-0.5,0.86602540378443864676372317075294,0.0,0.0\n"
    "2,0,1,-8,0.0,1.4142135623730950488016887242097,8000.0,0.0\n"
    "2,1,1,-7,-0.5,1.3228756555322952952508078768196,-3375.0,0.0\n"
    "3,0,2,-3,0.0,1.7320508075688772935274463415059,54000.0,0.0\n"
    "3,1,1,-11,-0.5,1.6583123951776999245574663683353,-32768.0,0.0\n"
    "4,0,2,-4,0.0,2.0,287496.0,0.0\n"
    "4,1,1,-15,-0.5,1.9364916731037084425896326998912,-191657.83286254720747135344482127,0.0\n"
    "5,0,1,-20,0.0,2.2360679774997896964091736687313,1264538.9094751405093202270474107,0.0\n"
    "5,1,1,-19,-0.5,2.1794494717703367761184909919298,-884736.0,0.0\n"
    "6,0,1,-24,0.0,2.4494897427831780981972840747059,4831907.9033513397453973662980491,0.0\n"
    "6,1,1,-23,-0.5,2.3979157616563597707987190320813,-3493225.6999699333682055047385473,0.0\n"
    "7,0,2,-7,0.0,2.6457513110645905905016157536393,16581375.0,0.0\n"
    "7,1,3,-3,-0.5,2.5980762113533159402911695122588,-12288000.0,0.0\n"
    "8,0,2,-8,0.0,2.8284271247461900976033774484194,52249767.137718184836513595802326,0.0\n"
    "8,1,1,-31,-0.5,2.7838821814150109610597356494593,-39492793.911556244143880327445303,0.0\n"
)


def test_cm_output_is_pinned(capsys):
    assert main(["cm", "8"]) == 0
    assert capsys.readouterr().out == _PINNED_CM_8


@pytest.mark.parametrize("bits", [53, 64, 96, 128, 256, 1024])
def test_cm_prints_j_at_i_and_rho_exactly(bits, capsys):
    # E4(rho) vanishes to working precision, so E4^3 rounds to 0 in fixed
    # point and j(rho) reads 0 at every precision, not by one rounding's luck
    assert main(["cm", "2", "--precision-bits", str(bits)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[6:] for row in rows if row[0] == "1"] == [["1728.0", "0.0"], ["0.0", "0.0"]]


def test_latcount_beyond_memory_exits_two(monkeypatch, capsys):
    # the count array for n_max = 10^10 would take 74.5 GiB: stand in for
    # its failed allocation rather than attempt it
    zeros = np.zeros

    def refusing(shape, *args, **kwargs):
        if np.prod(shape) > 10**9:
            raise MemoryError(f"cannot allocate {shape}")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing)
    assert main(["latcount", "1000000,0,1000000", "10000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate the counts for n_max = 10000000000")


def _csv_text(rows):
    """The oracle: rows as csv.writer writes them in _emit."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_int_columns_render_as_csv_writer_does():
    rng = np.random.default_rng(1808)
    tables = [
        [np.zeros(7, dtype=np.int64), np.zeros(7, dtype=np.int64)],  # zeros
        [np.array([0], dtype=np.int64), np.array([10**18], dtype=np.int64)],  # one row
        [np.array([123], dtype=np.int64)],  # one row, one column
        [np.array([np.iinfo(np.int64).max, 9, 10], dtype=np.int64)],
    ]
    for _ in range(40):
        # every cell of 1 to 18 digits, zeros among them
        digits = rng.integers(1, 19, size=(int(rng.integers(1, 60)), int(rng.integers(1, 5))))
        cells = rng.integers(0, 10**digits, dtype=np.int64)
        cells[rng.random(cells.shape) < 0.1] = 0
        tables.append(list(cells.T.copy()))
    for columns in tables:
        rows = IntColumns(*columns)
        expected = _csv_text(zip(*(col.tolist() for col in columns)))
        assert rows.csv_body() == expected
        assert list(rows) == list(zip(*(col.tolist() for col in columns)))


def test_int_columns_take_only_nonnegative_int64_columns():
    good = np.arange(3, dtype=np.int64)
    for columns in (
        (np.array([1, -1, 2], dtype=np.int64),),  # negative
        (good, np.array([0, 0, -(2**63)], dtype=np.int64)),
        (np.arange(3, dtype=np.int32),),  # not int64
        (np.arange(3, dtype=np.uint64),),
        (np.arange(3.0),),
        ([0, 1, 2],),  # not an array
        (good.reshape(1, 3),),  # not one-dimensional
        (good, good[:2]),  # unequal lengths
        (),
    ):
        with pytest.raises(ValueError):
            IntColumns(*columns)


def test_latcount_with_n_max_zero_writes_no_rows(capsys):
    assert main(["latcount", "1,0,1", "0"]) == 0
    assert capsys.readouterr().out == (
        "n,fiber_count\n# represented=0 bound=1.0 disc=1\n"
    )
    assert main(["latcount", "1,0,1", "0", "--format", "jsonl"]) == 0
    assert capsys.readouterr().out == (
        '{"_summary": {"represented": 0, "bound": 1.0, "disc": "1"}}\n'
    )


def test_latcount_body_is_the_csv_writer_body(capsys, tmp_path):
    form = _parse_gram("1,0,1")
    counts = _value_counts(form, 5000)
    expected = (
        "n,fiber_count\n"
        + _csv_text(zip(range(1, 5001), counts[1:].tolist()))
        + f"# represented={np.count_nonzero(counts[1:])} "
        f"bound={counting_bound(5000, form.disc)} disc=1\n"
    )
    assert main(["latcount", "1,0,1", "5000"]) == 0
    # compared line by line: a failing assert then reports the first
    # differing line, not a diff of the whole text
    assert capsys.readouterr().out.split("\n") == expected.split("\n")
    target = tmp_path / "latcount.csv"
    assert main(["latcount", "1,0,1", "5000", "--out", str(target)]) == 0
    assert target.read_bytes().split(b"\n") == expected.encode("ascii").split(b"\n")


def test_latcount_rejects_a_sweep_beyond_int64(capsys):
    near_one = "1000000000000000001/1000000000000000000"
    assert main(["latcount", f"{near_one},0,{near_one}", "20"]) == 2
    assert ">= 2^63" in capsys.readouterr().err

def test_latcount_rejects_a_negative_n_max(capsys):
    for args in (["5,2,7", "-1"], ["5,2,7", "-3"], ["1,0,0,0,1,0,0,1,1/2,1", "-1"]):
        assert main(["latcount"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n_max must be >= 0, got {args[1]}\n"


# Output of the full x-sweep per curve and prime that the half-sweep over
# shared per-prime tables replaced: a twist pair by 3 (every good prime is a
# hit) and a pair with rational coefficients.
_SCAN_3_300 = [
    (5, 2, 1, -1), (7, 1, 0, 0), (11, 1, -2, -2), (13, 1, 1, 1), (17, 2, 4, -4),
    (19, 2, 2, -2), (23, 1, -4, -4), (29, 2, -2, 2), (31, 2, -10, 10), (37, 1, -5, -5),
    (41, 2, -5, 5), (43, 2, -4, 4), (47, 1, 6, 6), (59, 1, 0, 0), (61, 1, 4, 4),
    (67, 2, 4, -4), (71, 1, -12, -12), (73, 1, 10, 10), (79, 2, 10, -10), (83, 1, -12, -12),
    (89, 2, 16, -16), (97, 1, -1, -1), (101, 2, 11, -11), (103, 2, -18, 18), (107, 1, 6, 6),
    (109, 1, -14, -14), (113, 2, -12, 12), (127, 2, -14, 14), (131, 1, -2, -2), (137, 2, 13, -13),
    (139, 1, 0, 0), (149, 2, 18, -18), (151, 2, 10, -10), (157, 1, 8, 8), (163, 2, -19, 19),
    (167, 1, -19, -19), (173, 2, -23, 23), (179, 1, -3, -3), (181, 1, -2, -2), (191, 1, 11, 11),
    (193, 1, -6, -6), (197, 2, 8, -8), (199, 2, -27, 27), (211, 2, 13, -13), (223, 2, -29, 29),
    (227, 1, 2, 2), (229, 1, -15, -15), (233, 2, 25, -25), (239, 1, 24, 24), (241, 1, 6, 6),
    (251, 1, 28, 28), (257, 2, -21, 21), (263, 1, 17, 17), (269, 2, -2, 2), (271, 1, 0, 0),
    (277, 1, 2, 2), (281, 2, -14, 14), (283, 2, -14, 14), (293, 2, -22, 22),
]
_SCAN_3_300_TRAILER = {"hits": 59, "coincidences": 30, "heuristic": 21.693310367168802}
_PINNED_SCAN = {
    ("scan", "3,-7", "27,-189", "5", "300"): (
        "p,k,a_p_left,a_p_right\n"
        + "".join(f"{p},{k},{l},{r}\n" for p, k, l, r in _SCAN_3_300)
        + "# hits=59 coincidences=30 heuristic=21.693310367168802\n"
    ),
    ("scan", "3,-7", "27,-189", "5", "300", "--format", "jsonl"): "".join(
        json.dumps({"p": p, "k": k, "a_p_left": l, "a_p_right": r}) + "\n"
        for p, k, l, r in _SCAN_3_300
    )
    + json.dumps({"_summary": _SCAN_3_300_TRAILER})
    + "\n",
    ("scan", "1/3,-5/7", "2/9,7/4", "5", "3000"): (
        "p,k,a_p_left,a_p_right\n"
        "421,2,-30,30\n"
        "1381,1,-25,-25\n"
        "1423,1,-66,-66\n"
        "1663,6,-73,-68\n"
        "1783,1,-76,-76\n"
        "2081,1,27,27\n"
        "2243,1,-54,-54\n"
        "2551,2,-52,52\n"
        "2741,2,22,-22\n"
        "# hits=9 coincidences=5 heuristic=2.610966773545043\n"
    ),
}


@pytest.mark.parametrize("args", list(_PINNED_SCAN))
def test_scan_output_is_pinned(args, capsys):
    assert main(list(args)) == 0
    assert capsys.readouterr().out == _PINNED_SCAN[args]


def test_jsonl_format(capsys):
    assert main(["tate", "-1", "2", "--format", "jsonl"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
    body = [l for l in lines if "_meta" not in l and "_summary" not in l]
    assert {r["value"]: r["multiplicity"] for r in body} == {"-2": 1, "-1/2": 2}


def test_emit_writes_header_and_trailer_in_both_formats(capsys):
    # no row of COMMANDS returns a header yet; _emit writes it ahead of the
    # rows, as a comment line or a _meta object
    for fmt, want in (
        ("csv", "# bits=64\nn,e_n\n2,3\n# rows=1\n"),
        ("jsonl", '{"_meta": {"bits": 64}}\n{"n": 2, "e_n": 3}\n{"_summary": {"rows": 1}}\n'),
    ):
        _emit(argparse.Namespace(out=None, format=fmt), ["n", "e_n"], [(2, 3)],
              {"bits": 64}, {"rows": 1})
        assert capsys.readouterr().out == want, fmt


def test_height_reads_a_range_of_primes(capsys):
    assert main(["height", "1", "primes:10..30"]) == 0
    assert [int(r["n"]) for r in _rows(capsys.readouterr().out)] == [11, 13, 17, 19, 23, 29]


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


def test_parser_is_built_once_and_carries_nothing_over(capsys):
    assert _build_parser() is _build_parser()
    first = ["orbit", "2i", "2", "--precision-bits", "64", "--format", "jsonl"]
    outs = []
    for argv in (first, ["orbit", "2i", "2"], ["scan", "--self-test"], first):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[3] == outs[0]
    # the default-precision run reads as one parsed by a parser of its own
    args = _build_parser.__wrapped__().parse_args(["orbit", "2i", "2"])
    assert (args.precision_bits, args.format) == (128, "csv")
    assert args.func(args) == 0
    assert capsys.readouterr().out == outs[1]


def test_out_file(tmp_path):
    target = tmp_path / "orbit.csv"
    assert main(["orbit", "i", "3", "--out", str(target)]) == 0
    rows = _rows(target.read_text())
    assert len(rows) == 4


def test_error_paths_return_two(capsys, monkeypatch):
    assert main(["height", "1"]) == 2  # missing range argument
    assert main(["orbit", "notapoint", "2"]) == 2
    assert main(["tate", "1", "4"]) == 2  # positive valuation
    assert main(["scan", "0,0", "0,1", "5", "50"]) == 2  # singular curve
    assert main(["scan", "-1,0", "0,-1", "50", "5"]) == 2  # p_min > p_max
    assert main(["orbit", "2i", "2", "--precision-bits", "10"]) == 2
    err = capsys.readouterr().err
    assert "error" in err.lower()
    for argv in (["tate", "1/0", "4"], ["scan", "1/0,1", "2,3", "5", "50"],
                 ["latcount", "1/0,0,1", "5"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"
    gram = "error: gram must have 3 entries (rank 2: a,b,c) or 10 (rank 4 upper triangle)\n"
    for argv, message in (
        (["equi", "0.3-1i", "5", "1.5"], "error: Im tau must be positive, got '0.3-1i'\n"),
        (["scan", "1,2,3", "0,1", "5", "50"],
         "error: curve must be 'a4,a6' rationals, got '1,2,3'\n"),
        (["latcount", "1,2", "5"], gram),
        (["latcount", "1,2,3,4", "5"], gram),
        (["integral", "0", "4", "--seed", "-1"], "error: seed must be nonnegative\n"),
        (["height", "1", "1"], "error: need N >= 2 for the log N normalization\n"),
        (["residual", "1", "2", "1"], "error: need N >= 2 for the log N normalization\n"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == message, argv
    # sizes past memory: the sieve's marks and the triples' columns would
    # take terabytes, so their failed allocations are stood in for
    def refusing(make, size):
        def call(*args, **kwargs):
            if size(*args) > 10**9:
                raise MemoryError(f"cannot allocate {args}")
            return make(*args, **kwargs)

        return call

    monkeypatch.setattr(np, "ones", refusing(np.ones, lambda shape, *_: np.prod(shape)))
    monkeypatch.setattr(
        np, "arange", refusing(np.arange, lambda *a: a[1] - a[0] if len(a) > 1 else a[0])
    )
    big = "100000000000000"  # 10^14; T_N has psi(N) = 1.8 * 10^14 triples
    triples = f"error: cannot allocate the 180000000000000 triples of N = {big}:"
    for argv, message in (
        (["scan", "1,1", "2,3", "5", big], f"error: cannot sieve the primes up to {big}:"),
        (["orbit", "0.1+1.2i", big], triples),
        (["equi", "0.1+1.2i", big, "1.5"], triples),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(message), argv


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
