"""Command-line interface: goldens, exit codes, determinism."""

from __future__ import annotations

import json
import sys
import time

import pytest

from tuttepoly import catalog as cat
from tuttepoly import cli
from tuttepoly import engines as eng
from tuttepoly import families as fam

WHEEL3 = "x^3 + 3*x^2 + 2*x + 4*x*y + 2*y + 3*y^2 + y^3"

C4_FILE = "p 4 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
FANO_JSON = json.dumps({
    "kind": "sparse_paving", "r": 3, "n": 7,
    "circuit_hyperplanes": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5],
                            [1, 4, 6], [2, 3, 6], [2, 4, 5]],
})


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_wheel_golden(capsys):
    code, out, _ = run(["compute", "--family", "wheel", "--n", "3"], capsys)
    assert code == 0 and out == WHEEL3 + "\n"


def test_compute_graph_dc_golden(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    path.write_text(C4_FILE)
    code, out, _ = run(
        ["compute", "--graph", str(path), "--engine", "dc"], capsys
    )
    assert code == 0 and out == "x^3 + x^2 + x + y\n"


def test_compute_empty_matroid(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"kind": "uniform", "r": 0, "n": 0}')
    code, out, _ = run(["compute", "--matroid", str(path)], capsys)
    assert code == 0 and out == "1\n"


def test_compute_formats(capsys):
    code, out, _ = run(
        ["compute", "--family", "cycle", "--n", "2", "--format", "latex"],
        capsys,
    )
    assert code == 0 and out == "x + y\n"
    code, out, _ = run(
        ["compute", "--family", "cycle", "--n", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"terms": [[0, 1, "1"], [1, 0, "1"]]}


def test_compute_matrix_input(tmp_path, capsys):
    path = tmp_path / "u24.gf"
    path.write_text("gf 3 2 4\n1 0 1 1\n0 1 1 2\n")
    code, out, _ = run(["compute", "--matrix", str(path)], capsys)
    assert code == 0 and out == "x^2 + 2*x + 2*y + y^2\n"


def test_compute_matrix_over_a_large_prime(tmp_path, capsys):
    # GF(2^61 - 1): the modulus is checked by Miller-Rabin, not trial division
    path = tmp_path / "u12.gf"
    path.write_text("gf 2305843009213693951 1 2\n1 1\n")
    start = time.perf_counter()
    code, out, _ = run(["compute", "--matrix", str(path)], capsys)
    assert code == 0 and out == "x + y\n"
    assert time.perf_counter() - start < 5


def test_engines_agree_on_cli(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    path.write_text(C4_FILE)
    outs = set()
    for engine in ("subset", "dc", "activities", "coboundary"):
        code, out, _ = run(
            ["compute", "--graph", str(path), "--engine", engine], capsys
        )
        assert code == 0
        outs.add(out)
    assert outs == {"x^3 + x^2 + x + y\n"}


def test_eval_fano_and_k5(tmp_path, capsys):
    path = tmp_path / "f7.json"
    path.write_text(FANO_JSON)
    code, out, _ = run(
        ["eval", "--matroid", str(path), "--x", "1", "--y", "1"], capsys
    )
    assert code == 0 and out == "28\n"
    code, out, _ = run(
        ["eval", "--family", "complete", "--n", "5", "--x", "1", "--y", "1"],
        capsys,
    )
    assert code == 0 and out == "125\n"


def test_eval_rational_point(capsys):
    code, out, _ = run(
        ["eval", "--family", "uniform", "--r", "1", "--n", "2",
         "--x", "1/2", "--y", "1/3"],
        capsys,
    )
    assert code == 0 and out == "5/6\n"


def test_eval_takes_a_negative_fraction_as_the_next_token(capsys):
    joined = ["eval", "--family", "wheel", "--n", "3", "--x=-1/2", "--y=-2/3"]
    split = ["eval", "--family", "wheel", "--n", "3", "--x", "-1/2", "--y", "-2/3"]
    code, out, _ = run(split, capsys)
    assert code == 0 and (code, out) == run(joined, capsys)[:2]


def test_eval_two_two_power(tmp_path, capsys):
    path = tmp_path / "f7.json"
    path.write_text(FANO_JSON)
    code, out, _ = run(
        ["eval", "--matroid", str(path), "--x", "2", "--y", "2"], capsys
    )
    assert code == 0 and out == "128\n"


def test_catalog_list(capsys):
    code, out, _ = run(["catalog", "list"], capsys)
    names = out.splitlines()
    assert code == 0 and len(names) >= 45 and names == sorted(names)
    assert "F7" in names and "R10" in names


def test_catalog_show_text(capsys):
    code, out, _ = run(["catalog", "show", "F7"], capsys)
    assert code == 0
    assert "recipe:" in out and "x^3 + 4*x^2" in out


def test_catalog_show_json_round_trip(capsys):
    code, out, _ = run(["catalog", "show", "Q8", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj == cat.entry_to_obj(cat.lookup("Q8"))
    assert "erratum" in obj


def test_catalog_verify_pass(capsys):
    code, out, _ = run(["catalog", "verify", "F7"], capsys)
    assert code == 0 and out.startswith("PASS F7")


def test_catalog_verify_erratum_still_ok(capsys):
    code, out, _ = run(["catalog", "verify", "Q8"], capsys)
    assert code == 0 and out.startswith("ERRATUM-CONFIRMED Q8")


def test_catalog_verify_json(capsys):
    code, out, _ = run(
        ["catalog", "verify", "W3", "--format", "json"], capsys
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["ok"] and report["basis_count"] == 16
    assert len(report["routes"]) >= 3
    assert len(set(report["routes"].values())) == 1


def test_catalog_verify_mismatch_exits_four(monkeypatch, capsys):
    fake = [{"name": "X", "ok": False, "matches_truth": False,
             "erratum_confirmed": False, "routes_agree": True,
             "basis_count": None, "routes": {}}]
    monkeypatch.setattr(cat, "verify_all", lambda selected=None: fake)
    code, out, _ = run(["catalog", "verify", "all"], capsys)
    assert code == 4 and out.startswith("FAIL X")


def test_exit_two_on_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("not a graph\n")
    for argv in (
        ["compute", "--graph", str(bad)],
        ["compute"],
        ["compute", "--family", "wheel"],
        ["compute", "--family", "wheel", "--n", "3",
         "--graph", str(bad)],
        ["compute", "--matroid", str(tmp_path / "missing.json")],
        ["catalog", "show", "F99"],
        ["compute", "--family", "nope", "--n", "3"],
        ["eval", "--family", "wheel", "--n", "3", "--x", "1/0", "--y", "1"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert err


@pytest.mark.parametrize("flag, text, message", [
    ("--matroid", '{"kind": "lattice_path", "lower": "NE", "upper": "EE"}',
     "paths must share their endpoint"),
    ("--matroid", '{"kind": "sparse_paving", "r": 0, "n": 3, "circuit_hyperplanes": []}',
     "sparse paving needs 0 < r < n"),
    ("--matroid", '{"kind": "bases", "r": 1, "n": 2, "bases": []}',
     "need at least one basis"),
    ("--matroid", '{"kind": "uniform",', "invalid matroid JSON"),
    ("--graph", "p -1 0\n", "vertex and edge counts must be nonnegative"),
    ("--matrix", "gf 2 x 3\n", "bad matrix header"),
    pytest.param("--matroid", '{"kind": "uniform", "r": 1%s, "n": 3}' % ("0" * 5000),
                 "invalid matroid JSON", id="--matroid-5001-digit-integer"),
])
def test_exit_two_names_the_bad_input(tmp_path, capsys, flag, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run(["compute", flag, str(path)], capsys)
    assert code == 2 and out == "" and message in err


def test_input_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "bytes"
    path.write_bytes(b"\xff\xfe")
    for flag in ("--graph", "--matroid", "--matrix"):
        code, out, err = run(["compute", flag, str(path)], capsys)
        assert code == 2 and out == "" and "cannot read" in err, flag


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "wheel", "--n", "30", "--x", "1e200", "--y", "1"],
    ["eval", "--family", "complete", "--n", "30", "--x", "1e20", "--y", "1e20"],
])
def test_value_too_long_to_print_exits_three(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


# 10**10**7 alone takes seconds to build: only the exponent check refuses it at once;
# 4,300 decimals put a 4,301-digit power of ten under the numerator
@pytest.mark.parametrize("value", ["1e1000000", "1e-1000000", "1e10000000",
                                   pytest.param("0." + "1" * 4300, id="4300-decimals")])
def test_value_too_long_to_read_exits_two_at_once(value, capsys):
    start = time.perf_counter()
    code, out, err = run(
        ["eval", "--family", "complete", "--n", "30", "--x", value, "--y", "1"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "not a rational" in err


def test_matrix_without_rows_keeps_its_columns(tmp_path, capsys):
    path = tmp_path / "zero.gf"
    path.write_text("gf 2 0 3\n")
    code, out, _ = run(["compute", "--matrix", str(path)], capsys)
    assert code == 0 and out == "y^3\n"


def test_negative_matrix_dimensions_are_a_parse_error(tmp_path, capsys):
    path = tmp_path / "neg.gf"
    path.write_text("gf 2 -1 -1\n1\n")
    code, out, err = run(["compute", "--matrix", str(path)], capsys)
    assert code == 2 and out == "" and err


def test_non_ascii_decimal_graph_token_exits_two(tmp_path, capsys):
    path = tmp_path / "ten.edges"
    path.write_text("p 1_0 1\ne 0 \u0663\n")
    code, out, err = run(["compute", "--graph", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_negative_vertex_count_is_rejected(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text('{"kind": "graphic", "vertices": -2, "edges": []}')
    code, out, err = run(["compute", "--matroid", str(path)], capsys)
    assert code == 2 and out == "" and err


def test_non_integer_matroid_field_exits_two(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text('{"kind": "uniform", "r": 2.7, "n": 4}')
    code, out, err = run(["compute", "--matroid", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_paving_block_spanning_the_ground_set_exits_two(tmp_path, capsys):
    path = tmp_path / "paving.json"
    path.write_text('{"kind": "paving", "r": 2, "n": 3, "blocks": [[0, 1, 2]]}')
    code, out, err = run(["compute", "--matroid", str(path)], capsys)
    assert code == 2 and out == "" and "whole ground set" in err


def test_paving_file_is_count_checked_before_enumeration(tmp_path, capsys):
    # one 59-element block of a rank-12 matroid on 60 elements: the parent
    # listed its C(59, 11) 11-subsets before it checked anything
    path = tmp_path / "paving.json"
    path.write_text(json.dumps({"kind": "paving", "r": 12, "n": 60,
                                "blocks": [list(range(59))]}))
    code, out, err = run(["compute", "--matroid", str(path)], capsys)
    assert code == 2 and out == ""
    assert "blocks cover 279871768995 of the 342700125300 (11)-subsets" in err


def test_bases_file_past_sixteen_elements_is_exchange_checked(tmp_path, capsys):
    # two disjoint bases are no matroid; on 17 elements this file was taken
    # unchecked, and deletion-contraction printed x^2*y^14 + 2*y^15
    path = tmp_path / "bases.json"
    path.write_text(json.dumps({"kind": "bases", "r": 2, "n": 17,
                                "bases": [[0, 1], [2, 3]]}))
    code, out, err = run(["compute", "--matroid", str(path), "--engine", "dc"], capsys)
    assert code == 2 and out == ""
    assert "basis-exchange axiom fails on [0, 1], [2, 3] at 0" in err


def test_bases_file_past_the_enumeration_limit_exits_three(tmp_path, capsys):
    path = tmp_path / "bases.json"
    path.write_text(json.dumps({"kind": "bases", "r": 1, "n": 25, "bases": [[0]]}))
    code, out, err = run(["compute", "--matroid", str(path)], capsys)
    assert code == 3 and out == "" and "enumeration limit 24" in err


def test_bases_file_at_the_enumeration_limit_is_accepted(tmp_path, capsys):
    path = tmp_path / "u324.json"
    path.write_text(json.dumps({"kind": "bases", "r": 3, "n": 24, "bases": [
        [a, b, c] for a in range(24) for b in range(a + 1, 24)
        for c in range(b + 1, 24)]}))
    code, out, _ = run(["compute", "--matroid", str(path), "--engine", "coboundary"],
                       capsys)
    assert code == 0
    assert run(["compute", "--family", "uniform", "--r", "3", "--n", "24"],
               capsys) == (0, out, "")


def test_exit_three_on_budget(tmp_path, capsys):
    path = tmp_path / "u49.json"
    path.write_text('{"kind": "uniform", "r": 4, "n": 9}')
    code, _, err = run(
        ["compute", "--matroid", str(path), "--engine", "dc",
         "--budget-nodes", "5"],
        capsys,
    )
    assert code == 3 and err


def test_budget_below_one_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "u49.json"
    path.write_text('{"kind": "uniform", "r": 4, "n": 9}')
    for cap in ("0", "-5"):
        code, out, err = run(
            ["compute", "--matroid", str(path), "--engine", "dc",
             "--budget-nodes", cap],
            capsys,
        )
        assert code == 2 and out == "" and "at least 1" in err, cap


def test_complete_family_exit_codes(capsys):
    # no vertex is a bad parameter (2); more than 30 is over the size budget (3)
    code, out, err = run(["compute", "--family", "complete", "--n", "0"], capsys)
    assert code == 2 and out == "" and "need n >= 1" in err
    code, out, err = run(["compute", "--family", "complete", "--n", "31"], capsys)
    assert code == 3 and out == "" and "1..30" in err


@pytest.mark.parametrize("family", ["wheel", "whirl", "grid2"])
def test_recurrence_family_size_guard(family, capsys):
    # past RECURRENCE_LIMIT the packed recurrences would allocate gigabytes
    start = time.perf_counter()
    code, out, err = run(["compute", "--family", family, "--n", "1000000"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "Traceback" not in err
    assert f"supported range is n <= {fam.RECURRENCE_LIMIT}" in err


def test_geometry_of_dimension_zero_exits_two(capsys):
    code, out, err = run(["compute", "--family", "projective", "--dim", "0", "--q", "2"],
                         capsys)
    assert code == 2 and out == "" and "need dimension >= 1" in err


def test_uniform_family_size_guard(capsys):
    # more than UNIFORM_LIMIT elements is over the size budget (3), refused
    # before any work: a billion elements returns as fast as one past the limit
    for n in (fam.UNIFORM_LIMIT + 1, 10**9):
        start = time.perf_counter()
        code, out, err = run(["compute", "--family", "uniform", "--r", "5", "--n", str(n)],
                             capsys)
        assert code == 3 and out == "" and "Traceback" not in err
        assert f"n <= {fam.UNIFORM_LIMIT}" in err and time.perf_counter() - start < 1


def test_geometry_family_size_guard(capsys):
    # more than 2^16 points is over the size budget (3), refused before any work
    for argv in (
        ["compute", "--family", "projective", "--dim", "9", "--q", "7"],
        ["eval", "--family", "affine", "--dim", "17", "--q", "2", "--x", "1", "--y", "1"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 3 and out == "" and "65536 points" in err


def test_gaussian_is_not_a_polynomial_family(capsys):
    # families.gaussian returns an integer, which neither renders nor evaluates
    for argv in (
        ["compute", "--family", "gaussian", "--m", "5", "--k", "2", "--q", "3"],
        ["eval", "--family", "gaussian", "--m", "5", "--k", "2", "--q", "3",
         "--x", "1", "--y", "1"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", argv
        assert "invalid choice" in err and "Traceback" not in err


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_exit_three_on_recursion_and_memory(monkeypatch, tmp_path, capsys, exc):
    def boom(m, budget_nodes=None):
        raise exc()

    monkeypatch.setattr(eng, "tutte_dc", boom)
    path = tmp_path / "c4.edges"
    path.write_text(C4_FILE)
    code, out, err = run(["compute", "--graph", str(path)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_family_grid_transfer(capsys):
    code, out, _ = run(
        ["compute", "--family", "grid", "--m", "2", "--n", "3"], capsys
    )
    assert code == 0
    code2, out2, _ = run(
        ["compute", "--family", "grid2", "--n", "3"], capsys
    )
    assert code2 == 0 and out == out2


def test_catalog_verify_all_green(capsys):
    code, out, _ = run(["catalog", "verify", "all"], capsys)
    lines = out.splitlines()
    assert code == 0 and len(lines) == len(cat.names())
    assert sum(1 for l in lines if l.startswith("ERRATUM-CONFIRMED")) == 1
    assert all(l.startswith(("PASS", "ERRATUM-CONFIRMED")) for l in lines)
