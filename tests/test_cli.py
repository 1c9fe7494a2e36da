"""Command-line interface: goldens, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from tuttepoly import catalog as cat
from tuttepoly import cli
from tuttepoly import engines as eng

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


def test_negative_vertex_count_is_rejected(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text('{"kind": "graphic", "vertices": -2, "edges": []}')
    code, out, err = run(["compute", "--matroid", str(path)], capsys)
    assert code == 2 and out == "" and err


def test_exit_three_on_budget(tmp_path, capsys):
    path = tmp_path / "u49.json"
    path.write_text('{"kind": "uniform", "r": 4, "n": 9}')
    code, _, err = run(
        ["compute", "--matroid", str(path), "--engine", "dc",
         "--budget-nodes", "5"],
        capsys,
    )
    assert code == 3 and err


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
