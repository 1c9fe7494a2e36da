"""Rendering and file parsing round trips."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tuttepoly import engines as eng
from tuttepoly import families as fam
from tuttepoly import matroids as mt
from tuttepoly.bipoly import BiPoly
from tuttepoly.errors import ParseError
from tuttepoly.formats import (
    parse_graph,
    parse_matrix,
    parse_matroid,
    parse_poly,
    poly_from_obj,
    poly_to_obj,
)
from tuttepoly.render import to_json, to_latex, to_text

polys = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.integers(-10 ** 12, 10 ** 12),
    max_size=12,
).map(BiPoly)


# -- text ----------------------------------------------------------------------


def test_text_golden_wheel():
    assert to_text(fam.wheel(3)) == (
        "x^3 + 3*x^2 + 2*x + 4*x*y + 2*y + 3*y^2 + y^3"
    )


def test_text_corner_cases():
    assert to_text(BiPoly({})) == "0"
    assert to_text(BiPoly({(0, 0): 1})) == "1"
    assert to_text(BiPoly({(0, 0): -7})) == "-7"
    assert to_text(BiPoly({(1, 1): 1})) == "x*y"
    assert to_text(BiPoly({(2, 0): -3, (1, 1): 1, (0, 0): 5})) == (
        "-3*x^2 + x*y + 5"
    )
    assert to_text(BiPoly({(1, 0): 1, (0, 1): -1})) == "x - y"


def test_text_order_is_x_major():
    p = BiPoly({(0, 2): 1, (2, 1): 1, (2, 0): 1, (1, 5): 1})
    assert to_text(p) == "x^2 + x^2*y + x*y^5 + y^2"


# -- latex ---------------------------------------------------------------------


def test_latex_braces_and_no_stars():
    assert to_latex(fam.wheel(3)) == (
        "x^{3} + 3x^{2} + 2x + 4xy + 2y + 3y^{2} + y^{3}"
    )
    assert to_latex(BiPoly({(12, 1): -2})) == "-2x^{12}y"


@given(polys)
def test_latex_is_text_with_braced_powers_and_no_stars(p):
    # both forms come from one rendering path: same terms, order and signs
    expected = re.sub(r"\^(\d+)", r"^{\1}", to_text(p)).replace("*", "")
    assert to_latex(p) == expected


# -- json ----------------------------------------------------------------------


def test_json_golden():
    obj = json.loads(to_json(fam.uniform(1, 2)))
    assert obj == {"terms": [[0, 1, "1"], [1, 0, "1"]]}


def test_json_sorted_by_total_degree_then_x():
    obj = poly_to_obj(BiPoly({(2, 0): 1, (0, 2): 1, (1, 0): 3, (1, 1): 9}))
    assert [t[:2] for t in obj["terms"]] == [[1, 0], [0, 2], [1, 1], [2, 0]]


@given(polys)
def test_json_round_trip(p):
    assert parse_poly(to_json(p)) == p


def test_poly_from_obj_merges_duplicates():
    assert poly_from_obj({"terms": [[1, 0, "2"], [1, 0, "3"]]}) == BiPoly(
        {(1, 0): 5}
    )


def test_poly_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("not json")
    with pytest.raises(ParseError):
        parse_poly('{"no_terms": []}')
    with pytest.raises(ParseError):
        parse_poly('{"terms": [[1, 0]]}')
    with pytest.raises(ParseError):
        parse_poly('{"terms": [[-1, 0, "1"]]}')
    with pytest.raises(ParseError):
        parse_poly('{"terms": [[0, 0, "x"]]}')


@pytest.mark.parametrize("coeff", ["1_0", " +\u0663 ", "+3", " 3", "3 ", ""])
def test_poly_coefficient_strings_are_ascii_decimal(coeff):
    # int() alone reads all but the empty one, as 10, 3, 3, 3 and 3
    with pytest.raises(ParseError):
        parse_poly(json.dumps({"terms": [[0, 0, "1"], [1, 0, coeff]]}))


def test_big_coefficients_survive_json():
    p = BiPoly({(1, 1): 10 ** 40})
    assert parse_poly(to_json(p)) == p


# -- graph files -----------------------------------------------------------------


def test_parse_graph_with_comments_and_multiedges():
    g = parse_graph("c square plus diagonal\np 4 5\ne 0 1\ne 1 2\ne 2 3\ne 3 0\ne 0 2\n")
    assert g.nverts == 4 and len(g.edges) == 5
    m = mt.Graphic(g)
    assert eng.tutte_dc(m) == eng.tutte_subset(m)


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("e 0 1\n")
    with pytest.raises(ParseError):
        parse_graph("p two 1\ne 0 1\n")
    with pytest.raises(ParseError):
        parse_graph("p 2 1\ne 0 5\n")
    with pytest.raises(ParseError):
        parse_graph("p 2 2\ne 0 1\n")
    with pytest.raises(ParseError):
        parse_graph("p 2 1\nx 0 1\n")


@pytest.mark.parametrize(
    "text",
    [
        "p 1_0 1\ne 0 1\n",  # header: int() reads 10
        "p 4 1\ne 0 \u0663\n",  # edge end: int() reads the Arabic-Indic 3
    ],
)
def test_parse_graph_takes_only_ascii_decimal_tokens(text):
    with pytest.raises(ParseError):
        parse_graph(text)


def test_parse_matrix_fano():
    mat = parse_matrix(
        "gf 2 3 7\n1 0 0 1 1 0 1\n0 1 0 1 0 1 1\n0 0 1 0 1 1 1\n"
    )
    assert eng.tutte_subset(mt.Linear(mat)) == fam.sparse_paving(3, 7, 7)


def test_parse_matrix_errors():
    with pytest.raises(ParseError):
        parse_matrix("p 2 2 2\n1 0 0 1\n")
    with pytest.raises(ParseError):
        parse_matrix("gf 2 2 2\n1 0 0\n")
    with pytest.raises(ParseError):
        parse_matrix("gf 2 2 2\n1 0 0 q\n")
    with pytest.raises(ParseError):  # a matrix entry int() would read as 1
        parse_matrix("gf 2 2 2\n1 0 0 +1\n")


# -- matroid json -----------------------------------------------------------------


def test_parse_matroid_kinds():
    assert eng.tutte_subset(
        parse_matroid('{"kind": "uniform", "r": 2, "n": 4}')
    ) == fam.uniform(2, 4)
    whirl = parse_matroid(
        '{"kind": "relax", "subset": [3, 4, 5], "of": {"kind": "graphic",'
        ' "vertices": 4,'
        ' "edges": [[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}}'
    )
    assert eng.tutte_subset(whirl) == fam.whirl(3)
    dual = parse_matroid('{"kind": "dual", "of": {"kind": "uniform", "r": 2, "n": 5}}')
    assert eng.tutte_subset(dual) == fam.uniform(3, 5)
    sp = parse_matroid(
        '{"kind": "sparse_paving", "r": 3, "n": 6,'
        ' "circuit_hyperplanes": [[0,1,2],[3,4,5]]}'
    )
    assert eng.tutte_subset(sp) == fam.sparse_paving(3, 6, 2)


def test_parse_matroid_errors():
    with pytest.raises(ParseError):
        parse_matroid('{"r": 2, "n": 4}')
    with pytest.raises(ParseError):
        parse_matroid('{"kind": "mystery"}')
    with pytest.raises(ParseError):
        parse_matroid('{"kind": "uniform", "r": 2}')
    with pytest.raises(ParseError):
        parse_matroid('{"kind": "uniform", "r": "two", "n": 4}')
    with pytest.raises(ParseError):
        parse_matroid('{"kind": "graphic", "vertices": 3, "edges": [[0]]}')


# Each field the matroid JSON format types as an integer, holding a value
# that int() would have coerced: a float, a bool or a string.
NON_INTEGER_FIELDS = {
    "r": {"kind": "uniform", "r": 2.7, "n": 4},
    "r-bool": {"kind": "uniform", "r": True, "n": 4},
    "r-string": {"kind": "uniform", "r": "2", "n": 4},
    "n": {"kind": "uniform", "r": 2, "n": 4.0},
    "p": {"kind": "linear", "p": 3.0, "rows": [[1, 0], [0, 1]]},
    "vertices": {"kind": "graphic", "vertices": 3.9, "edges": [[0, 1]]},
    "edge-end": {"kind": "graphic", "vertices": 3, "edges": [[0, 2.5]]},
    "matrix-entry": {"kind": "linear", "p": 3, "rows": [[1, 2.9]]},
    "circuit-hyperplane-element": {
        "kind": "sparse_paving", "r": 2, "n": 4,
        "circuit_hyperplanes": [[0, "1"]],
    },
    "block-element": {"kind": "paving", "r": 2, "n": 3, "blocks": [[0, 1.0]]},
    "basis-element": {"kind": "bases", "r": 1, "n": 2, "bases": [[False]]},
    "subset-element": {
        "kind": "relax", "subset": [0, 1.5],
        "of": {"kind": "uniform", "r": 2, "n": 4},
    },
}


@pytest.mark.parametrize("field", sorted(NON_INTEGER_FIELDS))
def test_matroid_integer_fields_reject_non_integers(field):
    with pytest.raises(ParseError):
        parse_matroid(json.dumps(NON_INTEGER_FIELDS[field]))


@pytest.mark.parametrize("term", [[1.0, 0, "1"], [0, True, "1"], ["1", 0, "1"],
                                  [1, 0, 2.9], [1, 0, False]])
def test_poly_terms_reject_non_integers(term):
    with pytest.raises(ParseError):
        poly_from_obj({"terms": [term]})


def test_poly_coefficients_are_ints_or_decimal_strings():
    assert poly_from_obj({"terms": [[1, 0, 2], [0, 1, "-3"]]}) == BiPoly(
        {(1, 0): 2, (0, 1): -3}
    )


def test_json_integers_too_long_to_read_are_parse_errors():
    digits = "1" * 5000  # past the interpreter's limit for reading an int
    with pytest.raises(ParseError):
        parse_matroid('{"kind": "uniform", "r": %s, "n": 3}' % digits)
    with pytest.raises(ParseError):
        parse_poly('{"terms": [[0, 0, %s]]}' % digits)
