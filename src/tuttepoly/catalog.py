"""Corpus of small named matroids with published Tutte polynomials.

Each entry pairs a construction recipe (a tiny whitelisted expression
language over the matroid constructors) with the polynomial exactly as
printed in the source table.  verify() recomputes the polynomial along
several independent routes - general engines on the built matroid plus
any applicable closed-form family formula - and reports agreement.
Printed values that the routes unanimously contradict are reported as
erratum candidates, never silently corrected.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from functools import cache
from importlib import resources

from . import engines as eng
from . import families as fam
from . import graphs
from . import matroids as mt
from .bipoly import BiPoly, X, Y
from .errors import ParseError, UnknownEntry
from .formats import poly_from_obj, poly_to_obj
from .gf import GFMatrix


CatalogEntry = namedtuple(
    "CatalogEntry", "name recipe ground_truth provenance flags erratum", defaults=(None,)
)


# -- recipe language -----------------------------------------------------------
#
# expr := NAME '(' [expr (',' expr)*] ')' | integer | '[' [expr (',' expr)*] ']'
# A recipe is read into a whole tree before any constructor runs, and only
# whitelisted constructors run; integers are ASCII decimals.

_TOKEN = re.compile(r"\s*(?:(-?[0-9]+)|(\w+)|(\S))")  # (integer, name, punctuation)
_END = ("", "", "")


def _parse(recipe):
    """The tree of a recipe: ("int", n), ("list", items) or ("call", name,
    args); ParseError unless the whole text is one expression."""
    tokens = [_END] + _TOKEN.findall(recipe)[::-1]  # next token last

    def expr():
        token = tokens.pop()
        number, name, punct = token
        if number:
            return ("int", int(number))
        if punct == "[":
            return ("list", items("]"))
        if name and tokens[-1][2] == "(":
            tokens.pop()
            return ("call", name, items(")"))
        raise ParseError(f"expected an expression in recipe, got {''.join(token)!r}")

    def items(closer):
        out = []
        punct = tokens.pop()[2] if tokens[-1][2] == closer else ","
        while punct == ",":
            out.append(expr())
            punct = tokens.pop()[2]
        if punct != closer:
            raise ParseError(f"expected ',' or {closer!r} in recipe")
        return out

    tree = expr()
    if tokens != [_END]:
        raise ParseError("trailing input in recipe")
    return tree


def _graphic(builder):
    return lambda *sizes: mt.Graphic(builder(*sizes))


_CONSTRUCTORS = {
    "uniform": mt.Uniform,
    "cycle_graph": _graphic(graphs.cycle_graph),
    "complete_graph": _graphic(graphs.complete_graph),
    "complete_bipartite_graph": _graphic(graphs.complete_bipartite_graph),
    "grid_graph": _graphic(graphs.grid_graph),
    "wheel_graph": _graphic(graphs.wheel_graph),
    "gf": lambda q, rows: mt.Linear(GFMatrix(q, rows)),
    "sparse": lambda r, n, chs: mt.SparsePaving(r, n, [frozenset(c) for c in chs]),
    "blocks": lambda r, n, bs: mt.PavingPartition(r, n, [frozenset(b) for b in bs]),
    "catalan": mt.catalan_matroid,
    "relax": lambda m, elems: mt.relax(m, frozenset(elems)),
    "dual": mt.dual,
    "delete": mt.delete,
    "contract": mt.contract,
    "parallel_ext": mt.parallel_extension,
    "free_ext": mt.free_extension,
}


def _eval(node):
    tag = node[0]
    if tag == "int":
        return node[1]
    if tag == "list":
        return [_eval(item) for item in node[1]]
    _, name, args = node
    if name not in _CONSTRUCTORS:
        raise ParseError(f"recipe uses unknown constructor {name!r}")
    return _CONSTRUCTORS[name](*map(_eval, args))


def build_recipe(recipe):
    """Execute a recipe string; the result must be a matroid."""
    out = _eval(_parse(recipe))
    if not isinstance(out, mt.Matroid):
        raise ParseError("recipe did not produce a matroid")
    return out


# -- catalog data ---------------------------------------------------------------


@cache
def _load():
    raw = (resources.files("tuttepoly") / "data" / "catalog.json").read_text()
    entries = {}
    for item in json.loads(raw)["entries"]:
        err = item.get("erratum")
        if err is not None:
            err = dict(err)
            err["derived_truth"] = poly_from_obj(err["derived_truth"])
        entries[item["name"]] = CatalogEntry(
            name=item["name"],
            recipe=item["recipe"],
            ground_truth=poly_from_obj(item["ground_truth"]),
            provenance=item["provenance"],
            flags=item["flags"],
            erratum=err,
        )
    return entries


def names():
    return sorted(_load())


def lookup(name):
    entries = _load()
    if name not in entries:
        raise UnknownEntry(f"no catalog entry named {name!r}")
    return entries[name]


def build(name):
    return build_recipe(lookup(name).recipe)


def entry_to_obj(entry):
    obj = {
        "name": entry.name,
        "recipe": entry.recipe,
        "ground_truth": poly_to_obj(entry.ground_truth),
        "provenance": entry.provenance,
        "flags": entry.flags,
    }
    if entry.erratum is not None:
        err = dict(entry.erratum)
        err["derived_truth"] = poly_to_obj(err["derived_truth"])
        obj["erratum"] = err
    return obj


# -- closed-form verification routes -------------------------------------------
#
# Each route recomputes the entry's polynomial without touching the built
# matroid, exercising the family formulas the printed value came from.


def _truth(name):
    return lookup(name).ground_truth


def _q3_paving():
    return fam.paving(fam.PavingSpec(3, 9, {4: 3, 3: 4, 2: 6}))


def _w3plus_split():
    hanging = fam.one_sum([fam.uniform(1, 3), fam.uniform(0, 2)])
    return fam.whirl(3) + Y * fam.uniform(2, 4) + hanging


def _h_from_bipartite():
    return fam.complete_bipartite(2, 4) - X * fam.complete_bipartite(2, 3)


def _f8_delta():
    u34 = fam.uniform(3, 4)
    u14 = fam.uniform(1, 4)
    pair_sq = (X + Y) * (X + Y)
    triangle_plus = BiPoly({(2, 0): 1, (1, 0): 1, (1, 1): 1, (0, 1): 1, (0, 2): 1})
    q_vec = [u34, pair_sq, pair_sq, u14, pair_sq]
    p_vec = [u34, triangle_plus, pair_sq, u14, pair_sq]
    return fam.delta_sum_poly(q_vec, p_vec)


def _r6_two_sum():
    contract = BiPoly({(0, 2): 1, (0, 1): 1, (1, 0): 1})
    delete = BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    return fam.two_sum_poly(contract, delete, contract, delete)


def _j_split():
    # delete one element: sparse paving with 5 circuit-hyperplanes;
    # contract it: a 4-cycle with three edges doubled.
    doubled = graphs.Multigraph(4, [(0, 1), (0, 1), (1, 2), (1, 2),
                                    (2, 3), (2, 3), (3, 0)])
    return fam.sparse_paving(4, 7, 5) + eng.tutte_dc(mt.Graphic(doubled))


FORMULA_ROUTES = {
    "U24": [("family:uniform", lambda: fam.uniform(2, 4)),
            ("family:whirl", lambda: fam.whirl(2))],
    "U25": [("family:uniform", lambda: fam.uniform(2, 5))],
    "U35": [("family:uniform", lambda: fam.uniform(3, 5)),
            ("family:dual-swap", lambda: _truth("U25").swap())],
    "U36": [("family:uniform", lambda: fam.uniform(3, 6)),
            ("family:relax-chain", lambda: fam.relax_poly(_truth("P6")))],
    "W3": [("family:wheel", lambda: fam.wheel(3)),
           ("family:sparse-paving", lambda: fam.sparse_paving(3, 6, 4)),
           ("family:complete-graph", lambda: fam.complete_graph(4))],
    "W4": [("family:wheel", lambda: fam.wheel(4))],
    "whirl2": [("family:whirl", lambda: fam.whirl(2)),
               ("family:uniform", lambda: fam.uniform(2, 4))],
    "whirl3": [("family:whirl", lambda: fam.whirl(3)),
               ("family:sparse-paving", lambda: fam.sparse_paving(3, 6, 3)),
               ("family:relax-chain", lambda: fam.relax_poly(_truth("W3")))],
    "whirl4": [("family:whirl", lambda: fam.whirl(4)),
               ("family:relax-chain", lambda: fam.relax_poly(_truth("W4")))],
    "Q6": [("family:sparse-paving", lambda: fam.sparse_paving(3, 6, 2)),
           ("family:free-ext", lambda: fam.free_ext_poly(
               _truth("K4minuse"),
               BiPoly({(0, 0): 4, (0, 1): 3, (0, 2): 1})))],
    "P6": [("family:sparse-paving", lambda: fam.sparse_paving(3, 6, 1)),
           ("family:relax-chain", lambda: fam.relax_poly(_truth("Q6")))],
    "R6": [("family:sparse-paving", lambda: fam.sparse_paving(3, 6, 2)),
           ("family:two-sum", _r6_two_sum)],
    "K4minuse": [("family:sparse-paving", lambda: fam.sparse_paving(3, 5, 2))],
    "F7": [("family:sparse-paving", lambda: fam.sparse_paving(3, 7, 7)),
           ("family:projective", lambda: fam.projective(2, 2)),
           ("family:q-cone", lambda: fam.q_cone(fam.uniform(2, 3), 2, 2)),
           ("family:steiner", lambda: fam.steiner_sparse((3, 7, 7)))],
    "F7dual": [("family:dual-swap", lambda: _truth("F7").swap())],
    "F7minus": [("family:sparse-paving", lambda: fam.sparse_paving(3, 7, 6)),
                ("family:relax-chain", lambda: fam.relax_poly(_truth("F7")))],
    "F7minusdual": [("family:dual-swap", lambda: _truth("F7minus").swap())],
    "P7": [("family:sparse-paving", lambda: fam.sparse_paving(3, 7, 5))],
    "P8": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 10))],
    "Q3": [("family:paving", _q3_paving)],
    "W3plus": [("family:split-sum", _w3plus_split)],
    "AG32": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 14)),
             ("family:steiner", lambda: fam.steiner_sparse((4, 8, 14)))],
    "AG32prime": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 13)),
                  ("family:relax-chain", lambda: fam.relax_poly(_truth("AG32")))],
    "R8": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 12)),
           ("family:relax-chain",
            lambda: fam.relax_poly(_truth("AG32prime")))],
    "Q8": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 11)),
           ("family:relax-chain", lambda: fam.relax_poly(_truth("R8")))],
    "F8": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 12)),
           ("family:relax-chain",
            lambda: fam.relax_poly(_truth("AG32prime"))),
           ("family:delta-sum", _f8_delta)],
    "L8": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 8))],
    "S8": [("family:split-sum", lambda: _truth("H") + _truth("F7"))],
    "T8": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 11))],
    "V8": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 5)),
           ("family:relax-chain", lambda: fam.relax_poly(_truth("V8plus")))],
    "V8plus": [("family:sparse-paving", lambda: fam.sparse_paving(4, 8, 6))],
    "R9": [("family:paving",
            lambda: fam.paving(fam.PavingSpec(3, 9, {3: 7, 4: 2, 2: 3})))],
    "R10": [("family:split-sum",
             lambda: _truth("K33") + _truth("K33").swap())],
    "R12": [],
    "J": [("family:split-sum", _j_split)],
    "Pappus": [("family:sparse-paving", lambda: fam.sparse_paving(3, 9, 9))],
    "nonPappus": [("family:sparse-paving", lambda: fam.sparse_paving(3, 9, 8)),
                  ("family:relax-chain",
                   lambda: fam.relax_poly(_truth("Pappus")))],
    "nonDesargues": [("family:sparse-paving",
                      lambda: fam.sparse_paving(3, 10, 9))],
    "S2_3_13": [("family:steiner", lambda: fam.steiner_sparse((3, 13, 26))),
                ("family:sparse-paving",
                 lambda: fam.sparse_paving(3, 13, 26))],
    "S5_6_12": [("family:steiner", lambda: fam.steiner_sparse((6, 12, 132))),
                ("family:sparse-paving",
                 lambda: fam.sparse_paving(6, 12, 132))],
    "PG22": [("family:projective", lambda: fam.projective(2, 2)),
             ("family:q-cone", lambda: fam.q_cone(fam.uniform(2, 3), 2, 2))],
    "PG23": [("family:projective", lambda: fam.projective(2, 3)),
             ("family:q-cone",
              lambda: fam.q_cone(fam.projective(1, 3), 2, 3))],
    "AG23": [("family:affine", lambda: fam.affine(2, 3)),
             ("family:steiner", lambda: fam.steiner_sparse((3, 9, 12)))],
    "K5": [("family:complete-graph", lambda: fam.complete_graph(5))],
    "K33": [("family:complete-bipartite", lambda: fam.complete_bipartite(3, 3))],
    "L22": [("family:grid", lambda: fam.grid2(2)),
            ("family:cycle", lambda: fam.cycle(4))],
    "catalanM3": [("family:catalan", lambda: fam.catalan(3))],
    "H": [("family:bipartite-split", _h_from_bipartite)],
}


# -- verification ---------------------------------------------------------------


def _engine_routes(m):
    return [("engine:subset", lambda: eng.tutte_subset(m)),
            ("engine:dc", lambda: eng.tutte_dc(m)),
            ("engine:activities", lambda: eng.tutte_activities(m))]


def verify(name):
    """Recompute one entry along every route and compare against the record.

    Returns a report dict: route polynomials, pairwise agreement, the
    verdict against the stored ground truth, and erratum context if the
    stored value is a flagged misprint.  "ok" also requires the number of
    bases, enumerated, to equal T(1, 1) of the agreed polynomial.
    """
    entry = lookup(name)
    m = build_recipe(entry.recipe)
    routes = _engine_routes(m) + FORMULA_ROUTES.get(name, [])
    results = {label: thunk() for label, thunk in routes}
    polys = list(results.values())
    routes_agree = all(p == polys[0] for p in polys)
    computed = polys[0] if routes_agree else None
    matches_truth = routes_agree and computed == entry.ground_truth
    erratum_confirmed = (
        not matches_truth
        and routes_agree
        and entry.erratum is not None
        and computed == entry.erratum["derived_truth"]
    )
    basis_count = len(mt.bases(m))
    ok = (matches_truth or erratum_confirmed) and basis_count == computed.eval(1, 1)
    return {
        "name": name,
        "routes": results,
        "routes_agree": routes_agree,
        "matches_truth": matches_truth,
        "erratum_confirmed": erratum_confirmed,
        "ok": ok,
        "basis_count": basis_count,
        "entry": entry,
    }


def verify_all(selected=None):
    return [verify(name) for name in (selected or names())]
