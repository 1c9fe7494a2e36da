"""Input parsing and the JSON object form of polynomials.

Polynomials travel as JSON objects {"terms": [[i, j, "c"], ...]} in
ascending graded order with string coefficients, safe for big integers;
the text, JSON and LaTeX renderings live in ``render``.  Graphs arrive as "p V E" edge lists, GF(p) matrices as
"gf p rows cols" residue grids, and matroids as {"kind": ...} JSON objects.
"""

from __future__ import annotations

import json

from . import matroids as mt
from . import render
from .bipoly import BiPoly
from .errors import ParseError
from .gf import GFMatrix
from .graphs import Multigraph


# -- polynomial JSON -----------------------------------------------------------


def poly_to_obj(p):
    return {"terms": render.json_terms(p)}


def poly_from_obj(obj):
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ParseError('polynomial JSON needs a "terms" list')
    acc = {}
    for entry in obj["terms"]:
        try:
            i, j, c = entry
            i, j, c = int(i), int(j), int(c)
        except (TypeError, ValueError):
            raise ParseError(f"bad polynomial term {entry!r}") from None
        if i < 0 or j < 0:
            raise ParseError("polynomial exponents must be nonnegative")
        acc[(i, j)] = acc.get((i, j), 0) + c
    return BiPoly(acc)


def parse_poly(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid polynomial JSON: {exc}") from None
    return poly_from_obj(obj)


# -- graph and matrix files ----------------------------------------------------


def _content_lines(text):
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("c"):
            yield line


def parse_graph(text):
    """Edge-list format: header "p <vertices> <edges>", then "e u v" lines."""
    lines = list(_content_lines(text))
    if not lines or not lines[0].startswith("p "):
        raise ParseError('graph file must start with "p <vertices> <edges>"')
    try:
        _, nv, ne = lines[0].split()
        nv, ne = int(nv), int(ne)
    except ValueError:
        raise ParseError(f"bad graph header {lines[0]!r}") from None
    if nv < 0 or ne < 0:
        raise ParseError("vertex and edge counts must be nonnegative")
    edges = []
    for line in lines[1:]:
        fields = line.split()
        if fields[0] != "e" or len(fields) != 3:
            raise ParseError(f"bad edge line {line!r}")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"bad edge line {line!r}") from None
        if not (0 <= u < nv and 0 <= v < nv):
            raise ParseError(f"edge {u},{v} out of vertex range 0..{nv - 1}")
        edges.append((u, v))
    if len(edges) != ne:
        raise ParseError(f"header promises {ne} edges, file has {len(edges)}")
    return Multigraph(nv, edges)


def parse_matrix(text):
    """Matrix format: header "gf <p> <rows> <cols>", then row-major residues."""
    lines = list(_content_lines(text))
    if not lines or not lines[0].startswith("gf "):
        raise ParseError('matrix file must start with "gf <p> <rows> <cols>"')
    try:
        _, p, nrows, ncols = lines[0].split()
        p, nrows, ncols = int(p), int(nrows), int(ncols)
    except ValueError:
        raise ParseError(f"bad matrix header {lines[0]!r}") from None
    if nrows < 0 or ncols < 0:
        raise ParseError("row and column counts must be nonnegative")
    body = " ".join(lines[1:]).split()
    if len(body) != nrows * ncols:
        raise ParseError(
            f"matrix body has {len(body)} entries, expected {nrows * ncols}"
        )
    try:
        flat = [int(v) for v in body]
    except ValueError:
        raise ParseError("matrix entries must be integers") from None
    rows = [flat[r * ncols:(r + 1) * ncols] for r in range(nrows)]
    # keep an explicit zero row so the column count survives
    return GFMatrix(p, rows or [[0] * ncols])


# -- matroid JSON ---------------------------------------------------------------


def _int_sets(value, what):
    try:
        return [frozenset(int(e) for e in grp) for grp in value]
    except (TypeError, ValueError):
        raise ParseError(f"bad {what}: expected a list of integer lists") from None


def matroid_from_obj(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError('matroid JSON needs a "kind" field')
    kind = obj["kind"]
    try:
        if kind == "uniform":
            return mt.Uniform(int(obj["r"]), int(obj["n"]))
        if kind == "graphic":
            edges = [(int(u), int(v)) for u, v in obj["edges"]]
            return mt.Graphic(Multigraph(int(obj["vertices"]), edges))
        if kind == "linear":
            rows = [[int(v) for v in row] for row in obj["rows"]]
            return mt.Linear(GFMatrix(int(obj["p"]), rows))
        if kind == "sparse_paving":
            chs = _int_sets(obj["circuit_hyperplanes"], "circuit-hyperplane list")
            return mt.SparsePaving(int(obj["r"]), int(obj["n"]), chs)
        if kind == "paving":
            blocks = _int_sets(obj["blocks"], "block list")
            return mt.PavingPartition(int(obj["r"]), int(obj["n"]), blocks)
        if kind == "bases":
            bases = _int_sets(obj["bases"], "basis list")
            return mt.BasisList(int(obj["r"]), int(obj["n"]), bases)
        if kind == "lattice_path":
            return mt.LatticePath(str(obj["lower"]), str(obj["upper"]))
        if kind == "dual":
            return mt.dual(matroid_from_obj(obj["of"]))
        if kind == "relax":
            subset = frozenset(int(e) for e in obj["subset"])
            return mt.relax(matroid_from_obj(obj["of"]), subset)
    except KeyError as exc:
        raise ParseError(f"matroid JSON kind {kind!r} is missing {exc}") from None
    except (TypeError, ValueError):
        raise ParseError(f"malformed payload for matroid kind {kind!r}") from None
    raise ParseError(f"unknown matroid kind {kind!r}")


def parse_matroid(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid matroid JSON: {exc}") from None
    return matroid_from_obj(obj)
