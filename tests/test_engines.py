from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import weakref
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tuttepoly import engines
from tuttepoly import matroids as mt
from tuttepoly.catalog import build, names
from tuttepoly.bipoly import (
    BiPoly,
    X,
    Y,
    _from_corank_nullity,
    _Packing,
    exact_div,
    subst_rational,
)
from tuttepoly.engines import (
    _corank_nullity_counts,
    char_poly,
    coboundary,
    coboundary_from_tutte,
    transfer_grid,
    transfer_wheel,
    tutte_activities,
    tutte_dc,
    tutte_frontier,
    tutte_from_coboundary,
    tutte_subset,
    tutte_via_coboundary,
)
from tuttepoly.errors import (
    GraphTooLarge,
    GroundSetTooLarge,
    InvalidParameters,
    NonExactDivision,
    ResourceBudgetExceeded,
    UnsupportedWidth,
)
from tuttepoly.families import cycle, grid2, uniform, wheel
from tuttepoly.gf import GFMatrix
from tuttepoly.graphs import (
    Multigraph,
    bond_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    wheel_graph,
)

from helpers import (
    bad_colouring,
    chord_chain,
    contract_one,
    corank_nullity_counts_unfactored,
    series_parallel_multigraph,
    spanning_forests,
    split_class,
    standard_rep,
    transfer_wheel_lists,
    tutte_frontier_three_pass,
)

# frozen expected polynomials, written as {(x-exp, y-exp): coeff}
T_U25 = BiPoly({(2, 0): 1, (1, 0): 3, (0, 1): 3, (0, 2): 2, (0, 3): 1})
T_F7 = BiPoly(
    {(3, 0): 1, (2, 0): 4, (1, 0): 3, (1, 1): 7, (0, 1): 3, (0, 2): 6, (0, 3): 3, (0, 4): 1}
)
T_WHEEL3 = BiPoly(
    {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4, (0, 1): 2, (0, 2): 3, (0, 3): 1}
)
T_WHIRL3 = BiPoly(
    {(3, 0): 1, (2, 0): 3, (1, 0): 3, (1, 1): 3, (0, 1): 3, (0, 2): 3, (0, 3): 1}
)
T_WHIRL3_PLUS = BiPoly(
    {
        (3, 0): 1,
        (2, 0): 3,
        (1, 0): 3,
        (2, 1): 1,
        (1, 1): 5,
        (1, 2): 1,
        (0, 1): 3,
        (0, 2): 5,
        (0, 3): 3,
        (0, 4): 1,
    }
)
T_CATALAN3 = BiPoly({(3, 1): 1, (2, 1): 1, (2, 2): 1, (1, 2): 1, (1, 3): 1})
T_P8 = BiPoly(
    {
        (4, 0): 1,
        (3, 0): 4,
        (2, 0): 10,
        (1, 0): 10,
        (1, 1): 10,
        (0, 1): 10,
        (0, 2): 10,
        (0, 3): 4,
        (0, 4): 1,
    }
)


def fano():
    return mt.Linear(standard_rep(2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]))


def whirl3():
    # rank-3 wheel has spokes 0..2 and rim 3..5; the rim is a circuit-hyperplane
    return mt.relax(mt.Graphic(wheel_graph(3)), {3, 4, 5})


def ternary_affine():
    pts = [(a, b) for a in range(3) for b in range(3)]
    idx = {p: i for i, p in enumerate(pts)}
    lines = set()
    for p1 in pts:
        for p2 in pts:
            if p1 >= p2:
                continue
            p3 = ((-p1[0] - p2[0]) % 3, (-p1[1] - p2[1]) % 3)
            lines.add(frozenset({idx[p1], idx[p2], idx[p3]}))
    return mt.PavingPartition(3, 9, lines)


# -- subset expansion ---------------------------------------------------------


def test_subset_uniform_and_empty():
    assert tutte_subset(mt.Uniform(2, 5)) == T_U25
    assert tutte_subset(mt.Uniform(0, 0)) == BiPoly.one()
    assert tutte_subset(mt.Uniform(4, 4)) == BiPoly.monomial(4, 0)
    assert tutte_subset(mt.Uniform(0, 3)) == BiPoly.monomial(0, 3)


def test_subset_fano():
    assert tutte_subset(fano()) == T_F7


def test_subset_loops_and_coloops_multiply():
    m = mt.direct_sum([mt.Uniform(0, 2), mt.Uniform(3, 3)])
    assert tutte_subset(m) == BiPoly.monomial(3, 2)


def test_subset_size_guard():
    with pytest.raises(GroundSetTooLarge):
        tutte_subset(mt.Uniform(2, 25))


# -- the pruned subset sweep against the flat loop ------------------------------


def flat_counts(m):
    """The reference histogram: one rank call on each of the 2^n masks."""
    full = m.full_rank
    counts = {}
    for mask in range(1 << m.n):
        r = m._rank(mask)
        key = (full - r, mask.bit_count() - r)
        counts[key] = counts.get(key, 0) + 1
    return counts


def count_rank_calls(m):
    """Wrap m's rank oracle; the returned list records every mask asked."""
    calls = []
    rank = m._rank

    def counted(mask):
        calls.append(mask)
        return rank(mask)

    m._rank = counted
    return calls


def check_sweep(m):
    calls = count_rank_calls(m)
    got = _corank_nullity_counts(m._rank, (1 << m.n) - 1, 0, 0, m.full_rank)
    assert len(calls) <= 1 << m.n
    assert got == flat_counts(m)


def heights(steps):
    """Running north-step counts of an N/E path."""
    hs = [0]
    for step in steps:
        hs.append(hs[-1] + (step == "N"))
    return hs


def path(hs):
    return "".join("N" if b > a else "E" for a, b in zip(hs, hs[1:]))


FANO_LINES = [frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
BASE_KINDS = [
    "Uniform", "SparsePaving", "PavingPartition", "BasisList", "LatticePath",
    "Graphic", "Linear2", "Linear3", "Linear5",
]


@st.composite
def base_matroids(draw, kind):
    """A matroid of the given concrete class on at most 9 elements."""
    if kind == "Uniform":
        n = draw(st.integers(0, 9))
        return mt.Uniform(draw(st.integers(0, n)), n)
    if kind == "SparsePaving":
        return mt.SparsePaving(3, 7, draw(st.sets(st.sampled_from(FANO_LINES))))
    if kind == "PavingPartition":
        if draw(st.booleans()):
            return ternary_affine()
        labels = [0, 1] + draw(st.lists(st.integers(0, 3), max_size=7))
        blocks = {}
        for e, lab in enumerate(labels):
            blocks.setdefault(lab, set()).add(e)
        return mt.PavingPartition(2, len(labels), blocks.values())
    if kind == "BasisList":
        g = mt.Graphic(draw(multigraphs()))
        return mt.BasisList(g.full_rank, g.n, mt.bases(g))
    if kind == "LatticePath":
        # the pointwise lower and upper envelopes of two paths are paths
        steps = "N" * draw(st.integers(0, 4)) + "E" * draw(st.integers(1, 5))
        h1 = heights(draw(st.permutations(steps)))
        h2 = heights(draw(st.permutations(steps)))
        return mt.LatticePath(
            path(list(map(min, h1, h2))), path(list(map(max, h1, h2)))
        )
    if kind == "Graphic":
        return mt.Graphic(draw(multigraphs()))
    p = int(kind[len("Linear"):])
    r = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return mt.Linear(GFMatrix(p, draw(st.lists(entries, min_size=r, max_size=r))))


VIEWS = ["DualView", "MapView", "FreeExtView", "DirectSum", "RelaxView"]


def circuit_hyperplane_masks(m):
    """Masks of the r-sets that are circuits and hyperplanes, by brute force."""
    r = m.full_rank
    ground = (1 << m.n) - 1
    return [
        x for x in range(1 << m.n)
        if x.bit_count() == r and m._rank(x) == r - 1
        and all(m._rank(x ^ 1 << e) == r - 1 for e in mt._bits(x))
        and all(m._rank(x | 1 << e) == r for e in mt._bits(ground ^ x))
    ]


@st.composite
def views(draw, view):
    """A view of the given class over a drawn matroid, on at most 12 elements;
    a MapView is drawn over no Graphic, as a Graphic's maps are Graphics."""
    kinds = [k for k in BASE_KINDS if view != "MapView" or k != "Graphic"]
    m = draw(base_matroids(draw(st.sampled_from(kinds))))
    if view == "DualView":
        return mt.DualView(m)
    if view == "FreeExtView":
        return mt.FreeExtView(m)
    if view == "DirectSum":
        other = draw(base_matroids(draw(st.sampled_from(BASE_KINDS))))
        assume(m.n + other.n <= 12)
        return mt.direct_sum([m, other])
    if view == "MapView":
        assume(m.n >= 1)
        m = mt.parallel_extension(m, draw(st.integers(0, m.n - 1)))
        if draw(st.booleans()):
            m = mt.contract(m, draw(st.integers(0, m.n - 1)))
        return m
    m = draw(st.sampled_from([
        fano(), ternary_affine(),
        mt.Graphic(wheel_graph(3)), mt.Graphic(wheel_graph(4)),
    ]))
    return mt.relax(m, mt._set(draw(st.sampled_from(circuit_hyperplane_masks(m)))))


@pytest.mark.parametrize("kind", BASE_KINDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_sweep_matches_flat_loop_on_every_class(kind, data):
    m = data.draw(base_matroids(kind))
    assert type(m).__name__ == kind.rstrip("235")
    if kind.startswith("Linear"):
        assert m.mat.p == int(kind[-1])
    check_sweep(m)


@pytest.mark.parametrize("view", VIEWS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_sweep_matches_flat_loop_on_every_view(view, data):
    m = data.draw(views(view))
    assert type(m).__name__ == view
    check_sweep(m)


def check_routes(m):
    """Coboundary and DC agree with the subset sweep; the coboundary route
    asks m's oracle for each mask at most once."""
    t = tutte_subset(m)
    full = m.full_rank
    calls = count_rank_calls(m)
    assert tutte_from_coboundary(coboundary(m), full) == t
    assert len(calls) == len(set(calls)) <= 1 << m.n
    assert tutte_dc(m) == t


@pytest.mark.parametrize("kind", BASE_KINDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_routes_match_subset_on_every_class(kind, data):
    check_routes(data.draw(base_matroids(kind)))


@pytest.mark.parametrize("view", VIEWS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_routes_match_subset_on_every_view(view, data):
    check_routes(data.draw(views(view)))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_contracted_sweep_matches_flat_loop(data):
    # M/C on E - C: r(A) = r(A | C) - r(C), over the subsets A of E - C
    kind = data.draw(st.sampled_from(BASE_KINDS + VIEWS + ["catalog"]))
    if kind == "catalog":
        m = build(data.draw(st.sampled_from(names())))
    elif kind in VIEWS:
        m = data.draw(views(kind))
    else:
        m = data.draw(base_matroids(kind))
    ground = (1 << m.n) - 1
    con = data.draw(st.integers(0, ground))
    if data.draw(st.booleans()):  # a flat
        con = mt._closure(m.n, m._rank, con)
    rc, full = m._rank(con), m.full_rank
    want = {}
    for a in range(1 << m.n):
        if a & con:
            continue
        r = m._rank(a | con)
        key = (full - r, a.bit_count() - r + rc)
        want[key] = want.get(key, 0) + 1
    assert _corank_nullity_counts(m._rank, ground ^ con, con, rc, full) == want


def test_sweep_counts_whole_subtrees_of_uniform_matroids():
    m = mt.Uniform(6, 18)
    calls = count_rank_calls(m)
    got = _corank_nullity_counts(m._rank, (1 << 18) - 1, 0, 0, 6)
    assert got == flat_counts(mt.Uniform(6, 18))
    assert len(calls) < (1 << 18) // 4


def test_sweep_reaches_the_enumeration_limit():
    # 24 elements, 16.8M subsets, but a few thousand rank calls
    m = mt.Uniform(3, 24)
    calls = count_rank_calls(m)
    assert tutte_subset(m) == uniform(3, 24)
    assert len(calls) < 5_000
    # sum over A of (-1)^|A| lambda^(3-|A|) for |A| < 3, the rest at lambda^0
    assert char_poly(m) == [-253, 276, -24, 1]
    assert len(calls) < 10_000


@st.composite
def gf_columns(draw):
    """A GF(p) matrix, p in {2, 3, 5}, of up to 4 rows and 10 columns, with
    zero columns and columns repeated up to a scalar."""
    p = draw(st.sampled_from([2, 3, 5]))
    r = draw(st.integers(1, 4))
    cols = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat"]))
        if kind == "repeat" and cols:
            c = draw(st.integers(1, p - 1))
            cols.append([a * c % p for a in draw(st.sampled_from(cols))])
        elif kind == "zero":
            cols.append([0] * r)
        else:
            cols.append(draw(st.lists(st.integers(0, p - 1), min_size=r, max_size=r)))
    return mt.Linear(GFMatrix(p, [[col[i] for col in cols] for i in range(r)]))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_factored_sweep_matches_the_unfactored_reference(data):
    # a closure element and a coloop over A each keep one child, so the sweep
    # asks no more ranks than the one that kept both; con as coboundary
    # passes it is a flat
    kind = data.draw(st.sampled_from(["gf", *VIEWS]))
    m = data.draw(gf_columns() if kind == "gf" else views(kind))
    ground = (1 << m.n) - 1
    con = data.draw(st.integers(0, ground))
    if data.draw(st.booleans()):
        con = mt._closure(m.n, m._rank, con)
    rc, full = m._rank(con), m.full_rank
    calls = count_rank_calls(m)
    want = corank_nullity_counts_unfactored(m._rank, ground ^ con, con, rc, full)
    before = len(calls)
    calls.clear()
    assert _corank_nullity_counts(m._rank, ground ^ con, con, rc, full) == want
    assert len(calls) <= before


# -- deletion-contraction -----------------------------------------------------


def test_dc_graphic_goldens():
    assert tutte_dc(mt.Graphic(cycle_graph(4))) == BiPoly(
        {(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1}
    )
    assert tutte_dc(mt.Graphic(wheel_graph(3))) == T_WHEEL3
    assert tutte_dc(mt.Graphic(path_graph(4))) == BiPoly.monomial(3, 0)
    assert tutte_dc(mt.Graphic(bond_graph(4))) == BiPoly(
        {(1, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1}
    )


def test_dc_counts_k5_trees():
    t = tutte_dc(mt.Graphic(complete_graph(5)))
    assert t.eval(1, 1) == 125  # spanning trees of K5
    assert t == tutte_subset(mt.Graphic(complete_graph(5)))


def test_dc_generic_matches_subset():
    for m in [mt.Uniform(3, 7), fano(), mt.dual(fano()), whirl3(), ternary_affine()]:
        assert tutte_dc(m) == tutte_subset(m)


def test_dc_generic_builds_no_minor(monkeypatch):
    lines = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]
    roots = [
        mt.relax(mt.SparsePaving(3, 7, lines), {0, 1, 2}),
        mt.dual(mt.Linear(standard_rep(3, 3, [(1, 1, 0), (0, 1, 1), (1, 2, 1)]))),
        mt.parallel_extension(whirl3(), 3),
        mt.direct_sum([fano(), mt.Uniform(0, 1), mt.Uniform(1, 3), mt.Uniform(2, 2)]),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("generic deletion-contraction built a minor")

    for name in ("delete", "contract", "is_loop"):
        monkeypatch.setattr(mt, name, refuse)
    monkeypatch.setattr(mt.MapView, "__init__", refuse)
    monkeypatch.setattr(mt.DualView, "__init__", refuse)
    for m in roots:
        assert tutte_dc(m) == tutte_subset(m), m


GF3_4X13 = [
    [2, 1, 0, 0, 2, 2, 2, 1, 0, 2, 2, 0, 1],
    [1, 1, 0, 2, 1, 1, 1, 1, 2, 0, 1, 0, 1],
    [2, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 1],
    [0, 2, 1, 2, 0, 1, 0, 0, 1, 2, 1, 2, 2],
]


# root rank calls of generic DC now, keyed by the calls when every node
# re-ranked C, L | C and every loop and coloop test; with those ranks
# inherited but the parallel and series classes rebuilt at every node they
# were 191 / 489 / 1,058 / 7,353, before fat cycles were a closed form
# 125 / 272 / 631 / 3,516, and before minors of rank or corank at most 2
# were a closed form 109 / 261 / 592 / 3,282, and before a node without an
# inherited partition tested only the classes of the element it splits on
# 94 / 200 / 496 / 2,487
ROOT_RANK_CALLS = {282: 84, 721: 160, 1641: 396, 10540: 1619}


@pytest.mark.parametrize(
    "make, before",
    [
        (lambda: mt.relax(fano(), {0, 1, 3}), 282),
        (lambda: mt.relax(build("T8"), {1, 2, 3, 4}), 721),
        (lambda: mt.Linear(GFMatrix(3, GF3_4X13)), 1641),
        (lambda: mt.relax(build("S5_6_12"), {0, 2, 3, 5, 6, 11}), 10540),
    ],
)
def test_dc_generic_reuses_ranks_the_parent_knows(make, before):
    # the inherited ranks and classes save at least a fifth of the calls
    m = make()
    t = tutte_subset(m)
    calls = count_rank_calls(m)
    assert tutte_dc(m) == t
    assert len(calls) == ROOT_RANK_CALLS[before] <= 0.8 * before


def test_dc_generic_splits_whole_classes():
    # M(K4) as a basis list takes the generic route; thickened or stretched
    # five times it has 30 elements, which only the class splits keep small
    g = mt.Graphic(complete_graph(4))
    k4 = mt.BasisList(3, 6, mt.bases(g))
    thick = mt.thicken(k4, 5)
    stretched = mt.dual(mt.thicken(mt.dual(k4), 5))
    assert tutte_dc(thick, budget_nodes=200) == tutte_dc(mt.thicken(g, 5))
    assert tutte_dc(stretched, budget_nodes=500) == tutte_dc(mt.stretch(g, 5))


def test_dc_generic_builds_partitions_only_at_the_root_and_closed_forms(monkeypatch):
    # a node with no inherited partition builds one only at the root or to
    # close a minor of rank or corank at most 2; elsewhere it tests the
    # classes of the element it splits on
    roots = [
        mt.relax(fano(), {0, 1, 3}),
        mt.Linear(GFMatrix(3, GF3_4X13)),
        mt.relax(build("S5_6_12"), {0, 2, 3, 5, 6, 11}),
        mt.thicken(mt.BasisList(3, 6, mt.bases(mt.Graphic(complete_graph(4)))), 3),
    ]
    expected = [tutte_subset(m) for m in roots]
    dc, classes = engines._dc_generic, engines._classes
    path, builds = [], []

    def node(rank, live, con, *args):
        path.append(con)
        try:
            return dc(rank, live, con, *args)
        finally:
            path.pop()

    def partition(rank, base, target, live, known):
        if known is None:
            builds.append((len(path), path[-1], live))
        return classes(rank, base, target, live, known)

    monkeypatch.setattr(engines, "_dc_generic", node)
    monkeypatch.setattr(engines, "_classes", partition)
    for m, t in zip(roots, expected):
        builds.clear()
        assert tutte_dc(m) == t, m
        below = 0
        for depth, con, live in builds:
            if depth > 1:
                r = m._rank(con | live) - m._rank(con)
                assert min(r, live.bit_count() - r) <= 2, (m, depth)
                below += 1
        assert below, m


@st.composite
def heavy_low_classes(draw):
    """A matroid on at most 12 elements whose low elements are thickened or
    extended in parallel, its highest ones left single; then maybe its dual,
    a relaxation of it, or its direct sum with loops and coloops."""
    kinds = [k for k in BASE_KINDS if k != "Graphic"]
    m = draw(base_matroids(draw(st.sampled_from(kinds))))
    assume(m.n >= 2)
    low = draw(st.integers(1, m.n - 1))
    if draw(st.booleans()):  # thicken the low elements
        k = draw(st.integers(2, 3))
        image = [e for e in range(low) for _ in range(k)]
    else:  # parallel extensions of low elements, beside their originals
        image = sorted([*range(low), *draw(st.lists(st.integers(0, low - 1), max_size=5))])
    image += range(low, m.n)
    assume(len(image) <= 12)
    m = mt._remap(m, image, 0)
    how = draw(st.sampled_from(["as is", "dual", "relax", "sum"]))
    if how == "dual":
        m = mt.dual(m)
    elif how == "relax":
        chs = circuit_hyperplane_masks(m)
        assume(chs)
        m = mt.relax(m, mt._set(draw(st.sampled_from(chs))))
    elif how == "sum":
        loops, coloops = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        parts = [m, mt.Uniform(0, loops), mt.Uniform(coloops, coloops)]
        m = mt.direct_sum(draw(st.permutations([p for p in parts if p.n])))
    return m


@given(heavy_low_classes())
@example(mt._remap(mt.Uniform(3, 6), [0, 0, 0, 1, 1, 1, 2, 3, 4, 5], 0))
@example(mt.dual(mt._remap(mt.Uniform(3, 6), [0, 0, 0, 1, 1, 1, 2, 3, 4, 5], 0)))
@example(mt._remap(whirl3(), [0, 0, 0, 1, 1, 2, 3, 4, 5], 0))
@example(mt.relax(mt._remap(fano(), [0, 0, 0, 1, 1, 2, 3, 4, 5, 6], 0), {6, 7, 8}))
@example(mt.direct_sum([mt.Uniform(1, 1), mt._remap(fano(), [0, 0, 0, 1, 2, 3, 4, 5, 6], 0),
                        mt.Uniform(0, 2)]))
@settings(max_examples=150, deadline=None)
def test_dc_splitting_on_single_elements_matches_subset(m):
    # below the root, nodes that know no partition split on single high
    # elements beside large classes that they never build
    t = tutte_subset(m)
    assert tutte_dc(m) == t
    ref = corank_nullity_counts_unfactored(m._rank, (1 << m.n) - 1, 0, 0, m.full_rank)
    assert _from_corank_nullity(ref) == t


def test_dc_whirl_parallel_extension():
    # adding an element parallel to a rim element of the rank-3 whirl
    assert tutte_dc(mt.parallel_extension(whirl3(), 3)) == T_WHIRL3_PLUS


# a loop (edge 3), a bridge (edge 6), a parallel pair and an isolated vertex
LOOP_BRIDGE_PAIR = Multigraph(6, [(0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (3, 1), (3, 4)])


def test_graph_maps_and_duals_stay_on_graphs(monkeypatch):
    # a Graphic's minors, parallel extensions and thickenings are Graphics,
    # and its dual runs graph DC: none builds a MapView or runs generic DC
    def refuse(*args, **kwargs):
        raise AssertionError("a graph left the graph route")

    monkeypatch.setattr(engines, "_dc_generic", refuse)
    monkeypatch.setattr(mt.MapView, "__init__", refuse)
    m = mt.Graphic(LOOP_BRIDGE_PAIR)
    made = [mt.delete(m, 0), mt.contract(m, 1), mt.contract(m, 3), mt.thicken(m, 2),
            mt.parallel_extension(m, 6)]
    assert all(type(x) is mt.Graphic for x in made)
    for x in made + [mt.dual(m)]:
        assert tutte_dc(x) == tutte_subset(x), x
    assert tutte_dc(mt.dual(m)) == tutte_dc(m).swap()


def test_dc_on_the_dual_of_a_graph_keeps_the_budget():
    assert tutte_dc(mt.dual(mt.Graphic(grid_graph(3, 8)))) == transfer_grid(3, 8).swap()
    with pytest.raises(ResourceBudgetExceeded):
        tutte_dc(mt.dual(mt.Graphic(grid_graph(4, 8))), budget_nodes=10)


def test_dc_on_a_dual_runs_on_its_parent(monkeypatch):
    roots = [
        mt.dual(mt.Linear(GFMatrix(3, GF3_4X13))),
        mt.dual(mt.SparsePaving(3, 7, FANO_LINES[:4])),
        mt.dual(whirl3()),
    ]
    expected = [tutte_subset(m) for m in roots]

    def refuse(*args, **kwargs):
        raise AssertionError("DC asked a dual's rank")

    monkeypatch.setattr(mt.DualView, "_rank", refuse)
    assert isinstance(roots[2].parent, mt.RelaxView)
    for m, t in zip(roots, expected):
        assert tutte_dc(m) == t, m


def test_dc_disconnected_graph_multiplies():
    g = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    t3 = tutte_dc(mt.Graphic(cycle_graph(3)))
    assert tutte_dc(mt.Graphic(g)) == t3 * t3


@pytest.mark.parametrize("g, nodes", [(grid_graph(3, 12), 2121), (complete_graph(8), 569)],
                         ids=["grid3x12", "K8"])
def test_dc_graph_node_counts(g, nodes):
    # one node per product over blocks: the exact count passes, one less does
    # not; before fat cycles were a closed form they were 2,365 and 763, and
    # before every block with no K4 minor was, 2,359 and 711
    m = mt.Graphic(g)
    t = tutte_dc(m, budget_nodes=nodes)
    assert t == tutte_frontier(g)
    assert t.eval(1, 1) == spanning_forests(g)
    with pytest.raises(ResourceBudgetExceeded):
        tutte_dc(m, budget_nodes=nodes - 1)


def count_key_calls(monkeypatch):
    """Count the canonical forms deletion-contraction computes: the returned
    list records every graph it keys."""
    calls = []
    key = engines.canonical_key

    def counted(g):
        calls.append(g)
        return key(g)

    monkeypatch.setattr(engines, "canonical_key", counted)
    return calls


def shifted(g, offset):
    return [(u + offset, v + offset) for u, v in g.edges]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, outer + spokes + inner)


def test_dc_memo_keeps_invariant_collisions_apart(monkeypatch):
    # Q3 and the Wagner graph V8 are cubic on 8 vertices and 12 edges, so
    # their blocks share the invariant class; Q3 is bipartite, V8 is not
    cube = Multigraph(8, [(w, w | 1 << b) for w in range(8) for b in range(3)
                          if not w >> b & 1])
    wagner = Multigraph(8, [(i, (i + 1) % 8) for i in range(8)]
                        + [(i, i + 4) for i in range(4)])
    joined = Multigraph(15, list(cube.edges) + shifted(wagner, 7))
    t_cube, t_wagner = tutte_dc(mt.Graphic(cube)), tutte_dc(mt.Graphic(wagner))
    assert t_cube != t_wagner
    calls = count_key_calls(monkeypatch)
    assert tutte_dc(mt.Graphic(joined)) == t_cube * t_wagner == tutte_frontier(joined)
    assert cube in calls and wagner in calls  # the second member keyed both


def test_dc_memo_promotes_a_class(monkeypatch):
    # Petersen, a relabelled copy (same class, another labelled graph) and an
    # exact copy (a labelled repeat): two keys more than Petersen alone
    p = petersen()
    rng = random.Random(3)
    perm = list(range(10))
    rng.shuffle(perm)
    moved = Multigraph(10, [(perm[u], perm[v]) for u, v in p.edges])
    union = Multigraph(30, list(p.edges) + shifted(moved, 10) + shifted(p, 20))
    assert [b for _, b in union.blocks()] == [p, moved, p] and moved != p
    calls = count_key_calls(monkeypatch)
    t = tutte_dc(mt.Graphic(p))
    alone = len(calls)
    assert tutte_dc(mt.Graphic(union)) == t**3
    assert len(calls) == 2 * alone + 2
    assert t == tutte_frontier(p)


@pytest.mark.parametrize("shape, case", [(chord_chain, "loops"), (split_class, "cut vertex")])
def test_dc_contraction_children_blocks(monkeypatch, shape, case):
    # DC takes a contraction child's blocks from one union-find pass around
    # the vertex the split merged; on every child it makes of these graphs
    # they are Tarjan's blocks, and T is the subset sum's.  Chains whose ends
    # are joined directly contract to loops; parallel classes whose ends are
    # a 2-separation contract to a cut vertex.  Each graph has a K4 minor, so
    # that DC splits it rather than closing it by series and parallel steps
    seen = {"loops": 0, "cut vertex": 0}
    blocks_at = Multigraph.blocks_at

    def checked(c, hinge):
        out = blocks_at(c, hinge)
        assert out == c.blocks(), (c, hinge)
        seen["loops"] += any(b.nverts == 1 for _, b in out)
        seen["cut vertex"] += sum(len(es) > 1 for es, _ in out) > 1
        return out

    monkeypatch.setattr(Multigraph, "blocks_at", checked)
    rng = random.Random(17)
    for _ in range(30):
        m = mt.Graphic(shape(rng, k4=True)[0])
        assert tutte_dc(m) == tutte_subset(m), m.graph
    assert seen[case] >= 10, seen


# canonical forms per tutte_dc call; when every memoized block was keyed
# they were 2,401 and 677, with fat cycles memoized and an invariant blind
# to edge multiplicities 1,261 and 280, and with blocks that have no K4
# minor memoized 1,207 and 208
@pytest.mark.parametrize("g, keys", [(grid_graph(3, 12), 969), (complete_graph(8), 130)],
                         ids=["grid3x12", "K8"])
def test_dc_graph_key_counts(monkeypatch, g, keys):
    calls = count_key_calls(monkeypatch)
    tutte_dc(mt.Graphic(g))
    assert len(calls) == keys


def test_dc_parallel_class_shortcut():
    # triangle with one edge tripled
    g = Multigraph(3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0)])
    assert tutte_dc(mt.Graphic(g)) == tutte_subset(mt.Graphic(g))


def test_dc_budget_exhaustion():
    with pytest.raises(ResourceBudgetExceeded):
        tutte_dc(mt.Graphic(grid_graph(3, 3)), budget_nodes=3)


def test_dc_whole_parallel_class_is_a_base_case():
    # U(1,200): without the base case this recursion takes a node per element
    # and tens of seconds
    thick = mt.thicken(mt.Uniform(1, 2), 100)
    assert tutte_dc(thick, budget_nodes=5) == uniform(1, 200)


def fat_cycle_graphs(rng, sizes, extras=True):
    """A cycle of bundles of sizes[i] parallel edges, with pendant trees and
    loops attached when extras: (edges in an order of small frontier, the
    same multigraph with its labels, edge order and edge ends shuffled)."""
    k = len(sizes)
    edges, n = [], k
    for i, m in enumerate(sizes):
        edges += [(i, (i + 1) % k)] * m
        for _ in range(rng.randint(0, 2) if extras else 0):
            tree = [i]
            for _ in range(rng.randint(1, 3)):
                edges.append((rng.choice(tree), n))
                tree.append(n)
                n += 1
        if extras and rng.random() < 0.3:
            edges.append((i, i))
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
             for u, v in edges]
    rng.shuffle(moved)
    return Multigraph(n, edges), Multigraph(n, moved)


def fat_cycle_gf3(rng, sizes):
    """The fat cycle over GF(3): the columns e_1 .. e_(k-1) and their sum, a
    circuit, the i-th repeated sizes[i] times, each copy scaled by 1 or 2."""
    k = len(sizes)
    circuit = [[int(i == j) for i in range(k - 1)] for j in range(k - 1)]
    circuit.append([1] * (k - 1))
    cols = [[c * a for a in col] for col, m in zip(circuit, sizes)
            for c in rng.choices((1, 2), k=m)]
    rng.shuffle(cols)
    return mt.Linear(GFMatrix(3, [list(row) for row in zip(*cols)]))


def test_dc_fat_cycles_match_the_frontier_sweep():
    rng = random.Random(17)
    for _ in range(80):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 9))]
        ordered, shuffled = fat_cycle_graphs(rng, sizes)
        t = tutte_frontier(ordered)
        assert tutte_dc(mt.Graphic(shuffled)) == t, sizes
        # spanning trees: every bundle but one keeps one of its edges
        assert t.eval(1, 1) == sum(prod(sizes[:j] + sizes[j + 1:])
                                   for j in range(len(sizes)))


@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_dc_plain_cycle_is_the_circuit(n):
    assert tutte_dc(mt.Graphic(cycle_graph(n))) == cycle(n)
    assert tutte_dc(mt.Uniform(n - 1, n)) == cycle(n)


def test_dc_generic_fat_cycles_match_subset():
    rng = random.Random(5)
    for k in range(3, 7):
        sizes = [rng.randint(1, 3) for _ in range(k)]
        graphic = tutte_dc(mt.Graphic(fat_cycle_graphs(rng, sizes, False)[1]))
        extended = mt.Uniform(k - 1, k)
        for i, m in enumerate(sizes):
            for _ in range(m - 1):
                extended = mt.parallel_extension(extended, i)
        for m in (extended, fat_cycle_gf3(rng, sizes)):
            assert tutte_dc(m) == tutte_subset(m) == graphic, (sizes, m)
        thick = mt.thicken(mt.Uniform(k - 1, k), 2)
        assert tutte_dc(thick) == tutte_subset(thick)


def test_fat_cycle_is_one_node_and_no_key(monkeypatch):
    rng = random.Random(9)
    sizes = [3, 1, 4, 1, 5]
    ordered, shuffled = fat_cycle_graphs(rng, sizes)
    roots = [
        mt.Graphic(shuffled),
        mt.Graphic(cycle_graph(12)),
        mt.thicken(mt.Uniform(4, 5), 3),
        fat_cycle_gf3(rng, sizes),
    ]
    expected = [tutte_frontier(ordered)] + [tutte_subset(m) for m in roots[1:]]
    calls = count_key_calls(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("the fat-cycle closed form ran another engine")

    for name in ("tutte_subset", "_corank_nullity_counts", "tutte_frontier",
                 "tutte_activities"):
        monkeypatch.setattr(engines, name, refuse)
    for m, t in zip(roots, expected):
        assert tutte_dc(m, budget_nodes=1) == t, m
    assert calls == []
    # a near miss: the pentagon with two crossing chords has a K4 minor
    chords = Multigraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (1, 3)])
    with pytest.raises(ResourceBudgetExceeded):
        tutte_dc(mt.Graphic(chords), budget_nodes=1)


@st.composite
def series_parallel_graphs(draw):
    """A random multigraph of at most 24 edges none of whose blocks has a K4
    minor (``helpers.series_parallel_multigraph``)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return series_parallel_multigraph(rng, draw(st.integers(1, 24)))


@settings(max_examples=40, deadline=None)
@given(series_parallel_graphs())
def test_dc_closes_series_parallel_blocks(g):
    # every block is a loop, a bridge, a bond, a fat cycle or closed by
    # series and parallel steps, so the root is the only node; a K4 glued
    # along a non-loop edge u-v puts its block past the closed form, and DC
    # splits it
    m = mt.Graphic(g)
    assert tutte_dc(m, budget_nodes=1) == tutte_subset(m)
    ends = next(((u, v) for u, v in g.edges if u != v), None)
    if ends is not None and g.nedges <= 19:
        (u, v), n = ends, g.nverts
        k4 = [(u, n), (v, n), (u, n + 1), (v, n + 1), (n, n + 1)]
        glued = mt.Graphic(Multigraph(n + 2, list(g.edges) + k4))
        assert tutte_dc(glued) == tutte_subset(glued)
        with pytest.raises(ResourceBudgetExceeded):
            tutte_dc(glued, budget_nodes=1)


def test_ladder_is_one_node_and_no_key(monkeypatch):
    # the 2 x 40 ladder is one block with no K4 minor: one node and no
    # canonical key (151 nodes when such blocks were memoized)
    calls = count_key_calls(monkeypatch)
    assert tutte_dc(mt.Graphic(grid_graph(2, 40)), budget_nodes=1) == grid2(40)
    assert calls == []


@pytest.mark.parametrize("g", [complete_graph(10), wheel_graph(30)], ids=["K10", "W30"])
def test_dc_counts_spanning_forests_past_the_subset_limit(g):
    assert tutte_dc(mt.Graphic(g)).eval(1, 1) == spanning_forests(g)


def test_dc_counts_spanning_forests_of_large_series_parallel_graphs():
    rng = random.Random(29)
    for _ in range(20):
        g = series_parallel_multigraph(rng, rng.randint(30, 60))
        assert tutte_dc(mt.Graphic(g), budget_nodes=1).eval(1, 1) == spanning_forests(g), g


ISOLATED = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from tuttepoly import engines, matroids as mt
from tuttepoly.families import cycle
from tuttepoly.graphs import Multigraph
n = 10**7 + 3
g = Multigraph(n, [(5, n - 3), (n - 3, n - 1), (n - 1, 5)])
print(engines.tutte_dc(mt.Graphic(g)) == cycle(3))
"""


def test_dc_drops_isolated_vertices_before_it_builds_anything():
    # a triangle among 10^7 isolated vertices, under a 512 MB address space:
    # a list per vertex would not fit
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(engines.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ISOLATED], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_dc_fat_cycle_near_misses_match_subset():
    rng = random.Random(11)
    sizes = [2, 1, 3, 2]
    ordered, _ = fat_cycle_graphs(rng, sizes, False)
    chord = Multigraph(4, list(ordered.edges) + [(0, 2)])
    gf3 = fat_cycle_gf3(rng, sizes)
    rows = [list(row) for row in gf3.mat.rows]
    for row, a in zip(rows, (1, 1, 0)):  # a chord: e_1 + e_2
        row.append(a)
    # a triangle and a pendant pair of parallel elements: four classes of
    # rank 3, but the pair's lowest element is a coloop of the four lowest
    deficit = Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3)])
    deficit_gf3 = standard_rep(3, 3, [(1, 1, 0), (0, 0, 2)])
    for m in (
        mt.Graphic(chord),
        mt.BasisList(3, chord.nedges, mt.bases(mt.Graphic(chord))),
        mt.Linear(GFMatrix(3, rows)),
        mt.BasisList(3, 5, mt.bases(mt.Graphic(deficit))),
        mt.Linear(deficit_gf3),
    ):
        assert tutte_dc(m) == tutte_subset(m), m
    assert tutte_dc(mt.Linear(deficit_gf3)) == cycle(3) * uniform(1, 2)


@st.composite
def lines(draw):
    """A loopless minor of rank at most 2 after DC strips its root: a GF(p)
    matrix of two rows with zero, repeated and scaled columns; a direct sum
    of two bonds (a line with two classes); or U(2,k) with uneven parallel
    extensions."""
    kind = draw(st.sampled_from(["gf", "bonds", "extended"]))
    if kind == "bonds":
        return mt.direct_sum([mt.Uniform(1, draw(st.integers(1, 5))) for _ in range(2)])
    if kind == "extended":
        m = mt.Uniform(2, draw(st.integers(2, 5)))
        for e in draw(st.lists(st.integers(0, m.n - 1), max_size=6)):
            m = mt.parallel_extension(m, e)
        return m
    p = draw(st.sampled_from([2, 3, 5, 101]))
    cols = []
    for _ in range(draw(st.integers(1, 11))):
        kind = draw(st.sampled_from(["fresh", "zero", "scaled"]))
        if kind == "scaled" and cols:
            c = draw(st.integers(1, p - 1))
            cols.append([a * c % p for a in draw(st.sampled_from(cols))])
        elif kind == "zero":
            cols.append([0, 0])
        else:
            cols.append(draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2)))
    return mt.Linear(GFMatrix(p, [list(row) for row in zip(*cols)]))


@given(lines())
@settings(max_examples=150, deadline=None)
def test_dc_lines_and_their_duals_match_subset(m):
    # a line by the rank closed form; its dual runs DC on the line itself,
    # so the same dual as a MapView takes the corank closed form
    assert m.full_rank <= 2
    for root in (m, mt.dual(m), mt.thicken(mt.dual(m), 1)):
        assert tutte_dc(root) == tutte_subset(root), root
    if isinstance(m, mt.DirectSum):
        a, b = (part.n for part in m.parts)
        assert tutte_dc(m) == uniform(1, a) * uniform(1, b)


def test_line_and_its_dual_are_one_node(monkeypatch):
    cols = [(1, 0)] * 3 + [(0, 2)] + [(1, 1), (2, 2)] * 2 + [(1, 2)]  # classes of 3, 1, 4, 1
    line = mt.Linear(GFMatrix(3, [list(row) for row in zip(*cols)]))
    roots = [mt.Uniform(2, 500), mt.Uniform(498, 500), line, mt.dual(line)]
    expected = [uniform(2, 500), uniform(498, 500), tutte_subset(line),
                tutte_subset(mt.dual(line))]

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form of a line ran another engine")

    for name in ("tutte_subset", "_corank_nullity_counts", "tutte_activities",
                 "tutte_frontier"):
        monkeypatch.setattr(engines, name, refuse)
    for m, t in zip(roots, expected):
        assert tutte_dc(m, budget_nodes=1) == t, m


def test_dc_budget_below_one_is_refused():
    for cap in (0, -5):
        with pytest.raises(InvalidParameters):
            tutte_dc(mt.Uniform(1, 2), budget_nodes=cap)


def test_packed_routes_do_no_polynomial_arithmetic(monkeypatch):
    # DC and the frontier sweep add and multiply packed ints; only the root
    # builds a BiPoly
    roots = [
        mt.Graphic(grid_graph(3, 4)),
        mt.relax(fano(), {0, 1, 3}),
        mt.Linear(GFMatrix(3, GF3_4X13)),
    ]
    expected = [tutte_subset(m) for m in roots]
    grid = tutte_dc(mt.Graphic(grid_graph(4, 5)))

    def refuse(*args, **kwargs):
        raise AssertionError("a packed route did BiPoly arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(BiPoly, name, refuse)
    assert isinstance(roots[1], mt.RelaxView)
    for m, t in zip(roots, expected):
        assert tutte_dc(m) == t, m
    assert transfer_grid(4, 5) == grid


@pytest.mark.parametrize("m, t", [
    # a coefficient at the bound C(n, r) = 1 and a degree at r = n, resp. n - r = n
    (mt.Uniform(5, 5), BiPoly.monomial(5, 0)),
    (mt.Uniform(0, 5), BiPoly.monomial(0, 5)),
    (mt.Graphic(bond_graph(9)), uniform(1, 9)),  # y-degree n - r
    (mt.direct_sum([mt.Uniform(0, 3), mt.Uniform(2, 2), mt.Uniform(0, 1)]),
     BiPoly.monomial(2, 4)),
    (mt.Graphic(Multigraph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])),
     BiPoly.monomial(2, 3)),
    (mt.thicken(mt.Uniform(1, 2), 60), uniform(1, 120)),
])
def test_packed_layout_at_its_bounds(m, t):
    assert tutte_dc(m) == t
    if isinstance(m, mt.Graphic):
        assert tutte_frontier(m.graph) == t


# -- basis activities ---------------------------------------------------------


def test_activities_goldens():
    assert tutte_activities(mt.catalan_matroid(3)) == T_CATALAN3
    assert tutte_activities(fano()) == T_F7
    assert tutte_activities(mt.Uniform(2, 5)) == T_U25


def test_activities_order_invariance():
    p8 = mt.Linear(
        standard_rep(3, 4, [(0, 1, 1, 2), (1, 0, 1, 1), (1, 1, 0, 1), (2, 1, 1, 0)])
    )
    assert tutte_activities(p8) == T_P8
    rng = random.Random(48)
    for _ in range(5):
        order = list(range(8))
        rng.shuffle(order)
        assert tutte_activities(p8, order) == T_P8


def test_activities_keep_the_bases_on_the_matroid():
    # a second run on the same object asks its oracle nothing
    m = fano()
    assert tutte_activities(m) == T_F7
    calls = count_rank_calls(m)
    assert tutte_activities(m, order=range(6, -1, -1)) == T_F7
    assert calls == []


def test_activities_leave_no_reference_to_the_matroid():
    m = mt.Uniform(3, 8)
    ref = weakref.ref(m)
    tutte_activities(m)
    del m
    gc.collect()
    assert ref() is None


def test_activities_guards():
    with pytest.raises(GroundSetTooLarge):
        tutte_activities(mt.Uniform(2, 21))
    with pytest.raises(InvalidParameters):
        tutte_activities(mt.Uniform(2, 4), order=[0, 1, 2, 2])
    with pytest.raises(InvalidParameters):
        tutte_activities(mt.Uniform(2, 4), order=[0, 1, 2])


# -- characteristic polynomial and the coboundary route -----------------------


def test_char_poly_examples():
    pg22 = mt.Linear(standard_rep(2, 3, [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]))
    # (q-1)(q-2)(q-4)
    assert char_poly(pg22) == [-8, 14, -7, 1]
    assert char_poly(mt.Uniform(0, 1)) == []
    assert char_poly(mt.Graphic(cycle_graph(3))) == [2, -3, 1]


def test_char_poly_counts_proper_colourings():
    # lambda * char(lambda) at lambda = k equals the k-colouring count of a
    # connected graph; cross-check against direct enumeration
    g = cycle_graph(3)
    cp = char_poly(mt.Graphic(g))
    for k in (1, 2, 3, 4):
        proper = bad_colouring(g, k)[0]
        assert k * sum(c * k**i for i, c in enumerate(cp)) == proper


def test_coboundary_singleton():
    assert coboundary(mt.Uniform(1, 1)) == BiPoly({(1, 0): 1, (0, 0): -1, (0, 1): 1})


def test_coboundary_ternary_affine():
    expected = BiPoly(
        {
            (3, 0): 1,
            (2, 0): -9,
            (1, 0): 24,
            (0, 0): -16,
            (2, 1): 9,
            (1, 1): -36,
            (0, 1): 27,
            (1, 3): 12,
            (0, 3): -12,
            (0, 9): 1,
        }
    )
    assert coboundary(ternary_affine()) == expected


def test_coboundary_route_matches_subset():
    for m in [mt.Uniform(2, 4), mt.Graphic(cycle_graph(4)), fano(), whirl3()]:
        assert tutte_via_coboundary(m) == tutte_subset(m)


def test_coboundary_tutte_conversions_invert():
    for m in [mt.Uniform(2, 4), fano(), mt.Graphic(wheel_graph(3))]:
        t = tutte_subset(m)
        r = m.full_rank
        assert coboundary_from_tutte(t, r) == coboundary(m)
        assert tutte_from_coboundary(coboundary(m), r) == t


@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    min_size=1,
    max_size=6,
).map(BiPoly))
@settings(max_examples=40)
def test_conversion_roundtrip_any_polynomial(p):
    r = p.bidegree()[0]
    if r < 0:
        return
    assert tutte_from_coboundary(coboundary_from_tutte(p, r), r) == p


def _reference_tutte_from_coboundary(cob, r):
    """sum_a (x-1)^a g_a(y) (y-1)^(a-r) by BiPoly products, each g_a divided
    by (y-1)^(r-a) at once with exact_div."""
    groups = {}
    for (a, b), c in cob.items():
        groups.setdefault(a, {})[(0, b)] = c
    acc = BiPoly.zero()
    for a, terms in groups.items():
        g = BiPoly(terms)
        if r >= a:
            part = exact_div(g, (Y - 1) ** (r - a))
        else:
            part = g * (Y - 1) ** (a - r)
        acc = acc + (X - 1) ** a * part
    return acc


def _reference_coboundary_from_tutte(tutte, r):
    """(t-1)^r T((lambda+t-1)/(t-1), t) by subst_rational."""
    return subst_rational(tutte, X + Y - 1, Y - 1, Y, BiPoly.one(), clear_factor=(Y - 1) ** r)


def _outcome(f, *args):
    try:
        return f(*args)
    except NonExactDivision:
        return NonExactDivision


_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-30, 30),
    max_size=8,
).map(BiPoly)


@given(_polys, st.integers(0, 3), st.integers(0, 99))
@example(BiPoly.zero(), 0, 0)
@example(BiPoly.zero(), 0, 1)
@settings(max_examples=150, deadline=None)
def test_conversions_match_reference_formulas(p, k, seed):
    # p (y-1)^k makes every g_a divisible by (y-1)^k, so both outcomes occur;
    # r runs from 0 to the bidegree + 2
    cob = p * (Y - 1) ** k
    r = seed % (max(cob.bidegree()) + 3)
    assert _outcome(tutte_from_coboundary, cob, r) == _outcome(
        _reference_tutte_from_coboundary, cob, r)
    assert _outcome(coboundary_from_tutte, p, r) == _outcome(
        _reference_coboundary_from_tutte, p, r)


def test_conversions_reject_inexact_inputs():
    with pytest.raises(NonExactDivision):
        tutte_from_coboundary(BiPoly.one(), 1)  # 1 / (y - 1)
    with pytest.raises(NonExactDivision):
        coboundary_from_tutte(X * X, 0)  # 2 lambda / (t - 1) + ...
    assert tutte_from_coboundary(BiPoly.zero(), 3) == BiPoly.zero()
    assert coboundary_from_tutte(BiPoly.zero(), 3) == BiPoly.zero()


# -- colouring enumeration ----------------------------------------------------


def test_bad_colouring_wheel():
    out = bad_colouring(wheel_graph(3), 3)
    assert out == [0, 36, 18, 24, 0, 0, 3]


def test_bad_colouring_edgeless_and_raw():
    g = Multigraph(4, [])
    assert bad_colouring(g, 3) == [81]
    assert bad_colouring(cycle_graph(3), 2) == [0, 6, 0, 2]


def test_bad_colouring_loops_always_bad():
    g = Multigraph(1, [(0, 0)])
    assert bad_colouring(g, 5) == [0, 5]


def test_bad_colouring_matches_coboundary():
    # for a connected graph, the colouring generating function equals
    # lambda * coboundary(lambda, t) at lambda = number of colours
    g = cycle_graph(3)
    cob = coboundary(mt.Graphic(g))
    for k in (1, 2, 3):
        coeffs = [0] * 4
        for (a, b), c in cob.items():
            coeffs[b] += c * k**a
        assert [k * v for v in coeffs] == bad_colouring(g, k)


def test_bad_colouring_guards():
    with pytest.raises(GraphTooLarge):
        bad_colouring(Multigraph(13, []), 2)
    with pytest.raises(InvalidParameters):
        bad_colouring(cycle_graph(3), 0)


# -- transfer-matrix methods --------------------------------------------------


def test_transfer_grid_small_goldens():
    assert transfer_grid(2, 2) == BiPoly({(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1})


@pytest.mark.parametrize(
    "m,n", [(2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (5, 4), (6, 3)]
)
def test_transfer_grid_matches_dc(m, n):
    assert transfer_grid(m, n) == tutte_dc(mt.Graphic(grid_graph(m, n)))


def test_transfer_grid_guards():
    for width in (1, 7):
        with pytest.raises(UnsupportedWidth):
            transfer_grid(width, 3)
    with pytest.raises(InvalidParameters):
        transfer_grid(2, 1)


def test_transfer_grid_ladders_match_closed_form():
    for n in range(2, 21):
        assert transfer_grid(2, n) == grid2(n), n


@pytest.mark.parametrize("m,n", [(5, 5), (5, 6), (6, 6)])
def test_wide_grids_count_subsets_and_spanning_trees(m, n):
    g = grid_graph(m, n)
    t = transfer_grid(m, n)
    assert t.eval(2, 2) == 2 ** len(g.edges)
    assert t.eval(1, 1) == spanning_forests(g)


def test_frontier_follows_the_edge_order():
    # a wheel listed spoke, rim edge, spoke, ... keeps a frontier of four
    # vertices; listed spokes first (a star), every rim vertex waits for its
    # rim edges and the frontier holds all ten vertices
    rim = 9
    good = []
    for i in range(1, rim + 1):
        good += [(0, i), (i, i % rim + 1)]
    assert tutte_frontier(Multigraph(rim + 1, good)) == wheel(rim)
    with pytest.raises(GraphTooLarge):
        tutte_frontier(wheel_graph(rim))
    with pytest.raises(GraphTooLarge):  # the cap is checked before any state exists
        tutte_frontier(wheel_graph(100_000))


def test_transfer_wheel_golden():
    assert transfer_wheel(3, 3) == [0, 36, 18, 24, 0, 0, 3]


def test_transfer_wheel_one_colour():
    # every vertex forced to the same colour: all 2n edges monochromatic
    assert transfer_wheel(4, 1) == [0] * 8 + [1]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("colors", [2, 3, 4])
def test_transfer_wheel_matches_enumeration(n, colors):
    assert transfer_wheel(n, colors) == bad_colouring(wheel_graph(n), colors)


def test_transfer_wheel_matches_the_coboundary_route():
    # a connected graph's bad-colouring polynomial is lambda * cob(lambda, t)
    # at lambda = colours; the wheel W_n has rank n
    for n in range(3, 13):
        cob = coboundary_from_tutte(wheel(n), n)
        for c in range(1, 10):
            want = [0] * (2 * n + 1)
            for (a, b), k in cob.items():
                want[b] += c * k * c**a
            assert transfer_wheel(n, c) == want, (n, c)


@pytest.mark.parametrize("n, c", [(200, 3), (30, 20)])
def test_transfer_wheel_large(n, c):
    out = transfer_wheel(n, c)
    assert sum(out) == c ** (n + 1)  # every colouring once
    assert len(out) == 2 * n + 1 and out[-1] == c  # all 2n edges bad: one colour


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("colors", [1, 2, 3, 4, 5])
def test_transfer_wheel_eigenvalue_identity(n, colors):
    # hub colour factored out: the rim contributes the trace of an n-step
    # transfer whose spectrum is (t-1) with multiplicity colors-2 plus the two
    # roots of z^2 - s z + q; power sums of those roots obey the recurrence
    # p_k = s p_{k-1} - q p_{k-2}; t is the x of BiPoly
    lam = colors
    s = BiPoly({(0, 0): lam - 2, (1, 0): 1, (2, 0): 1})
    disc = BiPoly({(k, 0): c for k, c in enumerate(
        [(lam - 2) ** 2, 6 * lam - 8, -(2 * lam - 5), -2, 1])})
    q = exact_div(s * s - disc, BiPoly.const(4))
    p_prev, p_cur = BiPoly.const(2), s
    for _ in range(n - 1):
        p_prev, p_cur = p_cur, s * p_cur - q * p_prev
    closed = p_cur + (lam - 2) * (X - 1) ** n
    expected = lam * closed
    assert transfer_wheel(n, colors) == [expected.coeff(k, 0) for k in range(2 * n + 1)]


# colours^(n+1) bounds every coefficient, so these take slots of 1 to 9
# and 14 bytes: every width unpacked by a native cast, and the slicing path
WHEEL_SLOTS = [(3, 2), (7, 3), (10, 4), (12, 4), (15, 4), (17, 5), (20, 5), (24, 5),
               (27, 5), (30, 5), (40, 6)]


def test_wheel_slot_widths_span_every_cast():
    widths = {_Packing(2 * n, c ** (n + 1)).y // 8 for n, c in WHEEL_SLOTS}
    assert set(range(1, 10)) <= widths and max(widths) > 9


@pytest.mark.parametrize("n, colors", WHEEL_SLOTS + [(3, 1), (17, 1), (40, 1)])
def test_transfer_wheel_matches_the_list_reference(n, colors):
    # every colouring once, and all 2n edges bad in one colour: one colour
    # gives t^(2n) alone
    out = transfer_wheel(n, colors)
    assert out == transfer_wheel_lists(n, colors)
    assert sum(out) == colors ** (n + 1) and out[-1] == colors


def test_transfer_wheel_guards():
    with pytest.raises(InvalidParameters):
        transfer_wheel(2, 3)
    with pytest.raises(InvalidParameters):
        transfer_wheel(3, 0)


# -- cross-engine identities --------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: mt.Uniform(2, 5),
        lambda: mt.Graphic(wheel_graph(4)),
        lambda: fano(),
        lambda: whirl3(),
        lambda: mt.catalan_matroid(3),
    ],
)
def test_engines_agree(make):
    m = make()
    t = tutte_subset(m)
    assert tutte_dc(m) == t
    assert tutte_activities(m) == t
    assert tutte_via_coboundary(m) == t


def test_duality_swaps_variables():
    for m in [mt.Uniform(2, 5), fano(), mt.Graphic(complete_graph(4))]:
        assert tutte_subset(mt.dual(m)) == tutte_subset(m).swap()


def test_relaxation_shifts_one_basis():
    f7 = fano()
    line = frozenset({0, 1, 3})
    assert f7.rank(line) == 2
    relaxed = mt.relax(f7, line)
    assert tutte_subset(relaxed) == T_F7 - X * Y + X + Y


@pytest.mark.parametrize(
    "g, x, wd, wc",
    [
        # a doubled edge on a triangle, X its parallel class
        (Multigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)]), [0, 1], 1, 1 + Y),
        # a tripled edge of K4
        (Multigraph(4, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)]),
         [0, 1, 7], 1, 1 + Y + Y**2),
        # a two-edge chain inside a 4-cycle, X a series class
        (cycle_graph(4), [0, 1], 1 + X, 1),
        # a three-edge chain of a theta graph
        (Multigraph(5, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (0, 1)]),
         [0, 1, 2], 1 + X + X**2, 1),
        # one edge of K4
        (complete_graph(4), [5], 1, 1),
    ],
    ids=["parallel2", "parallel3", "series2", "series3", "edge"],
)
def test_split_identity(g, x, wd, wc):
    # T(G) = w_d T(G minus X) + w_c T(G/X), the one split of graph DC
    def t(h):
        return tutte_subset(mt.Graphic(h))

    assert t(g) == wd * t(g.delete_edges(x)) + wc * t(g.contract_edges(x))


@st.composite
def multigraphs(draw):
    """Up to 6 vertices in up to three blocks, up to 9 edges inside the blocks.

    Loops and parallel edges are allowed, and separate blocks give graphs
    with several non-trivial components.
    """
    nv = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(3, nv)))
    cuts = [b * nv // k for b in range(k + 1)]
    picks = draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, 5), st.integers(0, 5)),
        max_size=9,
    ))
    edges = []
    for b, u, v in picks:
        size = cuts[b + 1] - cuts[b]
        edges.append((cuts[b] + u % size, cuts[b] + v % size))
    return Multigraph(nv, edges)


@given(multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_contract_edges_matches_single_contractions(g, data):
    picks = data.draw(st.lists(st.booleans(), min_size=g.nedges, max_size=g.nedges))
    drop = [i for i, p in enumerate(picks) if p]
    expected = g
    for i in reversed(drop):
        expected = contract_one(expected, i)
    assert g.contract_edges(drop) == expected


@given(multigraphs(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
@example(LOOP_BRIDGE_PAIR, 2)
def test_dc_on_graph_maps_and_duals_matches_subset(g, e):
    # the dual by graph DC and the Graphic that a parallel extension or a
    # thickening gives, against the subset sweep on the same object
    m = mt.Graphic(g)
    made = [mt.dual(m), mt.thicken(m, 2)]
    if g.nedges:
        made.append(mt.parallel_extension(m, e % g.nedges))
    for x in made:
        assert tutte_dc(x) == tutte_subset(x), (g, x)


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_dc_matches_subset_on_random_graphs(g):
    m = mt.Graphic(g)
    expected = tutte_subset(m)
    assert tutte_dc(m) == expected
    assert tutte_activities(m) == expected


@st.composite
def one_point_joins(draw):
    """Two multigraphs glued at one vertex, as (joined, first, second)."""
    a, b = draw(multigraphs()), draw(multigraphs())
    u, v = draw(st.integers(0, a.nverts - 1)), draw(st.integers(0, b.nverts - 1))
    # b's vertex v becomes a's vertex u, the others follow a's
    relabel = [u if w == v else a.nverts + w - (w > v) for w in range(b.nverts)]
    edges = a.edges + tuple((relabel[x], relabel[y]) for x, y in b.edges)
    return Multigraph(a.nverts + b.nverts - 1, edges), a, b


@given(one_point_joins())
@settings(max_examples=40, deadline=None)
def test_dc_one_point_join_multiplies(parts):
    joined, a, b = parts
    assume(joined.nedges <= 14)  # keeps the subset sweep under 2^14 ranks
    t = tutte_dc(mt.Graphic(joined))
    assert t == tutte_dc(mt.Graphic(a)) * tutte_dc(mt.Graphic(b))
    assert t == tutte_subset(mt.Graphic(joined))


@given(multigraphs())
@example(Multigraph(0, []))
@settings(max_examples=150, deadline=None)
def test_frontier_matches_dc_on_random_graphs(g):
    assert tutte_frontier(g) == tutte_dc(mt.Graphic(g))


@st.composite
def reordered_multigraphs(draw):
    """A draw of ``multigraphs()`` with its edges listed in a drawn order."""
    g = draw(multigraphs())
    return Multigraph(g.nverts, draw(st.permutations(g.edges)))


def _grid_by_rows(m, n):
    """The m x n grid with its edges listed row by row: a row's edges along
    it, then those down to the next row."""
    g = grid_graph(m, n)  # vertex col * m + row; each edge from its lower end
    return Multigraph(g.nverts, sorted(
        g.edges, key=lambda e: (e[0] % m, e[0] % m != e[1] % m, e[0] // m)
    ))


@given(reordered_multigraphs())
@settings(max_examples=150, deadline=None)
@example(Multigraph(0, []))
@example(Multigraph(1, []))
@example(Multigraph(3, [(0, 1), (2, 2), (0, 1)]))  # 2 joins and retires at its loop
@example(Multigraph(4, [(0, 1), (3, 2), (0, 1)]))  # 3 and 2 join and retire at once
@example(Multigraph(3, [(0, 1), (1, 2), (0, 1)]))  # the second copy retires 0 and 1
@example(_grid_by_rows(3, 6))
@example(wheel_graph(9))  # spokes first: all ten vertices on the frontier
def test_frontier_matches_the_three_pass_reference(g):
    try:
        expected = tutte_frontier_three_pass(g)
    except GraphTooLarge:
        with pytest.raises(GraphTooLarge):
            tutte_frontier(g)
        return
    assert tutte_frontier(g) == expected
    if g.nedges <= 12:
        assert expected == tutte_subset(mt.Graphic(g))


def test_frontier_tables_live_for_one_call(monkeypatch):
    # every column of a grid meets the same step patterns and states, so the
    # transitions a call builds do not grow with n; an identical second call
    # builds them all again, as no table outlives its call
    built = []
    build = engines._transition
    monkeypatch.setattr(engines, "_transition", lambda *a: built.append(a) or build(*a))
    for m in (2, 3, 4):
        counts = []
        for n in (8, 30, 30):
            built.clear()
            transfer_grid(m, n)
            counts.append(len(built))
        assert counts[0] == counts[1] == counts[2] > 0, (m, counts)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=30)
def test_tutte_at_one_one_counts_bases(r, extra):
    n = r + extra
    m = mt.Uniform(r, n)
    count = tutte_subset(m).eval(1, 1)
    assert count == len(mt.bases(m)) if n else count == 1
