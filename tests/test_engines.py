from __future__ import annotations

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tuttepoly import engines
from tuttepoly import matroids as mt
from tuttepoly.catalog import build
from tuttepoly.bipoly import BiPoly, X, Y, exact_div, subst_rational
from tuttepoly.engines import (
    _corank_nullity_counts,
    bad_colouring,
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
from tuttepoly.families import grid2, uniform, wheel
from tuttepoly.gf import GFMatrix, standard_rep
from tuttepoly.graphs import (
    Multigraph,
    bond_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    wheel_graph,
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
    """A view of the given class over a drawn matroid, on at most 12 elements."""
    m = draw(base_matroids(draw(st.sampled_from(BASE_KINDS))))
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
# were 191 / 489 / 1,058 / 7,353
ROOT_RANK_CALLS = {282: 125, 721: 272, 1641: 631, 10540: 3516}


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


def test_dc_whirl_parallel_extension():
    # adding an element parallel to a rim element of the rank-3 whirl
    assert tutte_dc(mt.parallel_extension(whirl3(), 3)) == T_WHIRL3_PLUS


def test_dc_disconnected_graph_multiplies():
    g = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    t3 = tutte_dc(mt.Graphic(cycle_graph(3)))
    assert tutte_dc(mt.Graphic(g)) == t3 * t3


@pytest.mark.parametrize("g, nodes", [(grid_graph(3, 12), 2365), (complete_graph(8), 763)])
def test_dc_graph_node_counts(g, nodes):
    # one node per product over blocks: the exact count passes, one less does not
    m = mt.Graphic(g)
    assert tutte_dc(m, budget_nodes=nodes) == tutte_frontier(g)
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
    assert union.restrict(range(15, 30)) != p
    calls = count_key_calls(monkeypatch)
    t = tutte_dc(mt.Graphic(p))
    alone = len(calls)
    assert tutte_dc(mt.Graphic(union)) == t**3
    assert len(calls) == 2 * alone + 2
    assert t == tutte_frontier(p)


# canonical forms per tutte_dc call; when every memoized block was keyed
# they were 2,401 and 677
@pytest.mark.parametrize("g, keys", [(grid_graph(3, 12), 1261), (complete_graph(8), 280)])
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


def _spanning_trees(g):
    """Kirchhoff: a Laplacian cofactor of a connected simple graph, by Bareiss."""
    size = g.nverts - 1
    lap = [[0] * size for _ in range(size)]
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            if a < size:
                lap[a][a] += 1
                if b < size:
                    lap[a][b] -= 1
    prev = 1
    for k in range(size - 1):
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                lap[i][j] = (lap[i][j] * lap[k][k] - lap[i][k] * lap[k][j]) // prev
        prev = lap[k][k]
    return lap[-1][-1]


@pytest.mark.parametrize("m,n", [(5, 5), (5, 6), (6, 6)])
def test_wide_grids_count_subsets_and_spanning_trees(m, n):
    g = grid_graph(m, n)
    t = transfer_grid(m, n)
    assert t.eval(2, 2) == 2 ** len(g.edges)
    assert t.eval(1, 1) == _spanning_trees(g)


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


def test_parallel_class_split_identity():
    # doubled edge on a triangle: T(M) = T(M minus class) + (1+y) T(M/class)
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
    m = mt.Graphic(g)
    minus = mt.Graphic(g.delete_edges([0, 1]))
    contracted = mt.Graphic(g.delete_edges([1]).contract_edge(0))
    lhs = tutte_subset(m)
    rhs = tutte_subset(minus) + (1 + Y) * tutte_subset(contracted)
    assert lhs == rhs


def test_series_class_split_identity():
    # two-edge path chain inside a 4-cycle: T = (1+x) T(del X) + T(M/X)
    g = cycle_graph(4)
    m = mt.Graphic(g)
    x_cls = [0, 1]
    minus = mt.Graphic(g.delete_edges(x_cls))
    contracted = mt.Graphic(g.contract_edge(1).contract_edge(0))
    assert tutte_subset(m) == (1 + X) * tutte_subset(minus) + tutte_subset(contracted)


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


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=30)
def test_tutte_at_one_one_counts_bases(r, extra):
    n = r + extra
    m = mt.Uniform(r, n)
    count = tutte_subset(m).eval(1, 1)
    assert count == len(mt.bases(m)) if n else count == 1
