from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuttepoly import matroids as mt
from tuttepoly.bipoly import BiPoly, UniPoly, X, Y
from tuttepoly.engines import (
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
    ResourceBudgetExceeded,
    UnsupportedWidth,
)
from tuttepoly.families import grid2, uniform, wheel
from tuttepoly.gf import standard_rep
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
    assert char_poly(pg22).int_coeffs() == [-8, 14, -7, 1]
    assert char_poly(mt.Uniform(0, 1)).is_zero()
    assert char_poly(mt.Graphic(cycle_graph(3))).int_coeffs() == [2, -3, 1]


def test_char_poly_counts_proper_colourings():
    # lambda * char(lambda) at lambda = k equals the k-colouring count of a
    # connected graph; cross-check against direct enumeration
    g = cycle_graph(3)
    cp = char_poly(mt.Graphic(g))
    for k in (1, 2, 3, 4):
        proper = bad_colouring(g, k).eval(0)
        assert k * cp.eval(k) == proper


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


# -- colouring enumeration ----------------------------------------------------


def test_bad_colouring_wheel():
    out = bad_colouring(wheel_graph(3), 3)
    assert out.int_coeffs() == [0, 36, 18, 24, 0, 0, 3]


def test_bad_colouring_edgeless_and_raw():
    g = Multigraph(4, [])
    assert bad_colouring(g, 3).int_coeffs() == [81]
    assert bad_colouring(cycle_graph(3), 2).int_coeffs() == [0, 6, 0, 2]


def test_bad_colouring_loops_always_bad():
    g = Multigraph(1, [(0, 0)])
    assert bad_colouring(g, 5).int_coeffs() == [0, 5]


def test_bad_colouring_matches_coboundary():
    # for a connected graph, the colouring generating function equals
    # lambda * coboundary(lambda, t) at lambda = number of colours
    g = cycle_graph(3)
    cob = coboundary(mt.Graphic(g))
    for k in (1, 2, 3):
        coeffs = [0] * 4
        for (a, b), c in cob.items():
            coeffs[b] += c * k**a
        assert [k * v for v in coeffs] == bad_colouring(g, k).int_coeffs()


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
    assert transfer_wheel(3, 3).int_coeffs() == [0, 36, 18, 24, 0, 0, 3]


def test_transfer_wheel_one_colour():
    # every vertex forced to the same colour: all 2n edges monochromatic
    assert transfer_wheel(4, 1).int_coeffs() == [0] * 8 + [1]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("colors", [2, 3, 4])
def test_transfer_wheel_matches_enumeration(n, colors):
    assert transfer_wheel(n, colors) == bad_colouring(wheel_graph(n), colors)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("colors", [1, 2, 3, 4, 5])
def test_transfer_wheel_eigenvalue_identity(n, colors):
    # hub colour factored out: the rim contributes the trace of an n-step
    # transfer whose spectrum is (t-1) with multiplicity colors-2 plus the two
    # roots of z^2 - s z + q; power sums of those roots obey the recurrence
    # p_k = s p_{k-1} - q p_{k-2}
    lam = colors
    s = UniPoly([lam - 2, 1, 1])
    disc = UniPoly(
        [(lam - 2) ** 2, 6 * lam - 8, -(2 * lam - 5), -2, 1]
    )
    q = (s * s - disc) * UniPoly.const(Fraction(1, 4))
    p_prev, p_cur = UniPoly.const(2), s
    for _ in range(n - 1):
        p_prev, p_cur = p_cur, s * p_cur - q * p_prev
    rim_pow = UniPoly.const(1)
    for _ in range(n):
        rim_pow = rim_pow * UniPoly([-1, 1])
    closed = p_cur + UniPoly.const(lam - 2) * rim_pow
    expected = UniPoly.const(lam) * closed
    assert transfer_wheel(n, colors).int_coeffs() == expected.int_coeffs()


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
