"""Closed-form family formulas against frozen values and engine oracles."""

from __future__ import annotations

import ast
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tuttepoly
from tuttepoly import engines as eng
from tuttepoly import errors
from tuttepoly import families as fam
from tuttepoly import graphs
from tuttepoly import matroids as mt
from tuttepoly.bipoly import BiPoly, X, Y, _Packing
from tuttepoly.errors import (
    InvalidParameters,
    InvalidPartition,
    InvalidRank,
    InvalidSize,
    NotPrimePower,
    SizeBudgetExceeded,
    UnknownSystem,
)
from tuttepoly.gf import GFMatrix

from helpers import (
    complete_bipartite_partition_lists,
    complete_graph_partition_lists,
    grid2_bipoly,
    power_sums_bipoly,
    standard_rep,
    tutte_from_partition_lists,
)


def bp(d):
    return BiPoly(d)


T_U24 = bp({(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1})
T_U36 = bp({(3, 0): 1, (2, 0): 3, (1, 0): 6, (0, 1): 6, (0, 2): 3, (0, 3): 1})
T_F7 = bp({(3, 0): 1, (2, 0): 4, (1, 0): 3, (1, 1): 7,
           (0, 1): 3, (0, 2): 6, (0, 3): 3, (0, 4): 1})
T_V8 = bp({(4, 0): 1, (3, 0): 4, (2, 0): 10, (1, 0): 15, (1, 1): 5,
           (0, 1): 15, (0, 2): 10, (0, 3): 4, (0, 4): 1})
T_WHEEL3 = bp({(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4,
               (0, 1): 2, (0, 2): 3, (0, 3): 1})
T_WHEEL4 = bp({(4, 0): 1, (3, 0): 4, (2, 0): 6, (1, 0): 3, (2, 1): 4,
               (1, 2): 4, (1, 1): 9, (0, 1): 3, (0, 2): 6, (0, 3): 4, (0, 4): 1})
T_WHIRL3 = bp({(3, 0): 1, (2, 0): 3, (1, 0): 3, (1, 1): 3,
               (0, 1): 3, (0, 2): 3, (0, 3): 1})
T_WHIRL4 = bp({(4, 0): 1, (3, 0): 4, (2, 0): 6, (1, 0): 4, (2, 1): 4,
               (1, 2): 4, (1, 1): 8, (0, 1): 4, (0, 2): 6, (0, 3): 4, (0, 4): 1})
T_R9 = bp({(3, 0): 1, (2, 0): 6, (1, 0): 8, (1, 1): 11, (1, 2): 2, (0, 1): 8,
           (0, 2): 13, (0, 3): 10, (0, 4): 6, (0, 5): 3, (0, 6): 1})
T_K4E = bp({(3, 0): 1, (2, 0): 2, (1, 0): 1, (1, 1): 2, (0, 1): 1, (0, 2): 1})
T_Q6 = bp({(3, 0): 1, (2, 0): 3, (1, 0): 4, (1, 1): 2,
           (0, 1): 4, (0, 2): 3, (0, 3): 1})
T_R6 = T_Q6
T_CATALAN3 = bp({(3, 1): 1, (2, 1): 1, (2, 2): 1, (1, 2): 1, (1, 3): 1})
T_L22 = bp({(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1})
T_K5 = bp({(0, 6): 1, (0, 5): 4, (4, 0): 1, (1, 3): 5, (0, 4): 10, (3, 0): 6,
           (2, 1): 10, (1, 2): 15, (0, 3): 15, (2, 0): 11, (1, 1): 20,
           (0, 2): 15, (1, 0): 6, (0, 1): 6})
T_K33 = bp({(5, 0): 1, (4, 0): 4, (3, 0): 10, (2, 1): 9, (2, 0): 11, (1, 2): 6,
            (1, 1): 15, (1, 0): 5, (0, 4): 1, (0, 3): 5, (0, 2): 9, (0, 1): 5})
T_PG23 = bp({(3, 0): 1, (2, 0): 10, (1, 2): 13, (1, 1): 26, (1, 0): 16,
             (0, 1): 16, (0, 2): 32, (0, 3): 36, (0, 4): 28, (0, 5): 21,
             (0, 6): 15, (0, 7): 10, (0, 8): 6, (0, 9): 3, (0, 10): 1})
T_AG23 = bp({(3, 0): 1, (2, 0): 6, (1, 1): 12, (1, 0): 9, (0, 1): 9,
             (0, 2): 15, (0, 3): 10, (0, 4): 6, (0, 5): 3, (0, 6): 1})
T_AG32 = bp({(4, 0): 1, (3, 0): 4, (2, 0): 10, (1, 0): 6, (1, 1): 14,
             (0, 1): 6, (0, 2): 10, (0, 3): 4, (0, 4): 1})
T_AG32P = bp({(4, 0): 1, (3, 0): 4, (2, 0): 10, (1, 0): 7, (1, 1): 13,
              (0, 1): 7, (0, 2): 10, (0, 3): 4, (0, 4): 1})
T_F8 = bp({(4, 0): 1, (3, 0): 4, (2, 0): 10, (1, 0): 8, (1, 1): 12,
           (0, 1): 8, (0, 2): 10, (0, 3): 4, (0, 4): 1})
T_S2313 = bp({(3, 0): 1, (2, 0): 10, (1, 0): 29, (1, 1): 26, (0, 1): 29,
              (0, 2): 45, (0, 3): 36, (0, 4): 28, (0, 5): 21, (0, 6): 15,
              (0, 7): 10, (0, 8): 6, (0, 9): 3, (0, 10): 1})
T_S5612 = bp({(6, 0): 1, (5, 0): 6, (4, 0): 21, (3, 0): 56, (2, 0): 126,
              (1, 0): 120, (1, 1): 132, (0, 1): 120, (0, 2): 126, (0, 3): 56,
              (0, 4): 21, (0, 5): 6, (0, 6): 1})

FANO_LINES = [{0, 1, 3}, {1, 2, 4}, {0, 2, 5}, {0, 4, 6},
              {1, 5, 6}, {2, 3, 6}, {3, 4, 5}]

VAMOS_PAIRS = [{0, 1}, {2, 3}, {4, 5}, {6, 7}]
VAMOS_CHS = [a | b
             for i, a in enumerate(VAMOS_PAIRS)
             for b in VAMOS_PAIRS[i + 1:]
             if (a, b) != (VAMOS_PAIRS[1], VAMOS_PAIRS[2])]


def fano():
    return mt.Linear(standard_rep(2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]))


def at_x1(t):
    """Substitute x = 1, keeping the result a polynomial in y."""
    out = {}
    for (_, j), c in t.items():
        out[(0, j)] = out.get((0, j), 0) + c
    return BiPoly(out)


# -- uniform, cycles ----------------------------------------------------------


def test_uniform_goldens():
    assert fam.uniform(2, 4) == T_U24
    assert fam.uniform(3, 6) == T_U36
    for n in range(5):
        assert fam.uniform(n, n) == BiPoly.monomial(n, 0)
        assert fam.uniform(0, n) == BiPoly.monomial(0, n)


def test_uniform_matches_subset_expansion():
    for r, n in [(0, 0), (1, 3), (2, 5), (3, 7), (4, 9), (6, 12)]:
        assert fam.uniform(r, n) == eng.tutte_subset(mt.Uniform(r, n))


def test_uniform_invalid_rank():
    with pytest.raises(InvalidRank):
        fam.uniform(-1, 3)
    with pytest.raises(InvalidRank):
        fam.uniform(4, 3)


def test_cycle_and_multilink():
    assert fam.cycle(2) == X + Y
    assert fam.cycle(4) == T_L22
    for n in range(2, 8):
        assert fam.multilink(n) == fam.cycle(n).swap()
        assert fam.cycle(n) == eng.tutte_dc(mt.Graphic(graphs.cycle_graph(n)))
    with pytest.raises(InvalidSize):
        fam.cycle(1)
    with pytest.raises(InvalidSize):
        fam.multilink(0)


# -- sparse paving and relaxation ---------------------------------------------


def test_sparse_paving_goldens():
    assert fam.sparse_paving(3, 7, 7) == T_F7
    assert fam.sparse_paving(4, 8, 5) == T_V8
    assert fam.sparse_paving(2, 4, 0) == T_U24


def test_sparse_paving_matches_subset_on_structures():
    f7 = mt.SparsePaving(3, 7, FANO_LINES)
    assert fam.sparse_paving(3, 7, 7) == eng.tutte_subset(f7)
    v8 = mt.SparsePaving(4, 8, VAMOS_CHS)
    assert len(VAMOS_CHS) == 5
    assert fam.sparse_paving(4, 8, 5) == eng.tutte_subset(v8)


def test_sparse_paving_parameter_guards():
    with pytest.raises(InvalidParameters):
        fam.sparse_paving(0, 4, 1)
    with pytest.raises(InvalidParameters):
        fam.sparse_paving(2, 4, -1)
    with pytest.raises(InvalidParameters):
        fam.sparse_paving(2, 4, 6)  # C(4,2) - 1 = 5 is the most allowed


def test_relax_poly_examples():
    assert fam.relax_poly(T_WHEEL3) == T_WHIRL3
    assert fam.relax_poly(T_AG32) == T_AG32P
    # one more relaxation reaches the shared R8/F8 polynomial
    assert fam.relax_poly(T_AG32P) == T_F8


@given(st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-9, 9),
    max_size=8,
))
def test_unrelax_inverts_relax(d):
    t = BiPoly(d)
    assert fam.unrelax_poly(fam.relax_poly(t)) == t
    assert fam.relax_poly(fam.unrelax_poly(t)) == t


def test_free_extension_examples():
    assert fam.free_ext_poly(T_K4E, at_x1(T_K4E)) == T_Q6
    assert fam.free_ext_poly(X + BiPoly.zero(), BiPoly.one()) == X + Y
    u25 = fam.uniform(2, 5)
    assert fam.free_ext_poly(u25, at_x1(u25)) == fam.uniform(2, 6)


def test_free_extension_of_uniform_is_uniform():
    for n in range(1, 7):
        for r in range(1, n + 1):
            t = fam.uniform(r, n)
            assert fam.free_ext_poly(t, at_x1(t)) == fam.uniform(r, n + 1)


# -- paving -------------------------------------------------------------------


def test_paving_r9_golden():
    spec = fam.PavingSpec(3, 9, {3: 7, 4: 2, 2: 3})
    assert fam.paving(spec) == T_R9


def test_paving_uniform_block_case():
    # every (r-1)-set its own block: no dependencies, the uniform matroid
    spec = fam.PavingSpec(3, 6, {2: comb(6, 2)})
    assert fam.paving(spec) == fam.uniform(3, 6)


def test_paving_matches_engine_on_rank3_nine_points():
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 0),
            (1, 0, 1), (1, 0, 2), (0, 1, 2), (0, 1, 1)]
    m = mt.Linear(GFMatrix(3, [[c[i] for c in cols] for i in range(3)]))
    sizes = {}
    for h in mt.hyperplanes(m):
        sizes[len(h)] = sizes.get(len(h), 0) + 1
    spec = fam.PavingSpec(3, 9, sizes)
    assert fam.paving(spec) == eng.tutte_subset(m)


def test_paving_partition_guards():
    with pytest.raises(InvalidPartition):
        fam.paving(fam.PavingSpec(3, 6, {2: 14}))  # does not cover all pairs
    with pytest.raises(InvalidPartition):
        fam.paving(fam.PavingSpec(3, 6, {1: 15}))  # blocks too small
    with pytest.raises(InvalidPartition):
        fam.paving(fam.PavingSpec(1, 6, {0: 1}))
    with pytest.raises(InvalidPartition, match="n >= r"):
        fam.paving(fam.PavingSpec(3, 2, {2: 1}))
    with pytest.raises(InvalidPartition, match="negative"):
        fam.paving(fam.PavingSpec(2, 4, {1: -1}))
    with pytest.raises(InvalidPartition, match="exceeds ground size"):
        fam.paving(fam.PavingSpec(2, 3, {4: 1}))


# -- catalan ------------------------------------------------------------------


def test_catalan_golden():
    assert fam.catalan(3) == T_CATALAN3


def test_catalan_coefficient_depends_on_total_degree_only():
    t = fam.catalan(5)
    by_sum = {}
    for (i, j), c in t.items():
        by_sum.setdefault(i + j, set()).add(c)
    assert all(len(cs) == 1 for cs in by_sum.values())


def test_catalan_matches_activities():
    for n in range(2, 7):
        assert fam.catalan(n) == eng.tutte_activities(mt.catalan_matroid(n))


def test_catalan_guard():
    with pytest.raises(InvalidSize):
        fam.catalan(1)


# -- 2xn grids ----------------------------------------------------------------


def test_grid2_goldens():
    assert fam.grid2(1) == X + BiPoly.zero()
    assert fam.grid2(2) == T_L22


def test_grid2_matches_dc():
    for n in (3, 4, 5):
        g = mt.Graphic(graphs.grid_graph(2, n))
        assert fam.grid2(n) == eng.tutte_dc(g)


def test_grid2_order_two_recurrence():
    mult = X * X + X + BiPoly.one() + Y
    damp = X * X * Y
    for n in range(3, 11):
        lhs = fam.grid2(n) - mult * fam.grid2(n - 1) + damp * fam.grid2(n - 2)
        assert lhs.is_zero()


def test_grid2_guard():
    with pytest.raises(InvalidSize):
        fam.grid2(0)
    for n in (fam.RECURRENCE_LIMIT + 1, 10**6):
        with pytest.raises(SizeBudgetExceeded):
            fam.grid2(n)


def _slot_bytes(edges, rank):
    """Slot width in bytes of the packing for T of |E| = edges, rank r."""
    return _Packing(edges - rank, comb(edges, rank)).y // 8


def test_grid2_matches_the_bipoly_reference():
    for n, ell in enumerate(grid2_bipoly(80), 1):
        assert fam.grid2(n) == ell, n
    # slots of 1 to 9 bytes: every cast width of _Packing.unpack, and slicing
    assert set(range(1, 10)) <= {_slot_bytes(3 * n - 2, 2 * n - 1) for n in range(1, 81)}


def _lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _ladder_bases(n):
    """Spanning trees of the 2 x n grid: 1, 4, then a_n = 4 a_{n-1} - a_{n-2}."""
    a, b = 1, 4
    for _ in range(n - 1):
        a, b = b, 4 * b - a
    return a


@pytest.mark.parametrize("n", [fam.RECURRENCE_LIMIT - 1, fam.RECURRENCE_LIMIT])
def test_recurrences_at_the_size_limit(n):
    # slot widths no reference reaches in tier-1 time: basis counts by Lucas
    # numbers and the ladder recurrence, and all 2^|E| edge subsets
    wheel, whirl, ladder = fam.wheel(n), fam.whirl(n), fam.grid2(n)
    assert wheel.eval(1, 1) == _lucas(2 * n) - 2
    assert whirl.eval(1, 1) == _lucas(2 * n) - 1
    assert ladder.eval(1, 1) == _ladder_bases(n)
    assert wheel.eval(2, 2) == whirl.eval(2, 2) == 2 ** (2 * n)
    assert ladder.eval(2, 2) == 2 ** (3 * n - 2)


# -- complete and complete bipartite graphs -----------------------------------


def test_complete_graph_goldens():
    assert fam.complete_graph(5) == T_K5
    assert fam.complete_graph(2) == X + BiPoly.zero()
    assert fam.complete_graph(4) == T_WHEEL3
    assert fam.complete_graph(1) == BiPoly.one()


def test_complete_graph_matches_dc():
    for n in (3, 6, 7):
        g = mt.Graphic(graphs.complete_graph(n))
        assert fam.complete_graph(n) == eng.tutte_dc(g)


def test_complete_graph_spanning_tree_counts():
    for n in range(2, 12):
        assert fam.complete_graph(n).eval(1, 1) == n ** (n - 2)


def test_complete_graph_size_guard():
    with pytest.raises(SizeBudgetExceeded):
        fam.complete_graph(31)


def test_complete_graph_needs_a_vertex():
    for n in (0, -1):
        with pytest.raises(InvalidParameters):
            fam.complete_graph(n)


def test_complete_bipartite_goldens():
    assert fam.complete_bipartite(3, 3) == T_K33
    for m in range(1, 6):
        assert fam.complete_bipartite(1, m) == BiPoly.monomial(m, 0)
        assert fam.complete_bipartite(m, 1) == BiPoly.monomial(m, 0)


def test_complete_bipartite_matches_dc():
    for n, m in [(2, 3), (2, 4), (3, 4), (4, 4)]:
        g = mt.Graphic(graphs.complete_bipartite_graph(n, m))
        assert fam.complete_bipartite(n, m) == eng.tutte_dc(g)


def test_complete_graph_matches_the_list_reference():
    table = complete_graph_partition_lists(fam.COMPLETE_GRAPH_LIMIT)
    for n in range(1, fam.COMPLETE_GRAPH_LIMIT + 1):
        assert fam.complete_graph(n) == tutte_from_partition_lists(table[n], n - 1), n
    # slots of 1 to 9 bytes: every cast width of _Packing.unpack, and slicing
    assert set(range(1, 10)) <= {_slot_bytes(comb(n, 2), n - 1) for n in range(1, 31)}


def test_complete_bipartite_matches_the_list_reference():
    # one table per left size a holds every K_{a,b} with b <= 64 // a
    for a in range(1, 9):
        table = complete_bipartite_partition_lists(a, fam.COMPLETE_BIPARTITE_LIMIT // a)
        for b in range(a, fam.COMPLETE_BIPARTITE_LIMIT // a + 1):
            ref = tutte_from_partition_lists(table[a, b], a + b - 1)
            assert fam.complete_bipartite(a, b) == ref, (a, b)
            assert fam.complete_bipartite(b, a) == ref, (b, a)
    # every cast width of _Packing.unpack, 1, 2, 4 and 8 bytes
    pairs = [(a, b) for a in range(1, 9) for b in range(a, 64 // a + 1)]
    assert set(range(1, 9)) <= {_slot_bytes(a * b, a + b - 1) for a, b in pairs}


def test_complete_bipartite_guards():
    with pytest.raises(SizeBudgetExceeded):
        fam.complete_bipartite(5, 13)
    with pytest.raises(InvalidParameters):
        fam.complete_bipartite(0, 3)


# -- finite geometries --------------------------------------------------------


def test_gaussian_coefficients():
    assert fam.gaussian(3, 1, 2) == 7
    assert fam.gaussian(4, 2, 3) == 130
    for m in range(5):
        assert fam.gaussian(m, 0, 3) == 1
    assert fam.gaussian(0, 2, 3) == 0


def test_projective_goldens():
    assert fam.projective(2, 2) == T_F7
    assert fam.projective(2, 3) == T_PG23
    for q in (2, 3, 4, 5):
        assert fam.projective(1, q) == fam.uniform(2, q + 1)


def test_affine_golden():
    assert fam.affine(2, 3) == T_AG23


def test_projective_matches_subset_expansion():
    assert fam.projective(2, 2) == eng.tutte_subset(fano())
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 1, 1), (2, 1, 2),
            (1, 0, 1), (1, 1, 2), (0, 1, 1), (0, 1, 2), (1, 0, 2), (1, 1, 1),
            (2, 1, 0)]
    m = mt.Linear(GFMatrix(3, [[c[i] for c in cols] for i in range(3)]))
    assert fam.projective(2, 3) == eng.tutte_subset(m)


def test_affine_matches_subset_expansion():
    pts = [(a, b) for a in range(3) for b in range(3)]
    idx = {p: i for i, p in enumerate(pts)}
    lines = set()
    for p1 in pts:
        for p2 in pts:
            if p1 < p2:
                p3 = ((-p1[0] - p2[0]) % 3, (-p1[1] - p2[1]) % 3)
                lines.add(frozenset({idx[p1], idx[p2], idx[p3]}))
    assert fam.affine(2, 3) == eng.tutte_subset(mt.PavingPartition(3, 9, lines))


def test_geometry_point_guard():
    # more than GEOMETRY_POINT_LIMIT = 2^16 points is over the size budget
    assert fam.GEOMETRY_POINT_LIMIT == 2**16
    for dim, q in ((16, 2), (9, 7), (10**9, 2)):
        with pytest.raises(SizeBudgetExceeded):
            fam.projective(dim, q)
    # a q past the limit is refused before it is factored: 2^61 - 1 is prime
    for dim, q in ((17, 2), (6, 7), (1, 65537), (1, 2**61 - 1)):
        with pytest.raises(SizeBudgetExceeded):
            fam.affine(dim, q)
    # exactly 2^16 points: bases are the non-collinear triples of AG(2, 256)
    q = 256
    assert fam.affine(2, q).eval(1, 1) == comb(q * q, 3) - (q * q + q) * comb(q, 3)
    # 65,522 points: U(2, 65522)
    assert fam.projective(1, 65521).eval(1, 1) == comb(65522, 2)


def test_geometry_prime_power_guard():
    with pytest.raises(NotPrimePower):
        fam.projective(2, 6)
    with pytest.raises(NotPrimePower):
        fam.affine(2, 1)


def test_q_cone_rejects_a_huge_non_prime_power_at_once():
    start = time.perf_counter()
    with pytest.raises(NotPrimePower):
        fam.q_cone(fam.uniform(2, 3), 2, (2**61 - 1) * (2**89 - 1))
    assert time.perf_counter() - start < 1


def test_q_cone_of_three_point_line():
    line = bp({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert fam.q_cone(line, 2, 2) == T_F7


def test_q_cone_of_projective_geometry():
    for q in (2, 3):
        got = fam.q_cone(fam.projective(1, q), 2, q)
        assert got == fam.projective(2, q)


def test_q_cone_characteristic_factorization():
    # the cone's characteristic polynomial is (lam - 1) q^r chi_M(lam / q)
    line = bp({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    out = fam.q_cone(line, 2, 2)
    for lam in (2, 3, 4, 5):
        chi_n = -out.eval(1 - lam, 0)
        scaled = Fraction(lam, 2)
        chi_m = line.eval(1 - scaled, 0)
        assert chi_n == (lam - 1) * 4 * chi_m


# -- wheels and whirls --------------------------------------------------------


def test_wheel_whirl_goldens():
    assert fam.wheel(3) == T_WHEEL3
    assert fam.wheel(4) == T_WHEEL4
    assert fam.whirl(2) == T_U24
    assert fam.whirl(3) == T_WHIRL3
    assert fam.whirl(4) == T_WHIRL4


def test_whirl_is_relaxed_wheel():
    for n in range(3, 11):
        assert fam.whirl(n) == fam.relax_poly(fam.wheel(n))


def test_wheel_basis_counts_match_dc():
    for n in range(3, 8):
        g = mt.Graphic(graphs.wheel_graph(n))
        assert fam.wheel(n).eval(1, 1) == eng.tutte_dc(g).eval(1, 1)


def test_wheel_matches_dc_exactly():
    for n in (3, 4, 5):
        assert fam.wheel(n) == eng.tutte_dc(mt.Graphic(graphs.wheel_graph(n)))


def test_wheel_whirl_guards():
    with pytest.raises(InvalidSize):
        fam.wheel(2)
    with pytest.raises(InvalidSize):
        fam.whirl(1)
    for n in (fam.RECURRENCE_LIMIT + 1, 10**6):
        with pytest.raises(SizeBudgetExceeded):
            fam.wheel(n)
        with pytest.raises(SizeBudgetExceeded):
            fam.whirl(n)


def test_wheel_whirl_match_the_bipoly_reference():
    for n, p in enumerate(power_sums_bipoly(80)):
        if n >= 2:
            assert fam.whirl(n) == p - 1, n
        if n >= 3:
            assert fam.wheel(n) == p + X * Y - X - Y - 1, n
    # slots of 1 to 9 bytes: every cast width of _Packing.unpack, and slicing
    assert set(range(1, 10)) <= {_slot_bytes(2 * n, n) for n in range(2, 81)}


# -- sums ---------------------------------------------------------------------


def test_one_sum():
    assert fam.one_sum([X + BiPoly.zero(), Y + BiPoly.zero()]) == X * Y
    u12 = X + Y
    assert fam.one_sum([u12, u12]) == u12 * u12
    assert fam.one_sum([T_F7]) == T_F7


def test_two_sum_golden():
    contract = bp({(0, 2): 1, (0, 1): 1, (1, 0): 1})
    delete = bp({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert fam.two_sum_poly(contract, delete, contract, delete) == T_R6


def test_two_sum_symmetry():
    c1 = bp({(0, 2): 1, (0, 1): 1, (1, 0): 1})
    d1 = bp({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    c2 = eng.tutte_subset(mt.contract(fano(), 0))
    d2 = eng.tutte_subset(mt.delete(fano(), 0))
    assert fam.two_sum_poly(c1, d1, c2, d2) == fam.two_sum_poly(c2, d2, c1, d1)


def test_two_sum_with_two_point_line_is_identity():
    # gluing on U_{1,2} replaces the basepoint by a single element
    cases = [
        (mt.Graphic(graphs.cycle_graph(4)), 2),
        (mt.Graphic(graphs.complete_graph(4)), 0),
        (mt.Uniform(2, 5), 4),
        (mt.SparsePaving(3, 7, FANO_LINES), 3),
        (mt.Graphic(graphs.grid_graph(2, 3)), 5),
    ]
    u12 = mt.Uniform(1, 2)
    for m, p in cases:
        c1 = eng.tutte_subset(mt.contract(m, p))
        d1 = eng.tutte_subset(mt.delete(m, p))
        got = fam.two_sum_poly(c1, d1, bp({(0, 1): 1}), bp({(1, 0): 1}))
        assert got == eng.tutte_subset(m)
        joined = mt.two_sum(mt.PointedMatroid(m, p), mt.PointedMatroid(u12, 0))
        assert got == eng.tutte_subset(joined)


def _triangle_minor_polys(m, p, s, q):
    """Tutte polynomials of the five minors obtained from a 3-circuit p,s,q."""
    def chain(ops):
        cur = m
        labels = [p, s, q]
        for which, op in ops:
            e = labels[which]
            cur = op(cur, e)
            labels = [l - 1 if l > e else l for l in labels]
        return cur

    de, co = mt.delete, mt.contract
    minors = [
        chain([(0, de), (1, de), (2, de)]),
        chain([(0, de), (1, co), (2, de)]),
        chain([(0, co), (1, de), (2, de)]),
        chain([(0, co), (1, co), (2, co)]),
        chain([(0, de), (1, de), (2, co)]),
    ]
    return [eng.tutte_subset(x) for x in minors]


def test_delta_sum_golden():
    u34 = bp({(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1})
    u14 = bp({(0, 3): 1, (0, 2): 1, (0, 1): 1, (1, 0): 1})
    pair_sq = (X + Y) * (X + Y)
    triangle_plus = bp({(2, 0): 1, (1, 0): 1, (1, 1): 1, (0, 1): 1, (0, 2): 1})
    fano_vec = [u34, pair_sq, pair_sq, u14, pair_sq]
    nonfano_vec = [u34, triangle_plus, pair_sq, u14, pair_sq]
    assert fam.delta_sum_poly(fano_vec, nonfano_vec) == T_F8
    # the same matroid arises by relaxing a plane of the twisted binary cube
    assert T_F8 == fam.relax_poly(T_AG32P)


def test_delta_sum_matches_structural_construction():
    m = fano()
    tri = (0, 1, 3)
    vec = _triangle_minor_polys(m, *tri)
    formula = fam.delta_sum_poly(vec, vec)
    joined = mt.delta_sum(m, set(tri), m, set(tri))
    assert formula == eng.tutte_subset(joined)


def test_delta_sum_length_guard():
    with pytest.raises(InvalidParameters):
        fam.delta_sum_poly([T_F7] * 4, [T_F7] * 5)


# -- thickening, stretching, tensoring ----------------------------------------


def test_thicken_examples():
    assert fam.thicken_poly(X + BiPoly.zero(), 1, 2) == X + Y
    # doubling the edges of a triangle
    tri2 = mt.Graphic(graphs.Multigraph(3, [(0, 1), (0, 1), (1, 2), (1, 2),
                                            (0, 2), (0, 2)]))
    got = fam.thicken_poly(bp({(2, 0): 1, (1, 0): 1, (0, 1): 1}), 2, 2)
    assert got == eng.tutte_subset(tri2)


def test_stretch_example():
    bond3 = bp({(0, 2): 1, (0, 1): 1, (1, 0): 1})
    assert fam.stretch_poly(bond3, 2, 2) == fam.complete_bipartite(2, 3)


def test_stretch_is_dual_thicken():
    cases = [(T_U24, 2), (T_F7, 4), (T_WHEEL3, 3), (T_L22, 1)]
    for t, r_star in cases:
        for k in (2, 3):
            via_dual = fam.thicken_poly(t.swap(), r_star, k).swap()
            assert fam.stretch_poly(t, r_star, k) == via_dual


def test_tensor_identity():
    inp = fam.TensorInputs(t_m=T_F7, rank=3, size=7,
                           t_n_delete=X + BiPoly.zero(),
                           t_n_contract=Y + BiPoly.zero())
    assert fam.tensor_poly(inp) == T_F7


def test_tensor_specializes_to_thicken_and_stretch():
    for t, r, n in [(T_U24, 2, 4), (T_F7, 3, 7)]:
        for k in (2, 3):
            thick = fam.TensorInputs(t_m=t, rank=r, size=n,
                                     t_n_delete=fam.uniform(1, k),
                                     t_n_contract=fam.uniform(0, k))
            assert fam.tensor_poly(thick) == fam.thicken_poly(t, r, k)
            stretch = fam.TensorInputs(t_m=t, rank=r, size=n,
                                       t_n_delete=fam.uniform(k, k),
                                       t_n_contract=fam.uniform(k - 1, k))
            assert fam.tensor_poly(stretch) == fam.stretch_poly(t, n - r, k)


# -- steiner systems ----------------------------------------------------------


def test_steiner_systems():
    assert fam.steiner_sparse((3, 7, 7)) == T_F7
    assert fam.steiner_sparse((3, 9, 12)) == T_AG23
    assert fam.steiner_sparse((3, 13, 26)) == T_S2313
    assert fam.steiner_sparse((6, 12, 132)) == T_S5612


def test_steiner_unknown_system():
    with pytest.raises(UnknownSystem):
        fam.steiner_sparse((3, 8, 8))


def test_no_assert_statements_in_package():
    # self-checks must raise TuttepolyError; an assert vanishes under python -O
    hits = []
    for path in sorted(Path(tuttepoly.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
    assert hits == []


def test_no_private_definition_without_a_caller():
    # code with no caller is deleted: every private (not dunder) module-level
    # function or class, and every private method, is named somewhere in the
    # package outside its own definition
    uses, defs = {}, []  # name -> [(file, line)], [(file, definition)]
    for path in sorted(Path(tuttepoly.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name:
                uses.setdefault(name, []).append((path.name, node.lineno))
        for node in tree.body:
            for d in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
                name = d.name if isinstance(d, (ast.FunctionDef, ast.ClassDef)) else ""
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defs.append((path.name, d))
    orphans = [f"{f}:{d.lineno} {d.name}" for f, d in defs
               if all(uf == f and d.lineno <= line <= d.end_lineno
                      for uf, line in uses.get(d.name, []))]
    assert orphans == []


# raises of classes outside the package's taxonomy: (module, function, class)
OTHER_RAISES = sorted([
    ("bipoly.py", "__init__", "TypeError"),
    ("bipoly.py", "__init__", "ValueError"),
    ("bipoly.py", "__pow__", "ValueError"),
    ("bipoly.py", "exact_div", "TypeError"),
    ("cli.py", "_rational", "ArgumentTypeError"),
    ("formats.py", "_dec", "ValueError"),
    ("formats.py", "_int", "TypeError"),
    ("matroids.py", "_rank", "NotImplementedError"),
])


def _raised_names(node, func=None):
    """(enclosing function, raised class name) of each raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield func, getattr(exc, "id", None) or getattr(exc, "attr", None)
        yield from _raised_names(
            child, child.name if isinstance(child, ast.FunctionDef) else func)


def test_every_raise_names_a_package_error():
    # a user-triggered failure must end as a TuttepolyError with an exit code
    others = []
    for path in sorted(Path(tuttepoly.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, name in _raised_names(tree):
            cls = getattr(errors, str(name), None)
            if not (isinstance(cls, type) and issubclass(cls, errors.TuttepolyError)):
                others.append((path.name, func, name))
    assert sorted(others) == OTHER_RAISES


@pytest.mark.parametrize("call", [
    lambda: fam.gaussian(-1, 1, 2),
    lambda: fam.gaussian(3, -1, 2),
    lambda: fam.gaussian(3, 1, 1),
    lambda: fam.q_cone(fam.uniform(2, 3), 0, 2),
    lambda: fam.thicken_poly(X, 1, 0),
    lambda: fam.stretch_poly(X, 0, 0),
], ids=["gaussian-m", "gaussian-k", "gaussian-q", "q-cone-rank", "thicken-0", "stretch-0"])
def test_parameters_below_their_range_are_refused(call):
    with pytest.raises(InvalidParameters):
        call()
