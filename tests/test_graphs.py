"""Multigraph canonical keys, blocks and edge checks against independent references.

``canonical_key`` follows one path of individualization-refinement, so equal
keys imply isomorphic graphs but isomorphic graphs may get different keys.
Its keys are checked for invariance under relabelling of random multigraphs,
for equality with the brute-force ``helpers.reference_key`` on small and on
symmetric graphs, and, where two labellings of a regular graph get different
keys, for deletion-contraction agreeing on both.  ``blocks`` is checked
against the blocks read off the circuits and its block graphs against
``helpers.restricted``; ``blocks_at`` against ``blocks`` on the contraction
children deletion-contraction makes.  The rank of an edge mask is checked
against a component count by search, and ``contract_edges`` against
single contractions taken one at a time in random order.  ``frontier_order``
must be a deterministic permutation whose frontier is no wider than that of
the given labels on grids and on a random cubic graph.
"""

from __future__ import annotations

import random

import pytest

from tuttepoly import matroids as mt
from tuttepoly.engines import tutte_dc
from tuttepoly.errors import ElementOutOfRange, InvalidParameters
from tuttepoly.graphs import (
    Multigraph,
    bond_graph,
    canonical_key,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    frontier_order,
    grid_graph,
    path_graph,
    wheel_graph,
)

from helpers import (
    chord_chain,
    contract_one,
    random_regular,
    reference_key,
    relabelled,
    restricted,
    split_class,
)


def random_multigraph(rng, max_verts, max_edges):
    n = rng.randint(1, max_verts)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        r = rng.random()
        if r < 0.15:
            w = rng.randrange(n)
            edges.append((w, w))
        elif r < 0.3 and edges:
            edges.append(rng.choice(edges))
        else:
            edges.append((rng.randrange(n), rng.randrange(n)))
    return Multigraph(n, edges)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, outer + spokes + inner)


def hypercube(d):
    return Multigraph(1 << d, [(w, w | 1 << b) for w in range(1 << d)
                               for b in range(d) if not w >> b & 1])


def test_key_invariant_under_relabelling():
    rng = random.Random(7)
    for _ in range(400):
        g = random_multigraph(rng, 7, 12)
        assert canonical_key(relabelled(rng, g)) == canonical_key(g), g


def test_key_misses_on_regular_graphs_leave_dc_exact():
    # refinement leaves a regular graph in one cell, so the one path of
    # individualization may end at different leaves for two labellings; the
    # deletion-contraction memo then expands the same block twice, and both
    # copies must still get the same polynomial
    rng = random.Random(13)
    misses = 0
    for _ in range(150):
        n = rng.randint(6, 10)
        k = rng.choice([d for d in (2, 3, 4) if n * d % 2 == 0])
        g = random_regular(rng, n, k)
        h = relabelled(rng, g)
        if canonical_key(h) == canonical_key(g):
            continue
        misses += 1
        t = tutte_dc(mt.Graphic(g))
        assert tutte_dc(mt.Graphic(h)) == t, g
        assert t.eval(2, 2) == 2 ** g.nedges, g
    assert misses >= 1


def test_key_equality_matches_reference():
    rng = random.Random(11)
    equal = 0
    for _ in range(600):
        # few vertices and edges, so that many pairs are isomorphic
        a = random_multigraph(rng, 5, 6)
        if rng.random() < 0.3:
            b = relabelled(rng, a)
        else:
            b = random_multigraph(rng, 5, 6)
        same = canonical_key(a) == canonical_key(b)
        assert same == (reference_key(a) == reference_key(b)), (a, b)
        equal += same
    big = [random_multigraph(rng, 7, 10) for _ in range(120)]
    big += [random_regular(rng, rng.choice((6, 7)), 2) for _ in range(20)]
    big += [random_regular(rng, 6, 3) for _ in range(10)]
    for a, b in zip(big, big[1:] + [relabelled(rng, big[0])]):
        assert (canonical_key(a) == canonical_key(b)) == (
            reference_key(a) == reference_key(b)), (a, b)
    assert equal >= 150


def test_key_is_complete_on_symmetric_graphs():
    rng = random.Random(3)
    for g in (complete_graph(12), complete_bipartite_graph(6, 6), petersen(),
              hypercube(4), grid_graph(6, 6), cycle_graph(9)):
        key = canonical_key(g)
        assert key[0] == g.nverts and sum(m for *_, m in key[2]) == g.nedges
        assert canonical_key(relabelled(rng, g)) == key
    # same vertex count, edge count and degrees, not isomorphic
    two_triangles = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert canonical_key(two_triangles) != canonical_key(cycle_graph(6))
    assert canonical_key(Multigraph(0, [])) == (0, (), ())


def block_edges(g):
    return [es for es, _ in g.blocks()]


def bridges(g):
    return [b[0] for b in block_edges(g) if len(b) == 1 and len(set(g.edges[b[0]])) == 2]


def test_bridges_match_rank_definition():
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 9)
        g = random_multigraph(rng, n, rng.randint(0, 12))
        full = g.full_rank()
        expected = [
            i for i, (u, v) in enumerate(g.edges)
            if u != v and g.rank_of(k for k in range(g.nedges) if k != i) < full
        ]
        assert bridges(g) == expected, g


def test_bridges_parallel_edges_and_loops():
    # loops and bridges are blocks of one edge; parallel edges share a block
    assert block_edges(Multigraph(2, [(0, 1), (1, 0)])) == [[0, 1]]
    assert block_edges(Multigraph(3, [(0, 0), (0, 1), (1, 2), (2, 2)])) == [
        [0], [1], [2], [3]]
    assert block_edges(Multigraph(4, [(0, 1), (2, 3), (3, 2), (1, 0), (0, 1)])) == [
        [0, 3, 4], [1, 2]]
    assert block_edges(Multigraph(4, [(2, 3), (0, 1)])) == [[0], [1]]
    # triangles joined at vertex 2, a parallel pair at 4 with a loop at its
    # other end, and an isolated vertex
    bowtie = Multigraph(7, [(0, 1), (2, 3), (1, 2), (2, 4), (4, 5), (2, 0), (3, 4),
                            (5, 5), (4, 5)])
    assert block_edges(bowtie) == [[0, 2, 5], [1, 3, 6], [4, 8], [7]]
    assert Multigraph(3, []).blocks() == []


def reference_blocks(g):
    """Blocks from the circuits of M(g): two non-loop edges share a block
    exactly when some circuit holds both; loops and bridges stand alone."""
    shared = [{i} for i in range(g.nedges)]
    for c in mt.circuits(mt.Graphic(g)):
        if len(c) > 1:
            for i in c:
                shared[i] |= c
    return sorted({tuple(sorted(s)) for s in shared})


def test_blocks_match_circuit_reference():
    rng = random.Random(11)
    seen = {"loop": 0, "parallel": 0, "cut vertex": 0, "isolated": 0, "components": 0}
    for _ in range(1500):
        g = random_multigraph(rng, 9, rng.randint(0, 13))
        blocks = block_edges(g)
        assert [tuple(b) for b in blocks] == reference_blocks(g), g
        ends = [{w for i in b for w in g.edges[i]} for b in blocks]
        touched = set().union(*ends)
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(g.edges)) < g.nedges
        seen["cut vertex"] += any(
            sum(w in e for e in ends if len(e) > 1) > 1 for w in touched)
        seen["isolated"] += len(touched) < g.nverts
        seen["components"] += g.nverts - g.full_rank() - (g.nverts - len(touched)) > 1
    assert min(seen.values()) >= 150, seen


def test_block_graphs_keep_edge_order_and_vertex_order():
    # each block's graph keeps its edges' order and renumbers their ends in
    # increasing order; a graph that is one block on all its vertices is its
    # own block graph
    g = Multigraph(7, [(5, 3), (0, 1), (3, 5), (1, 1), (4, 2), (5, 1), (1, 0), (5, 6),
                       (6, 3)])
    assert g.blocks() == [
        ([0, 2, 7, 8], Multigraph(3, [(1, 0), (0, 1), (1, 2), (2, 0)])),
        ([1, 6], Multigraph(2, [(0, 1), (1, 0)])),
        ([3], Multigraph(1, [(0, 0)])),
        ([4], Multigraph(2, [(1, 0)])),
        ([5], Multigraph(2, [(1, 0)])),
    ]
    triangle = cycle_graph(3)
    assert triangle.blocks()[0][1] is triangle
    assert Multigraph(4, triangle.edges).blocks() == [([0, 1, 2], triangle)]
    rng = random.Random(13)
    for _ in range(500):
        g = random_multigraph(rng, 9, 13)
        assert [b for _, b in g.blocks()] == [restricted(g, es) for es in block_edges(g)], g


@pytest.mark.parametrize("shape", [chord_chain, split_class])
def test_contraction_blocks_by_union_find_match_tarjan(shape):
    # g/X of a 2-connected g and a class or chain X can have a cut vertex only
    # where X merges: blocks_at there gives blocks(), edges and graphs alike.
    # A chord of a chain becomes a loop; the ends of a class that are a
    # 2-separation become a cut vertex
    rng = random.Random(23)
    for _ in range(200):
        g, x = shape(rng)
        c = g.contract_edges(x)
        blocks = c.blocks()
        assert c.blocks_at(min(w for i in x for w in g.edges[i])) == blocks, (g, x)
        if shape is chord_chain:
            assert any(b.nverts == 1 for _, b in blocks)
        else:
            assert sum(len(es) > 1 for es, _ in blocks) >= 2


def test_public_constructor_checks_edges_and_minors_stay_equal():
    for bad in ([(0, 3)], [(-1, 0)]):
        with pytest.raises(InvalidParameters):
            Multigraph(3, bad)
    g = Multigraph(5, [(0, 1), (1, 2), (2, 0), (3, 3), (1, 2)])
    assert g.delete_edges([1]) == Multigraph(5, [(0, 1), (2, 0), (3, 3), (1, 2)])
    assert g.contract_edges([1]) == Multigraph(4, [(0, 1), (1, 0), (2, 2), (1, 1)])


def test_cycle_of_one_vertex_is_a_loop():
    assert cycle_graph(1) == Multigraph(1, [(0, 0)])
    assert tutte_dc(mt.Graphic(cycle_graph(1))) == tutte_dc(mt.Uniform(0, 1))
    with pytest.raises(InvalidParameters):
        cycle_graph(0)


def test_contract_edges_is_successive_single_contractions():
    # contracting X at once numbers the vertices as contracting its edges one
    # at a time, in any order, each merging its greater end into its lesser;
    # an edge's index drops by one for each edge before it contracted first
    rng = random.Random(29)
    for _ in range(1000):
        g = random_multigraph(rng, 8, 12)
        drop = [i for i in range(g.nedges) if rng.random() < 0.4]
        expected, left = g, list(range(g.nedges))  # left[k]: g's index of edge k
        for i in rng.sample(drop, len(drop)):
            k = left.index(i)
            expected = contract_one(expected, k)
            del left[k]
        assert g.contract_edges(drop) == expected, (g, drop)


def reference_rank(g, mask):
    """|V| minus the number of components of the spanning subgraph on the
    edges of mask, found by depth-first search."""
    adj = [[] for _ in range(g.nverts)]
    for i, (u, v) in enumerate(g.edges):
        if mask >> i & 1:
            adj[u].append(v)
            adj[v].append(u)
    seen, components = [False] * g.nverts, 0
    for start in range(g.nverts):
        if seen[start]:
            continue
        components += 1
        seen[start], stack = True, [start]
        while stack:
            for z in adj[stack.pop()]:
                if not seen[z]:
                    seen[z] = True
                    stack.append(z)
    return g.nverts - components


def test_mask_rank_matches_component_count():
    rng = random.Random(31)
    seen = {"loop": 0, "parallel": 0, "isolated": 0}
    for _ in range(50):
        g = random_multigraph(rng, 8, 10)
        m = mt.Graphic(g)
        for mask in range(1 << g.nedges):
            assert m._rank(mask) == reference_rank(g, mask), (g, mask)
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(g.edges)) < g.nedges
        seen["isolated"] += len({w for e in g.edges for w in e}) < g.nverts
    assert min(seen.values()) >= 10, seen


def test_constructors_refuse_empty_shapes_and_rank_of_checks_indices():
    for build in (lambda: path_graph(0), lambda: grid_graph(0, 3),
                  lambda: wheel_graph(2), lambda: bond_graph(0)):
        with pytest.raises(InvalidParameters):
            build()
    g = cycle_graph(3)
    for i in (-1, 3):
        with pytest.raises(ElementOutOfRange):
            g.rank_of([0, i])


def frontier_width(g, order):
    """The most vertices, over the cuts of order, that come before the cut
    and have a neighbour after it."""
    pos = {w: k for k, w in enumerate(order)}
    return max(len({a for u, v in g.edges for a, b in ((u, v), (v, u)) if pos[a] < k <= pos[b]})
               for k in range(g.nverts + 1))


def test_frontier_order_is_a_deterministic_permutation():
    rng = random.Random(19)
    graphs = [random_multigraph(rng, 12, 20) for _ in range(150)]
    graphs += [Multigraph(0, []), wheel_graph(7), complete_bipartite_graph(3, 5), petersen()]
    for g in graphs:
        order = frontier_order(g)
        assert sorted(order) == list(range(g.nverts)), g
        assert frontier_order(Multigraph(g.nverts, g.edges)) == order, g


@pytest.mark.parametrize("g", [
    grid_graph(2, 9), grid_graph(3, 12), grid_graph(4, 8), grid_graph(4, 10),
    grid_graph(5, 5), grid_graph(6, 3), random_regular(random.Random(2), 24, 3),
], ids=["grid2x9", "grid3x12", "grid4x8", "grid4x10", "grid5x5", "grid6x3", "cubic24"])
def test_frontier_order_is_no_wider_than_the_labels(g):
    # grid_graph numbers its vertices column by column, the narrowest order
    # when no column is longer than a row
    assert frontier_width(g, frontier_order(g)) <= frontier_width(g, range(g.nverts))
