from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttepoly import matroids as mt
from tuttepoly.engines import tutte_dc, tutte_subset
from tuttepoly.errors import (
    ElementOutOfRange,
    GroundSetTooLarge,
    InvalidParameters,
    InvalidPartition,
    InvalidRank,
    NotCircuitHyperplane,
    PreconditionViolated,
)
from tuttepoly.gf import GFMatrix, standard_rep
from tuttepoly.graphs import (
    Multigraph,
    bond_graph,
    canonical_key,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    wheel_graph,
)


def fano_sparse():
    # lines of the 7-point projective plane from the difference set {0,1,3}
    lines = [frozenset(((0 + i) % 7, (1 + i) % 7, (3 + i) % 7)) for i in range(7)]
    return mt.SparsePaving(3, 7, lines)


def fano_linear():
    cols = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    return mt.Linear(standard_rep(2, 3, cols))


def subsets_upto(n, size):
    for k in range(size + 1):
        yield from (frozenset(c) for c in combinations(range(n), k))


def rank_profile(m):
    return {s: m.rank(s) for s in subsets_upto(m.n, m.n)}


def test_uniform_rank_and_errors():
    u = mt.Uniform(2, 5)
    assert u.rank([0, 1, 2]) == 2
    assert u.rank([]) == 0
    assert u.full_rank == 2
    with pytest.raises(InvalidRank):
        mt.Uniform(3, 2)
    with pytest.raises(ElementOutOfRange):
        u.rank([5])


def test_graphic_rank_is_spanning_forest_size():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)])
    m = mt.Graphic(g)
    assert m.full_rank == 3
    assert m.rank([0, 1, 2]) == 2  # triangle
    assert m.rank([4]) == 0  # loop
    assert mt.is_loop(m, 4)
    assert mt.is_coloop(m, 3)


def test_linear_fano_rank():
    f = fano_linear()
    assert f.full_rank == 3
    assert f.n == 7
    # columns 0,1,3 with 3 = col0+col1 form a line
    assert f.rank([0, 1, 3]) == 2


def test_fano_sparse_matches_linear_on_all_subsets():
    fs = fano_sparse()
    fl = fano_linear()
    # same matroid up to relabeling: both rank 3, 7 lines; compare basis counts
    assert fs.full_rank == fl.full_rank == 3
    assert len(mt.bases(fs)) == len(mt.bases(fl)) == 28
    assert len(mt.hyperplanes(fs)) == len(mt.hyperplanes(fl)) == 7


def test_sparse_paving_rank_reading():
    v8_pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    chs = []
    for a in range(4):
        for b in range(a + 1, 4):
            if (a, b) != (2, 3):
                chs.append(frozenset(v8_pairs[a]) | frozenset(v8_pairs[b]))
    v8 = mt.SparsePaving(4, 8, chs)
    assert len(chs) == 5
    assert v8.rank(chs[0]) == 3
    assert v8.rank([0, 1, 2]) == 3
    assert v8.rank([0, 1, 2, 4]) == 4
    assert v8.full_rank == 4


def test_sparse_paving_rejects_close_pair():
    with pytest.raises(InvalidParameters):
        mt.SparsePaving(3, 6, [{0, 1, 2}, {0, 1, 3}])


def test_paving_partition_validation_and_rank():
    # AG(2,3): 12 lines of the ternary affine plane partition the 36 pairs
    pts = [(a, b) for a in range(3) for b in range(3)]
    idx = {p: i for i, p in enumerate(pts)}
    lines = set()
    for p1 in pts:
        for p2 in pts:
            if p1 >= p2:
                continue
            p3 = ((-p1[0] - p2[0]) % 3, (-p1[1] - p2[1]) % 3)
            lines.add(frozenset({idx[p1], idx[p2], idx[p3]}))
    assert len(lines) == 12
    m = mt.PavingPartition(3, 9, lines)
    some = next(iter(lines))
    assert m.rank(some) == 2
    assert m.rank([0, 1]) == 2
    assert m.full_rank == 3
    with pytest.raises(InvalidPartition):
        mt.PavingPartition(3, 9, list(lines)[:11])
    with pytest.raises(InvalidPartition):
        mt.PavingPartition(3, 6, [{0, 1, 2}, {0, 1, 3}] )


def test_basis_list_exchange_checked():
    mt.BasisList(2, 4, [{0, 1}, {0, 2}, {1, 2}])
    with pytest.raises(InvalidParameters):
        mt.BasisList(2, 4, [{0, 1}, {2, 3}])


def test_lattice_path_catalan():
    m3 = mt.catalan_matroid(3)
    assert m3.n == 6
    assert len(m3.bases) == 5
    assert mt.is_loop(m3, 0)
    assert mt.is_coloop(m3, 5)
    assert m3.bases == frozenset(
        frozenset(b) for b in [{1, 3, 5}, {1, 4, 5}, {2, 3, 5}, {2, 4, 5}, {3, 4, 5}]
    )
    assert len(mt.catalan_matroid(4).bases) == 14
    with pytest.raises(InvalidParameters):
        mt.LatticePath("EN", "NEE")
    with pytest.raises(InvalidParameters):
        mt.LatticePath("NE", "EN")  # lower above upper


def test_dual_structure():
    assert isinstance(mt.dual(mt.Uniform(2, 5)), mt.Uniform)
    d = mt.dual(mt.Uniform(2, 5))
    assert (d.r, d.n) == (3, 5)
    m = fano_sparse()
    dd = mt.dual(mt.dual(m))
    assert dd is m


@pytest.mark.parametrize(
    "m",
    [
        mt.Uniform(2, 5),
        mt.Graphic(cycle_graph(4)),
        fano_linear(),
        fano_sparse(),
        mt.catalan_matroid(3),
    ],
    ids=["U25", "C4", "F7lin", "F7sp", "M3"],
)
def test_dual_rank_formula_and_involution(m):
    d = mt.dual(m)
    full = frozenset(range(m.n))
    for s in subsets_upto(m.n, min(m.n, 4)):
        assert d.rank(s) == len(s) - m.full_rank + m.rank(full - s)
        assert mt.DualView(d).rank(s) == m.rank(s)


@pytest.mark.parametrize(
    "m",
    [
        mt.Uniform(2, 5),
        mt.Graphic(Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (0, 0)])),
        fano_linear(),
        fano_sparse(),
    ],
    ids=["U25", "graph", "F7lin", "F7sp"],
)
def test_minor_rank_identities(m):
    for e in range(m.n):
        de = mt.delete(m, e)
        keep = [x for x in range(m.n) if x != e]
        for s in subsets_upto(m.n - 1, 3):
            orig = frozenset(keep[i] for i in s)
            assert de.rank(s) == m.rank(orig)
        if not mt.is_loop(m, e):
            ce = mt.contract(m, e)
            re = m.rank([e])
            for s in subsets_upto(m.n - 1, 3):
                orig = frozenset(keep[i] for i in s)
                assert ce.rank(s) == m.rank(orig | {e}) - re


def test_contract_loop_equals_delete():
    g = Multigraph(2, [(0, 1), (0, 0)])
    m = mt.Graphic(g)
    c = mt.contract(m, 1)
    assert c.n == 1 and c.full_rank == 1


def test_relax_fano():
    f7 = fano_sparse()
    some_line = next(iter(f7.chs))
    f7m = mt.relax(f7, some_line)
    assert isinstance(f7m, mt.SparsePaving)
    assert len(f7m.chs) == 6
    assert f7m.rank(some_line) == 3
    with pytest.raises(NotCircuitHyperplane):
        mt.relax(f7, [0, 1, 2] if frozenset([0, 1, 2]) not in f7.chs else [0, 1, 4])
    with pytest.raises(NotCircuitHyperplane):
        mt.relax(mt.Uniform(2, 4), [0, 1])


def test_relax_generic_view():
    g = mt.Graphic(complete_graph(4))
    # edges 0,1,3 form the triangle on vertices {0,1,2}: a circuit-hyperplane
    w = mt.relax(g, [0, 1, 3])
    assert w.rank([0, 1, 3]) == 3
    assert g.rank([0, 1, 3]) == 2
    assert w.full_rank == 3
    assert w.rank([0, 1]) == 2
    assert w.rank([0, 1, 2, 3, 4, 5]) == 3


def test_free_extension():
    u = mt.free_extension(mt.Uniform(2, 5))
    assert isinstance(u, mt.Uniform) and (u.r, u.n) == (2, 6)
    g = mt.Graphic(cycle_graph(3))
    f = mt.free_extension(g)
    assert f.n == 4
    assert f.rank([3]) == 1
    assert f.rank([0, 3]) == 2
    assert f.full_rank == 2
    assert f.rank([0, 1, 3]) == 2


def test_direct_sum_ranks():
    m = mt.direct_sum([mt.Uniform(1, 2), mt.Uniform(1, 2)])
    assert m.n == 4
    assert m.full_rank == 2
    assert m.rank([0, 1]) == 1
    assert m.rank([0, 2]) == 2


def test_two_sum_r6_basis_count():
    pm = lambda: mt.PointedMatroid(mt.Uniform(2, 4), 0)
    r6 = mt.two_sum(pm(), pm())
    assert r6.n == 6
    assert r6.full_rank == 3
    assert len(r6.bases) == 18


def test_two_sum_with_two_circuit_is_identity():
    m1 = mt.Uniform(2, 4)
    out = mt.two_sum(
        mt.PointedMatroid(m1, 1), mt.PointedMatroid(mt.Uniform(1, 2), 0)
    )
    # element 1 moves to the back; rank oracle must agree under that relabeling
    relabel = [0, 2, 3, 1]
    for s in subsets_upto(4, 4):
        assert out.rank(s) == m1.rank(frozenset(relabel[e] for e in s))


def test_pointed_matroid_rejects_loop_and_coloop():
    with pytest.raises(PreconditionViolated):
        mt.PointedMatroid(mt.Uniform(4, 4), 0)  # coloop
    with pytest.raises(PreconditionViolated):
        mt.PointedMatroid(mt.Uniform(0, 2), 1)  # loop


def test_delta_sum_graphic_two_k4():
    k4a = mt.Graphic(complete_graph(4))
    k4b = mt.Graphic(complete_graph(4))
    # edges (0,1),(0,2),(1,2) are a triangle: indices 0,1,3 in our ordering
    tri = (0, 1, 3)
    out = mt.delta_sum(k4a, tri, k4b, tri)
    assert isinstance(out, mt.Graphic)
    assert out.n == 6
    assert out.full_rank == 4
    # two K4s glued on a triangle minus both triangles is K_{2,3}
    assert canonical_key(out.graph) == canonical_key(complete_bipartite_graph(2, 3))


def test_delta_sum_precondition_error():
    c3 = mt.Graphic(cycle_graph(3))
    k4 = mt.Graphic(complete_graph(4))
    with pytest.raises(PreconditionViolated):
        mt.delta_sum(k4, (0, 1, 3), c3, (0, 1, 2))
    with pytest.raises(PreconditionViolated):
        mt.delta_sum(k4, (0, 1, 2), k4, (0, 1, 3))  # not a triangle


def test_delta_sum_binary_matches_graphic():
    # K4 as a GF(2) incidence-derived representation: columns = edge vectors
    def k4_binary():
        rows = []
        g = complete_graph(4)
        for w in range(3):  # drop the last redundant row
            rows.append([1 if w in e else 0 for e in g.edges])
        return mt.Linear(GFMatrix(2, rows))

    tri = (0, 1, 3)
    out_bin = mt.delta_sum(k4_binary(), tri, k4_binary(), tri)
    out_gr = mt.delta_sum(
        mt.Graphic(complete_graph(4)), tri, mt.Graphic(complete_graph(4)), tri
    )
    assert out_bin.n == out_gr.n == 6
    assert sorted(map(sorted, mt.bases(out_bin))) == sorted(
        map(sorted, mt.bases(out_gr))
    )


def test_thicken_and_stretch_groundsets():
    m = mt.thicken(mt.Uniform(1, 1), 2)
    assert m.n == 2 and m.full_rank == 1 and m.rank([0, 1]) == 1
    g = mt.stretch(mt.Graphic(bond_graph(3)), 2)
    assert isinstance(g, mt.Graphic)
    key1 = canonical_key(g.graph)
    key2 = canonical_key(complete_bipartite_graph(2, 3))
    assert key1 == key2


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "m",
    [mt.Uniform(2, 4), mt.Graphic(cycle_graph(3)), fano_sparse()],
    ids=["U24", "C3", "F7"],
)
def test_stretch_thicken_duality(m, k):
    a = mt.stretch(m, k)
    b = mt.dual(mt.thicken(mt.dual(m), k))
    assert a.n == b.n
    for s in subsets_upto(a.n, 2):
        assert a.rank(s) == b.rank(s)
    assert a.full_rank == b.full_rank


def test_tensor_identity():
    for m in (mt.Uniform(2, 4), mt.Graphic(cycle_graph(3))):
        out = mt.tensor(m, mt.PointedMatroid(mt.Uniform(1, 2), 0))
        assert out.n == m.n
        for s in subsets_upto(m.n, m.n):
            assert out.rank(s) == m.rank(s)


def test_enumerate_u24():
    u = mt.Uniform(2, 4)
    assert len(mt.bases(u)) == 6
    assert sorted(map(sorted, mt.circuits(u))) == [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    fl = mt.flats(u)
    assert fl[0] == frozenset()
    assert len(fl) == 6  # empty, four points, everything
    assert len(mt.hyperplanes(u)) == 4


def test_enumeration_guard():
    with pytest.raises(GroundSetTooLarge):
        mt.bases(mt.Uniform(2, 25))


def test_closure():
    f7 = fano_sparse()
    line = next(iter(f7.chs))
    a, b = sorted(line)[:2]
    assert mt.closure(f7, [a, b]) == line
    assert mt.closure(f7, []) == frozenset()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rank_axioms(data):
    m = data.draw(
        st.sampled_from(
            [
                mt.Uniform(2, 6),
                mt.Graphic(grid_graph(2, 3)),
                fano_sparse(),
                mt.dual(fano_linear()),
                mt.catalan_matroid(3),
                mt.Graphic(wheel_graph(3)),
            ]
        )
    )
    elements = list(range(m.n))
    a = frozenset(data.draw(st.sets(st.sampled_from(elements), max_size=m.n)))
    b = frozenset(data.draw(st.sets(st.sampled_from(elements), max_size=m.n)))
    ra, rb = m.rank(a), m.rank(b)
    assert 0 <= ra <= len(a)
    if a <= b:
        assert ra <= rb
    assert m.rank(a | b) + m.rank(a & b) <= ra + rb


def test_two_sum_size_guard():
    big = mt.Uniform(5, 10)
    with pytest.raises(GroundSetTooLarge):
        mt.two_sum(mt.PointedMatroid(big, 0), mt.PointedMatroid(big, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda m: mt.parallel_extension(m, m.n),
        lambda m: mt.parallel_extension(m, -1),
        lambda m: m.rank([m.n]),
        lambda m: m.rank([0, -1]),
        lambda m: m.rank([1.0]),
        lambda m: m.rank(["0"]),
    ],
    ids=["ext-n", "ext-neg", "rank-n", "rank-neg", "rank-float", "rank-str"],
)
@pytest.mark.parametrize(
    "m",
    [
        mt.Uniform(2, 4),
        mt.Graphic(complete_graph(4)),
        mt.delete(fano_sparse(), 0),
        mt.thicken(fano_sparse(), 2),
    ],
    ids=["U24", "K4", "F7-minor", "F7-thick"],
)
def test_elements_outside_the_ground_set_are_rejected(m, call):
    with pytest.raises(ElementOutOfRange):
        call(m)


# -- views against a frozenset reference ---------------------------------------


class RefMatroid:
    """Test-only oracle: rank on frozensets, by the textbook formula of each
    operation, stacked on the base matroid's public rank."""

    def __init__(self, n, rank):
        self.n = n
        self.rank = rank
        self.full_rank = rank(frozenset(range(n)))


def ref_minor(ref, kept, contracted):
    """r(A | C) - r(C), view element i being ref element kept[i]."""
    rc = ref.rank(contracted)
    return RefMatroid(
        len(kept), lambda a: ref.rank(frozenset(kept[e] for e in a) | contracted) - rc
    )


def ref_dual(ref):
    ground = frozenset(range(ref.n))
    return RefMatroid(
        ref.n, lambda a: len(a) - ref.full_rank + ref.rank(ground - a)
    )


def ref_relax(ref, x):
    return RefMatroid(ref.n, lambda a: ref.full_rank if a == x else ref.rank(a))


def ref_free_extension(ref):
    new = ref.n

    def rank(a):
        if new not in a:
            return ref.rank(a)
        return min(ref.rank(a - {new}) + 1, ref.full_rank)

    return RefMatroid(ref.n + 1, rank)


def ref_parallel_extension(ref, p):
    return RefMatroid(
        ref.n + 1, lambda a: ref.rank(frozenset(p if e == ref.n else e for e in a))
    )


def ref_thicken(ref, k):
    return RefMatroid(ref.n * k, lambda a: ref.rank(frozenset(e // k for e in a)))


def ref_direct_sum(left, right):
    def rank(a):
        return left.rank(frozenset(e for e in a if e < left.n)) + right.rank(
            frozenset(e - left.n for e in a if e >= left.n)
        )

    return RefMatroid(left.n + right.n, rank)


def circuit_hyperplanes(ref):
    r = ref.full_rank
    out = []
    for c in combinations(range(ref.n), r):
        x = frozenset(c)
        if (
            ref.rank(x) == r - 1
            and all(ref.rank(x - {e}) == r - 1 for e in x)
            and all(ref.rank(x | {e}) == r for e in range(ref.n) if e not in x)
        ):
            out.append(x)
    return out


def random_step(rng, m, ref):
    """One random operation applied to both the view and the reference."""
    n = m.n
    ops = ["dual", "relax"]
    if n:
        ops += ["delete", "contract", "contract"]
    if n and n < 8:
        ops += ["parallel_extension", "parallel_extension"]
    if n < 8:
        ops.append("free_extension")
    if 0 < n <= 4:
        ops.append("thicken")
    if n <= 6:
        ops.append("direct_sum")
    op = rng.choice(ops)
    if op in ("delete", "contract"):
        e = rng.randrange(n)
        kept = [i for i in range(n) if i != e]
        if op == "delete":
            return mt.delete(m, e), ref_minor(ref, kept, frozenset())
        return mt.contract(m, e), ref_minor(ref, kept, frozenset({e}))
    if op == "dual":
        return mt.dual(m), ref_dual(ref)
    if op == "relax":
        chs = circuit_hyperplanes(ref)
        if not chs:
            return m, ref
        x = rng.choice(chs)
        return mt.relax(m, x), ref_relax(ref, x)
    if op == "parallel_extension":
        p = rng.randrange(n)
        return mt.parallel_extension(m, p), ref_parallel_extension(ref, p)
    if op == "free_extension":
        return mt.free_extension(m), ref_free_extension(ref)
    if op == "direct_sum":
        other = mt.Uniform(1, 2)
        other_ref = RefMatroid(2, other.rank)
        if rng.random() < 0.5:
            return mt.direct_sum([m, other]), ref_direct_sum(ref, other_ref)
        return mt.direct_sum([other, m]), ref_direct_sum(other_ref, ref)
    return mt.thicken(m, 2), ref_thicken(ref, 2)


VIEW_BASES = {
    "U36": lambda: mt.Uniform(3, 6),
    "F7sp": fano_sparse,
    "GF3": lambda: mt.Linear(standard_rep(3, 3, [(1, 1, 0), (0, 1, 1), (1, 2, 1)])),
    "K4": lambda: mt.Graphic(complete_graph(4)),
}


@pytest.mark.parametrize("name", sorted(VIEW_BASES))
def test_view_chains_match_frozenset_reference(name):
    rng = random.Random(f"views-{name}")
    for _ in range(30):
        m = VIEW_BASES[name]()
        ref = RefMatroid(m.n, m.rank)
        for _ in range(8):
            m, ref = random_step(rng, m, ref)
            assert m.n == ref.n
            if isinstance(m, mt.MapView):
                assert not isinstance(m.parent, mt.MapView)
            for s in subsets_upto(m.n, m.n):
                assert m.rank(s) == ref.rank(s), (name, m, sorted(s))
        assert tutte_dc(m) == tutte_subset(m), (name, m)
