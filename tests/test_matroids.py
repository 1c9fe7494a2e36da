from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuttepoly import families as fam
from tuttepoly import gf
from tuttepoly import matroids as mt
from tuttepoly.catalog import build
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


def test_rank_of_columns_checks_columns_past_full_row_rank():
    mat = GFMatrix(3, [[1, 0, 2], [0, 1, 1]])
    assert mat.rank_of_columns([0, 1, 2]) == 2
    with pytest.raises(ElementOutOfRange):
        mat.rank_of_columns([0, 1, 99])  # columns 0 and 1 already span


def eliminated_rank(mat, cols):
    """The reference column rank: each column in turn is eliminated over the
    pivots of the columns before it."""
    p = mat.p
    pivots = []  # (lead row, vector scaled to 1 there)
    for j in cols:
        v = [row[j] for row in mat.rows]
        for lead, pv in pivots:
            c = v[lead]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, pv)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is not None:
            inv = pow(v[lead], p - 2, p)
            pivots.append((lead, [a * inv % p for a in v]))
    return len(pivots)


@st.composite
def gf_matrices(draw):
    """GF(p) matrices, p in {2, 3, 5, 7, 101}, with 0 to 6 rows (some zeroed)
    and up to 16 columns, some zero and some repeated."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    nrows = draw(st.integers(0, 6))
    cols = []
    for _ in range(draw(st.integers(0, 16)) if nrows else 0):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat"]))
        if kind == "repeat" and cols:
            cols.append(draw(st.sampled_from(cols)))
        elif kind == "zero":
            cols.append([0] * nrows)
        else:
            cols.append(draw(st.lists(st.integers(0, p - 1), min_size=nrows, max_size=nrows)))
    zeroed = draw(st.sets(st.integers(0, nrows - 1))) if nrows else set()
    return GFMatrix(p, [[0 if i in zeroed else c[i] for c in cols] for i in range(nrows)])


@given(gf_matrices(), st.data())
@settings(max_examples=150, deadline=None)
@example(GFMatrix(2, [[0] * 5] * 3), None)
@example(GFMatrix(7, []), None)
def test_rank_of_columns_matches_elimination(mat, data):
    # every mask for n <= 8; above, drawn masks and index lists in any
    # order, with repeats
    n = mat.ncols
    if n <= 8:
        picks = [list(mt._bits(mask)) for mask in range(1 << n)]
    else:
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
        picks = [list(mt._bits(mask)) for mask in masks]
        picks += data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=20), max_size=10))
    for cols in picks:
        assert mat.rank_of_columns(cols) == eliminated_rank(mat, cols)
    # the kernel read off the standard form: n - r independent null vectors
    kernel = mt._cycle_space_basis(mat)
    assert len(kernel) == n - eliminated_rank(mat, range(n))
    for v in kernel:
        assert all(sum(a * b for a, b in zip(row, v)) % mat.p == 0 for row in mat.rows)


@given(gf_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_of_columns_checks_every_index(mat, data):
    n = mat.ncols
    cols = data.draw(st.lists(st.integers(0, n - 1), max_size=10)) if n else []
    bad = data.draw(st.sampled_from([-1, n, n + 7]))
    at = data.draw(st.integers(0, len(cols)))
    with pytest.raises(ElementOutOfRange):
        mat.rank_of_columns(cols[:at] + [bad] + cols[at:])


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


def too_close(r, chs):
    """The pairwise closeness test: two r-sets meeting in more than r - 2."""
    pool = sorted(chs, key=sorted)
    return any(len(c1 & c2) > r - 2
               for i, c1 in enumerate(pool) for c2 in pool[i + 1:])


def test_sparse_paving_closeness_matches_pairwise_reference():
    rng = random.Random(17)
    close = 0
    for _ in range(400):
        n = rng.randint(3, 10)
        r = rng.randint(1, n - 1)
        chs = {frozenset(rng.sample(range(n), r)) for _ in range(rng.randint(0, 12))}
        if chs and rng.random() < 0.5:  # a neighbour of one: one element swapped
            c = rng.choice(sorted(chs, key=sorted))
            out = [e for e in range(n) if e not in c]
            if out:
                chs.add(c - {rng.choice(sorted(c))} | {rng.choice(out)})
        if too_close(r, chs):
            close += 1
            with pytest.raises(InvalidParameters, match="too close"):
                mt.SparsePaving(r, n, chs)
        else:
            assert mt.SparsePaving(r, n, chs).chs == chs
    assert min(close, 400 - close) >= 40, close


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
    # one block that is the whole ground set would make a rank-(r-1) matroid
    with pytest.raises(InvalidPartition):
        mt.PavingPartition(2, 3, [{0, 1, 2}])
    with pytest.raises(InvalidPartition):
        mt.PavingPartition(3, 5, [range(5)])


def test_basis_list_exchange_checked():
    mt.BasisList(2, 4, [{0, 1}, {0, 2}, {1, 2}])
    with pytest.raises(InvalidParameters):
        mt.BasisList(2, 4, [{0, 1}, {2, 3}])
    # the only failing exchange: {1, 2} - 1 + f is no basis for f in {0, 3}
    with pytest.raises(InvalidParameters) as exc:
        mt.BasisList(2, 4, [{0, 1}, {0, 3}, {1, 2}, {1, 3}])
    assert str(exc.value) == "basis-exchange axiom fails on [1, 2], [0, 3] at 1"


def pairwise_exchange_failure(bases):
    """The first failing (b1, b2, e) of the ordered pairwise check."""
    for b1 in bases:
        for b2 in bases:
            for e in b1 - b2:
                if not any((b1 - {e}) | {f} in bases for f in b2 - b1):
                    return ("basis-exchange axiom fails "
                            f"on {sorted(b1)}, {sorted(b2)} at {e}")
    return None


def test_basis_list_exchange_check_matches_pairwise():
    rng = random.Random(5)
    failures = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        r = rng.randint(1, n - 1)
        sets = list(combinations(range(n), r))
        family = rng.sample(sets, rng.randint(1, min(12, len(sets))))
        expected = pairwise_exchange_failure(frozenset(frozenset(b) for b in family))
        try:
            mt.BasisList(r, n, family)
            message = None
        except InvalidParameters as exc:
            message = str(exc)
        assert message == expected, family
        failures += message is not None
    assert 50 < failures < 250  # both verdicts are exercised


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
    assert f7m.rank(some_line) == 3
    assert len(mt.bases(f7m)) == 29
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


def test_relax_of_relax_is_one_view():
    f7 = fano_sparse()
    lines = sorted(sorted(c) for c in f7.chs)
    relaxed = f7
    stacked = f7
    for line in lines[:3]:
        relaxed = mt.relax(relaxed, line)
        stacked = mt.RelaxView(stacked, [mt._mask(f7, line)])
    assert isinstance(relaxed, mt.RelaxView) and relaxed.parent is f7
    assert len(relaxed.masks) == 3
    rest = mt.SparsePaving(3, 7, lines[3:])
    assert rank_profile(relaxed) == rank_profile(stacked) == rank_profile(rest)


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
    assert len(mt.bases(r6)) == 18


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
    assert isinstance(out_bin, mt.Linear)
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


def test_tensor_rejects_loops_and_coloops():
    pointed = mt.PointedMatroid(mt.Uniform(2, 4), 0)
    looped = mt.Graphic(Multigraph(3, [(0, 1), (1, 2), (2, 0), (1, 1)]))
    for m in (mt.Uniform(3, 3), mt.Uniform(0, 2), looped):
        with pytest.raises(PreconditionViolated):
            mt.tensor(m, pointed)


def test_two_sum_past_sixteen_elements():
    u = mt.Uniform(5, 10)
    pm = mt.PointedMatroid(u, 0)
    joined = mt.two_sum(pm, pm)
    assert joined.n == 18
    c, d = tutte_dc(mt.contract(u, 0)), tutte_dc(mt.delete(u, 0))
    assert tutte_dc(joined) == fam.two_sum_poly(c, d, c, d)


def test_tensor_past_sixteen_elements():
    w3, u24 = mt.Graphic(wheel_graph(3)), mt.Uniform(2, 4)
    out = mt.tensor(w3, mt.PointedMatroid(u24, 0))
    assert out.n == 18
    inp = fam.TensorInputs(
        tutte_dc(w3), 3, 6, tutte_dc(mt.delete(u24, 0)), tutte_dc(mt.contract(u24, 0))
    )
    assert tutte_dc(out) == fam.tensor_poly(inp)


@pytest.mark.parametrize("p", [3, 65537])
def test_thicken_linear_is_a_view(monkeypatch, p):
    rng = random.Random(p)
    m = mt.Linear(GFMatrix(p, [[rng.randrange(p) for _ in range(6)] for _ in range(3)]))
    t = tutte_dc(m)

    def no_prime_test(q):
        raise AssertionError(f"is_prime({q}) called")

    monkeypatch.setattr(gf, "is_prime", no_prime_test)
    thick = mt.thicken(m, 2)
    assert isinstance(thick, mt.MapView)
    assert tutte_dc(thick) == fam.thicken_poly(t, m.full_rank, 2)


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


# -- 2-sums and tensor products against the basis-pairing construction --------


def ref_two_sum(m1, p1, m2, p2):
    """The 2-sum as the bases B1 - p1 | B2 - p2 of the pairs with p1 in
    exactly one of B1 and p2 in the other; ground set (E1 - p1) then
    (E2 - p2)."""
    map1 = {e: (e if e < p1 else e - 1) for e in range(m1.n) if e != p1}
    off = m1.n - 1
    map2 = {e: off + (e if e < p2 else e - 1) for e in range(m2.n) if e != p2}
    out = set()
    for b1 in mt.bases(m1):
        for b2 in mt.bases(m2):
            if (p1 in b1) != (p2 in b2):
                out.add(
                    frozenset(map1[e] for e in b1 - {p1})
                    | frozenset(map2[e] for e in b2 - {p2})
                )
    return mt.BasisList(m1.full_rank + m2.full_rank - 1, m1.n + m2.n - 2, out, check=False)


def ref_tensor(m, net, d):
    """2-sum at the first element of m, then at the first original element
    left, and so on; each block is appended after the elements before it."""
    for _ in range(m.n):
        m = ref_two_sum(m, 0, net, d)
    return m


SMALL_CATALOG = ["F7", "F7minus", "H", "K4minuse", "L22", "P6", "P7", "Q6",
                 "R6", "U24", "U35", "W3", "W3plus", "catalanM3", "whirl3"]


def random_pointed(rng, cap):
    """A matroid on 2..cap elements and a point of it that is neither loop
    nor coloop: uniform, catalog, GF(3) linear, multigraph, a relaxation (a
    RelaxView) or a minor or thickening of a catalog entry (a MapView)."""
    while True:
        kind = rng.choice(["uniform", "catalog", "gf3", "graph", "relax", "map"])
        n = rng.randint(2, cap)
        if kind == "uniform":
            m = mt.Uniform(rng.randint(0, n), n)
        elif kind == "catalog":
            m = build(rng.choice(SMALL_CATALOG))
        elif kind == "gf3":
            rows = rng.randint(1, 4)
            m = mt.Linear(GFMatrix(3, [[rng.randrange(3) for _ in range(n)]
                                       for _ in range(rows)]))
        elif kind == "graph":
            nv = rng.randint(2, 5)
            m = mt.Graphic(Multigraph(nv, [(rng.randrange(nv), rng.randrange(nv))
                                           for _ in range(n)]))
        elif kind == "relax":
            m = build(rng.choice(SMALL_CATALOG))
            chs = circuit_hyperplanes(RefMatroid(m.n, m.rank))
            if not chs:
                continue
            m = mt.relax(m, rng.choice(chs))
        else:
            m = build(rng.choice(SMALL_CATALOG))
            step = rng.choice([mt.delete, mt.contract, lambda m, e: mt.thicken(m, 2)])
            m = step(m, rng.randrange(m.n))
        points = [e for e in range(m.n) if not (mt.is_loop(m, e) or mt.is_coloop(m, e))]
        if 2 <= m.n <= cap and points:
            return m, rng.choice(points)


def test_two_sum_view_matches_basis_pairing():
    rng = random.Random("two-sum")
    kinds = set()
    for _ in range(220):
        m1, p1 = random_pointed(rng, 8)
        m2, p2 = random_pointed(rng, 12 - m1.n)
        view = mt.two_sum(mt.PointedMatroid(m1, p1), mt.PointedMatroid(m2, p2))
        ref = ref_two_sum(m1, p1, m2, p2)
        assert view.n == ref.n <= 10
        for s in range(1 << view.n):
            assert view._rank(s) == ref._rank(s), (m1, p1, m2, p2, sorted(mt._bits(s)))
        kinds.update(type(m).__name__ for m in (m1, m2))
    assert {"RelaxView", "MapView", "Linear", "Graphic", "Uniform"} <= kinds


@pytest.mark.parametrize(
    "base, pointed",
    [("K4minuse", (mt.Uniform(2, 3), 0)), ("P6", (mt.Uniform(1, 3), 2)),
     ("U24", (mt.Uniform(2, 4), 1)), ("W3", (mt.Uniform(2, 3), 1))],
    ids=["K4minuse-U23", "P6-U13", "U24-U24", "W3-U23"],
)
def test_tensor_view_matches_basis_pairing(base, pointed):
    m = build(base)
    view = mt.tensor(m, mt.PointedMatroid(*pointed))
    ref = ref_tensor(m, *pointed)
    assert view.n == ref.n
    for s in range(1 << view.n):
        assert view._rank(s) == ref._rank(s), (base, sorted(mt._bits(s)))


def test_tensor_matches_brylawski_formula():
    rng = random.Random("tensor")
    cases = 0
    while cases < 30:
        m, _ = random_pointed(rng, 6)
        if any(mt.is_loop(m, e) or mt.is_coloop(m, e) for e in range(m.n)):
            continue
        cases += 1
        net, d = random_pointed(rng, 14 // m.n + 1)
        out = mt.tensor(m, mt.PointedMatroid(net, d))
        assert out.n == m.n * (net.n - 1)
        inp = fam.TensorInputs(tutte_dc(m), m.full_rank, m.n,
                               tutte_dc(mt.delete(net, d)), tutte_dc(mt.contract(net, d)))
        assert tutte_dc(out) == fam.tensor_poly(inp), (m, net, d)
