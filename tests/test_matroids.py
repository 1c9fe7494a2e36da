from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb

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
from tuttepoly.formats import parse_matroid
from tuttepoly.gf import GFMatrix
from tuttepoly.graphs import (
    Multigraph,
    bond_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    wheel_graph,
)

from helpers import (
    _cycle_space_basis,
    contract_column,
    delete_column,
    delta_sum_binary_reference,
    delta_sum_graphic_reference,
    lattice_path_bases,
    path_heights,
    reference_key,
    standard_rep,
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
    kernel = _cycle_space_basis(mat)
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


def test_paving_partition_counts_before_it_enumerates():
    with pytest.raises(InvalidPartition) as exc:
        mt.PavingPartition(3, 6, [{0, 1, 2}, {0, 1, 3}])
    assert str(exc.value) == "blocks cover 6 of the 15 (2)-subsets"
    # 15 + 6 = 21 pairs, all of them, but {0, 1} twice and {3, 6} never
    with pytest.raises(InvalidPartition) as exc:
        mt.PavingPartition(3, 7, [range(6), {0, 1, 2, 6}])
    assert str(exc.value) == "(r-1)-subset {0, 1} lies in two blocks"
    # one 59-element block of a rank-12 file: C(59, 11) of C(60, 11)
    with pytest.raises(InvalidPartition, match="of the 342700125300 "):
        mt.PavingPartition(12, 60, [range(59)])


def first_double_cover(r, blocks):
    seen = set()
    for b in blocks:
        for sub in combinations(sorted(b), r - 1):
            if sub in seen:
                return f"(r-1)-subset {set(sub)} lies in two blocks"
            seen.add(sub)
    return None


def test_paving_partition_double_cover_matches_enumeration():
    # blocks whose (r-1)-subset counts add up to C(n, r-1): the pairwise
    # search (few blocks) and the enumeration (many) name the same subset
    rng = random.Random("paving")
    branches = set()
    for _ in range(400):
        r, n = rng.choice([(3, 6), (3, 7), (3, 8), (4, 7), (4, 8)])
        need, blocks = comb(n, r - 1), []
        while need:
            size = rng.randint(r - 1, n - 1)
            if comb(size, r - 1) <= need:
                blocks.append(rng.sample(range(n), size))
                need -= comb(size, r - 1)
        expected = first_double_cover(r, blocks)
        try:
            mt.PavingPartition(r, n, blocks)
            message = None
        except InvalidPartition as exc:
            message = str(exc)
        assert message == expected, blocks
        branches.add((comb(n, r - 1) <= len(blocks) ** 2, message is None))
    assert {(True, False), (False, False)} <= branches


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


def test_basis_list_exchange_check_on_a_large_family():
    family = [frozenset(b) for b in combinations(range(14), 7)]
    # one basis of U(7,14) removed is a circuit-hyperplane: still a matroid
    assert len(mt.BasisList(7, 14, family[1:]).bases) == 3431
    # two removed that share six elements break the exchange axiom; the
    # message is the first failure of pairwise_exchange_failure (12 s there)
    with pytest.raises(InvalidParameters) as exc:
        mt.BasisList(7, 14, family[2:])
    assert str(exc.value) == (
        "basis-exchange axiom fails on "
        "[0, 1, 2, 3, 4, 5, 11], [1, 2, 3, 4, 5, 6, 7] at 11"
    )
    b1, b2, e = frozenset({0, 1, 2, 3, 4, 5, 11}), frozenset(range(1, 8)), 11
    assert all((b1 - {e}) | {f} not in family[2:] for f in b2 - b1)


def test_lattice_path_catalan():
    m3 = mt.catalan_matroid(3)
    assert m3.n == 6
    assert len(mt.bases(m3)) == 5
    assert mt.is_loop(m3, 0)
    assert mt.is_coloop(m3, 5)
    assert frozenset(mt.bases(m3)) == frozenset(
        frozenset(b) for b in [{1, 3, 5}, {1, 4, 5}, {2, 3, 5}, {2, 4, 5}, {3, 4, 5}]
    )
    assert len(mt.bases(mt.catalan_matroid(4))) == 14
    with pytest.raises(InvalidParameters):
        mt.LatticePath("EN", "NEE")
    with pytest.raises(InvalidParameters):
        mt.LatticePath("NE", "EN")  # lower above upper


def heights_to_path(hs):
    return "".join("N" if b > a else "E" for a, b in zip(hs, hs[1:]))


@st.composite
def lattice_path_pairs(draw):
    """Two N/E paths of up to 12 steps with one endpoint; half the time the
    pointwise lower and upper of two drawn paths, so that they are ordered."""
    length = draw(st.integers(0, 12))
    norths = draw(st.integers(0, length))
    steps = st.permutations(range(length)).map(lambda ks: set(ks[:norths]))
    p, q = (path_heights(["N" if k in s else "E" for k in range(length)])
            for s in (draw(steps), draw(steps)))
    if draw(st.booleans()):
        p, q = list(map(min, p, q)), list(map(max, p, q))
    return heights_to_path(p), heights_to_path(q)


@given(lattice_path_pairs(), st.data())
@settings(max_examples=150, deadline=None)
@example(("EEENNN", "ENENEN"), None)
@example(("", ""), None)
def test_lattice_path_ranks_match_path_enumeration(paths, data):
    lower, upper = paths
    if any(a > b for a, b in zip(path_heights(lower), path_heights(upper))):
        with pytest.raises(InvalidParameters, match="weakly below"):
            mt.LatticePath(lower, upper)
        return
    m = mt.LatticePath(lower, upper)
    bases = [sum(1 << e for e in b) for b in lattice_path_bases(lower, upper)]
    n = len(lower)
    if n <= 8:
        masks = range(1 << n)
    else:
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=64))
    for mask in masks:
        assert m._rank(mask) == max((mask & b).bit_count() for b in bases)
    assert m.full_rank == lower.count("N")


def test_long_lattice_path_is_uniform():
    # M[E^30 N^30, N^30 E^30] is U(30, 60): about 1.2e17 paths, none listed
    m = parse_matroid(json.dumps(
        {"kind": "lattice_path", "lower": "E" * 30 + "N" * 30,
         "upper": "N" * 30 + "E" * 30}))
    assert (m.n, m.full_rank) == (60, 30)
    rng = random.Random(60)
    for _ in range(200):
        subset = rng.sample(range(60), rng.randint(0, 60))
        assert m.rank(subset) == min(len(subset), 30)


def test_dual_structure():
    assert rank_profile(mt.dual(mt.Uniform(2, 5))) == rank_profile(mt.Uniform(3, 5))
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
        mt.Uniform(0, 3),
        mt.Graphic(Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (0, 0)])),
        fano_linear(),
        mt.Linear(GFMatrix(2, [[1, 0, 1, 0, 1], [0, 1, 1, 0, 0], [1, 1, 0, 0, 1]])),
        # column 4 is zero, column 3 is twice column 0
        mt.Linear(GFMatrix(3, [[1, 0, 1, 2, 0, 2], [0, 1, 1, 0, 0, 1],
                               [0, 0, 0, 0, 0, 1]])),
        fano_sparse(),
    ],
    ids=["U25", "U03", "graph", "F7lin", "GF2", "GF3", "F7sp"],
)
def test_minor_rank_identities(m):
    for e in range(m.n):
        de, ce = mt.delete(m, e), mt.contract(m, e)
        keep = [x for x in range(m.n) if x != e]
        re = m.rank([e])
        for s in subsets_upto(m.n - 1, 3):
            orig = frozenset(keep[i] for i in s)
            assert de.rank(s) == m.rank(orig)
            assert ce.rank(s) == m.rank(orig | {e}) - re
        # the structural minors the package once built
        if isinstance(m, mt.Linear):
            refs = mt.Linear(delete_column(m.mat, e)), mt.Linear(contract_column(m.mat, e))
        elif isinstance(m, mt.Uniform):  # a rank-0 uniform has only loops
            refs = mt.Uniform(min(m.r, m.n - 1), m.n - 1), mt.Uniform(max(m.r - 1, 0), m.n - 1)
        else:
            continue
        assert rank_profile(de) == rank_profile(refs[0]), e
        assert rank_profile(ce) == rank_profile(refs[1]), e


@pytest.mark.parametrize("m, loop", [
    (mt.Graphic(Multigraph(2, [(0, 1), (0, 0)])), 1),
    (mt.Linear(GFMatrix(3, [[1, 0, 2], [0, 0, 1]])), 1),
], ids=["graph-loop", "zero-column"])
def test_contract_loop_equals_delete(m, loop):
    c = mt.contract(m, loop)
    assert c.n == m.n - 1 and c.full_rank == m.full_rank
    assert rank_profile(c) == rank_profile(mt.delete(m, loop))


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
    # {edge, loop} has rank r - 1 = 1 but the loop alone is dependent
    with_loop = mt.Graphic(Multigraph(3, [(0, 1), (1, 2), (0, 2), (0, 0)]))
    with pytest.raises(NotCircuitHyperplane, match="not a circuit"):
        mt.relax(with_loop, [0, 3])
    # a triangle of K4 whose closure also holds an edge parallel to one side
    doubled = mt.Graphic(Multigraph(4, [*complete_graph(4).edges, (0, 1)]))
    with pytest.raises(NotCircuitHyperplane, match="not a hyperplane"):
        mt.relax(doubled, [0, 1, 3])


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
    assert rank_profile(u) == rank_profile(mt.Uniform(2, 6))
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
    assert reference_key(out.graph) == reference_key(complete_bipartite_graph(2, 3))


def test_delta_sum_precondition_error():
    c3 = mt.Graphic(cycle_graph(3))
    k4 = mt.Graphic(complete_graph(4))
    with pytest.raises(PreconditionViolated):
        mt.delta_sum(k4, (0, 1, 3), c3, (0, 1, 2))
    with pytest.raises(PreconditionViolated):
        mt.delta_sum(k4, (0, 1, 2), k4, (0, 1, 3))  # not a triangle
    # K4 over GF(3) from its signed incidence matrix: the triangle checks
    # pass, and only the realization is missing
    edges = complete_graph(4).edges
    rows = [[(u == i) - (v == i) for u, v in edges] for i in range(4)]
    k4_gf3 = mt.Linear(GFMatrix(3, rows))
    with pytest.raises(PreconditionViolated, match="graphic or GF\\(2\\)"):
        mt.delta_sum(k4_gf3, (0, 1, 3), k4_gf3, (0, 1, 3))


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


@st.composite
def linear_with_triangle(draw, p=2):
    """A GF(p) matroid with a triangle: columns e0, e1 and e0 + c e1 among up
    to five drawn ones, in a drawn order, with rows mixed by row additions.
    Returns (matroid, triangle) with the triangle in a drawn order."""
    r = draw(st.integers(2, 4))
    c = draw(st.integers(1, p - 1))
    unit = [[int(i == j) for i in range(r)] for j in range(2)]
    cols = [unit[0], unit[1], [a + c * b for a, b in zip(*unit)]]
    cols += draw(st.lists(st.lists(st.integers(0, p - 1), min_size=r, max_size=r),
                          max_size=5))
    order = draw(st.permutations(range(len(cols))))
    rows = [[cols[j][i] for j in order] for i in range(r)]
    for a, b in draw(st.lists(st.tuples(st.integers(0, r - 1),
                                        st.integers(0, r - 1)), max_size=6)):
        if a != b:
            rows[a] = [x + y for x, y in zip(rows[a], rows[b])]
    tri = [order.index(k) for k in draw(st.permutations(range(3)))]
    return mt.Linear(GFMatrix(p, rows)), tri


@st.composite
def graph_with_triangle(draw):
    """A multigraph (loops and parallel edges allowed) with a triangle on
    three drawn vertices, its edges at drawn positions in a drawn order."""
    nv = draw(st.integers(3, 6))
    a, b, c = draw(st.permutations(range(nv)))[:3]
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=7))
    for e in [(a, b), (b, c), (c, a)]:
        edges.insert(draw(st.integers(0, len(edges))), e)
    tri = [edges.index(e) for e in [(a, b), (b, c), (c, a)]]
    tri = [tri[k] for k in draw(st.permutations(range(3)))]
    return mt.Graphic(Multigraph(nv, edges)), tri


def circuit_condition_failure(m1, t1, m2, t2):
    """The refusal of the triangle-sum precondition by circuit search."""
    for m, t in ((m1, t1), (m2, t2)):
        for needed in (t[1], t[0]):
            if not any(c & set(t) == {needed} for c in mt.circuits(m)):
                return f"no circuit meets the shared triangle exactly in element {needed}"
    return None


K4_TRIANGLE = (mt.Graphic(complete_graph(4)), (0, 1, 3))
C3_TRIANGLE = (mt.Graphic(cycle_graph(3)), (0, 1, 2))


@given(st.one_of(linear_with_triangle(), linear_with_triangle(3), graph_with_triangle()),
       st.one_of(linear_with_triangle(), linear_with_triangle(5), graph_with_triangle()))
@settings(max_examples=150, deadline=None)
@example(K4_TRIANGLE, K4_TRIANGLE)
@example(K4_TRIANGLE, C3_TRIANGLE)
@example(C3_TRIANGLE, K4_TRIANGLE)
def test_delta_sum_closure_condition_matches_circuit_search(side1, side2):
    (m1, t1), (m2, t2) = side1, side2
    try:
        mt._delta_sum_circuit_conditions(m1, t1, m2, t2)
        message = None
    except PreconditionViolated as exc:
        message = str(exc)
    assert message == circuit_condition_failure(m1, t1, m2, t2)


@given(linear_with_triangle(), linear_with_triangle())
@settings(max_examples=120, deadline=None)
def test_delta_sum_binary_matches_cycle_space_reference(side1, side2):
    # the gluing needs no precondition, so it is checked on every draw
    (m1, t1), (m2, t2) = side1, side2
    out = mt._delta_sum_binary(m1, t1, m2, t2)
    ref = delta_sum_binary_reference(m1, t1, m2, t2)
    assert out.n == ref.n == m1.n + m2.n - 6
    for mask in range(1 << out.n):
        assert out._rank(mask) == ref._rank(mask)


@given(graph_with_triangle(), graph_with_triangle())
@settings(max_examples=150, deadline=None)
def test_delta_sum_graphic_matches_relabelling_reference(side1, side2):
    (m1, t1), (m2, t2) = side1, side2
    out = mt._delta_sum_graphic(m1, t1, m2, t2)
    assert out.graph == delta_sum_graphic_reference(m1, t1, m2, t2).graph


def test_delta_sum_past_the_enumeration_limit():
    # 27 of the 31 points of PG(4, 2), the triangle e0, e1, e0 + e1 among them
    points = [[v >> i & 1 for i in range(5)] for v in range(1, 32)]
    cols = [c for c in points if c not in ([0, 1, 1, 0, 0], [1, 1, 1, 1, 1],
                                           [0, 0, 1, 1, 1], [1, 0, 0, 1, 1])]
    m = mt.Linear(GFMatrix(2, [list(row) for row in zip(*cols)]))
    tri = [cols.index(c) for c in ([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 0, 0])]
    assert m.n == 27
    out = mt.delta_sum(m, tri, m, tri)
    assert (out.n, out.full_rank) == (48, 8)
    ref = delta_sum_binary_reference(m, tri, m, tri)
    rng = random.Random(27)
    for _ in range(300):
        mask = rng.getrandbits(48)
        assert out._rank(mask) == ref._rank(mask)


def test_thicken_and_stretch_groundsets():
    m = mt.thicken(mt.Uniform(1, 1), 2)
    assert m.n == 2 and m.full_rank == 1 and m.rank([0, 1]) == 1
    g = mt.stretch(mt.Graphic(bond_graph(3)), 2)
    assert isinstance(g, mt.Graphic)
    key1 = reference_key(g.graph)
    key2 = reference_key(complete_bipartite_graph(2, 3))
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


class BasisFamily(mt.Matroid):
    """A basis family taken as given, with no exchange check: the rank of a
    set is its largest meet with a basis."""

    def __init__(self, n, bases):
        self.n = n
        self.masks = [sum(1 << e for e in b) for b in bases]

    def _rank(self, mask):
        return max((mask & b).bit_count() for b in self.masks)


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
    return BasisFamily(m1.n + m2.n - 2, out)


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


@pytest.mark.parametrize("exc, build", [
    (InvalidParameters, lambda: mt.Graphic([(0, 1)])),
    (InvalidParameters, lambda: mt.Linear([[1, 0], [0, 1]])),
    (InvalidParameters, lambda: mt.SparsePaving(2, 4, [{0, 1, 2}])),
    (ElementOutOfRange, lambda: mt.SparsePaving(2, 4, [{0, 4}])),
    (InvalidRank, lambda: mt.PavingPartition(1, 3, [])),
    (InvalidPartition, lambda: mt.PavingPartition(3, 4, [{0}])),
    (ElementOutOfRange, lambda: mt.PavingPartition(2, 3, [{0, 3}])),
    (InvalidParameters, lambda: mt.BasisList(2, 3, [{0, 1}, {2}])),
    (ElementOutOfRange, lambda: mt.BasisList(2, 3, [{0, 3}])),
    (InvalidParameters, lambda: mt.catalan_matroid(0)),
    (InvalidParameters, lambda: mt.DirectSum([])),
    (InvalidParameters, lambda: mt.thicken(mt.Uniform(1, 2), 0)),
    (InvalidParameters, lambda: mt.stretch(mt.Uniform(1, 2), 0)),
    (PreconditionViolated, lambda: mt.delta_sum(
        mt.Graphic(complete_graph(4)), (0, 0, 1), mt.Graphic(complete_graph(4)), (0, 1, 3))),
], ids=["graphic-type", "linear-type", "sparse-paving-size", "sparse-paving-element",
        "paving-rank", "paving-block-size", "paving-element", "bases-size",
        "bases-element", "catalan-0", "empty-direct-sum", "thicken-0", "stretch-0",
        "repeated-triangle-element"])
def test_constructors_refuse_malformed_arguments(exc, build):
    with pytest.raises(exc):
        build()
