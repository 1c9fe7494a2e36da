"""End-to-end acceptance gates: eleven cross-checks, exact equality throughout.

Each test covers one gate and prints a single PASS line when it holds; under
pytest -v the test name itself reads as the per-gate pass/fail line.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import factorial, prod

from tuttepoly import catalog as cat
from tuttepoly import engines as eng
from tuttepoly import families as fam
from tuttepoly import graphs
from tuttepoly import matroids as mt
from tuttepoly.bipoly import BiPoly, X, Y, evaluate

from helpers import bad_colouring

ONE = BiPoly.one()

T_K5 = BiPoly({(0, 6): 1, (0, 5): 4, (4, 0): 1, (1, 3): 5, (0, 4): 10,
               (3, 0): 6, (2, 1): 10, (1, 2): 15, (0, 3): 15, (2, 0): 11,
               (1, 1): 20, (0, 2): 15, (1, 0): 6, (0, 1): 6})

T_K33 = BiPoly({(5, 0): 1, (4, 0): 4, (3, 0): 10, (2, 1): 9, (2, 0): 11,
                (1, 2): 6, (1, 1): 15, (1, 0): 5, (0, 4): 1, (0, 3): 5,
                (0, 2): 9, (0, 1): 5})

# Coboundary polynomials of the two rank-3 geometries, lambda -> x, t -> y.
CHI_PG23 = ((X - ONE) * (X - ONE * 3) * (X - ONE * 9)
            + Y * 13 * (X - ONE) * (X - ONE * 3)
            + (Y ** 4) * 13 * (X - ONE)
            + Y ** 13)
CHI_AG23 = ((X - ONE) * (X * X - X * 8 + ONE * 16)
            + Y * 9 * (X - ONE) * (X - ONE * 3)
            + (Y ** 3) * 12 * (X - ONE)
            + Y ** 9)


def _truth(entry):
    return entry.erratum["derived_truth"] if entry.erratum else entry.ground_truth


def _random_matroid(rng):
    """Uniform, graphic with at most 8 edges, or sparse paving with n <= 10."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(0, 9)
        return mt.Uniform(rng.randint(0, n), n)
    if kind == 1:
        nv = rng.randint(1, 5)
        edges = [(rng.randrange(nv), rng.randrange(nv))
                 for _ in range(rng.randint(0, 8))]
        return mt.Graphic(graphs.Multigraph(nv, edges))
    n = rng.randint(4, 10)
    r = rng.randint(2, n - 2)
    target = rng.randint(0, 6)
    subsets = list(combinations(range(n), r))
    rng.shuffle(subsets)
    chs = []
    for s in subsets:
        if len(chs) == target:
            break
        fs = frozenset(s)
        if all(len(fs & c) <= r - 2 for c in chs):
            chs.append(fs)
    return mt.SparsePaving(r, n, chs)


def _circuit_hyperplanes(m):
    bs = set(mt.bases(m))
    r = len(next(iter(bs)))
    return [frozenset(s) for s in combinations(range(m.n), r)
            if frozenset(s) not in bs]


def test_01_catalog_reproduction():
    t0 = time.time()
    flagged = 0
    for name in cat.names():
        entry = cat.lookup(name)
        m = cat.build(name)
        recipe_value = eng.tutte_dc(m)
        if entry.erratum is None:
            assert recipe_value == entry.ground_truth, name
        else:
            flagged += 1
            assert recipe_value == entry.erratum["derived_truth"], name
            assert recipe_value != entry.ground_truth, name
        if m.n <= 13:
            assert eng.tutte_subset(m) == recipe_value, name
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"[gate 01] catalog reproduction: PASS "
          f"({len(cat.names())} entries, {flagged} flagged misprint, "
          f"{elapsed:.1f}s)")


def test_02_engine_equivalence():
    rng = random.Random(20260815)
    entries = 0
    for name in cat.names():
        m = cat.build(name)
        if m.n > 12:
            continue
        ref = eng.tutte_subset(m)
        assert eng.tutte_dc(m) == ref, name
        for _ in range(100):
            order = list(range(m.n))
            rng.shuffle(order)
            assert eng.tutte_activities(m, order) == ref, name
        entries += 1
    assert entries >= 44
    for i in range(200):
        m = _random_matroid(rng)
        ref = eng.tutte_subset(m)
        assert eng.tutte_dc(m) == ref, i
        for _ in range(100):
            order = list(range(m.n))
            rng.shuffle(order)
            assert eng.tutte_activities(m, order) == ref, i
    print(f"[gate 02] engine equivalence: PASS "
          f"({entries} catalog matroids + 200 random, 100 orders each)")


def test_03_duality():
    rng = random.Random(4242)
    for i in range(100):
        m = _random_matroid(rng)
        assert eng.tutte_subset(mt.dual(m)) == eng.tutte_subset(m).swap(), i
    print("[gate 03] duality swap on 100 random matroids: PASS")


def test_04_relaxation_law():
    delta = X + Y - X * Y
    swept = 0
    for name in cat.names():
        entry = cat.lookup(name)
        if not entry.flags["sparse_paving"]:
            continue
        m = cat.build(name)
        t_m = eng.tutte_dc(m)
        for ch in _circuit_hyperplanes(m):
            assert eng.tutte_dc(mt.relax(m, ch)) - t_m == delta, (name, ch)
            swept += 1
    assert swept >= 100
    print(f"[gate 04] relaxation law on every circuit-hyperplane: PASS "
          f"({swept} relaxations)")


def test_05_grid_consistency():
    for n in range(2, 7):
        closed = fam.grid2(n)
        assert eng.transfer_grid(2, n) == closed, n
        assert eng.tutte_dc(mt.Graphic(graphs.grid_graph(2, n))) == closed, n
    for n in range(2, 5):
        wide = eng.transfer_grid(3, n)
        assert eng.tutte_dc(mt.Graphic(graphs.grid_graph(3, n))) == wide, n
    mult = X * X + X + ONE + Y
    damp = X * X * Y
    for n in range(3, 11):
        gap = fam.grid2(n) - mult * fam.grid2(n - 1) + damp * fam.grid2(n - 2)
        assert gap.is_zero(), n
    # sizes the brute-force canonical form could not reach in minutes
    ladder = mt.Graphic(graphs.grid_graph(2, 40))
    assert eng.tutte_dc(ladder, budget_nodes=1000) == fam.grid2(40)
    assert eng.tutte_dc(mt.Graphic(graphs.grid_graph(3, 8))) == eng.transfer_grid(3, 8)
    print("[gate 05] grid closed form, transfer matrix, recurrence: PASS")


def test_06_complete_graphs():
    assert fam.complete_graph(5) == T_K5
    for n in range(1, 8):
        direct = eng.tutte_dc(mt.Graphic(graphs.complete_graph(n)))
        assert fam.complete_graph(n) == direct, n
    t0 = time.time()
    big = fam.complete_graph(30)
    elapsed = time.time() - t0
    assert elapsed < 120
    # over the whole supported range, identities independent of both routes:
    # Cayley's spanning trees, all edge subsets, acyclic orientations, and
    # the chromatic polynomial q(q-1)...(q-n+1) = (-1)^(n-1) q T(1-q, 0)
    for n in range(1, 31):
        t = big if n == 30 else fam.complete_graph(n)
        assert evaluate(t, 1, 1) == n ** (n - 2) if n > 1 else 1, n
        assert evaluate(t, 2, 2) == 2 ** (n * (n - 1) // 2), n
        assert evaluate(t, 2, 0) == factorial(n), n
        for q in (2, n, n + 3):
            falling = prod(range(q - 1, q - n, -1))
            assert evaluate(t, 1 - q, 0) == (-1) ** (n - 1) * falling, (n, q)
    print(f"[gate 06] complete graphs: PASS (n=30 in {elapsed:.2f}s)")


def test_07_complete_bipartite():
    assert fam.complete_bipartite(3, 3) == T_K33
    pairs = 0
    for n in range(1, 17):
        for m_ in range(1, 17):
            if n * m_ > 16:
                continue
            direct = eng.tutte_dc(
                mt.Graphic(graphs.complete_bipartite_graph(n, m_))
            )
            assert fam.complete_bipartite(n, m_) == direct, (n, m_)
            pairs += 1
    # the whole supported range, each K_{a,b} = K_{b,a} once: spanning trees
    # a^(b-1) b^(a-1) and 2^|E| edge subsets
    for a in range(1, 9):
        for b in range(a, 64 // a + 1):
            t = fam.complete_bipartite(a, b)
            assert evaluate(t, 1, 1) == a ** (b - 1) * b ** (a - 1), (a, b)
            assert evaluate(t, 2, 2) == 2 ** (a * b), (a, b)
            pairs += 1
    print(f"[gate 07] complete bipartite graphs: PASS ({pairs} size pairs)")


def test_08_wheel_trace_identity():
    assert eng.transfer_wheel(3, 3) == [0, 36, 18, 24, 0, 0, 3]
    for n in range(3, 6):
        for colors in range(1, 5):
            brute = bad_colouring(graphs.wheel_graph(n), colors)
            assert eng.transfer_wheel(n, colors) == brute, (n, colors)
    for n in range(3, 7):
        g = graphs.wheel_graph(n)
        assert fam.wheel(n) == eng.tutte_dc(mt.Graphic(g)), n
        rim = frozenset(range(n, 2 * n))
        relaxed = eng.tutte_dc(mt.relax(mt.Graphic(g), rim))
        assert fam.whirl(n) == relaxed, n
    assert fam.wheel(3) == fam.sparse_paving(3, 6, 4)
    assert fam.whirl(3) == fam.sparse_paving(3, 6, 3)
    print("[gate 08] wheel trace identity and wheel/whirl recurrences: PASS")


def test_09_sum_formulas():
    u13 = BiPoly({(1, 0): 1, (0, 1): 1, (0, 2): 1})
    u23 = BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    r6 = fam.two_sum_poly(u13, u23, u13, u23)
    assert r6 == cat.lookup("R6").ground_truth
    assert r6 == eng.tutte_subset(cat.build("R6"))

    u34, u14 = fam.uniform(3, 4), fam.uniform(1, 4)
    pair_sq = (X + Y) * (X + Y)
    tri = BiPoly({(2, 0): 1, (1, 0): 1, (1, 1): 1, (0, 1): 1, (0, 2): 1})
    f8 = fam.delta_sum_poly([u34, pair_sq, pair_sq, u14, pair_sq],
                            [u34, tri, pair_sq, u14, pair_sq])
    assert f8 == cat.lookup("F8").ground_truth
    assert f8 == eng.tutte_subset(cat.build("F8"))
    print("[gate 09] two-sum and triangle-sum formulas: PASS")


def test_10_conversion_round_trips():
    rng = random.Random(1022)
    for i in range(100):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            coeff = rng.choice([c for c in range(-9, 10) if c])
            terms[(rng.randint(0, 6), rng.randint(0, 6))] = coeff
        p = BiPoly(terms)
        r = p.bidegree()[0] + rng.randint(0, 2)
        back = eng.tutte_from_coboundary(eng.coboundary_from_tutte(p, r), r)
        assert back == p, i

    for name, chi in (("PG23", CHI_PG23), ("AG23", CHI_AG23)):
        m = cat.build(name)
        assert eng.coboundary(m) == chi, name
        assert eng.tutte_from_coboundary(chi, 3) == cat.lookup(
            name).ground_truth, name
    m = cat.build("PG22")
    assert eng.tutte_from_coboundary(eng.coboundary(m), 3) == cat.lookup(
        "PG22").ground_truth
    print("[gate 10] conversion round trips and coboundary path: PASS")


def test_11_universal_sanity():
    rng = random.Random(777)
    produced = 0
    for name in cat.names():
        entry = cat.lookup(name)
        truth = _truth(entry)
        m = cat.build(name)
        assert evaluate(truth, 2, 2) == 2 ** m.n, name
        assert evaluate(truth, 1, 1) == len(mt.bases(m)), name
        produced += 1
    for _ in range(60):
        m = _random_matroid(rng)
        p = eng.tutte_subset(m)
        assert evaluate(p, 2, 2) == 2 ** m.n
        assert evaluate(p, 1, 1) == len(mt.bases(m))
        produced += 1
    print(f"[gate 11] basis-count and 2^n identities: PASS "
          f"({produced} polynomials)")
