"""General algorithms for the Tutte polynomial of a matroid.

Five independent routes are provided, each usable as a cross-check on the
others:

- ``tutte_subset``: the corank-nullity expansion by a pruned subset sweep,
  T(x,y) = sum over A of (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)).
- ``tutte_dc``: deletion-contraction with loop/coloop stripping and
  parallel- and series-class shortcuts, on masks of the input's rank oracle,
  each child inheriting the ranks and the classes its parent knows; graphs
  recurse on multigraphs as a product over their blocks, memoized on a
  canonical form computed only for blocks that share a cheap invariant;
  every value is one packed int (``bipoly._Packing``).
- ``tutte_activities``: sum of x^i y^j over bases with i internally and j
  externally active elements relative to a total order.
- ``coboundary`` plus the substitution pair ``tutte_from_coboundary`` /
  ``coboundary_from_tutte``: the flat-indexed route, on one table of ranks;
  the pair works row by row on dense coefficient lists, by synthetic
  division and multiplication by t - 1 and binomial weights, with no
  BiPoly product.
- ``tutte_frontier``: a sweep along the edge order of a multigraph whose
  frontier stays small, over set partitions of the frontier vertices, each
  carrying its packed corank-nullity histogram;
  ``transfer_grid`` runs it on the m x n grid.  ``transfer_wheel`` is the
  transfer matrix of the wheel bad-colouring polynomials, stepped on dense
  coefficient lists.

The one-variable results (``char_poly``, ``bad_colouring``,
``transfer_wheel``) are dense int lists, low degree first, with no trailing
zeros, so [] is the zero polynomial.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from . import matroids as mt
from .bipoly import (
    BiPoly,
    _div_linear,
    _from_corank_nullity,
    _Packing,
    _shift_add,
    _times_linear,
    _wrap,
)
from .errors import (
    GraphTooLarge,
    GroundSetTooLarge,
    InvalidParameters,
    ResourceBudgetExceeded,
    UnsupportedWidth,
)
from .graphs import canonical_key, grid_graph

_ACTIVITY_CAP = 20
_COLOURING_CAP = 12
_FRONTIER_CAP = 8
DEFAULT_BUDGET = 10_000_000


# -- subset expansion ---------------------------------------------------------


def _corank_nullity_counts(rank, live, con, rc, full):
    """Histogram of (r - r(A), |A| - r(A)) over the subsets A of live in the
    root's minor on live with con contracted, r(A) = rank(A | con) - rc; the
    caller passes rc = rank(con) and full = rank(live | con).  A node is (U
    undecided, A, rank(A | con), rank(A | U | con)); when U lies in the
    closure of A or is independent over A, the 2^|U| sets A | S are counted
    at once by |S|, else each child inherits one rank and costs one call."""
    counts = {}
    stack = [(live, 0, rc, full)]  # (U, A, rank(A | con), rank(A | U | con))
    while stack:
        rest, a, ra, rau = stack.pop()
        u = rest.bit_count()
        if not rest or rau == ra or rau == ra + u:  # S adds only nullity, or only rank
            z, nl, spans = full - ra, a.bit_count() - ra + rc, rau == ra
            for s in range(u + 1):
                key = (z, nl + s) if spans else (z - s, nl)
                counts[key] = counts.get(key, 0) + comb(u, s)
        else:
            b = rest & -rest
            stack.append((rest ^ b, a | b, rank(con | a | b), rau))
            stack.append((rest ^ b, a, ra, rank(con | a | rest ^ b)))
    return counts


def tutte_subset(m):
    """Tutte polynomial by the corank-nullity sum, from the pruned subset sweep."""
    mt._guard(m)
    counts = _corank_nullity_counts(m._rank, (1 << m.n) - 1, 0, 0, m.full_rank)
    return _from_corank_nullity(counts)


def char_poly(m):
    """Characteristic polynomial: sum over A of (-1)^|A| lambda^(r(E)-r(A)),
    as a dense int list in lambda; [] when m has a loop."""
    mt._guard(m)
    full = m.full_rank
    coeffs = [0] * (full + 1)
    counts = _corank_nullity_counts(m._rank, (1 << m.n) - 1, 0, 0, full)
    for (z, nl), c in counts.items():
        coeffs[z] += -c if (full - z + nl) % 2 else c
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# -- deletion-contraction -----------------------------------------------------


class _Budget:
    __slots__ = ("cap", "nodes")

    def __init__(self, cap):
        self.cap = cap
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.cap:
            raise ResourceBudgetExceeded(
                f"deletion-contraction exceeded {self.cap} recursion nodes"
            )


def tutte_dc(m, budget_nodes=DEFAULT_BUDGET):
    """Tutte polynomial by deletion-contraction.

    A generic node is two masks over m's ground set: the live elements L and
    the contracted ones C, with r(A) = r_m(A | C) - r_m(C), so only m's own
    rank oracle is called and no minor is built.  A child inherits r_m(C) and
    r_m(L | C): deleting a non-coloop, or contracting a non-loop or a whole
    class, keeps r_m(L | C), deleting a series class X lowers it by |X| - 1,
    and contracting raises r_m(C) by a rank the parent has tested.  Loops
    (factor y) are stripped only after a contraction and coloops (factor x)
    only after a deletion: a deletion creates no loops and a contraction no
    coloops (Oxley, Matroid Theory, 3.1).  A single parallel class is
    U(1,k), whose polynomial is x + y + ... + y^(k-1).  Otherwise the largest
    parallel class X (p = |X|, lowest element e) that is not a cocircuit
    splits as T = T(M\\X) + (y^(p-1)+...+1) T(M/e\\(X-e)), the largest
    series class X that is not a circuit as T = (x^(p-1)+...+1) T(M\\X) +
    T(M/X), and failing both the highest live element e as T = T(M\\e) +
    T(M/e).  M/e\\(X-e) and M\\X of a series class X strip nothing: neither
    has a loop or a coloop.  The parallel classes of M\\X and the series
    classes of M/X are M's restricted to what is left, since their circuits,
    resp. cocircuits, are those of M that avoid X (Oxley, 2.2 and 3.1): a
    node hands its parallel partition to its deletion children and its
    series partition to its contraction children, so it builds at most one
    of the two itself (the root both).  In the split on e, M\\e's coloops
    are e's series class less e and M/e's loops its parallel class less e,
    so neither child strips anything.
    Graphic inputs instead recurse on multigraphs.  T is multiplicative over
    one-point joins and disjoint unions, so a graph's T is the product over
    its blocks (``Multigraph.blocks``): a bond on k edges gives x + y + ... +
    y^(k-1), a bridge x, a k-cycle x + ... + x^(k-1) + y, a loop y, and every
    other block is memoized, so isomorphic blocks reached along different
    branches are expanded once (Haggard, Pearce & Royle, "Computing Tutte
    polynomials", ACM TOMS 37, 2010).  The lookup takes a labelled repeat
    of a block as it stands; else the block joins its class under a cheap
    invariant (vertex count, sorted end-degree pairs of the edges), and
    ``graphs.canonical_key``, a complete isomorphism invariant, is computed
    only when a second block joins a class, for both: a key no other block
    could match is never computed, and the hits are those of a memo keyed
    on every block.  Such a block splits on its largest parallel class,
    else a degree-2 chain, else its last edge; in a 2-connected graph on at
    least 3 vertices no parallel class is a bond and no such chain is a
    circuit.  Every product over blocks costs one of budget_nodes.  Values
    are ints packed by ``bipoly._Packing``: y-degree at most n - r,
    coefficients at most T(1,1) <= C(n, r) (each, times its path weight, is
    part of T).
    """
    budget = _Budget(budget_nodes)
    r = m.full_rank
    pk = _Packing(m.n - r, comb(m.n, r))
    if isinstance(m, mt.Graphic):
        v = _dc_graph(m.graph, pk, budget, ({}, {}))
    else:
        v = _dc_generic(m._rank, (1 << m.n) - 1, 0, 0, r, 3, None, None, pk, budget)
    return _wrap(pk.unpack(v))


def _dc_graph(g, pk, budget, memo):
    """T(g), packed by pk, as the product of T over its blocks."""
    budget.tick()
    acc = 1
    for edges in g.blocks():
        k = len(edges)
        if k == 1:
            u, v = g.edges[edges[0]]
            acc <<= pk.y if u == v else pk.x  # a loop or a bridge
            continue
        block = g.restrict(edges)
        if block.nverts == 2:  # a bond
            poly = (1 << pk.x) + pk.geom(pk.y, k) - 1
        elif block.nverts == k:  # a cycle
            poly = pk.geom(pk.x, k) - 1 + (1 << pk.y)
        else:
            poly = _memo_block(block, pk, budget, memo)
        acc *= poly
    return acc


def _memo_block(block, pk, budget, memo):
    """T of a block that is neither a bond nor a cycle, through the memo
    (labelled, classes); a class is (first block, T) until it becomes
    {canonical_key: T}.  A block's descendants have fewer edges, so they
    never reach its class while it is expanded."""
    labelled, classes = memo
    poly = labelled.get(block)
    if poly is not None:
        return poly
    deg = [0] * block.nverts
    for u, v in block.edges:
        deg[u] += 1
        deg[v] += 1
    inv = (block.nverts, tuple(sorted(
        (deg[u], deg[v]) if deg[u] <= deg[v] else (deg[v], deg[u])
        for u, v in block.edges
    )))
    cls = classes.get(inv)
    if cls is None:
        poly = _dc_block(block, pk, budget, memo)
        classes[inv] = (block, poly)
    else:
        if isinstance(cls, tuple):
            first, first_poly = cls
            cls = classes[inv] = {canonical_key(first): first_poly}
        key = canonical_key(block)
        poly = cls.get(key)
        if poly is None:
            poly = cls[key] = _dc_block(block, pk, budget, memo)
    labelled[block] = poly
    return poly


def _dc_block(g, pk, budget, memo):
    """T of a 2-connected g with at least 3 vertices, which is not a cycle:
    no parallel class is a bond and no degree-2 chain is a circuit."""
    classes = [c for c in g.parallel_classes() if len(c) >= 2]
    if classes:
        cls = max(classes, key=len)
        gd = g.delete_edges(cls)
        gc = g.delete_edges(cls[1:]).contract_edge(cls[0])
        return _dc_graph(gd, pk, budget, memo) + pk.geom(pk.y, len(cls)) * _dc_graph(
            gc, pk, budget, memo
        )
    chain = g.degree_two_chain()
    if chain:
        gd = g.delete_edges(chain)
        gc = g
        for i in sorted(chain, reverse=True):
            gc = gc.contract_edge(i)
        return pk.geom(pk.x, len(chain)) * _dc_graph(gd, pk, budget, memo) + _dc_graph(
            gc, pk, budget, memo
        )
    e = len(g.edges) - 1
    return _dc_graph(g.delete_edges([e]), pk, budget, memo) + _dc_graph(
        g.contract_edge(e), pk, budget, memo
    )


def _classes(live, known, joined):
    """The classes of the live elements (masks): known, a partition of a
    superset, restricted to live; or when known is None, each element joins
    the first class whose lowest element it is joined to: joined(pair)."""
    if known is not None:
        return [cl & live for cl in known if cl & live]
    classes = []
    for e in mt._bits(live):
        b = 1 << e
        for i, cl in enumerate(classes):
            if joined((cl & -cl) | b):
                classes[i] = cl | b
                break
        else:
            classes.append(b)
    return classes


def _largest(classes):
    """The largest class (the earliest on ties), or 0 when every class is a
    single element."""
    best = max(classes, key=int.bit_count)
    return best if best.bit_count() >= 2 else 0


def _dc_generic(rank, live, con, rc, full, strip, par, ser, pk, budget):
    """T, packed by pk, of the root's minor on the mask live with the mask con
    contracted, ranked by r(A) = rank(A | con) - rc with rc = rank(con), full
    = rank(live | con); strip has bit 1 to strip loops and bit 2 coloops.
    par and ser are the parent's parallel and series partitions (lists of
    masks) when a deletion, resp. a contraction, made this minor, else None;
    restricted to live they are this minor's."""
    budget.tick()
    loops = coloops = 0
    for e in mt._bits(live):
        b = 1 << e
        if strip & 1 and rank(con | b) == rc:
            live ^= b
            loops += 1
        elif strip & 2 and rank(con | (live ^ b)) < full:
            live ^= b
            full -= 1
            coloops += 1
    if not live:
        return 1 << coloops * pk.x + loops * pk.y
    par = _classes(live, par, lambda pair: rank(con | pair) == rc + 1)
    big = _largest(par)
    if big == live:  # U(1,n): x + y + ... + y^(n-1)
        poly = (1 << pk.x) + pk.geom(pk.y, live.bit_count()) - 1
    elif big and rank(con | (live ^ big)) == full:  # not a cocircuit
        rest = live ^ big  # M/e has no coloops, and its loops are big - e
        poly = _dc_generic(rank, rest, con, rc, full, 2, par, None, pk, budget) + pk.geom(
            pk.y, big.bit_count()
        ) * _dc_generic(rank, rest, con | (big & -big), rc + 1, full, 0, None, ser, pk, budget)
    else:
        ser = _classes(live, ser, lambda pair: rank(con | (live ^ pair)) == full - 1)
        big = _largest(ser)
        p = big.bit_count()
        if big and rank(con | big) - rc == p:  # not a circuit
            rest = live ^ big  # dually, M\X has no loops and no coloops
            poly = pk.geom(pk.x, p) * _dc_generic(
                rank, rest, con, rc, full - p + 1, 0, par, None, pk, budget
            ) + _dc_generic(rank, rest, con | big, rc + p, full, 1, None, ser, pk, budget)
        else:  # M\e's coloops are e's series class - e, M/e's loops
            e = 1 << (live.bit_length() - 1)  # are e's parallel class - e
            se = next(cl for cl in ser if cl & e)
            pe = next(cl for cl in par if cl & e)
            k, j = se.bit_count() - 1, pe.bit_count() - 1
            poly = (_dc_generic(
                rank, live ^ se, con, rc, full - k, 0, par, None, pk, budget
            ) << k * pk.x) + (_dc_generic(
                rank, live ^ pe, con | e, rc + 1, full, 0, None, ser, pk, budget
            ) << j * pk.y)
    return poly << coloops * pk.x + loops * pk.y


# -- basis activities ---------------------------------------------------------


@lru_cache(maxsize=64)
def _basis_mask_set(m):
    return frozenset(mt._basis_masks(m))


def tutte_activities(m, order=None):
    """Tutte polynomial as sum of x^i y^j over bases by activity counts.

    An element e of a basis B is internally active when no earlier element f
    outside B makes B - e + f a basis; an element f outside B is externally
    active when no earlier element g of B makes B + f - g a basis.  The
    result does not depend on the order chosen.
    """
    n = m.n
    if n > _ACTIVITY_CAP:
        raise GroundSetTooLarge(f"activity expansion needs n <= {_ACTIVITY_CAP}")
    masks = _basis_mask_set(m)
    if order is None:
        order = list(range(n))
    else:
        order = list(order)
        if sorted(order) != list(range(n)):
            raise InvalidParameters("order must be a permutation of the ground set")
    earlier = {e: order[:k] for k, e in enumerate(order)}
    counts = {}
    for bmask in masks:
        active = [0, 0]  # [external, internal]
        for e in range(n):
            side = bmask >> e & 1
            swapped = bmask ^ (1 << e)
            for f in earlier[e]:
                if (bmask >> f & 1) != side and (swapped ^ (1 << f)) in masks:
                    break
            else:
                active[side] += 1
        key = (active[1], active[0])
        counts[key] = counts.get(key, 0) + 1
    return BiPoly(counts)


# -- coboundary route ---------------------------------------------------------


def coboundary(m):
    """Flat-indexed polynomial: sum over flats F of t^|F| char(M/F)(lambda),
    as a BiPoly in (lambda, t).  The flats and each char(M/F), a subset sweep
    with F contracted, read m's ranks from one table of 2^n bytes."""
    mt._guard(m)
    table = bytearray(b"\xff") * (1 << m.n)  # 255: not ranked yet

    def rank(mask):
        r = table[mask]
        if r == 255:
            r = table[mask] = m._rank(mask)
        return r

    ground = (1 << m.n) - 1
    full = rank(ground)
    terms = {}  # lambda^z t^|F| from each A, signed (-1)^|A|
    for flat in mt._flat_masks(m.n, rank):
        rf, t = rank(flat), flat.bit_count()
        counts = _corank_nullity_counts(rank, ground ^ flat, flat, rf, full)
        for (z, nl), c in counts.items():
            terms[z, t] = terms.get((z, t), 0) + (-c if (full - rf - z + nl) % 2 else c)
    return BiPoly(terms)


def _rows(p):
    """p as {i: dense coefficient list of the y^j in x^i}, nonzero rows only."""
    rows = {}
    for (i, j), c in p.items():
        _shift_add(rows.setdefault(i, []), (c,), j, 1)
    return rows


def _from_rows(rows):
    return _wrap({(i, j): c for i, row in rows.items() for j, c in enumerate(row) if c})


def tutte_from_coboundary(cob, r):
    """Invert the coboundary substitution for a rank-r matroid.

    Writing cob = sum_a lambda^a g_a(t), the Tutte polynomial is
    sum_a (x-1)^a g_a(y) (y-1)^(a-r).  On dense coefficient lists, g_a is
    divided by y - 1 r - a times by synthetic division (a nonzero remainder
    raises NonExactDivision) or multiplied by it a - r times, then added to
    the row of x^i with weight C(a,i) (-1)^(a-i).
    """
    rows = {}
    for a, g in _rows(cob).items():
        for _ in range(r - a):
            g = _div_linear(g)
        for _ in range(a - r):
            g = _times_linear(g, 1)
        for i in range(a + 1):
            _shift_add(rows.setdefault(i, []), g, 0, (-1) ** (a - i) * comb(a, i))
    return _from_rows(rows)


def coboundary_from_tutte(tutte, r):
    """Coboundary of a rank-r matroid: (t-1)^r T((lambda+t-1)/(t-1), t).

    With T = sum_i x^i h_i(y) and x = 1 + lambda/(t-1), this is
    sum_z lambda^z (t-1)^(r-z) sum_{i>=z} C(i,z) h_i(t), on dense
    coefficient lists as in ``tutte_from_coboundary``.
    """
    h = _rows(tutte)
    rows = {}
    for z in range(max(h, default=-1) + 1):
        s = []
        for i, hi in h.items():
            if i >= z:
                _shift_add(s, hi, 0, comb(i, z))
        for _ in range(z - r):
            s = _div_linear(s)
        for _ in range(r - z):
            s = _times_linear(s, 1)
        rows[z] = s
    return _from_rows(rows)


def tutte_via_coboundary(m):
    """Tutte polynomial computed through the flat-indexed route."""
    return tutte_from_coboundary(coboundary(m), m.full_rank)


# -- colouring enumeration ----------------------------------------------------


def bad_colouring(g, colors):
    """Count colourings by their number of monochromatic edges.

    Returns [b_0, b_1, ..., b_|E|], where b_j is the number of colourings of
    the vertices of g in the given number of colours having exactly j
    monochromatic ("bad") edges; b_|E| > 0, as one colour makes all bad.
    """
    if g.nverts > _COLOURING_CAP:
        raise GraphTooLarge(f"direct enumeration needs |V| <= {_COLOURING_CAP}")
    if colors < 1:
        raise InvalidParameters("need at least one colour")
    counts = [0] * (len(g.edges) + 1)
    edges = g.edges
    for sigma in itertools.product(range(colors), repeat=g.nverts):
        bad = 0
        for u, v in edges:
            if sigma[u] == sigma[v]:
                bad += 1
        counts[bad] += 1
    return counts


# -- frontier sweep and transfer matrices ------------------------------------


def _relabel(blocks):
    """Block labels renumbered in order of first appearance."""
    seen = {}
    return tuple(seen.setdefault(b, len(seen)) for b in blocks)


def tutte_frontier(g):
    """Tutte polynomial of a multigraph by a frontier sweep over g.edges.

    A vertex joins the frontier at its first edge and leaves after its last.
    A state is the partition of the frontier into the blocks that the edges
    taken so far connect, and it carries the histogram {(corank, nullity):
    count} of those edge sets, packed by ``bipoly._Packing`` with counts up
    to 2^|E|.  Skipping an edge keeps the state; taking it merges two blocks
    (corank - 1, a right shift: no set in the state spans) or stays inside
    one (nullity + 1).  The one final histogram is the corank-nullity
    expansion of T, so no polynomial is multiplied.  Orders whose frontier
    exceeds _FRONTIER_CAP vertices raise GraphTooLarge before the sweep
    (Sekine, Imai & Tani, ISAAC 1995).
    """
    first, last = {}, {}
    for k, (u, v) in enumerate(g.edges):
        for w in (u, v):
            first.setdefault(w, k)
            last[w] = k
    change = [0] * (len(g.edges) + 1)  # frontier size steps, edge by edge
    for w, k in first.items():
        change[k] += 1
        change[last[w] + 1] -= 1
    if max(itertools.accumulate(change)) > _FRONTIER_CAP:
        raise GraphTooLarge(f"edge order has a frontier above {_FRONTIER_CAP} vertices")
    full = g.full_rank()
    pk = _Packing(len(g.edges) - full, 1 << len(g.edges))
    front, states = [], {(): 1 << full * pk.x}
    for k, (u, v) in enumerate(g.edges):
        ends = dict.fromkeys((u, v))
        for w in ends:
            if first[w] == k:
                front.append(w)
                states = {s + (max(s, default=-1) + 1,): h for s, h in states.items()}
        i, j = front.index(u), front.index(v)
        nxt = dict(states)  # the edge skipped
        for s, h in states.items():
            a, b = s[i], s[j]
            if a == b:
                nxt[s] += h << pk.y
            else:
                merged = _relabel(a if t == b else t for t in s)
                nxt[merged] = nxt.get(merged, 0) + (h >> pk.x)
        states = nxt
        for w in ends:
            if last[w] == k:
                p = front.index(w)
                del front[p]
                nxt = {}
                for s, h in states.items():
                    t = _relabel(s[:p] + s[p + 1 :])
                    nxt[t] = nxt.get(t, 0) + h
                states = nxt
    return _from_corank_nullity(pk.unpack(states[()]))


def transfer_grid(m, n):
    """Tutte polynomial of the m x n grid graph by ``tutte_frontier``.

    ``graphs.grid_graph`` lists the edges column by column, so the frontier
    holds at most m + 1 vertices: the lattice-strip transfer matrix applied
    one edge at a time (Calkin, Merino, Noble & Noy, EJC 2003).
    """
    if not 2 <= m <= 6:
        raise UnsupportedWidth("grid sweeps are built for widths 2 to 6")
    if n < 2:
        raise InvalidParameters("need n >= 2 columns")
    return tutte_frontier(grid_graph(m, n))


def transfer_wheel(n, colors):
    """Bad-colouring polynomial of the wheel with n rim vertices, as a dense
    int list in t (as ``bad_colouring``).

    Computes colours * trace(D^n) where D is the colours x colours matrix
    with entry t^([i=j] + [j=first colour]); the trace imposes the periodic
    boundary condition that closes the rim.  D = (J + (t-1) I) diag(t^[j=0]),
    so a row vector steps as v_j <- t^[j=0] ((t-1) v_j + sum v), and (row a
    of D^n)[a] is n such steps from the unit vector e_a.  Each step raises
    the degree by at most 2, and t^(2n) has coefficient colours.
    """
    if n < 3:
        raise InvalidParameters("wheel needs n >= 3 rim vertices")
    if colors < 1:
        raise InvalidParameters("need at least one colour")
    total = []
    for a in range(colors):
        v = [[int(j == a)] for j in range(colors)]
        for _ in range(n):
            s = []
            for p in v:
                _shift_add(s, p, 0, 1)
            v = [_times_linear(p, 1) for p in v]
            for p in v:
                _shift_add(p, s, 0, 1)
            v[0].insert(0, 0)
        _shift_add(total, v[a], 0, colors)
    return total
