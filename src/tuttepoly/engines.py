"""General algorithms for the Tutte polynomial of a matroid.

Five independent routes are provided, each usable as a cross-check on the
others:

- ``tutte_subset``: the corank-nullity expansion
  T(x,y) = sum over A of (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)).
- ``tutte_dc``: deletion-contraction with loop/coloop stripping and
  parallel- and series-class shortcuts, on masks of the input's rank oracle;
  graphs recurse on multigraphs with component factoring and memoization on
  a canonical form.
- ``tutte_activities``: sum of x^i y^j over bases with i internally and j
  externally active elements relative to a total order.
- ``coboundary`` plus the substitution pair ``tutte_from_coboundary`` /
  ``coboundary_from_tutte``: the flat-indexed route.
- ``tutte_frontier``: a sweep along the edge order of a multigraph whose
  frontier stays small, over set partitions of the frontier vertices;
  ``transfer_grid`` runs it on the m x n grid.  ``transfer_wheel`` is the
  transfer matrix of the wheel bad-colouring polynomials.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import matroids as mt
from .bipoly import (
    BiPoly,
    PolyMatrix,
    UniPoly,
    X,
    Y,
    _from_corank_nullity,
    _geom,
    exact_div,
    mat_pow,
    subst_rational,
)
from .errors import (
    GraphTooLarge,
    GroundSetTooLarge,
    InvalidParameters,
    ResourceBudgetExceeded,
    UnsupportedWidth,
)
from .graphs import Multigraph, canonical_key, grid_graph

_ONE = BiPoly.one()
_ACTIVITY_CAP = 20
_BASES_CAP = 10**6
_COLOURING_CAP = 12
_FRONTIER_CAP = 8
DEFAULT_BUDGET = 10_000_000


# -- subset expansion ---------------------------------------------------------


def _corank_nullity_counts(m):
    """Histogram of (r(E)-r(A), |A|-r(A)) over all subsets A."""
    full = m.full_rank
    rank = m._rank
    counts = {}
    for mask in range(1 << m.n):
        r = rank(mask)
        key = (full - r, mask.bit_count() - r)
        counts[key] = counts.get(key, 0) + 1
    return counts


def tutte_subset(m):
    """Tutte polynomial by the corank-nullity sum over all 2^n subsets."""
    mt._guard(m)
    return _from_corank_nullity(_corank_nullity_counts(m))


def char_poly(m):
    """Characteristic polynomial: sum over A of (-1)^|A| lambda^(r(E)-r(A))."""
    mt._guard(m)
    full = m.full_rank
    coeffs = [0] * (full + 1)
    for (z, nl), c in _corank_nullity_counts(m).items():
        size = (full - z) + nl
        coeffs[z] += -c if size % 2 else c
    return UniPoly(coeffs)


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
    rank oracle is called and no minor is built.  Loops and coloops are
    stripped as factors y and x; a single parallel class is U(1,k), whose
    polynomial is x + y + ... + y^(k-1).  Otherwise the largest parallel
    class X (p = |X|, lowest element e) that is not a cocircuit splits as
    T = T(M\\X) + (y^(p-1)+...+1) T(M/e\\(X-e)), the largest series class
    X that is not a circuit as T = (x^(p-1)+...+1) T(M\\X) + T(M/X), and
    failing both the highest live element e as T = T(M\\e) + T(M/e).
    Graphic inputs instead recurse on multigraphs: bridges and loops are
    stripped, connected components multiply, cycles are a base case, and
    every connected minor is memoized on ``graphs.canonical_key``, a complete
    isomorphism invariant, so isomorphic minors reached along different
    branches are expanded once.  Every node costs one of budget_nodes.
    """
    budget = _Budget(budget_nodes)
    if isinstance(m, mt.Graphic):
        return _dc_graph(m.graph, budget, {})
    return _dc_generic(m._rank, (1 << m.n) - 1, 0, budget)


def _cycle_poly(n):
    terms = {(i, 0): 1 for i in range(1, n)}
    terms[(0, 1)] = 1
    return BiPoly(terms)


def _induced(g, verts):
    vs = sorted(verts)
    idx = {w: k for k, w in enumerate(vs)}
    edges = [(idx[u], idx[v]) for (u, v) in g.edges if u in idx]
    return Multigraph._trusted(len(vs), edges)


def _dc_graph(g, budget, memo):
    budget.tick()
    acc = _ONE
    loops = g.loops()
    if loops:
        acc = acc * BiPoly.monomial(0, 1) ** len(loops)
        g = g.delete_edges(loops)
    bridges = g.bridges()
    if bridges:
        acc = acc * BiPoly.monomial(1, 0) ** len(bridges)
        for i in sorted(bridges, reverse=True):
            g = g.contract_edge(i)
    if not g.edges:
        return acc
    comps = [c for c in g.components() if len(c) > 1]
    if len(comps) > 1:
        for verts in comps:
            acc = acc * _dc_graph(_induced(g, verts), budget, memo)
        return acc
    g = g.without_isolated()
    if g.is_cycle():
        return acc * _cycle_poly(len(g.edges))
    key = canonical_key(g)
    if key in memo:
        return acc * memo[key]
    poly = memo[key] = _dc_graph_split(g, budget, memo)
    return acc * poly


def _dc_graph_split(g, budget, memo):
    classes = [c for c in g.parallel_classes() if len(c) >= 2]
    if classes:
        cls = max(classes, key=len)
        rest = [i for i in range(len(g.edges)) if i not in set(cls)]
        if g.rank_of(rest) == g.full_rank():  # the class is not a bond
            gd = g.delete_edges(cls)
            gc = g.delete_edges(cls[1:]).contract_edge(cls[0])
            return _dc_graph(gd, budget, memo) + _geom(
                BiPoly.monomial(0, 1), len(cls)
            ) * _dc_graph(gc, budget, memo)
    chain = g.degree_two_chain()
    if chain and g.rank_of(chain) == len(chain):  # the chain is not a circuit
        gd = g.delete_edges(chain)
        gc = g
        for i in sorted(chain, reverse=True):
            gc = gc.contract_edge(i)
        return _geom(BiPoly.monomial(1, 0), len(chain)) * _dc_graph(
            gd, budget, memo
        ) + _dc_graph(gc, budget, memo)
    e = len(g.edges) - 1
    return _dc_graph(g.delete_edges([e]), budget, memo) + _dc_graph(
        g.contract_edge(e), budget, memo
    )


def _largest_class(live, joined):
    """Largest class of the live elements (the earliest on ties), or 0 when
    every class is a single element.  Each element joins the first class
    whose lowest element it is joined to: joined(mask of the pair)."""
    classes = []
    for e in mt._bits(live):
        b = 1 << e
        for i, cl in enumerate(classes):
            if joined((cl & -cl) | b):
                classes[i] = cl | b
                break
        else:
            classes.append(b)
    best = max(classes, key=int.bit_count)
    return best if best.bit_count() >= 2 else 0


def _dc_generic(rank, live, con, budget):
    """T of the root's minor on the mask live with the mask con contracted,
    ranked by r(A) = rank(A | con) - rank(con); no minor is built."""
    budget.tick()
    rc = rank(con)
    full = rank(live | con)
    loops = coloops = 0
    for e in mt._bits(live):
        b = 1 << e
        if rank(con | b) == rc:
            live ^= b
            loops += 1
        elif rank(con | (live ^ b)) < full:
            live ^= b
            full -= 1
            coloops += 1
    if not live:
        return X**coloops * Y**loops
    par = _largest_class(live, lambda pair: rank(con | pair) == rc + 1)
    if par == live:  # U(1,n): x + y + ... + y^(n-1)
        poly = X + _geom(Y, live.bit_count()) - 1
    elif par and rank(con | (live ^ par)) == full:  # not a cocircuit
        rest = live ^ par
        poly = _dc_generic(rank, rest, con, budget) + _geom(
            Y, par.bit_count()
        ) * _dc_generic(rank, rest, con | (par & -par), budget)
    else:
        ser = _largest_class(live, lambda pair: rank(con | (live ^ pair)) == full - 1)
        if ser and rank(con | ser) - rc == ser.bit_count():  # not a circuit
            rest = live ^ ser
            poly = _geom(X, ser.bit_count()) * _dc_generic(
                rank, rest, con, budget
            ) + _dc_generic(rank, rest, con | ser, budget)
        else:
            e = 1 << (live.bit_length() - 1)
            poly = _dc_generic(rank, live ^ e, con, budget) + _dc_generic(
                rank, live ^ e, con | e, budget
            )
    if loops or coloops:
        return X**coloops * Y**loops * poly
    return poly


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
    if len(masks) > _BASES_CAP:
        raise GroundSetTooLarge(f"more than {_BASES_CAP} bases")
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
    """Flat-indexed polynomial: sum over flats F of t^|F| char(M/F)(lambda).

    Returned as a BiPoly whose first variable is lambda and second is t.
    """
    mt._guard(m)
    acc = BiPoly.zero()
    for flat in mt.flats(m):
        sub = mt.contract_many(m, flat) if flat else m
        cp = char_poly(sub).to_bipoly_x()
        acc = acc + cp * BiPoly.monomial(0, len(flat))
    return acc


def tutte_from_coboundary(cob, r):
    """Invert the coboundary substitution for a rank-r matroid.

    Writing cob = sum_a lambda^a g_a(t), the Tutte polynomial is
    sum_a (x-1)^a g_a(y) (y-1)^(a-r); every division here is exact.
    """
    groups = {}
    for (a, b), c in cob.items():
        groups.setdefault(a, {})[(0, b)] = c
    acc = BiPoly.zero()
    xm1 = X - 1
    ym1 = Y - 1
    for a, terms in groups.items():
        g = BiPoly(terms)
        if r >= a:
            part = exact_div(g, ym1 ** (r - a))
        else:
            part = g * ym1 ** (a - r)
        acc = acc + xm1**a * part
    return acc


def coboundary_from_tutte(tutte, r):
    """Coboundary of a rank-r matroid: (t-1)^r T((lambda+t-1)/(t-1), t)."""
    return subst_rational(tutte, X + Y - 1, Y - 1, Y, _ONE, clear_factor=(Y - 1) ** r)


def tutte_via_coboundary(m):
    """Tutte polynomial computed through the flat-indexed route."""
    return tutte_from_coboundary(coboundary(m), m.full_rank)


# -- colouring enumeration ----------------------------------------------------


def bad_colouring(g, colors):
    """Count colourings by their number of monochromatic edges.

    Returns sum_j b_j t^j where b_j is the number of colourings of the
    vertices of g in the given number of colours having exactly j
    monochromatic ("bad") edges.
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
    return UniPoly(counts)


# -- frontier sweep and transfer matrices ------------------------------------


def _relabel(blocks):
    """Block labels renumbered in order of first appearance."""
    seen = {}
    return tuple(seen.setdefault(b, len(seen)) for b in blocks)


def _add_shifted(states, s, hist, dr, dn):
    """Add hist, with every (rank, nullity) moved by (dr, dn), into states[s]."""
    acc = states.setdefault(s, {})
    for (r, nl), c in hist.items():
        key = (r + dr, nl + dn)
        acc[key] = acc.get(key, 0) + c


def tutte_frontier(g):
    """Tutte polynomial of a multigraph by a frontier sweep over g.edges.

    A vertex joins the frontier at its first edge and leaves after its last.
    A state is the partition of the frontier into the blocks that the edges
    taken so far connect, and it carries the histogram {(rank, nullity):
    count} of those edge sets.  Skipping an edge keeps the state; taking it
    merges two blocks (rank + 1) or stays inside one (nullity + 1).  The one
    final histogram is the corank-nullity expansion of T, so no polynomial is
    multiplied.  Orders whose frontier exceeds _FRONTIER_CAP vertices raise
    GraphTooLarge before the sweep (Sekine, Imai & Tani, ISAAC 1995).
    """
    first = {}
    last = {}
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
    front = []
    states = {(): {(0, 0): 1}}
    for k, (u, v) in enumerate(g.edges):
        ends = dict.fromkeys((u, v))
        for w in ends:
            if first[w] == k:
                front.append(w)
                states = {s + (max(s, default=-1) + 1,): h for s, h in states.items()}
        i, j = front.index(u), front.index(v)
        nxt = {s: dict(hist) for s, hist in states.items()}  # the edge skipped
        for s, hist in states.items():
            a, b = s[i], s[j]
            if a == b:
                _add_shifted(nxt, s, hist, 0, 1)
            else:
                _add_shifted(nxt, _relabel(a if t == b else t for t in s), hist, 1, 0)
        states = nxt
        for w in ends:
            if last[w] == k:
                p = front.index(w)
                del front[p]
                nxt = {}
                for s, hist in states.items():
                    _add_shifted(nxt, _relabel(s[:p] + s[p + 1 :]), hist, 0, 0)
                states = nxt
    full = g.full_rank()
    return _from_corank_nullity(
        {(full - r, nl): c for (r, nl), c in states[()].items()}
    )


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
    """Bad-colouring polynomial of the wheel with n rim vertices.

    Computes colours * trace(D^n) where D is the colours x colours matrix
    with entry t^([i=j] + [j=first colour]); the trace imposes the periodic
    boundary condition that closes the rim.
    """
    if n < 3:
        raise InvalidParameters("wheel needs n >= 3 rim vertices")
    if colors < 1:
        raise InvalidParameters("need at least one colour")
    t = BiPoly.monomial(1, 0)
    rows = [
        [t ** ((1 if i == j else 0) + (1 if j == 0 else 0)) for j in range(colors)]
        for i in range(colors)
    ]
    tr = mat_pow(PolyMatrix(rows), n).trace()
    coeffs = [0] * (tr.bidegree()[0] + 1)
    for (a, _), cc in tr.items():
        coeffs[a] = cc * colors
    return UniPoly(coeffs)
