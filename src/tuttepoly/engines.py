"""General algorithms for the Tutte polynomial of a matroid.

Five independent routes are provided, each usable as a cross-check on the
others:

- ``tutte_subset``: the corank-nullity expansion by a pruned subset sweep,
  T(x,y) = sum over A of (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)).
- ``tutte_dc``: deletion-contraction with loop/coloop stripping and
  parallel- and series-class shortcuts, on masks of the input's rank oracle,
  each child inheriting the ranks and the class partitions its parent knows,
  and a node that knows none testing only the classes it splits on; graphs
  recurse on multigraphs of at most 2|E| vertices (k edges touch at most
  2k, and ``Graphic`` drops isolated ones past that) as a product over
  their blocks, which give the rank as the sum of |V(B)| - 1, a block with
  no K4 minor closed by series and parallel steps on Brylawski's pointed
  pairs (f, g) and every other one memoized on a one-way canonical key
  (equal keys imply isomorphic blocks) computed only for blocks that share
  a cheap invariant, each split once on an edge set X as T = w_d T(G\\X) +
  w_c T(G/X), and a dual takes its parent's T with x and y swapped; on
  both, a fat cycle (a circuit whose elements are bundles of parallel
  ones) is a closed form, and on masks so is every minor of rank or
  corank at most 2, from its class sizes.
- ``tutte_activities``: sum of x^i y^j over bases with i internally and j
  externally active elements relative to a total order.
- ``coboundary`` plus the substitution pair ``tutte_from_coboundary`` /
  ``coboundary_from_tutte``: the flat-indexed route, on one table of ranks;
  the pair lives in ``bipoly`` (with the closed-form coboundaries of
  ``families`` as its other caller) and is re-exported here.
- ``tutte_frontier``: a sweep along the edge order of a multigraph whose
  frontier stays small, over set partitions of the frontier vertices, each
  carrying its corank-nullity histogram, one pass over the states per edge
  through transition tables built during the call; ``transfer_grid`` runs
  it on the m x n grid.  ``transfer_wheel`` is the transfer matrix of the
  wheel bad-colouring polynomials, stepped on one int per colour.

The subset sweep, DC, the frontier sweep and the wheel transfer matrix
keep each polynomial or histogram as one int (``bipoly._Packing``, by
Kronecker substitution), decoded once.  The one-variable results
(``char_poly``, ``transfer_wheel``) are dense int lists, low degree first,
with no trailing zeros, so [] is the zero polynomial.
"""

from __future__ import annotations

import itertools
from math import comb

from . import matroids as mt
from .bipoly import (
    BiPoly,
    _from_corank_nullity,
    _Packing,
    _wrap,
    coboundary_from_tutte,
    tutte_from_coboundary,
)
from .errors import (
    GraphTooLarge,
    GroundSetTooLarge,
    InvalidParameters,
    ResourceBudgetExceeded,
    UnsupportedWidth,
)
from .graphs import Multigraph, canonical_key, frontier_order, grid_graph

_ACTIVITY_CAP = 20
_FRONTIER_CAP = 8
DEFAULT_BUDGET = 10_000_000


# -- subset expansion ---------------------------------------------------------


def _corank_nullity_counts(rank, live, con, rc, full):
    """Histogram {(z, nl): count} of z = r - r(A), nl = |A| - r(A) over the
    subsets A of live in the root's minor on live with con contracted, r(A)
    = rank(A | con) - rc; the caller passes rc = rank(con) and full =
    rank(live | con).  A node is (U undecided, A, rank(A | con), rank(A | U
    | con), f); its 2^|U| sets A | S add f x^z y^nl (1 + y)^|U| when U lies
    in the closure of A, f x^(z-|U|) y^nl (1 + x)^|U| when U is independent
    over A, each one packed int (y-degree the minor's nullity, counts up to
    2^|live|).  Else the lowest b of U in cl(A), which ranks A + b + S as A
    + S, keeps the skip child with f (1 + y); a coloop b of A | U over A
    keeps the take child with f (1 + x); else each child costs one call."""
    pk = _Packing(live.bit_count() - full + rc, 1 << live.bit_count())
    x1, y1 = (1 << pk.x) + 1, (1 << pk.y) + 1
    acc = 0
    stack = [(live, 0, rc, full, 1)]  # (U, A, rank(A | con), rank(A | U | con), f)
    while stack:
        rest, a, ra, rau, f = stack.pop()
        u = rest.bit_count()
        at = (full - ra) * pk.x + (a.bit_count() - ra + rc) * pk.y
        if rau == ra:  # S adds only nullity
            acc += f * y1**u << at
        elif rau == ra + u:  # S adds only rank
            acc += f * x1**u << at - u * pk.x
        else:
            b = rest & -rest
            rest ^= b
            rab = rank(con | a | b)
            if rab == ra:
                stack.append((rest, a, ra, rau, f * y1))
            elif rank(con | a | rest) < rau:
                stack.append((rest, a | b, rab, rau, f * x1))
            else:
                stack.append((rest, a | b, rab, rau, f))
                stack.append((rest, a, ra, rau, f))
    return pk.unpack(acc)


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
    coloops (Oxley, Matroid Theory, 3.1).  A minor of rank r <= 2 is closed
    from the sizes of its parallel classes (``_line``; at r = 1 it is U(1,k),
    T = B(k) = x + y + ... + y^(k-1)).  k known parallel classes of rank
    k - 1 are a fat cycle (``_fat_cycle``) when their lowest elements form a
    circuit: k rank calls, paid only at that rank, find no coloop.  A minor
    of corank at most 2 is closed by ``_line`` from its series classes, as
    T(M; x, y) = T(M*; y, x) (Brylawski & Oxley, 1992).  Otherwise a
    parallel class X (p = |X|, lowest element e) that is not a cocircuit
    splits as T = T(M\\X) + (y^(p-1)+...+1) T(M/e\\(X-e)), a series class X
    that is not a circuit as T = (x^(p-1)+...+1) T(M\\X) + T(M/X), and
    failing both the highest live element e as T = T(M\\e) + T(M/e); X is
    the largest class where the node knows the partition, else e's class.
    M/e\\(X-e) and M\\X of a series class X strip nothing: neither has a
    loop or a coloop.  The parallel classes of M\\X and the series classes
    of M/X are M's restricted to what is left, since their circuits, resp.
    cocircuits, are those of M that avoid X (Oxley, 2.2 and 3.1): a node
    hands the parallel partition it knows to its deletion children and the
    series one to its contraction children.  Only the root builds both, and
    other nodes one only for a closed form of rank or corank at most 2;
    else e's classes cost about 2|L| rank calls, not |L|^2 / 2.  In the
    split on e, M\\e's coloops are e's series class less e and M/e's loops
    its parallel class less e, so neither child strips anything.
    Graphic inputs instead recurse on multigraphs, of at most 2|E| vertices
    (``Graphic`` drops isolated ones past that, as k edges touch at most
    2k), so per-vertex lists cost O(|E|).  The rank adds and T multiplies
    over one-point joins and disjoint unions, so r is the sum of |V(B)| - 1
    over the blocks B, each connected (a loop adds 0, an isolated vertex is
    in no block), and T the product over the blocks (``Multigraph.blocks``):
    a bond on k edges gives B(k), a bridge x, a loop y, a block on n >= 3
    vertices with n distinct end pairs is a fat cycle (a 2-connected simple
    graph with n edges is a cycle), and a block with no K4 minor is closed
    by series and parallel steps (``_series_parallel``) on the pointed pair
    (f, g) of each end pair's subgraph H, (x-1) f + g = T(H) and f + (y-1) g
    = T(H with the pair's ends merged), as ``families.tensor_poly`` solves:
    k parallel edges give (1, [k]_y), two pairs in series (f1 g2 + g1 f2 +
    (x-1) f1 f2, g1 g2), in parallel (f1 f2, f1 g2 + g1 f2 + (y-1) g1 g2),
    and the last pair (x-1) f + g (Brylawski, Trans. AMS 171, 1972; Oxley,
    Matroid Theory, 7.1).  Every other block is memoized, so isomorphic
    blocks reached along different branches are expanded once (Haggard,
    Pearce & Royle, ACM TOMS 37, 2010).  A labelled repeat of any block is
    looked up as it stands; else the block joins its class under a cheap
    invariant (vertex count, sorted end degrees and multiplicity of each end
    pair, read from one table of its edges per end pair), and
    ``graphs.canonical_key``, whose equal keys imply isomorphic blocks, is
    computed only when a second block joins a class, for both: a key no
    other block could match is never computed, and the hits are those of a
    memo keyed on every block.  Isomorphic blocks may get different keys;
    the one that misses is expanded again, to the same value.  Such a block
    splits once on an edge set X read from the same table, its largest
    parallel class (the lowest end pair's on ties), else the degree-2 chain
    through its highest vertex h, else the edge from h to h's highest
    neighbour, as T = w_d T(G\\X) + w_c T(G/X) (``_dc_block``); the
    children keep the order of G's vertices, so DC works through a block
    from one end of that order, and a root block on more than 12 vertices
    that it splits is first renumbered along ``graphs.frontier_order``
    (Cuthill & McKee, 1969).  G\\X gets its blocks
    from Tarjan's search (``Multigraph.blocks``), G/X from one union-find
    pass around the vertex w that X merges into (``Multigraph.blocks_at``):
    for any other vertex z, (G/X) - z = (G - z)/X is connected, as a block
    less one vertex is, so only w can be a cut vertex of G/X.  Every
    product over blocks costs one of budget_nodes.  Values are ints packed
    by ``bipoly._Packing``: y-degree at most n - r, coefficients at most
    T(1,1) <= C(n, r) (each, times its path weight, is part of T).
    A ``DualView`` runs DC on its parent, whose nodes count against
    budget_nodes, and swaps x and y: T(M*; x, y) = T(M; y, x).
    """
    if budget_nodes < 1:
        raise InvalidParameters(f"node budget must be at least 1, not {budget_nodes}")
    if isinstance(m, mt.DualView):
        return tutte_dc(m.parent, budget_nodes).swap()
    budget = _Budget(budget_nodes)
    if isinstance(m, mt.Graphic):
        blocks = m.graph.blocks()
        r = sum(g.nverts - 1 for _, g in blocks)
        pk = _Packing(m.n - r, comb(m.n, r))
        v = _dc_graph(blocks, pk, budget, ({}, {}), root=True)
    else:
        r = m.full_rank
        pk = _Packing(m.n - r, comb(m.n, r))
        v = _dc_generic(m._rank, (1 << m.n) - 1, 0, 0, r, 3, None, None, pk, budget)
    return _wrap(pk.unpack(v))


def _bond(pk, m):
    """B(m) = x + y + ... + y^(m-1), packed by pk: m parallel elements, U(1,m)."""
    return (1 << pk.x) + pk.geom(pk.y, m) - 1


def _fat_cycle(pk, sizes):
    """T, packed by pk, of a cycle whose sides are bundles of m_i = sizes[i]
    parallel elements, in any order: splitting on the last bundle, T_k =
    B(m_1)...B(m_(k-1)) + [m_k]_y T_(k-1), [m]_y = 1 + ... + y^(m-1), from
    T_1 = y^(m_1), so T_2 = B(m_1 + m_2); every term is non-negative."""
    t, path = 1 << sizes[0] * pk.y, _bond(pk, sizes[0])
    for m in sizes[1:]:
        if m == 1:  # B(1) = x, [1]_y = 1
            t += path
            path <<= pk.x
        else:
            t = path + pk.geom(pk.y, m) * t
            path *= _bond(pk, m)
    return t


def _line(sx, sy, r, sizes):
    """T at x = 1 << sx, y = 1 << sy of a loopless rank-r matroid, r = 1 or 2,
    with parallel classes of m_i = sizes[i] elements: r(A) = 1 exactly when A
    is a nonempty subset of one class, and sum_A (y-1)^|A| = y^n, so T =
    (x-1)^r + (x-1)^(r-1) sum [m_i]_y + [r = 2] (y^n - 1 - sum (y^(m_i) - 1))
    / (y-1)^2, [m]_y = 1 + ... + y^(m-1) (B(n) at r = 1); the divisions are
    exact.  Swapping sx and sy closes a coloop-free corank-r matroid."""
    x1, y1 = (1 << sx) - 1, (1 << sy) - 1
    low = sum((1 << m * sy) - 1 for m in sizes)
    t = x1**r + x1 ** (r - 1) * (low // y1)
    if r == 2:
        t += ((1 << sum(sizes) * sy) - 1 - low) // (y1 * y1)
    return t


def _dc_graph(blocks, pk, budget, memo, root=False):
    """T, packed by pk, of the graph whose blocks (the input's when root) are blocks."""
    budget.tick()
    acc = 1
    for _, block in blocks:
        k = len(block.edges)
        if k == 1:
            acc <<= pk.y if block.nverts == 1 else pk.x  # a loop or a bridge
            continue
        if block.nverts == 2:
            acc *= _bond(pk, k)
            continue
        pairs = {}  # vertex pair -> the edges joining it
        for i, (u, v) in enumerate(block.edges):
            pairs.setdefault((u, v) if u < v else (v, u), []).append(i)
        if len(pairs) == block.nverts:  # a fat cycle, closed faster than by _series_parallel
            acc *= _fat_cycle(pk, [len(es) for es in pairs.values()])
        else:
            acc *= _memo_block(block, pairs, pk, budget, memo, root)
    return acc


def _memo_block(block, pairs, pk, budget, memo, root):
    """T of a block, neither a bond nor a fat cycle, by ``_series_parallel``
    or through the memo (labelled, which holds every block's T, and
    classes); pairs lists its edges per vertex pair.  A class is (first
    block, T) until it becomes {canonical_key: T}.  A block's descendants
    have fewer edges, so they never reach its class while it is expanded.
    A root block on n > 12 vertices that DC splits is first renumbered, the
    k-th vertex of ``graphs.frontier_order`` becoming n - 1 - k."""
    labelled, classes = memo
    poly = labelled.get(block)
    if poly is not None:
        return poly
    n = block.nverts
    poly = _series_parallel(n, pairs, pk)
    if poly is None:
        g = block
        if root and n > 12:
            label = {w: n - 1 - k for k, w in enumerate(frontier_order(block))}
            g = Multigraph._trusted(n, [(label[u], label[v]) for u, v in block.edges])
            pairs = {tuple(sorted((label[u], label[v]))): es for (u, v), es in pairs.items()}
        deg = [0] * n
        for (u, v), es in pairs.items():
            deg[u] += len(es)
            deg[v] += len(es)
        inv = (n, tuple(sorted(
            (deg[u], deg[v], len(es)) if deg[u] <= deg[v] else (deg[v], deg[u], len(es))
            for (u, v), es in pairs.items()
        )))
        cls = classes.get(inv)
        if cls is None:
            poly = _dc_block(g, pairs, pk, budget, memo)
            classes[inv] = (g, poly)
        else:
            if isinstance(cls, tuple):
                first, first_poly = cls
                cls = classes[inv] = {canonical_key(first): first_poly}
            key = canonical_key(g)
            poly = cls.get(key)
            if poly is None:
                poly = cls[key] = _dc_block(g, pairs, pk, budget, memo)
    labelled[block] = poly
    return poly


def _series_parallel(n, pairs, pk):
    """T, packed by pk, of a 2-connected graph on n vertices whose edges
    pairs lists per end pair, by ``tutte_dc``'s pointed pairs; None when it
    has a K4 minor: more than 2n - 3 end pairs, or more than two vertices
    left once the degree-2 vertices of its simple graph are removed, each
    a series step (and a parallel one when its neighbours were adjacent)."""
    if len(pairs) > 2 * n - 3:
        return None
    nbrs = [0] * n  # neighbour masks
    for u, v in pairs:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    steps, todo = [], [w for w in range(n) if nbrs[w].bit_count() == 2]
    while todo and len(steps) < n - 2:
        w = todo.pop()
        m = nbrs[w]
        if m.bit_count() == 2:
            a, b = (m & -m).bit_length() - 1, m.bit_length() - 1
            par = nbrs[a] >> b & 1
            nbrs[w], nbrs[a], nbrs[b] = 0, nbrs[a] ^ 1 << w | 1 << b, nbrs[b] ^ 1 << w | 1 << a
            todo += [z for z in (a, b) if par and nbrs[z].bit_count() == 2]
            steps.append((w, a, b, par))
    if len(steps) < n - 2:
        return None
    fg = {p: (1, pk.geom(pk.y, len(es))) for p, es in pairs.items()}
    for w, a, b, par in steps:  # a < b
        f1, g1 = fg.pop((a, w) if a < w else (w, a))
        f2, g2 = fg.pop((b, w) if b < w else (w, b))
        f, g = f1 * ((f2 << pk.x) - f2 + g2) + g1 * f2, g1 * g2
        if par:
            f2, g2 = fg.pop((a, b))
            f, g = f * f2, g * ((g2 << pk.y) - g2 + f2) + f * g2
        fg[a, b] = f, g
    (f, g), = fg.values()
    return (f << pk.x) - f + g


def _dc_block(g, pairs, pk, budget, memo):
    """T of a 2-connected g with a K4 minor (so on at least 4 vertices), whose
    edges pairs lists per end pair, by one split on an edge set X of size p:
    T = w_d T(g\\X) + w_c T(g/X).  X is the largest parallel class, at the
    lowest end pair on ties (w_d = 1, w_c = [p]_y = 1 + y + ... + y^(p-1)),
    else the maximal degree-2 chain through the highest vertex h when h has
    degree 2 (w_d = [p]_x, w_c = 1), else the edge from h to its highest
    neighbour (both 1).  As g is neither a bond nor a cycle, no such class is
    a cocircuit and no such chain is a circuit.  Both children and their
    blocks number their vertices in g's order, so DC keeps to its high end."""
    wd = wc = 1
    p = max(map(len, pairs.values()))
    if p > 1:
        x = pairs[min(ends for ends, es in pairs.items() if len(es) == p)]
        wc = pk.geom(pk.y, p)
    else:  # g is simple: walk both ways from its highest vertex
        nbrs = [[] for _ in range(g.nverts)]
        for (u, v), (i,) in pairs.items():
            nbrs[u].append((v, i))
            nbrs[v].append((u, i))
        x = [max(nbrs[-1])[1]]
        if len(nbrs[-1]) == 2:
            x = []
            for z, i in nbrs[-1]:
                x.append(i)
                while len(nbrs[z]) == 2:
                    z, i = next(step for step in nbrs[z] if step[1] != i)
                    x.append(i)
            wd = pk.geom(pk.x, len(x))
    w = min([v for i in x for v in g.edges[i]])  # the vertex g/X merges X into
    return wd * _dc_graph(g.delete_edges(x).blocks(), pk, budget, memo) + wc * _dc_graph(
        g.contract_edges(x).blocks_at(w), pk, budget, memo
    )


def _classes(rank, base, target, live, known):
    """The classes (masks) of the live elements: known restricted to live, or
    when known is None, each element joins the first class whose lowest
    element it is joined to, rank(base ^ pair) == target."""
    if known is not None:
        return [cl & live for cl in known if cl & live]
    classes = []
    for e in mt._bits(live):
        b = 1 << e
        for i, cl in enumerate(classes):
            if rank(base ^ (cl & -cl) ^ b) == target:
                classes[i] = cl | b
                break
        else:
            classes.append(b)
    return classes


def _class_of(rank, base, target, live, e):
    """The class of the live element e, joined as in ``_classes``."""
    return e | sum(1 << f for f in mt._bits(live ^ e) if rank(base ^ e ^ 1 << f) == target)


def _largest(classes):
    """The largest class (the earliest on ties), or 0 when every class is a
    single element."""
    best = max(classes, key=int.bit_count)
    return best if best.bit_count() >= 2 else 0


def _is_circuit(rank, con, par, full):
    """Whether the lowest elements of the classes par, of rank len(par) - 1
    over con, form a circuit: none of them is a coloop."""
    reps = sum(cl & -cl for cl in par)
    return all(rank(con | reps ^ (cl & -cl)) == full for cl in par)


def _dc_generic(rank, live, con, rc, full, strip, par, ser, pk, budget):
    """T, packed by pk, of the root's minor on the mask live with the mask con
    contracted, ranked by r(A) = rank(A | con) - rc with rc = rank(con), full
    = rank(live | con); strip has bit 1 to strip loops and bit 2 coloops.
    par and ser are the parent's parallel and series partitions (lists of
    masks) when a deletion, resp. a contraction, made this minor and the
    parent knew them, else None; restricted to live they are this minor's.
    A missing one is built only at the root (strip = 3) or for a closed
    form; elsewhere the highest live element e's class stands for it."""
    budget.tick()
    loops = coloops = 0
    for e in mt._bits(live if strip else 0):
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
    e = 1 << (live.bit_length() - 1)
    r, nullity = full - rc, live.bit_count() - full + rc
    if par is not None or strip == 3 or r <= 2:
        par = _classes(rank, con, rc + 1, live, par)
    pcls = par or [_class_of(rank, con, rc + 1, live, e) if nullity > 2 else e]
    big = _largest(pcls)
    if r <= 2:  # a point or a line
        poly = _line(pk.x, pk.y, r, [cl.bit_count() for cl in par])
    elif par and r == len(par) - 1 and _is_circuit(rank, con, par, full):  # fat cycle
        poly = _fat_cycle(pk, [cl.bit_count() for cl in par])
    elif nullity > 2 and big and rank(con | (live ^ big)) == full:  # not a cocircuit
        rest = live ^ big  # M/e has no coloops, and its loops are big - e
        poly = _dc_generic(rank, rest, con, rc, full, 2, par, None, pk, budget) + pk.geom(
            pk.y, big.bit_count()
        ) * _dc_generic(rank, rest, con | (big & -big), rc + 1, full, 0, None, ser, pk, budget)
    else:
        if ser is not None or strip == 3 or nullity <= 2:
            ser = _classes(rank, con | live, full - 1, live, ser)
        scls = ser or [_class_of(rank, con | live, full - 1, live, e)]
        big = _largest(scls)
        p = big.bit_count()
        if nullity <= 2:  # dually, a point or a line
            poly = _line(pk.y, pk.x, nullity, [cl.bit_count() for cl in ser])
        elif big and rank(con | big) - rc == p:  # not a circuit
            rest = live ^ big  # dually, M\X has no loops and no coloops
            poly = pk.geom(pk.x, p) * _dc_generic(
                rank, rest, con, rc, full - p + 1, 0, par, None, pk, budget
            ) + _dc_generic(rank, rest, con | big, rc + p, full, 1, None, ser, pk, budget)
        else:  # M\e's coloops are e's series class - e, M/e's loops
            se = next(cl for cl in scls if cl & e)  # are e's parallel class - e
            pe = next(cl for cl in pcls if cl & e)
            k, j = se.bit_count() - 1, pe.bit_count() - 1
            poly = (_dc_generic(
                rank, live ^ se, con, rc, full - k, 0, par, None, pk, budget
            ) << k * pk.x) + (_dc_generic(
                rank, live ^ pe, con | e, rc + 1, full, 0, None, ser, pk, budget
            ) << j * pk.y)
    return poly << coloops * pk.x + loops * pk.y


# -- basis activities ---------------------------------------------------------


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
    masks = mt._basis_mask_set(m)
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


def tutte_via_coboundary(m):
    """Tutte polynomial computed through the flat-indexed route."""
    return tutte_from_coboundary(coboundary(m), m.full_rank)


# -- frontier sweep and transfer matrices ------------------------------------


def _relabel(blocks):
    """Block labels renumbered in order of first appearance."""
    seen = {}
    return tuple(seen.setdefault(b, len(seen)) for b in blocks)


def _transition(s, joins, i, j, keep):
    """The move of the state s over one edge of ``tutte_frontier``: joins new
    singleton blocks, the edge between frontier positions i and j skipped or
    taken, then only the positions keep stay.  Returns (skip target, take
    target, whether taking merges two blocks)."""
    s += tuple(range(len(s), len(s) + joins))  # labels no block has yet
    a, b = s[i], s[j]
    take = [a if t == b else t for t in s]
    return _relabel(s[p] for p in keep), _relabel(take[p] for p in keep), a != b


def tutte_frontier(g):
    """Tutte polynomial of a multigraph by a frontier sweep over g.edges.

    A vertex joins the frontier at its first edge and leaves after its last.
    A state is the partition of the frontier into the blocks that the edges
    taken so far connect, and it carries the histogram {(corank, nullity):
    count} of those edge sets, packed by ``bipoly._Packing`` with counts up
    to 2^|E|.  Skipping an edge keeps the state; taking it merges two blocks
    (corank - 1, a right shift: no set in the state spans) or stays inside
    one (nullity + 1).  Each edge is one pass over the states.  Its step
    pattern (how many vertices join before it, its ends' frontier positions,
    the positions that stay after it) has a table, kept for this call only,
    that maps a state to its skip and take targets with the joins and the
    retirements folded in (``_transition``), built at the state's first
    visit.  The one final histogram is the corank-nullity expansion of T, so
    no polynomial is multiplied.  Orders whose frontier exceeds _FRONTIER_CAP
    vertices raise GraphTooLarge before any state exists (Sekine, Imai &
    Tani, ISAAC 1995).
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
    front, states, tables = [], {(): 1 << full * pk.x}, {}
    for k, (u, v) in enumerate(g.edges):
        joins = [w for w in dict.fromkeys((u, v)) if first[w] == k]
        front += joins
        keep = tuple(p for p, w in enumerate(front) if last[w] > k)
        step = (len(joins), front.index(u), front.index(v), keep)
        front = [front[p] for p in keep]
        table = tables.setdefault(step, {})  # state -> (skip, take, merges)
        nxt = {}
        for s, h in states.items():
            move = table.get(s)
            if move is None:
                move = table[s] = _transition(s, *step)
            skip, take, merges = move
            nxt[skip] = nxt.get(skip, 0) + h
            nxt[take] = nxt.get(take, 0) + (h >> pk.x if merges else h << pk.y)
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
    int list in t: the coefficient of t^j counts the colourings in the given
    number of colours with exactly j monochromatic edges.

    Computes colours * trace(D^n) where D is the colours x colours matrix
    with entry t^([i=j] + [j=first colour]); the trace imposes the periodic
    boundary condition that closes the rim.  D = (J + (t-1) I) diag(t^[j=0]),
    so a row vector steps as v_j <- t^[j=0] ((t-1) v_j + sum v), and (row a
    of D^n)[a] is n such steps from the unit vector e_a, each v_j one int
    packed by ``bipoly._Packing``: every entry of D^n is non-negative, of
    degree at most 2n, and the coefficients of the result sum to
    colours^(n+1); t^(2n) has coefficient colours.
    """
    if n < 3:
        raise InvalidParameters("wheel needs n >= 3 rim vertices")
    if colors < 1:
        raise InvalidParameters("need at least one colour")
    pk = _Packing(2 * n, colors ** (n + 1))
    total = 0
    for a in range(colors):
        v = [int(j == a) for j in range(colors)]
        for _ in range(n):
            s = sum(v)
            v = [(p << pk.y) - p + s for p in v]
            v[0] <<= pk.y
        total += v[a]
    coeffs = pk.unpack(colors * total)
    return [coeffs.get((0, j), 0) for j in range(2 * n + 1)]
