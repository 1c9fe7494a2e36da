"""Shared test helpers, imported by the test modules of this directory.

Besides small builders, this holds slower reference constructions.  The
package once used and no longer uses the column surgery that deleted or
contracted a GF(p) matrix column (``delete_column``, ``contract_column``),
the GF(p) cycle space read off a standard form, the binary triangle sum
through merged cycle spaces, the graphic triangle sum by an explicit vertex
relabelling and the bases of a lattice-path matroid by a depth-first walk
over admissible paths.
``reference_key`` is a brute-force complete canonical form of a multigraph:
equal keys iff isomorphic, where equal ``graphs.canonical_key`` keys only
imply it.  ``restricted`` builds the graph on some edges as
``Multigraph.blocks`` relabels a block, ``contract_one`` contracts one edge
by an explicit vertex relabelling, and ``bad_colouring`` counts
colourings by their monochromatic edges by brute force.
``transfer_wheel_lists`` is the wheel transfer matrix as the package once
stepped it, on dense coefficient lists, and ``tutte_frontier_three_pass``
the frontier sweep as it once ran, with one pass per vertex that joins or
leaves besides the one for the edge, and ``corank_nullity_counts_unfactored``
the subset sweep as it once ran, with both children at every inner node.  The closed forms of ``families``
once built K_n and K_{n,m} from set-partition counts on dense t-lists
(``complete_graph_partition_lists``, ``complete_bipartite_partition_lists``,
converted by ``tutte_from_partition_lists``) and stepped the wheel, whirl and
2 x n grid recurrences by sparse BiPoly products (``power_sums_bipoly``,
``grid2_bipoly``, which yield every term of the sequence, so that one call
serves every size).  The random
2-connected multigraphs put deletion-contraction's contraction children in
the two shapes where their blocks need care: loops, and a cut vertex at the
merged vertex; the random series-parallel ones have no block with a K4
minor, and ``spanning_forests`` is Kirchhoff's count of T(1,1), exact at
any size.  ``reference_recipe_tree`` is the hand-written tokenizer and
recursive descent the catalog once read recipes with; it also reads
non-ASCII digits as integers.
"""

from __future__ import annotations

import itertools
from itertools import permutations, product
from math import comb

from tuttepoly import matroids as mt
from tuttepoly.bipoly import (
    BiPoly,
    X,
    Y,
    _from_corank_nullity,
    _newton_form,
    _Packing,
    _shift_add,
    _times_linear,
    tutte_from_coboundary,
)
from tuttepoly.engines import _FRONTIER_CAP
from tuttepoly.errors import ElementOutOfRange, GraphTooLarge, InvalidParameters, ParseError
from tuttepoly.gf import GFMatrix
from tuttepoly.graphs import Multigraph


def standard_rep(p, r, appended_columns):
    """[I_r | A] over GF(p); appended_columns are the columns of A."""
    rows = []
    for i in range(r):
        row = [1 if j == i else 0 for j in range(r)]
        row += [col[i] for col in appended_columns]
        rows.append(row)
    return GFMatrix(p, rows)


def delete_column(mat, j):
    if not 0 <= j < mat.ncols:
        raise ElementOutOfRange(f"column {j}")
    return GFMatrix._trusted(mat.p, [r[:j] + r[j + 1 :] for r in mat.rows])


def contract_column(mat, j):
    """Pivot column j out (projecting the others); a zero column is just dropped."""
    if not 0 <= j < mat.ncols:
        raise ElementOutOfRange(f"column {j}")
    lead = next((i for i, row in enumerate(mat.rows) if row[j]), None)
    if lead is None:
        return delete_column(mat, j)
    p = mat.p
    inv = pow(mat.rows[lead][j], p - 2, p)
    lead_row = [(a * inv) % p for a in mat.rows[lead]]
    rows = []
    for i, row in enumerate(mat.rows):
        if i == lead:
            continue
        c = row[j]
        if c:
            row = [(a - c * b) % p for a, b in zip(row, lead_row)]
        rows.append(row[:j] + row[j + 1 :])
    if not rows:
        # keep an explicit zero row so the column count survives
        rows = [[0] * (mat.ncols - 1)]
    return GFMatrix._trusted(p, rows)


def _cycle_space_basis(mat):
    """Basis of the kernel of the representation matrix, read off its
    standard form [I_r | A]: for each column j off the greedy basis
    b_0 < b_1 < ..., the vector e_j - sum_i A[i][j] e_{b_i}."""
    basis, pos, coords = mat.standard_form()
    out = []
    for j in range(mat.ncols):
        if pos[j] < 0:
            v = [0] * mat.ncols
            v[j] = 1
            for b, a in zip(basis, coords[j]):
                v[b] = -a % mat.p
            out.append(v)
    return out


def _kernel_of_span(vectors, n):
    """Rows spanning {w : w . v = 0 for all v}, over GF(2)."""
    if not vectors:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    comp = _cycle_space_basis(GFMatrix(2, vectors))
    # empty complement means every element is a loop
    return comp if comp else [[0] * n]


def delta_sum_binary_reference(m1, t1, m2, t2):
    """Binary triangle sum as the matroid whose cycle space is {(a, b) off
    the triangles : a in C(M1), b in C(M2), a and b agree on the triangle}."""
    k1 = _cycle_space_basis(m1.mat)
    k2 = _cycle_space_basis(m2.mat)
    keep1 = [e for e in range(m1.n) if e not in set(t1)]
    keep2 = [e for e in range(m2.n) if e not in set(t2)]
    n = len(keep1) + len(keep2)
    vecs = []
    for v in k1:
        vecs.append([v[e] for e in keep1] + [0] * len(keep2) + [v[e] for e in t1])
    for v in k2:
        vecs.append([0] * len(keep1) + [v[e] for e in keep2] + [v[e] for e in t2])
    # eliminate the 3 triangle coordinates to get the merged cycle space
    for tpos in range(3):
        j = n + tpos
        pivot = next((v for v in vecs if v[j]), None)
        if pivot is None:
            continue
        vecs.remove(pivot)
        vecs = [
            [(a + b) % 2 for a, b in zip(v, pivot)] if v[j] else v for v in vecs
        ]
    cycle = [v[:n] for v in vecs]
    return mt.Linear(GFMatrix(2, _kernel_of_span(cycle, n)))


def delta_sum_graphic_reference(m1, t1, m2, t2):
    """Graphic triangle sum: the second graph's triangle vertices become the
    first's, its other vertices are numbered after the first graph's."""
    def vertices(g, t):  # vertex k is off edge t[k]
        ends = [set(g.edges[i]) for i in t]
        return ((ends[1] & ends[2]).pop(), (ends[0] & ends[2]).pop(),
                (ends[0] & ends[1]).pop())

    g1, g2 = m1.graph, m2.graph
    tri1 = vertices(g1, t1)
    tri2 = vertices(g2, t2)
    relabel = {}
    nxt = g1.nverts
    for w in range(g2.nverts):
        if w in tri2:
            relabel[w] = tri1[tri2.index(w)]
        else:
            relabel[w] = nxt
            nxt += 1
    edges = [e for i, e in enumerate(g1.edges) if i not in set(t1)]
    edges += [
        (relabel[u], relabel[v])
        for i, (u, v) in enumerate(g2.edges)
        if i not in set(t2)
    ]
    return mt.Graphic(Multigraph(nxt, edges))


def path_heights(path):
    """Running north-step counts of an N/E path, from 0 to its length."""
    hs = [0]
    for step in path:
        hs.append(hs[-1] + (step == "N"))
    return hs


def lattice_path_bases(lower, upper):
    """North-step sets of the N/E paths w with h_P(k) <= h_w(k) <= h_Q(k)
    for every prefix length k, h the running north-step count."""
    hp, hq, n = path_heights(lower), path_heights(upper), len(lower)
    bases = []
    stack = [(0, 0, [])]  # (position, norths so far, chosen positions)
    while stack:
        pos, h, chosen = stack.pop()
        if pos == n:
            bases.append(frozenset(chosen))
            continue
        if hp[pos + 1] <= h + 1 <= hq[pos + 1]:
            stack.append((pos + 1, h + 1, chosen + [pos]))
        if hp[pos + 1] <= h <= hq[pos + 1]:
            stack.append((pos + 1, h, chosen))
    return frozenset(bases)


def reference_key(g):
    """Brute-force canonical encoding, kept only as a test oracle.

    Vertex classes come from iterated neighbourhood colouring; the key is the
    least edge multiset over every class-preserving relabelling, so it is
    complete but factorial in the class sizes.
    """
    n = g.nverts
    mult = {}
    loopc = [0] * n
    for u, v in g.edges:
        if u == v:
            loopc[u] += 1
        else:
            k = (min(u, v), max(u, v))
            mult[k] = mult.get(k, 0) + 1
    adj = [[] for _ in range(n)]
    for (u, v), m in mult.items():
        adj[u].append((v, m))
        adj[v].append((u, m))

    colors = [(loopc[w], tuple(sorted(m for _, m in adj[w]))) for w in range(n)]
    for _ in range(n):
        palette = {c: i for i, c in enumerate(sorted(set(colors)))}
        base = [palette[c] for c in colors]
        refined = [
            (base[w], tuple(sorted((base[z], m) for z, m in adj[w])))
            for w in range(n)
        ]
        done = len(set(refined)) == len(set(colors))
        colors = refined
        if done:
            break
    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    final = [palette[c] for c in colors]
    classes = {}
    for w in range(n):
        classes.setdefault(final[w], []).append(w)
    ordered = [classes[c] for c in sorted(classes)]
    offsets = []
    pos = 0
    for cl in ordered:
        offsets.append(pos)
        pos += len(cl)

    pairs = sorted(mult.items())
    best = None
    label = [0] * n

    def assign(ci):
        nonlocal best
        if ci == len(ordered):
            enc = tuple(sorted(
                (min(label[u], label[v]), max(label[u], label[v]), m)
                for (u, v), m in pairs
            ))
            if best is None or enc < best:
                best = enc
            return
        for perm in permutations(ordered[ci]):
            for k, w in enumerate(perm):
                label[w] = offsets[ci] + k
            assign(ci + 1)

    assign(0)
    loops = tuple(sorted((final[w], c) for w, c in enumerate(loopc) if c))
    return (n, loops, best)


def restricted(g, edge_indices):
    """The graph on those edges of g and their ends: the edges keep their
    relative order and the ends are renumbered in increasing order."""
    picked = [g.edges[i] for i in sorted(edge_indices)]
    verts = sorted({w for e in picked for w in e})
    idx = {w: k for k, w in enumerate(verts)}
    return Multigraph(len(verts), [(idx[u], idx[v]) for u, v in picked])


def contract_one(g, i):
    """Reference single contraction: a loop is deleted, else the greater end
    merges into the lesser and the higher vertices shift down by one."""
    u, v = g.edges[i]
    rest = [e for k, e in enumerate(g.edges) if k != i]
    if u == v:
        return Multigraph(g.nverts, rest)
    a, b = min(u, v), max(u, v)
    relabel = [w if w < b else (a if w == b else w - 1) for w in range(g.nverts)]
    return Multigraph(g.nverts - 1, [(relabel[x], relabel[y]) for x, y in rest])


_COLOURING_CAP = 12


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
    for sigma in product(range(colors), repeat=g.nverts):
        counts[sum(sigma[u] == sigma[v] for u, v in g.edges)] += 1
    return counts


def transfer_wheel_lists(n, colors):
    """``engines.transfer_wheel`` on dense coefficient lists: colours *
    trace(D^n), each row vector stepped as v_j <- t^[j=0] ((t-1) v_j + sum v)."""
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


def _relabel(blocks):
    """Block labels renumbered in order of first appearance."""
    seen = {}
    return tuple(seen.setdefault(b, len(seen)) for b in blocks)


def tutte_frontier_three_pass(g):
    """``engines.tutte_frontier`` as the package once swept: up to three passes
    over the states per edge, a state relabelled again at each visit.

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


def corank_nullity_counts_unfactored(rank, live, con, rc, full):
    """``engines._corank_nullity_counts`` as the package once swept it: both
    children of every node that is not a leaf, one rank call each.

    Histogram {(z, nl): count} of z = r - r(A), nl = |A| - r(A) over the
    subsets A of live in the root's minor on live with con contracted, r(A)
    = rank(A | con) - rc; the caller passes rc = rank(con) and full =
    rank(live | con).  A node is (U undecided, A, rank(A | con), rank(A | U
    | con)); the 2^|U| sets A | S add x^z y^nl (1 + y)^|U| when U lies in
    the closure of A, x^(z-|U|) y^nl (1 + x)^|U| when U is independent over
    A, each one packed int (y-degree the minor's nullity, counts up to
    2^|live|); else each child inherits one rank and costs one call."""
    pk = _Packing(live.bit_count() - full + rc, 1 << live.bit_count())
    acc = 0
    stack = [(live, 0, rc, full)]  # (U, A, rank(A | con), rank(A | U | con))
    while stack:
        rest, a, ra, rau = stack.pop()
        u = rest.bit_count()
        at = (full - ra) * pk.x + (a.bit_count() - ra + rc) * pk.y
        if rau == ra:  # S adds only nullity
            acc += ((1 << pk.y) + 1) ** u << at
        elif rau == ra + u:  # S adds only rank
            acc += ((1 << pk.x) + 1) ** u << at - u * pk.x
        else:
            b = rest & -rest
            stack.append((rest ^ b, a | b, rank(con | a | b), rau))
            stack.append((rest ^ b, a, ra, rank(con | a | rest ^ b)))
    return pk.unpack(acc)


def _add_block_lists(row, src, edges, weight):
    """row[k+1] += weight t^edges src[k]: one more block, with edges inside
    it, on each set partition counted by src (t-coefficient lists by the
    number k of blocks)."""
    for k, p in enumerate(src):
        if p:
            _shift_add(row[k + 1], p, edges, weight)


def tutte_from_partition_lists(parts, r):
    """T from parts[k], the t-coefficient list of the set partitions of a
    connected graph's vertices into k blocks by edges inside blocks, through
    the coboundary's Newton form on the roots 1, 2, 3, ..."""
    weights = [enumerate(p) for p in parts[1:]]
    return tutte_from_coboundary(_newton_form(weights, range(1, len(parts))), r)


def complete_graph_partition_lists(n):
    """table[m][k], the t-coefficient list of P_{m,k} for m <= n: set
    partitions of K_m into k blocks by edges inside blocks."""
    table = [[[1]]]  # table[m][k] = P_{m,k}; P_{0,0} = 1
    for m in range(1, n + 1):
        row = [[] for _ in range(m + 1)]
        for s in range(1, m + 1):
            _add_block_lists(row, table[m - s], comb(s, 2), comb(m - 1, s - 1))
        table.append(row)
    return table


def complete_bipartite_partition_lists(n, m):
    """table[i, j][k] for i <= n, j <= m: the set partitions of K_{i,j}
    into k blocks as t-coefficient lists."""
    table = {(0, 0): [[1]]}  # table[i, j][k]: partitions of K_{i,j} into k blocks
    for i in range(n + 1):
        for j in range(m + 1):
            if i or j:
                row = table[i, j] = [[] for _ in range(i + j + 1)]
                if i:
                    for a in range(1, i + 1):
                        for b in range(j + 1):
                            _add_block_lists(row, table[i - a, j - b], a * b,
                                             comb(i - 1, a - 1) * comb(j, b))
                else:
                    for b in range(1, j + 1):
                        _add_block_lists(row, table[0, j - b], 0, comb(j - 1, b - 1))
    return table


def power_sums_bipoly(n):
    """p_0, ..., p_n for p_k = (1+x+y) p_{k-1} - xy p_{k-2} with p_0 = 2,
    p_1 = 1+x+y, by sparse BiPoly products."""
    s = 1 + X + Y
    prev, cur = BiPoly.const(2), s
    yield from (prev, cur)
    for _ in range(n - 1):
        prev, cur = cur, s * cur - X * Y * prev
        yield cur


def grid2_bipoly(n):
    """L_1, ..., L_n, the Tutte polynomials of the 2 x k grids: L_1 = x,
    Q_1 = 1, L_k = (x^2+x+1) L_{k-1} + y Q_{k-1} and
    Q_k = (x+1) L_{k-1} + y Q_{k-1}, by sparse BiPoly products."""
    ell, q = X, BiPoly.one()
    yield ell
    for _ in range(n - 1):
        ell, q = (X * X + X + 1) * ell + Y * q, (X + 1) * ell + Y * q
        yield ell


def series_parallel_multigraph(rng, nedges):
    """A random multigraph on nedges edges none of whose blocks has a K4
    minor: one to three components, each grown from one edge, then edges
    subdivided (series), doubled (parallel, or a second loop), hung from a
    vertex (pendant trees) or looped, up to two isolated vertices, and the
    labels and edge order shuffled."""
    comps = rng.randint(1, min(3, nedges))
    edges = [(2 * k, 2 * k + 1) for k in range(comps)]
    n = 2 * comps
    while len(edges) < nedges:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        step = rng.random()
        if step < 0.4:
            edges[i] = (u, n)
            edges.append((n, v))
        elif step < 0.7:
            edges.append((u, v))
            continue
        elif step < 0.9:
            edges.append((rng.choice((u, v)), n))
        else:
            edges.append((u, u))
            continue
        n += 1
    return _shuffled(rng, n + rng.randint(0, 2), edges, set())[0]


def spanning_forests(g):
    """T(1,1) of a multigraph by Kirchhoff: its maximal spanning forests, the
    product over its components of a Laplacian cofactor, each by Bareiss's
    fraction-free elimination.  Loops do not enter the Laplacian and
    parallel edges add their multiplicity; the cofactor is positive
    definite, so no pivot is zero."""
    parent = list(range(g.nverts))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, v in g.edges:
        parent[find(u)] = find(v)
    comps = {}
    for w in range(g.nverts):
        comps.setdefault(find(w), []).append(w)
    total = 1
    for verts in comps.values():
        index = {w: k for k, w in enumerate(verts[1:])}  # drop the first row
        size = len(index)
        lap = [[0] * size for _ in range(size)]
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a != b and a in index:
                    lap[index[a]][index[a]] += 1
                    if b in index:
                        lap[index[a]][index[b]] -= 1
        prev = 1
        for k in range(size - 1):
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    lap[i][j] = (lap[i][j] * lap[k][k] - lap[i][k] * lap[k][j]) // prev
            prev = lap[k][k]
        total *= lap[-1][-1] if size else 1
    return total


def two_connected_edges(rng, n, ears, k4=False):
    """(vertex count, edges) of a random 2-connected loopless multigraph: a
    cycle through n >= 3 vertices, with k4 also a hub joined to three of
    them (a subdivided K4, so that graph deletion-contraction splits the
    graph), then ears between two distinct vertices already placed, each
    one edge (maybe parallel) or a path through one new vertex."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[k], order[k - 1]) for k in range(n)]
    if k4:
        edges += [(w, n) for w in rng.sample(range(n), 3)]
        n += 1
    for _ in range(ears):
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            edges += [(a, n), (n, b)]
            n += 1
        else:
            edges.append((a, b))
    return n, edges


def _shuffled(rng, n, edges, marked):
    """Multigraph(n, edges) with its vertices renamed and its edges reordered
    at random, and the new indices of the edges marked."""
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    g = Multigraph(n, [(perm[edges[i][0]], perm[edges[i][1]]) for i in order])
    return g, sorted(k for k, i in enumerate(order) if i in marked)


def chord_chain(rng, k4=False):
    """(g, X): a random 2-connected multigraph (with k4, one with a K4
    minor) and a maximal degree-2 chain X of it whose ends are also joined
    directly, so g/X has loops."""
    n, edges = two_connected_edges(rng, rng.randint(3, 5), rng.randint(0, 3), k4)
    a, b = edges[rng.randrange(len(edges))]
    path = [a, *range(n, n + rng.randint(1, 3)), b]
    chain = range(len(edges), len(edges) + len(path) - 1)
    edges += zip(path, path[1:])
    return _shuffled(rng, path[-2] + 1, edges, set(chain))


def split_class(rng, k4=False):
    """(g, X): two random 2-connected multigraphs (with k4, each with a K4
    minor) glued at two vertices u and v and joined by 2 or 3 more u-v
    edges, with X the class of all u-v edges, so {u, v} is a 2-separation
    of g and the vertex g/X merges X into is a cut vertex."""
    n1, e1 = two_connected_edges(rng, 3, rng.randint(0, 1), k4)
    n2, e2 = two_connected_edges(rng, rng.randint(3, 4), rng.randint(0, 1), k4)

    def glued(w):  # the second graph's vertices 0 and 1 are the first's
        return w if w < 2 else w + n1 - 2

    edges = e1 + [(glued(a), glued(b)) for a, b in e2] + [(0, 1)] * rng.randint(2, 3)
    cls = {i for i, e in enumerate(edges) if set(e) == {0, 1}}
    return _shuffled(rng, n1 + n2 - 2, edges, cls)


# -- the recipe parser the catalog once used --------------------------------------


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r} at position {self.pos} of recipe")
        self.pos += 1

    def name(self):
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected a name at position {start} of recipe")
        return self.text[start:self.pos]

    def integer(self):
        self.peek()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.text[start:self.pos] in ("", "-"):
            raise ParseError(f"expected an integer at position {start} of recipe")
        return int(self.text[start:self.pos])


def _parse_expr(tok):
    ch = tok.peek()
    if ch == "[":
        tok.expect("[")
        items = _parse_args(tok, "]")
        return ("list", items)
    if ch.isdigit() or ch == "-":
        return ("int", tok.integer())
    name = tok.name()
    tok.expect("(")
    args = _parse_args(tok, ")")
    return ("call", name, args)


def _parse_args(tok, closer):
    args = []
    if tok.peek() == closer:
        tok.expect(closer)
        return args
    while True:
        args.append(_parse_expr(tok))
        ch = tok.peek()
        if ch == ",":
            tok.expect(",")
        elif ch == closer:
            tok.expect(closer)
            return args
        else:
            raise ParseError(f"expected ',' or {closer!r} in recipe")


def reference_recipe_tree(recipe):
    """The tree that parser reads from a recipe, as build_recipe once did
    before it ran any constructor."""
    tok = _Tokens(recipe)
    node = _parse_expr(tok)
    if tok.peek():
        raise ParseError(f"trailing input in recipe at position {tok.pos}")
    return node
