"""Shared test helpers, imported by the test modules of this directory.

Besides small builders, this holds slower reference constructions.  The
package once used and no longer uses the GF(p) cycle space read off a
standard form, the binary triangle sum through merged cycle spaces, the
graphic triangle sum by an explicit vertex relabelling and the bases of a
lattice-path matroid by a depth-first walk over admissible paths.
``reference_key`` is a brute-force complete canonical form of a multigraph:
equal keys iff isomorphic, where equal ``graphs.canonical_key`` keys only
imply it.
"""

from __future__ import annotations

from itertools import permutations

from tuttepoly import matroids as mt
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
