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
``Multigraph.blocks`` relabels a block, and ``bad_colouring`` counts
colourings by their monochromatic edges by brute force.  The random
2-connected multigraphs put deletion-contraction's contraction children in
the two shapes where their blocks need care: loops, and a cut vertex at the
merged vertex.  ``reference_recipe_tree`` is the hand-written tokenizer and
recursive descent the catalog once read recipes with; it also reads
non-ASCII digits as integers.
"""

from __future__ import annotations

from itertools import permutations, product

from tuttepoly import matroids as mt
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


def two_connected_edges(rng, n, ears):
    """(vertex count, edges) of a random 2-connected loopless multigraph: a
    cycle through n >= 3 vertices, then ears between two distinct vertices
    already placed, each one edge (maybe parallel) or a path through one new
    vertex."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[k], order[k - 1]) for k in range(n)]
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


def chord_chain(rng):
    """(g, X): a random 2-connected multigraph and a maximal degree-2 chain X
    of it whose ends are also joined directly, so g/X has loops."""
    n, edges = two_connected_edges(rng, rng.randint(3, 5), rng.randint(0, 3))
    a, b = edges[rng.randrange(len(edges))]
    path = [a, *range(n, n + rng.randint(1, 3)), b]
    chain = range(len(edges), len(edges) + len(path) - 1)
    edges += zip(path, path[1:])
    return _shuffled(rng, path[-2] + 1, edges, set(chain))


def split_class(rng):
    """(g, X): two random 2-connected multigraphs glued at two vertices u
    and v and joined by 2 or 3 more u-v edges, with X the class of all u-v
    edges, so {u, v} is a 2-separation of g and the vertex g/X merges X into
    is a cut vertex."""
    n1, e1 = two_connected_edges(rng, 3, rng.randint(0, 1))
    n2, e2 = two_connected_edges(rng, rng.randint(3, 4), rng.randint(0, 1))

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
