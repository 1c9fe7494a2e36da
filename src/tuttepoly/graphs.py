"""Multigraphs with the operations the graphic-matroid machinery needs.

Edges are indexed 0..m-1 in insertion order and may repeat endpoint pairs
(parallel edges) or join a vertex to itself (loops).  ``rank_of_mask``,
``contract_edges`` and ``blocks_at`` share one union-find, ``_find``.
Deletion and contraction of an edge set return new graphs whose edges keep
their relative order, so element labels stay aligned with matroid minors; the
one split of deletion-contraction on graphs, on a parallel class, a
degree-2 chain or one edge, is ``delete_edges`` against ``contract_edges``
of that set.  ``blocks`` splits a graph into its biconnected components,
the factors of deletion-contraction on graphs, with their relabelled graphs;
``blocks_at`` does it by one union-find pass when only one vertex w can cut
the graph, as for g/X with g 2-connected, X connected and w the vertex X
merges into: for z != w, (g/X) - z = (g - z)/X is connected.
``canonical_key`` relabels a graph along one path of
individualization-refinement: equal keys imply isomorphic graphs, which is
all the deletion-contraction memo needs, but isomorphic graphs may get
different keys.  ``frontier_order`` is a greedy vertex order of small
frontier, along which deletion-contraction renumbers a large block.
"""

from __future__ import annotations

from .errors import ElementOutOfRange, InvalidParameters


def _find(parent, a):
    """The root of a's set in the union-find forest parent, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class Multigraph:
    """Immutable multigraph: vertex count plus an ordered edge tuple."""

    __slots__ = ("nverts", "edges")

    def __init__(self, nverts, edges):
        if nverts < 0:
            raise InvalidParameters(f"vertex count {nverts} is negative")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < nverts and 0 <= v < nverts):
                raise InvalidParameters(f"edge ({u},{v}) outside 0..{nverts - 1}")
        self.nverts = nverts
        self.edges = edges

    @classmethod
    def _trusted(cls, nverts, edges):
        """A graph on edges taken from a checked graph: no conversion, no check."""
        g = cls.__new__(cls)
        g.nverts = nverts
        g.edges = tuple(edges)
        return g

    @property
    def nedges(self):
        return len(self.edges)

    def __repr__(self):
        return f"Multigraph({self.nverts}, {list(self.edges)})"

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.nverts == other.nverts
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.nverts, self.edges))

    # -- matroid rank ---------------------------------------------------

    def rank_of_mask(self, mask):
        """|V| - #components of the spanning subgraph on the edges of the
        bitmask (none past the last), by union-find, stopping at |V| - 1."""
        parent = list(range(self.nverts))
        edges, rank, top = self.edges, 0, self.nverts - 1
        while mask and rank < top:
            low = mask & -mask
            mask ^= low
            u, v = edges[low.bit_length() - 1]
            u, v = _find(parent, u), _find(parent, v)
            if u != v:
                parent[u] = v
                rank += 1
        return rank

    def rank_of(self, edge_indices):
        """``rank_of_mask`` of the edges, each index checked."""
        mask = 0
        for i in edge_indices:
            if not 0 <= i < len(self.edges):
                raise ElementOutOfRange(f"edge index {i}")
            mask |= 1 << i
        return self.rank_of_mask(mask)

    def full_rank(self):
        return self.rank_of_mask((1 << len(self.edges)) - 1)

    # -- minors ----------------------------------------------------------

    def delete_edges(self, drop):
        drop = set(drop)
        return Multigraph._trusted(
            self.nverts, [e for i, e in enumerate(self.edges) if i not in drop]
        )

    def contract_edges(self, drop):
        """Contract the edges drop (a loop contracts to a deletion): each set
        of vertices they join becomes its least vertex, and the vertices left
        are numbered in increasing order, as successive single contractions
        that merge the greater end into the lesser one would number them."""
        drop = set(drop)
        parent = list(range(self.nverts))
        for i in drop:  # the lesser root stays a root
            u, v = self.edges[i]
            u, v = _find(parent, u), _find(parent, v)
            parent[max(u, v)] = min(u, v)
        label = []
        kept = 0
        for w, p in enumerate(parent):  # p < w unless w is its set's root
            label.append(label[p] if p < w else kept)
            kept += p == w
        edges = [
            (label[x], label[y]) for i, (x, y) in enumerate(self.edges) if i not in drop
        ]
        return Multigraph._trusted(kept, edges)

    # -- structure queries ------------------------------------------------

    def blocks(self):
        """Every block (biconnected component) as (edges, graph): its sorted
        edge indices and the graph on them, relabelled by ``_pieces``, in
        order of least edge.

        One iterative Tarjan low-link search with a stack of edges (Hopcroft
        & Tarjan, CACM 16, 1973): the tree edge into w closes a block, made
        of the edges stacked since, when nothing below w reaches above w's
        parent.  The edge a vertex was reached by is skipped by index, not by
        endpoint, so parallel edges share a block.  A loop and a bridge are
        each a block of one edge; an isolated vertex is in none.
        """
        n = self.nverts
        incident = [[] for _ in range(n)]
        out = []
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                out.append([i])
            else:
                incident[u].append((v, i))
                incident[v].append((u, i))
        disc = [0] * n  # discovery time from 1; 0 means unvisited
        low = [0] * n
        pending = []  # edges met but not yet in a block
        clock = 0
        for start in range(n):
            if disc[start]:
                continue
            clock += 1
            disc[start] = low[start] = clock
            stack = [(start, -1, 0, iter(incident[start]))]
            while stack:
                w, via, mark, edges = stack[-1]
                for z, i in edges:
                    if i == via:
                        continue
                    if not disc[z]:
                        clock += 1
                        disc[z] = low[z] = clock
                        stack.append((z, i, len(pending), iter(incident[z])))
                        pending.append(i)
                        break
                    if disc[z] < disc[w]:  # a back edge, met first from below
                        pending.append(i)
                        if disc[z] < low[w]:
                            low[w] = disc[z]
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        if low[w] >= disc[p]:
                            out.append(sorted(pending[mark:]))
                            del pending[mark:]
                        elif low[w] < low[p]:
                            low[p] = low[w]
        out.sort()
        return self._pieces(out, all(incident))

    def blocks_at(self, hinge):
        """``blocks`` of a connected graph in which no vertex but hinge is a
        cut vertex, from one union-find pass over the graph less hinge: each
        loop is a block, and so is each component with its edges to hinge."""
        parent = list(range(self.nverts))
        for u, v in self.edges:
            if u != hinge and v != hinge:
                parent[_find(parent, u)] = _find(parent, v)
        pieces = {}  # by component root, or ~i for loop i; in edge order
        for i, (u, v) in enumerate(self.edges):
            root = ~i if u == v else _find(parent, v if u == hinge else u)
            pieces.setdefault(root, []).append(i)
        return self._pieces(pieces.values(), True)

    def _pieces(self, parts, covered):
        """(edges, graph) for each sorted edge list in parts: the graph on those
        edges, kept in order, and their ends, renumbered in increasing order;
        self for the part of every edge when covered (no isolated vertex)."""
        out = []
        for es in parts:
            if len(es) == 1:
                u, v = self.edges[es[0]]
                g = _ONE_EDGE[(u != v) + (u > v)]
            elif covered and len(es) == len(self.edges):
                g = self
            else:
                picked = [self.edges[i] for i in es]
                idx = {w: k for k, w in enumerate(sorted(set().union(*picked)))}
                g = Multigraph._trusted(len(idx), [(idx[u], idx[v]) for u, v in picked])
            out.append((es, g))
        return out


# a loop, a bridge listed from its lower end, one listed from its upper end
_ONE_EDGE = (Multigraph(1, [(0, 0)]), Multigraph(2, [(0, 1)]), Multigraph(2, [(1, 0)]))


# -- canonical form ---------------------------------------------------------


def _ranks(values):
    """Each value replaced by its rank among the distinct values."""
    palette = {c: i for i, c in enumerate(sorted(set(values)))}
    return [palette[c] for c in values], len(palette)


def _refine(col, ncol, adj):
    """Iterate colour refinement from an ordered colouring until equitable.

    A vertex's new colour is its old colour followed by the sorted multiset
    of (neighbour colour, multiplicity); ranking by that keeps every old cell
    in place and splits it in an order that depends on no vertex name.
    """
    n = len(col)
    while ncol < n:
        size = [0] * ncol
        for c in col:
            size[c] += 1
        # a vertex alone in its cell keeps its place whatever its neighbours
        sig = [
            (c, tuple(sorted([(col[z], m) for z, m in adj[w]]))
             if size[c] > 1 else ())
            for w, c in enumerate(col)
        ]
        col, k = _ranks(sig)
        if k == ncol:
            break
        ncol = k
    return col, ncol


def canonical_key(g):
    """An encoding of a multigraph such that equal keys imply isomorphic graphs.

    One path of individualization-refinement (McKay & Piperno, "Practical
    graph isomorphism, II", 2014): colour refinement on loop counts and edge
    multiplicities makes the vertex partition equitable; while it is not
    discrete, the least vertex of the first non-singleton cell is
    individualized and the partition refined again.  The leaf labels every
    vertex by its cell, and the key is the sorted (min label, max label,
    multiplicity) edge list of that relabelled copy of g, with the loop count
    of every labelled vertex.  So equal keys prove isomorphism, but two
    isomorphic graphs may get different keys: a memo keyed on it never takes
    a wrong value, and a miss only expands an isomorphic graph again.
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
    col, ncol = _refine(*_ranks(loopc), adj)
    while ncol < n:
        counts = [0] * ncol
        for c in col:
            counts[c] += 1
        target = next(c for c in range(ncol) if counts[c] > 1)
        v = col.index(target)
        col, ncol = _refine(
            [c + 1 if c > target or (c == target and w != v) else c
             for w, c in enumerate(col)], ncol + 1, adj)
    edges = tuple(sorted([
        (col[u], col[v], m) if col[u] < col[v] else (col[v], col[u], m)
        for (u, v), m in mult.items()
    ]))
    loops = tuple(sorted((col[w], c) for w, c in enumerate(loopc) if c))
    return (n, loops, edges)


def frontier_order(g):
    """g's vertices in a greedy order of small frontier (Cuthill & McKee,
    1969): a least-degree vertex first, then always one with the most placed
    neighbours (edges counted with multiplicity; the least vertex on ties)."""
    n = g.nverts
    nbrs = [[] for _ in range(n)]
    for u, v in g.edges:
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    placed = [0] * n  # placed neighbours of each vertex, -1 once it is placed
    order = []
    w = min(range(n), key=lambda z: len(nbrs[z]), default=None)
    for _ in range(n):
        order.append(w)
        placed[w] = -1
        for z in nbrs[w]:
            if placed[z] >= 0:
                placed[z] += 1
        w = max(range(n), key=placed.__getitem__)
    return order


# -- builders ----------------------------------------------------------------


def path_graph(n):
    if n < 1:
        raise InvalidParameters("need at least one vertex")
    return Multigraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 1:
        raise InvalidParameters("cycle needs n >= 1")
    if n == 1:
        return Multigraph(1, [(0, 0)])
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Multigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(n, m):
    return Multigraph(n + m, [(i, n + j) for i in range(n) for j in range(m)])


def grid_graph(m, n):
    """m x n king-free grid lattice: m rows, n columns, unit horizontal/vertical edges."""
    if m < 1 or n < 1:
        raise InvalidParameters("grid needs positive dimensions")

    def vid(row, col):
        return col * m + row

    edges = []
    for col in range(n):
        for row in range(m - 1):
            edges.append((vid(row, col), vid(row + 1, col)))
        if col + 1 < n:
            for row in range(m):
                edges.append((vid(row, col), vid(row, col + 1)))
    return Multigraph(m * n, edges)


def wheel_graph(n):
    """Wheel with n rim vertices (hub = vertex 0); 2n edges."""
    if n < 3:
        raise InvalidParameters("wheel needs n >= 3")
    edges = [(0, i + 1) for i in range(n)]  # spokes
    edges += [(i + 1, (i + 1) % n + 1) for i in range(n)]  # rim
    return Multigraph(n + 1, edges)


def bond_graph(n):
    """Two vertices joined by n parallel edges."""
    if n < 1:
        raise InvalidParameters("need n >= 1 edges")
    return Multigraph(2, [(0, 1)] * n)
