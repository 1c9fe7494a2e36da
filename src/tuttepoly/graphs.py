"""Multigraphs with the operations the graphic-matroid machinery needs.

Edges are indexed 0..m-1 in insertion order and may repeat endpoint pairs
(parallel edges) or join a vertex to itself (loops).  Deletion and
contraction return new graphs whose edges keep their relative order, so
element labels stay aligned with matroid minors.
"""

from __future__ import annotations

from .errors import ElementOutOfRange, InvalidParameters


class UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


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

    def rank_of(self, edge_indices):
        """|V| - #components of the spanning subgraph on those edges."""
        uf = UnionFind(self.nverts)
        rank = 0
        for i in edge_indices:
            if not 0 <= i < len(self.edges):
                raise ElementOutOfRange(f"edge index {i}")
            u, v = self.edges[i]
            if uf.union(u, v):
                rank += 1
        return rank

    def full_rank(self):
        return self.rank_of(range(len(self.edges)))

    # -- minors ----------------------------------------------------------

    def delete_edges(self, drop):
        drop = set(drop)
        return Multigraph._trusted(
            self.nverts, [e for i, e in enumerate(self.edges) if i not in drop]
        )

    def contract_edge(self, i):
        """Contract edge i (a loop contracts to a deletion) and compact vertices."""
        u, v = self.edges[i]
        if u == v:
            return self.delete_edges([i])
        a, b = min(u, v), max(u, v)
        # merge b into a, shift higher vertex labels down
        relabel = [w if w < b else (a if w == b else w - 1) for w in range(self.nverts)]
        edges = [
            (relabel[x], relabel[y]) for k, (x, y) in enumerate(self.edges) if k != i
        ]
        return Multigraph._trusted(self.nverts - 1, edges)

    def without_isolated(self):
        seen = set()
        for u, v in self.edges:
            seen.add(u)
            seen.add(v)
        keep = sorted(seen)
        relabel = {w: k for k, w in enumerate(keep)}
        return Multigraph._trusted(
            len(keep), [(relabel[u], relabel[v]) for u, v in self.edges]
        )

    # -- structure queries ------------------------------------------------

    def loops(self):
        return [i for i, (u, v) in enumerate(self.edges) if u == v]

    def components(self):
        """Vertex components as a list of vertex sets (isolated ones included)."""
        uf = UnionFind(self.nverts)
        for u, v in self.edges:
            uf.union(u, v)
        comp = {}
        for w in range(self.nverts):
            comp.setdefault(uf.find(w), []).append(w)
        return list(comp.values())

    def bridges(self):
        """Indices of edges whose removal would raise the component count.

        One iterative Tarjan low-link search.  The edge a vertex was reached
        by is skipped by index, not by endpoint, so a parallel edge gives its
        twin a back edge and neither is a bridge.
        """
        n = self.nverts
        incident = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            if u != v:
                incident[u].append((v, i))
                incident[v].append((u, i))
        disc = [0] * n  # discovery time from 1; 0 means unvisited
        low = [0] * n
        out = []
        clock = 0
        for start in range(n):
            if disc[start]:
                continue
            clock += 1
            disc[start] = low[start] = clock
            stack = [(start, -1, iter(incident[start]))]
            while stack:
                w, via, edges = stack[-1]
                for z, i in edges:
                    if i == via:
                        continue
                    if disc[z]:
                        if disc[z] < low[w]:
                            low[w] = disc[z]
                    else:
                        clock += 1
                        disc[z] = low[z] = clock
                        stack.append((z, i, iter(incident[z])))
                        break
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        if low[w] < low[p]:
                            low[p] = low[w]
                        if low[w] > disc[p]:
                            out.append(via)
        out.sort()
        return out

    def parallel_classes(self):
        """Non-loop edge indices grouped by endpoint pair."""
        groups = {}
        for i, (u, v) in enumerate(self.edges):
            if u != v:
                groups.setdefault((min(u, v), max(u, v)), []).append(i)
        return list(groups.values())

    def degree_two_chain(self):
        """A maximal series run through degree-2 vertices, or None.

        Returns edge indices forming a path whose interior vertices have
        degree exactly 2 (loops forbidden at those vertices).  Such edges lie
        in one series class, which is all the deletion-contraction engine
        needs; classes invisible to this test are found by the generic rule.
        """
        deg = [0] * self.nverts
        incident = [[] for _ in range(self.nverts)]
        for i, (u, v) in enumerate(self.edges):
            deg[u] += 1
            deg[v] += 1
            incident[u].append(i)
            incident[v].append(i)
        for w in range(self.nverts):
            if deg[w] == 2 and len(set(incident[w])) == 2:
                chain = set(incident[w])
                # grow through neighboring degree-2 vertices
                grew = True
                while grew:
                    grew = False
                    touched = {
                        z
                        for i in chain
                        for z in self.edges[i]
                    }
                    for z in touched:
                        if deg[z] == 2 and len(set(incident[z])) == 2:
                            for i in incident[z]:
                                if i not in chain:
                                    chain.add(i)
                                    grew = True
                if len(chain) >= 2:
                    return sorted(chain)
        return None

    def is_cycle(self):
        """True when the graph is a single cycle (length >= 1)."""
        if not self.edges:
            return False
        if self.nverts == 1:
            return len(self.edges) == 1  # one loop
        if len(self.edges) != self.nverts:
            return False
        deg = [0] * self.nverts
        for u, v in self.edges:
            if u == v:
                return False
            deg[u] += 1
            deg[v] += 1
        if any(d != 2 for d in deg):
            return False
        return len(self.components()) == 1


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
    """Complete canonical encoding of a multigraph: equal keys iff isomorphic.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): colour refinement on loop counts and edge
    multiplicities makes the vertex partition equitable; each vertex of the
    first non-singleton cell is individualized in turn and the search
    recurses until the partition is discrete.  Each leaf labels the vertices
    by their cell, and the key is the least sorted (min label, max label,
    multiplicity) edge list over all leaves, with the loop count of every
    labelled vertex.  Automorphisms found between leaves of equal encoding
    prune the search: a child in the orbit of an explored sibling under the
    automorphisms fixing the path to it is skipped, and a subtree that yields
    a leaf equal to the best returns to the level where the two paths part.
    Never gives up, so every deletion-contraction node can be memoized.
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
    triples = [(u, v, m) for (u, v), m in mult.items()]

    best = None  # least leaf encoding so far
    best_col = None
    best_path = None
    auts = []  # automorphisms as vertex maps, from leaves equal to best
    path = []

    def leaf(col):
        nonlocal best, best_col, best_path
        enc = tuple(sorted([
            (col[u], col[v], m) if col[u] < col[v] else (col[v], col[u], m)
            for u, v, m in triples
        ]))
        if best is None or enc < best:
            best, best_col, best_path = enc, col, list(path)
            return None
        if enc != best:
            return None
        inv = [0] * n
        for w, c in enumerate(best_col):
            inv[c] = w
        auts.append([inv[c] for c in col])
        # An individualized vertex keeps the first label of its cell, so a
        # leaf's labels fix the path to it and the automorphism maps this
        # path onto the best one.  It fixes their common prefix, and the
        # subtree where this path leaves the best one repeats an explored one.
        j = 0
        while path[j] == best_path[j]:
            j += 1
        return j

    def search(col, ncol):
        if ncol == n:
            return leaf(col)
        counts = [0] * ncol
        for c in col:
            counts[c] += 1
        target = next(c for c in range(ncol) if counts[c] > 1)
        depth = len(path)
        explored = []
        seen_auts = 0
        root = None
        for v in [w for w in range(n) if col[w] == target]:
            if explored and len(auts) > seen_auts:
                seen_auts = len(auts)
                root = _orbits(n, [a for a in auts
                                   if all(a[p] == p for p in path)])
            if root is not None and root[v] in {root[e] for e in explored}:
                continue
            explored.append(v)
            child = [c + 1 if c > target or (c == target and w != v) else c
                     for w, c in enumerate(col)]
            path.append(v)
            back = search(*_refine(child, ncol + 1, adj))
            path.pop()
            if back is not None and back < depth:
                return back
        return None

    search(*_refine(*_ranks(loopc), adj))
    loops = tuple(sorted((best_col[w], c) for w, c in enumerate(loopc) if c))
    return (n, loops, best)


def _orbits(n, gens):
    """Orbit representative of every vertex under the group gens generate."""
    uf = UnionFind(n)
    for a in gens:
        for w in range(n):
            uf.union(w, a[w])
    return [uf.find(w) for w in range(n)]


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
