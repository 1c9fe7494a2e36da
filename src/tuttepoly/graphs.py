"""Multigraphs with the operations the graphic-matroid machinery needs.

Edges are indexed 0..m-1 in insertion order and may repeat endpoint pairs
(parallel edges) or join a vertex to itself (loops).  Deletion and
contraction return new graphs whose edges keep their relative order, so
element labels stay aligned with matroid minors.
"""

from __future__ import annotations

from itertools import permutations

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
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < nverts and 0 <= v < nverts):
                raise InvalidParameters(f"edge ({u},{v}) outside 0..{nverts - 1}")
        self.nverts = nverts
        self.edges = edges

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
        return Multigraph(
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
        return Multigraph(self.nverts - 1, edges)

    def without_isolated(self):
        seen = set()
        for u, v in self.edges:
            seen.add(u)
            seen.add(v)
        keep = sorted(seen)
        relabel = {w: k for k, w in enumerate(keep)}
        return Multigraph(len(keep), [(relabel[u], relabel[v]) for u, v in self.edges])

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
        """Indices of edges whose removal would raise the component count."""
        out = []
        full = self.full_rank()
        for i in range(len(self.edges)):
            u, v = self.edges[i]
            if u == v:
                continue
            if self.rank_of(k for k in range(len(self.edges)) if k != i) < full:
                out.append(i)
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

_PERM_CAP = 50000


def canonical_key(g, perm_cap=_PERM_CAP):
    """Canonical encoding of a multigraph, or None if it would cost too much.

    Vertex classes are refined by iterated neighborhood colorings, then the
    lexicographically least edge multiset over all class-preserving
    relabelings is taken.  Equal keys imply isomorphic multigraphs; when the
    number of relabelings exceeds perm_cap the caller must skip memoization,
    which costs speed, never correctness.
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

    colors = [
        (loopc[w], tuple(sorted(m for _, m in adj[w])))
        for w in range(n)
    ]
    for _ in range(n):
        palette = {c: i for i, c in enumerate(sorted(set(colors)))}
        base = [palette[c] for c in colors]
        refined = [
            (base[w], tuple(sorted((base[z], m) for z, m in adj[w])))
            for w in range(n)
        ]
        if len(set(refined)) == len(set(colors)):
            colors = refined
            break
        colors = refined

    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    final = [palette[c] for c in colors]
    classes = {}
    for w in range(n):
        classes.setdefault(final[w], []).append(w)
    ordered = [classes[c] for c in sorted(classes)]

    total = 1
    for cl in ordered:
        for k in range(2, len(cl) + 1):
            total *= k
        if total > perm_cap:
            return None

    offsets = []
    pos = 0
    for cl in ordered:
        offsets.append(pos)
        pos += len(cl)

    pairs = sorted(mult.items())
    loops_by_class = tuple(
        sorted((final[w], c) for w, c in enumerate(loopc) if c)
    )

    best = None
    label = [0] * n

    def assign(ci):
        nonlocal best
        if ci == len(ordered):
            enc = sorted(
                (min(label[u], label[v]), max(label[u], label[v]), m)
                for (u, v), m in pairs
            )
            enc = tuple(enc)
            if best is None or enc < best:
                best = enc
            return
        cl = ordered[ci]
        base = offsets[ci]
        for perm in permutations(cl):
            for k, w in enumerate(perm):
                label[w] = base + k
            assign(ci + 1)

    assign(0)
    return (n, loops_by_class, best)


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
