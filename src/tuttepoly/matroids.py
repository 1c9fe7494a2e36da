"""Matroids behind one rank oracle: concrete variants, views, constructions.

Every matroid exposes a ground set 0..n-1 and rank(subset).  Internally a
subset is an int bitmask (bit e stands for element e), and every class
implements ``_rank(mask)`` on it: the one rank-oracle protocol between the
variants, the views and the engines.  Concrete variants (uniform, graphic,
linear, paving encodings, explicit basis lists, lattice paths by interval
matching) rank masks directly; views (dual, relaxation, free extension,
direct sum, 2-sum and tensor product, and the one element-map view behind
minors, parallel extensions and thickenings) derive the rank from a wrapped
matroid.  No construction lists bases or circuits (the triangle sum too is
built from ranks and standard forms), and each stays exact and checkable
against brute-force enumeration.  Structure is kept only where an engine
reads it, which is a Graphic: every other minor, dual and free extension is
a rank view.  Public functions take and return element sets.

Minors relabel the surviving elements to 0..n'-1 preserving order, which
keeps recipes reproducible.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import (
    ElementOutOfRange,
    GroundSetTooLarge,
    InvalidParameters,
    InvalidPartition,
    InvalidRank,
    NotCircuitHyperplane,
    PreconditionViolated,
)
from .gf import GFMatrix
from .graphs import Multigraph

ENUM_LIMIT = 24


class Matroid:
    """Base: subclasses set n and implement _rank(mask).

    The mask is an int over 0..n-1 (bit e set when element e is in the
    subset).  rank(iterable) checks each element and builds the mask.
    Structure is kept only where an engine reads it, which is a Graphic:
    every other minor, parallel extension or thickening is one MapView whose
    parent is not itself a MapView.
    """

    n = 0

    def _rank(self, mask):
        raise NotImplementedError

    def rank(self, subset):
        return self._rank(_mask(self, subset))

    @property
    def full_rank(self):
        r = getattr(self, "_full", None)
        if r is None:
            r = self._rank((1 << self.n) - 1)
            self._full = r
        return r

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, r={self.full_rank})"


# -- concrete variants -------------------------------------------------------


class Uniform(Matroid):
    def __init__(self, r, n):
        if not (0 <= r <= n):
            raise InvalidRank(f"need 0 <= r <= n, got r={r}, n={n}")
        self.r = r
        self.n = n

    def _rank(self, mask):
        return min(mask.bit_count(), self.r)


class Graphic(Matroid):
    def __init__(self, graph):
        if not isinstance(graph, Multigraph):
            raise InvalidParameters("Graphic wants a Multigraph")
        self.graph = graph
        self.n = graph.nedges

    def _rank(self, mask):
        return self.graph.rank_of(_bits(mask))


class Linear(Matroid):
    def __init__(self, mat):
        if not isinstance(mat, GFMatrix):
            raise InvalidParameters("Linear wants a GFMatrix")
        self.mat = mat
        self.n = mat.ncols

    def _rank(self, mask):
        return self.mat.rank_of_columns(_bits(mask))


class SparsePaving(Matroid):
    """Rank-r matroid given by its circuit-hyperplanes (r-sets, pairwise far)."""

    def __init__(self, r, n, circuit_hyperplanes):
        if not (0 < r < n):
            raise InvalidRank(f"sparse paving needs 0 < r < n, got r={r}, n={n}")
        chs = frozenset(frozenset(c) for c in circuit_hyperplanes)
        for c in chs:
            if len(c) != r:
                raise InvalidParameters("circuit-hyperplanes must have size r")
            if any(not 0 <= e < n for e in c):
                raise ElementOutOfRange("circuit-hyperplane element out of range")
        self.r = r
        self.n = n
        self.chs = chs
        self._ch_masks = frozenset(_mask(self, c) for c in chs)
        # two r-sets meet in more than r - 2 elements when they share an (r-1)-set
        faces = set()
        for c in self._ch_masks:
            for e in _bits(c):
                face = c ^ 1 << e
                if face in faces:
                    raise InvalidParameters(
                        "circuit-hyperplanes too close: symmetric difference must exceed 2"
                    )
                faces.add(face)

    def _rank(self, mask):
        s = mask.bit_count()
        if s < self.r:
            return s
        if s == self.r and mask in self._ch_masks:
            return self.r - 1
        return self.r


class PavingPartition(Matroid):
    """Paving matroid from blocks covering each (r-1)-subset exactly once."""

    def __init__(self, r, n, blocks):
        if not (2 <= r <= n):
            raise InvalidRank(f"need 2 <= r <= n, got r={r}, n={n}")
        blocks = tuple(frozenset(b) for b in blocks)
        for b in blocks:
            if len(b) < r - 1:
                raise InvalidPartition("blocks need at least r-1 elements")
            if any(not 0 <= e < n for e in b):
                raise ElementOutOfRange("block element out of range")
            if len(b) == n:  # the only block: every r-set in it has rank r-1
                raise InvalidPartition("a block holds the whole ground set")
        need = comb(n, r - 1)
        covered = sum(comb(len(b), r - 1) for b in blocks)
        if covered != need:
            raise InvalidPartition(
                f"blocks cover {covered} of the {need} ({r - 1})-subsets"
            )
        # the count matches, so the blocks cover every (r-1)-subset exactly
        # once unless one lies in two of them; either search costs <= blocks^2
        masks = [sum(1 << e for e in b) for b in blocks]
        if need <= len(blocks) ** 2:
            seen = set()
            for b in blocks:
                for sub in combinations(sorted(b), r - 1):
                    if sub in seen:
                        raise InvalidPartition(
                            f"(r-1)-subset {set(sub)} lies in two blocks"
                        )
                    seen.add(sub)
        else:  # two blocks sharing r-1 elements share their least r-1
            for i, bi in enumerate(masks):
                shared = [sorted(_bits(bi & bj))[: r - 1] for bj in masks[:i]
                          if (bi & bj).bit_count() >= r - 1]
                if shared:
                    raise InvalidPartition(
                        f"(r-1)-subset {set(min(shared))} lies in two blocks"
                    )
        self.r = r
        self.n = n
        self.blocks = blocks
        bymember = [[] for _ in range(n)]
        for b, bmask in zip(blocks, masks):
            for e in b:
                bymember[e].append(bmask)
        self._bymember = bymember

    def _rank(self, mask):
        s = mask.bit_count()
        if s <= self.r - 1:
            return s
        # a block holding the subset holds its lowest element
        for b in self._bymember[(mask & -mask).bit_length() - 1]:
            if mask & b == mask:
                return self.r - 1
        return self.r


class BasisList(Matroid):
    """Matroid from an explicit basis family, exchange-checked; a family on
    more than ENUM_LIMIT elements is refused."""

    def __init__(self, r, n, bases):
        bases = frozenset(frozenset(b) for b in bases)
        if not bases:
            raise InvalidParameters("need at least one basis")
        for b in bases:
            if len(b) != r:
                raise InvalidParameters("all bases must have size r")
            if any(not 0 <= e < n for e in b):
                raise ElementOutOfRange("basis element out of range")
        self.r = r
        self.n = n
        self.bases = bases
        self._masks = masks = tuple(_mask(self, b) for b in bases)
        _guard(self)
        # each e in b1 - b2 needs an f in b2 - b1 with b1 - e + f a basis;
        # ex[e] masks the f outside b1 that work, so some b2 fails at e
        # iff it avoids ex[e] and e: iff bit full ^ ex[e] ^ 1 << e of up,
        # the sets holding a basis as a 2^n-bit int, is set.  That int is
        # built and read as little-endian bytes, set s at bit s & 7 of
        # byte s >> 3.  Only then are b1's pairs walked for the message.
        mask_set = set(masks)
        full, size = (1 << n) - 1, (1 << n) + 7 >> 3
        seed = bytearray(size)
        for m in masks:
            seed[m >> 3] |= 1 << (m & 7)
        up = int.from_bytes(seed, "little")
        for k in range(n):  # low marks the sets without k
            run = (bytes([(0x55, 0x33, 0x0F)[k]]) if k < 3
                   else b"\xff" * (1 << k - 3) + bytes(1 << k - 3))
            low = int.from_bytes(run * (size // len(run)), "little")
            up |= (up & low) << (1 << k)
        up = up.to_bytes(size, "little")
        for b1, m1 in zip(bases, masks):
            ex = {e: sum(1 << f for f in range(n) if not m1 >> f & 1
                         and (m1 ^ 1 << e) | 1 << f in mask_set) for e in b1}
            holes = [full ^ x ^ 1 << e for e, x in ex.items()]
            if not any(up[s >> 3] >> (s & 7) & 1 for s in holes):
                continue
            for b2, m2 in zip(bases, masks):
                for e in b1 - b2:
                    if not ex[e] & m2:
                        raise InvalidParameters(
                            "basis-exchange axiom fails "
                            f"on {sorted(b1)}, {sorted(b2)} at {e}"
                        )

    def _rank(self, mask):
        return max((mask & b).bit_count() for b in self._masks)


class LatticePath(Matroid):
    """Lattice-path matroid M[P, Q] (Bonin, de Mier & Noy, JCTA 104, 2003).

    P (lower) and Q (upper) are strings over {N, E} of the same length with
    equal north-step counts; the bases are the north-step sets of the paths
    that stay weakly between them.  The i-th north step of such a path lies
    in the interval [first[i], last[i]], from the i-th north step of Q to
    that of P, so M[P, Q] is the transversal matroid of these intervals.
    """

    def __init__(self, lower, upper):
        lower, upper = lower.upper(), upper.upper()
        if len(lower) != len(upper) or set(lower + upper) - {"N", "E"}:
            raise InvalidParameters("paths must be equal-length N/E strings")
        if lower.count("N") != upper.count("N"):
            raise InvalidParameters("paths must share their endpoint")
        self.first = [k for k, step in enumerate(upper) if step == "N"]
        self.last = [k for k, step in enumerate(lower) if step == "N"]
        if any(a > b for a, b in zip(self.first, self.last)):
            raise InvalidParameters("lower path must stay weakly below upper path")
        self.lower = lower
        self.upper = upper
        self.n = len(lower)

    def _rank(self, mask):
        # both ends rise with i, so matching each element in increasing
        # order to the first interval still open to it is a largest matching
        first, last, i, rank = self.first, self.last, 0, 0
        for x in _bits(mask):
            while i < len(last) and last[i] < x:
                i += 1
            if i == len(last):
                break
            if first[i] <= x:
                i += 1
                rank += 1
        return rank


def catalan_matroid(n):
    """M_n: paths from (0,0) to (n,n) between E^n N^n and (EN)^n."""
    if n < 1:
        raise InvalidParameters("need n >= 1")
    return LatticePath("E" * n + "N" * n, "EN" * n)


# -- views -------------------------------------------------------------------


class DualView(Matroid):
    def __init__(self, parent):
        self.parent = parent
        self.n = parent.n
        self._ground = (1 << parent.n) - 1

    def _rank(self, mask):
        rest = self.parent._rank(self._ground ^ mask)
        return mask.bit_count() - self.parent.full_rank + rest


class MapView(Matroid):
    """Element i is parent element image[i], with the parent mask contracted
    contracted.

    rank(A) = r_parent(image(A) | contracted) - r_parent(contracted).  An
    injective image gives a minor; a repeated parent element gives parallel
    copies (parallel extension, thickening).  Operations on a MapView
    compose onto its parent (see _remap), so views never stack.
    """

    def __init__(self, parent, image, contracted):
        self.parent = parent
        self.image = tuple(image)
        self.contracted = contracted
        self.n = len(self.image)
        self._bit = [1 << p for p in self.image]
        self._rc = parent._rank(contracted)

    def _rank(self, mask):
        pmask = self.contracted
        bit = self._bit
        while mask:
            low = mask & -mask
            pmask |= bit[low.bit_length() - 1]
            mask ^= low
        return self.parent._rank(pmask) - self._rc


class RelaxView(Matroid):
    """parent with the circuit-hyperplanes in masks relaxed to bases; a
    hyperplane is closed, so only those sets change rank.  relax of a
    RelaxView adds a mask over the same parent, so views never stack."""

    def __init__(self, parent, masks):
        self.parent = parent
        self.masks = frozenset(masks)
        self.n = parent.n

    def _rank(self, mask):
        if mask in self.masks:
            return self.parent.full_rank
        return self.parent._rank(mask)


class FreeExtView(Matroid):
    """parent plus one new element (index n) placed as freely as possible."""

    def __init__(self, parent):
        self.parent = parent
        self.n = parent.n + 1
        self.new = parent.n

    def _rank(self, mask):
        new = 1 << self.new
        if not mask & new:
            return self.parent._rank(mask)
        inner = self.parent._rank(mask ^ new)
        return min(inner + 1, self.parent.full_rank)


class DirectSum(Matroid):
    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise InvalidParameters("direct sum of nothing")
        self.parts = parts
        offsets = [0]
        for m in parts:
            offsets.append(offsets[-1] + m.n)
        self.offsets = offsets
        self.n = offsets[-1]

    def _rank(self, mask):
        total = 0
        for m, off in zip(self.parts, self.offsets):
            piece = mask >> off & ((1 << m.n) - 1)
            if piece:
                total += m._rank(piece)
        return total


class TwoSumView(Matroid):
    """parent with each element p of at replaced by a copy of N - d, where
    pointed is the PointedMatroid (N, d): the 2-sum along p, once per p.

    Ground set: parent's other elements in order, then one block of N - d
    per p, by increasing p, each in N's order.  A block X_p that spans d in
    N acts in parent as p does (parallel connection, Oxley, Matroid Theory,
    7.1); with S the set of such p,
    r(X) = r_parent(X_parent | S) - |S| + sum_p r_N(X_p).
    """

    def __init__(self, parent, at, pointed):
        self.parent = parent
        self.at = sorted(at)
        self.pointed = pointed
        self._k = pointed.matroid.n - 1
        self._head = parent.n - len(self.at)
        self.n = self._head + self._k * len(self.at)

    def _rank(self, mask):
        net, d, k = self.pointed.matroid, 1 << self.pointed.point, self._k
        pmask = mask & (1 << self._head) - 1
        mask >>= self._head
        total = 0
        for p in self.at:
            pmask = pmask & (1 << p) - 1 | pmask >> p << p + 1  # make room for p
            x = mask & (1 << k) - 1
            mask >>= k
            if x:
                x = x & d - 1 | (x & -d) << 1  # make room for d
                r = net._rank(x)
                if net._rank(x | d) == r:
                    pmask |= 1 << p
                    r -= 1
                total += r
        return self.parent._rank(pmask) + total


# -- basic operations ---------------------------------------------------------


def dual(m):
    if isinstance(m, DualView):
        return m.parent
    return DualView(m)


def is_loop(m, e):
    _check_element(m, e)
    return m._rank(1 << e) == 0


def is_coloop(m, e):
    _check_element(m, e)
    return m._rank(((1 << m.n) - 1) ^ (1 << e)) < m.full_rank


def delete(m, e):
    _check_element(m, e)
    if isinstance(m, Graphic):
        return Graphic(m.graph.delete_edges([e]))
    return _remap(m, [i for i in range(m.n) if i != e], 0)


def contract(m, e):
    _check_element(m, e)
    if isinstance(m, Graphic):
        return Graphic(m.graph.contract_edges([e]))
    return _remap(m, [i for i in range(m.n) if i != e], 1 << e)


def _remap(m, image, contracted):
    """MapView whose element i is m's element image[i], with the mask
    contracted of m's elements contracted.  A MapView m is not wrapped: the
    maps compose onto its parent, so views never stack."""
    if isinstance(m, MapView):
        pc = m.contracted
        for e in _bits(contracted):
            pc |= m._bit[e]
        return MapView(m.parent, [m.image[i] for i in image], pc)
    return MapView(m, image, contracted)


def _check_element(m, e):
    if not (isinstance(e, int) and 0 <= e < m.n):
        raise ElementOutOfRange(f"element {e} not in 0..{m.n - 1}")


def _mask(m, elements):
    """Bitmask of elements, each checked to lie in m's ground set."""
    mask = 0
    for e in elements:
        _check_element(m, e)
        mask |= 1 << e
    return mask


def _bits(mask):
    """Elements of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _set(mask):
    return frozenset(_bits(mask))


# -- closure and enumeration ---------------------------------------------------


def _closure(n, rank, mask):
    r = rank(mask)
    out = mask
    for e in range(n):
        b = 1 << e
        if not mask & b and rank(mask | b) == r:
            out |= b
    return out


def closure(m, subset):
    return _set(_closure(m.n, m._rank, _mask(m, subset)))


def _guard(m):
    if m.n > ENUM_LIMIT:
        raise GroundSetTooLarge(f"n={m.n} exceeds the enumeration limit {ENUM_LIMIT}")


def _subset_masks(n, size):
    """Masks of the size-subsets of 0..n-1, in lexicographic order."""
    return map(sum, combinations([1 << e for e in range(n)], size))


def _basis_masks(m):
    """Masks of the bases, lazily, so no caller holds two copies of them."""
    _guard(m)
    r = m.full_rank
    return (b for b in _subset_masks(m.n, r) if m._rank(b) == r)


def bases(m):
    return [_set(b) for b in _basis_masks(m)]


def circuits(m):
    _guard(m)
    found = []
    r = m.full_rank
    for size in range(1, min(r + 1, m.n) + 1):
        for s in _subset_masks(m.n, size):
            if any(prev & s == prev for prev in found):
                continue
            if m._rank(s) < size:
                found.append(s)
    return [_set(c) for c in found]


def _flat_masks(n, rank):
    """Masks of the flats, rank by rank.  The flats covering a flat F are the
    closures of F + e and partition the elements outside F, so each is found
    once per F and every level is exactly the flats of one rank."""
    level = [_closure(n, rank, 0)]
    while level:
        yield from level
        nxt = set()
        for f in level:
            rest = ((1 << n) - 1) ^ f
            while rest:
                g = _closure(n, rank, f | rest & -rest)
                nxt.add(g)
                rest &= ~g
        level = sorted(nxt, key=lambda g: sorted(_bits(g)))


def flats(m):
    """Flats by increasing rank; flats of one rank in lexicographic order."""
    _guard(m)
    return [_set(f) for f in _flat_masks(m.n, m._rank)]


def hyperplanes(m):
    r = m.full_rank
    return [f for f in flats(m) if m._rank(_mask(m, f)) == r - 1]


# -- constructions -------------------------------------------------------------


def relax(m, subset):
    x = frozenset(subset)
    xm = _mask(m, x)
    r = m.full_rank
    if m._rank(xm) != len(x) - 1 or len(x) - 1 != r - 1:
        raise NotCircuitHyperplane(f"{sorted(x)} is not a circuit-hyperplane")
    for e in x:
        if m._rank(xm ^ 1 << e) != len(x) - 1:
            raise NotCircuitHyperplane(f"{sorted(x)} is not a circuit")
    for e in range(m.n):
        if e not in x and m._rank(xm | 1 << e) != r:
            raise NotCircuitHyperplane(f"{sorted(x)} is not a hyperplane")
    if isinstance(m, RelaxView):
        return RelaxView(m.parent, m.masks | {xm})
    return RelaxView(m, {xm})


def free_extension(m):
    return FreeExtView(m)


def parallel_extension(m, e):
    """m plus a new element (index n) parallel to element e."""
    _check_element(m, e)
    return _remap(m, [*range(m.n), e], 0)


def direct_sum(ms):
    return DirectSum(ms)


class PointedMatroid:
    """A matroid with a distinguished point that is neither loop nor coloop."""

    __slots__ = ("matroid", "point")

    def __init__(self, matroid, point):
        _check_element(matroid, point)
        if is_loop(matroid, point) or is_coloop(matroid, point):
            raise PreconditionViolated("basepoint must be neither loop nor coloop")
        self.matroid = matroid
        self.point = point


def two_sum(pm1, pm2):
    """2-sum along the basepoints, as a TwoSumView (no size cap): ground set
    E1 - p1 then E2 - p2, each in order."""
    return TwoSumView(pm1.matroid, [pm1.point], pm2)


def _triangle_check(m, t):
    t = tuple(t)
    if len(set(t)) != 3:
        raise PreconditionViolated("triangle labeling needs three distinct elements")
    s = _mask(m, t)
    if m._rank(s) != 2 or any(m._rank(s ^ 1 << e) != 2 for e in t):
        raise PreconditionViolated(f"{sorted(t)} is not a 3-circuit")
    return t


def _delta_sum_circuit_conditions(m1, t1, m2, t2):
    # a circuit meets the triangle T = (p, s, q) in exactly {e} iff e lies in
    # the closure of E - T; each side needs that for s and for p, not for q
    for m, t in ((m1, t1), (m2, t2)):
        rest = ((1 << m.n) - 1) ^ _mask(m, t)
        r = m._rank(rest)
        for needed in (t[1], t[0]):
            if m._rank(rest | 1 << needed) != r:
                raise PreconditionViolated(
                    f"no circuit meets the shared triangle exactly in element {needed}"
                )


def delta_sum(m1, t1, m2, t2):
    """Triangle sum: glue along a shared 3-circuit, then drop the triangle.

    Ground set E1 - T1, then E2 - T2, each in order.  Graphic inputs glue the
    graphs at the triangles' vertices: the first graph keeps its numbers and
    the second's other vertices follow in order.  Binary inputs glue their
    standard forms along the triangle's span (Seymour, JCTB 28, 1980).
    """
    t1 = _triangle_check(m1, t1)
    t2 = _triangle_check(m2, t2)
    _delta_sum_circuit_conditions(m1, t1, m2, t2)
    if isinstance(m1, Graphic) and isinstance(m2, Graphic):
        return _delta_sum_graphic(m1, t1, m2, t2)
    if isinstance(m1, Linear) and isinstance(m2, Linear) and m1.mat.p == m2.mat.p == 2:
        return _delta_sum_binary(m1, t1, m2, t2)
    raise PreconditionViolated(
        "triangle sum is realized structurally for graphic or GF(2)-linear inputs only"
    )


def _triangle_vertices(g, t):
    """Map triangle edge positions to vertices: vertex k is off edge t[k]."""
    ends = [set(g.edges[i]) for i in t]
    return [(ends[k - 2] & ends[k - 1]).pop() for k in range(3)]


def _delta_sum_graphic(m1, t1, m2, t2):
    # both graphs side by side, three glue edges joining the matching
    # triangle vertices, contracted at once onto the first graph's vertices
    g1, g2 = m1.graph, m2.graph
    shift = g1.nverts
    edges = [e for i, e in enumerate(g1.edges) if i not in t1]
    edges += [(u + shift, v + shift)
              for i, (u, v) in enumerate(g2.edges) if i not in t2]
    glue = len(edges)
    edges += [(a, b + shift) for a, b in zip(_triangle_vertices(g1, t1),
                                             _triangle_vertices(g2, t2))]
    joined = Multigraph._trusted(shift + g2.nverts, edges)
    return Graphic(joined.contract_edges(range(glue, glue + 3)))


def _delta_sum_binary(m1, t1, m2, t2):
    # with the triangle first, a standard form puts t0, t1, t2 at e0, e1 and
    # e0 + e1: the sides share those two rows and stack the rest
    sides = []
    for m, t in ((m1, t1), (m2, t2)):
        order = [*t, *(e for e in range(m.n) if e not in t)]
        std = GFMatrix._trusted(2, [[row[e] for e in order] for row in m.mat.rows])
        sides.append(std.standard_form()[2][3:])
    (c1, c2), k1, k2 = sides, m1.full_rank - 2, m2.full_rank - 2
    cols = [c + (0,) * k2 for c in c1] + [c[:2] + (0,) * k1 + c[2:] for c in c2]
    return Linear(GFMatrix._trusted(2, zip(*cols)))


def thicken(m, k):
    if k < 1:
        raise InvalidParameters("need k >= 1")
    if isinstance(m, Graphic):
        edges = []
        for e in m.graph.edges:
            edges.extend([e] * k)
        return Graphic(Multigraph(m.graph.nverts, edges))
    return _remap(m, [e for e in range(m.n) for _ in range(k)], 0)


def stretch(m, k):
    if k < 1:
        raise InvalidParameters("need k >= 1")
    if isinstance(m, Graphic):
        g = m.graph
        edges = []
        nxt = g.nverts
        for u, v in g.edges:
            if k == 1:
                edges.append((u, v))
                continue
            prev = u
            for step in range(k - 1):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            edges.append((prev, v))
        return Graphic(Multigraph(nxt, edges))
    return dual(thicken(dual(m), k))


def tensor(m, pointed):
    """Replace every element e of m, none a loop or coloop, by a 2-sum copy
    of the pointed matroid (N, d): a TwoSumView whose block e, the copy of
    N - d, holds elements e(|N| - 1) onward in N's order.  No size cap."""
    for e in range(m.n):
        PointedMatroid(m, e)
    return TwoSumView(m, range(m.n), pointed)
