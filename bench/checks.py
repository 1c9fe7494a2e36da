"""Independent correctness checks for benchmark results.

Nothing here calls the package's engines or its polynomial arithmetic: a
polynomial is read only through ``items()`` (its ``{(i, j): c}`` terms) and
evaluated with plain integers, spanning-forest counts come from an exact
Kirchhoff determinant, and basis counts come from closed formulas or from a
separate Gaussian elimination.  Every check returns None when the result is
right and a one-line reason when it is not.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial


def terms(p):
    """The {(i, j): c} term dict of a BiPoly (or of a dict or pair list)."""
    return dict(p.items() if hasattr(p, "items") else p)


def evaluate(p, x, y):
    """p(x, y) for int or Fraction x, y, with 0**0 == 1."""
    return sum(c * x**i * y**j for (i, j), c in p.items())


def add_terms(*polys):
    """Term-wise sum of BiPolys (or term dicts) as a plain dict."""
    out = {}
    for p in polys:
        items = p.items() if hasattr(p, "items") else p
        for k, c in items:
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def perturbed(p):
    """A term dict equal to p's except one coefficient raised by one."""
    out = terms(p)
    key = min(out) if out else (0, 0)
    out[key] = out.get(key, 0) + 1
    return out


# -- exact linear algebra ---------------------------------------------------------


def det(matrix):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def spanning_forests(nverts, edges):
    """Maximal spanning forests of a multigraph, by the matrix-tree theorem.

    The count is the product over components of the Laplacian cofactor;
    loops do not enter the Laplacian and parallel edges add multiplicity.
    """
    parent = list(range(nverts))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    comps = {}
    for w in range(nverts):
        comps.setdefault(find(w), []).append(w)
    total = 1
    for verts in comps.values():
        if len(verts) == 1:
            continue
        index = {w: k for k, w in enumerate(verts[1:])}
        lap = [[0] * len(index) for _ in index]
        for u, v in edges:
            if u == v or find(u) != find(verts[0]):
                continue
            for a, b in ((u, v), (v, u)):
                if a in index:
                    lap[index[a]][index[a]] += 1
                    if b in index:
                        lap[index[a]][index[b]] -= 1
        total *= det(lap)
    return total


def gf_rank(p, columns):
    """Rank over GF(p) of a list of column vectors."""
    rows = [list(c) for c in columns]
    rank = 0
    ncoords = len(rows[0]) if rows else 0
    for pos in range(ncoords):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][pos] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][pos], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][pos] % p:
                c = rows[r][pos]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def gf_basis_count(p, matrix_rows):
    """Number of column bases of a GF(p) matrix, by direct elimination."""
    cols = [list(col) for col in zip(*matrix_rows)]
    r = gf_rank(p, cols)
    return sum(1 for pick in combinations(cols, r) if gf_rank(p, list(pick)) == r)


# -- closed basis counts ----------------------------------------------------------


def catalan_number(n):
    return comb(2 * n, n) // (n + 1)


def projective_bases(dim, q):
    r = dim + 1
    ordered = 1
    for i in range(r):
        ordered *= q**r - q**i
    return ordered // ((q - 1) ** r * factorial(r))


def affine_bases(dim, q):
    ordered = q**dim
    for i in range(dim):
        ordered *= q**dim - q**i
    return ordered // factorial(dim + 1)


def lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# -- the checks themselves ----------------------------------------------------------


def check_equal(result, expected):
    """result equals the expected polynomial (BiPoly or term dict)."""
    want = terms(expected)
    got = terms(result)
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"coefficients differ at {diff[:3]}"
    return None


def check_counts(result, n_elements, basis_count):
    """T(2,2) = 2^|E| and T(1,1) = the independently counted bases."""
    if evaluate(result, 2, 2) != 2**n_elements:
        return f"T(2,2) != 2^{n_elements}"
    got = evaluate(result, 1, 1)
    if got != basis_count:
        return f"T(1,1) = {got}, expected {basis_count}"
    return None


def check_graph(result, nverts, edges):
    """T(2,2) = 2^|E| and T(1,1) = Kirchhoff spanning-forest count."""
    return check_counts(result, len(edges), spanning_forests(nverts, edges))


def check_relaxation(relaxed, original_truth):
    """T(relax(M, H)) - T(M) = x + y - xy."""
    delta = add_terms(relaxed, {k: -c for k, c in original_truth.items()})
    if delta != {(1, 0): 1, (0, 1): 1, (1, 1): -1}:
        return "T(relax(M,H)) - T(M) != x + y - xy"
    return None

