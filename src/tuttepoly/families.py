"""Closed-form Tutte polynomials for named matroid families.

Each function evaluates a published formula or recurrence directly, without
running the general engines, so that family formulas and engines form two
independent computation routes that can be compared exactly.

Variable conventions follow the rest of the package: the first BiPoly slot is
x, the second is y.  Projective and affine geometries build their coboundary
polynomials with lambda in the first slot and t in the second
(``bipoly._newton_form``) and convert them (``bipoly.tutte_from_coboundary``),
so no engine is imported.  K_n, K_{n,m}, wheels, whirls and 2 x n grids compute
on ints packed as ``tutte_dc`` packs T (``bipoly._Packing``); packing is a ring
homomorphism, so values on the way may go negative, and only T must fit.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .bipoly import (
    BiPoly,
    X,
    Y,
    _from_corank_nullity,
    _geom,
    _newton_form,
    _Packing,
    _wrap,
    exact_div,
    subst_rational,
    tutte_from_coboundary,
)
from .errors import (
    InvalidParameters,
    InvalidPartition,
    InvalidRank,
    InvalidSize,
    NonExactDivision,
    PreconditionViolated,
    SizeBudgetExceeded,
    UnknownSystem,
)
from .gf import prime_power_root

_ONE = BiPoly.one()
_DET = X * Y - X - Y  # (x-1)(y-1) - 1, the recurring 2-sum denominator

COMPLETE_GRAPH_LIMIT = 30
UNIFORM_LIMIT = 500
COMPLETE_BIPARTITE_LIMIT = 64
RECURRENCE_LIMIT = 250  # wheel, whirl and grid2
GEOMETRY_POINT_LIMIT = 2**16


# -- uniform matroids and relatives -------------------------------------------


def uniform(r, n):
    """Tutte polynomial of U_{r,n} by two independent closed forms.

    The subset form groups the corank-nullity sum by subset size; for
    0 < r < n it is checked against the basis-activity form
    sum_j C(n-j-1, r-1) y^j + sum_i C(n-i-1, n-r-1) x^i.  n is at most
    UNIFORM_LIMIT.  The subset form's histogram fills one row and one column,
    and a Taylor shift stops at its last nonzero coefficient, so its shifts
    take O(r^2 + (n-r)^2) big-int additions.
    """
    if not 0 <= r <= n:
        raise InvalidRank(f"need 0 <= r <= n, got r={r}, n={n}")
    if n > UNIFORM_LIMIT:
        raise SizeBudgetExceeded(f"supported range is n <= {UNIFORM_LIMIT}")
    total = _from_corank_nullity(
        {(r - min(a, r), a - min(a, r)): comb(n, a) for a in range(n + 1)}
    )
    if 0 < r < n:
        alt = {(0, j): comb(n - j - 1, r - 1) for j in range(1, n - r + 1)}
        alt.update({(i, 0): comb(n - i - 1, n - r - 1) for i in range(1, r + 1)})
        if BiPoly(alt) != total:
            raise PreconditionViolated(f"the closed forms of U_{{{r},{n}}} disagree")
    return total


def cycle(n):
    """Tutte polynomial of the n-element circuit: x^(n-1) + ... + x + y."""
    if n < 2:
        raise InvalidSize("circuit needs n >= 2")
    terms = {(i, 0): 1 for i in range(1, n)}
    terms[(0, 1)] = 1
    return BiPoly(terms)


def multilink(n):
    """Tutte polynomial of n parallel elements joining two points (dual of cycle)."""
    return cycle(n).swap()


def sparse_paving(r, n, ch_count):
    """Uniform polynomial shifted by one (xy - x - y) per circuit-hyperplane."""
    if not 0 < r < n:
        raise InvalidParameters(f"need 0 < r < n, got r={r}, n={n}")
    if not 0 <= ch_count <= comb(n, r) - 1:
        raise InvalidParameters(f"circuit-hyperplane count {ch_count} out of range")
    return uniform(r, n) + _DET.scale(ch_count)


def relax_poly(t):
    """Effect of relaxing one circuit-hyperplane: T - xy + x + y."""
    return t - _DET


def unrelax_poly(t):
    """Inverse of relax_poly: T + xy - x - y."""
    return t + _DET


def free_ext_poly(t, t_at_x1):
    """Tutte polynomial of the free extension, from T and its x = 1 slice.

    Realizes (division-free in spirit, exact_div in practice)
    ( x T(x,y) + ((x-1)y - x) T(1,y) ) / (x - 1).
    """
    return exact_div(X * t + ((X - 1) * Y - X) * t_at_x1, X - 1)


# -- paving matroids -----------------------------------------------------------


# Rank plus the block profile of the hyperplane (r-1)-partition:
# block_sizes maps a block cardinality k to the number b_k of blocks of
# that size.
PavingSpec = namedtuple("PavingSpec", "r n block_sizes")


def _check_paving_spec(spec):
    if spec.r < 2:
        raise InvalidPartition("paving formula needs rank >= 2")
    if spec.n < spec.r:
        raise InvalidPartition("need n >= r")
    covered = 0
    for k, b in spec.block_sizes.items():
        if b < 0:
            raise InvalidPartition("negative block count")
        if k < spec.r - 1:
            raise InvalidPartition(f"block size {k} below rank-1 = {spec.r - 1}")
        if k > spec.n:
            raise InvalidPartition(f"block size {k} exceeds ground size")
        covered += b * comb(k, spec.r - 1)
    if covered != comb(spec.n, spec.r - 1):
        raise InvalidPartition(
            f"blocks cover {covered} of the {comb(spec.n, spec.r - 1)} "
            f"({spec.r - 1})-subsets"
        )


def paving(spec):
    """Tutte polynomial of a paving matroid from its hyperplane partition.

    The coefficient t_ij vanishes for (i,j) >= (2,1); the surviving ones are
    binomial sums over the block profile b_k.
    """
    _check_paving_spec(spec)
    r, n = spec.r, spec.n

    def b(k):
        return spec.block_sizes.get(k, 0)

    terms = {}
    for i in range(2, r + 1):
        terms[(i, 0)] = comb(n - i - 1, r - i)
    t10 = comb(n - 2, r - 1) - comb(n, r - 1)
    for k in range(0, n - r + 2):
        t10 += comb(r - 2 + k, r - 2) * b(k + r - 1)
    if t10:
        terms[(1, 0)] = t10
    for j in range(1, n - r + 1):
        t1j = 0
        t0j = comb(n - j - 1, r - 1)
        for k in range(0, n - r + 2):
            t1j += comb(r - 2 + k, r - 2) * b(k + j + r - 1)
            t0j -= comb(r - 1 + k, r - 1) * b(k + j + r - 1)
        if t1j:
            terms[(1, j)] = t1j
        if t0j:
            terms[(0, j)] = t0j
    return BiPoly(terms)


def catalan(n):
    """Tutte polynomial of the n-th lattice-path matroid on 2n steps.

    The x^i y^j coefficient is ((i+j-2)/(n-1)) C(2n-i-j-1, n-i-j+1); it
    depends on i and j only through i + j.
    """
    if n < 2:
        raise InvalidSize("need n >= 2")
    terms = {}
    for s in range(2, n + 2):  # s = i + j
        c = Fraction(s - 2, n - 1) * comb(2 * n - s - 1, n - s + 1)
        if c == 0:
            continue
        if c.denominator != 1:
            raise NonExactDivision(f"non-integer Catalan coefficient {c}")
        for i in range(1, s):
            terms[(i, s - i)] = int(c)
    return BiPoly(terms)


# -- grids ---------------------------------------------------------------------


def grid2(n):
    """Tutte polynomial of the 2 x n grid by the coupled recurrence.

    L_1 = x, Q_1 = 1, L_k = (x^2+x+1) L_{k-1} + y Q_{k-1}, Q_k = (x+1) L_{k-1}
    + y Q_{k-1}, packed as T (slots up to C(3n-2, 2n-1)); n <= RECURRENCE_LIMIT.
    """
    if n < 1:
        raise InvalidSize("need n >= 1")
    if n > RECURRENCE_LIMIT:
        raise SizeBudgetExceeded(f"supported range is n <= {RECURRENCE_LIMIT}")
    pk = _Packing(n - 1, comb(3 * n - 2, 2 * n - 1))
    ell, q = 1 << pk.x, 1
    for _ in range(n - 1):
        xl, yq = (ell << pk.x) + ell, q << pk.y  # (x+1) L, y Q
        ell, q = (xl << pk.x) + ell + yq, xl + yq
    return _wrap(pk.unpack(ell))


# -- complete and complete bipartite graphs ------------------------------------


def _add_block(row, src, shift, weight):
    """row[k+1] += weight t^edges src[k], shift = edges * pk.y: one more block."""
    for k, p in enumerate(src):
        row[k + 1] += weight * p << shift


def _tutte_from_partitions(parts, r, pk):
    """T of a connected graph from parts[k], its set partitions into k blocks.

    lambda cob = sum_k parts[k](t) lambda(lambda-1)...(lambda-k+1), as each
    partition into k blocks is the colour classes of (lambda)_k colourings;
    Horner's rule gives its lambda-rows g_a, and T = sum_a (x-1)^a g_a(y) (y-1)^(a-r).
    """
    rows, acc = [0], 0
    for k in reversed(range(1, len(parts))):  # times (lambda - k), plus P_k
        rows = [a - k * b for a, b in zip([parts[k]] + rows, rows + [0])]
    for a in reversed(range(r + 1)):
        h, rem = divmod(rows[a], ((1 << pk.y) - 1) ** (r - a))
        if rem:
            raise NonExactDivision("remainder is nonzero")
        acc = (acc << pk.x) - acc + h
    return _wrap(pk.unpack(acc))


def complete_graph(n):
    """Tutte polynomial of K_n by the set-partition expansion.

    lambda cob = sum over set partitions pi of the vertices of
    t^(edges inside blocks) (lambda)_|pi|.  Counted by the block of the last
    vertex, P_{m,k}(t) = sum_s C(m-1,s-1) t^C(s,2) P_{m-s,k-1} for
    partitions of m vertices into k blocks, each one int packed as T (slots up
    to C(|E|, n-1), n <= COMPLETE_GRAPH_LIMIT); substitution turns cob into T.
    """
    if n < 1:
        raise InvalidParameters("need n >= 1")
    if n > COMPLETE_GRAPH_LIMIT:
        raise SizeBudgetExceeded(f"supported range is 1..{COMPLETE_GRAPH_LIMIT}")
    pk = _Packing((n - 1) * (n - 2) // 2, comb(comb(n, 2), n - 1))  # rank n - 1
    table = [[1]]  # table[m][k] = P_{m,k}; P_{0,0} = 1
    for m in range(1, n + 1):
        row = [0] * (m + 1)
        for s in range(1, m + 1):
            _add_block(row, table[m - s], comb(s, 2) * pk.y, comb(m - 1, s - 1))
        table.append(row)
    return _tutte_from_partitions(table[n], n - 1, pk)


def complete_bipartite(n, m):
    """Tutte polynomial of K_{n,m} by the set-partition expansion.

    As for K_n (packed, slots up to C(nm, n+m-1)), with a block of a left and b
    right vertices holding a*b edges.  For i >= 1 left vertices the block of the
    last one, a >= 1 left and b right vertices, weighs C(i-1,a-1) C(j,b) t^(ab);
    with no left vertex, a block of b right vertices weighs C(j-1,b-1).
    """
    if n < 1 or m < 1:
        raise InvalidParameters("need n, m >= 1")
    if n * m > COMPLETE_BIPARTITE_LIMIT:
        raise SizeBudgetExceeded(f"supported range is n*m <= {COMPLETE_BIPARTITE_LIMIT}")
    n, m = sorted((n, m))  # K_{n,m} = K_{m,n}; fewer left vertices is cheaper
    pk = _Packing((n - 1) * (m - 1), comb(n * m, n + m - 1))  # rank n + m - 1
    table = {(0, 0): [1]}  # table[i, j][k]: partitions of K_{i,j} into k blocks
    for i in range(n + 1):
        for j in range(m + 1):
            if i or j:
                row = table[i, j] = [0] * (i + j + 1)
                if i:
                    for a in range(1, i + 1):
                        for b in range(j + 1):
                            _add_block(row, table[i - a, j - b], a * b * pk.y,
                                       comb(i - 1, a - 1) * comb(j, b))
                else:
                    for b in range(1, j + 1):
                        _add_block(row, table[0, j - b], 0, comb(j - 1, b - 1))
    return _tutte_from_partitions(table[n, m], n + m - 1, pk)


# -- projective and affine geometries ------------------------------------------


def gaussian(m, k, q):
    """Gaussian binomial [m k]_q as an integer."""
    if m < 0 or k < 0 or q < 2:
        raise InvalidParameters("need m, k >= 0 and q >= 2")
    if k == 0:
        return 1
    num = den = 1
    for i in range(k):
        num *= q**m - q**i
        den *= q**k - q**i
    quot, rem = divmod(num, den)
    if rem:
        raise NonExactDivision(f"Gaussian binomial [{m} {k}]_{q} is not integral")
    return quot


def _check_geometry(dim, q, points):
    """dim >= 1, q a prime power and points(), the point count, at most
    GEOMETRY_POINT_LIMIT.  A geometry has at least 2^dim and at least q
    points, so a large dim or q is rejected before q is factored or points()
    is formed."""
    if dim < 1:
        raise InvalidParameters("need dimension >= 1")
    if dim < GEOMETRY_POINT_LIMIT.bit_length() and q <= GEOMETRY_POINT_LIMIT:
        prime_power_root(q)
        if points() <= GEOMETRY_POINT_LIMIT:
            return
    raise SizeBudgetExceeded(f"supported range is at most {GEOMETRY_POINT_LIMIT} points")


def projective(dim, q):
    """Tutte polynomial of the rank-(dim+1) projective geometry over GF(q).

    Assembled from the flat-indexed polynomial: the rank-k flats number
    [r k]_q, have (q^k-1)/(q-1) points, and contract to smaller projective
    geometries with characteristic polynomial prod (lambda - q^i), so the
    coboundary is in Newton form on the roots q^i.
    """
    _check_geometry(dim, q, lambda: gaussian(dim + 1, 1, q))
    r = dim + 1
    weights = [[(gaussian(r - m, 1, q), gaussian(r, r - m, q))] for m in range(r + 1)]
    return tutte_from_coboundary(_newton_form(weights, [q**i for i in range(r)]), r)


def affine(dim, q):
    """Tutte polynomial of the rank-(dim+1) affine geometry over GF(q).

    The characteristic polynomial is (lambda-1) sum_k (-1)^k lambda^(dim-k)
    prod_{i<k} (q^(dim-i) - 1); nonempty flats are affine subspaces, q^k
    points each, q^(dim-k) [dim k]_q many, contracting to projective
    geometries.
    """
    _check_geometry(dim, q, lambda: q**dim)
    chi, prod = {}, 1
    for k in range(dim + 1):
        chi[dim - k, 0] = (-1) ** k * prod
        prod *= q ** (dim - k) - 1
    weights = [[(q ** (dim - m), q**m * gaussian(dim, dim - m, q))] for m in range(dim + 1)]
    cob = _newton_form(weights, [q**i for i in range(dim)]) + (X - 1) * BiPoly(chi)
    return tutte_from_coboundary(cob, dim + 1)


def q_cone(t_m, r, q):
    """Tutte polynomial of a q-cone of a rank-r simple GF(q) matroid.

    Two-term substitution formula: the first term evaluates T at
    ((x-1)(y-1)/(y^q-1) + 1, y^q) with prefactor y (y^q-1)^r / (y-1)^(r+1),
    the second at ((x-1)/q + 1, y) with prefactor q^r (xy-x-y)/(y-1).
    """
    prime_power_root(q)
    if r < 1:
        raise InvalidParameters("need rank >= 1")
    yq = Y**q
    t1 = subst_rational(
        t_m,
        (X - 1) * (Y - 1) + (yq - 1),
        yq - 1,
        yq,
        _ONE,
        clear_factor=(yq - 1) ** r,
    )
    t2 = subst_rational(t_m, X - 1 + q, BiPoly.const(q), Y, _ONE, clear_factor=q**r)
    return exact_div(Y * t1 + _DET * (Y - 1) ** r * t2, (Y - 1) ** (r + 1))


# -- wheels and whirls ----------------------------------------------------------


def _power_sums(n, extra):
    """p_n + extra for p_k = (1+x+y) p_{k-1} - xy p_{k-2}, p_0 = 2, p_1 = 1+x+y,
    packed as the rank-n wheel's T (slots up to C(2n, n)); n <= RECURRENCE_LIMIT."""
    if n > RECURRENCE_LIMIT:
        raise SizeBudgetExceeded(f"supported range is n <= {RECURRENCE_LIMIT}")
    pk = _Packing(n, comb(2 * n, n))
    prev, cur = 2, 1 + (1 << pk.x) + (1 << pk.y)
    for _ in range(n - 1):
        prev, cur = cur, cur + (cur << pk.x) + (cur << pk.y) - (prev << pk.x + pk.y)
    return _wrap(pk.unpack(cur + extra.eval(1 << pk.x, 1 << pk.y)))


def wheel(n):
    """Tutte polynomial of the rank-n wheel: p_n + xy - x - y - 1."""
    if n < 3:
        raise InvalidSize("wheel needs n >= 3")
    return _power_sums(n, _DET - 1)


def whirl(n):
    """Tutte polynomial of the rank-n whirl: p_n - 1."""
    if n < 2:
        raise InvalidSize("whirl needs n >= 2")
    return _power_sums(n, BiPoly.const(-1))


# -- sums and splitting ----------------------------------------------------------


def one_sum(polys):
    """Tutte polynomial of a direct sum: the product of the parts."""
    acc = _ONE
    for p in polys:
        acc = acc * p
    return acc


def two_sum_poly(t_m1_contract, t_m1_delete, t_m2_contract, t_m2_delete):
    """Tutte polynomial of a 2-sum from the four pointed-minor polynomials.

    [T_{M1/p}, T_{M1\\p}] . [[x-1, -1], [-1, y-1]] . [T_{M2/p}, T_{M2\\p}]^t
    divided exactly by xy - x - y.
    """
    num = t_m1_contract * ((X - 1) * t_m2_contract - t_m2_delete) + t_m1_delete * (
        (Y - 1) * t_m2_delete - t_m2_contract
    )
    return exact_div(num, _DET)


# connector matrix for the triangle sum, with the per-entry denominator
# (xy - x - y) cleared; diagonal entries 1 become xy - x - y
def _delta_matrix():
    d = _DET
    uy = 1 - Y
    ux = 1 - X
    return [
        [uy * uy, uy, uy, 2, uy],
        [uy, d, 1, ux, 1],
        [uy, 1, d, ux, 1],
        [2, ux, ux, ux * ux, ux],
        [uy, 1, 1, ux, d],
    ]


def delta_sum_poly(q_vec, p_vec):
    """Tutte polynomial of a triangle (3-)sum from five minors per side.

    The minors, in order, are M\\p\\s\\q, M\\p/s\\q, M/p\\s\\q, M/p/s/q and
    M\\p\\s/q for the shared 3-circuit {p, s, q}.  The quadratic form
    sum q_i M_ij p_j is divided exactly by (xy-x-y)(xy-x-y-1).
    """
    if len(q_vec) != 5 or len(p_vec) != 5:
        raise InvalidParameters("need five minor polynomials per side")
    num = BiPoly.zero()
    for q, row in zip(q_vec, _delta_matrix()):
        num = num + q * sum((m * p for m, p in zip(row, p_vec)), BiPoly.zero())
    return exact_div(num, _DET * (_DET - 1))


# -- thickening, stretch, tensor -------------------------------------------------


def thicken_poly(t, r, k):
    """Tutte polynomial after replacing every element by k parallel copies.

    s^r T((x-1+s)/s, y^k) with s = y^(k-1)+...+y+1.
    """
    if k < 1:
        raise InvalidParameters("need k >= 1")
    s = _geom(Y, k)
    return subst_rational(t, X - 1 + s, s, Y**k, _ONE, clear_factor=s**r)


def stretch_poly(t, r_star, k):
    """Tutte polynomial after replacing every element by k in series.

    s^(r*) T(x^k, (y-1+s)/s) with s = x^(k-1)+...+x+1 and r* the dual rank.
    """
    if k < 1:
        raise InvalidParameters("need k >= 1")
    s = _geom(X, k)
    return subst_rational(t, X**k, _ONE, Y - 1 + s, s, clear_factor=s**r_star)


# Inputs of the tensor-product formula: t_m is the Tutte polynomial of the
# base matroid of the given rank and ground-set size; t_n_delete and
# t_n_contract are the pointed minors of the matroid substituted at every
# element.
TensorInputs = namedtuple("TensorInputs", "t_m rank size t_n_delete t_n_contract")


def tensor_poly(inp):
    """Tutte polynomial of a tensor product M (x) N_d.

    Solves (x-1)f + g = T_{N\\d}, f + (y-1)g = T_{N/d} exactly, then clears
    g^r f^(n-r) T_M(T_{N\\d}/g, T_{N/d}/f).
    """
    f = exact_div((Y - 1) * inp.t_n_delete - inp.t_n_contract, _DET)
    g = exact_div((X - 1) * inp.t_n_contract - inp.t_n_delete, _DET)
    clear = g**inp.rank * f ** (inp.size - inp.rank)
    return subst_rational(
        inp.t_m, inp.t_n_delete, g, inp.t_n_contract, f, clear_factor=clear
    )


# -- Steiner systems --------------------------------------------------------------


_STEINER = {
    (3, 7, 7),
    (3, 9, 12),
    (3, 13, 26),
    (4, 8, 14),
    (6, 12, 132),
}


def steiner_sparse(params):
    """Tutte polynomial of a block-design matroid known to be sparse paving.

    params is (rank, ground size, circuit-hyperplane count); only the
    built-in parameter triples are accepted.
    """
    triple = tuple(params)
    if triple not in _STEINER:
        raise UnknownSystem(f"no built-in system with parameters {triple}")
    return sparse_paving(*triple)
