"""Exact sparse arithmetic for bivariate integer polynomials.

BiPoly is the workhorse: a polynomial in x and y with int coefficients,
stored sparsely as {(i, j): c}.  All Tutte computations stay in this ring;
nothing here ever goes through floats.  One-variable work (the rows of the
coboundary conversion and of the Newton form) stays in dense int lists, low
degree first, through ``_shift_add``, ``_times_linear`` and ``_times_power``.
``tutte_from_coboundary`` / ``coboundary_from_tutte`` work on those rows, and
``_newton_form`` builds the coboundaries of PG and AG; ``families`` counts the
set partitions of K_n and K_{n,m} on ``_Packing`` ints instead.

Conventions: 0**0 := 1 throughout, zero coefficients are never stored, and
every object is immutable once built.
"""

from __future__ import annotations

import struct
import sys
from itertools import accumulate
from math import comb

from .errors import NonExactDivision


class BiPoly:
    """Bivariate polynomial over Z, sparse and immutable."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        # do not store zero coefficients; keys are (xexp, yexp) pairs
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, c in items:
                i, j = key
                if not (isinstance(i, int) and isinstance(j, int) and isinstance(c, int)):
                    raise TypeError("exponents and coefficients must be int")
                if i < 0 or j < 0:
                    raise ValueError("negative exponent")
                if c:
                    k = (i, j)
                    c0 = clean.get(k, 0) + c
                    if c0:
                        clean[k] = c0
                    elif k in clean:
                        del clean[k]
        self._terms = clean
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def const(c):
        if c == 0:
            return _ZERO
        return BiPoly({(0, 0): c})

    @staticmethod
    def monomial(i, j, c=1):
        return BiPoly({(i, j): c})

    # -- inspection -----------------------------------------------------

    def terms(self):
        """Copy of the sparse term dict {(i, j): c}."""
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coeff(self, i, j):
        return self._terms.get((i, j), 0)

    def is_zero(self):
        return not self._terms

    def bidegree(self):
        """(max x-exponent, max y-exponent); (-1, -1) for the zero polynomial."""
        if not self._terms:
            return (-1, -1)
        a = max(i for i, _ in self._terms)
        b = max(j for _, j in self._terms)
        return (a, b)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {(0, 0): other})
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        from .render import to_text

        return f"BiPoly({to_text(self)})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)  # NotImplemented where __add__ refuses other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        # classic sparse convolution; fine at the term counts seen here
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return _wrap(out)

    __rmul__ = __mul__

    def scale(self, c):
        if c == 0:
            return _ZERO
        if c == 1:
            return self
        return _wrap({k: v * c for k, v in self._terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = _ONE
        base = self
        while n:  # square and multiply
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation and substitution -------------------------------------

    def eval(self, x, y):
        """Value at (x, y) for int or Fraction arguments; 0**0 == 1."""
        total = 0
        a, b = self.bidegree()
        xi = _powers(x, a)
        yj = _powers(y, b)
        for (i, j), c in self._terms.items():
            total += c * xi[i] * yj[j]
        return total

    def swap(self):
        """Exchange the roles of x and y."""
        return _wrap({(j, i): c for (i, j), c in self._terms.items()})


def _wrap(d):
    p = BiPoly.__new__(BiPoly)
    p._terms = d
    p._hash = None
    return p


def _coerce(v):
    if isinstance(v, BiPoly):
        return v
    if isinstance(v, int):
        return BiPoly.const(v)
    return NotImplemented


def _powers(base, k):
    """[base**0, base**1, ..., base**k]; base**0 is the one of base's ring."""
    out = [base**0]
    for _ in range(k):
        out.append(out[-1] * base)
    return out


def _geom(p, k):
    """1 + p + ... + p^(k-1)."""
    return sum(_powers(p, k)[:k], _ZERO)


def _taylor_shift(a):
    """Turn the coefficients of sum a[k] (t-1)^k, in place, into those in t."""
    # the synthetic-division form of expanding by C(k, i) (-1)^(k-i): additions
    # only, up to the last nonzero a[k], as the zeros above it stay zero
    top = len(a)
    while top and not a[top - 1]:
        top -= 1
    for i in range(top - 1):
        for k in range(top - 2, i - 1, -1):
            a[k] -= a[k + 1]
    return a


def _shift_add(acc, src, shift, mult):
    """acc += mult * z^shift * src on dense coefficient lists, extending acc."""
    need = shift + len(src)
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, c in enumerate(src):
        if c:
            acc[shift + i] += mult * c


def _times_linear(p, c):
    """Dense coefficients of p(z) (z - c), low degree first."""
    return [a - c * b for a, b in zip([0] + p, p + [0])]


def _times_power(g, k):
    """Dense coefficients of g(t) (t - 1)^k, low degree first; for k < 0 the
    exact quotient by synthetic division (running sums from the top), and
    NonExactDivision unless it is exact."""
    for _ in range(k):
        g = _times_linear(g, 1)
    for _ in range(-k):
        g = list(accumulate(reversed(g)))
        if g and g.pop():  # the last partial sum is g(1), the remainder
            raise NonExactDivision("remainder is nonzero")
        g.reverse()
    return g


def _rows(p):
    """p as rows[i], the dense coefficient list of the y^j in x^i."""
    rows = [[] for _ in range(p.bidegree()[0] + 1)]
    for (i, j), c in p.items():
        _shift_add(rows[i], (c,), j, 1)
    return rows


def _from_rows(rows):
    return _wrap({(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c})


def _rebase(rows, sign):
    """Rows of sum_a rows[a] (v + sign)^a by powers of v: row i gains
    C(a, i) sign^(a-i) rows[a].  Sign 1 takes x-rows to (x-1)-rows, and -1
    takes them back."""
    out = [[] for _ in rows]
    for a, row in enumerate(rows):
        for i in range(a + 1):
            _shift_add(out[i], row, 0, comb(a, i) * sign ** (a - i))
    return out


def tutte_from_coboundary(cob, r):
    """Invert the coboundary substitution for a rank-r matroid.

    Writing cob = sum_a lambda^a g_a(t), the Tutte polynomial is
    sum_a (x-1)^a g_a(y) (y-1)^(a-r): each row g_a times (t-1)^(a-r), a
    nonzero remainder raising NonExactDivision, then rebased from
    (x-1)-rows to x-rows.
    """
    return _from_rows(_rebase([_times_power(g, a - r) for a, g in enumerate(_rows(cob))], -1))


def coboundary_from_tutte(tutte, r):
    """Coboundary of a rank-r matroid: (t-1)^r T((lambda+t-1)/(t-1), t).

    With T = sum_i x^i h_i(y) and x = 1 + lambda/(t-1), this is
    sum_z lambda^z (t-1)^(r-z) sum_{i>=z} C(i,z) h_i(t): the x-rows
    rebased to (x-1)-rows, row z times (t-1)^(r-z).
    """
    return _from_rows([_times_power(s, r - z) for z, s in enumerate(_rebase(_rows(tutte), 1))])


def _newton_form(weights, roots):
    """sum_m w_m(t) prod_{i<m} (lambda - roots[i]) as a BiPoly in (lambda, t),
    where weights[m] yields the (t-exponent, coefficient) pairs of w_m:
    Horner's rule from the top m, on one dense lambda-list per power of t."""
    acc = {}
    for m in reversed(range(len(weights))):
        for j, c in weights[m]:
            if c:
                acc.setdefault(j, [0])[0] += c
        if m:
            acc = {j: _times_linear(row, roots[m - 1]) for j, row in acc.items()}
    return _wrap({(a, j): c for j, row in acc.items() for a, c in enumerate(row) if c})


class _Packing:
    """Polynomials with coefficients in 0..bound and y-degree at most ydeg as
    ints (Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009): x^i y^j
    is a whole-byte slot at bit i * x + j * y, so a sum is +, a product *."""

    formats = {struct.calcsize(c): c for c in "BHIQ"} if sys.byteorder == "little" else {}

    def __init__(self, ydeg, bound):
        self.y = 8 * ((bound.bit_length() + 7) // 8)
        self.x = self.y * (ydeg + 1)

    @staticmethod
    def geom(s, k):
        """1 + z + ... + z^(k-1) with z = 1 << s."""
        return ((1 << s * k) - 1) // ((1 << s) - 1)

    def unpack(self, v):
        """{(i, j): c} of the packed v.  On a little-endian host, slots of at
        most 8 bytes are widened with zero bytes to the least native unsigned
        int that holds them (formats) and cast; wider ones are sliced."""
        b, d = self.y // 8, self.x // self.y
        data = v.to_bytes(-(-v.bit_length() // self.y) * b, "little")
        w = next((w for w in self.formats if w >= b), 0)
        if w:
            wide = bytearray(len(data) // b * w)
            for t in range(b):
                wide[t::w] = data[t::b]
            slots = memoryview(wide).cast(self.formats[w]).tolist()
        else:
            slots = (int.from_bytes(data[k : k + b], "little") for k in range(0, len(data), b))
        return {divmod(k, d): c for k, c in enumerate(slots) if c}


def _from_corank_nullity(counts):
    """sum c (x-1)^z (y-1)^nl over a histogram {(z, nl): c}, as a BiPoly."""
    zmax = max((z for z, _ in counts), default=0)
    nmax = max((nl for _, nl in counts), default=0)
    table = [[0] * (nmax + 1) for _ in range(zmax + 1)]
    for (z, nl), c in counts.items():
        table[z][nl] += c
    for row in table:  # (y-1)^nl to y^j
        _taylor_shift(row)
    cols = [_taylor_shift(list(col)) for col in zip(*table)]  # (x-1)^z to x^i
    return _wrap(
        {(i, j): c for j, col in enumerate(cols) for i, c in enumerate(col) if c}
    )


_ZERO = _wrap({})
_ONE = _wrap({(0, 0): 1})

X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)


def evaluate(p, x, y):
    return p.eval(x, y)


def exact_div(p, d):
    """Quotient p/d when d divides p exactly; NonExactDivision otherwise.

    Long division by leading terms under lex order with x > y.  If p = q*d the
    leading term of the running remainder always splits as LT(q')*LT(d), so
    the loop strips one term of q per step and ends at zero.
    """
    if not isinstance(p, BiPoly) or not isinstance(d, BiPoly):
        raise TypeError("exact_div wants BiPoly arguments")
    if d.is_zero():
        raise NonExactDivision("division by zero polynomial")
    if p.is_zero():
        return _ZERO
    rem = dict(p._terms)
    lead_d = max(d._terms)  # lex: compare (i, j) tuples
    cd = d._terms[lead_d]
    di, dj = lead_d
    out = {}
    while rem:
        (ri, rj) = max(rem)
        cr = rem[(ri, rj)]
        qi, qj = ri - di, rj - dj
        qc, residue = divmod(cr, cd)
        if qi < 0 or qj < 0 or residue:
            raise NonExactDivision("remainder is nonzero")
        out[(qi, qj)] = qc
        for (i, j), c in d._terms.items():
            k = (i + qi, j + qj)
            s = rem.get(k, 0) - c * qc
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    return _wrap(out)


def subst_rational(p, x_num, x_den, y_num, y_den, clear_factor=None):
    """Exact image of p under x -> x_num/x_den, y -> y_num/y_den.

    Returns clear_factor * p(x_num/x_den, y_num/y_den) as a BiPoly, computed
    by homogenizing with the denominators and dividing out x_den**a * y_den**b
    where (a, b) is the bidegree.  Raises NonExactDivision if the result is
    not actually a polynomial.
    """
    if p.is_zero():
        return _ZERO
    a, b = p.bidegree()
    xn = _powers(_coerce(x_num), a)
    xd = _powers(_coerce(x_den), a)
    yn = _powers(_coerce(y_num), b)
    yd = _powers(_coerce(y_den), b)
    total = _ZERO
    for (i, j), c in p.items():
        total = total + (xn[i] * xd[a - i] * yn[j] * yd[b - j]).scale(c)
    if clear_factor is not None:
        total = total * _coerce(clear_factor)
    return exact_div(total, xd[a] * yd[b])
