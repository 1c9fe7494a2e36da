"""Matrices over prime fields GF(p), enough for linear matroids.

A matrix row-reduces once, on its first rank query, to the standard form
[I_r | A] on its greedy basis; the rank of a column set is then read off that
form from its bitmask (``GFMatrix.rank_of_mask``).  Entries are residues,
all arithmetic is integer mod p, nothing ever leaves exact arithmetic.
"""

from __future__ import annotations

from .errors import InvalidParameters, NotPrimePower, SizeBudgetExceeded

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to them all


def is_prime(p):
    """Miller-Rabin to the prime bases up to 41, exact below _MR_LIMIT (Sorenson
    & Webster, Math. Comp. 86, 2017); a larger p that no base proves composite
    raises SizeBudgetExceeded."""
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(s)):
            return False
    if p >= _MR_LIMIT:
        raise SizeBudgetExceeded(f"primality is decided only below {_MR_LIMIT}")
    return True


def prime_power_root(q):
    """(p, k) with q = p**k, or raise NotPrimePower: only the largest k with an
    integer k-th root b of q (Newton's method from above) can give a prime."""
    for k in range(q.bit_length() if q > 1 else 0, 0, -1):
        b = 1 << -(-q.bit_length() // k)
        while (c := ((k - 1) * b + q // b ** (k - 1)) // k) < b:
            b = c
        if b**k == q:
            if is_prime(b):
                return (b, k)
            break
    raise NotPrimePower(f"{q} is not a prime power")


class GFMatrix:
    """Immutable matrix over GF(p), p prime."""

    __slots__ = ("p", "nrows", "ncols", "rows", "_std")

    def __init__(self, p, rows):
        if not is_prime(p):
            raise NotPrimePower(f"{p} is not prime")
        rows = tuple(tuple(int(e) % p for e in row) for row in rows)
        w = len(rows[0]) if rows else 0
        if any(len(r) != w for r in rows):
            raise InvalidParameters("ragged matrix rows")
        self.p = p
        self.nrows = len(rows)
        self.ncols = w
        self.rows = rows
        self._std = None

    @classmethod
    def _trusted(cls, p, rows):
        """A matrix built from a checked one: p is prime and the rows are
        rectangular and reduced mod p, so nothing is converted or checked."""
        m = cls.__new__(cls)
        m.p, m.rows, m._std = p, tuple(map(tuple, rows)), None
        m.nrows, m.ncols = len(m.rows), len(m.rows[0]) if m.rows else 0
        return m

    def __repr__(self):
        return f"GFMatrix(p={self.p}, {self.nrows}x{self.ncols})"

    def standard_form(self):
        """(basis, pos, coords), computed once: the greedy basis b_0 < b_1 <
        ..., the pivot columns of the reduced row echelon form [I_r | A];
        pos[j] = i when j = b_i, else -1; coords[j], column j of that form."""
        if self._std is None:
            p, rows, basis = self.p, [list(r) for r in self.rows], []
            for j in range(self.ncols):
                k = len(basis)
                i = next((i for i in range(k, len(rows)) if rows[i][j]), None)
                if i is None:
                    continue
                rows[k], rows[i] = rows[i], rows[k]
                inv = pow(rows[k][j], p - 2, p)
                rows[k] = lead = [a * inv % p for a in rows[k]]
                for i, row in enumerate(rows):
                    c = row[j]
                    if c and i != k:
                        rows[i] = [(a - c * b) % p for a, b in zip(row, lead)]
                basis.append(j)
            pos = [-1] * self.ncols
            for i, j in enumerate(basis):
                pos[j] = i
            top = rows[: len(basis)]
            coords = [tuple(r[j] for r in top) for j in range(self.ncols)]
            self._std = (basis, pos, coords, sum(1 << j for j in basis))
        return self._std[:3]

    def rank_of_mask(self, mask):
        """Rank of the column bitmask S (no bit past the last column): |S & B|
        plus the rank of A on the columns S - B and the rows that S & B leaves
        uncovered, eliminated until it reaches full rank."""
        if self._std is None:
            self.standard_form()
        basis, pos, coords, in_basis = self._std
        both = mask & in_basis
        rank, full = both.bit_count(), len(basis)
        if rank == full:
            return rank
        rest, covered = mask ^ both, 0  # covered: rows i with b_i in S
        while both:
            j = both.bit_length() - 1
            both ^= 1 << j
            covered |= 1 << pos[j]
        p, pivots = self.p, []
        while rest and rank < full:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            v = coords[j]
            for lead, pv in pivots:
                c = v[lead]
                if c:
                    v = [(a - c * b) % p for a, b in zip(v, pv)]
            for i, a in enumerate(v):  # an uncovered lead, scaled to 1
                if a and not covered >> i & 1:
                    inv = pow(a, p - 2, p)
                    pivots.append((i, [b * inv % p for b in v]))
                    rank += 1
                    break
        return rank
