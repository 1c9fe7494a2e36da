"""Matrices over prime fields GF(p), enough for linear matroids.

A matrix row-reduces once, on its first rank query, to the standard form
[I_r | A] on its greedy basis; every column rank is then read off that form
(see ``GFMatrix.rank_of_columns``).  Deletion drops a column and contraction
pivots one out.  Entries are stored as residues, all arithmetic is integer
mod p, nothing ever leaves exact arithmetic.
"""

from __future__ import annotations

from .errors import ElementOutOfRange, InvalidParameters, NotPrimePower, SizeBudgetExceeded

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
        """A minor of a checked matrix: p is prime and the rows are
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
            self._std = (basis, pos, [tuple(r[j] for r in top) for j in range(self.ncols)])
        return self._std

    def rank_of_columns(self, cols):
        """Rank of the columns S: on the standard form, |S & B| plus the rank
        of A on the columns S - B and the rows that S & B leaves uncovered,
        eliminated until it reaches full rank."""
        basis, pos, coords = self._std or self.standard_form()
        n, covered, rest = self.ncols, 0, []  # covered: rows i with b_i in S
        for j in cols:
            if not 0 <= j < n:
                raise ElementOutOfRange(f"column {j}")
            i = pos[j]
            if i < 0:
                rest.append(j)
            else:
                covered |= 1 << i
        p, rank, pivots = self.p, covered.bit_count(), []
        for j in rest:
            if rank == len(basis):
                break
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

    def delete_column(self, j):
        if not 0 <= j < self.ncols:
            raise ElementOutOfRange(f"column {j}")
        return GFMatrix._trusted(self.p, [r[:j] + r[j + 1 :] for r in self.rows])

    def contract_column(self, j):
        """Pivot column j out (projecting the others); a zero column is just dropped."""
        if not 0 <= j < self.ncols:
            raise ElementOutOfRange(f"column {j}")
        lead = next((i for i, row in enumerate(self.rows) if row[j]), None)
        if lead is None:
            return self.delete_column(j)
        p = self.p
        inv = pow(self.rows[lead][j], p - 2, p)
        lead_row = [(a * inv) % p for a in self.rows[lead]]
        rows = []
        for i, row in enumerate(self.rows):
            if i == lead:
                continue
            c = row[j]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, lead_row)]
            rows.append(row[:j] + row[j + 1 :])
        if not rows:
            # keep an explicit zero row so the column count survives
            rows = [[0] * (self.ncols - 1)]
        return GFMatrix._trusted(p, rows)
