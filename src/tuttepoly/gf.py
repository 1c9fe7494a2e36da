"""Matrices over prime fields GF(p), enough for linear matroids.

Column rank by Gaussian elimination is the rank oracle; deletion drops a
column and contraction pivots one out.  Entries are stored as residues, all
arithmetic is integer mod p, nothing ever leaves exact arithmetic.
"""

from __future__ import annotations

from .errors import ElementOutOfRange, InvalidParameters, NotPrimePower


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_power_root(q):
    """(p, k) with q = p**k, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m == 1:
                return (p, k)
            raise NotPrimePower(f"{q} is not a prime power")
    raise NotPrimePower(f"{q} is not a prime power")


class GFMatrix:
    """Immutable matrix over GF(p), p prime."""

    __slots__ = ("p", "nrows", "ncols", "rows", "cols")

    def __init__(self, p, rows):
        if not is_prime(p):
            raise NotPrimePower(f"{p} is not prime")
        rows = tuple(tuple(int(e) % p for e in row) for row in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise InvalidParameters("ragged matrix rows")
        else:
            w = 0
        self.p = p
        self.nrows = len(rows)
        self.ncols = w
        self.rows = rows
        self.cols = tuple(zip(*rows))

    def __repr__(self):
        return f"GFMatrix(p={self.p}, {self.nrows}x{self.ncols})"

    def __eq__(self, other):
        return (
            isinstance(other, GFMatrix)
            and self.p == other.p
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.rows))

    def column(self, j):
        if not 0 <= j < self.ncols:
            raise ElementOutOfRange(f"column {j}")
        return self.cols[j]

    def rank_of_columns(self, cols):
        """Rank of the submatrix on the given column indices."""
        p = self.p
        # eliminate into row-echelon form over the column vectors
        pivots = []  # (row position, reduced vector)
        rank = 0
        cols = iter(cols)
        for j in cols:
            v = self.column(j)
            for rpos, pv in pivots:
                c = v[rpos]
                if c:
                    v = [(a - c * b) % p for a, b in zip(v, pv)]
            lead = next((i for i, a in enumerate(v) if a), None)
            if lead is not None:
                inv = pow(v[lead], p - 2, p)
                v = [(a * inv) % p for a in v]
                pivots.append((lead, v))
                rank += 1
                if rank == self.nrows:  # full row rank: range-check the rest
                    for j in cols:
                        self.column(j)
        return rank

    def delete_column(self, j):
        if not 0 <= j < self.ncols:
            raise ElementOutOfRange(f"column {j}")
        return GFMatrix(
            self.p, [r[:j] + r[j + 1 :] for r in self.rows]
        )

    def contract_column(self, j):
        """Pivot column j out (projecting the others); a zero column is just dropped."""
        col = self.column(j)
        lead = next((i for i, a in enumerate(col) if a), None)
        if lead is None:
            return self.delete_column(j)
        p = self.p
        inv = pow(col[lead], p - 2, p)
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
        return GFMatrix(p, rows)


def standard_rep(p, r, appended_columns):
    """[I_r | A] over GF(p); appended_columns are the columns of A."""
    rows = []
    for i in range(r):
        row = [1 if j == i else 0 for j in range(r)]
        row += [col[i] for col in appended_columns]
        rows.append(row)
    return GFMatrix(p, rows)
