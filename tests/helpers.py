"""Shared test helpers, imported by the test modules of this directory."""

from __future__ import annotations

from tuttepoly.gf import GFMatrix


def standard_rep(p, r, appended_columns):
    """[I_r | A] over GF(p); appended_columns are the columns of A."""
    rows = []
    for i in range(r):
        row = [1 if j == i else 0 for j in range(r)]
        row += [col[i] for col in appended_columns]
        rows.append(row)
    return GFMatrix(p, rows)
