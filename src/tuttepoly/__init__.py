"""Exact Tutte polynomial toolkit.

Computes Tutte polynomials of graphs and matroids with integer-exact
arithmetic, through several independent general algorithms and a library of
closed-form families, all cross-checked against a verified catalog of named
matroids.
"""

from .bipoly import BiPoly, X, Y

__all__ = ["BiPoly", "X", "Y"]

__version__ = "0.1.0"
