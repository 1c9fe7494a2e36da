"""Deterministic text, JSON and LaTeX rendering of polynomials.

The text form lists terms by descending x-exponent, ties broken by ascending
y-exponent, e.g. ``x^3 + 3*x^2 + 2*x + 4*x*y + 2*y + 3*y^2 + y^3``.  The JSON
form is a list of ``[i, j, "coeff"]`` triples in ascending graded order
(total degree, then x-exponent); coefficients ride as strings so arbitrarily
large integers survive any JSON reader.  Output is byte-deterministic.
"""

from __future__ import annotations

import json


def _monomial(i, j, c, mulsign, power):
    """|c| x^i y^j, factors joined by mulsign, powers as power.format(var, k)."""
    parts = []
    if abs(c) != 1 or (i == 0 and j == 0):
        parts.append(str(abs(c)))
    if i:
        parts.append(power.format("x", i) if i > 1 else "x")
    if j:
        parts.append(power.format("y", j) if j > 1 else "y")
    return mulsign.join(parts)


def _render(p, mulsign, power):
    """Signed monomials by descending x-exponent, then ascending y-exponent."""
    out = []
    for (i, j), c in sorted(p.items(), key=lambda t: (-t[0][0], t[0][1])):
        if out:
            sign = "- " if c < 0 else "+ "
        else:
            sign = "-" if c < 0 else ""
        out.append(sign + _monomial(i, j, c, mulsign, power))
    return " ".join(out) if out else "0"


def to_text(p):
    return _render(p, "*", "{}^{}")


def json_terms(p):
    """Term triples [i, j, "coeff"] in ascending (i+j, i) order."""
    terms = sorted(p.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]))
    return [[i, j, str(c)] for (i, j), c in terms]


def to_json(p):
    return json.dumps({"terms": json_terms(p)})


def to_latex(p):
    return _render(p, "", "{}^{{{}}}")
