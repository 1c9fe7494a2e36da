"""Deterministic text, JSON and LaTeX rendering of polynomials.

The text form lists terms by descending x-exponent, ties broken by ascending
y-exponent, e.g. ``x^3 + 3*x^2 + 2*x + 4*x*y + 2*y + 3*y^2 + y^3``.  The JSON
form is a list of ``[i, j, "coeff"]`` triples in ascending graded order
(total degree, then x-exponent); coefficients ride as strings so arbitrarily
large integers survive any JSON reader.  Output is byte-deterministic.
"""

from __future__ import annotations

import json


def _text_key(term):
    (i, j), _ = term
    return (-i, j)


def _monomial_text(i, j, c, mulsign, xname="x", yname="y"):
    parts = []
    if abs(c) != 1 or (i == 0 and j == 0):
        parts.append(str(abs(c)))
    if i:
        parts.append(f"{xname}^{i}" if i > 1 else xname)
    if j:
        parts.append(f"{yname}^{j}" if j > 1 else yname)
    return mulsign.join(parts)


def _join_signed(rendered):
    out = []
    for c, body in rendered:
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def to_text(p):
    terms = sorted(p.items(), key=_text_key)
    if not terms:
        return "0"
    return _join_signed(
        [(c, _monomial_text(i, j, c, "*")) for (i, j), c in terms]
    )


def json_terms(p):
    """Term triples [i, j, "coeff"] in ascending (i+j, i) order."""
    terms = sorted(p.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]))
    return [[i, j, str(c)] for (i, j), c in terms]


def to_json(p):
    return json.dumps({"terms": json_terms(p)})


def to_latex(p):
    terms = sorted(p.items(), key=_text_key)
    if not terms:
        return "0"

    def braced(i, j, c):
        parts = []
        if abs(c) != 1 or (i == 0 and j == 0):
            parts.append(str(abs(c)))
        if i:
            parts.append(f"x^{{{i}}}" if i > 1 else "x")
        if j:
            parts.append(f"y^{{{j}}}" if j > 1 else "y")
        return "".join(parts)

    return _join_signed([(c, braced(i, j, c)) for (i, j), c in terms])
