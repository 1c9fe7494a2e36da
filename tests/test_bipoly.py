from __future__ import annotations

import operator
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tuttepoly
from tuttepoly import bipoly
from tuttepoly.bipoly import (
    BiPoly,
    X,
    Y,
    _from_corank_nullity,
    _newton_form,
    _Packing,
    _taylor_shift,
    exact_div,
    subst_rational,
)
from tuttepoly.errors import NonExactDivision
from tuttepoly.render import json_terms, to_latex, to_text

coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=0, max_value=5)
polys = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=8).map(BiPoly)
points = st.tuples(
    st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)
)


def test_zero_terms_dropped():
    p = BiPoly({(1, 0): 0, (0, 0): 3})
    assert p.terms() == {(0, 0): 3}
    assert BiPoly({(2, 1): 5}) - BiPoly({(2, 1): 5}) == BiPoly.zero()


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})
    with pytest.raises(TypeError):
        BiPoly({(0, 0): 1.5})


def test_cancelling_keys_and_the_zero_constant():
    assert BiPoly([((1, 0), 2), ((0, 0), 1), ((1, 0), -2)]) == 1
    assert BiPoly.const(0) is BiPoly.zero()


def test_power_wants_a_nonnegative_int():
    for n in (-1, 1.5):
        with pytest.raises(ValueError):
            X**n


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_foreign_operands_are_refused(op):
    for a, b in ((X, 1.5), (1.5, X), (X, "x")):
        with pytest.raises(TypeError):
            op(a, b)


def test_exact_div_wants_bipoly_arguments():
    for p, d in ((X, 1), (1, X)):
        with pytest.raises(TypeError):
            exact_div(p, d)


def test_basic_algebra():
    p = (X + 1) * (Y + 1)
    assert p == BiPoly({(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    assert p.scale(0) == BiPoly.zero()
    assert (X**0) == BiPoly.one()


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p + BiPoly.zero() == p
    assert p * BiPoly.one() == p


@given(polys, points)
@settings(max_examples=60)
def test_eval_is_ring_hom(p, pt):
    x, y = pt
    q = p * p + p
    assert q.eval(x, y) == p.eval(x, y) ** 2 + p.eval(x, y)


def test_eval_zero_power_zero():
    # 0**0 := 1, so the constant term survives evaluation at the origin
    p = BiPoly({(0, 0): 7, (1, 0): 3, (0, 2): 4})
    assert p.eval(0, 0) == 7
    assert p.eval(Fraction(1, 2), 0) == Fraction(17, 2)


@given(polys, polys)
@settings(max_examples=60)
def test_exact_div_roundtrip(p, q):
    if q.is_zero():
        with pytest.raises(NonExactDivision):
            exact_div(p, q)
    else:
        assert exact_div(p * q, q) == p


def test_exact_div_rejects_remainder():
    with pytest.raises(NonExactDivision):
        exact_div(X + 1, Y)
    with pytest.raises(NonExactDivision):
        exact_div(BiPoly.const(3), BiPoly.const(2))


def test_subst_rational_matches_fraction_eval():
    p = X**2 * Y + 3 * X + 2
    # x -> (x+1)/2, y -> y/(y+1), cleared by 4*(y+1)
    got = subst_rational(p, X + 1, BiPoly.const(2), Y, Y + 1, BiPoly.const(4) * (Y + 1))
    for xv in (0, 1, 2, -3):
        for yv in (0, 1, 5):
            want = p.eval(Fraction(xv + 1, 2), Fraction(yv, yv + 1)) * 4 * (yv + 1)
            assert got.eval(xv, yv) == want


def test_subst_rational_raises_when_not_polynomial():
    with pytest.raises(NonExactDivision):
        subst_rational(X, BiPoly.one(), Y + 1, Y, BiPoly.one())


def test_subst_identity():
    p = (X + 2 * Y) ** 3
    assert subst_rational(p, X, BiPoly.one(), Y, BiPoly.one()) == p


def test_text_rendering_order_and_omissions():
    p = BiPoly(
        {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4, (0, 1): 2, (0, 2): 3, (0, 3): 1}
    )
    assert to_text(p) == "x^3 + 3*x^2 + 2*x + 4*x*y + 2*y + 3*y^2 + y^3"
    assert to_text(BiPoly.zero()) == "0"
    assert to_text(BiPoly.const(-5) + X) == "x - 5"
    assert to_text(BiPoly.one()) == "1"


def test_json_terms_graded_order():
    p = X**2 + X * Y + Y**2 + 3 * X + 1
    assert json_terms(p) == [
        [0, 0, "1"],
        [1, 0, "3"],
        [0, 2, "1"],
        [1, 1, "1"],
        [2, 0, "1"],
    ]


def test_latex_rendering():
    p = X**2 * Y + 2 * X - Y**3
    assert to_latex(p) == "x^{2}y + 2x - y^{3}"


@given(st.dictionaries(st.tuples(exps, exps), coeffs, max_size=8))
def test_corank_nullity_expansion_matches_term_products(counts):
    # the per-term product the Taylor shift replaced, as the reference
    expected = BiPoly.zero()
    for (z, nl), c in counts.items():
        expected = expected + ((X - 1) ** z * (Y - 1) ** nl).scale(c)
    assert _from_corank_nullity(counts) == expected


@given(
    st.lists(st.dictionaries(exps, coeffs, max_size=3), max_size=6),
    st.lists(st.integers(min_value=-3, max_value=5), min_size=6, max_size=6),
)
@example([{0: 1}, {2: -3, 0: 0}, {1: 2}, {}, {0: -1}, {4: 5}], [0, 0, 2, 2, -1, 3])
def test_newton_form_matches_bipoly_products(weights, roots):
    # sum_m w_m(t) prod_{i<m} (lambda - roots[i]) with lambda = X and t = Y
    expected, prod = BiPoly.zero(), BiPoly.one()
    for w, c in zip(weights, roots):
        expected = expected + BiPoly({(0, j): a for j, a in w.items()}) * prod
        prod = prod * (X - c)
    assert _newton_form([w.items() for w in weights], roots) == expected


def _untrimmed_shift(a):
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            a[k] -= a[k + 1]
    return a


@given(st.lists(coeffs, max_size=6), st.integers(min_value=0, max_value=4))
def test_taylor_shift_of_a_zero_tail_matches_the_untrimmed_shift(head, zeros):
    a = head + [0] * zeros
    assert _taylor_shift(list(a)) == _untrimmed_shift(list(a))


@given(st.dictionaries(st.tuples(exps, exps), coeffs, max_size=4))
def test_zero_tailed_histograms_match_the_untrimmed_shift(counts):
    # few cells in a table up to 5 x 5: most rows and columns end in zeros
    counts[(5, 0)] = counts[(0, 5)] = 1
    trimmed = _from_corank_nullity(counts)
    with mock.patch.object(bipoly, "_taylor_shift", _untrimmed_shift):
        assert _from_corank_nullity(counts) == trimmed


def test_hash_length_truth_and_int_equality():
    p = X + 2
    assert hash(p) == hash(BiPoly({(0, 0): 2, (1, 0): 1})) and len({p, X + 2}) == 1
    assert len(p) == 2 and p and not BiPoly.zero()
    assert BiPoly.zero() == 0 and BiPoly({(0, 0): 5}) == 5
    assert p != 2 and X != 0 and p != "x + 2"


@pytest.mark.parametrize("bound", [1, 255, 256, 2**64, comb(60, 30)])
def test_packed_slots_hold_their_bound(bound):
    # every slot at the bound, beside neighbours at the bound, unpacks intact
    pk = _Packing(3, bound)
    full = {(i, j): bound for i in range(3) for j in range(4)}
    v = sum(c << i * pk.x + j * pk.y for (i, j), c in full.items())
    assert pk.unpack(v) == full
    ones = pk.geom(pk.x, 3) * pk.geom(pk.y, 4)  # (1 + x + x^2)(1 + y + y^2 + y^3)
    assert pk.unpack(ones) == dict.fromkeys(full, 1)
    assert pk.unpack(ones * bound) == full


@pytest.mark.parametrize("width", range(1, 10))
def test_unpack_round_trips_every_slot_width(monkeypatch, width):
    # slots of 1 to 9 bytes, empty, at 1 and at the bound, with the top slot
    # at the bound: the native cast (1, 2, 4 or 8 bytes), the widened cast
    # (3, 5, 6, 7) and the sliced bytes (9, or a big-endian host) agree
    bound = (1 << 8 * width) - 1
    pk = _Packing(2, bound)
    assert pk.y == 8 * width
    terms = {(i, j): (0, 1, bound)[(i + 2 * j) % 3] for i in range(3) for j in range(3)}
    terms[2, 2] = bound
    v = sum(c << i * pk.x + j * pk.y for (i, j), c in terms.items())
    expected = {k: c for k, c in terms.items() if c}
    assert pk.unpack(v) == expected
    assert pk.unpack(0) == {}
    monkeypatch.setattr(_Packing, "formats", {})
    assert pk.unpack(v) == expected


def test_every_exported_name_resolves():
    assert all(hasattr(tuttepoly, name) for name in tuttepoly.__all__)
