"""Named-matroid corpus: recipes, published values, verification routes."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from tuttepoly import catalog as cat
from tuttepoly import engines as eng
from tuttepoly import families as fam
from tuttepoly import matroids as mt
from tuttepoly.bipoly import BiPoly, evaluate
from tuttepoly.errors import ParseError, UnknownEntry

from helpers import reference_recipe_tree

T_F7 = BiPoly({(3, 0): 1, (2, 0): 4, (1, 0): 3, (1, 1): 7,
               (0, 1): 3, (0, 2): 6, (0, 3): 3, (0, 4): 1})


# -- lookup ---------------------------------------------------------------------


def test_lookup_fano():
    assert cat.lookup("F7").ground_truth == T_F7


def test_lookup_r10_symmetric_degree_five():
    t = cat.lookup("R10").ground_truth
    assert t == t.swap()
    assert t.bidegree() == (5, 5)
    assert t.coeff(1, 1) == 30


def test_lookup_nonpappus_linear_terms():
    t = cat.lookup("nonPappus").ground_truth
    assert t.coeff(1, 0) == 13 and t.coeff(1, 1) == 8


def test_lookup_unknown():
    with pytest.raises(UnknownEntry):
        cat.lookup("F99")


def test_corpus_size():
    assert len(cat.names()) >= 45


# -- recipes --------------------------------------------------------------------


def test_every_recipe_builds():
    for name in cat.names():
        m = cat.build(name)
        entry = cat.lookup(name)
        truth = (entry.erratum["derived_truth"] if entry.erratum
                 else entry.ground_truth)
        assert evaluate(truth, 2, 2) == 2 ** m.n, name


def test_recipe_errors():
    with pytest.raises(ParseError):
        cat.build_recipe("os_system(1)")
    with pytest.raises(ParseError):
        cat.build_recipe("uniform(2, 4) extra")
    with pytest.raises(ParseError):
        cat.build_recipe("uniform(2,")
    with pytest.raises(ParseError):
        cat.build_recipe("3")
    with pytest.raises(ParseError):
        cat.build_recipe("relax(wheel_graph(3), [3,4,)")


# pieces of random recipes: constructor names, other words, integers,
# punctuation, Unicode space and a non-ASCII letter; no non-ASCII digit
_PIECES = ["uniform", "dual", "a1", "_", "\u00e9", "(", ")", "[", "]", ",",
           " ", "\t", "\u00a0", "-", "0", "7", "42", "-3", "007"]


def _random_recipe(rng, depth=0):
    roll = rng.random()
    if depth > 2 or roll < 0.4:
        return rng.choice(["0", "7", "42", "-3", "007"])
    args = rng.choice([",", ", ", " ,\t"]).join(
        _random_recipe(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    if roll < 0.6:
        return f"[{args}]"
    return rng.choice(["uniform", "dual", "a1", "_"]) + rng.choice(["", " "]) + f"({args})"


def _random_text(rng):
    """A random recipe with up to two random pieces spliced in, or a string
    of random pieces."""
    if rng.random() < 0.3:
        return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 12)))
    text = _random_recipe(rng)
    for _ in range(rng.choice([0, 0, 1, 2])):
        k = rng.randint(0, len(text))
        text = text[:k] + rng.choice(_PIECES) + text[k + rng.randint(0, 1):]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


def test_recipe_parser_matches_the_reference_on_random_strings():
    rng = random.Random(22)
    accepted = 0
    for _ in range(20000):
        text = _random_text(rng)
        tree = _outcome(cat._parse, text)
        assert tree == _outcome(reference_recipe_tree, text), text
        accepted += tree is not ParseError
    assert 5000 < accepted < 15000


def test_recipe_integers_are_ascii_decimals():
    # the reference read a non-ASCII digit as an integer
    assert reference_recipe_tree("dual(\u0663)") == ("call", "dual", [("int", 3)])
    for text in ("dual(\u0663)", "uniform(2, \u00b2)", "uniform(1_0, 12)",
                 "uniform(0x4, 5)", "uniform(2, 4,)", "uniform(+2, 4)"):
        with pytest.raises(ParseError):
            cat._parse(text)


def test_every_recipe_reads_as_the_reference_does():
    for name in cat.names():
        recipe = cat.lookup(name).recipe
        tree = reference_recipe_tree(recipe)
        assert cat._parse(recipe) == tree, name
        m, ref = cat.build(name), cat._eval(tree)
        assert type(m) is type(ref) and m.n == ref.n, name
        assert all(m._rank(s) == ref._rank(s) for s in range(1 << m.n)), name


def test_malformed_recipe_runs_no_constructor(monkeypatch):
    calls = []
    monkeypatch.setattr(cat, "_CONSTRUCTORS", {
        name: lambda *args, name=name: calls.append(name)
        for name in cat._CONSTRUCTORS})
    for text in ("relax(uniform(2, 4), [9]) x", "relax(uniform(2, 4), [9)",
                 "dual(dual(uniform(2, 4))"):
        with pytest.raises(ParseError):
            cat.build_recipe(text)
    assert calls == []


# -- verification ----------------------------------------------------------------


def test_verify_q6_five_routes():
    report = cat.verify("Q6")
    assert sorted(report["routes"]) == [
        "engine:activities", "engine:dc", "engine:subset",
        "family:free-ext", "family:sparse-paving"]
    assert report["routes_agree"] and report["matches_truth"]


def test_verify_s8_and_u24():
    for name in ("S8", "U24"):
        report = cat.verify(name)
        assert report["ok"] and report["matches_truth"]
        assert len(report["routes"]) >= 3


def test_equal_pairs():
    assert cat.lookup("Q6").ground_truth == cat.lookup("R6").ground_truth
    assert cat.lookup("R8").ground_truth == cat.lookup("F8").ground_truth


def test_dual_pairs_swap():
    for a, b in [("F7", "F7dual"), ("F7minus", "F7minusdual"), ("U25", "U35")]:
        assert cat.lookup(a).ground_truth.swap() == cat.lookup(b).ground_truth


def test_self_dual_flags():
    flagged = {n for n in cat.names() if cat.lookup(n).flags["self_dual"]}
    assert flagged == {"S8", "T8", "J", "V8", "V8plus", "R10"}
    for name in flagged:
        t = cat.lookup(name).ground_truth
        assert t == t.swap()


def test_sparse_paving_flag_is_structural():
    assert cat.lookup("V8").flags["sparse_paving"]
    assert cat.lookup("PG23").flags["paving"]
    assert not cat.lookup("PG23").flags["sparse_paving"]
    assert not cat.lookup("S8").flags["paving"]
    assert cat.lookup("R9").flags["paving"]


def test_basis_count_sample():
    for name in ("F7", "K5", "V8", "S5_6_12", "catalanM3", "H"):
        entry = cat.lookup(name)
        m = cat.build(name)
        assert evaluate(entry.ground_truth, 1, 1) == len(mt.bases(m)), name


def test_verify_compares_basis_count(monkeypatch):
    # only the catalog's view of bases loses one; the engine routes still agree
    short = SimpleNamespace(**vars(mt))
    short.bases = lambda m: mt.bases(m)[1:]
    monkeypatch.setattr(cat, "mt", short)
    report = cat.verify("F7")
    assert report["routes_agree"] and report["matches_truth"]
    assert report["ok"] is False


# -- the flagged misprint ----------------------------------------------------------


def test_q8_erratum_report():
    entry = cat.lookup("Q8")
    assert entry.erratum is not None
    derived = entry.erratum["derived_truth"]
    assert derived == fam.sparse_paving(4, 8, 11)
    assert derived == fam.relax_poly(cat.lookup("R8").ground_truth)
    printed = entry.ground_truth
    assert {k: v for k, v in printed.items() if k not in ((1, 0), (0, 1))} == \
        {k: v for k, v in derived.items() if k not in ((1, 0), (0, 1))}
    assert printed.coeff(1, 0) == 7 and derived.coeff(1, 0) == 9
    assert evaluate(printed, 2, 2) != 2 ** 8
    report = cat.verify("Q8")
    assert report["routes_agree"]
    assert not report["matches_truth"]
    assert report["erratum_confirmed"] and report["ok"]


def test_q8_is_the_only_erratum():
    assert [n for n in cat.names() if cat.lookup(n).erratum] == ["Q8"]


# -- printed side checks -----------------------------------------------------------


def test_r10_single_element_minors():
    m = cat.build("R10")
    t_k33 = cat.lookup("K33").ground_truth
    for e in range(m.n):
        assert eng.tutte_subset(mt.delete(m, e)) == t_k33
        assert eng.tutte_subset(mt.contract(m, e)) == t_k33.swap()


def test_j_splits_into_sparse_paving_plus_doubled_cycle():
    m = cat.build("J")
    t_j = cat.lookup("J").ground_truth
    target = fam.sparse_paving(4, 7, 5)
    split_elems = [e for e in range(m.n)
                   if eng.tutte_subset(mt.delete(m, e)) == target]
    assert split_elems
    e = split_elems[0]
    assert eng.tutte_subset(mt.delete(m, e)) + eng.tutte_subset(
        mt.contract(m, e)) == t_j


def test_s8_minor_split():
    m = cat.build("S8")
    t_h = cat.lookup("H").ground_truth
    hits = [e for e in range(m.n)
            if eng.tutte_subset(mt.contract(m, e)) == T_F7
            and eng.tutte_subset(mt.delete(m, e)) == t_h]
    assert hits


def test_verify_all_smoke():
    reports = cat.verify_all(["W3", "AG23", "R12", "Q8"])
    assert all(r["ok"] for r in reports)
