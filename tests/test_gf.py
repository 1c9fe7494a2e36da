"""Primality and prime-power roots of field orders."""

from __future__ import annotations

import time

import pytest

from tuttepoly import gf
from tuttepoly import matroids as mt
from tuttepoly.engines import tutte_subset
from tuttepoly.errors import (
    ElementOutOfRange,
    InvalidParameters,
    NotPrimePower,
    SizeBudgetExceeded,
)
from tuttepoly.gf import GFMatrix, is_prime, prime_power_root

M61 = 2**61 - 1
M89 = 2**89 - 1
PSI13 = 3_317_044_064_679_887_385_961_981  # strong pseudoprime to the bases up to 41


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [p for p in range(100_000) if is_prime(p)] == [
        p for p in range(100_000) if _trial_division(p)
    ]


@pytest.mark.parametrize("n", [
    2047,  # strong pseudoprime to base 2
    3215031751,  # to bases 2, 3, 5 and 7
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,  # Carmichael
    M61 * M89,  # above the exact range, but a base witnesses it
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_is_exact_below_its_bound_and_refuses_above():
    assert is_prime(M61)
    for n in (PSI13, M89):  # no base witnesses either
        with pytest.raises(SizeBudgetExceeded):
            is_prime(n)


@pytest.mark.parametrize("q, root", [
    (2, (2, 1)), (4, (2, 2)), (64, (2, 6)), (65536, (2, 16)), (65537, (65537, 1)),
    (3**40, (3, 40)), (M61**3, (M61, 3)),
])
def test_prime_power_root(q, root):
    assert prime_power_root(q) == root


@pytest.mark.parametrize("q", [0, 1, 6, 12, 36, 10**30, 6**100, 2**200 * 3, M61 * M89])
def test_prime_power_root_rejects_at_once(q):
    start = time.perf_counter()
    with pytest.raises(NotPrimePower):
        prime_power_root(q)
    assert time.perf_counter() - start < 1


def test_minors_do_not_test_the_modulus_again(monkeypatch):
    rows = [[1, 0, 0, 5, 17, 1], [0, 1, 0, 42, 3, 100], [0, 0, 1, 1, 73, 9]]
    m = mt.Linear(GFMatrix(101, rows))
    whole = tutte_subset(m)

    def refuse(p):
        raise AssertionError(f"is_prime({p}) called on a minor")

    monkeypatch.setattr(gf, "is_prime", refuse)
    for e in range(m.n):  # no element is a loop or a coloop
        deleted, contracted = mt.delete(m, e), mt.contract(m, e)
        assert tutte_subset(deleted) + tutte_subset(contracted) == whole, e
    monkeypatch.undo()
    with pytest.raises(NotPrimePower):
        GFMatrix(4, rows)


def test_ragged_rows_and_columns_out_of_range_are_refused():
    with pytest.raises(InvalidParameters):
        GFMatrix(2, [[1, 0], [1]])
    m = mt.Linear(GFMatrix(2, [[1, 0, 1]]))
    for j in (-1, 3):
        with pytest.raises(ElementOutOfRange):
            m.rank([j])
