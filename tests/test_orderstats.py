from fractions import Fraction

import pytest

from recdiv.arith import mult_order, sieve_primes
from recdiv.orderstats import (
    OrderRow,
    artin_fraction,
    base_index_histogram,
    collect_order_rows,
    index_histogram,
    root_order_row,
)

from conftest import TRIB_POLY


def test_row_examples():
    # oracle: 2^3 == 1 mod 7, and 2 generates mod 11
    assert pow(2, 3, 7) == 1
    assert root_order_row([-2, 1], 7) == OrderRow(7, 2, 3, 2)
    assert sorted(pow(2, e, 11) for e in range(1, 11)) == list(range(1, 11))
    assert root_order_row([-2, 1], 11) == OrderRow(11, 2, 10, 1)
    assert root_order_row(TRIB_POLY, 5) is None  # no root mod 5
    assert root_order_row([-2, 1], 2) is None  # p = 2 carries no order data
    assert root_order_row([-7, 1], 7) is None  # root 0: p divides P(0)


def test_row_validation():
    with pytest.raises(ValueError):
        OrderRow(7, 2, 2, 3)  # 2 * 3 == p - 1 but 2^2 != 1 mod 7
    with pytest.raises(ValueError):
        OrderRow(7, 2, 3, 3)  # order * index != p - 1


def test_histogram_monotone_and_exhaustive():
    rows = collect_order_rows(TRIB_POLY, 3000)
    max_index = max(r.index for r in rows)
    grid = [1, 2, 4, 8, max_index]
    hist = index_histogram(TRIB_POLY, 3000, grid)
    fracs = [f for _, f in hist]
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1


def test_histogram_matches_direct_count_on_any_grid():
    rows = collect_order_rows(TRIB_POLY, 5000)
    max_index = max(r.index for r in rows)
    grids = ([16, 1, 4, 1], [0, max_index, 3, 3, 2], [max_index + 5, 7, 1, 1], [])
    for grid in grids:
        direct = [(c, Fraction(sum(r.index <= c for r in rows), len(rows))) for c in grid]
        assert index_histogram(TRIB_POLY, 5000, grid) == direct, grid


def test_histogram_requires_rows():
    with pytest.raises(ValueError, match="limit"):
        index_histogram(TRIB_POLY, 50, [1])
    # leading coefficient divisible by every prime in range: no rows at all
    primorial = 1
    for p in sieve_primes(100):
        primorial *= p
    with pytest.raises(ValueError, match="no qualifying"):
        index_histogram([1, primorial], 100, [1])


def test_artin_square_base_is_never_primitive():
    assert artin_fraction(4, 500) == 0


def test_artin_minus_one():
    # -1 has order 2, so it only generates for p = 3
    frac = artin_fraction(-1, 100)
    odd_primes = [p for p in sieve_primes(100) if p > 2]
    assert frac == Fraction(1, len(odd_primes))


def test_artin_small_value_against_direct_orders():
    # independent oracle: repeated multiplication instead of factored orders
    for a in (2, 3, -3, 10):
        hits = total = 0
        for p in sieve_primes(200):
            if p == 2 or a % p == 0:
                continue
            total += 1
            v, e = a % p, 1
            while v != 1:
                v = v * a % p
                e += 1
            if e == p - 1:
                hits += 1
        assert artin_fraction(a, 200) == Fraction(hits, total), a


def test_artin_equals_histogram_at_c_one():
    for a in (2, 3, 5, 10):
        assert artin_fraction(a, 1500) == index_histogram([-a, 1], 1500, [1])[0][1]


def test_rows_skip_ramified_and_leading(tribonacci):
    rows = collect_order_rows(TRIB_POLY, 1000)
    ps = {r.p for r in rows}
    assert 2 not in ps and 11 not in ps  # disc = -44
    for r in rows:
        assert mult_order(r.root, r.p) == r.order


def test_base_order_histogram(tribonacci):
    hist = base_index_histogram(tribonacci, 2000, [1, 2, 4, 8, 10**6])
    fracs = [f for _, f in hist]
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1


def test_index_one_is_sympy_primitive_root():
    # oracle: sympy's primitive-root test, an independent implementation
    sympy = pytest.importorskip("sympy")
    odd = sieve_primes(10**5)[1:]
    for coeffs, primes in (([-2, 1], odd), ([3, 1], [p for p in odd if p != 3])):
        rows = collect_order_rows(coeffs, 10**5)
        assert [r.p for r in rows] == primes, coeffs
        for r in rows:
            assert (r.index == 1) == sympy.is_primitive_root(r.root, r.p), (coeffs, r)
    rows = collect_order_rows(TRIB_POLY, 2 * 10**4)
    assert len(rows) > 1000
    for r in rows:
        assert (r.index == 1) == sympy.is_primitive_root(r.root, r.p), r
