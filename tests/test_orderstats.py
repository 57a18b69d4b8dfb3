from fractions import Fraction

import pytest

from recdiv.arith import mult_order, sieve_primes
from recdiv.charpoly import discriminant
from recdiv.fppoly import fp_root
from recdiv.orderstats import MAX_LIMIT, artin_fraction, index_histogram
from recdiv.orderstats import _root_indices

from conftest import TRIB_POLY


def root_index(coeffs, p: int) -> tuple[int, int, int] | None:
    """Per-prime oracle: (p, smallest root mod p, its index), or None.

    The order comes from mult_order over a factored p - 1, not from the
    prime-power sieve. None at p = 2, where P has no root mod p, or where
    the root is 0; the caller screens out primes dividing the discriminant.
    """
    if p == 2:
        return None
    root = fp_root(coeffs, p)
    if root is None or root == 0:
        return None
    return p, root, (p - 1) // mult_order(root, p)


def _oracle_rows(coeffs, limit: int) -> list[tuple[int, int, int]]:
    disc = discriminant(coeffs) if len(coeffs) > 2 else 1
    rows = (root_index(coeffs, p) for p in sieve_primes(limit) if disc % p)
    return [r for r in rows if r is not None]


def _rows(coeffs, limit: int) -> list[tuple[int, int, int]]:
    return list(_root_indices(coeffs, limit))


def test_row_examples():
    # oracle: 2^3 == 1 mod 7, and 2 generates mod 11
    assert pow(2, 3, 7) == 1
    assert sorted(pow(2, e, 11) for e in range(1, 11)) == list(range(1, 11))
    rows = {row[0]: row for row in _rows([-2, 1], 11)}
    assert rows[7] == (7, 2, 2)  # order 3
    assert rows[11] == (11, 2, 1)  # order 10
    assert 2 not in rows  # p = 2 carries no order data
    assert 5 not in {p for p, _, _ in _rows(TRIB_POLY, 11)}  # no root mod 5
    assert 7 not in {p for p, _, _ in _rows([-7, 1], 11)}  # root 0: p divides P(0)
    # the root 1 of x - 1 has index 2 at p = 3, below every 2q + 1 for odd q
    assert _rows([-1, 1], 3) == [(3, 1, 2)]


# x - 2, x + 3, x - 6, Tribonacci (up to three roots mod p), x^3 - 2, and
# x + 1, whose root -1 has index (p - 1) / 2: at p = 2q + 1 only the test at
# q finds it
ORACLE_POLYS = ([-2, 1], [3, 1], [-6, 1], TRIB_POLY, [-2, 0, 0, 1], [1, 1])


@pytest.mark.parametrize("coeffs", ORACLE_POLYS)
@pytest.mark.parametrize("limit", [3, 4, 5, 7, 100, 101, 102, 103, 107, 2 * 10**4, 65521])
def test_sieved_rows_match_per_prime_orders(coeffs, limit):
    # limits around 2q + 1, where the sieve stops taking primes q, and around primes
    assert _rows(coeffs, limit) == _oracle_rows(coeffs, limit)


@pytest.mark.parametrize("coeffs", ([-2, 1], [-6, 1], TRIB_POLY, [1, 1]))
@pytest.mark.parametrize("q", [3, 5, 7])
def test_rows_match_per_prime_orders_where_the_sieve_stops(coeffs, q):
    # the level at q runs only while 2q < limit: at limit 2q it is skipped,
    # at 2q + 1 and 2q + 2 it must run. 2q + 1 is prime for q = 3 and 5, and
    # there the root -1 of x + 1 has index q
    for limit in (2 * q, 2 * q + 1, 2 * q + 2):
        assert _rows(coeffs, limit) == _oracle_rows(coeffs, limit), limit


# x - a for bases that exercise the q = 2 classes mod 4|a|: -1 and 2 the
# mod-4 and mod-8 characters, perfect squares a single square class; then
# x - 6, x + 18 and x - 35, whose moduli 24, 72 and 140 mix the mod-8
# character with odd primes, and a base so large that every prime up to the
# limit is its own class
LINEAR_POLYS = (
    *([-a, 1] for a in (1, -1, 2, -2, 3, -3, 4, -4, 9, 10, 12, 16, 27)),
    [-6, 1], [18, 1], [-35, 1],
    [-1_000_003, 1],
)


@pytest.mark.parametrize("coeffs", LINEAR_POLYS)
@pytest.mark.parametrize("limit", [3, 4, 5, 7, 100, 101, 103, 2 * 10**4])
def test_linear_rows_match_per_prime_orders(coeffs, limit):
    # the formula root and the class-memo q = 2 level against fp_root and mult_order
    assert _rows(coeffs, limit) == _oracle_rows(coeffs, limit)


def test_limit_above_cap_is_rejected_before_the_sieve(monkeypatch):
    import recdiv.orderstats

    def no_sieve(*args):
        raise AssertionError("sieved before rejecting the limit")

    monkeypatch.setattr(recdiv.orderstats, "prime_flags", no_sieve)
    for call in (
        lambda: _rows([-2, 1], MAX_LIMIT + 1),
        lambda: index_histogram(TRIB_POLY, MAX_LIMIT + 1, [1]),
        lambda: artin_fraction(2, MAX_LIMIT + 1),
    ):
        with pytest.raises(ValueError, match=f"at most {MAX_LIMIT}"):
            call()


def test_oracle_limit_reaches_prime_power_indices():
    # q^k with k >= 2 divides the index at some p == 1 mod 8, 9 and 25 below 2e4
    indices = [k for coeffs in ORACLE_POLYS for _, _, k in _rows(coeffs, 2 * 10**4)]
    for qk in (4, 8, 9, 25):
        assert any(k % qk == 0 for k in indices), qk


def test_histogram_monotone_and_exhaustive():
    max_index = max(k for _, _, k in _rows(TRIB_POLY, 3000))
    grid = [1, 2, 4, 8, max_index]
    hist = index_histogram(TRIB_POLY, 3000, grid)
    fracs = [f for _, f in hist]
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1


def test_histogram_matches_direct_count_on_any_grid():
    indices = [k for _, _, k in _rows(TRIB_POLY, 5000)]
    max_index = max(indices)
    grids = ([16, 1, 4, 1], [0, max_index, 3, 3, 2], [max_index + 5, 7, 1, 1], [])
    for grid in grids:
        direct = [(c, Fraction(sum(k <= c for k in indices), len(indices))) for c in grid]
        assert index_histogram(TRIB_POLY, 5000, grid) == direct, grid


def test_histogram_requires_rows():
    with pytest.raises(ValueError, match="limit"):
        index_histogram(TRIB_POLY, 50, [1])
    # x - a with a divisible by every prime in range: the root is 0 at each
    # one, so no rows at all
    primorial = 1
    for p in sieve_primes(100):
        primorial *= p
    with pytest.raises(ValueError, match="no qualifying"):
        index_histogram([-primorial, 1], 100, [1])


def test_artin_square_base_is_never_primitive():
    assert artin_fraction(4, 500) == 0
    assert artin_fraction(2, 2) == Fraction(0, 1)  # no odd prime, no root index


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
    rows = _rows(TRIB_POLY, 1000)
    ps = {p for p, _, _ in rows}
    assert 2 not in ps and 11 not in ps  # disc = -44
    for p, root, k in rows:
        assert mult_order(root, p) == (p - 1) // k


def test_index_one_is_sympy_primitive_root():
    # oracle: sympy's primitive-root test, an independent implementation
    sympy = pytest.importorskip("sympy")
    odd = sieve_primes(10**5)[1:]
    for a in (2, -3, 3, 5, -2, 10):
        rows = _rows([-a, 1], 10**5)
        assert [p for p, _, _ in rows] == [p for p in odd if a % p], a
        for p, root, k in rows:
            assert (k == 1) == sympy.is_primitive_root(root, p), (a, p)
    rows = _rows(TRIB_POLY, 2 * 10**4)
    assert len(rows) > 1000
    for p, root, k in rows:
        assert (k == 1) == sympy.is_primitive_root(root, p), p
