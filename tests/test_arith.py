import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv.arith import (
    FactoredInteger,
    all_divisors,
    factor_integer,
    is_prime,
    mult_order,
    sieve_primes,
)
from recdiv.orderstats import _root_indices

from oracles import euler_phi


def _trial_is_prime(n: int) -> bool:
    # independent oracle: plain trial division
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def test_sieve_small_cases():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert sieve_primes(2) == [2]
    assert sieve_primes(1) == []
    assert sieve_primes(0) == []


def test_sieve_matches_trial_division_to_10k():
    primes = sieve_primes(10**4)
    oracle = [n for n in range(2, 10**4 + 1) if _trial_is_prime(n)]
    assert primes == oracle
    assert len(primes) == 1229


def test_sieve_matches_trial_division_at_every_limit_to_3000():
    # every limit, so a flag sieve off by one at either end shows
    oracle = []
    for n in range(3001):
        if _trial_is_prime(n):
            oracle.append(n)
        assert sieve_primes(n) == oracle, n


def test_sieve_counts_primes_to_1e6():
    assert len(sieve_primes(10**6)) == 78_498  # pi(10^6)


def test_is_prime_examples():
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael number, 3 * 11 * 17
    assert 3 * 11 * 17 == 561
    assert is_prime(104729)
    assert 104729 in sieve_primes(104729)  # the 10000th prime


def test_is_prime_agrees_with_sieve_membership():
    members = set(sieve_primes(10**4))
    for n in range(10**4 + 1):
        assert is_prime(n) == (n in members), n


def test_is_prime_matches_trial_division_to_30k():
    # crosses the lookup bound _TRIAL_BOUND = 10**4 into Miller-Rabin
    for n in range(-2, 3 * 10**4 + 1):
        assert is_prime(n) == _trial_is_prime(n), n


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime((2**31 - 1) * (2**19 - 1))


def test_factor_examples():
    assert factor_integer(12).factors == ((2, 2), (3, 1))
    assert factor_integer(1).factors == ()
    assert 101**2 - 1 == 10200
    assert factor_integer(10200).factors == ((2, 3), (3, 1), (5, 2), (17, 1))


def test_factor_rejects_out_of_range():
    with pytest.raises(ValueError):
        factor_integer(0)
    with pytest.raises(ValueError):
        factor_integer(2**64)


def test_factored_integer_validates():
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 1), (3, 1)))  # does not reassemble
    with pytest.raises(ValueError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # not ascending
    with pytest.raises(ValueError):
        FactoredInteger(16, ((4, 2),))  # 4 is not prime


def test_factor_roundtrip_bulk():
    # construction re-checks reassembly and per-factor primality
    rng = random.Random(20240817)
    for _ in range(10_000):
        n = rng.randrange(1, 2**48)
        assert factor_integer(n).value == n


def test_factor_hard_semiprime():
    p, q = 2147483647, 2147483629
    f = factor_integer(p * q)
    assert f.factors == ((q, 1), (p, 1))


def test_odd_prime_totients_match_factor_integer_to_2e5():
    # the order-stats index sieve splits the totient p - 1 of every odd prime
    # into order * index without factoring it; for base 2 every odd prime
    # qualifies, and each split must match mult_order over factor_integer(p - 1)
    rows = list(_root_indices([-2, 1], 2 * 10**5))
    assert [p for p, _, _ in rows] == sieve_primes(2 * 10**5)[1:]
    for p, root, index in rows:
        order = mult_order(2, p)
        assert (root, index) == (2, (p - 1) // order)


def test_mult_order_examples():
    # oracle for (2, 7): direct powers 2, 4, 1
    assert [pow(2, e, 7) for e in (1, 2, 3)] == [2, 4, 1]
    assert mult_order(2, 7) == 3
    assert mult_order(1, 101) == 1
    assert [pow(3, e, 7) for e in range(1, 7)] == [3, 2, 6, 4, 5, 1]
    assert mult_order(3, 7) == 6


def test_mult_order_zero_rejected():
    with pytest.raises(ValueError, match="zero has no multiplicative order"):
        mult_order(0, 7)
    with pytest.raises(ValueError, match="zero has no multiplicative order"):
        mult_order(14, 7)


_PRIMES_300 = sieve_primes(300)


@given(st.sampled_from(_PRIMES_300), st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_mult_order_divides_group_order_and_is_minimal(p, a):
    a %= p
    if a == 0:
        a = 1
    order = mult_order(a, p)
    assert (p - 1) % order == 0
    assert pow(a, order, p) == 1
    for q, _ in factor_integer(order).factors:
        assert pow(a, order // q, p) != 1


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=100, deadline=None)
def test_factor_roundtrip_property(n):
    f = factor_integer(n)
    prod = 1
    for q, e in f.factors:
        prod *= q**e
    assert prod == n


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_all_divisors():
    assert all_divisors(factor_integer(12)) == [1, 2, 3, 4, 6, 12]
    assert all_divisors(factor_integer(1)) == [1]
