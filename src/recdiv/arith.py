"""Exact integer primitives: sieve, primality, factorization, multiplicative orders.

Everything in this module is deterministic. Primality is a lookup among the
sieved primes up to _TRIAL_BOUND and fixed Miller-Rabin witness sets above
it, exact for all n < 2**64. factor_integer runs trial division by small
primes followed by Brent-cycle Pollard rho with a fixed parameter schedule,
so repeated runs give identical results. factor_integer and mult_order
serve one prime at a time, such as the structural detector's base order;
the order statistics over every prime up to a bound factor no p - 1 (see
orderstats). Python integers are arbitrary precision, so intermediate
products never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

# Trial division bound used before switching to Pollard rho; is_prime looks
# n up among the sieved primes up to this bound.
_TRIAL_BOUND = 10_000
_MAX_FACTOR_INPUT = 2**64

# Deterministic Miller-Rabin witness tiers (published exact bounds).
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def prime_flags(limit: int) -> bytearray:
    """flags[n] == 1 exactly when n is prime, for 0 <= n <= limit (empty for limit < 2).

    One byte per integer: the order statistics read the primes from it
    straight into a machine-word array, with no list of Python ints.
    """
    if limit < 2:
        return bytearray()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return flags


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit in ascending order; empty for limit < 2."""
    return list(compress(range(limit + 1), prime_flags(limit)))


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2**64."""
    if n <= _TRIAL_BOUND:
        return n in _small_prime_set()
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _MR_TIERS:
        if n < bound:
            witnesses = bases
            break
    else:
        witnesses = _MR_TIERS[-1][1]
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its complete prime factorization.

    factors is an ascending tuple of (prime, exponent) pairs whose product
    reassembles to value; validated on construction.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("value must be positive")
        prod = 1
        prev = 1
        for q, e in self.factors:
            if e < 1 or q <= prev or not is_prime(q):
                raise ValueError(f"invalid factor list for {self.value}")
            prev = q
            prod *= q**e
        if prod != self.value:
            raise ValueError(f"factors do not reassemble to {self.value}")


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(sieve_primes(_TRIAL_BOUND))


@lru_cache(maxsize=1)
def _small_prime_set() -> frozenset[int]:
    return frozenset(_small_primes())


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of odd composite n, found with a fixed c schedule."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factor_integer(n: int) -> FactoredInteger:
    """Complete factorization of n, for 1 <= n < 2**64."""
    if not 1 <= n < _MAX_FACTOR_INPUT:
        raise ValueError(f"factor_integer supports 1 <= n < 2**64, got {n}")
    value = n
    found: dict[int, int] = {}
    for q in _small_primes():
        if q * q > n:
            break
        while n % q == 0:
            found[q] = found.get(q, 0) + 1
            n //= q
    if n > 1:
        _factor_into(n, found)
    return FactoredInteger(value, tuple(sorted(found.items())))


def mult_order(a: int, p: int) -> int:
    """Least e >= 1 with a**e == 1 mod p, for prime p and a not divisible by p."""
    a %= p
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    order = p - 1
    for q, _ in factor_integer(p - 1).factors:
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def all_divisors(f: FactoredInteger) -> list[int]:
    """All positive divisors of f.value, ascending."""
    divs = [1]
    for q, e in f.factors:
        divs = [d * q**i for d in divs for i in range(e + 1)]
    return sorted(divs)
