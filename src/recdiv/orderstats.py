"""Multiplicative order statistics of polynomial roots over primes.

For each prime where the polynomial has a root mod p, `_root_indices`
finds the smallest root and its index (p-1)/order. `index_histogram`, what
`order-stats` prints, is the empirical counterpart of the
almost-maximal-order phenomenon; the primitive-root fraction for a fixed
integer base a is the classical calibration target (roughly 0.374 for base
2). It is the share of the primes where the root a of x - a has index 1.
The index of the structural base G is not computed here: a sweep records
it per prime, in the `index_G` column.

p = 2 is skipped everywhere here: its unit group is trivial, so a root at 2
carries no order information, and skipping it keeps the base-a fraction and
the histogram of x - a in exact agreement.

A run over all primes up to a limit factors no p - 1. It sieves the index
over prime powers instead: in the cyclic group F_p^*, q^k divides the index
of a root r exactly when r^((p-1)/q^k) == 1. So for each prime q, one power
test per root at each p == 1 mod q decides whether q divides the index, and
only the roots that pass go on to the test at q^(k+1). The loop counts
the primes q it sieves and raises unless they are 2 and every q with
2q < limit: a skipped q would leave indices too small, which the row
checks (order times index is p - 1, root^order is 1) cannot see.

The working set is kept in machine-word arrays, since a run's memory, not
its time, caps the limit (MAX_LIMIT): a list of Python ints costs about
36 bytes per entry, an array("I") 4. The primes up to the limit are an
array("I") read straight from arith.prime_flags; roots and indices are two
flat array("I") indexed by p >> 1; the primes of each deeper level (q^2,
q^3, ...) are an array("I"). The level at an odd q, the p == 1 mod 2q, sits
at every q-th entry of roots, so it is read through a strided memoryview
of roots rather than a copied slice. `order-stats --base 2` peaks at
20.6 MB RSS at 1e6 and at 58.2 MB at the 1e7 cap (README, Guards).

Every polynomial here is monic, as every command builds it; a linear one
is x - a, as for every fixed base a. It has the one root a mod p at each
prime, so its roots are filled from that formula. Its test at q = 2 mostly
reuses answers: by quadratic reciprocity the Legendre symbol (a/p) depends
only on p mod 4|a|: (-1/p) on p mod 4, (2/p) on p mod 8, and (m/p) for odd
m on p mod 4|m|. One power at the first prime of each class decides the
whole class. The modulus must be 4|a|, not 2|a|: for a = 2, p = 3 and
p = 7 share a class mod 4, yet 2 is a square mod 7 only. Once 4|a| reaches
the limit no two primes share a class, so that level keeps one power per
prime. The deeper 2-power levels and every odd q are tested per prime as
above.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, compress, islice

from .arith import prime_flags
from .charpoly import _disc, _ipoly
from .fppoly import fp_root

MIN_LIMIT = 100  # the smallest prime bound index_histogram accepts
MAX_LIMIT = 10**7  # the largest prime bound: memory grows with it (README, Guards)


class NoQualifyingPrimes(ValueError):
    """No prime up to the limit has a root index, so there is nothing to count."""


def _histogram(counts: Counter, c_grid) -> list[tuple[int, Fraction]]:
    if not counts:
        raise NoQualifyingPrimes("no qualifying primes")
    indices = sorted(counts)
    at_most = [0, *accumulate(counts[i] for i in indices)]  # [k]: index <= indices[k - 1]
    total = at_most[-1]
    return [(c, Fraction(at_most[bisect_right(indices, c)], total)) for c in c_grid]


def _square_roots(poly, roots, level, limit: int) -> Iterator[int]:
    """The primes p of level whose root is a square mod p, in level's order.

    Euler's criterion decides each: r is a square when r^((p-1)/2) == 1.
    For x - a, the class of p mod 4|a| decides it (module docstring), so
    below the limit one power per class is taken and reused.
    """
    classes = 4 * abs(poly[0]) if len(poly) == 2 else limit
    if classes >= limit:  # no two primes up to the limit share a class
        yield from (p for p in level if pow(roots[p >> 1], p >> 1, p) == 1)
        return
    square = {}  # class -> whether the root is a square there
    for p in level:
        c = p % classes
        s = square.get(c)
        if s is None:
            s = square[c] = pow(roots[p >> 1], p >> 1, p) == 1
        if s:
            yield p


def _root_indices(coeffs, limit: int) -> Iterator[tuple[int, int, int]]:
    """(p, root, index) at each qualifying prime up to limit, ascending.

    The polynomial must be monic and nonconstant. A prime qualifies when it
    is odd, does not divide the discriminant, and the polynomial has a
    nonzero root mod p; root is the smallest one, and x - a has the one
    root a. roots[p >> 1] holds it, or 0 where p does not qualify. Each row
    is checked before it is yielded: order times index must equal p - 1,
    and root^order must be 1 mod p.
    """
    poly = _ipoly(coeffs)
    if len(poly) < 2 or poly[-1] != 1:
        raise ValueError(f"need a monic polynomial of degree >= 1, got {poly}")
    if limit > MAX_LIMIT:
        raise ValueError(f"limit must be at most {MAX_LIMIT}, got {limit}")
    primes = array("I", compress(range(limit + 1), prime_flags(limit)))
    roots = array("I", [0]) * (limit // 2 + 1)
    if len(poly) == 2:  # the one root a of x - a, 0 where p divides a
        a = -poly[0]
        for p in islice(primes, 1, None):
            roots[p >> 1] = a % p
    else:
        disc = _disc(poly)
        for p in islice(primes, 1, None):
            if disc % p:
                roots[p >> 1] = fp_root(poly, p) or 0
    index = array("I", [1]) * len(roots)
    odd = range(1, limit + 1, 2)
    by_half = memoryview(roots)
    levels = 0  # the primes q whose levels were sieved
    for q in primes:
        # hits: the primes of the level at q^k whose root is a q^k-th power
        if q == 2:
            hits = _square_roots(poly, roots, compress(odd, roots), limit)
        elif 2 * q < limit:  # the least odd p == 1 mod q is 2q + 1
            # the p == 1 mod 2q sit at p >> 1 = 0, q, 2q, ...: a strided view, not a copy
            level = compress(odd[::q], by_half[::q])
            hits = (p for p in level if pow(roots[p >> 1], (p - 1) // q, p) == 1)
        else:
            break
        levels += 1
        qk = q
        while True:
            qk *= q
            level = array("I")
            for p in hits:
                index[p >> 1] *= q
                if (p - 1) % qk == 0:
                    level.append(p)
            if not level:
                break
            hits = array("I", (p for p in level if pow(roots[p >> 1], (p - 1) // qk, p) == 1))
    # q = 2 and every q with a p == 1 mod 2q up to the limit must have been
    # sieved (module docstring)
    if levels != bisect_right(primes, max(2, (limit - 1) // 2)):
        raise RuntimeError(f"the index sieve of {poly} to {limit} skipped a prime q")
    for p in compress(odd, roots):
        root = roots[p >> 1]
        k = index[p >> 1]
        order = (p - 1) // k
        if order * k != p - 1 or pow(root, order, p) != 1:
            raise RuntimeError(f"root {root} of {poly} mod p={p} does not have index {k}")
        yield p, root, k


def index_histogram(coeffs, limit: int, c_grid) -> list[tuple[int, Fraction]]:
    """For each C in the grid, the fraction of qualifying primes with index <= C.

    Fractions are exact and nondecreasing in C, reaching 1 once C passes
    the largest observed index.
    """
    if limit < MIN_LIMIT:
        raise ValueError(f"limit must be at least {MIN_LIMIT}")
    return _histogram(Counter(k for _, _, k in _root_indices(coeffs, limit)), c_grid)


def artin_fraction(a: int, limit: int) -> Fraction:
    """Fraction of odd primes p <= limit, p not dividing a, where a generates F_p^*.

    These are the root indices of x - a equal to 1; 0 when no prime qualifies.
    """
    indices = [k for _, _, k in _root_indices([-a, 1], limit)]
    return Fraction(indices.count(1), len(indices)) if indices else Fraction(0, 1)
