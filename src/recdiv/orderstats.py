"""Multiplicative order statistics of polynomial roots over primes.

For each prime where the polynomial has a root mod p, record the order of
the smallest root and its index (p-1)/order. The histogram of indices is
the empirical counterpart of the almost-maximal-order phenomenon; the
primitive-root fraction for a fixed integer base a is the classical
calibration target (roughly 0.374 for base 2). It is read from the order
rows of x - a: the share of rows with index 1.

p = 2 is skipped everywhere here: its unit group is trivial, so a row at 2
carries no order information, and skipping it keeps the base-a fraction and
the histogram of x - a in exact agreement.

A run over all primes up to a limit takes each factorization of p - 1 from
arith.odd_prime_totients, which reads them off one table of smallest prime
factors, and counts the histogram in one pass over the rows.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .arith import mult_order, odd_prime_totients, sieve_primes
from .charpoly import _disc, _ipoly
from .detect import Excluded, build_context
from .fppoly import fp_root
from .recurrence import RecurrenceSpec

MIN_LIMIT = 100  # the smallest prime bound index_histogram accepts


@dataclass(frozen=True, slots=True)
class OrderRow:
    """Order data at one prime: the chosen root, its order, and the index."""

    p: int
    root: int
    order: int
    index: int

    def __post_init__(self):
        if self.order * self.index != self.p - 1:
            raise ValueError("order times index must equal p - 1")
        if pow(self.root, self.order, self.p) != 1:
            raise ValueError("root does not have the claimed order")


def root_order_row(coeffs, p: int, totient=None) -> OrderRow | None:
    """Row for the smallest root of the polynomial mod p, or None.

    None when the polynomial has no root mod p, when the root is 0 (the
    prime divides the constant term, an excluded prime), or at p = 2.
    The caller is expected to have screened out primes dividing the leading
    coefficient or the discriminant.
    """
    if p == 2:
        return None
    root = fp_root(coeffs, p)
    if root is None or root == 0:
        return None
    order = mult_order(root, p, totient)
    return OrderRow(p, root, order, (p - 1) // order)


class NoQualifyingPrimes(ValueError):
    """No prime up to the limit gives an order row, so there is nothing to count."""


def _histogram(rows: list[OrderRow], c_grid) -> list[tuple[int, Fraction]]:
    if not rows:
        raise NoQualifyingPrimes("no qualifying primes")
    counts = Counter(r.index for r in rows)
    indices = sorted(counts)
    at_most = [0, *accumulate(counts[i] for i in indices)]  # [k]: index <= indices[k - 1]
    total = len(rows)
    return [(c, Fraction(at_most[bisect_right(indices, c)], total)) for c in c_grid]


def collect_order_rows(coeffs, limit: int) -> list[OrderRow]:
    """Order rows over all qualifying primes up to limit."""
    poly = _ipoly(coeffs)
    if len(poly) < 2:
        raise ValueError("need a nonconstant polynomial")
    lead = poly[-1]
    disc = _disc(poly)
    rows = []
    for p, totient in odd_prime_totients(limit):
        if lead % p == 0 or disc % p == 0:
            continue
        row = root_order_row(poly, p, totient)
        if row is not None:
            rows.append(row)
    return rows


def index_histogram(coeffs, limit: int, c_grid) -> list[tuple[int, Fraction]]:
    """For each C in the grid, the fraction of rows with index <= C.

    Fractions are exact and nondecreasing in C, reaching 1 once C passes
    the largest observed index.
    """
    if limit < MIN_LIMIT:
        raise ValueError(f"limit must be at least {MIN_LIMIT}")
    return _histogram(collect_order_rows(coeffs, limit), c_grid)


def artin_fraction(a: int, limit: int) -> Fraction:
    """Fraction of odd primes p <= limit, p not dividing a, where a generates F_p^*.

    These are the order rows of x - a with index 1.
    """
    rows = collect_order_rows([-a, 1], limit)
    hits = sum(1 for r in rows if r.index == 1)
    return Fraction(hits, len(rows)) if rows else Fraction(0, 1)


def base_order_rows(spec: RecurrenceSpec, limit: int) -> list[OrderRow]:
    """Order rows for the structural base G over the spec's (1, d-1) primes.

    The companion statistic to the root-order rows: the scan length of the
    structural detector is governed by the index of G, so its distribution
    is worth reporting alongside the root indices.
    """
    rows = []
    for p in sieve_primes(limit):
        ctx = build_context(spec, p)
        if isinstance(ctx, Excluded):
            continue
        rows.append(OrderRow(p, ctx.base, ctx.ord_base, ctx.index_base))
    return rows


def base_index_histogram(spec: RecurrenceSpec, limit: int, c_grid) -> list[tuple[int, Fraction]]:
    """Index histogram for the structural base G."""
    return _histogram(base_order_rows(spec, limit), c_grid)
