"""The worked example: a_n = 5^n + (3+sqrt(2))^n + (3-sqrt(2))^n.

Characteristic polynomial (x-5)(x^2-6x+7) = x^3 - 11x^2 + 37x - 35, initial
terms the power sums 3, 11, 47. Whenever the quadratic factor stays
irreducible mod p, the structural base must come out as 25/7 mod p; this
module reproduces that table and checks it prime by prime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import sieve_primes
from .detect import Excluded, build_context
from .recurrence import RecurrenceSpec

DEMO_SPEC = RecurrenceSpec.from_char_poly([1, -11, 37, -35], [3, 11, 47])

BASE_NUMERATOR = 25
BASE_DENOMINATOR = 7


def expected_base(p: int) -> int:
    """25/7 as a residue mod p (p must not divide 7)."""
    return BASE_NUMERATOR * pow(BASE_DENOMINATOR, -1, p) % p


@dataclass(frozen=True)
class DemoRow:
    p: int
    status: str  # "ok" | "mismatch" | exclusion reason
    base: int | None = None
    expected: int | None = None


def base_table(limit: int = 1000) -> list[DemoRow]:
    """Per-prime comparison of the computed base against 25/7 mod p."""
    rows = []
    for p in sieve_primes(limit):
        ctx = build_context(DEMO_SPEC, p)
        if isinstance(ctx, Excluded):
            rows.append(DemoRow(p, ctx.reason))
            continue
        want = expected_base(p)
        rows.append(DemoRow(p, "ok" if ctx.base == want else "mismatch", ctx.base, want))
    return rows
