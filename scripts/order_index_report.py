#!/usr/bin/env python3
"""Index histograms side by side: smallest root of P vs the structural base.

The base's index is `build_context(spec, p).index_base` at every prime the
structural detector takes: the sweep's `index_G` column, without the scans.

Usage: python scripts/order_index_report.py [LIMIT]
"""

import sys

from recdiv.arith import sieve_primes
from recdiv.detect import StructuralContext, build_context
from recdiv.orderstats import index_histogram
from recdiv.recurrence import RecurrenceSpec


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    grid = [1, 2, 3, 4, 6, 8, 16, 32]
    spec = RecurrenceSpec.from_char_poly([1, -1, -1, -1], [1, 1, 1])
    roots = dict(index_histogram([-1, -1, -1, 1], limit, grid))
    contexts = (build_context(spec, p) for p in sieve_primes(limit))
    bases = [c.index_base for c in contexts if isinstance(c, StructuralContext)]
    print(f"primes <= {limit}, fraction with index <= C")
    print("C     root of P   detector base G")
    for c in grid:
        base = sum(k <= c for k in bases) / len(bases)
        print(f"{c:<5} {float(roots[c]):.4f}      {base:.4f}")
    print("(neither distribution is claimed to match the other; both are")
    print(" expected to approach 1 as C grows)")


if __name__ == "__main__":
    main()
