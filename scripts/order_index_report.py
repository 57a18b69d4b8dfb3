#!/usr/bin/env python3
"""Index histograms side by side: smallest root of P vs the structural base.

The base's index is read off the sweep's rows (`index_G`), set at every
prime the structural detector takes.

Usage: python scripts/order_index_report.py [LIMIT]
"""

import sys

from recdiv.orderstats import index_histogram
from recdiv.recurrence import RecurrenceSpec
from recdiv.sweep import SweepConfig, run_sweep


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    grid = [1, 2, 3, 4, 6, 8, 16, 32]
    spec = RecurrenceSpec.from_char_poly([1, -1, -1, -1], [1, 1, 1])
    roots = dict(index_histogram([-1, -1, -1, 1], limit, grid))
    rows, _ = run_sweep(SweepConfig(spec=spec, limit=limit))
    bases = [r.index_g for r in rows if r.index_g is not None]
    print(f"primes <= {limit}, fraction with index <= C")
    print("C     root of P   detector base G")
    for c in grid:
        base = sum(k <= c for k in bases) / len(bases)
        print(f"{c:<5} {float(roots[c]):.4f}      {base:.4f}")
    print("(neither distribution is claimed to match the other; both are")
    print(" expected to approach 1 as C grows)")


if __name__ == "__main__":
    main()
