#!/usr/bin/env python3
"""Sweep the Tribonacci sequence and compare against the predicted densities.

Usage: python scripts/run_tribonacci_sweep.py [LIMIT] [WORKERS]
"""

import sys

from recdiv.charpoly import expected_pattern_density
from recdiv.recurrence import RecurrenceSpec
from recdiv.sweep import SweepConfig, run_sweep


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    spec = RecurrenceSpec.from_char_poly([1, -1, -1, -1], [1, 1, 1])
    _, d = run_sweep(SweepConfig(spec=spec, limit=limit, workers=workers))
    print(f"primes <= {limit}: {d['primes_total']} ({d['excluded_total']} excluded)")
    print("pattern   freq     predicted  divisor-share  indeterminate")
    for key, cell in d["patterns"].items():
        parts = [int(v) for v in key.split("-")]
        predicted = float(expected_pattern_density(sum(parts), parts))
        print(
            f"{key:>7}   {cell['frequency']:.4f}   {predicted:.4f}     "
            f"{cell['divisor_fraction']:.4f}         {cell['indeterminate']}"
        )
    print(f"overall divisor fraction: {d['overall_divisor_fraction']:.4f}")
    print("(the (1, d-1) share approaching 1 is the headline phenomenon;")
    print(" the overall share is bounded below by that pattern's frequency)")


if __name__ == "__main__":
    main()
