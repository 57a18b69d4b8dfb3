#!/usr/bin/env python3
"""Re-record the reference outputs in bench/reference.json.

    python3 bench/record.py

Runs every workload once at full size and once at the set-up size, at seed
0, and stores the digests the benchmark's output check compares against,
with the number of primes each size covers. Run it only when a change is
meant to alter the CLI's output bytes, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, SETUP_LIMIT, WORKLOADS, output_digests, run_cli


def primes_upto(n: int) -> int:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return sum(sieve)


def main() -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    outputs = {}
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_run"))
    try:
        for name, wl in WORKLOADS.items():
            outputs[name] = {}
            for size, limit in (("full", wl.limit), ("setup", SETUP_LIMIT)):
                rep = run_cli(wl.argv(limit), work, seed=0)
                if rep.exit_code != 0:
                    print(f"{name} {size}: exit {rep.exit_code}", file=sys.stderr)
                    return 1
                outputs[name][size] = {
                    "primes": primes_upto(limit),
                    **output_digests(work, wl.is_sweep),
                }
                print(f"{name} {size}: {rep.wall_s:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference["outputs"] = outputs
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
