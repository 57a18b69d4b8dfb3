"""Prime sweeps: orchestration, parallelism, aggregation, CSV/JSON output.

A sweep's rows are the PrimeRows that detect_full returns, one per prime;
the type lives in detect. Rows are computed independently per prime (all
lower layers are pure), so the sweep maps _block_rows over contiguous
blocks of primes, with the builtin map or a process pool's, in prime
order. The summary is a function of the rows: summarize counts them and
derives the densities into the dict that --json writes and the CLI prints.
Nothing on the sweep path is random, so output is byte identical across
runs and worker counts. The JSON metadata still carries "seed": 0, a fixed
value that bench/run.py deletes before it compares the JSON with its
reference.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass

from .arith import sieve_primes
from .charpoly import analyze_poly
from .detect import DEFAULT_POLICY, DetectPolicy, PrimeRow, detect_full, exact_zeros
from .recurrence import RecurrenceSpec

# A sweep factors only p - 1, so its caps bound run time only; the Q column,
# (p^(d-1)-1)/(p-1), is an exact Python int at any order and limit.
MAX_LIMIT = 3_000_000
MAX_ORDER = 5
# A pool forks all its workers at its first submit, so their count is capped.
MAX_WORKERS = 64

CSV_HEADER = "p,pattern,squarefree,excluded_reason,verdict,method,witness_n,ord_G,index_G,Q"


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the sequence, the prime bound, scan budgets, and output paths.

    Rejects, with a ValueError, an order or limit beyond the sweep guards,
    a limit below 2, a worker count outside 1..MAX_WORKERS, an output
    path that is empty, is a directory or whose directory does not exist,
    and a CSV and a JSON path that resolve to one file, so a bad path fails
    before the sweep runs.
    """

    spec: RecurrenceSpec
    limit: int
    policy: DetectPolicy = DEFAULT_POLICY
    workers: int = 1
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self):
        d = self.spec.order
        if d > MAX_ORDER:
            raise ValueError(f"order {d} exceeds the sweep cap of {MAX_ORDER}")
        if self.limit < 2:
            raise ValueError(f"limit must be at least 2, the least prime, got {self.limit}")
        if self.limit > MAX_LIMIT:
            raise ValueError(f"limit {self.limit} violates the sweep guard: at most {MAX_LIMIT}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be between 1 and {MAX_WORKERS}, got {self.workers}")
        for what, path in (("CSV", self.csv_path), ("JSON", self.json_path)):
            if path == "":
                raise ValueError(f"cannot write the {what}: its path is empty")
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"cannot write {path}: its directory does not exist")
            if path and os.path.isdir(path):
                raise ValueError(f"cannot write {path}: it is a directory")
        if self.csv_path and self.json_path and (
                os.path.realpath(self.csv_path) == os.path.realpath(self.json_path)):
            raise ValueError(f"cannot write the CSV and the JSON to one file: {self.json_path}")


def _block_rows(args) -> list[PrimeRow]:
    spec, primes, policy = args
    rows = []
    for p in primes:
        try:
            rows.append(detect_full(spec, p, policy))
        except Exception as exc:
            raise RuntimeError(f"p={p}, {spec.fingerprint()}: {exc}") from exc
    return rows


_COUNT_KEYS = ("total", "divisor", "nondivisor", "indeterminate")


def summarize(fingerprint: str, rows: list[PrimeRow], meta: dict) -> dict:
    """The dict --json writes: counts over the rows and the densities they give.

    Excluded rows count only by reason; every other row counts in the cell
    of its pattern, so the densities are over the unexcluded primes.
    """
    excluded = Counter()
    cells = {}
    for row in rows:
        if row.verdict == "excluded":
            excluded[row.reason] += 1
        else:
            cell = cells.setdefault(row.pattern, dict.fromkeys(_COUNT_KEYS, 0))
            cell["total"] += 1
            cell[row.verdict] += 1
    unexcluded = len(rows) - excluded.total()
    divisors = sum(c["divisor"] for c in cells.values())
    return {
        "fingerprint": fingerprint,
        "meta": meta,
        "p_min": min((r.p for r in rows), default=None),
        "p_max": max((r.p for r in rows), default=None),
        "primes_total": len(rows),
        "excluded": dict(sorted(excluded.items())),
        "excluded_total": excluded.total(),
        "unexcluded_total": unexcluded,
        "patterns": {
            key: {
                **c,
                "divisor_fraction": c["divisor"] / c["total"],
                "frequency": c["total"] / unexcluded,
            }
            for key, c in sorted(cells.items())
        },
        "divisor_total": divisors,
        "overall_divisor_fraction": divisors / unexcluded if unexcluded else None,
    }


def run_sweep(config: SweepConfig) -> tuple[list[PrimeRow], dict]:
    """All rows for primes <= limit, in prime order, plus their summary."""
    spec = config.spec
    policy = config.policy
    profile = analyze_poly(list(spec.char_poly()))
    primes = sieve_primes(config.limit)
    size = max(32, -(-len(primes) // (config.workers * 8)))
    blocks = [(spec, primes[i : i + size], policy) for i in range(0, len(primes), size)]
    with ExitStack() as stack:
        mapper = map
        workers = min(config.workers, len(blocks))
        if workers > 1:
            # imported here: serial sweeps, one-block sweeps and the other
            # commands never start a pool
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        rows = [row for block in mapper(_block_rows, blocks) for row in block]
    zeros = exact_zeros(spec)
    meta = {
        "coeffs": list(spec.coeffs),
        "init": list(spec.init),
        "limit": config.limit,
        "seed": 0,
        "r_cap": policy.r_cap,
        "brute_cap": policy.brute_cap,
        "degenerate_zero_term": bool(zeros),
        "zero_term_indices": list(zeros[:10]),
        "hypotheses": {
            "discriminant": profile.discriminant,
            "irreducible": profile.irreducible,
            "nondegenerate": profile.nondegenerate,
            "sd_certified": profile.sd_certified,
            "multiplicative_independence": profile.multiplicative_independence,
            "witness_primes": profile.witness_primes,
            "all_verified": profile.all_verified,
        },
    }
    summary = summarize(spec.fingerprint(), rows, meta)
    if config.csv_path:
        write_csv(rows, config.csv_path)
    if config.json_path:
        write_json(summary, config.json_path)
    return rows, summary


def _cell(v) -> str:
    return "" if v is None else str(v)


def csv_lines(rows: list[PrimeRow]) -> list[str]:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    str(r.p),
                    r.pattern,
                    "1" if r.squarefree else "0",
                    r.reason or "",
                    r.verdict,
                    r.method,
                    _cell(r.witness),
                    _cell(r.ord_g),
                    _cell(r.index_g),
                    _cell(r.q),
                )
            )
        )
    return lines


def write_csv(rows: list[PrimeRow], path: str) -> None:
    """Fixed-schema CSV, LF line endings, one header line."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(csv_lines(rows)) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


def write_json(summary: dict, path: str) -> None:
    """The summary as JSON, in its own key order."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing JSON to {path}: {exc}") from exc
